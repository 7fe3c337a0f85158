//! Per-layer probes for the traced run: the benchmark calls each
//! layer's public functions directly, on the workload's own specs, and
//! times them. Counts (`des.events`, `alloc.*`, `protocol.frame_bytes`)
//! repeat exactly for a given seed.

use crate::alloc;
use crate::gen;
use crate::report::{us, Report};
use crate::sweep::digest_line;
use hq_bench::scenario::{cache_stats, reset_cache, run_scenario, run_scenario_batch_jobs};
use hq_bench::service::protocol::{read_frame_into, write_frame_into, FrameBufs};
use hq_bench::service::{
    render_artifact, JobDone, JobSpec, Journal, Request, Response, TenantPolicy, TenantQueues,
};
use hq_power::PowerMonitor;
use hyperq_core::harness::{build_schedule, run_schedule, RunOutcome};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Scenario runs per timed probe pass: small spec lists are repeated.
const MIN_RUNS: usize = 48;
/// Calls per timed micro-probe.
const MICRO_CALLS: usize = 4000;

fn line(out: &RunOutcome) -> String {
    let mut s = String::new();
    digest_line(out, &mut s);
    s
}

/// Simulator, harness, power, scenario-cache, batch and allocation
/// probes. Returns the direct outcome of every spec.
pub fn sim_layers(specs: &[JobSpec], dir: &Path, rep: &mut Report) -> Vec<RunOutcome> {
    let cases = gen::cases(specs);
    let reps = MIN_RUNS.div_ceil(cases.len()).max(1);
    let runs = (reps * cases.len()) as f64;
    std::env::set_var("HQ_RESULTS", dir);
    std::env::remove_var("HQ_SCENARIO_CACHE");

    let calls = MICRO_CALLS.div_ceil(specs.len());
    let t = Instant::now();
    for _ in 0..calls {
        for (s, (cfg, _)) in specs.iter().zip(&cases) {
            black_box(build_schedule(black_box(&s.workload), cfg.order, cfg.seed));
        }
    }
    let build_us = us(t.elapsed()) / (calls * specs.len()) as f64;

    // Cold cache run and direct harness run of each case, interleaved so
    // their difference is the cache's own miss cost.
    let (mut cold_us, mut direct_us, mut loop_s, mut power_us) = (0.0, 0.0, 0.0, 0.0);
    let (mut events, mut peak_pending, mut tombstones, mut allocs) = (0u64, 0usize, 0.0, 0u64);
    let mut outs = Vec::with_capacity(cases.len());
    for r in 0..reps {
        let _ = std::fs::remove_dir_all(dir);
        reset_cache();
        for (cfg, sched) in &cases {
            let t = Instant::now();
            let cold = run_scenario(cfg, sched);
            cold_us += us(t.elapsed());
            alloc::enable(true);
            let a0 = alloc::count();
            let t = Instant::now();
            let direct = run_schedule(cfg, sched);
            direct_us += us(t.elapsed());
            let a1 = alloc::count();
            alloc::enable(false);
            let (Ok(cold), Ok(out)) = (cold, direct) else {
                rep.fail("probe scenario returned an error");
                return outs;
            };
            if line(&cold) != line(&out) {
                rep.fail("cold cache run differs from the direct harness run");
            }
            loop_s += out.result.perf.wall_secs;
            let monitor = PowerMonitor::with_period(cfg.power, cfg.sample_period);
            let t = Instant::now();
            for _ in 0..10 {
                black_box(monitor.measure(black_box(&out.result)));
            }
            power_us += us(t.elapsed()) / 10.0;
            if r == 0 {
                events += out.result.events;
                allocs += a1 - a0;
                peak_pending = peak_pending.max(out.result.perf.peak_pending);
                tombstones += out.result.perf.tombstone_ratio;
                outs.push(out);
            }
        }
    }
    let all_events = events as f64 * reps as f64;
    if cache_stats() != (0, cases.len() as u64) {
        rep.fail(format!(
            "cold probe pass was not all misses: {:?}",
            cache_stats()
        ));
    }

    // Memo hits, then (memo dropped) disk hits, of the same cases.
    let n = cases.len() as u64;
    let (h0, _) = cache_stats();
    alloc::enable(true);
    let a0 = alloc::count();
    let t = Instant::now();
    for _ in 0..reps {
        for (cfg, sched) in &cases {
            black_box(run_scenario(cfg, sched).ok());
        }
    }
    let memo_us = us(t.elapsed()) / runs;
    let hit_allocs = (alloc::count() - a0) as f64 / runs;
    alloc::enable(false);
    if cache_stats() != (h0 + reps as u64 * n, n) {
        rep.fail(format!("memo probe missed: {:?}", cache_stats()));
    }
    let mut disk_us = 0.0;
    for _ in 0..reps {
        reset_cache();
        let t = Instant::now();
        for (cfg, sched) in &cases {
            black_box(run_scenario(cfg, sched).ok());
        }
        disk_us += us(t.elapsed());
        if cache_stats() != (n, 0) {
            rep.fail(format!("disk probe missed: {:?}", cache_stats()));
        }
    }

    // K=8 lane batches of the same cases, cache off, against the serial
    // direct runs above.
    std::env::set_var("HQ_SCENARIO_CACHE", "off");
    let mut batch_us = 0.0;
    for _ in 0..reps {
        for (i, chunk) in cases.chunks(8).enumerate() {
            let t = Instant::now();
            let res = run_scenario_batch_jobs(chunk);
            batch_us += us(t.elapsed());
            for (k, r) in res.iter().enumerate() {
                if r.as_ref().map(line).ok() != Some(line(&outs[i * 8 + k])) {
                    rep.fail("batched run differs from the serial run");
                }
            }
        }
    }
    std::env::remove_var("HQ_SCENARIO_CACHE");
    let _ = std::fs::remove_dir_all(dir);

    let n = cases.len();
    rep.layer("des.events", events as f64, "count", n);
    rep.layer("des.peak_pending", peak_pending as f64, "count", n);
    rep.layer("des.tombstone_ratio", tombstones / n as f64, "ratio", n);
    rep.layer(
        "gpu.event_loop_ns_per_event",
        loop_s * 1e9 / all_events,
        "ns",
        n,
    );
    rep.layer(
        "harness.build_and_power_ms",
        (direct_us - loop_s * 1e6) / runs / 1e3,
        "ms",
        n,
    );
    rep.layer("power.measure_us", power_us / runs, "us", n);
    rep.layer("core.build_schedule_us", build_us, "us", n);
    rep.layer("batch.cold_us_per_scenario", batch_us / runs, "us", n);
    rep.layer("batch.serial_us_per_scenario", direct_us / runs, "us", n);
    rep.layer(
        "scenario.miss_overhead_us",
        (cold_us - direct_us) / runs,
        "us",
        n,
    );
    rep.layer("scenario.memo_hit_us", memo_us, "us", n);
    rep.layer("scenario.disk_hit_us", disk_us / runs, "us", n);
    rep.layer("alloc.per_event", allocs as f64 / events as f64, "count", n);
    rep.layer("alloc.per_hit", hit_allocs, "count", n);
    outs
}

/// Artifact, protocol, journal and tenancy probes on the workload's specs.
pub fn serve_layers(specs: &[JobSpec], outs: &[RunOutcome], dir: &Path, rep: &mut Report) {
    let calls = MICRO_CALLS.div_ceil(outs.len().max(1));
    let t = Instant::now();
    for _ in 0..calls {
        for (s, out) in specs.iter().zip(outs) {
            black_box(render_artifact(black_box(s), out));
        }
    }
    let render_us = us(t.elapsed()) / (calls * outs.len().max(1)) as f64;

    // One submit+wait exchange: four frames through the frame codec.
    let calls = MICRO_CALLS.div_ceil(specs.len());
    let mut bufs = FrameBufs::default();
    let mut wire = Vec::new();
    let t = Instant::now();
    for _ in 0..calls {
        for (i, s) in specs.iter().enumerate() {
            let id = i as u64 + 1;
            wire.clear();
            let done = JobDone::Ok {
                artifact: format!("service/job-{id}.out"),
            };
            let frames = [
                Request::Submit(s.clone()).encode(),
                Response::Accepted(id).encode(),
                Request::Wait(id).encode(),
                Response::Done(id, done).encode(),
            ];
            for f in &frames {
                let _ = write_frame_into(&mut wire, &mut bufs, f);
            }
            let mut r = std::io::BufReader::new(wire.as_slice());
            let mut rbufs = FrameBufs::default();
            for k in 0..4 {
                let Ok(Some(p)) = read_frame_into(&mut r, &mut rbufs) else {
                    rep.fail("frame codec lost a frame");
                    return;
                };
                let ok = if k % 2 == 0 {
                    Request::decode(p).is_ok()
                } else {
                    Response::decode(p).is_ok()
                };
                if !ok {
                    rep.fail("frame codec could not decode its own frame");
                    return;
                }
            }
        }
    }
    let codec_us = us(t.elapsed()) / (calls * specs.len()) as f64;
    // Bytes on the wire per exchange, counted once (exact).
    let mut bytes = 0usize;
    for (i, s) in specs.iter().enumerate() {
        wire.clear();
        let id = i as u64 + 1;
        let done = JobDone::Ok {
            artifact: format!("service/job-{id}.out"),
        };
        for f in [
            Request::Submit(s.clone()).encode(),
            Response::Accepted(id).encode(),
            Request::Wait(id).encode(),
            Response::Done(id, done).encode(),
        ] {
            let _ = write_frame_into(&mut wire, &mut bufs, &f);
        }
        bytes += wire.len();
    }

    // Journal appends on the same filesystem the server's journal uses.
    let _ = std::fs::remove_dir_all(dir);
    let (mut accept_us, mut sync_us) = (0.0, 0.0);
    const APPENDS: usize = 300;
    match Journal::open(&dir.join("service.wal")) {
        Ok((mut j, _)) => {
            let handle = j.sync_handle();
            for i in 0..APPENDS {
                let s = &specs[i % specs.len()];
                let t = Instant::now();
                let a = j.accept(2 * i as u64 + 1, s);
                accept_us += us(t.elapsed());
                let b = j.accept_nosync(2 * i as u64 + 2, s);
                let t = Instant::now();
                let c = handle.as_ref().map(|h| h.sync_data());
                sync_us += us(t.elapsed());
                if a.is_err() || b.is_err() || !matches!(c, Ok(Ok(()))) {
                    rep.fail("journal probe append failed");
                    break;
                }
            }
        }
        Err(e) => rep.fail(format!("journal probe open: {e}")),
    }
    let _ = std::fs::remove_dir_all(dir);

    // Deficit round-robin: push two tenants 3:1, pop, complete.
    let policy = TenantPolicy::default();
    let mut q: TenantQueues<u32> = TenantQueues::default();
    const OPS: usize = 100_000;
    let t = Instant::now();
    for i in 0..OPS {
        q.push(if i % 4 == 3 { "t1" } else { "t0" }, i as u32);
        if let Some((tenant, item)) = q.pop(&policy) {
            black_box(item);
            q.complete(&tenant, Some(1));
        }
    }
    let queue_ns = t.elapsed().as_secs_f64() * 1e9 / OPS as f64;

    let n = specs.len();
    rep.layer("artifact.render_us", render_us, "us", n);
    rep.layer("protocol.codec_us", codec_us, "us", n);
    rep.layer("protocol.frame_bytes", bytes as f64 / n as f64, "bytes", n);
    rep.layer(
        "journal.accept_us",
        accept_us / APPENDS as f64,
        "us",
        APPENDS,
    );
    rep.layer(
        "journal.sync_data_us",
        sync_us / APPENDS as f64,
        "us",
        APPENDS,
    );
    rep.layer("tenancy.push_pop_ns", queue_ns, "ns", OPS);
}
