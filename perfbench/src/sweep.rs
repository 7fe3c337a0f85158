//! `sweep`: in-process, one thread. Each pass runs the seed's distinct
//! scenarios cold through `scenario::run_scenario`, starting from an
//! empty cache directory; passes repeat until the run's time is up, and
//! every pass must produce the same output digest.

use crate::gen::{self, config_for};
use crate::report::{mean, median, ms, peak_rss_mb, percentile, Report};
use crate::{alloc, Opts};
use hq_bench::scenario::{cache_stats, reset_cache, run_scenario, run_scenario_workload};
use hq_bench::service::JobSpec;
use hq_bench::util::codec::fnv1a;
use hyperq_core::harness::RunOutcome;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// Pass digests of the first seeds, from `--sweep-digests`.
const DIGESTS: &str = include_str!("../sweep_digests.txt");

/// One line per simulated output: makespan, events, energy bits and
/// every app's finish time.
pub fn digest_line(out: &RunOutcome, s: &mut String) {
    let _ = write!(
        s,
        "{} {} {:016x}",
        out.result.makespan.as_ns(),
        out.result.events,
        out.power.energy_j.to_bits()
    );
    for a in &out.result.apps {
        match a.finished {
            Some(t) => {
                let _ = write!(s, " {}", t.as_ns());
            }
            None => s.push_str(" -"),
        }
    }
    s.push('\n');
}

fn stored_digest(seed: u64) -> Option<u64> {
    DIGESTS.lines().find_map(|l| {
        let (s, d) = l.split_once(' ')?;
        (s.parse::<u64>().ok()? == seed).then(|| u64::from_str_radix(d.trim(), 16).ok())?
    })
}

/// Extra set-ups timed before the first pass, so the reported median
/// rests on enough samples.
const SETUPS: usize = 200;

/// Set-up of one pass: its run configurations and schedules, an empty
/// cache directory and an empty memo. Removing the previous pass's
/// directory is not timed.
fn setup(specs: &[JobSpec], dir: &Path) -> Result<(gen::Cases, f64), String> {
    let _ = std::fs::remove_dir_all(dir);
    let t = Instant::now();
    let cases = gen::cases(specs);
    std::fs::create_dir_all(dir.join(".scenario-cache"))
        .map_err(|e| format!("create cache dir: {e}"))?;
    reset_cache();
    Ok((cases, t.elapsed().as_secs_f64()))
}

#[derive(Default)]
struct Passes {
    setup_s: Vec<f64>,
    lat_ms: Vec<f64>,
    /// Per pass: scenarios and simulated events per wall second.
    rates: Vec<f64>,
    event_rates: Vec<f64>,
    digests: Vec<u64>,
    attempted: u64,
    failed: u64,
}

fn passes(specs: &[JobSpec], dir: &Path, secs: f64, traced: bool, rep: &mut Report) -> Passes {
    let mut p = Passes::default();
    let t = Instant::now();
    alloc::enable(traced);
    while p.digests.is_empty() || t.elapsed().as_secs_f64() < secs {
        let cases = match setup(specs, dir) {
            Ok((cases, d)) => {
                p.setup_s.push(d);
                cases
            }
            Err(e) => {
                rep.fail(e);
                break;
            }
        };
        let mut lines = String::new();
        let (mut done, mut events) = (0u64, 0u64);
        let pass = Instant::now();
        for (spec, (cfg, sched)) in specs.iter().zip(&cases) {
            let t1 = Instant::now();
            let out = run_scenario(cfg, sched);
            p.lat_ms.push(ms(t1.elapsed()));
            p.attempted += 1;
            match out {
                Ok(out) => {
                    done += 1;
                    events += out.result.events;
                    digest_line(&out, &mut lines);
                }
                Err(e) => {
                    p.failed += 1;
                    rep.fail(format!("scenario {}: {e}", spec.signature()));
                }
            }
        }
        let wall = pass.elapsed().as_secs_f64();
        p.rates.push(done as f64 / wall);
        p.event_rates.push(events as f64 / wall);
        p.digests.push(fnv1a(lines.as_bytes()));
        if cache_stats() != (0, specs.len() as u64) {
            rep.fail(format!(
                "pass was not all cold misses: (hits, misses) = {:?}",
                cache_stats()
            ));
        }
    }
    alloc::enable(false);
    p
}

/// Pass digest of `specs` computed without the cache, for seeds with
/// no stored digest and for `--sweep-digests`.
pub fn direct_digest(specs: &[JobSpec]) -> Result<u64, String> {
    std::env::set_var("HQ_SCENARIO_CACHE", "off");
    let mut lines = String::new();
    let mut res = Ok(());
    for spec in specs {
        match run_scenario_workload(&config_for(spec), &spec.workload) {
            Ok(out) => digest_line(&out, &mut lines),
            Err(e) => {
                res = Err(format!("scenario {}: {e}", spec.signature()));
                break;
            }
        }
    }
    std::env::remove_var("HQ_SCENARIO_CACHE");
    res.map(|()| fnv1a(lines.as_bytes()))
}

/// Runs `sweep`; returns its specs (for the layer probes) and the
/// tracing overhead in percent.
pub fn run(o: &Opts, dir: &Path, rep: &mut Report) -> (Vec<JobSpec>, f64) {
    let specs = gen::sweep_specs(o.seed);
    std::env::set_var("HQ_RESULTS", dir);
    std::env::remove_var("HQ_SCENARIO_CACHE");
    let secs = if o.trace { o.seconds / 2.0 } else { o.seconds };
    let mut setups = Vec::with_capacity(SETUPS);
    for _ in 0..SETUPS {
        match setup(&specs, dir) {
            Ok((_, d)) => setups.push(d),
            Err(e) => rep.fail(e),
        }
    }
    let mut a = passes(&specs, dir, secs, false, rep);
    a.setup_s.extend(setups);
    let b = if o.trace {
        passes(&specs, dir, secs, true, rep)
    } else {
        Passes::default()
    };

    let (expect, source) = match stored_digest(o.seed) {
        Some(d) => (Ok(d), "stored"),
        None => (direct_digest(&specs), "direct re-run"),
    };
    match expect {
        Ok(d) => {
            if let Some(bad) = a.digests.iter().chain(&b.digests).find(|&&x| x != d) {
                rep.fail(format!(
                    "pass digest {bad:016x} != {source} digest {d:016x}"
                ));
            }
        }
        Err(e) => rep.fail(e),
    }
    rep.attempted += a.attempted + b.attempted;
    rep.failed += a.failed + b.failed;

    let n = a.lat_ms.len();
    rep.e2e("setup_s", median(&mut a.setup_s), "s", a.setup_s.len());
    rep.e2e("throughput_per_s", median(&mut a.rates), "1/s", n);
    rep.e2e("latency_p50_ms", percentile(&mut a.lat_ms, 50.0), "ms", n);
    rep.e2e("latency_p90_ms", percentile(&mut a.lat_ms, 90.0), "ms", n);
    rep.e2e("sim_events_per_s", median(&mut a.event_rates), "1/s", n);
    match peak_rss_mb("self") {
        Ok(mb) => rep.e2e("peak_rss_mb", mb, "MiB", 1),
        Err(e) => rep.fail(e),
    }
    rep.info.push(format!(
        "passes {} of {} scenarios, digest {:016x} ({source}), fail_ratio {:.4}",
        a.digests.len(),
        specs.len(),
        a.digests[0],
        a.failed as f64 / a.attempted.max(1) as f64
    ));
    let overhead = if o.trace {
        100.0 * (mean(&b.lat_ms) / mean(&a.lat_ms) - 1.0)
    } else {
        0.0
    };
    (specs, overhead)
}
