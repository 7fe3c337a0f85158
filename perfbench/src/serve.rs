//! `serve-warm` and `serve-burst`: a server subprocess (this binary
//! re-executed with `--serve-child`) driven over its unix socket by at
//! most two connections.
//!
//! A run is a sequence of identical rounds. Each round starts a fresh
//! server on an empty state directory (set-up: spawn, bind, warm-up),
//! runs a fixed amount of traffic, then shuts the server down and checks
//! its journal and artifacts. Fixed-size rounds keep the server's
//! memory independent of how fast it is, and give several set-up times
//! per run.

use crate::gen::{self, Rng};
use crate::report::{mean, median, ms, peak_rss_mb, percentile, us, Report};
use crate::Opts;
use hq_bench::service::{
    run_job_direct, Client, JobDone, JobSpec, Journal, Request, Response, ServeOptions,
    StatusReport,
};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

const TENANTS: [&str; 2] = ["t0", "t1"];
/// `serve-warm`: jobs per connection per round.
const WARM_JOBS: usize = 1000;
/// `serve-burst`: jobs due at the same instant.
const BURST: usize = 8;
/// `serve-burst`: bursts per round.
const BURSTS_PER_ROUND: usize = 16;
/// `serve-burst`: fixed mean offered load, jobs per second. Never
/// re-calibrated per run: a rate that tracked the machine would hide a
/// slowdown.
pub const BURST_RATE: f64 = 50.0;

/// The `--serve-child SOCKET DIR [WINDOW_US]` mode: a server with
/// `ServeOptions` defaults whose state lives under `DIR`.
pub fn serve_child(args: &[String]) -> ! {
    let (Some(socket), Some(dir)) = (args.first(), args.get(1)) else {
        eprintln!("usage: --serve-child SOCKET DIR [COMMIT_WINDOW_US]");
        std::process::exit(2);
    };
    let dir = PathBuf::from(dir);
    let mut opts = ServeOptions::new(socket);
    opts.journal = dir.join("journal").join("service.wal");
    opts.artifact_dir = dir.join("service");
    if let Some(w) = args.get(2).and_then(|w| w.parse().ok()) {
        opts.commit_window_us = w;
    }
    match hq_bench::service::serve(opts, false) {
        Ok(_) => std::process::exit(0),
        Err(e) => {
            eprintln!("serve child: {e}");
            std::process::exit(1);
        }
    }
}

/// A running server child; killed and reaped on drop if still alive.
struct Server {
    child: Option<Child>,
    socket: PathBuf,
    journal: PathBuf,
}

impl Server {
    fn spawn(dir: &Path, window_us: Option<u64>) -> Result<Server, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let socket = dir.join("svc.sock");
        let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
        let mut cmd = Command::new(exe);
        cmd.arg("--serve-child").arg(&socket).arg(dir);
        if let Some(w) = window_us {
            cmd.arg(w.to_string());
        }
        let child = cmd
            .env("HQ_RESULTS", dir)
            .env_remove("HQ_SCENARIO_CACHE")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn server: {e}"))?;
        let mut server = Server {
            child: Some(child),
            socket,
            journal: dir.join("journal").join("service.wal"),
        };
        // Ready once a connection succeeds: the socket file appears at
        // bind, a moment before the server listens.
        let deadline = Instant::now() + Duration::from_secs(10);
        while Client::connect(&server.socket).is_err() {
            if let Some(st) = server
                .child
                .as_mut()
                .and_then(|c| c.try_wait().ok().flatten())
            {
                return Err(format!("server exited before listening: {st}"));
            }
            if Instant::now() > deadline {
                return Err("server never listened on its socket".to_string());
            }
            std::thread::sleep(Duration::from_micros(500));
        }
        Ok(server)
    }

    fn client(&self) -> Result<Client, String> {
        let mut c = Client::connect(&self.socket)?;
        c.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(c)
    }

    fn peak_rss_mb(&self) -> Result<f64, String> {
        peak_rss_mb(
            &self
                .child
                .as_ref()
                .expect("server child present")
                .id()
                .to_string(),
        )
    }

    /// Graceful shutdown: the server drains, seals its journal and must
    /// exit 0.
    fn shutdown(&mut self, client: &mut Client) -> Result<(), String> {
        match client.call(&Request::Shutdown)? {
            Response::Bye { .. } => {}
            other => return Err(format!("shutdown answered {other:?}")),
        }
        let mut child = self.child.take().expect("server child present");
        let st = child.wait().map_err(|e| format!("wait server: {e}"))?;
        if !st.success() {
            return Err(format!("server exited with {st}"));
        }
        Ok(())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(mut c) = self.child.take() {
            let _ = c.kill();
            let _ = c.wait();
        }
    }
}

fn status(c: &mut Client) -> Result<StatusReport, String> {
    match c.call(&Request::Status)? {
        Response::Status(s) => Ok(s),
        other => Err(format!("status answered {other:?}")),
    }
}

fn wait(c: &mut Client, id: u64) -> Result<String, String> {
    match c.call(&Request::Wait(id))? {
        Response::Done(_, JobDone::Ok { artifact }) => Ok(artifact),
        other => Err(format!("job {id} ended {other:?}")),
    }
}

/// One job as the client saw it; `spec` indexes the workload's specs.
/// Durations run from when the job was due (closed loop: when sent).
struct Job {
    spec: usize,
    /// Sent minus due.
    late: Duration,
    /// Due until `Accepted` arrived.
    submit: Duration,
    /// Due until `Done` arrived.
    total: Duration,
    /// Artifact path, or why the job failed.
    result: Result<String, String>,
}

/// What one round measured.
struct Round {
    setup: Duration,
    wall: Duration,
    jobs: Vec<Job>,
    before: StatusReport,
    after: StatusReport,
    ping_us: Vec<f64>,
    rss_mb: f64,
}

/// Rounds accumulated over one half of a run.
#[derive(Default)]
struct Phase {
    setup_s: Vec<f64>,
    /// Each round's jobs (a range of `jobs`) and its wall time.
    rounds: Vec<(std::ops::Range<usize>, f64)>,
    jobs: Vec<Job>,
    accepts: u64,
    fsyncs: u64,
    window_flushes: u64,
    solo_flushes: u64,
    dispatches: u64,
    dispatched: u64,
    rejected: u64,
    shed: u64,
    p99_ms: [Vec<f64>; 2],
    ping_us: Vec<f64>,
    rss_mb: Vec<f64>,
}

impl Phase {
    fn add(&mut self, r: Round) {
        let (b, a) = (&r.before, &r.after);
        self.setup_s.push(r.setup.as_secs_f64());
        let n = self.jobs.len();
        self.rounds
            .push((n..n + r.jobs.len(), r.wall.as_secs_f64()));
        self.accepts += a.accepts - b.accepts;
        self.fsyncs += a.fsyncs - b.fsyncs;
        self.window_flushes += a.window_flushes - b.window_flushes;
        self.solo_flushes += a.solo_flushes - b.solo_flushes;
        self.dispatches += a.dispatches - b.dispatches;
        self.dispatched += a.dispatched_jobs - b.dispatched_jobs;
        self.rejected += a.rejected - b.rejected;
        self.shed += a.shed - b.shed;
        for (i, t) in TENANTS.iter().enumerate() {
            if let Some(s) = a.tenants.iter().find(|s| s.tenant == *t) {
                self.p99_ms[i].push(s.p99_ms as f64);
            }
        }
        self.ping_us.extend(r.ping_us);
        self.rss_mb.push(r.rss_mb);
        self.jobs.extend(r.jobs);
    }

    fn ms_of(&self, f: impl Fn(&Job) -> Duration) -> Vec<f64> {
        self.jobs.iter().map(|j| ms(f(j))).collect()
    }

    /// Median over rounds of `f(round's jobs)` per wall second.
    fn rate(&self, f: impl Fn(&[Job]) -> f64) -> f64 {
        let mut r: Vec<f64> = self
            .rounds
            .iter()
            .map(|(jobs, wall)| f(&self.jobs[jobs.clone()]) / wall)
            .collect();
        median(&mut r)
    }
}

/// A serve workload: its specs, what warms the server, and the traffic.
struct Shape {
    specs: Vec<JobSpec>,
    /// `specs[..warm]` are submitted once during set-up.
    warm: usize,
    /// `serve-burst` only: spec index and tenant of the j-th job; jobs
    /// `BURST*k .. BURST*(k+1)` are due together.
    plan: Vec<(usize, &'static str)>,
}

fn warm_shape(seed: u64) -> Shape {
    let specs = gen::warm_pool(seed);
    Shape {
        warm: specs.len(),
        specs,
        plan: Vec::new(),
    }
}

fn burst_shape(seed: u64) -> Shape {
    let (mut specs, cold) = gen::burst_specs(seed, BURSTS_PER_ROUND, BURST / 2);
    let warm = specs.len();
    specs.extend(cold);
    let mut rng = Rng::new(seed, 4);
    let mut plan = Vec::with_capacity(BURSTS_PER_ROUND * BURST);
    for b in 0..BURSTS_PER_ROUND {
        // Cold and repeated specs alternate within a burst, and every
        // fourth job is tenant `t1`. Seeded positions would move the
        // latency median between the warm and the cold mode, and the
        // DRR interleave, from seed to seed.
        for k in 0..BURST {
            let idx = if k % 2 == 0 {
                warm + b * BURST / 2 + k / 2
            } else {
                rng.below(warm)
            };
            plan.push((idx, TENANTS[usize::from(k % 4 == 3)]));
        }
    }
    Shape { specs, warm, plan }
}

fn round(
    o: &Opts,
    shape: &Shape,
    dir: &Path,
    traced: bool,
    artifacts: &mut HashMap<usize, String>,
) -> Result<Round, String> {
    let t0 = Instant::now();
    let mut server = Server::spawn(dir, o.commit_window_us)?;
    let mut clients = [server.client()?, server.client()?];
    for spec in &shape.specs[..shape.warm] {
        match clients[0].submit_and_wait(spec.clone())? {
            Response::Done(_, JobDone::Ok { .. }) => {}
            other => return Err(format!("warm-up job ended {other:?}")),
        }
    }
    let setup = t0.elapsed();
    let before = status(&mut clients[0])?;
    let start = Instant::now();
    let jobs = if shape.plan.is_empty() {
        warm_traffic(o.seed, &shape.specs, &mut clients, traced)
    } else {
        burst_traffic(&shape.specs, &shape.plan, &mut clients)
    };
    let wall = start.elapsed();
    let mut ping_us = Vec::new();
    if traced {
        for _ in 0..200 {
            let t = Instant::now();
            if clients[0].call(&Request::Ping)? != Response::Pong {
                return Err("ping not answered with pong".to_string());
            }
            ping_us.push(us(t.elapsed()));
        }
    }
    let after = status(&mut clients[0])?;
    let rss_mb = server.peak_rss_mb()?;
    server.shutdown(&mut clients[0])?;
    let j = Journal::inspect(&server.journal).map_err(|e| format!("inspect journal: {e}"))?;
    if !j.sealed || j.accepted != j.done || j.torn_bytes != 0 {
        return Err(format!(
            "journal not sealed clean: sealed={} accepted={} done={} torn={}",
            j.sealed, j.accepted, j.done, j.torn_bytes
        ));
    }
    // Every artifact of one spec must carry the same bytes, in every
    // round; the representative is compared with a direct run later.
    for job in &jobs {
        let Ok(path) = &job.result else { continue };
        let bytes = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        match artifacts.get(&job.spec) {
            Some(seen) if *seen != bytes => {
                return Err(format!(
                    "artifact {path} differs from another run of its spec"
                ))
            }
            Some(_) => {}
            None => {
                artifacts.insert(job.spec, bytes);
            }
        }
    }
    Ok(Round {
        setup,
        wall,
        jobs,
        before,
        after,
        ping_us,
        rss_mb,
    })
}

/// Closed loop: each connection submits its next job when the last one
/// is done. The traced run times `Submit` and `Wait` separately.
fn warm_traffic(seed: u64, pool: &[JobSpec], clients: &mut [Client; 2], traced: bool) -> Vec<Job> {
    std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                s.spawn(move || {
                    let mut rng = Rng::new(seed, 10 + c as u64);
                    let mut jobs = Vec::with_capacity(WARM_JOBS);
                    for _ in 0..WARM_JOBS {
                        let idx = rng.below(pool.len());
                        let spec = JobSpec {
                            tenant: TENANTS[c].to_string(),
                            ..pool[idx].clone()
                        };
                        let due = Instant::now();
                        let (submit, result) = if traced {
                            match client.call(&Request::Submit(spec)) {
                                Ok(Response::Accepted(id)) => (due.elapsed(), wait(client, id)),
                                Ok(other) => (due.elapsed(), Err(format!("submit: {other:?}"))),
                                Err(e) => (due.elapsed(), Err(e)),
                            }
                        } else {
                            let r = match client.submit_and_wait(spec) {
                                Ok(Response::Done(_, JobDone::Ok { artifact })) => Ok(artifact),
                                Ok(other) => Err(format!("job ended {other:?}")),
                                Err(e) => Err(e),
                            };
                            (Duration::ZERO, r)
                        };
                        jobs.push(Job {
                            spec: idx,
                            late: Duration::ZERO,
                            submit,
                            total: due.elapsed(),
                            result,
                        });
                    }
                    jobs
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("serve-warm client thread"))
            .collect()
    })
}

/// Open loop: one connection submits each burst when it is due; the
/// other waits for accepted jobs in acceptance order, so a job's
/// recorded completion is the later of its own and its predecessors'.
fn burst_traffic(
    specs: &[JobSpec],
    plan: &[(usize, &'static str)],
    clients: &mut [Client; 2],
) -> Vec<Job> {
    let interval = Duration::from_secs_f64(BURST as f64 / BURST_RATE);
    let start = Instant::now() + Duration::from_millis(2);
    let [submitter, collector] = clients;
    std::thread::scope(|s| {
        let (tx, rx) = mpsc::channel::<(Job, u64, Instant)>();
        let waits = s.spawn(move || {
            let mut jobs = Vec::with_capacity(plan.len());
            for (mut job, id, due) in rx {
                if job.result.is_ok() {
                    job.result = wait(collector, id);
                }
                job.total = due.elapsed();
                jobs.push(job);
            }
            jobs
        });
        for (j, &(idx, tenant)) in plan.iter().enumerate() {
            let due = start + interval * (j / BURST) as u32;
            let now = Instant::now();
            if now < due {
                std::thread::sleep(due - now);
            }
            let spec = JobSpec {
                tenant: tenant.to_string(),
                ..specs[idx].clone()
            };
            let sent = Instant::now();
            let (result, id) = match submitter.call(&Request::Submit(spec)) {
                Ok(Response::Accepted(id)) => (Ok(String::new()), id),
                Ok(other) => (Err(format!("submit answered {other:?}")), 0),
                Err(e) => (Err(e), 0),
            };
            let submit = due.elapsed();
            let job = Job {
                spec: idx,
                late: sent - due,
                submit,
                total: submit,
                result,
            };
            tx.send((job, id, due)).expect("collector thread alive");
        }
        drop(tx);
        waits.join().expect("serve-burst collector thread")
    })
}

/// Serving-plane numbers observed from a live server (traced half).
pub struct Observed {
    submit: [f64; 2],
    wait: [f64; 2],
    ping_us: f64,
    fsyncs_per_accept: f64,
    window_flushes: f64,
    solo_flushes: f64,
    rejected: f64,
    shed: f64,
    p99_ms: [f64; 2],
    occupancy: f64,
    late_p90_ms: f64,
}

/// Per-layer metrics seen from the live server, in a fixed order; all
/// zero for a workload that starts no server.
pub fn report_observed(rep: &mut Report, obs: Option<&Observed>) {
    let z = |f: fn(&Observed) -> f64| obs.map(f).unwrap_or(0.0);
    rep.layer("serve.submit_ms_p50", z(|o| o.submit[0]), "ms", 1);
    rep.layer("serve.submit_ms_p90", z(|o| o.submit[1]), "ms", 1);
    rep.layer("serve.wait_ms_p50", z(|o| o.wait[0]), "ms", 1);
    rep.layer("serve.wait_ms_p90", z(|o| o.wait[1]), "ms", 1);
    rep.layer("serve.ping_rtt_us", z(|o| o.ping_us), "us", 1);
    rep.layer(
        "journal.fsyncs_per_accept",
        z(|o| o.fsyncs_per_accept),
        "ratio",
        1,
    );
    rep.layer(
        "journal.window_flushes",
        z(|o| o.window_flushes),
        "count",
        1,
    );
    rep.layer("journal.solo_flushes", z(|o| o.solo_flushes), "count", 1);
    rep.layer("admission.rejected", z(|o| o.rejected), "count", 1);
    rep.layer("admission.shed", z(|o| o.shed), "count", 1);
    rep.layer("tenancy.p99_ms_t0", z(|o| o.p99_ms[0]), "ms", 1);
    rep.layer("tenancy.p99_ms_t1", z(|o| o.p99_ms[1]), "ms", 1);
    rep.layer("dispatch.occupancy", z(|o| o.occupancy), "jobs", 1);
    rep.layer("generator_late_ms", z(|o| o.late_p90_ms), "ms", 1);
}

/// Runs `serve-warm` (`burst = false`) or `serve-burst`. Returns the
/// workload's specs (for the layer probes), what the traced half saw,
/// and the tracing overhead in percent.
pub fn run(
    o: &Opts,
    base: &Path,
    burst: bool,
    rep: &mut Report,
) -> (Vec<JobSpec>, Option<Observed>, f64) {
    let shape = if burst {
        burst_shape(o.seed)
    } else {
        warm_shape(o.seed)
    };
    let mut phases = [Phase::default(), Phase::default()];
    let halves: &[f64] = if o.trace {
        &[o.seconds / 2.0, o.seconds / 2.0]
    } else {
        &[o.seconds]
    };
    let mut artifacts = HashMap::new();
    let mut rounds = 0;
    for (p, &secs) in halves.iter().enumerate() {
        let t = Instant::now();
        while phases[p].jobs.is_empty() || t.elapsed().as_secs_f64() < secs {
            let dir = base.join(format!("round-{rounds}"));
            rounds += 1;
            let r = round(o, &shape, &dir, p == 1, &mut artifacts);
            let _ = std::fs::remove_dir_all(&dir);
            match r {
                Ok(r) => phases[p].add(r),
                Err(e) => {
                    rep.fail(format!("round {rounds}: {e}"));
                    return (shape.specs, None, 0.0);
                }
            }
        }
    }

    // Reference artifacts, computed after the timed window.
    std::env::set_var("HQ_SCENARIO_CACHE", "off");
    let direct: Vec<Result<String, String>> = shape.specs.iter().map(run_job_direct).collect();
    std::env::remove_var("HQ_SCENARIO_CACHE");
    for (idx, served) in &artifacts {
        match &direct[*idx] {
            Ok(d) if d == served => {}
            Ok(_) => rep.fail(format!(
                "served artifact of spec {idx} differs from a direct run"
            )),
            Err(e) => rep.fail(format!("direct run of spec {idx} failed: {e}")),
        }
    }
    for p in &phases {
        rep.attempted += p.jobs.len() as u64;
        // A rejected or shed submit is also a failed job.
        rep.failed += p.jobs.iter().filter(|j| j.result.is_err()).count() as u64;
        if let Some(j) = p.jobs.iter().find(|j| j.result.is_err()) {
            rep.fail(format!("job failed: {}", j.result.as_ref().unwrap_err()));
        }
        if p.rejected + p.shed > 0 {
            rep.fail(format!("{} submits rejected, {} shed", p.rejected, p.shed));
        }
    }

    let p = &phases[0];
    let mut lat = p.ms_of(|j| j.total);
    let ok = |jobs: &[Job]| jobs.iter().filter(|j| j.result.is_ok()).count() as f64;
    let events = |jobs: &[Job]| -> f64 {
        jobs.iter()
            .filter(|j| j.result.is_ok())
            .filter_map(|j| direct[j.spec].as_ref().ok())
            .map(|a| artifact_events(a) as f64)
            .sum()
    };
    let n = lat.len();
    rep.e2e(
        "setup_s",
        median(&mut p.setup_s.clone()),
        "s",
        p.setup_s.len(),
    );
    rep.e2e("throughput_per_s", p.rate(ok), "1/s", n);
    rep.e2e("latency_p50_ms", percentile(&mut lat, 50.0), "ms", n);
    rep.e2e("latency_p90_ms", percentile(&mut lat, 90.0), "ms", n);
    rep.e2e("sim_events_per_s", p.rate(events), "1/s", n);
    rep.e2e(
        "peak_rss_mb",
        median(&mut p.rss_mb.clone()),
        "MiB",
        p.rss_mb.len(),
    );
    if n >= 1000 {
        let p99 = percentile(&mut lat, 99.0);
        rep.info.push(format!(
            "latency_p99_ms {p99:.4} ms (n={n}, {} beyond p99)",
            n / 100
        ));
    }
    let offered = if burst {
        format!(", offered {BURST_RATE} jobs/s")
    } else {
        String::new()
    };
    rep.info.push(format!(
        "rounds {rounds}, fail_ratio {:.4}{offered}",
        rep.failed as f64 / rep.attempted.max(1) as f64
    ));
    if burst {
        let mut late = p.ms_of(|j| j.late);
        rep.info.push(format!(
            "generator_late_ms p50 {:.4} p90 {:.4}; server per-tenant p99_ms (median over \
             rounds) t0 {} t1 {}, beside client latency recorded in acceptance order",
            percentile(&mut late, 50.0),
            percentile(&mut late, 90.0),
            median(&mut p.p99_ms[0].clone()),
            median(&mut p.p99_ms[1].clone())
        ));
    }
    if !o.trace {
        return (shape.specs, None, 0.0);
    }

    let t = &phases[1];
    let mut submit = t.ms_of(|j| j.submit);
    let mut waits = t.ms_of(|j| j.total - j.submit);
    let mut late = t.ms_of(|j| j.late);
    let overhead = 100.0 * (mean(&t.ms_of(|j| j.total)) / mean(&p.ms_of(|j| j.total)) - 1.0);
    let obs = Observed {
        submit: [percentile(&mut submit, 50.0), percentile(&mut submit, 90.0)],
        wait: [percentile(&mut waits, 50.0), percentile(&mut waits, 90.0)],
        ping_us: median(&mut t.ping_us.clone()),
        fsyncs_per_accept: t.fsyncs as f64 / t.accepts.max(1) as f64,
        window_flushes: t.window_flushes as f64,
        solo_flushes: t.solo_flushes as f64,
        rejected: t.rejected as f64,
        shed: t.shed as f64,
        p99_ms: [
            median(&mut t.p99_ms[0].clone()),
            median(&mut t.p99_ms[1].clone()),
        ],
        occupancy: t.dispatched as f64 / t.dispatches.max(1) as f64,
        late_p90_ms: if burst {
            percentile(&mut late, 90.0)
        } else {
            0.0
        },
    };
    (shape.specs, Some(obs), overhead)
}

/// The `events` line of a rendered artifact.
fn artifact_events(a: &str) -> u64 {
    a.lines()
        .find_map(|l| l.strip_prefix("events "))
        .and_then(|n| n.parse().ok())
        .unwrap_or(0)
}
