//! The repository benchmark: three seeded workloads, measured end to end
//! (`--trace 0`) or layer by layer (`--trace 1`). See `README.md`.
//!
//! ```text
//! perfbench --workload sweep|serve-warm|serve-burst --seed N --seconds S --trace 0|1
//!           [--commit-window-us US]
//! perfbench --sweep-digests FROM TO
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. A failed output check
//! prints `"correct": false` and exits 1; a usage error exits 2.

mod alloc;
mod gen;
mod probes;
mod report;
mod serve;
mod sweep;

use report::Report;
use std::path::PathBuf;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

const WORKLOADS: [&str; 3] = ["sweep", "serve-warm", "serve-burst"];

pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Server group-commit window override (the sensitivity check).
    pub commit_window_us: Option<u64>,
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        commit_window_us: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {val:?} for {flag}");
        match flag.as_str() {
            "--workload" => o.workload = val.clone(),
            "--seed" => o.seed = val.parse().map_err(|_| bad())?,
            "--seconds" => o.seconds = val.parse().map_err(|_| bad())?,
            "--trace" => o.trace = val.parse::<u8>().map_err(|_| bad())? != 0,
            "--commit-window-us" => o.commit_window_us = Some(val.parse().map_err(|_| bad())?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&o.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if !(o.seconds > 0.0 && o.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    Ok(o)
}

/// Scratch state for one run, removed on drop. It lives on tmpfs when
/// the machine has one: on a VM disk, fsync throughput is metered by the
/// hypervisor, so serving numbers would measure the disk's credit bucket
/// rather than the program.
struct StateDir(PathBuf);

impl StateDir {
    fn new(workload: &str) -> Result<StateDir, String> {
        let name = format!("perfbench-{}-{workload}", std::process::id());
        let shm = std::path::Path::new("/dev/shm");
        let dir = if shm.is_dir() && std::fs::create_dir_all(shm.join(&name)).is_ok() {
            shm.join(name)
        } else {
            PathBuf::from(".perfbench-work").join(name)
        };
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(StateDir(dir))
    }
}

impl Drop for StateDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--serve-child") => serve::serve_child(&args[1..]),
        Some("--sweep-digests") => return print_digests(&args[1..]),
        _ => {}
    }
    let o = parse(&args).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    let state = StateDir::new(&o.workload).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    });
    let mut rep = Report::default();
    let (specs, observed, overhead) = match o.workload.as_str() {
        "sweep" => {
            let (specs, overhead) = sweep::run(&o, &state.0.join("sweep"), &mut rep);
            (specs, None, overhead)
        }
        w => serve::run(&o, &state.0, w == "serve-burst", &mut rep),
    };
    if o.trace && rep.correct() {
        let outs = probes::sim_layers(&specs, &state.0.join("probe"), &mut rep);
        probes::serve_layers(&specs, &outs, &state.0.join("probe-journal"), &mut rep);
        serve::report_observed(&mut rep, observed.as_ref());
        rep.layer("trace.overhead_pct", overhead, "%", 1);
    }
    rep.info.push(format!(
        "state on {}; {} cpus; simulated GPU model is unvalidated (no hardware reference)",
        state.0.display(),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    ));
    rep.print(&o.workload, o.trace);
    drop(state);
    if !rep.correct() {
        std::process::exit(1);
    }
}

/// `--sweep-digests FROM TO`: print `seed digest` lines for the stored
/// table in `sweep_digests.txt`, computed without the cache.
fn print_digests(args: &[String]) {
    let range: Vec<u64> = args.iter().filter_map(|a| a.parse().ok()).collect();
    let [from, to] = range[..] else {
        eprintln!("usage: --sweep-digests FROM TO");
        std::process::exit(2);
    };
    for seed in from..to {
        match sweep::direct_digest(&gen::sweep_specs(seed)) {
            Ok(d) => println!("{seed} {d:016x}"),
            Err(e) => {
                eprintln!("seed {seed}: {e}");
                std::process::exit(1);
            }
        }
    }
}
