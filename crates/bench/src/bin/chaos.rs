//! Chaos soak driver: run `--cases N` random audited simulation cases
//! from `--seed S`. Every case must pass (zero audit violations, zero
//! validate violations, no deadlock, no panic); the first failure is
//! greedily shrunk and written as a JSON repro under the results
//! directory, replayable with `hyperq repro <file>`.
//!
//! `--batch K` (default 1 = serial) runs cases K at a time through
//! the memoized `chaos::run_case_batch`; outcomes are identical to
//! the serial soak (the first failure by case index wins, and the
//! shrinker always operates on the single extracted case). Progress
//! lines report per-case µs and events/s so the serial-vs-batched
//! speedup is visible in CI logs.
//!
//! Exit status: 0 when every case passed, 1 on failure (repro written).

use hq_bench::chaos::{self, CaseOutcome};
use hq_bench::util::out_dir;
use hq_des::rng::DetRng;

fn arg_value(args: &[String], flag: &str) -> Option<u64> {
    let eq = format!("{flag}=");
    let mut parsed = None;
    for (i, a) in args.iter().enumerate() {
        if let Some(v) = a.strip_prefix(&eq) {
            parsed = v.parse().ok();
        } else if a == flag {
            parsed = args.get(i + 1).and_then(|v| v.parse().ok());
        }
    }
    parsed
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let cases = arg_value(&args, "--cases").unwrap_or(200);
    let seed = arg_value(&args, "--seed").unwrap_or(7);
    let batch = arg_value(&args, "--batch").unwrap_or(1).max(1) as usize;
    let t0 = std::time::Instant::now();
    let mut rng = DetRng::seed_from_u64(seed);

    eprintln!("chaos soak: {cases} cases from seed {seed} (batch {batch})");
    let mut events: u64 = 0;
    let mut done: u64 = 0;
    let mut i: u64 = 0;
    while i < cases {
        let n = batch.min((cases - i) as usize);
        let specs: Vec<chaos::CaseSpec> = (0..n).map(|_| chaos::gen_case(&mut rng)).collect();
        let outcomes = if n == 1 {
            vec![chaos::run_case(&specs[0])]
        } else {
            chaos::run_case_batch(&specs)
        };
        // Walk outcomes in case order: the first failure (lowest index)
        // wins, exactly where the serial soak would have stopped.
        for (k, outcome) in outcomes.into_iter().enumerate() {
            let case = i + k as u64;
            match outcome {
                CaseOutcome::Pass { events: ev } => {
                    events += ev;
                    done += 1;
                    if (case + 1).is_multiple_of(50) {
                        let el = t0.elapsed().as_secs_f64();
                        eprintln!(
                            "  {}/{cases} ok ({:?}, {:.1}µs/case, {:.0} ev/s)",
                            case + 1,
                            t0.elapsed(),
                            el * 1e6 / done as f64,
                            if el > 0.0 { events as f64 / el } else { 0.0 },
                        );
                    }
                }
                CaseOutcome::Fail(kind, detail) => {
                    eprintln!("case {case} FAILED ({kind:?}): {detail}");
                    eprintln!("shrinking...");
                    let (small, steps) = chaos::shrink(&specs[k], kind);
                    let dir = out_dir();
                    std::fs::create_dir_all(&dir).expect("create results dir");
                    let path = dir.join(format!("chaos_repro_seed{seed}_case{case}.json"));
                    chaos::write_repro(&path, &small).expect("write repro");
                    eprintln!(
                        "shrunk in {steps} step(s) to {} app(s), {} fault(s); repro: {}",
                        small.apps.len(),
                        small.faults.len(),
                        path.display()
                    );
                    eprintln!("replay with: hyperq repro {}", path.display());
                    std::process::exit(1);
                }
            }
        }
        i += n as u64;
    }
    let el = t0.elapsed().as_secs_f64();
    eprintln!(
        "chaos soak: all {cases} cases clean in {:?} (seed {seed}, batch {batch}, {:.1}µs/case, {:.0} ev/s)",
        t0.elapsed(),
        el * 1e6 / cases.max(1) as f64,
        if el > 0.0 { events as f64 / el } else { 0.0 },
    );
}
