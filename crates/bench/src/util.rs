//! Shared experiment plumbing: scale selection, result persistence and
//! a small parallel map for independent simulation runs.

pub mod codec;
pub mod io;

use parking_lot::Mutex;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Experiment scale.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scale {
    /// The paper's full parameters (NA up to 32).
    Full,
    /// Reduced parameters for smoke tests and `cargo bench`.
    Quick,
}

impl Scale {
    /// Read the scale from the process arguments / environment
    /// (`--quick` or `HQ_QUICK=1` select [`Scale::Quick`]).
    pub fn from_env() -> Scale {
        let quick = std::env::args().any(|a| a == "--quick")
            || std::env::var("HQ_QUICK").map(|v| v == "1").unwrap_or(false);
        if quick {
            Scale::Quick
        } else {
            Scale::Full
        }
    }

    /// Pick `full` or `quick` depending on the scale.
    pub fn pick<T>(self, full: T, quick: T) -> T {
        match self {
            Scale::Full => full,
            Scale::Quick => quick,
        }
    }
}

/// A finished experiment: an id (e.g. `fig04`), a human title, and the
/// rendered report body (markdown).
#[derive(Clone, Debug)]
pub struct ExperimentReport {
    /// Artifact id, e.g. `fig06_effective_latency`.
    pub id: String,
    /// Human-readable experiment title.
    pub title: String,
    /// Markdown body (tables + notes), also printed to stdout.
    pub markdown: String,
    /// Optional CSV artifact.
    pub csv: Option<String>,
}

impl ExperimentReport {
    /// Persist the report under the results directory and print it.
    /// Returns the markdown path.
    ///
    /// Writes are crash-safe ([`write_atomic`]) and ordered CSV-first:
    /// the markdown artifact is renamed into place last, so its
    /// presence implies the whole report (including the CSV) landed
    /// intact — which is what [`artifact_complete`] keys resume off.
    pub fn save_and_print(&self) -> PathBuf {
        let dir = out_dir();
        std::fs::create_dir_all(&dir).expect("create results dir");
        let md_path = dir.join(format!("{}.md", self.id));
        let body = format!("# {}\n\n{}", self.title, self.markdown);
        if let Some(csv) = &self.csv {
            write_atomic(&dir.join(format!("{}.csv", self.id)), csv).expect("write csv");
        }
        write_atomic(&md_path, &body).expect("write report");
        println!("{body}");
        println!("[saved to {}]", md_path.display());
        md_path
    }
}

/// Crash-safe file write: the contents go to a sibling temp file which
/// is fsynced and then atomically renamed over `path`, so a crash or
/// interrupt (including power loss, not just process death) can never
/// leave a truncated artifact — `path` either holds the old bytes or
/// the complete new ones. The parent directory is then fsynced so the
/// rename itself is durable; a directory that cannot be *opened*
/// (exotic filesystems) is tolerated, but a directory fsync that
/// *fails* surfaces — swallowing it would report durability the disk
/// never provided. All I/O routes through [`io`] so fault plans can
/// exercise every step.
pub fn write_atomic(path: &std::path::Path, contents: &str) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    {
        let mut f = std::fs::File::create(&tmp)?;
        io::write_all(&mut f, &tmp, contents.as_bytes())?;
        io::sync_all(&f, &tmp)?;
    }
    io::rename(&tmp, path)?;
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        if let Ok(d) = std::fs::File::open(dir) {
            io::sync_all(&d, dir)?;
        }
    }
    Ok(())
}

/// True when the experiment with artifact id `id` already has its
/// markdown report in the results directory (the last artifact written,
/// so a complete report). Used by `--resume` runs to skip finished
/// experiments.
pub fn artifact_complete(id: &str) -> bool {
    out_dir().join(format!("{id}.md")).exists()
}

/// Reconstruct a saved report from the results directory — the inverse
/// of [`ExperimentReport::save_and_print`]. Resumed suite runs use this
/// to fold skipped experiments' artifacts back into the returned report
/// list, so a resumed summary covers the whole suite. `None` when the
/// markdown artifact is missing or not in the saved `# title\n\nbody`
/// shape (the caller then re-runs the experiment).
pub fn load_artifact(id: &str) -> Option<ExperimentReport> {
    let dir = out_dir();
    let body = std::fs::read_to_string(dir.join(format!("{id}.md"))).ok()?;
    let rest = body.strip_prefix("# ")?;
    let (title, markdown) = rest.split_once("\n\n")?;
    let csv = std::fs::read_to_string(dir.join(format!("{id}.csv"))).ok();
    Some(ExperimentReport {
        id: id.to_string(),
        title: title.to_string(),
        markdown: markdown.to_string(),
        csv,
    })
}

/// Results directory (override with `HQ_RESULTS`).
pub fn out_dir() -> PathBuf {
    std::env::var("HQ_RESULTS")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("results"))
}

/// Worker-count override for [`par_map`]. `0` means "not set": fall
/// back to `HQ_JOBS` or the machine's available parallelism.
static JOBS: AtomicUsize = AtomicUsize::new(0);

/// Set the worker count used by [`par_map`] (the `--jobs N` flag).
/// `0` restores the default (env / all cores).
pub fn set_jobs(n: usize) {
    JOBS.store(n, Ordering::Relaxed);
}

/// Effective worker count: `set_jobs` value, else `HQ_JOBS`, else the
/// machine's available parallelism.
pub fn jobs() -> usize {
    let n = JOBS.load(Ordering::Relaxed);
    if n > 0 {
        return n;
    }
    if let Ok(v) = std::env::var("HQ_JOBS") {
        if let Ok(n) = v.parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4)
}

/// Parse a `--jobs N` (or `--jobs=N`) flag from the process arguments
/// and install it via [`set_jobs`]. Returns the parsed value, if any.
pub fn jobs_from_args() -> Option<usize> {
    let args: Vec<String> = std::env::args().collect();
    let mut parsed = None;
    for (i, a) in args.iter().enumerate() {
        if let Some(v) = a.strip_prefix("--jobs=") {
            parsed = v.parse::<usize>().ok();
        } else if a == "--jobs" {
            parsed = args.get(i + 1).and_then(|v| v.parse::<usize>().ok());
        }
    }
    if let Some(n) = parsed {
        set_jobs(n);
    }
    parsed
}

/// Map `f` over `items` on [`jobs`] workers, preserving order. Each
/// item runs one independent (deterministic) simulation that owns its
/// seeded RNG, so the output is byte-identical for any worker count.
/// With one worker the map runs inline on the calling thread (no spawn
/// overhead, and panics propagate directly).
pub fn par_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send + Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = jobs().min(n);
    if workers == 1 {
        return items.iter().map(&f).collect();
    }
    let next = AtomicUsize::new(0);
    let out: Mutex<Vec<Option<R>>> = Mutex::new((0..n).map(|_| None).collect());
    crossbeam::scope(|s| {
        for _ in 0..workers {
            s.spawn(|_| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let r = f(&items[i]);
                out.lock()[i] = Some(r);
            });
        }
    })
    .expect("worker panicked");
    out.into_inner()
        .into_iter()
        .map(|r| r.expect("all slots filled"))
        .collect()
}

/// Greedily minimize a failing case (the chaos and torture soaks'
/// shrinker): each round accepts the first of `candidates(current)` that
/// still `fails_same_way`, until no candidate does or `rounds` rounds
/// are spent. Returns the minimized case and the accepted step count.
pub fn shrink<C: Clone>(
    case: &C,
    candidates: impl Fn(&C) -> Vec<C>,
    fails_same_way: impl Fn(&C) -> bool,
    rounds: usize,
) -> (C, usize) {
    let mut current = case.clone();
    for steps in 0..rounds {
        match candidates(&current).into_iter().find(&fails_same_way) {
            Some(next) => current = next,
            None => return (current, steps),
        }
    }
    (current, rounds)
}

/// Format a `Dur`-like nanosecond count as milliseconds with 3 digits.
pub fn ms(d: hq_des::time::Dur) -> String {
    format!("{:.3}", d.as_millis_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = par_map(items.clone(), |&x| x * 2);
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_empty() {
        let out: Vec<u32> = par_map(Vec::<u32>::new(), |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn shrink_takes_first_failing_candidate_within_budget() {
        // "Fails" while n >= 5; candidates halve first, then decrement.
        let cands = |&n: &u32| vec![n / 2, n.saturating_sub(1)];
        let fails = |&n: &u32| n >= 5;
        assert_eq!(shrink(&40, cands, fails, 100), (5, 3)); // 20, 10, 5
        assert_eq!(shrink(&40, cands, fails, 2), (10, 2));
        assert_eq!(shrink(&3, cands, fails, 100), (3, 0));
    }

    #[test]
    fn write_atomic_replaces_and_leaves_no_temp() {
        let dir = std::env::temp_dir().join(format!("hq_atomic_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("artifact.md");
        write_atomic(&path, "first").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "first");
        write_atomic(&path, "second").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "second");
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().is_some_and(|x| x == "tmp"))
            .collect();
        assert!(leftovers.is_empty(), "temp files left behind");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    // save_and_print/load_artifact share the results dir via HQ_RESULTS,
    // which is process-global — keep this a single test.
    #[test]
    fn load_artifact_inverts_save() {
        let dir = std::env::temp_dir().join(format!("hq_load_artifact_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::env::set_var("HQ_RESULTS", &dir);
        let report = ExperimentReport {
            id: "unit_test_artifact".to_string(),
            title: "A title: with punctuation".to_string(),
            markdown: "body line one\n\n| a | b |\n|---|---|\n| 1 | 2 |\n".to_string(),
            csv: Some("a,b\n1,2\n".to_string()),
        };
        report.save_and_print();
        let loaded = load_artifact(&report.id).expect("artifact loads");
        assert_eq!(loaded.id, report.id);
        assert_eq!(loaded.title, report.title);
        assert_eq!(loaded.markdown, report.markdown);
        assert_eq!(loaded.csv, report.csv);
        assert!(load_artifact("no_such_artifact").is_none());
        std::env::remove_var("HQ_RESULTS");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn scale_pick() {
        assert_eq!(Scale::Full.pick(32, 4), 32);
        assert_eq!(Scale::Quick.pick(32, 4), 4);
    }

    // One test (not several) because the jobs override is process-global
    // and tests in this binary run concurrently.
    #[test]
    fn par_map_jobs_override() {
        let items: Vec<u64> = (0..64).collect();
        set_jobs(1);
        let tid = std::thread::current().id();
        let inline = par_map(vec![0u8; 4], |_| std::thread::current().id() == tid);
        assert!(inline.iter().all(|&x| x), "jobs=1 must run inline");
        let serial = par_map(items.clone(), |&x| x.wrapping_mul(2654435761));
        set_jobs(4);
        let parallel = par_map(items, |&x| x.wrapping_mul(2654435761));
        set_jobs(0);
        assert_eq!(serial, parallel);
    }
}
