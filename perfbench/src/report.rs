//! Metric collection, summary statistics and the result line.

use std::time::Duration;

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (1 for a single count or ratio).
    pub samples: usize,
}

/// Everything one run reports. `end_to_end` is printed with `--trace 0`,
/// `per_layer` with `--trace 1`; `info` lines are for the reader only.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    pub info: Vec<String>,
}

impl Report {
    pub fn e2e(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.end_to_end.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }

    pub fn layer(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.per_layer.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }

    /// Record a failed output check; the run then reports `correct: false`.
    pub fn fail(&mut self, msg: impl Into<String>) {
        self.errors.push(msg.into());
    }

    pub fn correct(&self) -> bool {
        self.errors.is_empty()
    }

    /// Human-readable lines, then the JSON result as the last line.
    pub fn print(&self, workload: &str, trace: bool) {
        let metrics = if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        println!(
            "workload {workload} ({})",
            if trace { "traced" } else { "untraced" }
        );
        for m in metrics {
            println!(
                "  {:<32} {:>16.6} {:<8} n={}",
                m.name, m.value, m.unit, m.samples
            );
        }
        for line in &self.info {
            println!("  {line}");
        }
        for e in &self.errors {
            println!("  CHECK FAILED: {e}");
        }
        let body: Vec<String> = metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            body.join(", ")
        );
    }
}

/// Nearest-rank percentile of `xs` (sorted in place); 0 when empty.
pub fn percentile(xs: &mut [f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * xs.len() as f64).ceil() as usize;
    xs[rank.clamp(1, xs.len()) - 1]
}

pub fn median(xs: &mut [f64]) -> f64 {
    percentile(xs, 50.0)
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Peak resident set (`VmHWM`) of process `pid` (`"self"` for this
/// one), MiB. `VmHWM` belongs to the process's own address space, unlike
/// `getrusage`'s `ru_maxrss`, which also counts the parent's peak
/// inherited across the spawning `exec`.
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| format!("no VmHWM in {path}"))
}
