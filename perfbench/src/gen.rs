//! Seeded input generation. The program only ever sees the generated
//! job specs; the same seed always yields the same inputs.

use hq_bench::service::JobSpec;
use hq_gpu::config::DeviceConfig;
use hq_workloads::apps::AppKind;
use hyperq_core::harness::{build_schedule, AppSpec, MemsyncMode, RunConfig};
use hyperq_core::ordering::ScheduleOrder;

/// Scenarios in one `sweep` pass: app counts 2..=8 cycle sixteen times,
/// so every seed sweeps the same spread of sizes.
pub const SWEEP_SCENARIOS: usize = 112;
/// Cheap specs `serve-warm` cycles through.
pub const WARM_POOL: usize = 4;
/// Repeated specs in `serve-burst`.
pub const BURST_POOL: usize = 8;

/// splitmix64 stream; `lane` separates independent draws under one seed.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, lane: u64) -> Self {
        Rng(seed ^ lane.wrapping_mul(0xA24B_AED4_963E_E407))
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// `n` values cycling through `levels`, shuffled: every level appears
/// equally often (to within one), and the seed decides which value goes
/// where. Balancing keeps a run's total cost nearly the same for every
/// seed while the individual inputs differ.
fn balanced<T: Clone>(rng: &mut Rng, levels: &[T], n: usize) -> Vec<T> {
    let mut v: Vec<T> = (0..n).map(|i| levels[i % levels.len()].clone()).collect();
    for i in (1..n).rev() {
        v.swap(i, rng.below(i + 1));
    }
    v
}

/// One spec per entry of `apps` (its app count), with app kinds,
/// orders, memsync modes, stream counts and devices each balanced over
/// the list.
fn specs(rng: &mut Rng, apps: &[usize], streams: &[u32], devices: &[&str]) -> Vec<JobSpec> {
    let n = apps.len();
    // Spec i takes its kinds cyclically from one seeded permutation,
    // starting at a balanced offset: each kind appears equally often (to
    // within one) both inside a spec and across the list.
    let perm = balanced(rng, &AppKind::ALL, AppKind::ALL.len());
    let offsets = balanced(rng, &[0, 1, 2, 3], n);
    let orders = balanced(rng, &ScheduleOrder::ALL, n);
    let memsync = balanced(rng, &[MemsyncMode::Off, MemsyncMode::Synced], n);
    let streams = balanced(rng, streams, n);
    let devices = balanced(rng, devices, n);
    (0..n)
        .map(|i| JobSpec {
            workload: (0..apps[i])
                .map(|j| perm[(offsets[i] + j) % perm.len()])
                .collect(),
            streams: streams[i],
            order: orders[i],
            memsync: memsync[i],
            seed: rng.next(),
            device: devices[i].to_string(),
            ..JobSpec::default()
        })
        .collect()
}

/// `sweep`: 2–8 apps, 2–32 streams, all five orders, memsync off and
/// synced, on the k20, k40 and Fermi-like presets.
pub fn sweep_specs(seed: u64) -> Vec<JobSpec> {
    let apps: Vec<usize> = (0..SWEEP_SCENARIOS).map(|i| 2 + i % 7).collect();
    let streams: Vec<u32> = (2..=32).collect();
    specs(
        &mut Rng::new(seed, 1),
        &apps,
        &streams,
        &["k20", "k40", "fermi"],
    )
}

/// `serve-warm`: a small pool of cheap two-app specs.
pub fn warm_pool(seed: u64) -> Vec<JobSpec> {
    specs(
        &mut Rng::new(seed, 2),
        &[2; WARM_POOL],
        &[2, 3, 4],
        &["k20"],
    )
}

/// `serve-burst` inputs: a pool of repeated specs and, per burst, half
/// a burst of cold specs. All are four-app specs. The k-th cold spec of
/// every burst has the same stream count and memsync mode, so every
/// burst costs about the same whatever the seed; kinds, orders and
/// simulation seeds still vary.
pub fn burst_specs(
    seed: u64,
    bursts: usize,
    cold_per_burst: usize,
) -> (Vec<JobSpec>, Vec<JobSpec>) {
    let mut rng = Rng::new(seed, 3);
    let streams: Vec<u32> = (2..=8).collect();
    let pool = specs(&mut rng, &[4; BURST_POOL], &streams, &["k20"]);
    let mut cold = specs(&mut rng, &vec![4; bursts * cold_per_burst], &[4], &["k20"]);
    for (i, s) in cold.iter_mut().enumerate() {
        let k = i % cold_per_burst;
        s.streams = 2 + 2 * (k as u32 % 4);
        s.memsync = [MemsyncMode::Off, MemsyncMode::Synced][k % 2];
    }
    (pool, cold)
}

/// The run configuration the service derives from a (non-serial) spec.
pub fn config_for(spec: &JobSpec) -> RunConfig {
    let mut cfg = RunConfig::concurrent(spec.streams);
    cfg.device = match spec.device.as_str() {
        "k40" => DeviceConfig::tesla_k40(),
        "fermi" => DeviceConfig::fermi_like(),
        _ => DeviceConfig::tesla_k20(),
    };
    cfg.with_order(spec.order)
        .with_memsync(spec.memsync)
        .with_seed(spec.seed)
}

/// Run configurations with their launch schedules.
pub type Cases = Vec<(RunConfig, Vec<AppSpec>)>;

/// Each spec's run configuration and launch schedule, built exactly as
/// `scenario::run_scenario_workload` builds them.
pub fn cases(specs: &[JobSpec]) -> Cases {
    specs
        .iter()
        .map(|s| {
            let cfg = config_for(s);
            let sched = build_schedule(&s.workload, cfg.order, cfg.seed);
            (cfg, sched)
        })
        .collect()
}
