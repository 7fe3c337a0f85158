//! Property-based tests of the device model's safety invariants.

use hq_des::time::{Dur, SimTime};
use hq_gpu::kernel::KernelDesc;
use hq_gpu::prelude::*;
use hq_gpu::smx::Smx;
use proptest::prelude::*;

fn kernel_strategy() -> impl Strategy<Value = KernelDesc> {
    (1u32..64, 1u32..1024, 1u64..200, 0u32..48_000, 8u32..64).prop_map(
        |(blocks, tpb, work_us, smem, regs)| {
            KernelDesc::new("k", blocks, tpb, Dur::from_us(work_us))
                .with_smem(smem)
                .with_regs(regs)
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Whatever sequence of placements and retirements happens, SMX
    /// residency counters never exceed the hardware limits and return
    /// to zero when everything retires.
    #[test]
    fn smx_residency_bounded(kernels in proptest::collection::vec(kernel_strategy(), 1..20)) {
        let limits = SmxLimits::kepler();
        let mut table = hq_des::intern::Interner::new();
        let kernels: Vec<KernelInfo> = kernels.iter().map(|k| k.compile(&mut table)).collect();
        let mut smx = Smx::new(limits);
        smx.advance(SimTime::ZERO);
        let mut placed: Vec<u32> = Vec::new();
        for (i, k) in kernels.iter().enumerate() {
            let fit = smx.max_fit(k);
            if fit == 0 {
                continue;
            }
            let n = fit.min(k.blocks());
            smx.place(SimTime::ZERO, i as u32, GridId(i as u32), k, n);
            placed.push(i as u32);
            prop_assert!(smx.resident_blocks() <= limits.max_blocks);
            prop_assert!(smx.resident_threads() <= limits.max_threads);
        }
        for token in placed {
            prop_assert!(smx.evict(token).is_some());
        }
        prop_assert!(smx.is_idle());
        prop_assert_eq!(smx.resident_threads(), 0);
        prop_assert_eq!(smx.resident_warps(), 0);
    }

    /// max_fit never admits a group that would exceed any limit.
    #[test]
    fn max_fit_is_safe(k in kernel_strategy(), preload in 0u32..8) {
        let limits = SmxLimits::kepler();
        let mut table = hq_des::intern::Interner::new();
        let k = k.compile(&mut table);
        let mut smx = Smx::new(limits);
        smx.advance(SimTime::ZERO);
        // Preload with a fixed medium kernel to create partial state.
        let filler = KernelDesc::new("fill", 16u32, 128u32, Dur::from_us(10))
            .with_smem(1024)
            .compile(&mut table);
        let pre = smx.max_fit(&filler).min(preload);
        if pre > 0 {
            smx.place(SimTime::ZERO, 999, GridId(99), &filler, pre);
        }
        let fit = smx.max_fit(&k);
        if fit > 0 {
            smx.place(SimTime::ZERO, 1000, GridId(100), &k, fit);
            prop_assert!(smx.resident_blocks() <= limits.max_blocks);
            prop_assert!(smx.resident_threads() <= limits.max_threads);
            // After a maximal placement, no further block fits.
            prop_assert_eq!(smx.max_fit(&k), 0);
        }
    }

    /// Random small workloads always complete (no deadlock, no loss):
    /// every app finishes, every kernel completes, and the makespan
    /// bounds every app's activity.
    #[test]
    fn random_workloads_complete(
        seed in any::<u64>(),
        napps in 1usize..6,
        nstreams in 1u32..6,
        launches in 1usize..5,
        bytes in 1u64..(4 << 20),
    ) {
        let mut sim = GpuSim::with_trace(
            DeviceConfig::tesla_k20(),
            HostConfig::default(),
            seed,
            true,
        );
        let streams = sim.create_streams(nstreams);
        for i in 0..napps {
            let mut b = Program::builder(format!("app{i}")).htod(bytes, "in");
            for j in 0..launches {
                b = b.launch(KernelDesc::new(
                    format!("k{j}"),
                    1 + (seed as u32 + i as u32 * 7 + j as u32) % 256,
                    32 * (1 + (i as u32 + j as u32) % 8),
                    Dur::from_us(5 + (j as u64 * 13) % 50),
                ));
            }
            sim.add_app(b.dtoh(bytes, "out").build(), streams[i % streams.len()]);
        }
        let r = sim.run().expect("no deadlock");
        let violations = hq_gpu::validate::validate(&r);
        prop_assert!(violations.is_empty(), "invariants violated: {violations:?}");
        prop_assert_eq!(r.apps.len(), napps);
        for a in &r.apps {
            prop_assert!(a.finished.is_some(), "{} unfinished", a.label);
            prop_assert_eq!(a.kernels_completed as usize, launches);
            prop_assert_eq!(a.htod.count, 1);
            prop_assert_eq!(a.dtoh.count, 1);
            prop_assert!(a.finished.unwrap() <= r.makespan);
            prop_assert!(a.dtoh.last_end.unwrap() <= a.finished.unwrap());
        }
        // Device fully drained.
        prop_assert_eq!(r.resident_threads.value_at(r.makespan), Some(0.0));
    }

    /// In-stream serialization: spans on one lane never overlap.
    #[test]
    fn stream_spans_do_not_overlap(seed in any::<u64>(), napps in 2usize..5) {
        let mut sim = GpuSim::with_trace(
            DeviceConfig::tesla_k20(),
            HostConfig::default(),
            seed,
            true,
        );
        // All apps share one stream: everything must serialize.
        let s = sim.create_stream();
        for i in 0..napps {
            let p = Program::builder(format!("app{i}"))
                .htod(256 << 10, "in")
                .launch(KernelDesc::new("k", 32u32, 128u32, Dur::from_us(30)))
                .dtoh(256 << 10, "out")
                .build();
            sim.add_app(p, s);
        }
        let r = sim.run().expect("runs");
        let mut spans = r.trace.lane_spans(0);
        spans.sort_by_key(|sp| (sp.start, sp.end));
        for w in spans.windows(2) {
            prop_assert!(
                w[0].end <= w[1].start,
                "in-stream overlap: {:?} vs {:?}",
                w[0],
                w[1]
            );
        }
    }

    /// Determinism: identical seeds produce identical makespans and
    /// identical per-app statistics.
    #[test]
    fn simulation_is_deterministic(seed in any::<u64>()) {
        let build = || {
            let mut sim = GpuSim::with_trace(
                DeviceConfig::tesla_k20(),
                HostConfig::default(),
                seed,
                false,
            );
            let streams = sim.create_streams(3);
            for i in 0..3u32 {
                let p = Program::builder(format!("app{i}"))
                    .htod(512 << 10, "in")
                    .launch(KernelDesc::new("k", 100u32, 256u32, Dur::from_us(40)))
                    .dtoh(128 << 10, "out")
                    .build();
                sim.add_app(p, streams[i as usize]);
            }
            sim.run().unwrap()
        };
        let a = build();
        let b = build();
        prop_assert_eq!(a.makespan, b.makespan);
        for (x, y) in a.apps.iter().zip(&b.apps) {
            prop_assert_eq!(x.finished, y.finished);
            prop_assert_eq!(x.htod.first_start, y.htod.first_start);
            prop_assert_eq!(x.last_kernel_end, y.last_kernel_end);
        }
    }

    /// The serialized baseline is never faster than its own apps run
    /// concurrently on distinct streams (LEFTOVER does no worse).
    #[test]
    fn concurrency_never_loses_to_serial_chaining(seed in 0u64..32) {
        let programs: Vec<Program> = (0..3)
            .map(|i| {
                Program::builder(format!("app{i}"))
                    .htod(128 << 10, "in")
                    .launch(KernelDesc::new("k", 8u32, 64u32, Dur::from_us(100)))
                    .dtoh(128 << 10, "out")
                    .build()
            })
            .collect();
        let serial = {
            let mut sim = GpuSim::with_trace(
                DeviceConfig::tesla_k20(),
                HostConfig::deterministic(),
                seed,
                false,
            );
            let s = sim.create_stream();
            let mut prev = None;
            for p in programs.clone() {
                let id = sim.add_app(p, s);
                if let Some(d) = prev {
                    sim.set_start_after(id, d);
                }
                prev = Some(id);
            }
            sim.run().unwrap().makespan
        };
        let conc = {
            let mut sim = GpuSim::with_trace(
                DeviceConfig::tesla_k20(),
                HostConfig::deterministic(),
                seed,
                false,
            );
            let streams = sim.create_streams(3);
            for (i, p) in programs.into_iter().enumerate() {
                sim.add_app(p, streams[i]);
            }
            sim.run().unwrap().makespan
        };
        prop_assert!(
            conc <= serial,
            "concurrent {conc} slower than serial {serial}"
        );
    }
}
