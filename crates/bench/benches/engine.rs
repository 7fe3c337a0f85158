//! Microbenchmarks of the simulation substrate: event queue, SMX
//! processor sharing, DMA engine, and an end-to-end small simulation.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use hq_des::prelude::*;
use hq_des::time::{Dur, SimTime};
use hq_gpu::prelude::*;

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("event_queue/schedule_pop_10k", |b| {
        b.iter(|| {
            let mut q: EventQueue<u64> = EventQueue::new();
            for i in 0..10_000u64 {
                q.schedule_at(SimTime::from_ns((i * 7919) % 100_000), i);
            }
            let mut acc = 0u64;
            while let Some((_, m)) = q.pop() {
                acc = acc.wrapping_add(m);
            }
            acc
        })
    });

    c.bench_function("event_queue/cancel_heavy", |b| {
        b.iter(|| {
            let mut q: EventQueue<u64> = EventQueue::new();
            let ids: Vec<_> = (0..5_000u64)
                .map(|i| q.schedule_at(SimTime::from_ns(i), i))
                .collect();
            for id in ids.iter().step_by(2) {
                q.cancel(*id);
            }
            let mut n = 0;
            while q.pop().is_some() {
                n += 1;
            }
            n
        })
    });

    // The SMX processor-sharing reschedule pattern: a bounded set of
    // pending completions is repeatedly cancelled and re-timed, with
    // occasional deliveries. Exercises tombstone purging.
    c.bench_function("event_queue/reschedule_churn", |b| {
        b.iter(|| {
            const GROUPS: usize = 128;
            let mut q: EventQueue<u64> = EventQueue::new();
            let mut t = 0u64;
            let mut ids: Vec<_> = (0..GROUPS as u64)
                .map(|g| {
                    t += 37;
                    q.schedule_at(SimTime::from_ns(100_000 + t), g)
                })
                .collect();
            let mut delivered = 0u64;
            for round in 0..1_000usize {
                let base = (round * 32) % GROUPS;
                for (k, slot) in ids.iter_mut().skip(base).take(32).enumerate() {
                    t += 91;
                    let at = q.now() + Dur::from_ns(50_000 + (t % 75_000));
                    let id = q.schedule_at(at, (base + k) as u64);
                    q.cancel(std::mem::replace(slot, id));
                }
                for _ in 0..4 {
                    if let Some((_, g)) = q.pop() {
                        delivered += 1;
                        t += 53;
                        let at = q.now() + Dur::from_ns(60_000 + (t % 90_000));
                        ids[g as usize % GROUPS] = q.schedule_at(at, g % GROUPS as u64);
                    }
                }
            }
            while q.pop().is_some() {
                delivered += 1;
            }
            delivered
        })
    });
}

fn bench_smx(c: &mut Criterion) {
    use hq_gpu::smx::Smx;
    use hq_gpu::types::GridId;
    let mut table = hq_des::intern::Interner::new();
    let desc = KernelDesc::new("k", 1u32, 256u32, Dur::from_us(10)).compile(&mut table);
    c.bench_function("smx/place_advance_retire_x8", |b| {
        b.iter_batched(
            || Smx::new(SmxLimits::kepler()),
            |mut smx| {
                smx.advance(SimTime::ZERO);
                for t in 0..8u32 {
                    smx.place(SimTime::ZERO, t, GridId(0), &desc, 1);
                }
                smx.advance(SimTime::from_ns(200_000));
                for t in 0..8u32 {
                    smx.take_completed(t);
                }
                smx.resident_blocks()
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_dma(c: &mut Criterion) {
    use hq_gpu::dma::Engine;
    use hq_gpu::types::{Dir, OpId, StreamId};
    c.bench_function("dma/interleaved_service_64", |b| {
        b.iter(|| {
            let mut e = Engine::new(Dir::HtoD, DmaConfig::pcie_gen2());
            for i in 0..64u32 {
                e.submit(i as u64, OpId(i), StreamId(i % 8), 64 << 10);
            }
            let mut seq = 100;
            let mut now = SimTime::ZERO;
            let mut served = 0;
            while let Some(d) = e.try_start(now) {
                now += d;
                e.finish_current(now, &mut seq);
                served += 1;
            }
            served
        })
    });
}

fn bench_end_to_end(c: &mut Criterion) {
    c.bench_function("sim/4_apps_mixed_end_to_end", |b| {
        b.iter(|| {
            let mut sim = GpuSim::with_trace(
                DeviceConfig::tesla_k20(),
                HostConfig::deterministic(),
                1,
                false,
            );
            let streams = sim.create_streams(4);
            for i in 0..4u32 {
                let mut pb = Program::builder(format!("app{i}")).htod(1 << 20, "in");
                for j in 0..16 {
                    pb = pb.launch(KernelDesc::new(
                        format!("k{j}"),
                        64u32,
                        256u32,
                        Dur::from_us(20),
                    ));
                }
                sim.add_app(pb.dtoh(1 << 20, "out").build(), streams[i as usize]);
            }
            sim.run().unwrap().makespan
        })
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_event_queue, bench_smx, bench_dma, bench_end_to_end
);
criterion_main!(benches);
