//! Property-based tests of the simulation toolkit's core invariants.

use hq_des::prelude::*;
use hq_des::stats::{geomean, percentile};
use hq_des::time::{Dur, SimTime};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Events pop sorted by time, with FIFO order among equal times.
    #[test]
    fn event_queue_pop_order(times in proptest::collection::vec(0u64..1000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule_at(SimTime::from_ns(t), i);
        }
        let mut popped: Vec<(u64, usize)> = Vec::new();
        while let Some((t, i)) = q.pop() {
            popped.push((t.as_ns(), i));
        }
        prop_assert_eq!(popped.len(), times.len());
        for w in popped.windows(2) {
            prop_assert!(w[0].0 <= w[1].0, "time order violated");
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1, "FIFO tie-break violated");
            }
        }
    }

    /// Cancelling an arbitrary subset removes exactly that subset.
    #[test]
    fn event_queue_cancellation(
        times in proptest::collection::vec(0u64..100, 1..100),
        cancel_mask in proptest::collection::vec(any::<bool>(), 1..100),
    ) {
        let mut q = EventQueue::new();
        let ids: Vec<_> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| (i, q.schedule_at(SimTime::from_ns(t), i)))
            .collect();
        let mut expected: Vec<usize> = Vec::new();
        for (i, id) in &ids {
            if cancel_mask.get(*i).copied().unwrap_or(false) {
                prop_assert!(q.cancel(*id));
            } else {
                expected.push(*i);
            }
        }
        let mut got: Vec<usize> = Vec::new();
        while let Some((_, i)) = q.pop() {
            got.push(i);
        }
        got.sort_unstable();
        expected.sort_unstable();
        prop_assert_eq!(got, expected);
    }

    /// Integration is additive over adjacent windows.
    #[test]
    fn time_series_integral_additive(
        points in proptest::collection::vec((0u64..10_000, -100.0f64..100.0), 1..50),
        split in 0u64..10_000,
    ) {
        let mut sorted = points.clone();
        sorted.sort_by_key(|&(t, _)| t);
        let mut s = TimeSeries::new();
        for (t, v) in sorted {
            s.set(SimTime::from_ns(t), v);
        }
        let a = SimTime::from_ns(0);
        let m = SimTime::from_ns(split);
        let b = SimTime::from_ns(10_000);
        let whole = s.integrate(a, b);
        let parts = s.integrate(a, m) + s.integrate(m, b);
        prop_assert!((whole - parts).abs() < 1e-9 * (1.0 + whole.abs()),
            "integrate not additive: {whole} vs {parts}");
    }

    /// value_at returns the most recent set value.
    #[test]
    fn time_series_value_at_matches_last_set(
        points in proptest::collection::vec((0u64..1000, 0.0f64..10.0), 1..40),
        query in 0u64..1200,
    ) {
        let mut sorted = points.clone();
        sorted.sort_by_key(|&(t, _)| t);
        let mut s = TimeSeries::new();
        for (t, v) in &sorted {
            s.set(SimTime::from_ns(*t), *v);
        }
        // Last change at or before query (sorted, last write wins).
        let expected = sorted.iter().rfind(|&&(t, _)| t <= query).map(|&(_, v)| v);
        // The series compacts redundant values, but the *value* must match.
        prop_assert_eq!(s.value_at(SimTime::from_ns(query)), expected);
    }

    /// Merged statistics equal sequentially accumulated statistics.
    #[test]
    fn stats_merge_equivalence(
        xs in proptest::collection::vec(-1e6f64..1e6, 0..100),
        ys in proptest::collection::vec(-1e6f64..1e6, 0..100),
    ) {
        let mut a = OnlineStats::new();
        xs.iter().for_each(|&x| a.push(x));
        let mut b = OnlineStats::new();
        ys.iter().for_each(|&y| b.push(y));
        a.merge(&b);
        let mut whole = OnlineStats::new();
        xs.iter().chain(ys.iter()).for_each(|&v| whole.push(v));
        prop_assert_eq!(a.count(), whole.count());
        prop_assert!((a.mean() - whole.mean()).abs() <= 1e-6 * (1.0 + whole.mean().abs()));
        prop_assert!((a.variance() - whole.variance()).abs()
            <= 1e-5 * (1.0 + whole.variance().abs()));
    }

    /// Percentiles stay within the sample range and are monotone in q.
    #[test]
    fn percentile_bounds_and_monotone(xs in proptest::collection::vec(-1e3f64..1e3, 1..200)) {
        let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let mut prev = f64::NEG_INFINITY;
        for q in [0.0, 0.25, 0.5, 0.75, 0.9, 1.0] {
            let p = percentile(&xs, q).unwrap();
            prop_assert!(p >= lo && p <= hi);
            prop_assert!(p >= prev, "percentile not monotone in q");
            prev = p;
        }
    }

    /// Geomean of positive values lies between min and max.
    #[test]
    fn geomean_bounds(xs in proptest::collection::vec(0.001f64..1e4, 1..100)) {
        let g = geomean(&xs).unwrap();
        let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(g >= lo * 0.999 && g <= hi * 1.001, "geomean {g} outside [{lo}, {hi}]");
    }

    /// Shuffle produces a permutation, deterministic per seed.
    #[test]
    fn shuffle_permutation(seed in any::<u64>(), n in 0usize..200) {
        let mut v1: Vec<usize> = (0..n).collect();
        let mut v2: Vec<usize> = (0..n).collect();
        DetRng::seed_from_u64(seed).shuffle(&mut v1);
        DetRng::seed_from_u64(seed).shuffle(&mut v2);
        prop_assert_eq!(&v1, &v2);
        let mut sorted = v1.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..n).collect::<Vec<_>>());
    }

    /// Utilization busy fraction is always within [0, 1].
    #[test]
    fn utilization_fraction_bounded(
        events in proptest::collection::vec((0u64..10_000, any::<bool>()), 0..50),
    ) {
        let mut sorted = events.clone();
        sorted.sort_by_key(|&(t, _)| t);
        let mut u = Utilization::new();
        for (t, busy) in sorted {
            if busy {
                u.busy(SimTime::from_ns(t));
            } else {
                u.idle(SimTime::from_ns(t));
            }
        }
        let f = u.busy_fraction(SimTime::ZERO, SimTime::from_ns(10_000));
        prop_assert!((0.0..=1.0).contains(&f), "fraction {f}");
    }

    /// The 4-ary-heap queue pops in the exact order of a reference
    /// binary-heap model under arbitrary interleavings of schedule,
    /// cancel, pop, pop-then-schedule (the simulator's common step),
    /// `peek_time` and cancel bursts that cross the ⅓ purge trigger,
    /// and agrees with the model on `pending()` throughout and on every
    /// `QueueStats` field at the end. The model keys a `BinaryHeap` by
    /// `Reverse((time, seq))`, keeps cancelled entries in it as
    /// tombstones until they surface or a purge drops them, and only
    /// honours cancellations of still-pending events — the semantics
    /// the production queue guarantees.
    #[test]
    fn event_queue_matches_reference_model(
        ops in proptest::collection::vec((0u8..7, 0u64..500, any::<usize>()), 1..400),
    ) {
        use std::cmp::Reverse;
        use std::collections::{BinaryHeap, HashSet};

        /// Reference queue: every field the production queue reports.
        #[derive(Default)]
        struct Model {
            heap: BinaryHeap<Reverse<(u64, u64, usize)>>,
            tombstones: HashSet<u64>, // cancelled, still in `heap`
            cancelled: HashSet<u64>,  // every successful cancel
            delivered: HashSet<u64>,
            now: u64,
            stats: QueueStats,
        }
        impl Model {
            fn pending(&self) -> usize {
                self.heap.len() - self.tombstones.len()
            }
            fn schedule(&mut self, at: u64, msg: usize) -> u64 {
                let seq = self.stats.scheduled;
                self.stats.scheduled += 1;
                self.heap.push(Reverse((at, seq, msg)));
                self.stats.peak_pending = self.stats.peak_pending.max(self.pending());
                seq
            }
            fn cancel(&mut self, seq: u64) -> bool {
                if self.cancelled.contains(&seq) {
                    return false;
                }
                if self.delivered.contains(&seq) {
                    self.stats.stale_cancels += 1;
                    return false;
                }
                self.cancelled.insert(seq);
                self.tombstones.insert(seq);
                self.stats.cancelled += 1;
                if self.tombstones.len() * 3 > self.heap.len() {
                    let dead = std::mem::take(&mut self.tombstones);
                    self.heap.retain(|Reverse((_, s, _))| !dead.contains(s));
                }
                if !self.heap.is_empty() {
                    let ratio = self.tombstones.len() as f64 / self.heap.len() as f64;
                    if ratio > self.stats.peak_tombstone_ratio {
                        self.stats.peak_tombstone_ratio = ratio;
                    }
                }
                true
            }
            /// Drop surfaced tombstones; the next live `(time, seq, msg)`.
            fn top(&mut self) -> Option<(u64, u64, usize)> {
                while let Some(&Reverse(top)) = self.heap.peek() {
                    if !self.tombstones.remove(&top.1) {
                        return Some(top);
                    }
                    self.heap.pop();
                }
                None
            }
            fn pop(&mut self) -> Option<(u64, usize)> {
                let (t, seq, m) = self.top()?;
                self.heap.pop();
                self.delivered.insert(seq);
                self.now = t;
                self.stats.popped += 1;
                Some((t, m))
            }
        }

        let mut q = EventQueue::new();
        let mut model = Model::default();
        let mut ids: Vec<(EventId, u64)> = Vec::new(); // (queue id, model seq)
        let mut payload = 0usize;
        let mut schedule = |q: &mut EventQueue<usize>, model: &mut Model, dt: u64| {
            let id = q.schedule_at(q.now() + Dur::from_ns(dt), payload);
            let seq = model.schedule(model.now + dt, payload);
            payload += 1;
            (id, seq)
        };

        for (op, dt, pick) in ops {
            match op {
                // Schedule (twice as likely as the other ops).
                0 | 1 => ids.push(schedule(&mut q, &mut model, dt)),
                // Cancel an arbitrary previously issued id (possibly
                // already delivered or already cancelled).
                2 if !ids.is_empty() => {
                    let (id, seq) = ids[pick % ids.len()];
                    prop_assert_eq!(q.cancel(id), model.cancel(seq), "cancel of seq {}", seq);
                }
                // Pop, then schedule from the popped event's handler.
                3 => {
                    let got = q.pop().map(|(t, m)| (t.as_ns(), m));
                    prop_assert_eq!(got, model.pop());
                    ids.push(schedule(&mut q, &mut model, dt));
                }
                // Peek at the next live event's time.
                4 => {
                    let got = q.peek_time().map(|t| t.as_ns());
                    prop_assert_eq!(got, model.top().map(|(t, _, _)| t));
                }
                // Cancel burst: the newest ids, enough to trip a purge.
                5 => {
                    for &(id, seq) in ids.iter().rev().take(1 + pick % 8) {
                        prop_assert_eq!(q.cancel(id), model.cancel(seq), "burst cancel of seq {}", seq);
                    }
                }
                // Pop.
                _ => {
                    let got = q.pop().map(|(t, m)| (t.as_ns(), m));
                    prop_assert_eq!(got, model.pop());
                }
            }
            prop_assert_eq!(q.pending(), model.pending(), "pending diverged");
        }
        // Drain both and compare the tail order, then every counter.
        let tail: Vec<(u64, usize)> =
            std::iter::from_fn(|| q.pop()).map(|(t, m)| (t.as_ns(), m)).collect();
        let model_tail: Vec<(u64, usize)> = std::iter::from_fn(|| model.pop()).collect();
        prop_assert_eq!(tail, model_tail);
        prop_assert_eq!(q.stats(), model.stats);
        prop_assert!(q.stats().tombstone_ratio() <= 1.0 / 3.0);
    }

    /// Duration scaling by a factor then its inverse round-trips within
    /// rounding error.
    #[test]
    fn dur_mul_roundtrip(ns in 1u64..1_000_000_000, k in 0.01f64..100.0) {
        let d = Dur::from_ns(ns);
        let scaled = d.mul_f64(k);
        let back = scaled.mul_f64(1.0 / k);
        let err = (back.as_ns() as i128 - ns as i128).unsigned_abs();
        // Two roundings, each up to 0.5ns, amplified by 1/k.
        let tol = (1.0 / k).max(1.0).ceil() as u128 + 1;
        prop_assert!(err <= tol, "roundtrip {ns} -> {} (err {err}, tol {tol})", back.as_ns());
    }

    /// Interning arbitrary label strings (arbitrary Unicode, duplicates
    /// included) round-trips every one of them through its `Symbol`,
    /// and equal strings always map to equal symbols.
    #[test]
    fn symbol_round_trips_arbitrary_labels(
        codes in proptest::collection::vec(
            proptest::collection::vec(0u32..0x11_0000, 0..24),
            1..64,
        ),
    ) {
        let labels: Vec<String> = codes
            .iter()
            .map(|cs| {
                cs.iter()
                    .filter_map(|&c| char::from_u32(c)) // skip surrogates
                    .collect()
            })
            .collect();
        let mut table = Interner::new();
        let symbols: Vec<Symbol> = labels.iter().map(|l| table.intern(l)).collect();
        for (label, &sym) in labels.iter().zip(&symbols) {
            prop_assert_eq!(table.resolve(sym), label.as_str());
            // Raw index round-trip preserves identity.
            prop_assert_eq!(table.resolve(Symbol::from_raw(sym.raw())), label.as_str());
        }
        // Equal strings intern to the same symbol; distinct strings to
        // distinct symbols.
        for (i, a) in labels.iter().enumerate() {
            for (j, b) in labels.iter().enumerate() {
                prop_assert_eq!(a == b, symbols[i] == symbols[j], "labels {} vs {}", i, j);
            }
        }
        prop_assert!(table.len() <= labels.len());
    }
}
