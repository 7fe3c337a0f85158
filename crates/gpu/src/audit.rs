//! Online invariant auditing.
//!
//! [`Auditor`] observes every simulator transition — block dispatch,
//! completion and kill, DMA start/finish, mutex acquire/release, stream
//! op completion, watchdog firings, admission grants and reclaims — and
//! checks conservation invariants *step by step*, while the run is in
//! flight, rather than after the fact like [`crate::validate`]:
//!
//! * per-SMX residency never exceeds the configured block / thread /
//!   register / shared-memory limits,
//! * every dispatched block completes or is killed **exactly once**,
//! * at most one copy is in flight per DMA direction, and a copy only
//!   starts for the op at the head of its stream,
//! * in-stream ops complete in enqueue order (sticky-error drains
//!   included),
//! * mutex lock/unlock pairing holds, handoff is FIFO, and no waiter is
//!   lost,
//! * a grid kill reclaims exactly the residency the grid held,
//! * admission totals equal the sum over admitted unfinished grids, and
//! * simulated time is monotone.
//!
//! The auditor keeps an independent *shadow model* fed only by
//! notification hooks, so a bookkeeping bug in the simulator proper
//! cannot silently corrupt the checker that is supposed to catch it.
//! Violations carry the culprit entity and sim-time; the simulator
//! aborts the run on the first one and returns
//! [`crate::result::SimError::AuditFailure`] with the recent-transition
//! context from a [`TransitionRing`].
//!
//! The auditor is **off by default** ([`Auditor::Off`]): every hook is
//! an enum-discriminant test and the hot paths stay allocation- and
//! branch-predictable. Enable it with [`crate::GpuSim::enable_audit`]
//! (the chaos soak in `hq-bench` does this for every generated case).

use crate::config::{DeviceConfig, SmxLimits};
use crate::fault::FaultKind;
use crate::gmu::ResourceTotals;
use crate::kernel::KernelInfo;
use crate::types::{AppId, Dir, GridId, MutexId, OpId, StreamId};
use hq_des::observe::TransitionRing;
use hq_des::time::SimTime;
use std::collections::VecDeque;

/// How many transitions of context to retain for violation reports.
const RING_CAPACITY: usize = 32;
/// Stop accumulating after this many violations (the run aborts on the
/// first one anyway; the cap guards callers that keep stepping).
const MAX_VIOLATIONS: usize = 32;

/// One invariant violation, pinned to a culprit and a sim-time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AuditViolation {
    /// When the violating transition was observed.
    pub time: SimTime,
    /// The entity at fault (`smx3`, `grid7`, `stream2`, `mutex0`, ...).
    pub entity: String,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for AuditViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}: {}", self.time, self.entity, self.message)
    }
}

/// Shadow residency counters for one SMX.
#[derive(Clone, Copy, Debug, Default)]
struct ShadowSmx {
    blocks: u32,
    threads: u32,
    regs: u64,
    smem: u64,
}

/// One live dispatched group in the shadow model.
#[derive(Clone, Copy, Debug)]
struct ShadowGroup {
    token: u32,
    smx: usize,
    grid: GridId,
    blocks: u32,
    threads: u32,
    regs: u64,
    smem: u64,
}

/// Shadow per-grid block conservation ledger.
#[derive(Clone, Debug)]
struct ShadowGrid {
    blocks: u32,
    dispatched: u32,
    completed: u32,
    evicted: u32,
    closed: Option<&'static str>,
}

/// Shadow mutex: holder plus the FIFO wait queue.
#[derive(Clone, Debug, Default)]
struct ShadowMutex {
    holder: Option<AppId>,
    waiters: VecDeque<AppId>,
}

/// The auditor's full shadow state (heap-allocated so [`Auditor::Off`]
/// stays one word).
#[derive(Debug)]
pub struct AuditState {
    limits: SmxLimits,
    violations: Vec<AuditViolation>,
    ring: TransitionRing,
    last_time: SimTime,
    smxs: Vec<ShadowSmx>,
    groups: Vec<ShadowGroup>,
    grids: Vec<ShadowGrid>,
    streams: Vec<VecDeque<OpId>>,
    dma: [Option<OpId>; 2],
    mutexes: Vec<ShadowMutex>,
    admitted: ResourceTotals,
}

/// The online invariant auditor. `Off` is free; `On` maintains the
/// shadow model and records violations.
#[derive(Debug)]
pub enum Auditor {
    /// No auditing: every hook returns immediately.
    Off,
    /// Auditing enabled with the given shadow state.
    On(Box<AuditState>),
}

impl Auditor {
    /// The disabled auditor (default for every simulation).
    pub fn off() -> Auditor {
        Auditor::Off
    }

    /// An enabled auditor sized for `dev`.
    pub fn on(dev: &DeviceConfig) -> Auditor {
        Auditor::On(Box::new(AuditState {
            limits: dev.smx,
            violations: Vec::new(),
            ring: TransitionRing::new(RING_CAPACITY),
            last_time: SimTime::ZERO,
            smxs: vec![ShadowSmx::default(); dev.num_smx as usize],
            groups: Vec::new(),
            grids: Vec::new(),
            streams: Vec::new(),
            dma: [None, None],
            mutexes: Vec::new(),
            admitted: ResourceTotals::default(),
        }))
    }

    /// True when auditing is enabled.
    #[inline]
    pub fn is_on(&self) -> bool {
        matches!(self, Auditor::On(_))
    }

    /// True once at least one violation has been recorded.
    #[inline]
    pub fn tripped(&self) -> bool {
        match self {
            Auditor::Off => false,
            Auditor::On(s) => !s.violations.is_empty(),
        }
    }

    /// The recorded violations (empty when off or clean).
    pub fn violations(&self) -> &[AuditViolation] {
        match self {
            Auditor::Off => &[],
            Auditor::On(s) => &s.violations,
        }
    }

    /// Render the violation report: `(violations, recent transitions)`.
    pub fn render_report(&self) -> (Vec<String>, Vec<String>) {
        match self {
            Auditor::Off => (Vec::new(), Vec::new()),
            Auditor::On(s) => (
                s.violations.iter().map(|v| v.to_string()).collect(),
                s.ring.render(),
            ),
        }
    }

    #[inline]
    fn state(&mut self) -> Option<&mut AuditState> {
        match self {
            Auditor::Off => None,
            Auditor::On(s) => Some(s),
        }
    }

    // ------------------------------------------------------------------
    // Hooks (each is a no-op when off)
    // ------------------------------------------------------------------

    /// A discrete event is about to be handled at `now`. Checks time
    /// monotonicity; `desc` is only evaluated when auditing is on.
    pub fn on_event(&mut self, now: SimTime, desc: impl FnOnce() -> String) {
        let Some(s) = self.state() else { return };
        if now < s.last_time {
            let last = s.last_time;
            s.violation(now, "clock", format!("simulated time moved backwards ({now} after {last})"));
        }
        s.last_time = now;
        s.ring.push(now, desc());
    }

    /// An op was appended to `stream`'s FIFO.
    pub fn on_enqueue(&mut self, now: SimTime, stream: StreamId, op: OpId) {
        let Some(s) = self.state() else { return };
        if s.streams.len() <= stream.index() {
            s.streams.resize_with(stream.index() + 1, VecDeque::new);
        }
        s.streams[stream.index()].push_back(op);
        s.ring.push(now, format!("{stream}: enqueue {op}"));
    }

    /// An op completed (normally or via a sticky-error drain).
    pub fn on_op_complete(&mut self, now: SimTime, stream: StreamId, op: OpId) {
        let Some(s) = self.state() else { return };
        let front = s
            .streams
            .get_mut(stream.index())
            .and_then(|q| q.pop_front());
        if front != Some(op) {
            s.violation(
                now,
                format!("{stream}"),
                format!("op {op} completed out of enqueue order (expected {front:?})"),
            );
        }
        s.ring.push(now, format!("{stream}: complete {op}"));
    }

    /// A kernel launch activated and registered grid `gid`. `name` is
    /// the kernel name already resolved from the simulator's interner so
    /// the transition ring renders strings, not raw symbol ids.
    pub fn on_grid_launch(&mut self, now: SimTime, gid: GridId, name: &str, desc: &KernelInfo) {
        let Some(s) = self.state() else { return };
        if gid.index() != s.grids.len() {
            s.violation(
                now,
                format!("{gid}"),
                format!("grid ids not sequential (expected grid{})", s.grids.len()),
            );
            return;
        }
        s.grids.push(ShadowGrid {
            blocks: desc.blocks(),
            dispatched: 0,
            completed: 0,
            evicted: 0,
            closed: None,
        });
        s.ring
            .push(now, format!("{gid}: launch '{name}' ({} blocks)", desc.blocks()));
    }

    /// `n` blocks of `gid` were placed on SMX `si` as group `token`.
    pub fn on_dispatch(
        &mut self,
        now: SimTime,
        si: usize,
        token: u32,
        gid: GridId,
        desc: &KernelInfo,
        n: u32,
    ) {
        let Some(s) = self.state() else { return };
        let threads = n * desc.threads_per_block();
        let regs = n as u64 * desc.regs_per_block() as u64;
        let smem = n as u64 * desc.smem_per_block as u64;
        let smx = &mut s.smxs[si];
        smx.blocks += n;
        smx.threads += threads;
        smx.regs += regs;
        smx.smem += smem;
        let (b, t, r, m) = (smx.blocks, smx.threads, smx.regs, smx.smem);
        let lim = s.limits;
        if b > lim.max_blocks {
            s.violation(now, format!("smx{si}"), format!("resident blocks {b} exceed limit {}", lim.max_blocks));
        }
        if t > lim.max_threads {
            s.violation(now, format!("smx{si}"), format!("resident threads {t} exceed limit {}", lim.max_threads));
        }
        if r > lim.max_regs as u64 {
            s.violation(now, format!("smx{si}"), format!("resident registers {r} exceed limit {}", lim.max_regs));
        }
        if m > lim.max_smem as u64 {
            s.violation(now, format!("smx{si}"), format!("resident shared memory {m} B exceeds limit {} B", lim.max_smem));
        }
        s.groups.push(ShadowGroup {
            token,
            smx: si,
            grid: gid,
            blocks: n,
            threads,
            regs,
            smem,
        });
        match s.grids.get_mut(gid.index()) {
            Some(g) => {
                if let Some(how) = g.closed {
                    s.violation(now, format!("{gid}"), format!("dispatch after the grid was {how}"));
                } else {
                    g.dispatched += n;
                    if g.dispatched > g.blocks {
                        let (d, b) = (g.dispatched, g.blocks);
                        s.violation(
                            now,
                            format!("{gid}"),
                            format!("dispatched {d} blocks of a {b}-block grid"),
                        );
                    }
                }
            }
            None => s.violation(now, format!("{gid}"), "dispatch for unknown grid".into()),
        }
        s.ring
            .push(now, format!("{gid}: dispatch {n} block(s) on smx{si} (group {token})"));
    }

    /// Group `token` on SMX `si` ran to completion.
    pub fn on_group_complete(&mut self, now: SimTime, si: usize, token: u32) {
        self.retire_group(now, si, token, false);
    }

    /// Group `token` on SMX `si` was evicted by a grid kill.
    pub fn on_group_evicted(&mut self, now: SimTime, si: usize, token: u32) {
        self.retire_group(now, si, token, true);
    }

    fn retire_group(&mut self, now: SimTime, si: usize, token: u32, evicted: bool) {
        let Some(s) = self.state() else { return };
        let verb = if evicted { "evict" } else { "complete" };
        let Some(idx) = s.groups.iter().position(|g| g.token == token && g.smx == si) else {
            s.violation(
                now,
                format!("smx{si}"),
                format!("{verb} for unknown group {token} (block completed or killed twice?)"),
            );
            return;
        };
        let g = s.groups.swap_remove(idx);
        let smx = &mut s.smxs[si];
        smx.blocks -= g.blocks;
        smx.threads -= g.threads;
        smx.regs -= g.regs;
        smx.smem -= g.smem;
        let gid = g.grid;
        match s.grids.get_mut(gid.index()) {
            Some(sg) => {
                if evicted {
                    sg.evicted += g.blocks;
                } else {
                    sg.completed += g.blocks;
                }
                if let Some(how) = sg.closed {
                    s.violation(now, format!("{gid}"), format!("block {verb} after the grid was {how}"));
                } else if sg.completed + sg.evicted > sg.dispatched {
                    let (c, e, d) = (sg.completed, sg.evicted, sg.dispatched);
                    s.violation(
                        now,
                        format!("{gid}"),
                        format!("{c} completed + {e} evicted blocks exceed {d} dispatched"),
                    );
                }
            }
            None => s.violation(now, format!("{gid}"), format!("{verb} for unknown grid")),
        }
        s.ring
            .push(now, format!("{gid}: {verb} {} block(s) on smx{si} (group {token})", g.blocks));
    }

    /// Grid `gid` finished every block and retired normally.
    pub fn on_grid_finished(&mut self, now: SimTime, gid: GridId) {
        let Some(s) = self.state() else { return };
        let live = s.groups.iter().filter(|g| g.grid == gid).count();
        match s.grids.get_mut(gid.index()) {
            Some(g) => {
                if let Some(how) = g.closed {
                    s.violation(now, format!("{gid}"), format!("finished twice (already {how})"));
                } else {
                    g.closed = Some("finished");
                    if g.completed != g.blocks || g.dispatched != g.blocks {
                        let (c, d, b) = (g.completed, g.dispatched, g.blocks);
                        s.violation(
                            now,
                            format!("{gid}"),
                            format!("finished with {c}/{b} blocks completed ({d} dispatched)"),
                        );
                    }
                }
            }
            None => s.violation(now, format!("{gid}"), "finish for unknown grid".into()),
        }
        if live > 0 {
            s.violation(now, format!("{gid}"), format!("finished with {live} group(s) still resident"));
        }
        s.ring.push(now, format!("{gid}: finished"));
    }

    /// Grid `gid` was killed (`reason`); its residency must be gone.
    pub fn on_grid_killed(&mut self, now: SimTime, gid: GridId, reason: FaultKind) {
        let Some(s) = self.state() else { return };
        let live = s.groups.iter().filter(|g| g.grid == gid).count();
        match s.grids.get_mut(gid.index()) {
            Some(g) => {
                if let Some(how) = g.closed {
                    s.violation(now, format!("{gid}"), format!("killed twice (already {how})"));
                } else {
                    g.closed = Some("killed");
                    if g.completed + g.evicted > g.dispatched {
                        let (c, e, d) = (g.completed, g.evicted, g.dispatched);
                        s.violation(
                            now,
                            format!("{gid}"),
                            format!("killed with {c} completed + {e} evicted > {d} dispatched"),
                        );
                    }
                }
            }
            None => s.violation(now, format!("{gid}"), "kill for unknown grid".into()),
        }
        if live > 0 {
            s.violation(
                now,
                format!("{gid}"),
                format!("kill reclaimed incompletely: {live} group(s) still resident"),
            );
        }
        s.ring.push(now, format!("{gid}: killed ({reason})"));
    }

    /// A DMA engine began servicing `op`. `at_stream_head` reports
    /// whether the op is the head of its stream's FIFO.
    pub fn on_copy_start(&mut self, now: SimTime, dir: Dir, op: OpId, at_stream_head: bool) {
        let Some(s) = self.state() else { return };
        if let Some(active) = s.dma[dir.index()] {
            s.violation(
                now,
                format!("dma-{dir}"),
                format!("copy {op} started while {active} is in flight"),
            );
        }
        if !at_stream_head {
            s.violation(
                now,
                format!("dma-{dir}"),
                format!("copy {op} serviced before reaching its stream head"),
            );
        }
        s.dma[dir.index()] = Some(op);
        s.ring.push(now, format!("dma-{dir}: start {op}"));
    }

    /// A DMA engine finished its current service slice for `op`.
    pub fn on_copy_finish(&mut self, now: SimTime, dir: Dir, op: OpId) {
        let Some(s) = self.state() else { return };
        if s.dma[dir.index()] != Some(op) {
            let active = s.dma[dir.index()];
            s.violation(
                now,
                format!("dma-{dir}"),
                format!("finish for {op} but {active:?} was in flight"),
            );
        }
        s.dma[dir.index()] = None;
        s.ring.push(now, format!("dma-{dir}: finish {op}"));
    }

    /// `app` attempted to lock `m`; `granted` is the simulator's answer.
    pub fn on_mutex_lock(&mut self, now: SimTime, m: MutexId, app: AppId, granted: bool) {
        let Some(s) = self.state() else { return };
        if s.mutexes.len() <= m.index() {
            s.mutexes.resize_with(m.index() + 1, ShadowMutex::default);
        }
        let sm = &mut s.mutexes[m.index()];
        if granted {
            let holder = sm.holder;
            let queued = sm.waiters.len();
            sm.holder = Some(app);
            if let Some(h) = holder {
                s.violation(now, format!("{m}"), format!("granted to {app} while held by {h}"));
            } else if queued > 0 {
                s.violation(
                    now,
                    format!("{m}"),
                    format!("{app} jumped a FIFO queue of {queued} waiter(s)"),
                );
            }
        } else {
            let free = sm.holder.is_none();
            sm.waiters.push_back(app);
            if free {
                s.violation(now, format!("{m}"), format!("{app} blocked on a free mutex"));
            }
        }
        s.ring
            .push(now, format!("{m}: lock by {app} ({})", if granted { "granted" } else { "blocked" }));
    }

    /// `app` released `m`; `next` is the simulator's chosen new holder.
    pub fn on_mutex_unlock(&mut self, now: SimTime, m: MutexId, app: AppId, next: Option<AppId>) {
        let Some(s) = self.state() else { return };
        if s.mutexes.len() <= m.index() {
            s.mutexes.resize_with(m.index() + 1, ShadowMutex::default);
        }
        let sm = &mut s.mutexes[m.index()];
        let holder = sm.holder;
        let expected = sm.waiters.pop_front();
        sm.holder = next;
        if holder != Some(app) {
            s.violation(
                now,
                format!("{m}"),
                format!("unlocked by {app} but held by {holder:?}"),
            );
        }
        if expected != next {
            s.violation(
                now,
                format!("{m}"),
                format!("handoff to {next:?} but FIFO head was {expected:?} (lost wakeup?)"),
            );
        }
        s.ring.push(now, format!("{m}: unlock by {app} -> {next:?}"));
    }

    /// The conservative-fit gate admitted `gid` (`need` resources);
    /// `reported` is the simulator's running total after the grant.
    pub fn on_admit(&mut self, now: SimTime, gid: GridId, need: ResourceTotals, reported: ResourceTotals) {
        let Some(s) = self.state() else { return };
        s.admitted = s.admitted.plus(&need);
        if s.admitted != reported {
            let shadow = s.admitted;
            s.violation(
                now,
                format!("{gid}"),
                format!("admission totals diverged after grant: sim {reported:?} vs audit {shadow:?}"),
            );
        }
        s.ring.push(now, format!("{gid}: admitted ({} blocks)", need.blocks));
    }

    /// A retiring/killed grid returned `need` to the admission pool;
    /// `reported` is the simulator's running total after the reclaim.
    pub fn on_reclaim(&mut self, now: SimTime, gid: GridId, need: ResourceTotals, reported: ResourceTotals) {
        let Some(s) = self.state() else { return };
        s.admitted = s.admitted.minus(&need);
        if s.admitted != reported {
            let shadow = s.admitted;
            s.violation(
                now,
                format!("{gid}"),
                format!("admission totals diverged after reclaim: sim {reported:?} vs audit {shadow:?}"),
            );
        }
        s.ring.push(now, format!("{gid}: admission reclaimed"));
    }

    /// The watchdog fired for `gid`; `progressed` means it re-armed.
    pub fn on_watchdog_fire(&mut self, now: SimTime, gid: GridId, progressed: bool) {
        let Some(s) = self.state() else { return };
        s.ring.push(
            now,
            format!("{gid}: watchdog {}", if progressed { "re-armed" } else { "kill" }),
        );
    }

    /// The event queue drained: everything must be conserved back to
    /// zero — streams empty, engines idle, no resident groups, every
    /// grid closed, every mutex free with no waiters.
    pub fn finalize(&mut self, now: SimTime) {
        let Some(s) = self.state() else { return };
        for (i, q) in s.streams.iter().enumerate() {
            if !q.is_empty() {
                let n = q.len();
                s.violation(now, format!("stream{i}"), format!("{n} op(s) never completed"));
                break;
            }
        }
        for dir in Dir::ALL {
            if let Some(op) = s.dma[dir.index()] {
                s.violation(now, format!("dma-{dir}"), format!("{op} still in flight at drain"));
            }
        }
        if !s.groups.is_empty() {
            let n: u32 = s.groups.iter().map(|g| g.blocks).sum();
            s.violation(now, "device", format!("{n} block(s) still resident at drain"));
        }
        for (i, smx) in s.smxs.iter().enumerate() {
            if smx.blocks != 0 || smx.threads != 0 || smx.regs != 0 || smx.smem != 0 {
                let b = smx.blocks;
                s.violation(now, format!("smx{i}"), format!("shadow residency nonzero at drain ({b} blocks)"));
                break;
            }
        }
        if let Some((i, g)) = s
            .grids
            .iter()
            .enumerate()
            .find(|(_, g)| g.closed.is_none())
        {
            let (c, b) = (g.completed, g.blocks);
            s.violation(
                now,
                format!("grid{i}"),
                format!("never finished or killed ({c}/{b} blocks completed)"),
            );
        }
        for (i, m) in s.mutexes.iter().enumerate() {
            if m.holder.is_some() || !m.waiters.is_empty() {
                let (h, w) = (m.holder, m.waiters.len());
                s.violation(
                    now,
                    format!("mutex{i}"),
                    format!("not quiescent at drain (holder {h:?}, {w} waiter(s))"),
                );
                break;
            }
        }
    }
}

impl AuditState {
    fn violation(&mut self, time: SimTime, entity: impl Into<String>, message: String) {
        if self.violations.len() < MAX_VIOLATIONS {
            self.violations.push(AuditViolation {
                time,
                entity: entity.into(),
                message,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hq_des::time::Dur;

    fn auditor() -> Auditor {
        Auditor::on(&DeviceConfig::tesla_k20())
    }

    fn t(ns: u64) -> SimTime {
        SimTime::from_ns(ns)
    }

    fn desc(blocks: u32, tpb: u32) -> KernelInfo {
        crate::kernel::KernelDesc::new("k", blocks, tpb, Dur::from_us(10))
            .compile(&mut hq_des::intern::Interner::new())
    }

    #[test]
    fn off_auditor_is_inert() {
        let mut a = Auditor::off();
        assert!(!a.is_on());
        a.on_event(t(5), || unreachable!("desc must not be evaluated when off"));
        a.on_enqueue(t(5), StreamId(0), OpId(0));
        assert!(!a.tripped());
        assert!(a.violations().is_empty());
        assert_eq!(a.render_report(), (Vec::new(), Vec::new()));
    }

    #[test]
    fn clean_lifecycle_records_no_violation() {
        let mut a = auditor();
        let d = desc(4, 128);
        a.on_event(t(0), || "ev".into());
        a.on_enqueue(t(0), StreamId(0), OpId(0));
        a.on_grid_launch(t(1), GridId(0), "k", &d);
        a.on_dispatch(t(2), 0, 1, GridId(0), &d, 4);
        a.on_group_complete(t(10), 0, 1);
        a.on_grid_finished(t(10), GridId(0));
        a.on_op_complete(t(10), StreamId(0), OpId(0));
        a.finalize(t(10));
        assert!(!a.tripped(), "{:?}", a.violations());
    }

    #[test]
    fn time_regression_is_caught() {
        let mut a = auditor();
        a.on_event(t(100), || "a".into());
        a.on_event(t(50), || "b".into());
        assert!(a.tripped());
        assert!(a.violations()[0].message.contains("backwards"));
        assert_eq!(a.violations()[0].entity, "clock");
    }

    #[test]
    fn residency_overflow_is_caught_with_culprit() {
        let mut a = auditor();
        let d = desc(64, 256); // 8 blocks of 256 threads fill one SMX
        a.on_grid_launch(t(0), GridId(0), "k", &d);
        a.on_dispatch(t(1), 3, 1, GridId(0), &d, 8);
        assert!(!a.tripped());
        a.on_dispatch(t(1), 3, 2, GridId(0), &d, 1); // 2304 threads > 2048
        assert!(a.tripped());
        let v = &a.violations()[0];
        assert_eq!(v.entity, "smx3");
        assert!(v.message.contains("threads"), "{v}");
        assert_eq!(v.time, t(1));
    }

    #[test]
    fn double_completion_is_caught() {
        let mut a = auditor();
        let d = desc(4, 128);
        a.on_grid_launch(t(0), GridId(0), "k", &d);
        a.on_dispatch(t(1), 0, 7, GridId(0), &d, 4);
        a.on_group_complete(t(5), 0, 7);
        assert!(!a.tripped());
        a.on_group_complete(t(5), 0, 7);
        assert!(a.tripped());
        assert!(a.violations()[0].message.contains("unknown group"));
    }

    #[test]
    fn stream_order_violation_is_caught() {
        let mut a = auditor();
        a.on_enqueue(t(0), StreamId(2), OpId(0));
        a.on_enqueue(t(0), StreamId(2), OpId(1));
        a.on_op_complete(t(1), StreamId(2), OpId(1));
        assert!(a.tripped());
        let v = &a.violations()[0];
        assert_eq!(v.entity, "StreamId(2)");
        assert!(v.message.contains("out of enqueue order"));
    }

    #[test]
    fn dma_double_inflight_and_jumping_are_caught() {
        let mut a = auditor();
        a.on_copy_start(t(0), Dir::HtoD, OpId(0), true);
        a.on_copy_start(t(1), Dir::HtoD, OpId(1), true);
        assert!(a.tripped());
        assert!(a.violations()[0].message.contains("in flight"));
        let mut b = auditor();
        b.on_copy_start(t(0), Dir::DtoH, OpId(3), false);
        assert!(b.tripped());
        assert!(b.violations()[0].message.contains("stream head"));
    }

    #[test]
    fn mutex_shadow_checks_pairing_and_fifo() {
        let mut a = auditor();
        a.on_mutex_lock(t(0), MutexId(0), AppId(0), true);
        a.on_mutex_lock(t(1), MutexId(0), AppId(1), false);
        a.on_mutex_lock(t(2), MutexId(0), AppId(2), false);
        // Handing off to app2 skips FIFO-head app1: a lost wakeup.
        a.on_mutex_unlock(t(3), MutexId(0), AppId(0), Some(AppId(2)));
        assert!(a.tripped());
        assert!(a.violations()[0].message.contains("FIFO head"));
        // Unlock by non-holder.
        let mut b = auditor();
        b.on_mutex_lock(t(0), MutexId(1), AppId(0), true);
        b.on_mutex_unlock(t(1), MutexId(1), AppId(5), None);
        assert!(b.tripped());
        assert!(b.violations()[0].message.contains("held by"));
    }

    #[test]
    fn kill_must_reclaim_residency() {
        let mut a = auditor();
        let d = desc(8, 128);
        a.on_grid_launch(t(0), GridId(0), "k", &d);
        a.on_dispatch(t(1), 0, 1, GridId(0), &d, 8);
        // Kill without evicting the group first: incomplete reclaim.
        a.on_grid_killed(t(2), GridId(0), FaultKind::KernelHang);
        assert!(a.tripped());
        assert!(a.violations()[0].message.contains("reclaimed incompletely"));
    }

    #[test]
    fn admission_shadow_divergence_is_caught() {
        let mut a = auditor();
        let need = ResourceTotals {
            blocks: 4,
            threads: 512,
            regs: 1024,
            smem: 0,
        };
        a.on_admit(t(0), GridId(0), need, need);
        assert!(!a.tripped());
        // Reclaim reported with the wrong running total.
        a.on_reclaim(t(1), GridId(0), need, need);
        assert!(a.tripped());
        assert!(a.violations()[0].message.contains("diverged"));
    }

    #[test]
    fn finalize_flags_residual_state() {
        let mut a = auditor();
        let d = desc(4, 128);
        a.on_enqueue(t(0), StreamId(0), OpId(0));
        a.on_grid_launch(t(0), GridId(0), "k", &d);
        a.on_dispatch(t(1), 0, 1, GridId(0), &d, 4);
        a.finalize(t(2));
        assert!(a.tripped());
        let msgs: Vec<&str> = a.violations().iter().map(|v| v.message.as_str()).collect();
        assert!(msgs.iter().any(|m| m.contains("never completed")), "{msgs:?}");
        assert!(msgs.iter().any(|m| m.contains("still resident")), "{msgs:?}");
        assert!(msgs.iter().any(|m| m.contains("never finished or killed")), "{msgs:?}");
    }

    #[test]
    fn report_includes_recent_transitions() {
        let mut a = auditor();
        a.on_event(t(1), || "ThreadStart(app0)".into());
        a.on_event(t(0), || "bad".into());
        let (violations, recent) = a.render_report();
        assert_eq!(violations.len(), 1);
        assert!(recent.iter().any(|l| l.contains("ThreadStart")), "{recent:?}");
    }

    #[test]
    fn violation_cap_bounds_memory() {
        let mut a = auditor();
        for i in 0..(MAX_VIOLATIONS as u64 + 40) {
            a.on_event(t(1000 - i), || "tick".into());
        }
        assert!(a.violations().len() <= MAX_VIOLATIONS);
    }
}
