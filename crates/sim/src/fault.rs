//! Deterministic fault injection for the fused-kernel stack.
//!
//! The paper defers fault tolerance to future work (§10); this module is
//! the reproduction's chaos harness. A [`FaultPlan`] describes *which*
//! faults may fire and with what probability; a [`FaultInjector`] turns
//! the plan into a replayable schedule by giving every injection site its
//! own [`SimRng`] stream split from one root seed.
//! Because each site draws only from its own stream, the decision made at
//! (site, op-index) depends solely on the seed and the plan — two runs
//! with the same seed replay the identical fault sequence even if the
//! surrounding workload interleaves sites differently.
//!
//! When no injector is installed the hot paths consume **zero** RNG and
//! charge the exact same cycle costs as before this module existed, so
//! fault-free experiments stay bit-identical to the paper-fidelity model.

use crate::rng::SimRng;
use std::cell::RefCell;
use std::rc::Rc;

/// The kind of fault a site injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// A message (or its payload write) was lost in the channel.
    MsgDrop,
    /// A message arrived with a bad checksum and was discarded.
    MsgCorrupt,
    /// A message was delivered late by the plan's delay.
    MsgDelay,
    /// The ack for a delivered message was lost (forces a retransmit
    /// that the receiver must dedup by sequence number).
    AckDrop,
    /// An inter-processor interrupt was lost in the fabric.
    IpiLoss,
    /// A transient frame-allocation failure.
    AllocFail,
    /// The global allocator refused a block grant (forced exhaustion).
    GallocExhausted,
    /// A cross-ISA page-table-lock acquisition found the lock held.
    LockContention,
    /// A whole domain fail-stopped (kernel crash): its cores halt and it
    /// goes silent on the heartbeat channel. Memory contents survive —
    /// the platform's DRAM is cache-coherent and shared, so a kernel
    /// crash does not lose the pool (see DESIGN.md §10).
    DomainCrash,
}

impl FaultKind {
    /// All kinds, in checkpoint-code order.
    const ALL: [FaultKind; 9] = [
        FaultKind::MsgDrop,
        FaultKind::MsgCorrupt,
        FaultKind::MsgDelay,
        FaultKind::AckDrop,
        FaultKind::IpiLoss,
        FaultKind::AllocFail,
        FaultKind::GallocExhausted,
        FaultKind::LockContention,
        FaultKind::DomainCrash,
    ];
}

/// The subsystem at which a fault was injected. Each site owns an
/// independent RNG stream and op counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// `MessagingLayer::send` (drop / corrupt / delay / ack-drop).
    Msg,
    /// `IpiFabric::send`.
    Ipi,
    /// Frame / global allocation paths.
    Alloc,
    /// Cross-ISA page-table lock.
    Lock,
}

impl FaultSite {
    /// All sites, in stream order.
    pub const ALL: [FaultSite; 4] =
        [FaultSite::Msg, FaultSite::Ipi, FaultSite::Alloc, FaultSite::Lock];

    fn index(self) -> usize {
        match self {
            FaultSite::Msg => 0,
            FaultSite::Ipi => 1,
            FaultSite::Alloc => 2,
            FaultSite::Lock => 3,
        }
    }
}

/// One injected fault, recorded in the injector's replay log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// What was injected.
    pub kind: FaultKind,
    /// Where it was injected.
    pub site: FaultSite,
    /// The site-local operation index at which it fired (0-based).
    pub op: u64,
}

/// Declarative description of the faults a run should experience.
///
/// All probabilities are in `[0, 1]` and are evaluated per operation at
/// their site. The default plan injects nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Probability a message send is dropped in the channel.
    pub msg_drop: f64,
    /// Probability a message arrives corrupted (checksum-detected;
    /// behaves like a drop but is counted separately).
    pub msg_corrupt: f64,
    /// Probability a message is delayed by [`FaultPlan::msg_delay_cycles`].
    pub msg_delay: f64,
    /// Extra delivery latency charged by a `MsgDelay` fault.
    pub msg_delay_cycles: u64,
    /// Probability the ack of a delivered message is lost (forces a
    /// retransmit the receiver dedups by sequence number).
    pub ack_drop: f64,
    /// Probability an IPI is lost in the fabric.
    pub ipi_loss: f64,
    /// Probability a frame allocation transiently fails.
    pub alloc_fail: f64,
    /// Probability a PTL acquisition finds the lock held by the peer.
    pub lock_contention: f64,
    /// Inclusive-exclusive site-local op window `[start, end)` outside of
    /// which nothing is injected. `None` means always armed.
    pub window: Option<(u64, u64)>,
    /// One-shot: force the global allocator to refuse the Nth grant
    /// request (0-based) observed at the [`FaultSite::Alloc`] site.
    pub galloc_exhaust_at: Option<u64>,
    /// One-shot: fail-stop a whole domain at the given watchdog tick.
    /// `(domain index, tick)` — deterministic, no RNG involved, so the
    /// crash instant is identical on every replay of the plan.
    pub crash: Option<(u8, u64)>,
}

impl FaultPlan {
    /// A plan that injects nothing.
    #[must_use]
    pub fn none() -> Self {
        FaultPlan {
            msg_drop: 0.0,
            msg_corrupt: 0.0,
            msg_delay: 0.0,
            msg_delay_cycles: 0,
            ack_drop: 0.0,
            ipi_loss: 0.0,
            alloc_fail: 0.0,
            lock_contention: 0.0,
            window: None,
            galloc_exhaust_at: None,
            crash: None,
        }
    }

    /// Sets the message-drop probability.
    #[must_use]
    pub fn with_msg_drop(mut self, p: f64) -> Self {
        self.msg_drop = p;
        self
    }

    /// Sets the message-corruption probability.
    #[must_use]
    pub fn with_msg_corrupt(mut self, p: f64) -> Self {
        self.msg_corrupt = p;
        self
    }

    /// Sets the message-delay probability and the delay itself.
    #[must_use]
    pub fn with_msg_delay(mut self, p: f64, cycles: u64) -> Self {
        self.msg_delay = p;
        self.msg_delay_cycles = cycles;
        self
    }

    /// Sets the ack-drop probability.
    #[must_use]
    pub fn with_ack_drop(mut self, p: f64) -> Self {
        self.ack_drop = p;
        self
    }

    /// Sets the IPI-loss probability.
    #[must_use]
    pub fn with_ipi_loss(mut self, p: f64) -> Self {
        self.ipi_loss = p;
        self
    }

    /// Sets the transient allocation-failure probability.
    #[must_use]
    pub fn with_alloc_fail(mut self, p: f64) -> Self {
        self.alloc_fail = p;
        self
    }

    /// Sets the PTL-contention probability.
    #[must_use]
    pub fn with_lock_contention(mut self, p: f64) -> Self {
        self.lock_contention = p;
        self
    }

    /// Restricts injection to the site-local op window `[start, end)`.
    #[must_use]
    pub fn with_window(mut self, start: u64, end: u64) -> Self {
        self.window = Some((start, end));
        self
    }

    /// Forces the global allocator to refuse the `n`-th grant (one-shot).
    #[must_use]
    pub fn with_galloc_exhaust_at(mut self, n: u64) -> Self {
        self.galloc_exhaust_at = Some(n);
        self
    }

    /// Whether the plan can inject anything at all.
    #[must_use]
    pub fn is_noop(&self) -> bool {
        self.msg_drop == 0.0
            && self.msg_corrupt == 0.0
            && self.msg_delay == 0.0
            && self.ack_drop == 0.0
            && self.ipi_loss == 0.0
            && self.alloc_fail == 0.0
            && self.lock_contention == 0.0
            && self.galloc_exhaust_at.is_none()
            && self.crash.is_none()
    }

    /// Serializes the plan into a checkpoint artifact section.
    pub fn save_state(&self, e: &mut crate::checkpoint::Encoder) {
        e.tag(0x46_504c4e); // "FPLN"
        for p in [
            self.msg_drop,
            self.msg_corrupt,
            self.msg_delay,
            self.ack_drop,
            self.ipi_loss,
            self.alloc_fail,
            self.lock_contention,
        ] {
            e.f64(p);
        }
        e.u64(self.msg_delay_cycles);
        match self.window {
            Some((s, end)) => {
                e.bool(true);
                e.u64(s);
                e.u64(end);
            }
            None => e.bool(false),
        }
        e.opt_u64(self.galloc_exhaust_at);
        match self.crash {
            Some((d, t)) => {
                e.bool(true);
                e.u8(d);
                e.u64(t);
            }
            None => e.bool(false),
        }
    }

    /// Deserializes a plan from a checkpoint artifact section.
    ///
    /// # Errors
    ///
    /// Decoding errors.
    pub fn load_state(
        d: &mut crate::checkpoint::Decoder<'_>,
    ) -> Result<Self, crate::checkpoint::CheckpointError> {
        d.tag(0x46_504c4e)?;
        let mut plan = FaultPlan::none();
        plan.msg_drop = d.f64()?;
        plan.msg_corrupt = d.f64()?;
        plan.msg_delay = d.f64()?;
        plan.ack_drop = d.f64()?;
        plan.ipi_loss = d.f64()?;
        plan.alloc_fail = d.f64()?;
        plan.lock_contention = d.f64()?;
        plan.msg_delay_cycles = d.u64()?;
        plan.window = if d.bool()? { Some((d.u64()?, d.u64()?)) } else { None };
        plan.galloc_exhaust_at = d.opt_u64()?;
        plan.crash = if d.bool()? { Some((d.domain()?.index() as u8, d.u64()?)) } else { None };
        Ok(plan)
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

/// The per-run fault scheduler: one RNG stream and op counter per
/// [`FaultSite`], a replay log, and the one-shot crash latch. It decides
/// faults and does not count their outcomes: the layer that takes a
/// fault records it, and its recovery, in the acting domain's
/// [`DomainStats`](crate::stats::DomainStats), so the summed
/// `faults_injected` equals `log().len()`.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    seed: u64,
    streams: [SimRng; 4],
    ops: [u64; 4],
    /// Grant requests observed by [`FaultInjector::galloc_exhausted`] —
    /// deliberately separate from the Alloc stream so the one-shot index
    /// counts grant requests, not every Alloc-site roll.
    galloc_ops: u64,
    log: Vec<FaultEvent>,
    /// One-shot latch: the plan's crash already fired.
    crash_fired: bool,
    /// Recovery disarmed the crash: it will not re-fire during replay
    /// of the post-checkpoint backlog. Harness-side state — never
    /// serialized, never affects simulated cycles.
    crash_disarmed: bool,
}

impl FaultInjector {
    /// Builds an injector for `plan`, splitting one stream per site off
    /// the root `seed`. The third split is drawn and dropped: it
    /// belonged to a retired site, and skipping it keeps the Alloc and
    /// Lock streams — so every seeded fault schedule — unchanged.
    #[must_use]
    pub fn new(plan: FaultPlan, seed: u64) -> Self {
        let mut root = SimRng::new(seed);
        let (msg, ipi) = (root.split(), root.split());
        let _retired = root.split();
        let streams = [msg, ipi, root.split(), root.split()];
        FaultInjector {
            plan,
            seed,
            streams,
            ops: [0; 4],
            galloc_ops: 0,
            log: Vec::new(),
            crash_fired: false,
            crash_disarmed: false,
        }
    }

    /// The plan in force.
    #[must_use]
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// The root seed the streams were split from.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The replay log of every fault fired so far, in firing order per
    /// site (the cross-site order depends on workload interleaving, but
    /// each `(site, op)` decision is seed-determined).
    #[must_use]
    pub fn log(&self) -> &[FaultEvent] {
        &self.log
    }

    /// Whether the window (if any) covers the *current* op at `site`.
    fn armed(&self, site: FaultSite) -> bool {
        match self.plan.window {
            Some((start, end)) => {
                let op = self.ops[site.index()];
                op >= start && op < end
            }
            None => true,
        }
    }

    /// Advances `site`'s op counter and returns `(previous op, roll)`.
    /// The roll is always consumed so the stream position depends only on
    /// the op index, never on the plan's probabilities.
    fn roll(&mut self, site: FaultSite) -> (u64, f64) {
        let i = site.index();
        let op = self.ops[i];
        self.ops[i] += 1;
        (op, self.streams[i].gen_f64())
    }

    fn fire(&mut self, kind: FaultKind, site: FaultSite, op: u64) {
        self.log.push(FaultEvent { kind, site, op });
    }

    /// Rolls the message-send site. Returns the fault to apply to this
    /// transmission attempt, if any. Drop, corrupt and delay are
    /// evaluated cumulatively from one roll so a single RNG draw decides
    /// the attempt's fate.
    pub fn msg_fault(&mut self) -> Option<FaultKind> {
        let armed = self.armed(FaultSite::Msg);
        let (op, r) = self.roll(FaultSite::Msg);
        if !armed {
            return None;
        }
        let p = self.plan;
        let kind = if r < p.msg_drop {
            FaultKind::MsgDrop
        } else if r < p.msg_drop + p.msg_corrupt {
            FaultKind::MsgCorrupt
        } else if r < p.msg_drop + p.msg_corrupt + p.msg_delay {
            FaultKind::MsgDelay
        } else {
            return None;
        };
        self.fire(kind, FaultSite::Msg, op);
        Some(kind)
    }

    /// Rolls the ack leg of a delivered message. Returns whether the ack
    /// was lost (forcing a retransmit).
    pub fn ack_dropped(&mut self) -> bool {
        let armed = self.armed(FaultSite::Msg);
        let (op, r) = self.roll(FaultSite::Msg);
        if armed && r < self.plan.ack_drop {
            self.fire(FaultKind::AckDrop, FaultSite::Msg, op);
            true
        } else {
            false
        }
    }

    /// Rolls the IPI site. Returns whether this delivery attempt is lost.
    pub fn ipi_lost(&mut self) -> bool {
        let armed = self.armed(FaultSite::Ipi);
        let (op, r) = self.roll(FaultSite::Ipi);
        if armed && r < self.plan.ipi_loss {
            self.fire(FaultKind::IpiLoss, FaultSite::Ipi, op);
            true
        } else {
            false
        }
    }

    /// Rolls the allocation site. Returns whether this frame allocation
    /// transiently fails.
    pub fn alloc_fails(&mut self) -> bool {
        let armed = self.armed(FaultSite::Alloc);
        let (op, r) = self.roll(FaultSite::Alloc);
        if armed && r < self.plan.alloc_fail {
            self.fire(FaultKind::AllocFail, FaultSite::Alloc, op);
            true
        } else {
            false
        }
    }

    /// One-shot check: does the plan force the global allocator to refuse
    /// *this* grant request? Counts grant requests on a dedicated counter
    /// (no RNG draw), so the one-shot index is independent of how many
    /// transient-failure rolls the Alloc site has taken.
    pub fn galloc_exhausted(&mut self) -> bool {
        let Some(n) = self.plan.galloc_exhaust_at else { return false };
        let op = self.galloc_ops;
        self.galloc_ops += 1;
        if op == n {
            self.fire(FaultKind::GallocExhausted, FaultSite::Alloc, op);
            true
        } else {
            false
        }
    }

    /// Rolls the PTL site. Returns whether this acquisition attempt finds
    /// the lock held by the peer kernel.
    pub fn lock_contended(&mut self) -> bool {
        let armed = self.armed(FaultSite::Lock);
        let (op, r) = self.roll(FaultSite::Lock);
        if armed && r < self.plan.lock_contention {
            self.fire(FaultKind::LockContention, FaultSite::Lock, op);
            true
        } else {
            false
        }
    }

    /// One-shot check driven by the watchdog: does the plan fail-stop a
    /// domain at (or before) watchdog tick `tick`? Fires at most once
    /// per run and never after [`FaultInjector::disarm_crash`]. No RNG
    /// is consumed — the crash instant is plan-determined. The event is
    /// logged under [`FaultSite::Ipi`] (the domain-level interconnect)
    /// with the tick as its op index.
    pub fn crash_due(&mut self, tick: u64) -> Option<u8> {
        let (domain, at) = self.plan.crash?;
        if self.crash_fired || self.crash_disarmed || tick < at {
            return None;
        }
        self.crash_fired = true;
        self.fire(FaultKind::DomainCrash, FaultSite::Ipi, at);
        Some(domain)
    }

    /// Disarms the plan's one-shot crash so it cannot re-fire while the
    /// recovered machine replays its post-checkpoint backlog. Host-side
    /// harness state: restoring a checkpoint rewinds `crash_fired`, but
    /// never this flag.
    pub fn disarm_crash(&mut self) {
        self.crash_disarmed = true;
    }

    /// Whether the plan's crash has already fired.
    #[must_use]
    pub fn crash_fired(&self) -> bool {
        self.crash_fired
    }

    /// Serializes the injector — plan, seed, per-site stream positions,
    /// op counters, the crash latch and the replay log — so a restored
    /// run continues the exact fault schedule. The disarm flag is
    /// deliberately *not* serialized (see [`FaultInjector::disarm_crash`]).
    pub fn save_state(&self, e: &mut crate::checkpoint::Encoder) {
        e.tag(0x46_494e4a); // "FINJ"
        self.plan.save_state(e);
        e.u64(self.seed);
        for s in &self.streams {
            e.u64(s.state());
        }
        for &op in &self.ops {
            e.u64(op);
        }
        e.u64(self.galloc_ops);
        e.bool(self.crash_fired);
        e.u64(self.log.len() as u64);
        for ev in &self.log {
            let code = FaultKind::ALL.iter().position(|&k| k == ev.kind);
            e.u8(code.expect("ALL is exhaustive") as u8);
            e.u8(ev.site.index() as u8);
            e.u64(ev.op);
        }
    }

    /// Deserializes an injector saved by [`FaultInjector::save_state`].
    ///
    /// # Errors
    ///
    /// Decoding errors.
    pub fn load_state(
        d: &mut crate::checkpoint::Decoder<'_>,
    ) -> Result<Self, crate::checkpoint::CheckpointError> {
        use crate::checkpoint::CheckpointError;
        d.tag(0x46_494e4a)?;
        let plan = FaultPlan::load_state(d)?;
        let seed = d.u64()?;
        let mut inj = FaultInjector::new(plan, seed);
        for s in &mut inj.streams {
            *s = SimRng::new(d.u64()?);
        }
        for op in &mut inj.ops {
            *op = d.u64()?;
        }
        inj.galloc_ops = d.u64()?;
        inj.crash_fired = d.bool()?;
        let n = d.len()?;
        inj.log.clear();
        for _ in 0..n {
            let kind = *FaultKind::ALL
                .get(d.u8()? as usize)
                .ok_or(CheckpointError::Malformed("fault kind code"))?;
            let site = *FaultSite::ALL
                .get(d.u8()? as usize)
                .ok_or(CheckpointError::Malformed("fault site code"))?;
            inj.log.push(FaultEvent { kind, site, op: d.u64()? });
        }
        Ok(inj)
    }

    /// Restores serialized state into this injector in place,
    /// preserving the host-side crash-disarm flag (which is never
    /// serialized — see [`FaultInjector::disarm_crash`]).
    ///
    /// # Errors
    ///
    /// Decoding errors.
    pub fn restore_state(
        &mut self,
        d: &mut crate::checkpoint::Decoder<'_>,
    ) -> Result<(), crate::checkpoint::CheckpointError> {
        let disarmed = self.crash_disarmed;
        *self = FaultInjector::load_state(d)?;
        self.crash_disarmed = disarmed;
        Ok(())
    }
}

/// The shared handle installed into the messaging layer, IPI fabric and
/// OS kernels. The simulator is single-threaded, so `Rc<RefCell<…>>`
/// suffices; borrows are short (one decision per call).
pub type SharedFaultInjector = Rc<RefCell<FaultInjector>>;

/// Builds a [`SharedFaultInjector`] ready to install.
#[must_use]
pub fn shared_injector(plan: FaultPlan, seed: u64) -> SharedFaultInjector {
    Rc::new(RefCell::new(FaultInjector::new(plan, seed)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_plan_never_fires() {
        let mut inj = FaultInjector::new(FaultPlan::none(), 7);
        for _ in 0..1000 {
            assert_eq!(inj.msg_fault(), None);
            assert!(!inj.ipi_lost());
            assert!(!inj.alloc_fails());
            assert!(!inj.lock_contended());
            assert!(!inj.galloc_exhausted());
        }
        assert!(inj.log().is_empty());
    }

    #[test]
    fn same_seed_replays_identical_schedule() {
        let plan = FaultPlan::none()
            .with_msg_drop(0.1)
            .with_msg_corrupt(0.05)
            .with_msg_delay(0.05, 500)
            .with_ipi_loss(0.2)
            .with_lock_contention(0.3);
        let mut a = FaultInjector::new(plan, 0xfeed);
        let mut b = FaultInjector::new(plan, 0xfeed);
        for i in 0..2000 {
            // Interleave sites differently on purpose: per-site streams
            // make the (site, op) decisions identical regardless.
            assert_eq!(a.msg_fault(), b.msg_fault(), "msg op {i}");
            if i % 3 == 0 {
                assert_eq!(a.ipi_lost(), b.ipi_lost());
            }
            if i % 7 == 0 {
                assert_eq!(a.lock_contended(), b.lock_contended());
            }
        }
        // Catch b's sites up to a's op counts before comparing logs.
        let ipi = FaultSite::Ipi.index();
        while b.ops[ipi] < a.ops[ipi] {
            b.ipi_lost();
        }
        assert_eq!(a.log(), b.log());
        assert!(!a.log().is_empty(), "plan should have fired");
    }

    #[test]
    fn different_seeds_diverge() {
        let plan = FaultPlan::none().with_msg_drop(0.5);
        let mut a = FaultInjector::new(plan, 1);
        let mut b = FaultInjector::new(plan, 2);
        let diverged = (0..256).any(|_| a.msg_fault() != b.msg_fault());
        assert!(diverged);
    }

    #[test]
    fn window_gates_injection() {
        let plan = FaultPlan::none().with_msg_drop(1.0).with_window(10, 20);
        let mut inj = FaultInjector::new(plan, 3);
        for op in 0..30u64 {
            let fired = inj.msg_fault().is_some();
            assert_eq!(fired, (10..20).contains(&op), "op {op}");
        }
        assert_eq!(inj.log().len(), 10);
        assert!(inj.log().iter().all(|e| (10..20).contains(&e.op)));
    }

    #[test]
    fn galloc_exhaustion_is_one_shot() {
        let plan = FaultPlan::none().with_galloc_exhaust_at(2);
        let mut inj = FaultInjector::new(plan, 9);
        let fires: Vec<bool> = (0..5).map(|_| inj.galloc_exhausted()).collect();
        assert_eq!(fires, [false, false, true, false, false]);
        assert_eq!(inj.log().len(), 1);
        assert_eq!(inj.log()[0].kind, FaultKind::GallocExhausted);
    }

    #[test]
    fn cumulative_msg_probabilities_split_kinds() {
        let plan =
            FaultPlan::none().with_msg_drop(0.2).with_msg_corrupt(0.2).with_msg_delay(0.2, 100);
        let mut inj = FaultInjector::new(plan, 0xabcd);
        let mut drops = 0u32;
        let mut corrupts = 0u32;
        let mut delays = 0u32;
        for _ in 0..3000 {
            match inj.msg_fault() {
                Some(FaultKind::MsgDrop) => drops += 1,
                Some(FaultKind::MsgCorrupt) => corrupts += 1,
                Some(FaultKind::MsgDelay) => delays += 1,
                _ => {}
            }
        }
        for (name, n) in [("drops", drops), ("corrupts", corrupts), ("delays", delays)] {
            assert!((400..=800).contains(&n), "{name} = {n}, expected ≈600");
        }
    }

    #[test]
    fn crash_is_one_shot_and_disarmable() {
        let plan = FaultPlan { crash: Some((1, 5)), ..FaultPlan::none() };
        let mut inj = FaultInjector::new(plan, 11);
        assert_eq!(inj.crash_due(4), None);
        assert!(!inj.crash_fired());
        assert_eq!(inj.crash_due(5), Some(1));
        assert!(inj.crash_fired());
        assert_eq!(inj.crash_due(6), None, "crash must be one-shot");
        assert_eq!(inj.log()[0].kind, FaultKind::DomainCrash);

        let mut inj = FaultInjector::new(plan, 11);
        inj.disarm_crash();
        assert_eq!(inj.crash_due(5), None, "disarmed crash must never fire");
        assert!(!plan.is_noop());
    }

    #[test]
    fn injector_state_round_trips_through_checkpoint() {
        let mut plan = FaultPlan::none()
            .with_msg_drop(0.3)
            .with_ipi_loss(0.2)
            .with_window(0, 1 << 20)
            .with_galloc_exhaust_at(7);
        plan.crash = Some((0, 99));
        let mut a = FaultInjector::new(plan, 0x5eed);
        for _ in 0..500 {
            a.msg_fault();
            a.ipi_lost();
            a.galloc_exhausted();
        }

        let mut e = crate::checkpoint::Encoder::new();
        a.save_state(&mut e);
        let bytes = e.into_bytes();
        let mut d = crate::checkpoint::Decoder::new(&bytes);
        let mut b = FaultInjector::load_state(&mut d).unwrap();
        assert_eq!(d.remaining(), 0);

        assert_eq!(a.log(), b.log());
        assert_eq!(a.plan(), b.plan());
        // A crash domain code that names no domain is malformed.
        let mut forged = bytes.clone();
        let crash_domain_at = 4 + 4 + 7 * 8 + 8 + (1 + 2 * 8) + (1 + 8) + 1;
        assert_eq!(forged[crash_domain_at], 0);
        forged[crash_domain_at] = 2;
        let err = FaultInjector::load_state(&mut crate::checkpoint::Decoder::new(&forged));
        assert_eq!(err.unwrap_err(), crate::checkpoint::CheckpointError::Malformed("domain code"));
        // The restored streams continue bit-identically.
        for i in 0..200 {
            assert_eq!(a.msg_fault(), b.msg_fault(), "post-restore msg op {i}");
            assert_eq!(a.ipi_lost(), b.ipi_lost(), "post-restore ipi op {i}");
        }
    }

    #[test]
    fn site_streams_skip_the_retired_third_split() {
        // The Alloc and Lock streams are the root's fourth and fifth
        // splits, so seeded fault replays survive the retired site.
        let mut root = SimRng::new(0x5eed);
        let splits: Vec<u64> = (0..5).map(|_| root.split().state()).collect();
        let inj = FaultInjector::new(FaultPlan::none(), 0x5eed);
        let streams: Vec<u64> = inj.streams.iter().map(SimRng::state).collect();
        assert_eq!(streams, [splits[0], splits[1], splits[3], splits[4]]);
    }
}
