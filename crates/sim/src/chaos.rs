//! Chaos schedules and shrinking reproducers.
//!
//! LiveStack (PAPERS.md) argues cluster-scale simulation is only
//! credible when node failure and recovery are first-class simulated
//! events; this module makes them *first-class test inputs*. A
//! [`ChaosSchedule`] is a seeded list of [`ChaosEvent`]s that composes
//! into a [`FaultPlan`] (PR 1 faults plus whole-domain crashes); the
//! harness escalates schedule intensity, runs the invariant auditors
//! after every recovery, and — when a schedule provokes a failure —
//! [`shrink`] binary-searches it down (ddmin) to a minimal reproducer
//! that replays from its seed alone.
//!
//! The oracle is a plain closure, so the shrinker is workload-agnostic:
//! the CLI drives it with a full supervised KV run, unit tests with
//! synthetic predicates.

use crate::fault::FaultPlan;
use crate::rng::SimRng;
use std::fmt;

/// One composable fault ingredient of a chaos schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ChaosEvent {
    /// Message-drop probability.
    MsgDrop(f64),
    /// Message-corruption probability.
    MsgCorrupt(f64),
    /// Message delay: probability and extra cycles.
    MsgDelay(f64, u64),
    /// Ack-loss probability.
    AckDrop(f64),
    /// IPI-loss probability.
    IpiLoss(f64),
    /// Transient frame-allocation-failure probability.
    AllocFail(f64),
    /// Cross-ISA lock-contention probability.
    LockContention(f64),
    /// One-shot global-allocator exhaustion at the Nth grant.
    GallocExhaustAt(u64),
    /// Fail-stop a domain at a watchdog tick.
    Crash {
        /// Domain index (0 = x86, 1 = Arm).
        domain: u8,
        /// Watchdog tick at which the domain halts.
        at_tick: u64,
    },
}

impl ChaosEvent {
    /// Folds this event into a [`FaultPlan`]. Probabilities for the same
    /// site accumulate (capped at 1.0); one-shots take the latest value.
    #[must_use]
    pub fn apply(&self, mut plan: FaultPlan) -> FaultPlan {
        fn cap(p: f64) -> f64 {
            p.min(1.0)
        }
        match *self {
            ChaosEvent::MsgDrop(p) => plan.msg_drop = cap(plan.msg_drop + p),
            ChaosEvent::MsgCorrupt(p) => plan.msg_corrupt = cap(plan.msg_corrupt + p),
            ChaosEvent::MsgDelay(p, cycles) => {
                plan.msg_delay = cap(plan.msg_delay + p);
                plan.msg_delay_cycles = plan.msg_delay_cycles.max(cycles);
            }
            ChaosEvent::AckDrop(p) => plan.ack_drop = cap(plan.ack_drop + p),
            ChaosEvent::IpiLoss(p) => plan.ipi_loss = cap(plan.ipi_loss + p),
            ChaosEvent::AllocFail(p) => plan.alloc_fail = cap(plan.alloc_fail + p),
            ChaosEvent::LockContention(p) => {
                plan.lock_contention = cap(plan.lock_contention + p);
            }
            ChaosEvent::GallocExhaustAt(n) => plan.galloc_exhaust_at = Some(n),
            ChaosEvent::Crash { domain, at_tick } => plan.crash = Some((domain, at_tick)),
        }
        plan
    }
}

impl fmt::Display for ChaosEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ChaosEvent::MsgDrop(p) => write!(f, "msg-drop p={p:.3}"),
            ChaosEvent::MsgCorrupt(p) => write!(f, "msg-corrupt p={p:.3}"),
            ChaosEvent::MsgDelay(p, c) => write!(f, "msg-delay p={p:.3} +{c}cyc"),
            ChaosEvent::AckDrop(p) => write!(f, "ack-drop p={p:.3}"),
            ChaosEvent::IpiLoss(p) => write!(f, "ipi-loss p={p:.3}"),
            ChaosEvent::AllocFail(p) => write!(f, "alloc-fail p={p:.3}"),
            ChaosEvent::LockContention(p) => write!(f, "lock-contention p={p:.3}"),
            ChaosEvent::GallocExhaustAt(n) => write!(f, "galloc-exhaust at grant {n}"),
            ChaosEvent::Crash { domain, at_tick } => {
                let name = if domain == 0 { "x86" } else { "arm" };
                write!(f, "domain-crash {name} at tick {at_tick}")
            }
        }
    }
}

/// A seeded, replayable fault schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosSchedule {
    /// The root seed: both the schedule's own composition and the fault
    /// injector it parameterises derive from it.
    pub seed: u64,
    /// The composed events.
    pub events: Vec<ChaosEvent>,
}

impl ChaosSchedule {
    /// Generates the escalating schedule for `stage` (0-based): stage 0
    /// is a light message-layer shake, later stages add IPI loss,
    /// allocation failures, lock contention, allocator exhaustion and —
    /// from stage 3 — whole-domain crashes. The composition is fully
    /// determined by `(seed, stage)`.
    #[must_use]
    pub fn generate(seed: u64, stage: u32) -> Self {
        let mut rng = SimRng::new(seed ^ (u64::from(stage) << 32) ^ 0xc4a0_5c4a);
        let scale = f64::from(stage + 1);
        let mut events = vec![
            ChaosEvent::MsgDrop(0.01 * scale * (1.0 + rng.gen_f64())),
            ChaosEvent::MsgCorrupt(0.005 * scale * (1.0 + rng.gen_f64())),
        ];
        if stage >= 1 {
            events.push(ChaosEvent::AckDrop(0.01 * scale));
            events.push(ChaosEvent::IpiLoss(0.002 * scale * (1.0 + rng.gen_f64())));
            events.push(ChaosEvent::MsgDelay(0.01 * scale, 1_000 + rng.gen_range(4_000)));
        }
        if stage >= 2 {
            events.push(ChaosEvent::AllocFail(0.01 * scale));
            events.push(ChaosEvent::LockContention(0.02 * scale));
            events.push(ChaosEvent::GallocExhaustAt(rng.gen_range(4)));
        }
        if stage >= 3 {
            // Land inside the harness's scenario window (one watchdog
            // tick per supervised step, scenarios run tens of steps).
            events.push(ChaosEvent::Crash {
                domain: (rng.next_u64() & 1) as u8,
                at_tick: 10 + rng.gen_range(25),
            });
        }
        ChaosSchedule { seed, events }
    }

    /// Composes the events into a [`FaultPlan`].
    #[must_use]
    pub fn plan(&self) -> FaultPlan {
        self.events.iter().fold(FaultPlan::none(), |p, ev| ev.apply(p))
    }

    /// The schedule's crash event, if it has one.
    #[must_use]
    pub fn crash(&self) -> Option<(u8, u64)> {
        self.plan().crash
    }

    /// Renders the replayable reproducer: seed plus one event per line.
    #[must_use]
    pub fn describe(&self) -> String {
        use fmt::Write as _;
        let mut s = format!("seed {:#x}, {} event(s):\n", self.seed, self.events.len());
        for ev in &self.events {
            let _ = writeln!(s, "  - {ev}");
        }
        s
    }
}

/// Shrinks a failing event list to a locally-minimal reproducer with
/// ddmin (delta debugging): repeatedly try dropping complement chunks at
/// doubling granularity, keeping any subset on which `oracle` still
/// returns `true` (= still fails). The result is 1-minimal: removing any
/// single remaining event makes the failure vanish.
///
/// The oracle must be deterministic — in this harness every run is
/// seeded, so it is.
pub fn shrink<F>(events: &[ChaosEvent], mut oracle: F) -> Vec<ChaosEvent>
where
    F: FnMut(&[ChaosEvent]) -> bool,
{
    let mut current: Vec<ChaosEvent> = events.to_vec();
    if current.is_empty() || !oracle(&current) {
        return current;
    }
    let mut granularity = 2usize;
    while current.len() >= 2 {
        let chunk = current.len().div_ceil(granularity);
        let mut reduced = false;
        let mut start = 0;
        while start < current.len() {
            let end = (start + chunk).min(current.len());
            // The complement: everything except [start, end).
            let candidate: Vec<ChaosEvent> =
                current[..start].iter().chain(current[end..].iter()).copied().collect();
            if !candidate.is_empty() && oracle(&candidate) {
                current = candidate;
                granularity = granularity.max(2).min(current.len().max(2));
                reduced = true;
                // Restart the sweep on the reduced list.
                start = 0;
            } else {
                start = end;
            }
        }
        if !reduced {
            if granularity >= current.len() {
                break;
            }
            granularity = (granularity * 2).min(current.len());
        }
    }
    current
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_are_deterministic_and_escalate() {
        let a = ChaosSchedule::generate(42, 2);
        let b = ChaosSchedule::generate(42, 2);
        assert_eq!(a, b, "same (seed, stage) must compose the same schedule");
        assert_ne!(a, ChaosSchedule::generate(43, 2));

        let light = ChaosSchedule::generate(42, 0);
        let heavy = ChaosSchedule::generate(42, 3);
        assert!(light.events.len() < heavy.events.len());
        assert!(light.crash().is_none(), "crashes only appear from stage 3");
        assert!(heavy.crash().is_some());
        assert!(heavy.describe().contains("domain-crash"));
    }

    #[test]
    fn plan_composition_accumulates_and_caps() {
        let plan = ChaosSchedule {
            seed: 0,
            events: vec![
                ChaosEvent::MsgDrop(0.7),
                ChaosEvent::MsgDrop(0.7),
                ChaosEvent::GallocExhaustAt(3),
                ChaosEvent::Crash { domain: 1, at_tick: 9 },
            ],
        }
        .plan();
        assert_eq!(plan.msg_drop, 1.0, "probabilities cap at 1");
        assert_eq!(plan.galloc_exhaust_at, Some(3));
        assert_eq!(plan.crash, Some((1, 9)));
        assert!(!plan.is_noop());
    }

    #[test]
    fn shrink_finds_single_culprit() {
        let sched = ChaosSchedule::generate(7, 3);
        assert!(sched.events.len() > 5);
        // The "regression" needs exactly the crash event.
        let minimal =
            shrink(&sched.events, |evs| evs.iter().any(|e| matches!(e, ChaosEvent::Crash { .. })));
        assert_eq!(minimal.len(), 1);
        assert!(matches!(minimal[0], ChaosEvent::Crash { .. }));
    }

    #[test]
    fn shrink_finds_interacting_pair() {
        let events = vec![
            ChaosEvent::MsgDrop(0.1),
            ChaosEvent::IpiLoss(0.1),
            ChaosEvent::AllocFail(0.1),
            ChaosEvent::GallocExhaustAt(0),
            ChaosEvent::LockContention(0.1),
            ChaosEvent::Crash { domain: 0, at_tick: 30 },
            ChaosEvent::AckDrop(0.1),
        ];
        // Fails only when the crash AND the exhaustion are both present.
        let minimal = shrink(&events, |evs| {
            evs.iter().any(|e| matches!(e, ChaosEvent::Crash { .. }))
                && evs.iter().any(|e| matches!(e, ChaosEvent::GallocExhaustAt(_)))
        });
        assert_eq!(minimal.len(), 2, "ddmin must isolate the interacting pair: {minimal:?}");
    }

    #[test]
    fn shrink_of_passing_schedule_is_identity() {
        let events = vec![ChaosEvent::MsgDrop(0.1), ChaosEvent::AckDrop(0.1)];
        let out = shrink(&events, |_| false);
        assert_eq!(out, events);
    }

    #[test]
    fn shrink_result_is_one_minimal() {
        let events: Vec<ChaosEvent> = (0..16).map(|i| ChaosEvent::MsgDelay(0.01, i)).collect();
        // Fails when events with delays 3, 8 and 13 are all present.
        let need = |evs: &[ChaosEvent]| {
            [3u64, 8, 13]
                .iter()
                .all(|&k| evs.iter().any(|e| matches!(e, ChaosEvent::MsgDelay(_, d) if *d == k)))
        };
        let minimal = shrink(&events, need);
        assert_eq!(minimal.len(), 3);
        for i in 0..minimal.len() {
            let mut without: Vec<ChaosEvent> = minimal.clone();
            without.remove(i);
            assert!(!need(&without), "dropping any survivor must pass");
        }
    }
}
