//! Kernel-level domain failure detection.
//!
//! The platform's failure model is fail-stop at domain granularity: a
//! kernel instance (and its cores) halts silently, but DRAM — including
//! the CXL-attached shared pool — survives. Detection piggybacks on the
//! messaging layer: while armed, each live kernel sends a
//! [`MsgType::Heartbeat`](crate::msg::MsgType::Heartbeat) beacon to its
//! peer every supervisor step. A crashed kernel stops beaconing; after
//! `threshold` consecutive silent steps the survivor declares it dead
//! and quarantines it — unconsumed ring messages are dropped, and
//! waiters queued behind the dead domain's futex holders are surfaced
//! so the OS can wake them with
//! [`OsError::OwnerDied`](crate::system::OsError::OwnerDied).
//!
//! The watchdog is entirely opt-in: a disarmed watchdog sends no
//! messages, charges no cycles and consumes no RNG, so runs without one
//! are byte-identical to builds that predate it.

use crate::futex::Waiter;
use stramash_sim::DomainId;

/// Consecutive missed heartbeats before a domain is declared dead.
pub const DEFAULT_THRESHOLD: u32 = 3;

/// What the watchdog found when it declared a domain dead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WatchdogReport {
    /// The domain declared dead.
    pub dead: DomainId,
    /// Heartbeats missed before the declaration.
    pub missed: u32,
    /// Unconsumed in-flight message bytes dropped from the dead
    /// domain's ring.
    pub dropped_msg_bytes: u64,
    /// Surviving waiters (per kernel) that were queued on futexes
    /// poisoned by the dead domain, as `(futex address, waiter)` —
    /// the OS wakes each with `OwnerDied`.
    pub orphaned_waiters: [Vec<(u64, Waiter)>; 2],
}

/// Per-platform watchdog state (owned by the base system).
#[derive(Debug, Clone, Default)]
pub struct Watchdog {
    /// Armed? Disarmed watchdogs are completely inert.
    enabled: bool,
    /// Missed-beat threshold for declaring a domain dead.
    threshold: u32,
    /// Consecutive steps without a heartbeat, per domain.
    missed: [u32; 2],
    /// Domains that have halted (fail-stop) but are not yet detected.
    crashed: [bool; 2],
    /// Domains declared dead by the detector.
    dead: [bool; 2],
    /// Heartbeats observed per domain (diagnostics).
    beats: [u64; 2],
}

impl Watchdog {
    /// A disarmed watchdog.
    #[must_use]
    pub fn new() -> Self {
        Watchdog::default()
    }

    /// Arms the watchdog with a missed-beat threshold (0 is clamped
    /// to 1: a domain can never be declared dead for free).
    pub fn arm(&mut self, threshold: u32) {
        self.enabled = true;
        self.threshold = threshold.max(1);
    }

    /// Whether the watchdog is armed.
    #[must_use]
    pub fn is_armed(&self) -> bool {
        self.enabled
    }

    /// Marks a domain as halted (the injected fail-stop). Detection
    /// still takes `threshold` silent steps.
    pub fn mark_crashed(&mut self, domain: DomainId) {
        self.crashed[domain.index()] = true;
    }

    /// Whether the domain has halted (crashed or already declared dead).
    #[must_use]
    pub fn is_halted(&self, domain: DomainId) -> bool {
        self.crashed[domain.index()] || self.dead[domain.index()]
    }

    /// Heartbeats observed from `domain`.
    #[must_use]
    pub fn beats(&self, domain: DomainId) -> u64 {
        self.beats[domain.index()]
    }

    /// Consecutive missed beats for `domain`.
    #[must_use]
    pub fn missed(&self, domain: DomainId) -> u32 {
        self.missed[domain.index()]
    }

    /// Records one heartbeat round: `beat[d]` says whether domain `d`
    /// beaconed this step. Returns the domain newly crossing the
    /// missed-beat threshold, if any.
    pub fn observe(&mut self, beat: [bool; 2]) -> Option<(DomainId, u32)> {
        if !self.enabled {
            return None;
        }
        for d in DomainId::ALL {
            let i = d.index();
            if self.dead[i] {
                continue;
            }
            if beat[i] {
                self.beats[i] += 1;
                self.missed[i] = 0;
            } else {
                self.missed[i] += 1;
                if self.missed[i] >= self.threshold {
                    self.dead[i] = true;
                    return Some((d, self.missed[i]));
                }
            }
        }
        None
    }

    /// Clears crash/death flags after a successful recovery (restart
    /// from checkpoint); the armed state and threshold are kept.
    pub fn reset_after_recovery(&mut self) {
        self.missed = [0, 0];
        self.crashed = [false, false];
        self.dead = [false, false];
    }

    /// Serializes the watchdog into a checkpoint section.
    pub fn save_state(&self, e: &mut stramash_sim::checkpoint::Encoder) {
        e.tag(0x5744_4753); // "WDGS"
        e.bool(self.enabled);
        e.u32(self.threshold);
        for i in 0..2 {
            e.u32(self.missed[i]);
            e.bool(self.crashed[i]);
            e.bool(self.dead[i]);
            e.u64(self.beats[i]);
        }
    }

    /// Restores state written by [`Watchdog::save_state`].
    ///
    /// # Errors
    ///
    /// Decoding errors.
    pub fn load_state(
        &mut self,
        d: &mut stramash_sim::checkpoint::Decoder<'_>,
    ) -> Result<(), stramash_sim::checkpoint::CheckpointError> {
        d.tag(0x5744_4753)?;
        self.enabled = d.bool()?;
        self.threshold = d.u32()?;
        for i in 0..2 {
            self.missed[i] = d.u32()?;
            self.crashed[i] = d.bool()?;
            self.dead[i] = d.bool()?;
            self.beats[i] = d.u64()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_watchdog_is_inert() {
        let mut w = Watchdog::new();
        assert!(!w.is_armed());
        assert_eq!(w.observe([false, false]), None);
        assert!(!w.dead[DomainId::ARM.index()]);
    }

    #[test]
    fn detects_after_threshold_misses() {
        let mut w = Watchdog::new();
        w.arm(3);
        w.mark_crashed(DomainId::ARM);
        assert!(w.is_halted(DomainId::ARM));
        assert!(!w.dead[DomainId::ARM.index()], "halt is silent until detected");
        assert_eq!(w.observe([true, false]), None);
        assert_eq!(w.observe([true, false]), None);
        assert_eq!(w.observe([true, false]), Some((DomainId::ARM, 3)));
        assert!(w.dead[DomainId::ARM.index()]);
        assert!(!w.dead[DomainId::X86.index()]);
        // A dead domain is not re-declared.
        assert_eq!(w.observe([true, false]), None);
        assert_eq!(w.beats(DomainId::X86), 4);
    }

    #[test]
    fn beat_resets_miss_counter() {
        let mut w = Watchdog::new();
        w.arm(2);
        assert_eq!(w.observe([true, false]), None);
        assert_eq!(w.missed(DomainId::ARM), 1);
        assert_eq!(w.observe([true, true]), None);
        assert_eq!(w.missed(DomainId::ARM), 0, "a beat clears the run of misses");
    }

    #[test]
    fn recovery_reset_keeps_arming() {
        let mut w = Watchdog::new();
        w.arm(1);
        w.mark_crashed(DomainId::X86);
        assert_eq!(w.observe([false, true]), Some((DomainId::X86, 1)));
        w.reset_after_recovery();
        assert!(w.is_armed());
        assert!(!w.is_halted(DomainId::X86));
        assert!(!w.dead[DomainId::X86.index()]);
    }

    #[test]
    fn state_roundtrip() {
        let mut w = Watchdog::new();
        w.arm(3);
        w.observe([true, false]);
        w.observe([true, false]);
        let mut e = stramash_sim::checkpoint::Encoder::new();
        w.save_state(&mut e);
        let bytes = e.into_bytes();
        let mut back = Watchdog::new();
        back.load_state(&mut stramash_sim::checkpoint::Decoder::new(&bytes)).unwrap();
        assert_eq!(back.missed(DomainId::ARM), 2);
        assert_eq!(back.beats(DomainId::X86), 2);
        assert!(back.is_armed());
    }
}
