//! Microbenchmarks of §9.2.4 – §9.2.6.
//!
//! * [`memory_access`] — the Figure 11 memory-bound microbenchmark:
//!   10 MB allocated on one kernel, sequentially accessed from either
//!   side, cold and warm.
//! * [`granularity`] — the Figure 12 software-vs-hardware consistency
//!   experiment: a producer/consumer page ping at 1..64-cacheline
//!   granularity.
//! * [`futex_pingpong`] — the Figure 13 futex experiment: the origin
//!   continuously locks while the remote continuously unlocks.

use crate::target::TargetSystem;
use stramash_kernel::addr::PAGE_SIZE;
use stramash_kernel::system::{OsError, OsSystem};
use stramash_kernel::vma::VmaProt;
use stramash_sim::{Cycles, DomainId};

/// The five Figure 11 access scenarios.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessScenario {
    /// The origin accesses its own memory (baseline).
    Vanilla,
    /// The remote kernel accesses origin-allocated memory, cold.
    RemoteAccessOrigin,
    /// Same, but the remote has accessed it before ("No Cold").
    RemoteAccessOriginNoCold,
    /// The origin accesses remote-allocated memory, cold.
    OriginAccessRemote,
    /// Same, warm.
    OriginAccessRemoteNoCold,
}

impl AccessScenario {
    /// All five scenarios in the figure's order.
    pub const ALL: [AccessScenario; 5] = [
        AccessScenario::Vanilla,
        AccessScenario::RemoteAccessOrigin,
        AccessScenario::RemoteAccessOriginNoCold,
        AccessScenario::OriginAccessRemote,
        AccessScenario::OriginAccessRemoteNoCold,
    ];

    /// The figure's label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            AccessScenario::Vanilla => "Vanilla",
            AccessScenario::RemoteAccessOrigin => "RaO",
            AccessScenario::RemoteAccessOriginNoCold => "RaO-NC",
            AccessScenario::OriginAccessRemote => "OaR",
            AccessScenario::OriginAccessRemoteNoCold => "OaR-NC",
        }
    }
}

/// Result of one Figure 11 scenario.
#[derive(Debug, Clone, Copy)]
pub struct AccessResult {
    /// Cycles of the measured sequential pass.
    pub measured: Cycles,
    /// Bytes accessed.
    pub bytes: u64,
}

/// Runs one Figure 11 scenario on `sys` with a `bytes`-sized buffer
/// (the paper uses 10 MB). Returns the measured pass cost.
///
/// # Errors
///
/// OS errors from allocation or access.
pub fn memory_access(
    sys: &mut TargetSystem,
    scenario: AccessScenario,
    bytes: u64,
) -> Result<AccessResult, OsError> {
    let pid = sys.spawn(DomainId::X86)?;
    let words = bytes / 8;
    let (alloc_domain, access_domain) = match scenario {
        AccessScenario::Vanilla => (DomainId::X86, DomainId::X86),
        AccessScenario::RemoteAccessOrigin | AccessScenario::RemoteAccessOriginNoCold => {
            (DomainId::X86, DomainId::ARM)
        }
        AccessScenario::OriginAccessRemote | AccessScenario::OriginAccessRemoteNoCold => {
            (DomainId::ARM, DomainId::X86)
        }
    };
    let warm = matches!(
        scenario,
        AccessScenario::RemoteAccessOriginNoCold | AccessScenario::OriginAccessRemoteNoCold
    );

    let buf = sys.mmap(pid, bytes, VmaProt::rw())?;
    // Populate on the allocating kernel (a thread of the process pinned
    // there), so the physical pages land in that kernel's memory.
    sys.as_thread_on(pid, alloc_domain, |s| {
        for w in 0..words {
            s.store_u64(pid, buf.offset(w * 8), w)?;
        }
        Ok(())
    })?;

    if warm {
        // The accessor touches everything once beforehand (replicating
        // under DSM / warming caches under Stramash).
        sys.as_thread_on(pid, access_domain, |s| {
            for w in 0..words {
                s.load_u64(pid, buf.offset(w * 8))?;
            }
            Ok(())
        })?;
    } else {
        // Cold caches on the accessor side.
        sys.base_mut().mem.flush_caches();
    }

    // Measured pass: sequential reads by the accessing kernel.
    let before = sys.runtime();
    sys.as_thread_on(pid, access_domain, |s| {
        for w in 0..words {
            let v = s.load_u64(pid, buf.offset(w * 8))?;
            debug_assert_eq!(v, w, "data must survive the placement dance");
        }
        Ok(())
    })?;
    Ok(AccessResult { measured: sys.runtime() - before, bytes })
}

/// Result of one Figure 12 granularity point.
#[derive(Debug, Clone, Copy)]
pub struct GranularityResult {
    /// Cache lines accessed per round.
    pub lines: u64,
    /// Average cycles per producer/consumer round.
    pub cycles_per_round: f64,
}

/// The Figure 12 experiment: for `lines` ∈ 1..=64, a writer thread on
/// the origin updates `lines` cache lines of a page and a reader thread
/// on the remote kernel consumes them, for `rounds` rounds. Under DSM
/// the whole 4 KiB page is re-replicated every round; under hardware
/// coherence only the touched lines move.
///
/// # Errors
///
/// OS errors.
pub fn granularity(
    sys: &mut TargetSystem,
    lines: u64,
    rounds: u64,
) -> Result<GranularityResult, OsError> {
    assert!((1..=64).contains(&lines), "1..=64 cache lines per page");
    let pid = sys.spawn(DomainId::X86)?;
    let page = sys.mmap(pid, PAGE_SIZE, VmaProt::rw())?;
    // Fault the page in on the origin, and let the remote see it once.
    sys.store_u64(pid, page, 0)?;
    sys.as_thread_on(pid, DomainId::ARM, |s| s.load_u64(pid, page).map(|_| ()))?;

    let before = sys.runtime();
    for round in 1..=rounds {
        // Producer writes the first `lines` lines.
        sys.as_thread_on(pid, DomainId::X86, |s| {
            for l in 0..lines {
                s.store_u64(pid, page.offset(l * 64), round * 1000 + l)?;
            }
            Ok(())
        })?;
        // Consumer reads them back on the other kernel.
        sys.as_thread_on(pid, DomainId::ARM, |s| {
            for l in 0..lines {
                let v = s.load_u64(pid, page.offset(l * 64))?;
                debug_assert_eq!(v, round * 1000 + l, "consumer must see fresh data");
            }
            Ok(())
        })?;
    }
    let total = (sys.runtime() - before).raw() as f64;
    Ok(GranularityResult { lines, cycles_per_round: total / rounds as f64 })
}

/// Result of the Figure 13 futex experiment.
#[derive(Debug, Clone, Copy)]
pub struct FutexResult {
    /// Lock/unlock loop count.
    pub loops: u64,
    /// Total cycles across both domains.
    pub total: Cycles,
}

/// The Figure 13 experiment: "The origin kernel continuously locks the
/// Futex, while the remote kernel continuously unlocks the same Futex,
/// performing a simple addition in each loop."
///
/// # Errors
///
/// OS errors.
pub fn futex_pingpong(sys: &mut TargetSystem, loops: u64) -> Result<FutexResult, OsError> {
    let pid = sys.spawn(DomainId::X86)?;
    let word = sys.mmap(pid, PAGE_SIZE, VmaProt::rw())?;
    let counter = word.offset(512);
    sys.store_u64(pid, word, 0)?;
    // Make sure both sides have the page mapped before measuring.
    sys.as_thread_on(pid, DomainId::ARM, |s| s.load_u64(pid, word).map(|_| ()))?;

    let before = sys.runtime();
    for _ in 0..loops {
        sys.futex_lock(pid, DomainId::X86, word)?;
        // The "simple addition" — on the shared counter.
        let v = sys.load_u64(pid, counter)?;
        sys.store_u64(pid, counter, v + 1)?;
        sys.base_mut().retire(DomainId::X86, 8);
        sys.futex_unlock(pid, DomainId::ARM, word)?;
        sys.base_mut().retire(DomainId::ARM, 8);
    }
    let total = sys.runtime() - before;
    let counted = sys.load_u64(pid, counter)?;
    debug_assert_eq!(counted, loops, "every loop increments once");
    Ok(FutexResult { loops, total })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::target::SystemKind;
    use stramash_sim::HardwareModel;

    const TEST_BYTES: u64 = 256 << 10; // scaled-down 10 MB

    #[test]
    fn vanilla_is_fastest_scenario() {
        let mut cold = Vec::new();
        for sc in [AccessScenario::Vanilla, AccessScenario::RemoteAccessOrigin] {
            let mut sys = TargetSystem::build(SystemKind::Stramash, HardwareModel::Shared).unwrap();
            let r = memory_access(&mut sys, sc, TEST_BYTES).unwrap();
            cold.push(r.measured.raw());
        }
        assert!(cold[0] < cold[1], "local access must beat remote: {cold:?}");
    }

    #[test]
    fn popcorn_warm_access_is_nearly_local() {
        // §9.2.4: after replication, Popcorn's warm accesses are local
        // and close to vanilla.
        let mut sys = TargetSystem::build(SystemKind::PopcornShm, HardwareModel::Shared).unwrap();
        let vanilla = memory_access(&mut sys, AccessScenario::Vanilla, TEST_BYTES).unwrap();
        let mut sys = TargetSystem::build(SystemKind::PopcornShm, HardwareModel::Shared).unwrap();
        let warm =
            memory_access(&mut sys, AccessScenario::RemoteAccessOriginNoCold, TEST_BYTES).unwrap();
        let ratio = warm.measured.raw() as f64 / vanilla.measured.raw() as f64;
        assert!(ratio < 2.0, "warm DSM access should approach vanilla, got {ratio:.2}×");
    }

    #[test]
    fn stramash_beats_popcorn_on_cold_remote_access() {
        // §9.2.4: Stramash outperforms SHM on the cold remote pass (no
        // page replication machinery).
        let mut pop = TargetSystem::build(SystemKind::PopcornShm, HardwareModel::Shared).unwrap();
        let p = memory_access(&mut pop, AccessScenario::RemoteAccessOrigin, TEST_BYTES).unwrap();
        let mut stra = TargetSystem::build(SystemKind::Stramash, HardwareModel::Shared).unwrap();
        let s = memory_access(&mut stra, AccessScenario::RemoteAccessOrigin, TEST_BYTES).unwrap();
        assert!(p.measured > s.measured, "popcorn {} vs stramash {}", p.measured, s.measured);
    }

    #[test]
    fn granularity_dsm_overhead_shrinks_with_lines() {
        let ratio_at = |lines: u64| {
            let mut pop =
                TargetSystem::build(SystemKind::PopcornShm, HardwareModel::Shared).unwrap();
            let p = granularity(&mut pop, lines, 10).unwrap();
            let mut stra =
                TargetSystem::build(SystemKind::Stramash, HardwareModel::Shared).unwrap();
            let s = granularity(&mut stra, lines, 10).unwrap();
            p.cycles_per_round / s.cycles_per_round
        };
        let one = ratio_at(1);
        let full = ratio_at(64);
        assert!(one > 10.0, "DSM must be far worse at 1 line, got {one:.1}×");
        assert!(full < one / 2.0, "gap must narrow at full-page granularity: {full:.1}×");
        assert!(full > 1.0, "hardware coherence still wins at 64 lines");
    }

    #[test]
    fn futex_optimization_beats_message_protocol() {
        // Figure 13: the fused futex (one IPI per wake) vs the regular
        // origin-managed protocol (messages per op).
        let mut pop = TargetSystem::build(SystemKind::PopcornShm, HardwareModel::Shared).unwrap();
        let p = futex_pingpong(&mut pop, 50).unwrap();
        let mut stra = TargetSystem::build(SystemKind::Stramash, HardwareModel::Shared).unwrap();
        let s = futex_pingpong(&mut stra, 50).unwrap();
        assert!(
            p.total.raw() > 2 * s.total.raw(),
            "popcorn futex {} vs stramash {}",
            p.total,
            s.total
        );
    }
}
