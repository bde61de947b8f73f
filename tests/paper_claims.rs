//! Fast, assertive reproductions of the paper's headline claims
//! (the benchmark harness regenerates the full tables; these run at
//! test-friendly sizes and check the *shape* of each result).

#![deny(unsafe_code)]

use stramash_repro::kernel::system::OsSystem;
use stramash_repro::kernel::KernelCounters;
use stramash_repro::prelude::*;
use stramash_repro::workloads::driver::{run_benchmark, Configuration};
use stramash_repro::workloads::micro::{
    futex_pingpong, granularity, memory_access, AccessScenario,
};
use stramash_repro::workloads::npb::{run_npb, Class, NpbKind};
use stramash_repro::workloads::target::{SystemKind, TargetSystem};

fn config(kind: SystemKind, model: HardwareModel) -> Configuration {
    Configuration { kind, model }
}

/// One kernel counter summed over both kernels of `sys`.
fn kernels_total(sys: &TargetSystem, counter: fn(&KernelCounters) -> u64) -> u64 {
    sys.base().kernels.iter().map(|k| counter(&k.counters)).sum()
}

/// Stramash's zero-message remote faults (§6.4).
fn direct_remote_faults(sys: &TargetSystem) -> u64 {
    sys.stramash_counters().expect("a Stramash system").direct_remote_faults
}

/// §1 "Key Results": the fused kernel beats the multiple-kernel OS on
/// the write-intensive NPB benchmark, and shared-memory messaging beats
/// TCP.
#[test]
fn headline_is_speedup_ordering() {
    let vanilla =
        run_benchmark(config(SystemKind::Vanilla, HardwareModel::Shared), NpbKind::Is, Class::Tiny)
            .unwrap();
    let tcp = run_benchmark(
        config(SystemKind::PopcornTcp, HardwareModel::Shared),
        NpbKind::Is,
        Class::Tiny,
    )
    .unwrap();
    let shm = run_benchmark(
        config(SystemKind::PopcornShm, HardwareModel::Shared),
        NpbKind::Is,
        Class::Tiny,
    )
    .unwrap();
    let stra = run_benchmark(
        config(SystemKind::Stramash, HardwareModel::Shared),
        NpbKind::Is,
        Class::Tiny,
    )
    .unwrap();
    assert!(vanilla.runtime < stra.runtime, "vanilla is the floor");
    assert!(stra.runtime < shm.runtime, "fused beats multiple-kernel");
    assert!(shm.runtime < tcp.runtime, "SHM messaging beats TCP");
}

/// §9.2.1: Stramash Fully-Shared "closely matches that of the Vanilla
/// case, as it effectively eliminates remote memory access and
/// messaging overheads".
#[test]
fn fully_shared_stramash_approaches_vanilla() {
    // Run at Small class: at Tiny sizes the fixed migration handshakes
    // are not amortised and dominate the comparison.
    let vanilla = run_benchmark(
        config(SystemKind::Vanilla, HardwareModel::Shared),
        NpbKind::Mg,
        Class::Small,
    )
    .unwrap();
    let stra = run_benchmark(
        config(SystemKind::Stramash, HardwareModel::FullyShared),
        NpbKind::Mg,
        Class::Small,
    )
    .unwrap();
    let ratio = stra.runtime.raw() as f64 / vanilla.runtime.raw() as f64;
    assert!(
        (0.8..1.25).contains(&ratio),
        "Fully-Shared Stramash should track Vanilla, got {ratio:.2}x"
    );
}

/// Table 3's shape: the fused design reduces inter-kernel messages by
/// an order of magnitude or more even at tiny problem sizes, because
/// Popcorn replicates pages where Stramash maps the origin's frame with
/// a direct remote fault.
#[test]
fn table3_message_reduction_shape() {
    let run = |sys_kind, kind| {
        let mut sys = TargetSystem::build(sys_kind, HardwareModel::Shared).unwrap();
        let pid = sys.spawn(DomainId::X86).unwrap();
        assert!(run_npb(kind, &mut sys, pid, Class::Tiny, true).unwrap().verified);
        let replicated = sys.replicated_pages(pid);
        (sys, replicated)
    };
    for kind in NpbKind::ALL {
        let (p, p_replicated) = run(SystemKind::PopcornShm, kind);
        let (s, s_replicated) = run(SystemKind::Stramash, kind);
        let (p_msgs, s_msgs) = (p.message_total(), s.message_total());
        assert!(s_msgs * 2 <= p_msgs, "{kind}: Stramash {s_msgs} msgs vs Popcorn {p_msgs}");
        assert!(s_replicated <= p_replicated);
        assert!(p_replicated > 0, "{kind}: Popcorn must replicate pages");
        assert!(direct_remote_faults(&s) > 0, "{kind}: Stramash must take direct remote faults");
    }
}

/// §9.2.4: on the cold remote pass, direct cache-coherent access beats
/// DSM replication; on the warm pass at cache-exceeding sizes the
/// trade-off reverses.
#[test]
fn memory_access_tradeoff() {
    const BYTES: u64 = 8 << 20; // exceeds the 4 MB L3 → the paper's regime

    // Each design must reach the remote data through its own mechanism:
    // DSM replication on Popcorn, direct remote faults (and no copies)
    // on Stramash.
    let assert_mechanisms = |pop: &TargetSystem, stra: &TargetSystem, pass: &str| {
        assert!(kernels_total(pop, |c| c.replicated_pages) > 0, "{pass}: Popcorn must replicate");
        assert!(direct_remote_faults(stra) > 0, "{pass}: Stramash must fault remotely");
        assert_eq!(
            kernels_total(stra, |c| c.replicated_pages),
            0,
            "{pass}: Stramash must copy no page"
        );
    };
    let mut pop = TargetSystem::build(SystemKind::PopcornShm, HardwareModel::Shared).unwrap();
    let p_cold = memory_access(&mut pop, AccessScenario::RemoteAccessOrigin, BYTES).unwrap();
    let mut stra = TargetSystem::build(SystemKind::Stramash, HardwareModel::Shared).unwrap();
    let s_cold = memory_access(&mut stra, AccessScenario::RemoteAccessOrigin, BYTES).unwrap();
    assert!(p_cold.measured > s_cold.measured, "cold: Stramash must win");
    assert_mechanisms(&pop, &stra, "cold");

    let mut pop = TargetSystem::build(SystemKind::PopcornShm, HardwareModel::Shared).unwrap();
    let p_warm = memory_access(&mut pop, AccessScenario::RemoteAccessOriginNoCold, BYTES).unwrap();
    let mut stra = TargetSystem::build(SystemKind::Stramash, HardwareModel::Shared).unwrap();
    let s_warm = memory_access(&mut stra, AccessScenario::RemoteAccessOriginNoCold, BYTES).unwrap();
    assert!(
        p_warm.measured < s_warm.measured,
        "warm at cache-exceeding size: replication must win (the §9.2.4 takeaway)"
    );
    assert_mechanisms(&pop, &stra, "warm");
}

/// §9.2.5: DSM's overhead collapses from enormous at one cacheline to
/// ≈ 2× at full-page granularity.
#[test]
fn granularity_gap_collapses() {
    const ROUNDS: u64 = 20;
    let ratio_at = |lines: u64| {
        let mut pop = TargetSystem::build(SystemKind::PopcornShm, HardwareModel::Shared).unwrap();
        let p = granularity(&mut pop, lines, ROUNDS).unwrap();
        let mut stra = TargetSystem::build(SystemKind::Stramash, HardwareModel::Shared).unwrap();
        let s = granularity(&mut stra, lines, ROUNDS).unwrap();
        // Every producer round invalidates the consumer's DSM replica,
        // which the consumer then replicates again; Stramash shares the
        // one frame after a direct remote fault.
        let invalidations = kernels_total(&pop, |c| c.dsm_invalidations);
        assert_eq!(invalidations, ROUNDS, "{lines} lines: DSM invalidations");
        assert!(
            kernels_total(&pop, |c| c.replicated_pages) > 0,
            "{lines} lines: Popcorn must replicate"
        );
        assert!(direct_remote_faults(&stra) > 0, "{lines} lines: Stramash faults remotely");
        assert_eq!(
            kernels_total(&stra, |c| c.replicated_pages),
            0,
            "{lines} lines: Stramash must copy no page"
        );
        p.cycles_per_round / s.cycles_per_round
    };
    let one = ratio_at(1);
    let page = ratio_at(64);
    assert!(one > 20.0, "one-line DSM overhead must be dramatic: {one:.0}x");
    assert!(page > 1.0 && page < 8.0, "full-page overhead must be small: {page:.1}x");
}

/// §9.2.6: the fused futex needs one IPI per cross-kernel wake; the
/// baseline pays a full message protocol per remote operation.
#[test]
fn futex_optimization_claim() {
    let mut pop = TargetSystem::build(SystemKind::PopcornShm, HardwareModel::Shared).unwrap();
    let p = futex_pingpong(&mut pop, 64).unwrap();
    let mut stra = TargetSystem::build(SystemKind::Stramash, HardwareModel::Shared).unwrap();
    let s = futex_pingpong(&mut stra, 64).unwrap();
    assert!(
        p.total.raw() as f64 / s.total.raw() as f64 > 3.0,
        "fused futex must be several times faster: {} vs {}",
        p.total,
        s.total
    );
    // And the per-loop cost stays linear for both.
    let mut stra2 = TargetSystem::build(SystemKind::Stramash, HardwareModel::Shared).unwrap();
    let s2 = futex_pingpong(&mut stra2, 128).unwrap();
    let growth = s2.total.raw() as f64 / s.total.raw() as f64;
    assert!((1.6..2.4).contains(&growth), "futex cost must scale linearly, got {growth:.2}");
}

/// §6.5: the platform's cross-ISA locking is sound because both
/// kernels use CAS.
#[test]
fn cross_isa_locking_soundness() {
    let sys = TargetSystem::build(SystemKind::Stramash, HardwareModel::Shared).unwrap();
    let x86 = &sys.base().kernels[0];
    let arm = &sys.base().kernels[1];
    assert!(stramash_repro::isa::atomic::cross_isa_atomics_sound(&x86.atomics, &arm.atomics));
}
