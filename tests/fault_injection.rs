//! Deterministic fault injection, end to end: workloads run under a
//! seeded fault schedule must produce *byte-identical functional
//! results* to a fault-free run — only the cycle accounting may differ
//! — every fault the injector fires must be counted exactly once in
//! the per-domain `DomainStats`, the invariant auditors must stay
//! silent, and the same seed must replay the identical fault sequence.

#![deny(unsafe_code)]

use stramash_repro::kernel::system::OsSystem;
use stramash_repro::kernel::vma::VmaProt;
use stramash_repro::prelude::*;
use stramash_repro::sim::{FaultKind, FaultPlan};
use stramash_repro::workloads::kvstore::{run_kv, KvOp};
use stramash_repro::workloads::npb::{run_npb, Class, NpbKind};
use stramash_repro::workloads::recovery::{run_kv_recovered, RecoveryConfig, RecoveryPolicy};
use stramash_repro::workloads::target::{SystemKind, TargetSystem};

/// The ISSUE acceptance schedule: ≥1 % message drop, ≥0.1 % IPI loss,
/// and one forced global-allocator exhaustion. The drop rate is set
/// well above the 1 % floor so the schedule fires even on short runs
/// (NPB IS Tiny exchanges only a few dozen messages).
fn acceptance_plan() -> FaultPlan {
    FaultPlan::none().with_msg_drop(0.08).with_ipi_loss(0.002).with_galloc_exhaust_at(3)
}

const SEED: u64 = 0xfa57_135d;

/// Both domains' fault counters, summed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FaultTotals {
    injected: u64,
    retried: u64,
    recovered: u64,
    fatal: u64,
}

/// Checks the one fault ledger: every fault the injector fired is
/// counted once, in some domain's `DomainStats`, and none was fatal.
/// Returns the summed counters.
fn assert_ledger(sys: &TargetSystem, ctx: &str) -> FaultTotals {
    let [x86, arm] = DomainId::ALL.map(|d| *sys.base().mem.stats(d));
    let totals = FaultTotals {
        injected: x86.faults_injected + arm.faults_injected,
        retried: x86.faults_retried + arm.faults_retried,
        recovered: x86.faults_recovered + arm.faults_recovered,
        fatal: x86.faults_fatal + arm.faults_fatal,
    };
    let fired = sys.fault_injector().unwrap().borrow().log().len() as u64;
    assert_eq!(totals.injected, fired, "{ctx}: Σ faults_injected must equal the injector log");
    assert_eq!(totals.fatal, 0, "{ctx}: every injected fault must be survivable");
    totals
}

#[test]
fn each_fired_fault_is_counted_once_in_domain_stats() {
    // The acceptance plan on all four designs.
    for kind in SystemKind::ALL {
        let mut sys = TargetSystem::build(kind, HardwareModel::Shared).unwrap();
        sys.install_fault_plan(acceptance_plan(), SEED);
        let pid = sys.spawn(DomainId::X86).unwrap();
        run_npb(NpbKind::Is, &mut sys, pid, Class::Tiny, kind.migrates()).unwrap();
        assert_ledger(&sys, &format!("{kind} IS"));
    }

    // A watchdog crash under the degrade policy stays in the log (a
    // restart rewinds log and counters together), so it must be
    // counted too: in the crashed domain.
    let mut plan = acceptance_plan();
    plan.crash = Some((1, 100));
    let mut sys = TargetSystem::build(SystemKind::Stramash, HardwareModel::Shared).unwrap();
    sys.install_fault_plan(plan, SEED);
    let rc = RecoveryConfig { policy: RecoveryPolicy::Degrade, ..RecoveryConfig::default() };
    let out = run_kv_recovered(sys, KvOp::Set, 300, 64, &rc).unwrap();
    assert_eq!(out.degraded, Some(DomainId::ARM));
    let log = out.sys.fault_injector().unwrap().borrow().log().to_vec();
    assert_eq!(log.iter().filter(|e| e.kind == FaultKind::DomainCrash).count(), 1);
    assert_ledger(&out.sys, "degraded KV");

    // A Stramash futex ping-pong under IPI loss: every wake is one
    // cross-ISA IPI, and each lost delivery is re-raised by the fabric.
    let mut sys = TargetSystem::build(SystemKind::Stramash, HardwareModel::Shared).unwrap();
    sys.install_fault_plan(FaultPlan::none().with_ipi_loss(0.3), SEED);
    let pid = sys.spawn(DomainId::X86).unwrap();
    let word = sys.mmap(pid, 4096, VmaProt::rw()).unwrap();
    sys.store_u64(pid, word, 0).unwrap();
    for i in 0..100 {
        let (owner, peer) = if i % 2 == 0 {
            (DomainId::X86, DomainId::ARM)
        } else {
            (DomainId::ARM, DomainId::X86)
        };
        sys.futex_lock(pid, owner, word).unwrap();
        sys.futex_lock(pid, peer, word).unwrap(); // contended: queues
        sys.futex_unlock(pid, owner, word).unwrap(); // one wake IPI
    }
    assert_eq!(sys.stramash_counters().unwrap().futex_wake_ipis, 100);
    let totals = assert_ledger(&sys, "futex ping-pong");
    assert!(totals.injected > 0, "30% IPI loss over 100 wakes must fire");
    assert_eq!(totals.retried, totals.injected, "each lost IPI is re-raised once");
}

#[test]
fn npb_is_functional_results_survive_fault_schedule() {
    for kind in [SystemKind::PopcornShm, SystemKind::Stramash] {
        let mut clean = TargetSystem::build(kind, HardwareModel::Shared).unwrap();
        let pid = clean.spawn(DomainId::X86).unwrap();
        let want = run_npb(NpbKind::Is, &mut clean, pid, Class::Tiny, true).unwrap();
        assert!(want.verified);

        let mut faulty = TargetSystem::build(kind, HardwareModel::Shared).unwrap();
        faulty.install_fault_plan(acceptance_plan(), SEED);
        let pid = faulty.spawn(DomainId::X86).unwrap();
        let got = run_npb(NpbKind::Is, &mut faulty, pid, Class::Tiny, true).unwrap();

        assert_eq!(got, want, "{kind}: faults changed the functional outcome");
        let totals = assert_ledger(&faulty, &kind.to_string());
        assert!(totals.injected > 0, "{kind}: the schedule must actually fire");
        let violations = faulty.audit();
        assert!(violations.is_empty(), "{kind}: {violations:?}");
    }
}

#[test]
fn kv_store_10k_requests_identical_under_fault_schedule() {
    let mut clean = TargetSystem::build(SystemKind::Stramash, HardwareModel::Shared).unwrap();
    let want = run_kv(&mut clean, KvOp::Set, 10_000, 64).unwrap();

    let mut faulty = TargetSystem::build(SystemKind::Stramash, HardwareModel::Shared).unwrap();
    faulty.install_fault_plan(acceptance_plan(), SEED);
    let got = run_kv(&mut faulty, KvOp::Set, 10_000, 64).unwrap();

    assert_eq!(got.checksum, want.checksum, "faults corrupted the stored values");
    assert_eq!(got.requests, want.requests);

    // Every recovery is visible: the injector fired, the messaging
    // layer retransmitted, and nothing was fatal.
    let totals = assert_ledger(&faulty, "KV");
    assert!(totals.injected > 0);
    assert!(totals.recovered > 0, "recoveries must surface in DomainStats");
    assert!(faulty.base().msg.counters().retransmits() > 0);
    let violations = faulty.audit();
    assert!(violations.is_empty(), "{violations:?}");
}

#[test]
fn kv_responses_identical_after_mid_stream_domain_crash() {
    // The fail-stop tier of the failure model, layered on top of the
    // transient acceptance schedule: message drops and IPI loss keep
    // firing *and* one domain dies outright mid-stream. The kernel
    // watchdog must detect the silence, restart from the last periodic
    // checkpoint and replay — and every KV response byte must come out
    // identical to the crash-free baseline.
    let rc = RecoveryConfig { checkpoint_every: 64, ..RecoveryConfig::default() };
    let clean = run_kv_recovered(
        TargetSystem::build(SystemKind::Stramash, HardwareModel::Shared).unwrap(),
        KvOp::Set,
        500,
        64,
        &rc,
    )
    .unwrap();
    assert_eq!(clean.crashes, 0);

    let mut plan = acceptance_plan();
    plan.crash = Some((1, 200)); // ARM dies 200 supervised ticks in
    let mut sys = TargetSystem::build(SystemKind::Stramash, HardwareModel::Shared).unwrap();
    sys.install_fault_plan(plan, SEED);
    let hurt = run_kv_recovered(sys, KvOp::Set, 500, 64, &rc).unwrap();

    assert_eq!(hurt.crashes, 1, "the domain crash must fire");
    assert_eq!(hurt.restarts, 1, "the watchdog must restart from checkpoint");
    assert_eq!(hurt.result.requests, clean.result.requests);
    assert_eq!(
        hurt.result.checksum, clean.result.checksum,
        "KV responses must be byte-identical after watchdog recovery"
    );
    let totals = assert_ledger(&hurt.sys, "restarted KV");
    assert!(totals.injected > 0, "the transient schedule must keep firing alongside the crash");
    let violations = hurt.sys.audit();
    assert!(violations.is_empty(), "{violations:?}");
}

#[test]
fn same_seed_replays_identical_fault_sequence() {
    let run = || {
        let mut sys = TargetSystem::build(SystemKind::Stramash, HardwareModel::Shared).unwrap();
        sys.install_fault_plan(
            FaultPlan::none().with_msg_drop(0.1).with_ipi_loss(0.05).with_lock_contention(0.2),
            SEED,
        );
        let pid = sys.spawn(DomainId::X86).unwrap();
        let va = sys.mmap(pid, 64 << 10, VmaProt::rw()).unwrap();
        for i in 0..16u64 {
            sys.store_u64(pid, va.offset(i * 4096), i).unwrap();
        }
        sys.migrate(pid, DomainId::ARM).unwrap();
        for i in 0..16u64 {
            assert_eq!(sys.load_u64(pid, va.offset(i * 4096)).unwrap(), i);
        }
        sys.migrate(pid, DomainId::X86).unwrap();
        let log = sys.fault_injector().unwrap().borrow().log().to_vec();
        (log, assert_ledger(&sys, "replay"))
    };
    let (log_a, totals_a) = run();
    let (log_b, totals_b) = run();
    assert!(!log_a.is_empty(), "schedule must fire at least once");
    assert_eq!(log_a, log_b, "same seed must replay the identical fault sequence");
    assert_eq!(totals_a, totals_b);
}

#[test]
fn corruption_and_delay_are_recovered_transparently() {
    let mut sys = TargetSystem::build(SystemKind::PopcornShm, HardwareModel::Shared).unwrap();
    sys.install_fault_plan(
        FaultPlan::none().with_msg_corrupt(0.15).with_msg_delay(0.2, 5_000).with_ack_drop(0.1),
        SEED,
    );
    let pid = sys.spawn(DomainId::X86).unwrap();
    let va = sys.mmap(pid, 32 << 10, VmaProt::rw()).unwrap();
    sys.migrate(pid, DomainId::ARM).unwrap();
    for i in 0..8u64 {
        sys.store_u64(pid, va.offset(i * 4096), 0xc0de + i).unwrap();
    }
    sys.migrate(pid, DomainId::X86).unwrap();
    for i in 0..8u64 {
        assert_eq!(sys.load_u64(pid, va.offset(i * 4096)).unwrap(), 0xc0de + i);
    }
    let c = sys.base().msg.counters();
    assert!(c.retransmits() > 0, "corrupt/dropped-ack messages must be retransmitted");
    assert_ledger(&sys, "corrupt/delay/ack");
    assert!(sys.audit().is_empty());
}

#[test]
fn fault_free_plan_changes_nothing() {
    // Installing a no-op plan must not consume RNG or change a single
    // cycle of the cost model.
    let mut plain = TargetSystem::build(SystemKind::Stramash, HardwareModel::Shared).unwrap();
    let pid = plain.spawn(DomainId::X86).unwrap();
    let r_plain = run_npb(NpbKind::Is, &mut plain, pid, Class::Tiny, true).unwrap();
    let t_plain = plain.runtime();

    let mut noop = TargetSystem::build(SystemKind::Stramash, HardwareModel::Shared).unwrap();
    noop.install_fault_plan(FaultPlan::none(), SEED);
    let pid = noop.spawn(DomainId::X86).unwrap();
    let r_noop = run_npb(NpbKind::Is, &mut noop, pid, Class::Tiny, true).unwrap();

    assert_eq!(r_plain, r_noop);
    assert_eq!(t_plain, noop.runtime(), "a no-op plan must not change timing");
    assert!(noop.fault_injector().unwrap().borrow().log().is_empty());
}
