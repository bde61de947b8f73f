//! Deterministic fault injection, end to end: workloads run under a
//! seeded fault schedule must produce *byte-identical functional
//! results* to a fault-free run — only the cycle accounting may differ
//! — every recovery must be visible in the stats counters, the
//! invariant auditors must stay silent, and the same seed must replay
//! the identical fault sequence.

use stramash_repro::kernel::system::OsSystem;
use stramash_repro::kernel::vma::VmaProt;
use stramash_repro::prelude::*;
use stramash_repro::sim::FaultPlan;
use stramash_repro::workloads::kvstore::{run_kv, KvOp};
use stramash_repro::workloads::npb::{run_npb, Class, NpbKind};
use stramash_repro::workloads::recovery::{run_kv_recovered, RecoveryConfig};
use stramash_repro::workloads::target::{SystemKind, TargetSystem};

/// The ISSUE acceptance schedule: ≥1 % message drop, ≥0.1 % IPI loss,
/// and one forced global-allocator exhaustion. The drop rate is set
/// well above the 1 % floor so the schedule fires even on short runs
/// (NPB IS Tiny exchanges only a few dozen messages).
fn acceptance_plan() -> FaultPlan {
    FaultPlan::none().with_msg_drop(0.08).with_ipi_loss(0.002).with_galloc_exhaust_at(3)
}

const SEED: u64 = 0xfa57_135d;

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
        let c = faulty.fault_injector().unwrap().borrow().counters();
        assert!(c.injected > 0, "{kind}: the schedule must actually fire");
        assert_eq!(c.fatal, 0, "{kind}: every injected fault must be survivable");
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
    let c = faulty.fault_injector().unwrap().borrow().counters();
    assert!(c.injected > 0);
    assert!(c.recovered > 0);
    assert_eq!(c.fatal, 0);
    assert!(faulty.base().msg.counters().retransmits() > 0);
    let recovered: u64 = [DomainId::X86, DomainId::ARM]
        .iter()
        .map(|&d| faulty.base().mem.stats(d).faults_recovered)
        .sum();
    assert!(recovered > 0, "recoveries must surface in DomainStats");
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
    let c = hurt.sys.fault_injector().unwrap().borrow().counters();
    assert!(c.injected > 0, "the transient schedule must keep firing alongside the crash");
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
        let inj = sys.fault_injector().unwrap().borrow();
        (inj.log().to_vec(), inj.counters())
    };
    let (log_a, counters_a) = run();
    let (log_b, counters_b) = run();
    assert!(!log_a.is_empty(), "schedule must fire at least once");
    assert_eq!(log_a, log_b, "same seed must replay the identical fault sequence");
    assert_eq!(counters_a, counters_b);
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
