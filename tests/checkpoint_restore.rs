//! Checkpoint/restore + crash-recovery acceptance tests.
//!
//! The contract pinned here, on the same fixed workload family as
//! `tests/golden_stats.rs`:
//!
//! 1. For all four [`SystemKind`]s, checkpoint → restore into a *fresh*
//!    machine → resume produces the same fingerprint (runtime, cache
//!    levels, TLB counters, message totals, KV checksum) **and** the
//!    identical trace event stream as the uninterrupted run. A restored
//!    system is bit-identical going forward, not merely "close".
//! 2. A mid-run `DomainCrash` detected by the kernel watchdog and
//!    recovered by restart-from-checkpoint completes the NPB IS and the
//!    10K-request KV workloads with byte-identical results to the
//!    crash-free baseline.
//! 3. Checkpoint artifacts are self-validating: a corrupted byte or a
//!    kind mismatch fails the typed decode, never a panic or a silently
//!    wrong machine.

#![deny(unsafe_code)]

use stramash_repro::kernel::system::OsSystem;
use stramash_repro::prelude::*;
use stramash_repro::sim::trace::{shared_tracer, TraceEvent};
use stramash_repro::workloads::kvstore::{run_kv, KvOp};
use stramash_repro::workloads::npb::{run_npb, Class, NpbKind};
use stramash_repro::workloads::recovery::{run_is_recovered, run_kv_recovered, RecoveryConfig};
use stramash_repro::workloads::target::{SystemKind, TargetSystem};

/// Lossless ring for the resumed segment of the fixed workload.
const RING_CAPACITY: usize = 1 << 20;

/// Everything the resumed run is allowed to influence, captured exactly
/// (the `golden_stats.rs` fingerprint shape).
#[derive(Debug, Clone, PartialEq, Eq)]
struct Fingerprint {
    runtime: u64,
    messages: u64,
    kv_checksum: u64,
    levels: [[u64; 9]; 2],
    tlb: [[u64; 2]; 2],
}

fn capture(sys: &TargetSystem, kv_checksum: u64) -> Fingerprint {
    let levels = [DomainId::X86, DomainId::ARM].map(|d| {
        let s = sys.base().mem.stats(d);
        [
            s.l1i.accesses,
            s.l1i.hits,
            s.l1d.accesses,
            s.l1d.hits,
            s.l2.accesses,
            s.l2.hits,
            s.l3.accesses,
            s.l3.hits,
            s.mem_accesses,
        ]
    });
    let tlb = [DomainId::X86, DomainId::ARM].map(|d| {
        let s = sys.base().mem.stats(d);
        [s.tlb_hits, s.tlb_misses]
    });
    Fingerprint {
        runtime: sys.runtime().raw(),
        messages: sys.base().msg.counters().total(),
        kv_checksum,
        levels,
        tlb,
    }
}

/// Runs the NPB IS prefix and returns the system plus its checkpoint
/// artifact — the fork point both branches resume from.
fn prefix(kind: SystemKind) -> (TargetSystem, Vec<u8>) {
    let mut sys = TargetSystem::build(kind, HardwareModel::Shared).unwrap();
    let pid = sys.spawn(DomainId::X86).unwrap();
    let npb = run_npb(NpbKind::Is, &mut sys, pid, Class::Tiny, kind.migrates()).unwrap();
    assert!(npb.verified, "{kind}: NPB IS failed verification");
    let artifact = sys.checkpoint();
    (sys, artifact)
}

/// Resumes a system with the fixed KV tail under a fresh tracer and
/// captures the fingerprint plus the post-resume event stream.
fn resume(mut sys: TargetSystem, kind: SystemKind) -> (Fingerprint, Vec<TraceEvent>) {
    let tracer = shared_tracer(RING_CAPACITY);
    sys.install_tracer(tracer.clone());
    let kv = run_kv(&mut sys, KvOp::Set, 200, 64).unwrap();
    let fp = capture(&sys, kv.checksum);
    let t = tracer.borrow();
    assert_eq!(t.dropped(), 0, "{kind}: the ring must be lossless for this workload");
    (fp, t.events())
}

#[test]
fn restored_system_is_bit_identical_going_forward() {
    for kind in SystemKind::ALL {
        // Branch A: keep running the original machine.
        let (sys, artifact) = prefix(kind);
        let (want_fp, want_events) = resume(sys, kind);

        // Branch B: restore the artifact into a fresh machine and run
        // the identical tail.
        let (sys, artifact_b) = prefix(kind);
        assert_eq!(artifact, artifact_b, "{kind}: checkpointing must be deterministic");
        let mut fresh = TargetSystem::build_with(kind, sys.config().clone()).unwrap();
        fresh.restore(&artifact).unwrap();
        assert_eq!(
            fresh.base().phases(),
            sys.base().phases(),
            "{kind}: the migration snapshots must survive restore"
        );
        let (got_fp, got_events) = resume(fresh, kind);

        assert_eq!(got_fp, want_fp, "{kind}: restored run drifted from the uninterrupted run");
        assert_eq!(
            got_events.len(),
            want_events.len(),
            "{kind}: restored run emitted a different number of trace events"
        );
        assert_eq!(
            got_events, want_events,
            "{kind}: restored run emitted a different trace stream"
        );
    }
}

#[test]
fn restore_rejects_corruption_and_kind_mismatch() {
    let (_, artifact) = prefix(SystemKind::Stramash);
    let cfg =
        TargetSystem::build(SystemKind::Stramash, HardwareModel::Shared).unwrap().config().clone();

    // Flip one payload byte: the CRC must catch it.
    let mut corrupt = artifact.clone();
    let mid = corrupt.len() / 2;
    corrupt[mid] ^= 0x40;
    let mut sys = TargetSystem::build_with(SystemKind::Stramash, cfg.clone()).unwrap();
    assert!(sys.restore(&corrupt).is_err(), "corrupted artifact must fail the decode");

    // Restoring a Stramash artifact into a Vanilla machine is a typed
    // error, not a half-restored hybrid.
    let mut other = TargetSystem::build_with(SystemKind::Vanilla, cfg).unwrap();
    assert!(other.restore(&artifact).is_err(), "kind mismatch must be rejected");

    // Truncation at any point must also fail cleanly.
    let mut sys = TargetSystem::build_with(
        SystemKind::Stramash,
        TargetSystem::build(SystemKind::Stramash, HardwareModel::Shared).unwrap().config().clone(),
    )
    .unwrap();
    assert!(sys.restore(&artifact[..artifact.len() - 8]).is_err());
}

fn crash_plan(domain: u8, at_tick: u64) -> stramash_repro::sim::FaultPlan {
    let mut p = stramash_repro::sim::FaultPlan::none();
    p.crash = Some((domain, at_tick));
    p
}

#[test]
fn npb_is_completes_byte_identically_after_watchdog_restart() {
    let rc =
        RecoveryConfig { checkpoint_every: 1, watchdog_threshold: 1, ..RecoveryConfig::default() };
    let clean = run_is_recovered(
        TargetSystem::build(SystemKind::Stramash, HardwareModel::Shared).unwrap(),
        Class::Tiny,
        &rc,
    )
    .unwrap();
    assert!(clean.result.verified);

    let mut sys = TargetSystem::build(SystemKind::Stramash, HardwareModel::Shared).unwrap();
    sys.install_fault_plan(crash_plan(1, 1), 0x15_c0de);
    let hurt = run_is_recovered(sys, Class::Tiny, &rc).unwrap();

    assert_eq!(hurt.crashes, 1, "the injected crash must fire");
    assert!(hurt.restarts >= 1, "the watchdog must restart from checkpoint");
    assert!(hurt.result.verified, "recovered IS must still produce a sorted ranking");
    assert_eq!(hurt.result.checksum, clean.result.checksum, "IS checksum drifted after recovery");
    assert_eq!(hurt.result.procedures, clean.result.procedures);
    assert!(hurt.sys.audit().is_empty(), "auditor violations after IS recovery");
}

#[test]
fn kv_10k_requests_complete_byte_identically_after_watchdog_restart() {
    // 10 000 requests, one per supervised step; a periodic checkpoint
    // every 1024 steps and a domain crash mid-stream. The recovered
    // run's response checksum — a fold over every response byte — must
    // equal the crash-free baseline's exactly.
    let rc = RecoveryConfig { checkpoint_every: 1024, ..RecoveryConfig::default() };
    let clean = run_kv_recovered(
        TargetSystem::build(SystemKind::Stramash, HardwareModel::Shared).unwrap(),
        KvOp::Set,
        10_000,
        64,
        &rc,
    )
    .unwrap();
    assert_eq!(clean.crashes, 0);

    let mut sys = TargetSystem::build(SystemKind::Stramash, HardwareModel::Shared).unwrap();
    sys.install_fault_plan(crash_plan(1, 5_000), 0x1031_c0de);
    let hurt = run_kv_recovered(sys, KvOp::Set, 10_000, 64, &rc).unwrap();

    assert_eq!(hurt.crashes, 1, "the injected crash must fire");
    assert_eq!(hurt.restarts, 1, "the watchdog must restart from checkpoint exactly once");
    assert_eq!(hurt.result.requests, clean.result.requests);
    assert_eq!(
        hurt.result.checksum, clean.result.checksum,
        "KV responses drifted after watchdog recovery"
    );
    assert!(hurt.sys.audit().is_empty(), "auditor violations after KV recovery");
}
