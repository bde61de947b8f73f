//! Cross-crate integration: the three OS designs over the shared
//! substrate must compute identical results while exhibiting their
//! characteristic costs.

#![deny(unsafe_code)]

use stramash_repro::kernel::addr::PAGE_SIZE;
use stramash_repro::kernel::system::OsSystem;
use stramash_repro::kernel::vma::VmaProt;
use stramash_repro::prelude::*;
use stramash_repro::workloads::npb::{run_npb, Class, NpbKind};
use stramash_repro::workloads::target::{SystemKind, TargetSystem};

/// Every NPB kernel computes the same checksum on every OS design and
/// hardware model — OS policy must never change application results.
#[test]
fn npb_results_identical_across_designs_and_models() {
    for kind in NpbKind::ALL {
        let mut reference = None;
        for sys_kind in SystemKind::ALL {
            for model in HardwareModel::ALL {
                // TCP behaves identically across models; run it once.
                if sys_kind == SystemKind::PopcornTcp && model != HardwareModel::Shared {
                    continue;
                }
                let mut sys = TargetSystem::build(sys_kind, model).unwrap();
                let pid = sys.spawn(DomainId::X86).unwrap();
                let out = run_npb(kind, &mut sys, pid, Class::Tiny, sys_kind.migrates()).unwrap();
                assert!(out.verified, "{kind} on {sys_kind}/{model} failed verification");
                let chk = *reference.get_or_insert(out.checksum);
                assert_eq!(
                    out.checksum, chk,
                    "{kind} on {sys_kind}/{model} computed a different result"
                );
            }
        }
    }
}

/// Writes made on one kernel are visible on the other under every
/// design — through DSM on Popcorn, through coherent memory on Stramash.
#[test]
fn cross_kernel_write_visibility() {
    for kind in [SystemKind::PopcornShm, SystemKind::PopcornTcp, SystemKind::Stramash] {
        let mut sys = TargetSystem::build(kind, HardwareModel::Shared).unwrap();
        let pid = sys.spawn(DomainId::X86).unwrap();
        let buf = sys.mmap(pid, 128 << 10, VmaProt::rw()).unwrap();
        for i in 0..32u64 {
            sys.store_u64(pid, buf.offset(i * PAGE_SIZE / 2), i ^ 0xabcd).unwrap();
        }
        sys.migrate(pid, DomainId::ARM).unwrap();
        for i in 0..32u64 {
            assert_eq!(
                sys.load_u64(pid, buf.offset(i * PAGE_SIZE / 2)).unwrap(),
                i ^ 0xabcd,
                "{kind:?}: remote kernel saw stale data"
            );
        }
        // And the reverse direction.
        for i in 0..32u64 {
            sys.store_u64(pid, buf.offset(i * PAGE_SIZE / 2), i + 1000).unwrap();
        }
        sys.migrate(pid, DomainId::X86).unwrap();
        for i in 0..32u64 {
            assert_eq!(sys.load_u64(pid, buf.offset(i * PAGE_SIZE / 2)).unwrap(), i + 1000);
        }
    }
}

/// Stramash's fused fault path sends no messages once the origin chain
/// exists; Popcorn's DSM messages scale with pages touched.
#[test]
fn message_scaling_contrast() {
    let pages = 32u64;
    let count_messages = |kind: SystemKind| {
        let mut sys = TargetSystem::build(kind, HardwareModel::Shared).unwrap();
        let pid = sys.spawn(DomainId::X86).unwrap();
        let buf = sys.mmap(pid, pages * PAGE_SIZE, VmaProt::rw()).unwrap();
        // Origin warms every page (chains + data).
        for p in 0..pages {
            sys.store_u64(pid, buf.offset(p * PAGE_SIZE), p).unwrap();
        }
        sys.migrate(pid, DomainId::ARM).unwrap();
        let before = sys.message_total();
        for p in 0..pages {
            sys.store_u64(pid, buf.offset(p * PAGE_SIZE), p * 2).unwrap();
        }
        sys.message_total() - before
    };
    let popcorn = count_messages(SystemKind::PopcornShm);
    let stramash = count_messages(SystemKind::Stramash);
    assert_eq!(stramash, 0, "fused remote faults must be message-free");
    assert!(popcorn >= pages, "DSM must message per page, got {popcorn}");
}

/// The runtime accounting is conserved: per-domain runtimes are
/// non-decreasing and the total equals their sum.
#[test]
fn runtime_accounting_is_consistent() {
    let mut sys = TargetSystem::build(SystemKind::Stramash, HardwareModel::Shared).unwrap();
    let pid = sys.spawn(DomainId::X86).unwrap();
    let buf = sys.mmap(pid, 64 << 10, VmaProt::rw()).unwrap();
    let mut last = Cycles::ZERO;
    for step in 0..16u64 {
        sys.store_u64(pid, buf.offset(step * 8), step).unwrap();
        if step == 8 {
            sys.migrate(pid, DomainId::ARM).unwrap();
        }
        let now = sys.runtime();
        assert!(now >= last, "runtime must be monotone");
        last = now;
    }
    let base = sys.base();
    let by_domain: u64 = DomainId::ALL.iter().map(|&d| base.timebase.clock(d).cycles().raw()).sum();
    assert_eq!(by_domain, sys.runtime().raw(), "total = x86 runtime + Arm runtime");
}

/// The artifact-style statistics report is populated after a run.
#[test]
fn stats_report_matches_artifact_format() {
    let mut sys = TargetSystem::build(SystemKind::Stramash, HardwareModel::Shared).unwrap();
    let pid = sys.spawn(DomainId::X86).unwrap();
    run_npb(NpbKind::Is, &mut sys, pid, Class::Tiny, true).unwrap();
    sys.base_mut().sync_runtime_stats();
    let report = sys.base().mem.stats(DomainId::X86).report("x86");
    for field in [
        "L1 Cache Hit Rate:",
        "L3 Cache Hit Rate:",
        "IPI:",
        "Local Memory Hits:",
        "Remote Memory Hits:",
        "Remote Shared Memory Hits:",
        "Number of Instructions:",
        "Runtime:",
    ] {
        assert!(report.contains(field), "missing field {field} in:\n{report}");
    }
}

/// Process teardown under Stramash frees each frame exactly once, on
/// the kernel that allocated it (§6.4's recycling discipline).
#[test]
fn stramash_exit_frees_every_frame_once() {
    let cfg = SimConfig::big_pair().with_hw_model(HardwareModel::Shared);
    let mut sys = stramash_repro::fused::StramashSystem::new(cfg).unwrap();
    let pid = sys.spawn(DomainId::X86).unwrap();
    let buf = sys.mmap(pid, 32 * PAGE_SIZE, VmaProt::rw()).unwrap();
    for p in 0..16u64 {
        sys.store_u64(pid, buf.offset(p * PAGE_SIZE), p).unwrap();
    }
    sys.migrate(pid, DomainId::ARM).unwrap();
    for p in 16..32u64 {
        sys.store_u64(pid, buf.offset(p * PAGE_SIZE), p).unwrap();
    }
    let x86_before = sys.base().kernels[0].frames.allocated_frames();
    let arm_before = sys.base().kernels[1].frames.allocated_frames();
    let freed = sys.exit(pid).unwrap();
    assert_eq!(freed.iter().sum::<u64>(), 32, "each user page freed exactly once");
    assert!(freed[0] >= 16, "origin frees its own allocations");
    assert!(freed[1] >= 1, "remote frees its own allocations");
    let x86_after = sys.base().kernels[0].frames.allocated_frames();
    let arm_after = sys.base().kernels[1].frames.allocated_frames();
    assert_eq!(x86_before - x86_after, freed[0]);
    assert_eq!(arm_before - arm_after, freed[1]);
}
