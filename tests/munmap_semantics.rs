//! `munmap` under every OS design: mappings disappear, frames return to
//! their owners, and the design-specific ownership disciplines hold.

#![deny(unsafe_code)]

use stramash_repro::kernel::addr::PAGE_SIZE;
use stramash_repro::kernel::system::{OsError, OsSystem};
use stramash_repro::kernel::vma::VmaProt;
use stramash_repro::prelude::*;
use stramash_repro::workloads::target::{SystemKind, TargetSystem};

fn allocated(sys: &TargetSystem, d: DomainId) -> u64 {
    sys.base().kernels[d.index()].frames.allocated_frames()
}

#[test]
fn vanilla_munmap_frees_local_frames() {
    let mut sys = TargetSystem::build(SystemKind::Vanilla, HardwareModel::Shared).unwrap();
    let pid = sys.spawn(DomainId::X86).unwrap();
    let before = allocated(&sys, DomainId::X86);
    let buf = sys.mmap(pid, 8 * PAGE_SIZE, VmaProt::rw()).unwrap();
    for p in 0..8u64 {
        sys.store_u64(pid, buf.offset(p * PAGE_SIZE), p).unwrap();
    }
    let freed = sys.munmap(pid, buf).unwrap();
    assert_eq!(freed[0], 8);
    assert_eq!(freed[1], 0);
    // Frame accounting returns to the pre-mmap level (page-table frames
    // remain, so compare user-page deltas only).
    assert!(allocated(&sys, DomainId::X86) >= before);
    // The region is gone: access segfaults.
    assert!(matches!(sys.load_u64(pid, buf), Err(OsError::Segfault { .. })));
}

#[test]
fn popcorn_munmap_frees_both_replicas() {
    let mut sys = TargetSystem::build(SystemKind::PopcornShm, HardwareModel::Shared).unwrap();
    let pid = sys.spawn(DomainId::X86).unwrap();
    let buf = sys.mmap(pid, 4 * PAGE_SIZE, VmaProt::rw()).unwrap();
    // Origin writes, remote reads: every page ends up replicated on
    // both kernels.
    for p in 0..4u64 {
        sys.store_u64(pid, buf.offset(p * PAGE_SIZE), p).unwrap();
    }
    sys.migrate(pid, DomainId::ARM).unwrap();
    for p in 0..4u64 {
        sys.load_u64(pid, buf.offset(p * PAGE_SIZE)).unwrap();
    }
    let freed = sys.munmap(pid, buf).unwrap();
    assert_eq!(freed[0], 4, "origin copies freed");
    assert_eq!(freed[1], 4, "remote replicas freed");
    assert!(matches!(sys.load_u64(pid, buf), Err(OsError::Segfault { .. })));
}

#[test]
fn stramash_munmap_respects_allocation_ownership() {
    let mut sys = TargetSystem::build(SystemKind::Stramash, HardwareModel::Shared).unwrap();
    let pid = sys.spawn(DomainId::X86).unwrap();
    let buf = sys.mmap(pid, 8 * PAGE_SIZE, VmaProt::rw()).unwrap();
    // Half the pages allocated by the origin, half by the remote kernel
    // (single frames, mapped in both page tables).
    for p in 0..4u64 {
        sys.store_u64(pid, buf.offset(p * PAGE_SIZE), p).unwrap();
    }
    sys.migrate(pid, DomainId::ARM).unwrap();
    for p in 4..8u64 {
        sys.store_u64(pid, buf.offset(p * PAGE_SIZE), p).unwrap();
    }
    let msgs_before = sys.message_total();
    let freed = sys.munmap(pid, buf).unwrap();
    assert_eq!(sys.message_total(), msgs_before, "fused munmap is message-free");
    assert_eq!(freed[0], 4, "x86 frees exactly what it allocated");
    assert_eq!(freed[1], 4, "Arm frees exactly what it allocated");
    assert_eq!(freed.iter().sum::<u64>(), 8, "no double frees, no leaks");
}

#[test]
fn munmap_unknown_vma_is_an_error() {
    let mut sys = TargetSystem::build(SystemKind::Stramash, HardwareModel::Shared).unwrap();
    let pid = sys.spawn(DomainId::X86).unwrap();
    let err = sys.munmap(pid, stramash_repro::kernel::VirtAddr::new(0x9999_0000)).unwrap_err();
    assert!(matches!(err, OsError::Segfault { .. }));
}

#[test]
fn address_space_can_be_reused_after_munmap() {
    // mmap → fill → munmap → mmap again; the new region must demand-page
    // fresh zero pages, not resurrect stale state.
    let mut sys = TargetSystem::build(SystemKind::PopcornShm, HardwareModel::Shared).unwrap();
    let pid = sys.spawn(DomainId::X86).unwrap();
    let a = sys.mmap(pid, 4 * PAGE_SIZE, VmaProt::rw()).unwrap();
    sys.store_u64(pid, a, 0xdead).unwrap();
    sys.migrate(pid, DomainId::ARM).unwrap();
    assert_eq!(sys.load_u64(pid, a).unwrap(), 0xdead);
    sys.munmap(pid, a).unwrap();
    let b = sys.mmap(pid, 4 * PAGE_SIZE, VmaProt::rw()).unwrap();
    assert_eq!(sys.load_u64(pid, b).unwrap(), 0, "fresh pages are zeroed");
    sys.store_u64(pid, b, 0xbeef).unwrap();
    sys.migrate(pid, DomainId::X86).unwrap();
    assert_eq!(sys.load_u64(pid, b).unwrap(), 0xbeef);
}
