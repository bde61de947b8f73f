//! Translation-session invalidation: the batched pipeline's safety
//! contract.
//!
//! An [`AccessSession`] caches page→frame translations copied from the
//! live software TLB. Every event that can stale a TLB entry —
//! `munmap`, `mprotect`, migration, DSM ownership transfers — bumps the
//! TLB's generation counter, and the session drops everything at the
//! next `session_begin` (or after any in-batch fault, which resyncs
//! inside `session_translate`). These tests pin the observable
//! guarantees: no stale frame is ever readable, downgraded protections
//! bite immediately, and a migration-heavy batched workload stays
//! cycle-identical to its scalar twin.

use stramash_repro::kernel::addr::PAGE_SIZE;
use stramash_repro::kernel::session::AccessSession;
use stramash_repro::kernel::system::{OsError, OsSystem};
use stramash_repro::kernel::vma::VmaProt;
use stramash_repro::prelude::*;
use stramash_repro::workloads::client::MemoryClient;
use stramash_repro::workloads::target::{SystemKind, TargetSystem};

#[test]
fn munmap_invalidates_a_live_session() {
    let mut sys = TargetSystem::build(SystemKind::Vanilla, HardwareModel::Shared).unwrap();
    let pid = sys.spawn(DomainId::X86).unwrap();
    let buf = sys.mmap(pid, 2 * PAGE_SIZE, VmaProt::rw()).unwrap();
    sys.store_u64(pid, buf, 0xfeed).unwrap();

    let mut session = AccessSession::new(pid);
    sys.session_begin(&mut session).unwrap();
    let (pa, _) = sys.session_translate(&mut session, buf, false).unwrap();
    // The session now holds the translation: a repeat is a session hit
    // (zero translation cycles) resolving to the same frame.
    let (pa2, cyc) = sys.session_translate(&mut session, buf, false).unwrap();
    assert_eq!(pa, pa2);
    assert_eq!(cyc, Cycles::ZERO);

    sys.munmap(pid, buf).unwrap();

    // Revalidation notices the generation bump and drops the cache;
    // translation now faults instead of serving the stale frame.
    sys.session_begin(&mut session).unwrap();
    assert!(matches!(
        sys.session_translate(&mut session, buf, false),
        Err(OsError::Segfault { .. })
    ));
}

#[test]
fn mprotect_downgrade_blocks_batched_writes() {
    let mut sys = TargetSystem::build(SystemKind::Vanilla, HardwareModel::Shared).unwrap();
    let pid = sys.spawn(DomainId::X86).unwrap();
    let buf = sys.mmap(pid, PAGE_SIZE, VmaProt::rw()).unwrap();
    sys.store_u64(pid, buf, 77).unwrap();

    let mut session = AccessSession::new(pid);
    sys.session_begin(&mut session).unwrap();
    // Cache a writable translation.
    sys.session_translate(&mut session, buf, true).unwrap();

    sys.mprotect(pid, buf, VmaProt::ro()).unwrap();

    sys.session_begin(&mut session).unwrap();
    // Writes are now refused — the cached writable entry is gone.
    assert!(matches!(
        sys.session_translate(&mut session, buf, true),
        Err(OsError::PermissionDenied { .. })
    ));
    // Reads still work and see the value written before the downgrade.
    sys.session_translate(&mut session, buf, false).unwrap();
    assert_eq!(sys.load_u64(pid, buf).unwrap(), 77);
}

#[test]
fn migration_resyncs_the_session_domain() {
    let mut sys = TargetSystem::build(SystemKind::Stramash, HardwareModel::Shared).unwrap();
    let pid = sys.spawn(DomainId::X86).unwrap();
    let buf = sys.mmap(pid, 2 * PAGE_SIZE, VmaProt::rw()).unwrap();
    sys.store_u64(pid, buf, 0xabcd).unwrap();

    let mut session = AccessSession::new(pid);
    sys.session_begin(&mut session).unwrap();
    assert_eq!(session.domain(), DomainId::X86);
    sys.session_translate(&mut session, buf, false).unwrap();

    sys.migrate(pid, DomainId::ARM).unwrap();

    // The next batch adopts the new domain and translates through the
    // remote kernel's page table; the data is still reachable.
    sys.session_begin(&mut session).unwrap();
    assert_eq!(session.domain(), DomainId::ARM);
    sys.session_translate(&mut session, buf, false).unwrap();
    assert_eq!(sys.load_u64(pid, buf).unwrap(), 0xabcd);
}

/// A migration-heavy read-modify-write sweep through the client API:
/// four migrations with a batch scope re-opened after each one. With
/// `batched == false` the same sweep runs as the explicit loop of
/// scalar client ops the scope ops stand for.
fn migration_sweep(kind: SystemKind, batched: bool) -> (u64, u64) {
    let mut sys = TargetSystem::build(kind, HardwareModel::Shared).unwrap();
    let pid = sys.spawn(DomainId::X86).unwrap();
    let mut c = MemoryClient::new(&mut sys, pid);
    let a = c.alloc_u64(1024).unwrap();
    let vals: Vec<u64> = (0..1024).map(|i| i * 3 + 1).collect();
    if batched {
        c.batch().unwrap().st_u64_slice(a, 0, &vals, 4).unwrap();
    } else {
        for (i, &v) in vals.iter().enumerate() {
            c.st_u64(a, i as u64, v).unwrap();
            c.work(4).unwrap();
        }
    }
    let mut acc = 0u64;
    for round in 0..4u64 {
        let to = if round % 2 == 0 { DomainId::ARM } else { DomainId::X86 };
        c.migrate(to).unwrap();
        if batched {
            let mut s = c.batch().unwrap();
            for i in 0..1024 {
                let v = s.ld_u64(a, i).unwrap();
                s.st_u64(a, i, v + 1).unwrap();
                acc = acc.wrapping_add(v);
                s.work(3).unwrap();
            }
        } else {
            for i in 0..1024 {
                let v = c.ld_u64(a, i).unwrap();
                c.st_u64(a, i, v + 1).unwrap();
                acc = acc.wrapping_add(v);
                c.work(3).unwrap();
            }
        }
    }
    c.flush_work().unwrap();
    (acc, sys.runtime().raw())
}

#[test]
fn batched_migration_sweep_is_cycle_identical_to_scalar() {
    for kind in [SystemKind::PopcornShm, SystemKind::Stramash] {
        let (batched_acc, batched_runtime) = migration_sweep(kind, true);
        let (scalar_acc, scalar_runtime) = migration_sweep(kind, false);
        assert_eq!(batched_acc, scalar_acc, "{kind}: values must match");
        assert_eq!(
            batched_runtime, scalar_runtime,
            "{kind}: migration-heavy batching must not move simulated time"
        );
    }
}

/// Cross-domain shootdown: domain B's session caches a *writable*
/// translation, domain A runs, and then an `mprotect` downgrades B's
/// page. The very next revalidation of B's session must refuse the
/// write — B executes nothing between the shootdown and the check —
/// while reads still resolve and the data is unchanged.
#[test]
fn shootdown_invalidates_peer_session_immediately() {
    let mut sys = TargetSystem::build(SystemKind::Stramash, HardwareModel::Shared).unwrap();
    let pid_a = sys.spawn(DomainId::X86).unwrap();
    let pid_b = sys.spawn(DomainId::ARM).unwrap();
    let buf = sys.mmap(pid_b, 2 * PAGE_SIZE, VmaProt::rw()).unwrap();
    sys.store_u64(pid_b, buf, 0x5eed).unwrap();
    let scratch = sys.mmap(pid_a, PAGE_SIZE, VmaProt::rw()).unwrap();

    let mut session = AccessSession::new(pid_b);
    sys.session_begin(&mut session).unwrap();
    sys.session_translate(&mut session, buf, true).unwrap();
    assert!(session.lookup(buf, true).is_some(), "B must hold the writable entry");

    sys.store_u64(pid_a, scratch, 1).unwrap();
    sys.mprotect(pid_b, buf, VmaProt::ro()).unwrap();

    sys.session_begin(&mut session).unwrap();
    assert!(
        matches!(
            sys.session_translate(&mut session, buf, true),
            Err(OsError::PermissionDenied { .. })
        ),
        "the cached writable entry must be dead right after the shootdown"
    );
    sys.session_translate(&mut session, buf, false).unwrap();
    assert_eq!(sys.load_u64(pid_b, buf).unwrap(), 0x5eed, "data must be unchanged");
    assert_eq!(sys.load_u64(pid_a, scratch).unwrap(), 1);
}
