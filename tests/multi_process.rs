//! Multiple processes on one platform: isolation between address
//! spaces, independent migration, and per-process accounting.

#![deny(unsafe_code)]

use stramash_repro::kernel::addr::PAGE_SIZE;
use stramash_repro::kernel::system::OsSystem;
use stramash_repro::kernel::vma::VmaProt;
use stramash_repro::prelude::*;
use stramash_repro::sim::trace::{chrome_trace_json, shared_tracer};
use stramash_repro::workloads::npb::{run_npb, Class, NpbKind};
use stramash_repro::workloads::target::{SystemKind, TargetSystem};

/// Two processes share VA numbers but never data: the same virtual
/// address maps to different frames per process.
#[test]
fn address_spaces_are_isolated() {
    for kind in [SystemKind::PopcornShm, SystemKind::Stramash] {
        let mut sys = TargetSystem::build(kind, HardwareModel::Shared).unwrap();
        let a = sys.spawn(DomainId::X86).unwrap();
        let b = sys.spawn(DomainId::ARM).unwrap();
        let va_a = sys.mmap(a, 4 * PAGE_SIZE, VmaProt::rw()).unwrap();
        let va_b = sys.mmap(b, 4 * PAGE_SIZE, VmaProt::rw()).unwrap();
        assert_eq!(va_a, va_b, "both processes use the same mmap base VA");
        sys.store_u64(a, va_a, 0xAAAA).unwrap();
        sys.store_u64(b, va_b, 0xBBBB).unwrap();
        assert_eq!(sys.load_u64(a, va_a).unwrap(), 0xAAAA);
        assert_eq!(sys.load_u64(b, va_b).unwrap(), 0xBBBB, "{kind:?}: cross-process bleed");
        // Their translations resolve to different physical frames.
        let (pa_a, _) = sys.translate(a, va_a, false).unwrap();
        let (pa_b, _) = sys.translate(b, va_b, false).unwrap();
        assert_ne!(pa_a, pa_b);
    }
}

/// Processes migrate independently: one can live on each kernel, with
/// interleaved accesses staying coherent.
#[test]
fn independent_migration_and_interleaving() {
    let mut sys = TargetSystem::build(SystemKind::Stramash, HardwareModel::Shared).unwrap();
    let a = sys.spawn(DomainId::X86).unwrap();
    let b = sys.spawn(DomainId::X86).unwrap();
    let va = sys.mmap(a, 8 * PAGE_SIZE, VmaProt::rw()).unwrap();
    let vb = sys.mmap(b, 8 * PAGE_SIZE, VmaProt::rw()).unwrap();
    sys.migrate(a, DomainId::ARM).unwrap();
    assert_eq!(sys.current_domain(a).unwrap(), DomainId::ARM);
    assert_eq!(sys.current_domain(b).unwrap(), DomainId::X86);
    for i in 0..16u64 {
        sys.store_u64(a, va.offset(i * 64), i).unwrap();
        sys.store_u64(b, vb.offset(i * 64), i * 2).unwrap();
    }
    sys.migrate(a, DomainId::X86).unwrap();
    sys.migrate(b, DomainId::ARM).unwrap();
    for i in 0..16u64 {
        assert_eq!(sys.load_u64(a, va.offset(i * 64)).unwrap(), i);
        assert_eq!(sys.load_u64(b, vb.offset(i * 64)).unwrap(), i * 2);
    }
}

/// Two NPB kernels run back-to-back as separate processes on one booted
/// platform; both verify, and the second is unaffected by the first's
/// leftover cache/kernel state.
#[test]
fn sequential_workloads_on_one_platform() {
    let mut sys = TargetSystem::build(SystemKind::Stramash, HardwareModel::Shared).unwrap();
    let p1 = sys.spawn(DomainId::X86).unwrap();
    let out1 = run_npb(NpbKind::Is, &mut sys, p1, Class::Tiny, true).unwrap();
    assert!(out1.verified);
    let p2 = sys.spawn(DomainId::X86).unwrap();
    let out2 = run_npb(NpbKind::Cg, &mut sys, p2, Class::Tiny, true).unwrap();
    assert!(out2.verified);
    // Teardown of the first process releases its frames without
    // touching the second's.
    if let Some(stra) = sys.as_stramash_mut() {
        let freed = stra.exit(p1).unwrap();
        assert!(freed.iter().sum::<u64>() > 0);
    }
    // p2's address space still works after p1's teardown.
    let probe = sys.mmap(p2, PAGE_SIZE, VmaProt::rw()).unwrap();
    sys.store_u64(p2, probe, 0xCAFE).unwrap();
    assert_eq!(sys.load_u64(p2, probe).unwrap(), 0xCAFE);
}

/// The Chrome-trace export works on a real migrating run.
#[test]
fn chrome_trace_from_real_run() {
    let mut sys = TargetSystem::build(SystemKind::Stramash, HardwareModel::Shared).unwrap();
    let tracer = shared_tracer(1 << 20);
    sys.install_tracer(tracer.clone());
    let pid = sys.spawn(DomainId::X86).unwrap();
    run_npb(NpbKind::Is, &mut sys, pid, Class::Tiny, true).unwrap();
    assert_eq!(tracer.borrow().dropped(), 0);
    let json = chrome_trace_json(&tracer.borrow().events());
    assert!(json.starts_with("{\"displayTimeUnit\"") && json.trim_end().ends_with("]}"));
    assert!(json.contains(r#""name":"migration","cat":"Migration","ph":"i""#));
    assert!(json.contains(r#""ph":"X""#));
    // Both domain tracks appear.
    assert!(json.contains(r#""tid":0"#) && json.contains(r#""tid":1"#));
}
