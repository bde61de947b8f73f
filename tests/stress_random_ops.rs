//! Randomized stress: long interleavings of mmap / store / load /
//! migrate / munmap / futex operations against every OS design, checked
//! against a flat reference model of the address space. Any coherence,
//! replication, or teardown bug shows up as a value mismatch.

#![deny(unsafe_code)]

use std::collections::BTreeMap;
use stramash_repro::kernel::addr::{VirtAddr, PAGE_SIZE};
use stramash_repro::kernel::system::OsSystem;
use stramash_repro::kernel::vma::VmaProt;
use stramash_repro::prelude::*;
use stramash_repro::sim::rng::SimRng;
use stramash_repro::sim::FaultPlan;
use stramash_repro::workloads::target::{SystemKind, TargetSystem};

struct Region {
    start: VirtAddr,
    pages: u64,
}

fn stress(kind: SystemKind, seed: u64, steps: u32) {
    stress_with_plan(kind, seed, steps, None);
}

fn stress_with_plan(kind: SystemKind, seed: u64, steps: u32, plan: Option<FaultPlan>) {
    let mut sys = TargetSystem::build(kind, HardwareModel::Shared).unwrap();
    if let Some(plan) = plan {
        sys.install_fault_plan(plan, seed);
    }
    let pid = sys.spawn(DomainId::X86).unwrap();
    let mut rng = SimRng::new(seed);
    // The reference model: va → value for every word ever written.
    let mut model: BTreeMap<u64, u64> = BTreeMap::new();
    let mut regions: Vec<Region> = Vec::new();

    for step in 0..steps {
        match rng.gen_range(100) {
            // mmap a fresh region.
            0..=9 => {
                let pages = 1 + rng.gen_range(6);
                let start = sys.mmap(pid, pages * PAGE_SIZE, VmaProt::rw()).unwrap();
                regions.push(Region { start, pages });
            }
            // munmap a region (drop its model entries).
            10..=14 if regions.len() > 1 => {
                let idx = rng.gen_range(regions.len() as u64) as usize;
                let r = regions.swap_remove(idx);
                let freed = sys.munmap(pid, r.start).unwrap();
                let freed_total: u64 = freed.iter().sum();
                assert!(freed_total <= r.pages * 2, "freed more frames than pages mapped");
                model.retain(|va, _| {
                    !(*va >= r.start.raw() && *va < r.start.raw() + r.pages * PAGE_SIZE)
                });
            }
            // migrate.
            15..=24 if kind.migrates() => {
                let to = if rng.gen_range(2) == 0 { DomainId::X86 } else { DomainId::ARM };
                sys.migrate(pid, to).unwrap();
            }
            // store a word.
            25..=64 if !regions.is_empty() => {
                let r = &regions[rng.gen_range(regions.len() as u64) as usize];
                let off = rng.gen_range(r.pages * PAGE_SIZE / 8) * 8;
                let va = r.start.offset(off);
                let value = rng.next_u64();
                sys.store_u64(pid, va, value).unwrap();
                model.insert(va.raw(), value);
            }
            // load and check a word.
            65..=94 if !regions.is_empty() => {
                let r = &regions[rng.gen_range(regions.len() as u64) as usize];
                let off = rng.gen_range(r.pages * PAGE_SIZE / 8) * 8;
                let va = r.start.offset(off);
                let got = sys.load_u64(pid, va).unwrap();
                let expect = model.get(&va.raw()).copied().unwrap_or(0);
                assert_eq!(
                    got,
                    expect,
                    "{kind:?} seed {seed} step {step}: stale read at {va} \
                     (domain {:?})",
                    sys.current_domain(pid).unwrap()
                );
            }
            // futex lock/unlock from a random domain.
            _ if !regions.is_empty() => {
                let r = &regions[0];
                let word = r.start;
                let d = if rng.gen_range(2) == 0 { DomainId::X86 } else { DomainId::ARM };
                if kind == SystemKind::Vanilla {
                    // Vanilla futexes are local-only.
                    sys.futex_lock(pid, DomainId::X86, word).unwrap();
                    sys.futex_unlock(pid, DomainId::X86, word).unwrap();
                } else {
                    sys.futex_lock(pid, d, word).unwrap();
                    sys.futex_unlock(pid, d.other(), word).unwrap();
                }
                // The futex word toggles 1 → 0; keep the model in step.
                model.insert(word.raw(), 0);
            }
            _ => {}
        }
        // Bootstrap: make sure a region exists early.
        if regions.is_empty() {
            let start = sys.mmap(pid, 4 * PAGE_SIZE, VmaProt::rw()).unwrap();
            regions.push(Region { start, pages: 4 });
        }
    }

    // Final sweep: everything the model remembers must read back
    // identically from the origin kernel.
    if kind.migrates() {
        sys.migrate(pid, DomainId::X86).unwrap();
    }
    for (&va, &expect) in &model {
        let got = sys.load_u64(pid, VirtAddr::new(va)).unwrap();
        assert_eq!(got, expect, "{kind:?} seed {seed}: final sweep mismatch at {va:#x}");
    }

    // The invariant auditor must stay silent whether or not faults were
    // injected along the way.
    let violations = sys.audit();
    assert!(violations.is_empty(), "{kind:?} seed {seed}: {violations:?}");
    if let Some(plan) = plan {
        if !plan.is_noop() {
            let [x86, arm] = DomainId::ALL.map(|d| *sys.base().mem.stats(d));
            let injected = x86.faults_injected + arm.faults_injected;
            assert!(injected > 0, "{kind:?} seed {seed}: fault schedule never fired");
            let fired = sys.fault_injector().unwrap().borrow().log().len() as u64;
            assert_eq!(injected, fired, "{kind:?} seed {seed}: each fault counted once");
            assert_eq!(
                x86.faults_fatal + arm.faults_fatal,
                0,
                "{kind:?} seed {seed}: injected faults must be survivable"
            );
        }
    }
}

#[test]
fn stress_vanilla() {
    for seed in [1, 2, 3] {
        stress(SystemKind::Vanilla, seed, 600);
    }
}

#[test]
fn stress_popcorn_shm() {
    for seed in [11, 12, 13] {
        stress(SystemKind::PopcornShm, seed, 600);
    }
}

#[test]
fn stress_popcorn_tcp() {
    stress(SystemKind::PopcornTcp, 21, 400);
}

#[test]
fn stress_stramash() {
    for seed in [31, 32, 33, 34] {
        stress(SystemKind::Stramash, seed, 600);
    }
}

#[test]
fn stress_under_fault_schedule() {
    // The same randomized interleavings, now with every fault class
    // armed at once. The reference model must still match word for
    // word and the auditors must stay clean.
    let plan = FaultPlan::none()
        .with_msg_drop(0.05)
        .with_msg_corrupt(0.02)
        .with_msg_delay(0.05, 2_000)
        .with_ack_drop(0.02)
        .with_ipi_loss(0.01)
        .with_alloc_fail(0.02)
        .with_lock_contention(0.05);
    for kind in [SystemKind::PopcornShm, SystemKind::Stramash] {
        stress_with_plan(kind, 41, 600, Some(plan));
    }
}
