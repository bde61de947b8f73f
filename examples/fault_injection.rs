//! Fault injection demo: run the same workload fault-free and under a
//! deterministic fault schedule, and show that the functional result is
//! identical while every recovery is visible in the per-domain stats.
//!
//! ```sh
//! cargo run --release --example fault_injection
//! ```

#![deny(unsafe_code)]

use stramash_repro::kernel::system::OsSystem;
use stramash_repro::prelude::*;
use stramash_repro::sim::FaultPlan;
use stramash_repro::workloads::kvstore::{run_kv, KvOp};
use stramash_repro::workloads::target::{SystemKind, TargetSystem};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let requests = 1_000;

    // Fault-free baseline.
    let mut clean = TargetSystem::build(SystemKind::Stramash, HardwareModel::Shared)?;
    let baseline = run_kv(&mut clean, KvOp::Set, requests, 128)?;
    println!(
        "fault-free : {} requests, checksum {:#018x}, {}",
        baseline.requests, baseline.checksum, baseline.total
    );

    // The same run under a hostile schedule: 5% message drop, 1% ack
    // loss, 0.5% IPI loss, 2% transient allocation failure, and one
    // forced global-allocator exhaustion.
    let plan = FaultPlan::none()
        .with_msg_drop(0.05)
        .with_ack_drop(0.01)
        .with_ipi_loss(0.005)
        .with_alloc_fail(0.02)
        .with_galloc_exhaust_at(2);
    let mut faulty = TargetSystem::build(SystemKind::Stramash, HardwareModel::Shared)?;
    faulty.install_fault_plan(plan, 0x0bad_5eed);
    let stressed = run_kv(&mut faulty, KvOp::Set, requests, 128)?;
    println!(
        "under fault: {} requests, checksum {:#018x}, {}",
        stressed.requests, stressed.checksum, stressed.total
    );

    assert_eq!(stressed.checksum, baseline.checksum, "faults must never change results");
    println!("checksums identical — recovery was transparent");

    // Fault outcomes are counted once, in the acting domain's stats.
    let [x86, arm] = DomainId::ALL.map(|d| *faulty.base().mem.stats(d));
    let injected = x86.faults_injected + arm.faults_injected;
    println!(
        "\ninjected {injected} | retried {} | recovered {} | fatal {}",
        x86.faults_retried + arm.faults_retried,
        x86.faults_recovered + arm.faults_recovered,
        x86.faults_fatal + arm.faults_fatal
    );
    let log = faulty.fault_injector().expect("plan installed").borrow().log().to_vec();
    assert_eq!(injected, log.len() as u64, "every fired fault is counted once");
    println!("messaging retransmits: {}", faulty.base().msg.counters().retransmits());
    println!("first injected faults: {:?}", &log[..log.len().min(5)]);

    let violations = faulty.audit();
    assert!(violations.is_empty(), "auditor found: {violations:?}");
    println!("invariant audit: clean");
    Ok(())
}
