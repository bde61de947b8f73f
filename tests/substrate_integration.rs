//! Integration of the supporting subsystems with full runs: the
//! perf+icount tool, messaging polling mode, and the charged cost of
//! the register-state transformation.

#![deny(unsafe_code)]

use stramash_repro::isa::regs;
use stramash_repro::kernel::msg::{Message, MsgType, Transport};
use stramash_repro::kernel::system::{protocol_round_trip, BaseSystem, OsSystem};
use stramash_repro::kernel::BootConfig;
use stramash_repro::prelude::*;
use stramash_repro::sim::ipi::NotifyMode;
use stramash_repro::sim::render_phases;
use stramash_repro::workloads::npb::{run_npb, Class, NpbKind};
use stramash_repro::workloads::target::{SystemKind, TargetSystem};

/// The §7.3 perf tool attributes each offloaded procedure to the domain
/// that ran it across a full NPB run, and its phases add up exactly to
/// the domain clocks.
#[test]
fn perf_tool_attributes_phases_across_migrations() {
    let mut sys = TargetSystem::build(SystemKind::Stramash, HardwareModel::Shared).unwrap();
    let pid = sys.spawn(DomainId::X86).unwrap();
    let out = run_npb(NpbKind::Is, &mut sys, pid, Class::Tiny, true).unwrap();
    assert!(out.verified);
    let phases = sys.base().phases();
    // 2 iterations → 4 migrations → 5 phases, the last being the
    // verification segment after the final back-migration.
    assert_eq!(phases.len(), 5);
    // The setup phase (key generation) ran on x86.
    let [x86, arm] = phases[0];
    assert!(x86.instructions > 0, "setup must retire instructions");
    assert!(x86.runtime > arm.runtime, "setup ran on x86");
    // The first offloaded procedure (after x86 → Arm) ran on Arm.
    let [x86, arm] = phases[1];
    assert!(arm.runtime > x86.runtime && arm.instructions > x86.instructions);
    // Per domain, the phases sum exactly to the clocks.
    for d in DomainId::ALL {
        let clock = sys.base().timebase.clock(d);
        let insns: u64 = phases.iter().map(|p| p[d.index()].instructions).sum();
        let runtime: u64 = phases.iter().map(|p| p[d.index()].runtime.raw()).sum();
        assert_eq!(insns, clock.icount(), "{d}: instructions");
        assert_eq!(runtime, clock.cycles().raw(), "{d}: runtime");
    }
    assert!(render_phases(&phases).ends_with("phases: 5 (split at thread migrations)\n"));
}

/// Polling-mode messaging trades the IPI for receiver poll reads (§6.2).
#[test]
fn polling_messaging_round_trip_is_cheaper() {
    let cfg = SimConfig::big_pair().with_hw_model(HardwareModel::Shared);
    let cost_with = |notify: NotifyMode| {
        let boot =
            BootConfig { transport: Transport::Shm { notify }, ..BootConfig::paper_default() };
        let mut base = BaseSystem::new(cfg.clone(), &boot).unwrap();
        protocol_round_trip(
            &mut base,
            DomainId::X86,
            Message::control(MsgType::FutexRequest),
            Message::control(MsgType::FutexResponse),
        )
    };
    let interrupt = cost_with(NotifyMode::Interrupt);
    let polling = cost_with(NotifyMode::Polling);
    assert!(polling < interrupt, "polling {polling} must undercut IPI {interrupt}");
    // But polling is not free: the head-word checks are real reads.
    assert!(polling.raw() > 1000);
}

/// The OS charges the register-state transformation at the migration
/// destination: a migration retires TRANSFORM_INSNS instructions on the
/// target domain.
#[test]
fn migration_retires_transform_insns_on_destination() {
    let mut sys = TargetSystem::build(SystemKind::Stramash, HardwareModel::Shared).unwrap();
    let pid = sys.spawn(DomainId::X86).unwrap();
    let arm_insns_before = sys.base().timebase.clock(DomainId::ARM).icount();
    sys.migrate(pid, DomainId::ARM).unwrap();
    let arm_insns_after = sys.base().timebase.clock(DomainId::ARM).icount();
    assert!(
        arm_insns_after - arm_insns_before >= regs::TRANSFORM_INSNS,
        "destination must execute the state transformation"
    );
}
