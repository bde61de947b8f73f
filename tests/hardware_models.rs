//! Hardware-model semantics end to end (§8.1/§9.2.1): which designs are
//! sensitive to the Figure 3 memory configuration, and which are not.

#![deny(unsafe_code)]

use stramash_repro::prelude::*;
use stramash_repro::workloads::driver::{run_benchmark, Configuration};
use stramash_repro::workloads::micro::{memory_access, AccessScenario};
use stramash_repro::workloads::npb::{Class, NpbKind};
use stramash_repro::workloads::target::{SystemKind, TargetSystem};

/// §8.2: Popcorn-TCP "performs the same independently of the hardware
/// model" — it never touches shared memory.
#[test]
fn tcp_is_hardware_model_independent() {
    let mut runtimes = Vec::new();
    for model in HardwareModel::ALL {
        let r = run_benchmark(
            Configuration { kind: SystemKind::PopcornTcp, model },
            NpbKind::Is,
            Class::Tiny,
        )
        .unwrap();
        assert!(r.outcome.verified);
        runtimes.push(r.runtime.raw());
    }
    let min = *runtimes.iter().min().unwrap() as f64;
    let max = *runtimes.iter().max().unwrap() as f64;
    assert!(max / min < 1.02, "TCP runtimes must be (nearly) model-independent: {runtimes:?}");
}

/// §9.2.1: Popcorn-SHM's *warm* accesses are model-insensitive because
/// "SHM always replicates the page; the remote memory access overhead
/// is minimal".
#[test]
fn popcorn_warm_access_is_model_insensitive() {
    const BYTES: u64 = 512 << 10;
    let mut costs = Vec::new();
    for model in HardwareModel::ALL {
        let mut sys = TargetSystem::build(SystemKind::PopcornShm, model).unwrap();
        let r = memory_access(&mut sys, AccessScenario::RemoteAccessOriginNoCold, BYTES).unwrap();
        costs.push(r.measured.raw());
    }
    let min = *costs.iter().min().unwrap() as f64;
    let max = *costs.iter().max().unwrap() as f64;
    assert!(max / min < 1.10, "warm DSM accesses should barely feel the model: {costs:?}");
}

/// Stramash *is* model-sensitive: Fully-Shared beats Shared and
/// Separated because it eliminates remote memory entirely.
#[test]
fn stramash_fully_shared_is_its_fastest_model() {
    let mut by_model = Vec::new();
    for model in HardwareModel::ALL {
        let r = run_benchmark(
            Configuration { kind: SystemKind::Stramash, model },
            NpbKind::Is,
            Class::Tiny,
        )
        .unwrap();
        assert!(r.outcome.verified);
        by_model.push((model, r.runtime.raw(), r.remote_hits));
    }
    let fully = by_model.iter().find(|(m, ..)| *m == HardwareModel::FullyShared).unwrap();
    for (model, runtime, remote_hits) in &by_model {
        if *model != HardwareModel::FullyShared {
            assert!(fully.1 < *runtime, "Fully-Shared must be fastest: {by_model:?}");
            assert!(*remote_hits > 0, "{model} must incur remote DRAM hits");
        }
    }
    assert_eq!(fully.2, 0, "Fully-Shared has no remote memory at all");
}

/// Under the Separated model, the message ring is x86-local and
/// Arm-remote (§8.2) — sends from Arm cost more than sends from x86.
#[test]
fn separated_ring_placement_is_asymmetric() {
    use stramash_repro::kernel::msg::{Message, MsgType};
    use stramash_repro::kernel::system::OsSystem;
    let mut sys = TargetSystem::build(SystemKind::PopcornShm, HardwareModel::Separated).unwrap();
    let base = sys.base_mut();
    let msg = Message::page(MsgType::PageResponse);
    let from_x86 = {
        let (m, mem, ipi) = (&mut base.msg, &mut base.mem, &mut base.ipi);
        m.send(mem, ipi, DomainId::X86, msg)
    };
    base.mem.flush_caches();
    let from_arm = {
        let (m, mem, ipi) = (&mut base.msg, &mut base.mem, &mut base.ipi);
        m.send(mem, ipi, DomainId::ARM, msg)
    };
    assert!(
        from_arm.raw() > from_x86.raw() + 10_000,
        "Arm writes the ring remotely: {from_arm} vs {from_x86}"
    );
}
