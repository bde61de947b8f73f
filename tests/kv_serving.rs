//! KV serving scenario — determinism, golden fingerprints, and
//! saturation behaviour.
//!
//! The open-loop serving scenario (`workloads::serve`) layers a virtual
//! request timeline over the per-domain cycle clocks; like every other
//! simulated result in this repo it must be **exactly** reproducible:
//! the same seed yields a byte-identical schedule, and the full run —
//! service times, latencies, the folded run fingerprint — is pinned per
//! [`SystemKind`] as a golden record. The saturation smoke checks the
//! open-loop model actually behaves like one: past the service capacity
//! the achieved throughput caps while tail latency explodes.
//!
//! To regenerate the goldens after an *intentional* timing-model
//! change: `cargo test --test kv_serving -- --ignored --nocapture
//! print_serve_goldens`

#![deny(unsafe_code)]

use stramash_repro::prelude::*;
use stramash_repro::workloads::serve::{
    generate_schedule, run_serve, schedule_fingerprint, ServeConfig,
};
use stramash_repro::workloads::target::{SystemKind, TargetSystem};

/// A small but multi-shard, multi-connection configuration: fast enough
/// for tier-1, big enough to exercise window flow control and both ISA
/// domains.
fn cfg() -> ServeConfig {
    ServeConfig {
        workers: 4,
        connections: 16,
        window: 4,
        requests: 400,
        offered_load: 10.0,
        keyspace: 200,
        ..ServeConfig::default()
    }
}

#[test]
fn same_seed_schedules_are_byte_identical() {
    let a = generate_schedule(&cfg());
    let b = generate_schedule(&cfg());
    assert_eq!(a, b, "same seed must reproduce the schedule byte for byte");
    assert_eq!(schedule_fingerprint(&a), schedule_fingerprint(&b));

    let other = ServeConfig { seed: 0xdead_beef, ..cfg() };
    let c = generate_schedule(&other);
    assert_ne!(
        schedule_fingerprint(&a),
        schedule_fingerprint(&c),
        "different seeds must not collide on the fingerprint"
    );
}

/// The pinned golden run fingerprints for [`cfg`] on
/// `HardwareModel::Shared` — (schedule fingerprint, run fingerprint,
/// p50, p99) per system kind. Any timing-model drift in the serving
/// path fails here.
fn golden(kind: SystemKind) -> (u64, u64, u64, u64) {
    let sched = 0xbeb0_48dd_bdaf_3d65;
    match kind {
        SystemKind::Vanilla => (sched, 0xbd9b_3bf3_2a88_026d, 16383, 16383),
        SystemKind::PopcornTcp => (sched, 0x31f5_8be8_4c76_ccca, 262143, 326745),
        SystemKind::PopcornShm => (sched, 0xf46c_758d_3cb1_5e32, 16383, 22342),
        SystemKind::Stramash => (sched, 0xd410_8128_56f6_3ff0, 16383, 22342),
    }
}

#[test]
fn serve_runs_match_recorded_goldens() {
    for kind in SystemKind::ALL {
        let mut sys = TargetSystem::build(kind, HardwareModel::Shared).unwrap();
        let r = run_serve(&mut sys, &cfg()).unwrap();
        let (sched, run, p50, p99) = golden(kind);
        assert_eq!(
            (r.schedule_fingerprint, r.fingerprint, r.p50(), r.p99()),
            (sched, run, p50, p99),
            "{kind}: serving run drifted from the golden record"
        );
        assert_eq!(r.completed, cfg().requests, "{kind}: every request must complete");
        assert!(sys.audit().is_empty(), "{kind}: auditor violations: {:?}", sys.audit());
    }
}

#[test]
fn serve_is_deterministic_across_reruns() {
    for kind in [SystemKind::Stramash, SystemKind::PopcornTcp] {
        let mut a = TargetSystem::build(kind, HardwareModel::Shared).unwrap();
        let ra = run_serve(&mut a, &cfg()).unwrap();
        let mut b = TargetSystem::build(kind, HardwareModel::Shared).unwrap();
        let rb = run_serve(&mut b, &cfg()).unwrap();
        assert_eq!(ra.fingerprint, rb.fingerprint, "{kind}: rerun diverged");
        assert_eq!(ra.makespan, rb.makespan, "{kind}: makespan diverged");
        assert_eq!(ra.window_stalls, rb.window_stalls, "{kind}: stalls diverged");
    }
}

#[test]
fn overload_saturates_throughput_and_tails() {
    // Open-loop arrivals do not slow down when the server falls behind:
    // past capacity the achieved throughput must cap out below the
    // offered load while p99 latency explodes with queueing delay.
    let light_cfg = ServeConfig { offered_load: 1.0, ..cfg() };
    let heavy_cfg = ServeConfig { offered_load: 2000.0, ..cfg() };
    let mut sys = TargetSystem::build(SystemKind::PopcornTcp, HardwareModel::Shared).unwrap();
    let light = run_serve(&mut sys, &light_cfg).unwrap();
    let mut sys = TargetSystem::build(SystemKind::PopcornTcp, HardwareModel::Shared).unwrap();
    let heavy = run_serve(&mut sys, &heavy_cfg).unwrap();

    assert!(
        (light.throughput - light.offered_load).abs() / light.offered_load < 0.25,
        "under light load achieved ({:.2}) must track offered ({:.2})",
        light.throughput,
        light.offered_load
    );
    assert!(
        heavy.throughput < 0.5 * heavy.offered_load,
        "overload must saturate: achieved {:.2} vs offered {:.2}",
        heavy.throughput,
        heavy.offered_load
    );
    assert!(
        heavy.p99() > 10 * light.p99(),
        "overload p99 ({}) must dwarf light-load p99 ({})",
        heavy.p99(),
        light.p99()
    );
    assert!(heavy.window_stalls > 0, "overload must hit the stream window");
}

/// Regeneration helper — prints current fingerprints in the shape of
/// [`golden`].
#[test]
#[ignore = "golden regeneration helper, run manually"]
fn print_serve_goldens() {
    for kind in SystemKind::ALL {
        let mut sys = TargetSystem::build(kind, HardwareModel::Shared).unwrap();
        let r = run_serve(&mut sys, &cfg()).unwrap();
        println!(
            "SystemKind::{kind:?} => ({:#018x}, {:#018x}, {}, {}),",
            r.schedule_fingerprint,
            r.fingerprint,
            r.p50(),
            r.p99()
        );
    }
}
