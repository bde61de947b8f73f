//! Golden-stats regression test for the simulated-memory hot path.
//!
//! A fixed-seed NPB IS run plus a KV-store run, for all four
//! [`SystemKind`]s, pinning the **exact** simulated runtime, per-level
//! cache hit counters, memory-access counts and message totals. The
//! simulator's host-side optimisations (set masking, MRU probe,
//! last-line hit, streaming access) must never change simulated timing by even
//! one cycle — any future hot-path change that drifts these numbers
//! fails tier-1 here.
//!
//! There is one host execution path per mechanism; its equivalence to
//! the scalar reference is pinned where each layer lives — the cache
//! against the exact-LRU model of `mem::reference`, every batched
//! client op against an explicit scalar loop (`workloads::client`
//! tests, `session_invalidation.rs`, `trace_determinism.rs`).
//!
//! To regenerate the goldens after an *intentional* timing-model change:
//! `cargo test --test golden_stats -- --ignored --nocapture print_goldens`

use stramash_repro::kernel::system::OsSystem;
use stramash_repro::prelude::*;
use stramash_repro::workloads::kvstore::{run_kv, KvOp};
use stramash_repro::workloads::npb::{run_npb, Class, NpbKind};
use stramash_repro::workloads::target::{SystemKind, TargetSystem};

/// Everything the hot path is allowed to influence, captured exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Fingerprint {
    /// Total simulated runtime in cycles after NPB IS + KV.
    runtime: u64,
    /// Cross-kernel messages sent.
    messages: u64,
    /// KV functional checksum (data integrity, not timing).
    kv_checksum: u64,
    /// Per-domain `[l1i.accesses, l1i.hits, l1d.accesses, l1d.hits,
    /// l2.accesses, l2.hits, l3.accesses, l3.hits, mem_accesses]`.
    levels: [[u64; 9]; 2],
    /// Per-domain `[tlb_hits, tlb_misses]` — the §6.4 software-TLB
    /// counters, which the translation sessions must reproduce exactly.
    tlb: [[u64; 2]; 2],
}

/// Runs the fixed workload on a fresh system and captures the stats.
fn fingerprint(kind: SystemKind) -> Fingerprint {
    let mut sys = TargetSystem::build(kind, HardwareModel::Shared).unwrap();
    let pid = sys.spawn(DomainId::X86).unwrap();
    let npb = run_npb(NpbKind::Is, &mut sys, pid, Class::Tiny, kind.migrates()).unwrap();
    assert!(npb.verified, "{kind}: NPB IS failed verification");
    let kv = run_kv(&mut sys, KvOp::Set, 500, 64).unwrap();
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
        kv_checksum: kv.checksum,
        levels,
        tlb,
    }
}

/// The recorded goldens (HardwareModel::Shared, NPB IS Tiny + 500 KV
/// sets of 64 B payloads).
fn golden(kind: SystemKind) -> Fingerprint {
    match kind {
        SystemKind::Vanilla => Fingerprint {
            runtime: 5_970_538,
            messages: 1000,
            kv_checksum: 0xf7f7_d41e_5183_3d65,
            levels: [
                [681, 169, 30251, 26076, 4687, 1261, 3426, 0, 30251],
                [0, 0, 0, 0, 0, 0, 0, 0, 0],
            ],
            tlb: [[24_406, 24], [0, 0]],
        },
        SystemKind::PopcornTcp => Fingerprint {
            runtime: 86_187_952,
            messages: 1078,
            kv_checksum: 0xf7f7_d41e_5183_3d65,
            levels: [
                [218, 25, 4529, 3076, 1646, 0, 1646, 0, 4529],
                [487, 5, 24976, 22404, 3054, 1152, 1902, 0, 24976],
            ],
            tlb: [[2_581, 9], [21_812, 28]],
        },
        SystemKind::PopcornShm => Fingerprint {
            runtime: 11_227_003,
            messages: 1078,
            kv_checksum: 0xf7f7_d41e_5183_3d65,
            levels: [
                [218, 25, 8963, 3599, 5557, 15, 5542, 0, 8963],
                [487, 5, 29410, 22649, 7243, 1373, 5870, 0, 29410],
            ],
            tlb: [[2_581, 9], [21_812, 28]],
        },
        SystemKind::Stramash => Fingerprint {
            runtime: 8_321_804,
            messages: 1010,
            kv_checksum: 0xf7f7_d41e_5183_3d65,
            levels: [
                [218, 25, 5367, 2889, 2671, 0, 2671, 0, 5367],
                [487, 5, 26136, 21130, 5488, 1466, 4022, 0, 26136],
            ],
            tlb: [[2_581, 9], [21_813, 27]],
        },
    }
}

#[test]
fn simulated_timing_matches_recorded_goldens() {
    for kind in SystemKind::ALL {
        let got = fingerprint(kind);
        assert_eq!(got, golden(kind), "{kind}: simulated timing drifted from the golden record");
    }
}

/// Captures what the serving scenario is allowed to influence: total
/// simulated runtime, cross-kernel message totals, and the folded run
/// fingerprint of every per-request latency.
fn serve_fingerprint(kind: SystemKind) -> (u64, u64, u64) {
    use stramash_repro::workloads::serve::{run_serve, ServeConfig};
    let cfg = ServeConfig {
        workers: 4,
        connections: 16,
        window: 4,
        requests: 300,
        offered_load: 8.0,
        keyspace: 128,
        ..ServeConfig::default()
    };
    let mut sys = TargetSystem::build(kind, HardwareModel::Shared).unwrap();
    let r = run_serve(&mut sys, &cfg).unwrap();
    assert_eq!(r.completed, cfg.requests, "{kind}: every request must complete");
    (sys.runtime().raw(), sys.base().msg.counters().total(), r.fingerprint)
}

/// The recorded serving goldens — `(runtime, messages, fingerprint)`
/// for the fixed [`serve_fingerprint`] configuration.
fn serve_golden(kind: SystemKind) -> (u64, u64, u64) {
    match kind {
        SystemKind::Vanilla => (3_900_732, 600, 0x0dc7_532d_a039_17e9),
        SystemKind::PopcornTcp => (50_942_188, 640, 0xa3c5_042b_6715_0e7f),
        SystemKind::PopcornShm => (6_002_505, 640, 0x977b_21b8_90d2_da73),
        SystemKind::Stramash => (4_870_418, 608, 0x380f_3e1d_d270_ef03),
    }
}

#[test]
fn serving_scenario_matches_recorded_goldens() {
    for kind in SystemKind::ALL {
        assert_eq!(
            serve_fingerprint(kind),
            serve_golden(kind),
            "{kind}: serving timing or messaging drifted from the golden record"
        );
    }
}

/// Regeneration helper — prints the current fingerprints in the exact
/// shape of [`golden`].
#[test]
#[ignore = "golden regeneration helper, run manually"]
fn print_goldens() {
    for kind in SystemKind::ALL {
        let f = fingerprint(kind);
        println!("SystemKind::{kind:?} => Fingerprint {{");
        println!("    runtime: {},", f.runtime);
        println!("    messages: {},", f.messages);
        println!("    kv_checksum: {:#x},", f.kv_checksum);
        println!("    levels: [{:?}, {:?}],", f.levels[0], f.levels[1]);
        println!("    tlb: [{:?}, {:?}],", f.tlb[0], f.tlb[1]);
        println!("}},");
    }
    for kind in SystemKind::ALL {
        let (runtime, messages, fp) = serve_fingerprint(kind);
        println!("SystemKind::{kind:?} => ({runtime}, {messages}, {fp:#018x}),");
    }
}
