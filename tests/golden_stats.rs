//! Golden-stats regression test for the simulated-memory hot path.
//!
//! A fixed-seed NPB IS run plus a KV-store run, for all four
//! [`SystemKind`]s, pinning the **exact** simulated runtime, per-level
//! cache hit counters, memory-access counts and message totals; and
//! each of CG, MG and FT on its own, pinning the same counters plus
//! replicated pages and the kernel's checksum. The
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

#![deny(unsafe_code)]

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

/// Per-domain per-level cache counters (see [`Fingerprint::levels`])
/// and `[tlb_hits, tlb_misses]`.
fn cache_and_tlb_counters(sys: &TargetSystem) -> ([[u64; 9]; 2], [[u64; 2]; 2]) {
    let stats = [DomainId::X86, DomainId::ARM].map(|d| *sys.base().mem.stats(d));
    let levels = stats.map(|s| {
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
    (levels, stats.map(|s| [s.tlb_hits, s.tlb_misses]))
}

/// Runs the fixed workload on a fresh system and captures the stats.
fn fingerprint(kind: SystemKind) -> Fingerprint {
    let mut sys = TargetSystem::build(kind, HardwareModel::Shared).unwrap();
    let pid = sys.spawn(DomainId::X86).unwrap();
    let npb = run_npb(NpbKind::Is, &mut sys, pid, Class::Tiny, kind.migrates()).unwrap();
    assert!(npb.verified, "{kind}: NPB IS failed verification");
    let kv = run_kv(&mut sys, KvOp::Set, 500, 64).unwrap();
    let (levels, tlb) = cache_and_tlb_counters(&sys);
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

/// What one NPB Tiny run is allowed to influence, captured exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
struct NpbFingerprint {
    /// Total simulated runtime in cycles.
    runtime: u64,
    /// Cross-kernel messages sent.
    messages: u64,
    /// Pages the design replicated for the process.
    replicated: u64,
    /// The kernel's functional checksum, as `f64` bits.
    checksum: u64,
    /// Per-domain per-level counters, as in [`Fingerprint::levels`].
    levels: [[u64; 9]; 2],
    /// Per-domain `[tlb_hits, tlb_misses]`.
    tlb: [[u64; 2]; 2],
}

/// Runs NPB `npb` at Tiny class on a fresh `kind` system.
fn npb_fingerprint(npb: NpbKind, kind: SystemKind) -> NpbFingerprint {
    let mut sys = TargetSystem::build(kind, HardwareModel::Shared).unwrap();
    let pid = sys.spawn(DomainId::X86).unwrap();
    let out = run_npb(npb, &mut sys, pid, Class::Tiny, kind.migrates()).unwrap();
    assert!(out.verified, "{kind}: NPB {npb} failed verification");
    let (levels, tlb) = cache_and_tlb_counters(&sys);
    NpbFingerprint {
        runtime: sys.runtime().raw(),
        messages: sys.base().msg.counters().total(),
        replicated: sys.replicated_pages(pid),
        checksum: out.checksum.to_bits(),
        levels,
        tlb,
    }
}

/// The NPB kernels whose plan segments IS does not cover: CG's dense
/// nests, MG's stencils (including the zero-read boundary pass) and
/// FT's four-column butterflies.
const PLAN_KERNELS: [NpbKind; 3] = [NpbKind::Cg, NpbKind::Mg, NpbKind::Ft];

/// The recorded NPB goldens (HardwareModel::Shared, Tiny class).
fn npb_golden(npb: NpbKind, kind: SystemKind) -> NpbFingerprint {
    match (npb, kind) {
        (NpbKind::Cg, SystemKind::Vanilla) => NpbFingerprint {
            runtime: 363_616,
            messages: 0,
            replicated: 0,
            checksum: 0x3ec3_dfe7_f174_20f5,
            levels: [
                [575, 63, 18_721, 17_985, 1248, 440, 808, 0, 18_721],
                [0, 0, 0, 0, 0, 0, 0, 0, 0],
            ],
            tlb: [[18_551, 10], [0, 0]],
        },
        (NpbKind::Cg, SystemKind::PopcornTcp) => NpbFingerprint {
            runtime: 4_943_008,
            messages: 54,
            replicated: 9,
            checksum: 0x3ec3_dfe7_f174_20f5,
            levels: [
                [155, 5, 2968, 2280, 838, 89, 749, 0, 2968],
                [456, 0, 17_320, 16_335, 1441, 402, 1039, 0, 17_320],
            ],
            tlb: [[2168, 9], [16_345, 39]],
        },
        (NpbKind::Cg, SystemKind::PopcornShm) => NpbFingerprint {
            runtime: 2_056_461,
            messages: 54,
            replicated: 9,
            checksum: 0x3ec3_dfe7_f174_20f5,
            levels: [
                [155, 5, 3830, 2249, 1731, 146, 1585, 0, 3830],
                [456, 0, 18_182, 16_170, 2468, 573, 1895, 0, 18_182],
            ],
            tlb: [[2168, 9], [16_345, 39]],
        },
        (NpbKind::Cg, SystemKind::Stramash) => NpbFingerprint {
            runtime: 975_156,
            messages: 16,
            replicated: 0,
            checksum: 0x3ec3_dfe7_f174_20f5,
            levels: [
                [155, 5, 2597, 2093, 654, 2, 652, 0, 2597],
                [456, 0, 16_994, 15_970, 1480, 508, 972, 0, 16_994],
            ],
            tlb: [[2168, 9], [16_348, 36]],
        },
        (NpbKind::Mg, SystemKind::Vanilla) => NpbFingerprint {
            runtime: 397_256,
            messages: 0,
            replicated: 0,
            checksum: 0x3f95_eaf8_4992_9ded,
            levels: [
                [902, 390, 29_474, 29_260, 726, 0, 726, 0, 29_474],
                [0, 0, 0, 0, 0, 0, 0, 0, 0],
            ],
            tlb: [[29_389, 5], [0, 0]],
        },
        (NpbKind::Mg, SystemKind::PopcornTcp) => NpbFingerprint {
            runtime: 3_288_339,
            messages: 34,
            replicated: 7,
            checksum: 0x3f95_eaf8_4992_9ded,
            levels: [
                [214, 0, 7097, 6770, 541, 1, 540, 0, 7097],
                [708, 201, 23_456, 23_129, 834, 1, 833, 0, 23_456],
            ],
            tlb: [[6524, 6], [22_853, 11]],
        },
        (NpbKind::Mg, SystemKind::PopcornShm) => NpbFingerprint {
            runtime: 1_551_024,
            messages: 34,
            replicated: 7,
            checksum: 0x3f95_eaf8_4992_9ded,
            levels: [
                [214, 0, 7699, 6638, 1275, 149, 1126, 0, 7699],
                [708, 201, 24_058, 23_120, 1445, 14, 1431, 0, 24_058],
            ],
            tlb: [[6524, 6], [22_853, 11]],
        },
        (NpbKind::Mg, SystemKind::Stramash) => NpbFingerprint {
            runtime: 817_037,
            messages: 8,
            replicated: 0,
            checksum: 0x3f95_eaf8_4992_9ded,
            levels: [
                [214, 0, 6729, 6320, 623, 0, 623, 0, 6729],
                [708, 201, 23_143, 22_793, 857, 45, 812, 0, 23_143],
            ],
            tlb: [[6524, 6], [22_854, 10]],
        },
        (NpbKind::Ft, SystemKind::Vanilla) => NpbFingerprint {
            runtime: 557_036,
            messages: 0,
            replicated: 0,
            checksum: 0xc014_1849_cbbe_f633,
            levels: [
                [2109, 1597, 55_328, 55_195, 645, 0, 645, 0, 55_328],
                [0, 0, 0, 0, 0, 0, 0, 0, 0],
            ],
            tlb: [[55_294, 2], [0, 0]],
        },
        (NpbKind::Ft, SystemKind::PopcornTcp) => NpbFingerprint {
            runtime: 2_059_960,
            messages: 18,
            replicated: 4,
            checksum: 0xc014_1849_cbbe_f633,
            levels: [
                [179, 69, 2392, 2259, 243, 0, 243, 0, 2392],
                [1938, 1426, 53_602, 53_469, 645, 0, 645, 0, 53_602],
            ],
            tlb: [[2044, 4], [53_244, 4]],
        },
        (NpbKind::Ft, SystemKind::PopcornShm) => NpbFingerprint {
            runtime: 1_160_290,
            messages: 18,
            replicated: 4,
            checksum: 0xc014_1849_cbbe_f633,
            levels: [
                [179, 69, 2726, 2258, 578, 9, 569, 0, 2726],
                [1938, 1426, 53_936, 53_471, 977, 0, 977, 0, 53_936],
            ],
            tlb: [[2044, 4], [53_244, 4]],
        },
        (NpbKind::Ft, SystemKind::Stramash) => NpbFingerprint {
            runtime: 840_506,
            messages: 4,
            replicated: 0,
            checksum: 0xc014_1849_cbbe_f633,
            levels: [
                [179, 69, 2151, 1836, 425, 0, 425, 0, 2151],
                [1938, 1426, 53_351, 53_144, 719, 12, 707, 0, 53_351],
            ],
            tlb: [[2044, 4], [53_246, 2]],
        },
        (npb, _) => unreachable!("no golden recorded for NPB {npb}"),
    }
}

#[test]
fn npb_plan_kernels_match_recorded_goldens() {
    for npb in PLAN_KERNELS {
        for kind in SystemKind::ALL {
            assert_eq!(
                npb_fingerprint(npb, kind),
                npb_golden(npb, kind),
                "{npb} on {kind}: simulated results drifted from the golden record"
            );
        }
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
    for npb in PLAN_KERNELS {
        for kind in SystemKind::ALL {
            let f = npb_fingerprint(npb, kind);
            println!("(NpbKind::{npb:?}, SystemKind::{kind:?}) => NpbFingerprint {{");
            println!("    runtime: {},", f.runtime);
            println!("    messages: {},", f.messages);
            println!("    replicated: {},", f.replicated);
            println!("    checksum: {:#x},", f.checksum);
            println!("    levels: [{:?}, {:?}],", f.levels[0], f.levels[1]);
            println!("    tlb: [{:?}, {:?}],", f.tlb[0], f.tlb[1]);
            println!("}},");
        }
    }
    for kind in SystemKind::ALL {
        let (runtime, messages, fp) = serve_fingerprint(kind);
        println!("SystemKind::{kind:?} => ({runtime}, {messages}, {fp:#018x}),");
    }
}
