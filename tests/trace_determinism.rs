//! Determinism contract for the event tracer (`sim::trace`).
//!
//! The tracer is a passive observer: it must never change a simulated
//! cycle, and the stream it records must be a pure function of the
//! simulated execution. Pinned here,
//! on the same fixed workload as `tests/golden_stats.rs` (NPB IS Tiny +
//! 500 KV sets, all four [`SystemKind`]s):
//!
//! 1. Installing a tracer leaves the golden fingerprint untouched.
//! 2. Two same-seed runs emit byte-identical event streams.
//! 3. [`reconstruct_domain_stats`] rebuilds the end-of-run
//!    `DomainStats::report` blocks — including `Runtime` — from the
//!    stream alone.
//! 4. Data-dependent plan segments (the batched client pipeline) are
//!    cycle-identical to the explicit scalar loop on randomised
//!    gather/scatter cases, and their streams agree class by class with
//!    the accounting totals conserved.

use stramash_repro::kernel::system::OsSystem;
use stramash_repro::prelude::*;
use stramash_repro::sim::rng::SimRng;
use stramash_repro::sim::trace::{reconstruct_domain_stats, shared_tracer, EventClass, TraceEvent};
use stramash_repro::workloads::kvstore::{run_kv, KvOp};
use stramash_repro::workloads::npb::{run_npb, Class, NpbKind};
use stramash_repro::workloads::target::{SystemKind, TargetSystem};
use stramash_repro::workloads::{ColSpec, IndexedPlan, MemoryClient, PlanCol};

/// Large enough that no run drops an event — a lossy ring would make
/// both the stream comparisons and the reconstruction meaningless.
const RING_CAPACITY: usize = 1 << 20;

/// The golden-stats fingerprint, duplicated here because integration
/// tests cannot share items (and drifting from `golden_stats.rs` would
/// itself be a finding).
#[derive(Debug, Clone, PartialEq, Eq)]
struct Fingerprint {
    runtime: u64,
    messages: u64,
    kv_checksum: u64,
    levels: [[u64; 9]; 2],
    tlb: [[u64; 2]; 2],
}

/// What a traced run yields beyond the fingerprint.
struct Traced {
    events: Vec<TraceEvent>,
    /// Live `DomainStats::report` blocks, captured after
    /// `sync_runtime_stats` so `Runtime:` reflects the domain clocks.
    live_reports: [String; 2],
}

/// Runs the fixed workload, optionally under a tracer. The tracer is
/// installed before `spawn` so the stream covers every `Charge` /
/// `Retire` the clocks ever see — that is what makes the reconstructed
/// runtime exact rather than approximate.
fn run(kind: SystemKind, traced: bool) -> (Fingerprint, Option<Traced>) {
    let mut sys = TargetSystem::build(kind, HardwareModel::Shared).unwrap();
    let tracer = traced.then(|| {
        let t = shared_tracer(RING_CAPACITY);
        sys.install_tracer(t.clone());
        t
    });
    let pid = sys.spawn(DomainId::X86).unwrap();
    let npb = run_npb(NpbKind::Is, &mut sys, pid, Class::Tiny, kind.migrates()).unwrap();
    assert!(npb.verified, "{kind}: NPB IS failed verification");
    let kv = run_kv(&mut sys, KvOp::Set, 500, 64).unwrap();
    sys.base_mut().sync_runtime_stats();
    let fingerprint = fingerprint_of(&sys, kv.checksum);
    let capture = tracer.map(|t| {
        let t = t.borrow();
        assert_eq!(t.dropped(), 0, "{kind}: the ring must be lossless for this workload");
        Traced {
            events: t.events(),
            live_reports: [DomainId::X86, DomainId::ARM]
                .map(|d| sys.base().mem.stats(d).report(&d.to_string())),
        }
    });
    (fingerprint, capture)
}

/// The end-of-run fingerprint of `sys`.
fn fingerprint_of(sys: &TargetSystem, kv_checksum: u64) -> Fingerprint {
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
        kv_checksum,
        levels,
        tlb,
    }
}

/// Asserts two streams are identical, reporting the first divergence
/// instead of dumping both vectors.
fn assert_streams_identical(a: &[TraceEvent], b: &[TraceEvent], ctx: &str) {
    if let Some(i) = a.iter().zip(b.iter()).position(|(x, y)| x != y) {
        panic!("{ctx}: streams diverge at event {i}:\n  left:  {:?}\n  right: {:?}", a[i], b[i]);
    }
    assert_eq!(a.len(), b.len(), "{ctx}: one stream is a prefix of the other");
}

#[test]
fn tracing_does_not_change_the_fingerprint() {
    for kind in SystemKind::ALL {
        let (untraced, _) = run(kind, false);
        let (traced, capture) = run(kind, true);
        assert_eq!(untraced, traced, "{kind}: installing a tracer changed simulated timing");
        assert!(!capture.unwrap().events.is_empty(), "{kind}: traced run recorded nothing");
    }
}

#[test]
fn same_seed_runs_emit_identical_streams() {
    for kind in SystemKind::ALL {
        let (fa, a) = run(kind, true);
        let (fb, b) = run(kind, true);
        assert_eq!(fa, fb, "{kind}: same-seed runs disagree on the fingerprint");
        assert_streams_identical(
            &a.unwrap().events,
            &b.unwrap().events,
            &format!("{kind}: same-seed runs"),
        );
    }
}

#[test]
fn reconstructed_reports_match_the_live_system() {
    for kind in SystemKind::ALL {
        let (_, capture) = run(kind, true);
        let capture = capture.unwrap();
        let rebuilt = reconstruct_domain_stats(&capture.events);
        for d in DomainId::ALL {
            assert_eq!(
                rebuilt[d.index()].report(&d.to_string()),
                capture.live_reports[d.index()],
                "{kind}/{d}: report reconstructed from the stream drifted from the live stats"
            );
        }
    }
}

/// How a run drives the client pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Mode {
    /// The explicit loop of scalar client ops that plan segments must
    /// reproduce exactly.
    Scalar,
    /// Data-dependent plan segments (the default pipeline).
    Batched,
}

/// One randomized indexed gather/scatter workload: per domain, a
/// value-dependent histogram (the bucket target is the loaded key) and
/// two gathers through the *same* compiled plan with different index
/// slices — the recompute-per-call property that distinguishes
/// data-dependent segments from dense plans.
fn indexed_case(
    kind: SystemKind,
    mode: Mode,
    seed: u64,
) -> (Fingerprint, Vec<TraceEvent>) {
    let mut sys = TargetSystem::build(kind, HardwareModel::Shared).unwrap();
    let tracer = shared_tracer(RING_CAPACITY);
    sys.install_tracer(tracer.clone());

    let mut rng = SimRng::new(seed);
    let elems = 300 + rng.gen_range(300);
    let buckets = 24 + rng.gen_range(40);
    let keys_data: Vec<u64> = (0..elems).map(|_| rng.gen_range(buckets)).collect();
    let idx_a: Vec<u64> = (0..elems).map(|_| rng.gen_range(buckets)).collect();
    let idx_b: Vec<u64> = (0..elems).map(|_| rng.gen_range(buckets)).collect();

    let dense = ColSpec::Dense { stride: 1, offset: 0 };
    let bucket = ColSpec::Value { col: 0, offset: 0 };
    let gather = ColSpec::Index { slice: 0, offset: 0 };
    let mut checksum = 0u64;

    struct Side {
        pid: stramash_repro::kernel::process::Pid,
        keys: stramash_repro::workloads::ArrayU64,
        hist: stramash_repro::workloads::ArrayU64,
        out: stramash_repro::workloads::ArrayU64,
        hist_plan: IndexedPlan,
        gather_plan: IndexedPlan,
    }
    let mut sides = Vec::new();
    for d in DomainId::ALL {
        let pid = sys.spawn(d).unwrap();
        let mut c = MemoryClient::new(&mut sys, pid);
        let keys = c.alloc_u64(elems).unwrap();
        let hist = c.alloc_u64(buckets).unwrap();
        let out = c.alloc_u64(elems).unwrap();
        if mode == Mode::Scalar {
            for (i, &k) in keys_data.iter().enumerate() {
                c.st_u64(keys, i as u64, k).unwrap();
            }
            for i in 0..buckets {
                c.st_u64(hist, i, 0).unwrap();
                c.work(2).unwrap();
            }
        } else {
            let mut s = c.batch().unwrap();
            for (i, &k) in keys_data.iter().enumerate() {
                s.st_u64(keys, i as u64, k).unwrap();
            }
            s.fill_u64(hist, 0, buckets, 0, 2).unwrap();
        }
        sides.push(Side {
            pid,
            keys,
            hist,
            out,
            hist_plan: IndexedPlan::new(),
            gather_plan: IndexedPlan::new(),
        });
    }
    for pass in 0..2 {
        for side in &mut sides {
            let mut c = MemoryClient::new(&mut sys, side.pid);
            // Same compiled plan, different index slice per pass.
            let idx: &[u64] = if pass == 0 { &idx_a } else { &idx_b };
            if mode == Mode::Scalar {
                for i in 0..elems {
                    let b = c.ld_u64(side.keys, i).unwrap();
                    let count = c.ld_u64(side.hist, b).unwrap();
                    c.st_u64(side.hist, b, count + 1).unwrap();
                    c.work(6).unwrap();
                }
                for i in 0..elems {
                    let v = c.ld_u64(side.hist, idx[i as usize]).unwrap();
                    checksum = checksum.wrapping_mul(1_000_003).wrapping_add(v ^ i);
                    c.st_u64(side.out, i, v).unwrap();
                    c.work(4).unwrap();
                }
            } else {
                let mut s = c.batch().unwrap();
                s.plan_map_indexed(
                    &mut side.hist_plan,
                    &[PlanCol::u64(side.keys, dense), PlanCol::u64(side.hist, bucket)],
                    &[PlanCol::u64(side.hist, bucket)],
                    &[],
                    elems,
                    6,
                    |_, rv, wv| wv[0] = rv[1] + 1,
                )
                .unwrap();
                s.plan_map_indexed(
                    &mut side.gather_plan,
                    &[PlanCol::u64(side.hist, gather)],
                    &[PlanCol::u64(side.out, dense)],
                    &[idx],
                    elems,
                    4,
                    |i, rv, wv| {
                        wv[0] = rv[0];
                        checksum = checksum.wrapping_mul(1_000_003).wrapping_add(rv[0] ^ i);
                    },
                )
                .unwrap();
            }
            c.flush_work().unwrap();
        }
    }
    let fp = fingerprint_of(&sys, checksum);
    let t = tracer.borrow();
    assert_eq!(t.dropped(), 0, "{kind}: the ring must be lossless for this workload");
    (fp, t.events())
}

/// Per-domain `(retired instructions, charged cycles)` totals — what
/// the `Accounting` event class must conserve when batching coalesces
/// `Charge`/`Retire` funnels.
fn accounting_totals(events: &[TraceEvent]) -> ([u64; 2], [u64; 2]) {
    let mut insns = [0u64; 2];
    let mut charged = [0u64; 2];
    for ev in events {
        match *ev {
            TraceEvent::Retire { domain, insns: n } => insns[domain.index()] += n,
            TraceEvent::Charge { domain, cost } => charged[domain.index()] += cost.raw(),
            _ => {}
        }
    }
    (insns, charged)
}

/// Property: for randomized key/index distributions, data-dependent
/// plan segments are cycle- and trace-identical to the scalar
/// per-access loop, with the tracer on. Seeds are fixed so any failure
/// replays exactly.
#[test]
fn indexed_plan_segments_match_scalar_for_random_cases() {
    for kind in SystemKind::ALL {
        for seed in [0x1d0_5eed, 0x2d0_5eed, 0x3d0_5eed] {
            let (scalar_fp, scalar_ev) = indexed_case(kind, Mode::Scalar, seed);
            let (batched_fp, batched_ev) = indexed_case(kind, Mode::Batched, seed);
            assert_eq!(
                scalar_fp, batched_fp,
                "{kind}/{seed:#x}: plan segments drifted from the scalar loop"
            );
            // Batching may coalesce Charge/Retire funnels; every other
            // event class must match the scalar stream exactly, and the
            // accounting totals must be conserved.
            for class in EventClass::ALL {
                if class == EventClass::Accounting {
                    continue;
                }
                let lhs: Vec<_> =
                    batched_ev.iter().copied().filter(|e| e.class() == class).collect();
                let rhs: Vec<_> =
                    scalar_ev.iter().copied().filter(|e| e.class() == class).collect();
                assert_streams_identical(
                    &lhs,
                    &rhs,
                    &format!("{kind}/{seed:#x}: segments vs scalar, {class:?}"),
                );
            }
            assert_eq!(
                accounting_totals(&batched_ev),
                accounting_totals(&scalar_ev),
                "{kind}/{seed:#x}: accounting totals drifted"
            );
        }
    }
}
