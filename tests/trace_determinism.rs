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
//!    stream alone, and [`render_phase_report`] rebuilds the per-phase
//!    table that `BaseSystem::phases` keeps as counter snapshots. The
//!    snapshots need no ring: a wrapped one leaves them unchanged.
//! 4. Data-dependent plan segments (the batched client pipeline) are
//!    cycle-identical to the explicit scalar loop on randomised
//!    gather/scatter cases and on the edges of in-place timing (no read
//!    column, FT's four-by-four butterfly, a fault that ends a flush
//!    window, flush windows that start off the `work_per` grid), and
//!    their streams agree class by class with the accounting totals and
//!    both domain clocks conserved.
//! 5. `chrome_trace_json` prints byte for byte what the `write!`-based
//!    exporter it replaced printed, kept here as its oracle.

#![deny(unsafe_code)]

use stramash_repro::kernel::system::OsSystem;
use stramash_repro::prelude::*;
use stramash_repro::sim::rng::SimRng;
use stramash_repro::sim::trace::{
    chrome_trace_json, reconstruct_domain_stats, render_phase_report, shared_tracer, EventClass,
    FutexOp, MsgType, SharedTracer, TraceEvent, TraceLevel, TraceMemClass, TraceMesi,
};
use stramash_repro::sim::{render_phases, Clock};
use stramash_repro::workloads::kvstore::{run_kv, KvOp};
use stramash_repro::workloads::npb::{run_npb, Class, NpbKind};
use stramash_repro::workloads::target::{SystemKind, TargetSystem};
use stramash_repro::workloads::{ColSpec, MemoryClient, PlanCol};

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

/// NPB IS Tiny with migration on `kind`, traced from boot into a ring
/// of `capacity` events.
fn traced_is(kind: SystemKind, capacity: usize) -> (TargetSystem, SharedTracer) {
    let mut sys = TargetSystem::build(kind, HardwareModel::Shared).unwrap();
    let tracer = shared_tracer(capacity);
    sys.install_tracer(tracer.clone());
    let pid = sys.spawn(DomainId::X86).unwrap();
    assert!(run_npb(NpbKind::Is, &mut sys, pid, Class::Tiny, true).unwrap().verified);
    (sys, tracer)
}

#[test]
fn snapshot_phases_match_the_stream_phase_report() {
    for kind in [SystemKind::Stramash, SystemKind::PopcornShm, SystemKind::PopcornTcp] {
        let (sys, tracer) = traced_is(kind, RING_CAPACITY);
        let t = tracer.borrow();
        assert_eq!(t.dropped(), 0, "{kind}: the oracle needs the whole stream");
        let phases = sys.base().phases();
        assert!(phases.len() > 1, "{kind}: IS must migrate");
        assert_eq!(
            render_phases(&phases),
            render_phase_report(&t.events()),
            "{kind}: snapshot phases drifted from the stream's"
        );
    }
}

/// A phase ends when the migration protocol hands the thread over, so
/// the destination's register transform lands in the phase that runs
/// there: the domain the thread is not on retires nothing.
#[test]
fn idle_domain_retires_nothing_in_any_phase() {
    for kind in [SystemKind::Stramash, SystemKind::PopcornShm] {
        let (sys, tracer) = traced_is(kind, RING_CAPACITY);
        let events = tracer.borrow().events();
        // Phase 0 runs on the spawn domain, phase i on the i-th
        // migration's destination.
        let running: Vec<DomainId> = std::iter::once(DomainId::X86)
            .chain(events.iter().filter_map(|ev| match *ev {
                TraceEvent::Migration { to, .. } => Some(to),
                _ => None,
            }))
            .collect();
        let phases = sys.base().phases();
        assert_eq!(phases.len(), running.len(), "{kind}");
        for (i, (phase, on)) in phases.iter().zip(&running).enumerate() {
            let idle = on.other();
            assert!(
                phase[on.index()].instructions > 0,
                "{kind}: phase {i} retired nothing on {on}"
            );
            assert_eq!(
                phase[idle.index()].instructions,
                0,
                "{kind}: phase {i}: idle {idle} retired instructions"
            );
        }
        assert_eq!(render_phases(&phases), render_phase_report(&events), "{kind}: stream oracle");
    }
}

#[test]
fn snapshot_phases_survive_a_wrapped_ring() {
    let (whole, tracer) = traced_is(SystemKind::Stramash, RING_CAPACITY);
    let migrations = tracer
        .borrow()
        .events()
        .iter()
        .filter(|ev| matches!(ev, TraceEvent::Migration { .. }))
        .count();
    let (sys, tracer) = traced_is(SystemKind::Stramash, 1024);
    assert!(tracer.borrow().dropped() > 0, "a 1 024-event ring must wrap");
    let phases = sys.base().phases();
    assert_eq!(phases.len(), migrations + 1);
    assert_eq!(phases, whole.base().phases());
    for d in DomainId::ALL {
        let clock = sys.base().timebase.clock(d);
        let insns: u64 = phases.iter().map(|p| p[d.index()].instructions).sum();
        let runtime: u64 = phases.iter().map(|p| p[d.index()].runtime.raw()).sum();
        assert_eq!(insns, clock.icount(), "{d}: instructions");
        assert_eq!(runtime, clock.cycles().raw(), "{d}: runtime");
    }
}

/// The `write!`-based Chrome exporter `chrome_trace_json` replaced, kept
/// verbatim as its byte-for-byte oracle.
fn chrome_trace_json_fmt(events: &[TraceEvent]) -> String {
    use std::fmt::Write as _;
    let mut now = [0u64; 2];
    let mut s = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
    let mut first = true;
    for ev in events {
        let d = ev.domain().index();
        let (ph, dur) = match *ev {
            TraceEvent::Charge { cost, .. } => ("X", Some(cost.raw())),
            TraceEvent::Retire { insns, .. } => ("X", Some(insns)),
            _ => ("i", None),
        };
        if !first {
            s.push_str(",\n");
        }
        first = false;
        let _ = write!(
            s,
            "{{\"name\":\"{}\",\"cat\":\"{:?}\",\"ph\":\"{}\",\"pid\":{},\"tid\":{},\"ts\":{}",
            ev.name(),
            ev.class(),
            ph,
            d,
            d,
            now[d]
        );
        if let Some(dur) = dur {
            let _ = write!(s, ",\"dur\":{dur}");
            now[d] += dur;
        } else {
            s.push_str(",\"s\":\"t\"");
        }
        s.push('}');
    }
    s.push_str("\n]}\n");
    s
}

/// Asserts the exporter matches the oracle, reporting the first
/// differing line instead of two multi-megabyte strings.
fn assert_export_matches_oracle(events: &[TraceEvent], ctx: &str) {
    let (fast, oracle) = (chrome_trace_json(events), chrome_trace_json_fmt(events));
    if let Some((i, (a, b))) =
        fast.lines().zip(oracle.lines()).enumerate().find(|(_, (a, b))| a != b)
    {
        panic!("{ctx}: Chrome export differs from the oracle at line {i}:\n  got:    {a}\n  oracle: {b}");
    }
    assert!(
        fast == oracle,
        "{ctx}: Chrome export differs from the oracle in length or line endings"
    );
}

#[test]
fn chrome_export_matches_the_fmt_oracle_on_every_variant() {
    let (x86, arm) = (DomainId::X86, DomainId::ARM);
    let big = u64::MAX / 2;
    let events = [
        TraceEvent::Charge { domain: x86, cost: Cycles::ZERO },
        TraceEvent::Retire { domain: arm, insns: 0 },
        TraceEvent::CacheAccess {
            domain: x86,
            addr: 0x40,
            write: true,
            ifetch: false,
            level: TraceLevel::Memory,
            class: Some(TraceMemClass::RemoteShared),
            snooped: true,
            cost: Cycles::new(300),
        },
        TraceEvent::CacheEvict { domain: arm, addr: 0x80, dirty: true },
        TraceEvent::Snoop { domain: x86, addr: 0xc0, invalidate: false },
        TraceEvent::MesiTransition {
            domain: arm,
            addr: 0xc0,
            from: TraceMesi::Modified,
            to: TraceMesi::Shared,
        },
        TraceEvent::TlbLookup { domain: x86, hit: true },
        TraceEvent::TlbInvalidate { domain: arm, va: 0x7000 },
        TraceEvent::Retire { domain: x86, insns: 12_345 },
        TraceEvent::MsgSend {
            from: x86,
            ty: MsgType::MigrationRequest,
            bytes: 4160,
            cost: Cycles::new(90),
        },
        TraceEvent::MsgReceive {
            to: arm,
            ty: MsgType::MigrationRequest,
            bytes: 4160,
            cost: Cycles::new(80),
        },
        TraceEvent::MsgRetransmit { from: arm, ty: MsgType::Heartbeat, attempt: 3 },
        TraceEvent::MsgBackpressure { from: x86 },
        TraceEvent::Ipi { from: arm, cost: Cycles::new(4200) },
        TraceEvent::Charge { domain: arm, cost: Cycles::new(big) },
        TraceEvent::PageFault { domain: arm, va: 0xdead_b000, write: false, cost: Cycles::new(7) },
        TraceEvent::Migration { from: x86, to: arm },
        TraceEvent::Futex { domain: x86, op: FutexOp::Wait, va: 0x1008 },
        TraceEvent::DsmReplicate { to: arm, page_va: 0x2000 },
        TraceEvent::DsmInvalidate { to: x86, page_va: 0x2000 },
        TraceEvent::DsmTransfer { from: arm, to: x86, bytes: 4096, cost: Cycles::new(157_500) },
        TraceEvent::Retire { domain: x86, insns: big },
        TraceEvent::Watchdog { domain: arm, missed: 4 },
        TraceEvent::Recovery { domain: arm, stage: "quarantine" },
        TraceEvent::Checkpoint { domain: x86, bytes: 1 << 20 },
    ];
    assert_eq!(
        events.iter().map(TraceEvent::name).collect::<std::collections::BTreeSet<_>>().len(),
        22,
        "the synthetic stream must hold every TraceEvent variant"
    );
    assert_export_matches_oracle(&events, "synthetic stream");
    assert_export_matches_oracle(&[], "empty stream");
}

#[test]
fn chrome_export_matches_the_fmt_oracle_on_is_tiny() {
    for kind in [SystemKind::Stramash, SystemKind::PopcornShm] {
        let (_, tracer) = traced_is(kind, RING_CAPACITY);
        let t = tracer.borrow();
        assert_eq!(t.dropped(), 0, "{kind}: the oracle check wants the whole stream");
        assert_export_matches_oracle(&t.events(), &format!("{kind}: IS Tiny"));
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
fn indexed_case(kind: SystemKind, mode: Mode, seed: u64) -> (Fingerprint, Vec<TraceEvent>) {
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
            let clear = PlanCol::u64(hist, dense);
            s.plan_map_indexed(&[], &[clear], &[], buckets, 2, |_, _, wv| wv[0] = 0).unwrap();
        }
        sides.push(Side { pid, keys, hist, out });
    }
    for pass in 0..2 {
        for side in &sides {
            let mut c = MemoryClient::new(&mut sys, side.pid);
            // Same segments, different index slice per pass.
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
                    &[PlanCol::u64(side.keys, dense), PlanCol::u64(side.hist, bucket)],
                    &[PlanCol::u64(side.hist, bucket)],
                    &[],
                    elems,
                    6,
                    |_, rv, wv| wv[0] = rv[1] + 1,
                )
                .unwrap();
                s.plan_map_indexed(
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

/// Asserts that a plan-segment run reproduces its scalar loop: the
/// same fingerprint, every non-`Accounting` event class identical in
/// order, and the accounting totals conserved (batching may coalesce
/// `Charge`/`Retire` funnels).
fn assert_segments_match_scalar<F: PartialEq + std::fmt::Debug>(
    ctx: &str,
    (scalar_fp, scalar_ev): (F, Vec<TraceEvent>),
    (batched_fp, batched_ev): (F, Vec<TraceEvent>),
) {
    assert_eq!(scalar_fp, batched_fp, "{ctx}: plan segments drifted from the scalar loop");
    for class in EventClass::ALL {
        if class == EventClass::Accounting {
            continue;
        }
        let lhs: Vec<_> = batched_ev.iter().copied().filter(|e| e.class() == class).collect();
        let rhs: Vec<_> = scalar_ev.iter().copied().filter(|e| e.class() == class).collect();
        assert_streams_identical(&lhs, &rhs, &format!("{ctx}: segments vs scalar, {class:?}"));
    }
    assert_eq!(
        accounting_totals(&batched_ev),
        accounting_totals(&scalar_ev),
        "{ctx}: accounting totals drifted"
    );
}

/// Property: for randomized key/index distributions, data-dependent
/// plan segments are cycle- and trace-identical to the scalar
/// per-access loop, with the tracer on. Seeds are fixed so any failure
/// replays exactly.
#[test]
fn indexed_plan_segments_match_scalar_for_random_cases() {
    for kind in SystemKind::ALL {
        for seed in [0x1d0_5eed, 0x2d0_5eed, 0x3d0_5eed] {
            assert_segments_match_scalar(
                &format!("{kind}/{seed:#x}"),
                indexed_case(kind, Mode::Scalar, seed),
                indexed_case(kind, Mode::Batched, seed),
            );
        }
    }
}

/// The segment shapes at the edges of in-place timing.
#[derive(Debug, Clone, Copy)]
enum Boundary {
    /// No read column: MG's boundary-clear shape, `out[idx[i]] = c`
    /// with no work per element.
    NoReads,
    /// Four reads and four writes through two index slices: FT's
    /// butterfly over `(re, im)` pairs.
    Butterfly,
    /// A page fault on the last element of a flush window: the window's
    /// pending cycles are charged before the element path runs, and
    /// the exec flush falls on that element.
    FaultEndsWindow,
    /// A dense copy entered with [`OFF_GRID_PENDING`] instructions
    /// pending and [`OFF_GRID_WORK`] per element: every flush window
    /// starts off the `work_per` grid, the segment crosses four exec
    /// flushes and a page boundary, and each window retires its work in
    /// one call.
    OffGridFlushes,
}

/// Elements per segment in the [`Boundary`] cases.
const BOUNDARY_ELEMS: u64 = 600;

/// Instructions per element of [`Boundary::FaultEndsWindow`]: with no
/// instructions pending, 64 elements of 64 reach the client's exec
/// flush quantum (4096), so the flush window is elements `0..64`.
const FAULT_WORK: u64 = 64;

/// Instructions pending when [`Boundary::OffGridFlushes`] starts: not a
/// multiple of [`OFF_GRID_WORK`].
const OFF_GRID_PENDING: u64 = 1000;

/// Instructions per element of [`Boundary::OffGridFlushes`]: it does
/// not divide the exec flush quantum (4096), and `1000 + 600 · 27`
/// crosses it four times.
const OFF_GRID_WORK: u64 = 27;

/// Runs one [`Boundary`] shape on a process per domain, as plan
/// segments or as the scalar loop they stand for. Yields the
/// fingerprint with both domain clocks, and the event stream.
fn boundary_case(
    kind: SystemKind,
    mode: Mode,
    shape: Boundary,
) -> ((Fingerprint, [Clock; 2]), Vec<TraceEvent>) {
    let mut sys = TargetSystem::build(kind, HardwareModel::Shared).unwrap();
    let tracer = shared_tracer(RING_CAPACITY);
    sys.install_tracer(tracer.clone());
    let mut rng = SimRng::new(0xb0_0dae);
    let n = BOUNDARY_ELEMS;
    let scatter: Vec<u64> = (0..n).map(|_| rng.gen_range(4 * n)).collect();
    // Disjoint butterfly pairs: slot `2k` pairs with slot `2k + 2n`.
    let pair_a: Vec<u64> = (0..n).map(|k| 2 * ((k * 7) % n)).collect();
    let pair_b: Vec<u64> = pair_a.iter().map(|&a| a + 2 * n).collect();
    let mut checksum = 0u64;
    for d in DomainId::ALL {
        let pid = sys.spawn(d).unwrap();
        let mut c = MemoryClient::new(&mut sys, pid);
        let data = c.alloc_u64(4 * n).unwrap();
        let out = c.alloc_u64(4 * n).unwrap();
        match shape {
            Boundary::NoReads => {
                let col = PlanCol::u64(out, ColSpec::Index { slice: 0, offset: 0 });
                for pass in 0..2u64 {
                    if mode == Mode::Scalar {
                        for &e in &scatter {
                            c.st_u64(out, e, pass + 7).unwrap();
                            c.work(0).unwrap();
                        }
                    } else {
                        let mut s = c.batch().unwrap();
                        s.plan_map_indexed(&[], &[col], &[&scatter], n, 0, |_, _, wv| {
                            wv[0] = pass + 7;
                        })
                        .unwrap();
                    }
                }
            }
            Boundary::Butterfly => {
                let at = |slice, offset| PlanCol::u64(data, ColSpec::Index { slice, offset });
                let ab = [at(0, 0), at(0, 1), at(1, 0), at(1, 1)];
                let butterfly = |rv: &[u64], wv: &mut [u64]| {
                    wv[0] = rv[0].wrapping_add(rv[2]);
                    wv[1] = rv[1].wrapping_add(rv[3]);
                    wv[2] = rv[0].wrapping_sub(rv[2]);
                    wv[3] = rv[1].wrapping_sub(rv[3]) ^ 5;
                };
                for pass in 0..2 {
                    if mode == Mode::Scalar {
                        for (&a, &b) in pair_a.iter().zip(&pair_b) {
                            let slots = [a, a + 1, b, b + 1];
                            let rv = slots.map(|e| c.ld_u64(data, e).unwrap());
                            let mut wv = [0u64; 4];
                            butterfly(&rv, &mut wv);
                            for (e, v) in slots.into_iter().zip(wv) {
                                c.st_u64(data, e, v).unwrap();
                            }
                            c.work(20 + pass).unwrap();
                        }
                    } else {
                        let mut s = c.batch().unwrap();
                        let idx: [&[u64]; 2] = [&pair_a, &pair_b];
                        s.plan_map_indexed(&ab, &ab, &idx, n, 20 + pass, |_, rv, wv| {
                            butterfly(rv, wv);
                        })
                        .unwrap();
                    }
                }
                for e in 0..4 * n {
                    checksum =
                        checksum.wrapping_mul(1_000_003).wrapping_add(c.ld_u64(data, e).unwrap());
                }
            }
            Boundary::FaultEndsWindow => {
                // Element `i` reads `data[i]` and writes `out[i + 449]`:
                // elements 0..63 write the tail of `out`'s first page,
                // which the prefix faults in, and element 63 — the last
                // of the first flush window — is the first to touch its
                // second page.
                let offset = 512 - (FAULT_WORK - 1);
                let read = PlanCol::u64(data, ColSpec::Dense { stride: 1, offset: 0 });
                let write = PlanCol::u64(out, ColSpec::Dense { stride: 1, offset });
                if mode == Mode::Scalar {
                    c.st_u64(data, 0, 3).unwrap();
                    c.st_u64(out, offset, 0).unwrap();
                    c.flush_work().unwrap();
                    for i in 0..n {
                        let v = c.ld_u64(data, i).unwrap();
                        c.st_u64(out, i + offset, v * 3 + i).unwrap();
                        c.work(FAULT_WORK).unwrap();
                    }
                } else {
                    {
                        let mut s = c.batch().unwrap();
                        s.st_u64(data, 0, 3).unwrap();
                        s.st_u64(out, offset, 0).unwrap();
                    }
                    c.flush_work().unwrap();
                    let mut s = c.batch().unwrap();
                    s.plan_map_indexed(&[read], &[write], &[], n, FAULT_WORK, |i, rv, wv| {
                        wv[0] = rv[0] * 3 + i;
                    })
                    .unwrap();
                }
            }
            Boundary::OffGridFlushes => {
                // `out[i] = data[i] * 5 + i` over 600 elements: both
                // columns cross from their first page into the second.
                c.work(OFF_GRID_PENDING).unwrap();
                let dense = ColSpec::Dense { stride: 1, offset: 0 };
                if mode == Mode::Scalar {
                    for i in 0..n {
                        let v = c.ld_u64(data, i).unwrap();
                        c.st_u64(out, i, v * 5 + i).unwrap();
                        c.work(OFF_GRID_WORK).unwrap();
                    }
                } else {
                    let (read, write) = (PlanCol::u64(data, dense), PlanCol::u64(out, dense));
                    let mut s = c.batch().unwrap();
                    s.plan_map_indexed(&[read], &[write], &[], n, OFF_GRID_WORK, |i, rv, wv| {
                        wv[0] = rv[0] * 5 + i;
                    })
                    .unwrap();
                }
            }
        }
        for e in 0..4 * n {
            checksum = checksum.wrapping_mul(1_000_003).wrapping_add(c.ld_u64(out, e).unwrap());
        }
        c.flush_work().unwrap();
    }
    let fp = fingerprint_of(&sys, checksum);
    let clocks = DomainId::ALL.map(|d| *sys.base().timebase.clock(d));
    let t = tracer.borrow();
    assert_eq!(t.dropped(), 0, "{kind}: the ring must be lossless for this workload");
    ((fp, clocks), t.events())
}

/// The edges of in-place timing — a segment with no read column, a
/// four-read/four-write butterfly, a page fault that ends a flush
/// window, and flush windows off the `work_per` grid — each match the
/// scalar loop exactly like the random cases, on both domain clocks.
#[test]
fn plan_segment_boundaries_match_scalar() {
    let shapes = [
        Boundary::NoReads,
        Boundary::Butterfly,
        Boundary::FaultEndsWindow,
        Boundary::OffGridFlushes,
    ];
    for kind in SystemKind::ALL {
        for shape in shapes {
            let (fp, events) = boundary_case(kind, Mode::Batched, shape);
            if matches!(shape, Boundary::FaultEndsWindow) {
                assert!(
                    events.iter().any(|e| matches!(e, TraceEvent::PageFault { .. })),
                    "{kind}: the window-ending element must fault"
                );
            }
            assert_segments_match_scalar(
                &format!("{kind}/{shape:?}"),
                boundary_case(kind, Mode::Scalar, shape),
                (fp, events),
            );
        }
    }
}
