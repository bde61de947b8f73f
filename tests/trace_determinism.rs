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

use stramash_repro::kernel::system::OsSystem;
use stramash_repro::prelude::*;
use stramash_repro::sim::trace::{reconstruct_domain_stats, shared_tracer, TraceEvent};
use stramash_repro::workloads::kvstore::{run_kv, KvOp};
use stramash_repro::workloads::npb::{run_npb, Class, NpbKind};
use stramash_repro::workloads::target::{SystemKind, TargetSystem};

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
    let fingerprint = Fingerprint {
        runtime: sys.runtime().raw(),
        messages: sys.base().msg.counters().total(),
        kv_checksum: kv.checksum,
        levels,
        tlb,
    };
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
