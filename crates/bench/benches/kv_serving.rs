//! KV serving — throughput and tail latency vs offered load (§9.2.8
//! extended to an open-loop, event-driven serving scenario).
//!
//! A sharded KV store served by workers on both ISA domains handles a
//! deterministic open-loop schedule (seeded Poisson arrivals, Zipfian
//! key popularity) multiplexed over `kernel::msg` streams. Each offered
//! load is run once per OS design; the table shows achieved throughput
//! and p50/p99 request latency. Popcorn-TCP saturates at the top load
//! while SHM messaging and the fused kernel keep up — the p99 headline
//! is the fused kernel's tail-latency advantage over Popcorn-TCP at
//! that load.
//!
//! Every number here is simulated cycles, exact on every host, so the
//! leg asserts the whole table against pinned values: any drift means
//! the timing model changed.

#![deny(unsafe_code)]

use stramash_bench::{banner, render_table};
use stramash_sim::HardwareModel;
use stramash_workloads::serve::{run_serve_curve, ServeConfig, ServeResult};
use stramash_workloads::target::SystemKind;

const LOADS: [f64; 3] = [2.0, 10.0, 40.0];

fn cfg() -> ServeConfig {
    ServeConfig {
        requests: 1_500,
        keyspace: 400,
        workers: 4,
        connections: 32,
        window: 8,
        ..ServeConfig::default()
    }
}

/// One pinned load point: `(throughput, p50, p99)`, throughput in
/// requests/Mcycle at 3-decimal rounding, latencies in exact cycles.
type Point = (&'static str, u64, u64);

/// Pinned results per design, one [`Point`] per entry of [`LOADS`].
const PINNED: [(SystemKind, [Point; 3]); 4] = [
    (
        SystemKind::Stramash,
        [("2.116", 16_383, 16_383), ("10.579", 16_383, 20_802), ("42.304", 16_383, 28_301)],
    ),
    (
        SystemKind::PopcornShm,
        [("2.116", 16_383, 16_383), ("10.579", 16_383, 20_802), ("42.304", 16_383, 28_301)],
    ),
    (
        SystemKind::PopcornTcp,
        [
            ("2.115", 238_386, 238_386),
            ("10.568", 262_143, 346_502),
            ("32.844", 524_287, 10_249_700),
        ],
    ),
    (
        SystemKind::Vanilla,
        [("2.116", 16_383, 16_383), ("10.579", 16_383, 16_383), ("42.304", 16_383, 20_836)],
    ),
];

/// Pinned fingerprint of the top-load request schedule.
const PINNED_SCHEDULE: u64 = 0x223d_95c9_4297_3a9b;

/// Pinned fused-over-TCP ratios at the top load, at 3-decimal rounding:
/// p99 latency and throughput.
const PINNED_FUSED_OVER_TCP: (&str, &str) = ("362.167", "1.288");

fn main() {
    banner("KV serving — throughput / tail latency vs offered load");
    let base = cfg();

    let mut rows = Vec::new();
    let mut curves: Vec<(SystemKind, Vec<ServeResult>)> = Vec::new();
    for (kind, _) in PINNED {
        let curve =
            run_serve_curve(kind, HardwareModel::Shared, &base, &LOADS).expect("serve curve");
        for r in &curve {
            rows.push(vec![
                kind.to_string(),
                format!("{:.1}", r.offered_load),
                format!("{:.2}", r.throughput),
                format!("{}", r.p50()),
                format!("{}", r.p99()),
                format!("{}", r.window_stalls),
            ]);
        }
        curves.push((kind, curve));
    }
    println!(
        "{}",
        render_table(
            &["system", "offered (req/Mcyc)", "achieved", "p50 (cyc)", "p99 (cyc)", "stalls"],
            &rows,
        )
    );

    // At each load point every design must have served the identical
    // schedule, and a re-run of one point must be byte-identical (the
    // determinism contract).
    for (i, _) in LOADS.iter().enumerate() {
        let sched = curves[0].1[i].schedule_fingerprint;
        for (kind, curve) in &curves {
            assert_eq!(
                curve[i].schedule_fingerprint, sched,
                "{kind}: schedule fingerprint diverged at load {}",
                LOADS[i]
            );
        }
    }
    let replay = run_serve_curve(SystemKind::Stramash, HardwareModel::Shared, &base, &[LOADS[2]])
        .expect("replay");
    assert_eq!(
        replay[0].fingerprint, curves[0].1[2].fingerprint,
        "Stramash top-load run must replay byte-identically"
    );

    let at = |kind: SystemKind, i: usize| -> &ServeResult {
        &curves.iter().find(|(k, _)| *k == kind).expect("kind").1[i]
    };
    let top = LOADS.len() - 1;
    let fused = at(SystemKind::Stramash, top);
    let tcp = at(SystemKind::PopcornTcp, top);
    let p99_speedup = tcp.p99() as f64 / fused.p99() as f64;
    let tput_speedup = fused.throughput / tcp.throughput;
    assert!(
        p99_speedup > 2.0,
        "fused p99 must clearly beat TCP at the top load: {p99_speedup:.2}x"
    );
    assert!(tput_speedup > 1.1, "fused must out-serve TCP at the top load: {tput_speedup:.2}x");
    println!(
        "\nheadline @ load {:.0}: fused p99 {:.2}x better, throughput {:.2}x vs Popcorn-TCP",
        LOADS[top], p99_speedup, tput_speedup
    );

    // The whole table against its pinned values, reporting every
    // drifted entry at once.
    let mut drift = Vec::new();
    let sched = curves[0].1[top].schedule_fingerprint;
    if sched != PINNED_SCHEDULE {
        drift.push(format!("schedule fingerprint {sched:#018x}, pinned {PINNED_SCHEDULE:#018x}"));
    }
    for ((kind, curve), (_, pinned)) in curves.iter().zip(PINNED) {
        for ((r, load), (tput, p50, p99)) in curve.iter().zip(LOADS).zip(pinned) {
            let got = (format!("{:.3}", r.throughput), r.p50(), r.p99());
            if (got.0.as_str(), got.1, got.2) != (tput, p50, p99) {
                drift.push(format!(
                    "{kind} @ load {load}: (throughput, p50, p99) = {got:?}, \
                     pinned ({tput}, {p50}, {p99})"
                ));
            }
        }
    }
    let ratios = (format!("{p99_speedup:.3}"), format!("{tput_speedup:.3}"));
    if (ratios.0.as_str(), ratios.1.as_str()) != PINNED_FUSED_OVER_TCP {
        drift.push(format!(
            "fused-over-TCP (p99, throughput) = {ratios:?}, pinned {PINNED_FUSED_OVER_TCP:?}"
        ));
    }
    assert!(drift.is_empty(), "simulated serving results drifted:\n  {}", drift.join("\n  "));
    println!(
        "schedule, {} curve points and both ratios match their pinned values",
        LOADS.len() * PINNED.len()
    );
}
