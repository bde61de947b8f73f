//! Figures 5 & 6 — IPI latency characterisation (§9.1.1).
//!
//! The paper measures IPI latency between all core pairs on the big_Arm
//! and big_x86 machines (kernel module, RDTSC + MONITOR/MWAIT) and finds
//! an average of ≈ 2 µs, which becomes the simulated cross-ISA IPI cost.
//! This harness runs the same all-pairs experiment on the topology
//! models and prints the per-regime averages and histogram.

#![deny(unsafe_code)]

use stramash_bench::{banner, render_table};
use stramash_sim::ipi::{IpiCharacterization, IpiTopology};
use stramash_sim::rng::SimRng;

fn characterize(figure: u32, name: &str, topo: IpiTopology, freq_hz: u64, seed: u64) {
    let mut rng = SimRng::new(seed);
    let run = IpiCharacterization::run(topo, 16, &mut rng);
    banner(&format!("Figure {figure} — IPI latency, {name}"));
    let rows = vec![
        vec!["same-socket avg".to_string(), format!("{:.0} ns", run.average_ns_by_socket(false))],
        vec!["cross-socket avg".to_string(), format!("{:.0} ns", run.average_ns_by_socket(true))],
        vec!["all-pairs avg".to_string(), format!("{:.0} ns", run.average_ns())],
        vec![
            "simulator IPI cost".to_string(),
            format!(
                "{} cycles at {:.1} GHz",
                run.average_cycles(freq_hz).raw(),
                freq_hz as f64 / 1e9
            ),
        ],
    ];
    println!("{}", render_table(&["metric", "value"], &rows));

    println!("latency histogram (250 ns buckets):");
    for (upper, count) in run.histogram(250.0, 16) {
        if count > 0 {
            let bar = "#".repeat((count / 32).max(1));
            println!("  <= {upper:>6.0} ns  {count:>5}  {bar}");
        }
    }

    let avg = run.average_ns();
    assert!(
        (1500.0..2500.0).contains(&avg),
        "average IPI latency {avg:.0} ns strays from the paper's ~2 µs"
    );
}

fn main() {
    characterize(5, "big_Arm (dual ThunderX2)", IpiTopology::big_arm(), 2_000_000_000, 56);
    characterize(6, "big_x86 (dual Xeon Gold)", IpiTopology::big_x86(), 2_100_000_000, 65);
    println!("\nPaper: \"The average IPI latency is about 2 us in large machine pairs,");
    println!("and we have used this value as our simulated cross-ISA IPI cost.\"");
}
