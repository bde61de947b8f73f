//! Figure 7 — icount validation (§9.1.2).
//!
//! The paper approximates cycle counts from Stramash-QEMU's icount +
//! cache feedback and compares against native `perf` cycles on two real
//! machine pairs, finding errors always below 13 % and about 4 % on
//! average. Hardware being unavailable, the reproduction preserves the
//! methodology with two *independent* timing models: each NPB benchmark
//! runs once, its access trace is replayed through the primary model
//! (our "icount") and through the reference model (the ground-truth
//! stand-in), and the relative cycle error is reported per benchmark on
//! both machine configurations (small pair `*_s`, big pair `*_b`).

#![deny(unsafe_code)]

use stramash_bench::{
    banner, capture_npb_trace, relative_error, render_table, replay_primary, replay_reference,
};
use stramash_sim::SimConfig;
use stramash_workloads::npb::{Class, NpbKind};

fn main() {
    banner("Figure 7 — icount validation (relative cycle error vs reference model)");
    let mut rows = Vec::new();
    let mut errors = Vec::new();
    for (suffix, cfg) in [("s", SimConfig::small_pair()), ("b", SimConfig::big_pair())] {
        for kind in NpbKind::ALL {
            let run = capture_npb_trace(cfg.clone(), kind, Class::Validation)
                .expect("NPB capture must succeed");
            let (prim_mem, _) = replay_primary(&cfg, &run.trace);
            let (ref_mem, _) = replay_reference(&cfg, &run.trace);
            let icount_cycles = run.instructions + prim_mem.raw();
            let reference_cycles = run.instructions + ref_mem.raw();
            let err = relative_error(icount_cycles as f64, reference_cycles as f64);
            errors.push(err);
            rows.push(vec![
                format!("{kind}_{suffix}"),
                run.instructions.to_string(),
                icount_cycles.to_string(),
                reference_cycles.to_string(),
                format!("{:.2}%", err * 100.0),
            ]);
        }
    }
    println!(
        "{}",
        render_table(
            &["benchmark", "instructions", "ICOUNT cycles", "reference cycles", "rel. error"],
            &rows
        )
    );
    let avg = errors.iter().sum::<f64>() / errors.len() as f64;
    let max = errors.iter().cloned().fold(0.0, f64::max);
    println!("average error: {:.2}%   max error: {:.2}%", avg * 100.0, max * 100.0);
    println!("paper: \"always less than 13%, and about 4% on average\"");
    assert!(max < 0.13, "max error {:.2}% exceeds the paper's 13% bound", max * 100.0);
    assert!(avg < 0.08, "average error {:.2}% too far from the paper's ~4%", avg * 100.0);
}
