//! Figure 12 — software vs hardware consistency at cacheline
//! granularity (§9.2.5).
//!
//! A producer/consumer page ping at 1..64-cacheline granularity: DSM
//! (Popcorn) re-replicates the entire 4 KiB page every round, while
//! hardware coherence (Stramash over CXL) moves only the touched lines.
//! The paper reports DSM overhead exceeding 300× at one cacheline and
//! ≈ 2× at a full page.

#![deny(unsafe_code)]

use stramash_bench::{banner, render_table};
use stramash_sim::HardwareModel;
use stramash_workloads::micro::granularity;
use stramash_workloads::target::{SystemKind, TargetSystem};

const ROUNDS: u64 = 200;

fn main() {
    banner("Figure 12 — page access at cacheline granularity (cycles per round)");
    let mut rows = Vec::new();
    let mut first_ratio = 0.0f64;
    let mut last_ratio = 0.0f64;

    for lines in [1u64, 2, 4, 8, 16, 32, 64] {
        let mut pop = TargetSystem::build(SystemKind::PopcornShm, HardwareModel::Shared)
            .expect("boot popcorn");
        let p = granularity(&mut pop, lines, ROUNDS).expect("popcorn run");
        let mut stra = TargetSystem::build(SystemKind::Stramash, HardwareModel::Shared)
            .expect("boot stramash");
        let s = granularity(&mut stra, lines, ROUNDS).expect("stramash run");
        let ratio = p.cycles_per_round / s.cycles_per_round;
        if lines == 1 {
            first_ratio = ratio;
        }
        if lines == 64 {
            last_ratio = ratio;
        }
        rows.push(vec![
            format!("{lines} ({} B)", lines * 64),
            format!("{:.0}", p.cycles_per_round),
            format!("{:.0}", s.cycles_per_round),
            format!("{ratio:.1}x"),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "cachelines",
                "DSM (Popcorn) cyc/round",
                "HW coherence (Stramash) cyc/round",
                "DSM overhead"
            ],
            &rows
        )
    );
    println!("paper: DSM overhead exceeds 300x at one cacheline; ~2x at a full page.");
    println!("measured: {first_ratio:.0}x at one line, {last_ratio:.1}x at 64 lines.");

    assert!(first_ratio > 20.0, "DSM must be dramatically worse at 1 line: {first_ratio:.1}x");
    assert!(last_ratio > 1.0, "hardware coherence still wins at full-page granularity");
    assert!(
        last_ratio < first_ratio / 4.0,
        "the gap must collapse as granularity approaches the page"
    );
}
