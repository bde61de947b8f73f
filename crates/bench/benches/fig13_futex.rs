//! Figure 13 — futex experiment (§9.2.6).
//!
//! "The origin kernel continuously locks the Futex, while the remote
//! kernel continuously unlocks the same Futex, performing a simple
//! addition in each loop." The Stramash futex optimisation operates on
//! the shared futex word and the origin's list directly (one cross-ISA
//! IPI per wake); the regular path forwards every remote operation to
//! the origin kernel over the full message protocol.

#![deny(unsafe_code)]

use stramash_bench::{banner, render_table};
use stramash_sim::HardwareModel;
use stramash_workloads::micro::futex_pingpong;
use stramash_workloads::target::{SystemKind, TargetSystem};

fn main() {
    banner("Figure 13 — futex lock/unlock ping-pong (total cycles; lower is better)");
    let mut rows = Vec::new();
    let mut final_speedup = 0.0f64;

    for loops in [100u64, 200, 400, 800, 1600] {
        let mut pop = TargetSystem::build(SystemKind::PopcornShm, HardwareModel::Shared)
            .expect("boot popcorn");
        let p = futex_pingpong(&mut pop, loops).expect("popcorn run");
        let mut stra = TargetSystem::build(SystemKind::Stramash, HardwareModel::Shared)
            .expect("boot stramash");
        let s = futex_pingpong(&mut stra, loops).expect("stramash run");
        let speedup = p.total.raw() as f64 / s.total.raw() as f64;
        final_speedup = speedup;
        rows.push(vec![
            loops.to_string(),
            p.total.raw().to_string(),
            s.total.raw().to_string(),
            format!("{speedup:.2}x"),
        ]);
    }
    println!(
        "{}",
        render_table(
            &["loops", "regular (Popcorn) cycles", "Futex-optimized (Stramash) cycles", "speedup"],
            &rows
        )
    );
    println!("paper: \"only one cross-ISA IPI is needed to wake up the waiting thread,");
    println!("whereas the original solution requires a full Futex management protocol\".");

    assert!(
        final_speedup > 1.5,
        "the fused futex must clearly beat the message protocol: {final_speedup:.2}x"
    );
}
