//! Figure 10 — cache-size sensitivity, IS vs CG (§9.2.2).
//!
//! With the L3 enlarged from 4 MB to 32 MB: CG (read-intensive) sees
//! Stramash's slowdown versus Popcorn-SHM shrink from ≈ 34 % to below
//! 1 % (fewer capacity misses → fewer remote loads), while IS
//! (write-intensive) keeps missing due to invalidations, so Stramash's
//! advantage narrows from ≈ 2.1× to ≈ 1.6× as Popcorn benefits from
//! fewer write-backs.

use stramash_bench::{banner, parallel_map, render_table};
use stramash_sim::HardwareModel;
use stramash_workloads::driver::{run_benchmark_with, Configuration};
use stramash_workloads::npb::{Class, NpbKind};
use stramash_workloads::target::SystemKind;

fn main() {
    banner("Figure 10 — IS vs CG with 4 MB and 32 MB L3 (runtime ratio Stramash/Popcorn-SHM)");
    let shm = Configuration { kind: SystemKind::PopcornShm, model: HardwareModel::Shared };
    let stra = Configuration { kind: SystemKind::Stramash, model: HardwareModel::Shared };
    let mut rows = Vec::new();
    let mut ratios = Vec::new();

    // STRAMASH_LARGE=1 runs the IS sweep at the paper-scale Large class
    // (64 MB working set, minutes of host time) where the paper's IS
    // trend regime lives.
    let is_class = if std::env::var("STRAMASH_LARGE").is_ok() { Class::Large } else { Class::Small };
    // All eight runs (2 benchmarks × 2 L3 sizes × 2 systems) are
    // independent simulators — fan the whole grid out at once.
    let mut grid = Vec::new();
    for (kind, class) in [(NpbKind::Is, is_class), (NpbKind::Cg, Class::Small)] {
        for l3 in [4u64 << 20, 32 << 20] {
            grid.push((kind, class, l3));
        }
    }
    let reports = parallel_map(grid, |(kind, class, l3)| {
        let p = run_benchmark_with(shm, kind, class, Some(l3)).expect("popcorn run");
        let s = run_benchmark_with(stra, kind, class, Some(l3)).expect("stramash run");
        (kind, l3, p, s)
    })
    .expect("valid STRAMASH_SWEEP_WORKERS");
    for (kind, l3, p, s) in reports {
        assert!(p.outcome.verified && s.outcome.verified);
        let ratio = s.runtime.raw() as f64 / p.runtime.raw() as f64;
        ratios.push((kind, l3, ratio));
        rows.push(vec![
            kind.to_string(),
            format!("{} MB", l3 >> 20),
            p.runtime.raw().to_string(),
            s.runtime.raw().to_string(),
            format!("{ratio:.3}"),
        ]);
    }
    println!(
        "{}",
        render_table(
            &["benchmark", "L3 size", "Popcorn-SHM cycles", "Stramash cycles", "Stramash/SHM"],
            &rows
        )
    );

    let ratio = |k: NpbKind, l3: u64| {
        ratios.iter().find(|(rk, rl, _)| *rk == k && *rl == l3).map(|(_, _, r)| *r).unwrap()
    };
    let cg_small = ratio(NpbKind::Cg, 4 << 20);
    let cg_big = ratio(NpbKind::Cg, 32 << 20);
    let is_small = ratio(NpbKind::Is, 4 << 20);
    let is_big = ratio(NpbKind::Is, 32 << 20);

    println!("CG: Stramash/SHM {cg_small:.2} at 4 MB -> {cg_big:.2} at 32 MB (paper: 1.34 -> ~1.00)");
    println!("IS: Stramash/SHM {is_small:.2} at 4 MB -> {is_big:.2} at 32 MB (paper: 1/2.1 -> 1/1.6)");
    println!();
    println!("reproduced: the headline CG effect — \"a larger L3 cache reduces the cache");
    println!("miss rate and overall memory accesses, significantly reducing execution time");
    println!("for Stramash with Shared/Separated\" — the read-intensive workload's remote");
    println!("accesses collapse once the matrix fits the LLC.");
    if std::env::var("STRAMASH_LARGE").is_ok() {
        println!("IS ran at the Large class (64 MB working set): the paper's narrowing");
        println!("trend applies here — Popcorn catches up as the LLC grows.");
    } else {
        println!("note: the paper's IS trend (Popcorn catching up from 2.1x to 1.6x)");
        println!("requires working sets beyond the 32 MB LLC; rerun with STRAMASH_LARGE=1");
        println!("(64 MB IS class, minutes of host time) to reproduce that direction too.");
    }

    // Shape checks for what the model reproduces.
    assert!(
        cg_big < cg_small - 0.2,
        "larger L3 must strongly shrink Stramash's CG gap: {cg_small:.2} -> {cg_big:.2}"
    );
    assert!(cg_small > 0.95, "at 4 MB, CG must sit at/over the DSM crossover");
    assert!(is_small < 1.0, "Stramash must win IS at 4 MB");
    assert!(is_big < 1.0, "Stramash must win IS at 32 MB");
    if std::env::var("STRAMASH_LARGE").is_ok() {
        assert!(
            is_big > is_small,
            "at Large class the paper's narrowing trend must hold: {is_small:.3} -> {is_big:.3}"
        );
    }
}
