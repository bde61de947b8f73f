//! Figure 8 — cache-plugin validation against the reference MESI
//! three-level model (§9.1.3).
//!
//! The paper compares its extended QEMU cache plugin with the gem5 Ruby
//! MESI Three Level model on NPB CG/IS/MG/FT and finds per-level hit
//! rate discrepancies below 5 %. This harness replays each benchmark's
//! access trace through the primary cache model and the independently
//! structured reference model (tree-PLRU + directory coherence) and
//! prints both sets of hit rates.

#![deny(unsafe_code)]

use stramash_bench::{banner, capture_npb_trace, render_table, replay_primary, replay_reference};
use stramash_sim::{DomainId, SimConfig};
use stramash_workloads::npb::{Class, NpbKind};

fn main() {
    banner("Figure 8 — cache simulation validation (hit rates, primary vs reference)");
    let cfg = SimConfig::big_pair();
    let mut rows = Vec::new();
    let mut worst: f64 = 0.0;
    for kind in NpbKind::ALL {
        let run =
            capture_npb_trace(cfg.clone(), kind, Class::Validation).expect("capture must succeed");
        let (_, prim) = replay_primary(&cfg, &run.trace);
        let (_, refm) = replay_reference(&cfg, &run.trace);
        let p = prim.stats(DomainId::X86);
        let r = refm.stats(DomainId::X86);
        for (level, a, b) in [
            ("L1I", p.l1i.hit_rate(), r.l1i.hit_rate()),
            ("L1D", p.l1d.hit_rate(), r.l1d.hit_rate()),
            ("L2", p.l2.hit_rate(), r.l2.hit_rate()),
            ("L3", p.l3.hit_rate(), r.l3.hit_rate()),
        ] {
            let gap = (a - b).abs();
            worst = worst.max(gap);
            rows.push(vec![
                kind.to_string(),
                level.to_string(),
                format!("{:.2}%", a * 100.0),
                format!("{:.2}%", b * 100.0),
                format!("{:.2} pts", gap * 100.0),
            ]);
        }
    }
    println!(
        "{}",
        render_table(&["benchmark", "level", "primary", "reference", "discrepancy"], &rows)
    );
    println!("worst per-level discrepancy: {:.2} percentage points", worst * 100.0);
    println!("paper: \"discrepancies in L1, L2, and L3 caches being less than 5%\"");
    assert!(worst < 0.05, "discrepancy {:.2} pts exceeds the paper's 5%", worst * 100.0);
}
