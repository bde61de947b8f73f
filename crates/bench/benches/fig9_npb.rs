//! Figure 9 — NPB cross-ISA migration benchmark (§9.2.1).
//!
//! Single-threaded NPB applications migrate between the ISA-different
//! CPUs (migration + back-migration per processing procedure). The
//! figure reports execution time normalised to the Vanilla case for:
//! Popcorn-TCP, Popcorn-SHM on three hardware models, and Stramash on
//! three hardware models. Headline result: Stramash up to ≈ 2.1× faster
//! than Popcorn-SHM (2.6× vs TCP) on IS; Fully-Shared Stramash closely
//! matches Vanilla; CG favours Popcorn's replication on the Shared and
//! Separated models.

#![deny(unsafe_code)]

use stramash_bench::{banner, parallel_map, render_table};
use stramash_sim::HardwareModel;
use stramash_workloads::driver::{run_benchmark, Configuration};
use stramash_workloads::npb::{Class, NpbKind};
use stramash_workloads::target::SystemKind;

fn main() {
    banner("Figure 9 — NPB benchmark results (runtime normalised to Vanilla; lower is better)");
    let configs = Configuration::figure9_set();
    let mut rows = Vec::new();
    let mut summary: Vec<(NpbKind, f64, f64, f64)> = Vec::new();

    for kind in NpbKind::ALL {
        // Each configuration boots an independent simulator, so the
        // whole sweep fans out across threads; results come back in
        // configuration order, Vanilla (the baseline) first.
        let reports = parallel_map(configs.clone(), |config| {
            (config, run_benchmark(config, kind, Class::Small).expect("benchmark run"))
        })
        .expect("valid STRAMASH_SWEEP_WORKERS");
        let vanilla = &reports[0].1;
        assert!(vanilla.outcome.verified, "{kind} Vanilla failed verification");
        let mut normalized = Vec::new();
        for (config, report) in &reports {
            assert!(report.outcome.verified, "{kind} on {config} failed verification");
            let norm = report.normalized_to(vanilla.runtime);
            normalized.push((*config, norm));
            let total = (report.inst_cycles + report.mem_cycles).max(1) as f64;
            rows.push(vec![
                kind.to_string(),
                config.label(),
                report.runtime.raw().to_string(),
                format!("{norm:.3}"),
                format!("{:.0}%", report.inst_cycles as f64 / total * 100.0),
                format!("{:.0}%", report.mem_cycles as f64 / total * 100.0),
                report.messages.to_string(),
                report.remote_hits.to_string(),
            ]);
        }
        let norm_of = |k: SystemKind, m: HardwareModel| {
            normalized
                .iter()
                .find(|(c, _)| c.kind == k && (c.model == m || k == SystemKind::PopcornTcp))
                .map(|(_, n)| *n)
                .expect("config present")
        };
        let tcp = norm_of(SystemKind::PopcornTcp, HardwareModel::Shared);
        let shm = norm_of(SystemKind::PopcornShm, HardwareModel::Shared);
        let stra = norm_of(SystemKind::Stramash, HardwareModel::Shared);
        summary.push((kind, shm / stra, tcp / stra, stra));

        // The artifact's A.5 derivation: estimate the Fully-Shared
        // runtime from the Separated run by subtracting the remote
        // differential, and compare with the directly simulated one.
        // Both runs are already in the sweep (runs are deterministic,
        // so reusing them is identical to re-running).
        let cfg = stramash_sim::SimConfig::big_pair();
        let report_of = |k: SystemKind, m: HardwareModel| {
            reports
                .iter()
                .find(|(c, _)| c.kind == k && c.model == m)
                .map(|(_, r)| r)
                .expect("config present")
        };
        let separated = report_of(SystemKind::Stramash, HardwareModel::Separated);
        let estimated = separated.ae_fully_shared_estimate(&cfg);
        let simulated = report_of(SystemKind::Stramash, HardwareModel::FullyShared).runtime;
        let err = (estimated.raw() as f64 - simulated.raw() as f64).abs() / simulated.raw() as f64;
        println!(
            "{kind}: A.5 Fully-Shared estimate {} vs simulated {} ({:.1}% apart)",
            estimated.raw(),
            simulated.raw(),
            err * 100.0
        );
        assert!(
            err < 0.35,
            "{kind}: the artifact derivation should approximate the simulated              Fully-Shared runtime, got {:.1}%",
            err * 100.0
        );
    }

    println!(
        "{}",
        render_table(
            &[
                "benchmark",
                "configuration",
                "runtime (cycles)",
                "vs Vanilla",
                "INST",
                "MEM+MSG",
                "messages",
                "remote hits"
            ],
            &rows
        )
    );

    banner("Figure 9 summary — Stramash (Shared) speedups");
    let srows: Vec<Vec<String>> = summary
        .iter()
        .map(|(k, vs_shm, vs_tcp, vs_vanilla)| {
            vec![
                k.to_string(),
                format!("{vs_shm:.2}x vs Popcorn-SHM"),
                format!("{vs_tcp:.2}x vs Popcorn-TCP"),
                format!("{vs_vanilla:.2}x of Vanilla"),
            ]
        })
        .collect();
    println!("{}", render_table(&["benchmark", "speedup", "speedup", "overhead"], &srows));
    println!("paper: up to 2.1x over Popcorn-SHM and 2.6x over TCP on IS;");
    println!("       Stramash Fully-Shared closely matches Vanilla.");

    // Shape assertions for the headline results.
    let is = summary.iter().find(|(k, ..)| *k == NpbKind::Is).expect("IS ran");
    assert!(is.1 > 1.2, "IS: Stramash must clearly beat Popcorn-SHM, got {:.2}x", is.1);
    assert!(is.2 > is.1, "IS: the TCP gap must exceed the SHM gap");
}
