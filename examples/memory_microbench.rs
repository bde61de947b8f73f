//! The §9.2.4 memory-access microbenchmark, interactively sized.
//!
//! Allocates a buffer on one kernel and accesses it from either side,
//! cold and warm, on Popcorn-SHM and Stramash — the replication-vs-
//! direct-access trade-off of Figure 11 in miniature.
//!
//! ```sh
//! cargo run --release --example memory_microbench [buffer_kib]
//! ```

#![deny(unsafe_code)]

use stramash_repro::prelude::*;
use stramash_repro::workloads::micro::{memory_access, AccessScenario};
use stramash_repro::workloads::target::{SystemKind, TargetSystem};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let kib: u64 = std::env::args().nth(1).and_then(|a| a.parse().ok()).unwrap_or(512);
    let bytes = kib << 10;
    println!("memory-access analysis, {kib} KiB buffer (paper uses 10 MB)\n");

    println!(
        "{:<8} {:>22} {:>22} {:>10}",
        "scenario", "Popcorn-SHM (cycles)", "Stramash (cycles)", "ratio"
    );
    for scenario in AccessScenario::ALL {
        let mut pop = TargetSystem::build(SystemKind::PopcornShm, HardwareModel::Shared)?;
        let p = memory_access(&mut pop, scenario, bytes)?;
        let mut stra = TargetSystem::build(SystemKind::Stramash, HardwareModel::Shared)?;
        let s = memory_access(&mut stra, scenario, bytes)?;
        println!(
            "{:<8} {:>22} {:>22} {:>9.2}x",
            scenario.label(),
            p.measured.raw(),
            s.measured.raw(),
            p.measured.raw() as f64 / s.measured.raw() as f64
        );
    }

    println!("\ncold passes favour Stramash (no replication protocol);");
    println!("warm passes can favour Popcorn once its replicas are local —");
    println!("the paper's replication-vs-direct-access trade-off (§9.2.4).");
    Ok(())
}
