//! Figure 11 — memory access analysis (§9.2.4).
//!
//! 10 MB is allocated on one kernel and sequentially accessed from
//! either side, cold and warm. Popcorn-SHM replicates pages so its warm
//! accesses are local (and its performance is hardware-model
//! independent); Stramash accesses data in place, so the Shared and
//! Separated models pay remote-memory latency while Fully-Shared
//! approaches Vanilla — up to 2.5× (Shared) and 4.5× (Fully Shared)
//! faster than SHM on the cold pass, but *slower* on warm re-access.

use stramash_bench::{banner, parallel_map, render_table};
use stramash_sim::HardwareModel;
use stramash_workloads::micro::{memory_access, AccessScenario};
use stramash_workloads::target::{SystemKind, TargetSystem};

const BYTES: u64 = 10 << 20; // the paper's 10 MB

fn main() {
    banner("Figure 11 — memory access analysis (measured pass cycles; lower is better)");
    let configs: Vec<(String, SystemKind, HardwareModel)> = vec![
        ("Vanilla*".into(), SystemKind::Vanilla, HardwareModel::Shared),
        ("Popcorn-SHM".into(), SystemKind::PopcornShm, HardwareModel::Shared),
        ("Stramash-Separated".into(), SystemKind::Stramash, HardwareModel::Separated),
        ("Stramash-Shared".into(), SystemKind::Stramash, HardwareModel::Shared),
        ("Stramash-FullyShared".into(), SystemKind::Stramash, HardwareModel::FullyShared),
    ];

    // Every (scenario, system) cell is an independent simulator boot —
    // fan the full grid out across threads in one go.
    let mut grid = Vec::new();
    for scenario in AccessScenario::ALL {
        for (label, kind, model) in &configs {
            // Vanilla only has the local scenario.
            if *kind == SystemKind::Vanilla && scenario != AccessScenario::Vanilla {
                continue;
            }
            if *kind != SystemKind::Vanilla && scenario == AccessScenario::Vanilla {
                continue;
            }
            grid.push((scenario, label.clone(), *kind, *model));
        }
    }
    let results: Vec<(AccessScenario, String, u64)> =
        parallel_map(grid, |(scenario, label, kind, model)| {
            let mut sys = TargetSystem::build(kind, model).expect("boot");
            let r = memory_access(&mut sys, scenario, BYTES).expect("scenario run");
            (scenario, label, r.measured.raw())
        })
        .expect("valid STRAMASH_SWEEP_WORKERS");
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|(scenario, label, cycles)| {
            vec![scenario.label().to_string(), label.clone(), cycles.to_string()]
        })
        .collect();
    println!("{}", render_table(&["scenario", "system", "measured cycles"], &rows));

    let get = |sc: AccessScenario, label: &str| {
        results
            .iter()
            .find(|(s, l, _)| *s == sc && l == label)
            .map(|(_, _, c)| *c as f64)
            .expect("result present")
    };
    let shm_cold = get(AccessScenario::RemoteAccessOrigin, "Popcorn-SHM");
    let stra_shared_cold = get(AccessScenario::RemoteAccessOrigin, "Stramash-Shared");
    let stra_fs_cold = get(AccessScenario::RemoteAccessOrigin, "Stramash-FullyShared");
    println!(
        "\ncold RaO: Stramash-Shared {:.2}x faster than SHM (paper: up to 2.5x); \
         Fully-Shared {:.2}x (paper: up to 4.5x)",
        shm_cold / stra_shared_cold,
        shm_cold / stra_fs_cold
    );

    let shm_warm = get(AccessScenario::RemoteAccessOriginNoCold, "Popcorn-SHM");
    let stra_warm = get(AccessScenario::RemoteAccessOriginNoCold, "Stramash-Shared");
    println!(
        "warm RaO (No Cold): Popcorn {} vs Stramash-Shared {} — \"replicating data into \
         local memory can potentially outperform direct remote access\"",
        shm_warm as u64, stra_warm as u64
    );

    assert!(shm_cold > stra_shared_cold, "Stramash must win the cold remote pass");
    assert!(stra_fs_cold < stra_shared_cold, "Fully-Shared must beat Shared");
    assert!(
        stra_warm > shm_warm,
        "the takeaway trade-off: warm DSM re-access beats direct remote access \
         (10 MB exceeds the 4 MB L3, so Stramash keeps reloading remotely)"
    );
}
