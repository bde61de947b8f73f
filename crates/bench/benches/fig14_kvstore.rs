//! Figure 14 — network-serving application speedup (§9.2.8).
//!
//! A KV server (the Redis stand-in) is migrated to the remote kernel
//! and serves 10 K requests of 1024 B per operation. The figure reports
//! per-operation speedup normalised to the Popcorn-TCP baseline: SHM
//! messaging gains ≈ 4–10×, and Stramash (which also removes the
//! origin-kernel page-allocation round-trips for the server's
//! allocations) reaches up to ≈ 12×.

#![deny(unsafe_code)]

use stramash_bench::{banner, render_table};
use stramash_sim::HardwareModel;
use stramash_workloads::kvstore::{run_kv, KvOp};
use stramash_workloads::target::{SystemKind, TargetSystem};

const REQUESTS: u64 = 2_000; // scaled from the paper's 10 K
const PAYLOAD: u32 = 1024;

fn main() {
    banner("Figure 14 — KV-store speedup over Popcorn-TCP (higher is better)");
    let mut rows = Vec::new();
    let mut best = 0.0f64;
    let mut worst_shm = f64::MAX;

    for op in KvOp::ALL {
        let mut tcp =
            TargetSystem::build(SystemKind::PopcornTcp, HardwareModel::Shared).expect("boot tcp");
        let t = run_kv(&mut tcp, op, REQUESTS, PAYLOAD).expect("tcp run");
        let mut shm =
            TargetSystem::build(SystemKind::PopcornShm, HardwareModel::Shared).expect("boot shm");
        let s = run_kv(&mut shm, op, REQUESTS, PAYLOAD).expect("shm run");
        let mut stra = TargetSystem::build(SystemKind::Stramash, HardwareModel::Shared)
            .expect("boot stramash");
        let f = run_kv(&mut stra, op, REQUESTS, PAYLOAD).expect("stramash run");

        let shm_speedup = t.per_request / s.per_request;
        let stra_speedup = t.per_request / f.per_request;
        best = best.max(stra_speedup);
        worst_shm = worst_shm.min(shm_speedup);
        rows.push(vec![
            op.to_string(),
            format!("{:.0}", t.per_request),
            format!("{shm_speedup:.2}x"),
            format!("{stra_speedup:.2}x"),
        ]);
        assert!(
            stra_speedup >= shm_speedup * 0.98,
            "{op}: Stramash ({stra_speedup:.2}x) must match or beat SHM ({shm_speedup:.2}x)"
        );
    }

    println!(
        "{}",
        render_table(
            &["op", "POPCORN-TCP cyc/req", "POPCORN-SHM speedup", "STRAMASH speedup"],
            &rows
        )
    );
    println!("paper: SHM gains ~4-10x over TCP; Stramash up to ~12x.");
    println!("best Stramash speedup measured: {best:.1}x; weakest SHM speedup: {worst_shm:.1}x");
    println!("note: the paper runs this experiment WITHOUT the cache plugin (functional");
    println!("validation, wall-clock QEMU time); this harness keeps the timing model on,");
    println!("which shrinks the messaging-dominated magnitudes while preserving the");
    println!("TCP < SHM < Stramash ordering and the write-op advantage of Stramash");
    println!("(no origin-kernel round trips for the server's allocations).");

    assert!(worst_shm > 1.5, "SHM must clearly beat TCP on every op: {worst_shm:.2}x");
    assert!(best > 4.0, "Stramash must reach a clear best-case speedup: {best:.2}x");
    assert!(best > worst_shm, "Stramash's best must exceed SHM's weakest");
}
