//! The §9.2.8 network-serving application: a KV server migrated to the
//! remote kernel, driven over the messaging layer.
//!
//! ```sh
//! cargo run --release --example kvstore_serving [requests]
//! ```

#![deny(unsafe_code)]

use stramash_repro::prelude::*;
use stramash_repro::workloads::kvstore::{run_kv, KvOp};
use stramash_repro::workloads::target::{SystemKind, TargetSystem};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let requests: u64 = std::env::args().nth(1).and_then(|a| a.parse().ok()).unwrap_or(200);
    println!("KV store, {requests} requests per op, 1024 B payloads\n");
    println!("{:<6} {:>14} {:>14} {:>14}", "op", "TCP cyc/req", "SHM speedup", "Stramash speedup");

    for op in KvOp::ALL {
        let mut tcp = TargetSystem::build(SystemKind::PopcornTcp, HardwareModel::Shared)?;
        let t = run_kv(&mut tcp, op, requests, 1024)?;
        let mut shm = TargetSystem::build(SystemKind::PopcornShm, HardwareModel::Shared)?;
        let s = run_kv(&mut shm, op, requests, 1024)?;
        let mut stra = TargetSystem::build(SystemKind::Stramash, HardwareModel::Shared)?;
        let f = run_kv(&mut stra, op, requests, 1024)?;
        println!(
            "{:<6} {:>14.0} {:>13.2}x {:>13.2}x",
            op.to_string(),
            t.per_request,
            t.per_request / s.per_request,
            t.per_request / f.per_request
        );
    }

    println!("\nshared-memory messaging removes the TCP round trips; the fused");
    println!("kernel additionally removes the origin-kernel page-allocation");
    println!("protocol for the server's writes (set/lpush/sadd/mset).");
    Ok(())
}
