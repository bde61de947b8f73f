//! Parallel figure-sweep harness: determinism proof + wall-clock win.
//!
//! Each configuration of a figure sweep boots an independent simulator,
//! so the sweeps are embarrassingly parallel. This harness runs the
//! Figure 9 NPB IS sweep twice — serially and fanned out with
//! [`stramash_bench::parallel_map`] — asserts that every report is
//! *identical* (the cycle-identity contract: threading must not change
//! a single simulated cycle), and reports both wall-clocks.
//!
//! Set `STRAMASH_BENCH_JSON=<path>` to emit the timings as a JSON
//! object (`scripts/bench.sh` merges it into `BENCH_simulator.json`).

use std::time::Instant;
use stramash_bench::{banner, host_cores, parallel_map, sweep_workers};
use stramash_workloads::driver::{run_benchmark, Configuration};
use stramash_workloads::npb::{Class, NpbKind};

fn main() {
    banner("Parallel sweep — Figure 9 IS sweep, serial vs std::thread::scope");
    let configs = Configuration::figure9_set();
    let n = configs.len();
    let workers = sweep_workers(n).expect("valid STRAMASH_SWEEP_WORKERS");

    let t0 = Instant::now();
    let serial: Vec<_> = configs
        .iter()
        .map(|&c| run_benchmark(c, NpbKind::Is, Class::Small).expect("serial run"))
        .collect();
    let serial_s = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let parallel =
        parallel_map(configs, |c| run_benchmark(c, NpbKind::Is, Class::Small).expect("run"))
            .expect("valid STRAMASH_SWEEP_WORKERS");
    let parallel_s = t0.elapsed().as_secs_f64();

    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(s.runtime, p.runtime, "parallel sweep drifted from serial");
        assert_eq!(s.messages, p.messages);
        assert_eq!(s.remote_hits, p.remote_hits);
        assert_eq!(s.inst_cycles, p.inst_cycles);
        assert_eq!(s.mem_cycles, p.mem_cycles);
    }
    println!("all {n} configuration reports identical: threading changed nothing");

    let speedup = serial_s / parallel_s;
    println!(
        "serial {serial_s:.2}s  ->  parallel {parallel_s:.2}s  \
         ({speedup:.2}x, {n} configs on {workers} worker(s))"
    );

    if let Ok(path) = std::env::var("STRAMASH_BENCH_JSON") {
        let json = format!(
            "{{\n  \"configs\": {n},\n  \"workers\": {workers},\n  \
             \"host_cores\": {cores},\n  \
             \"serial_seconds\": {serial_s:.3},\n  \
             \"parallel_seconds\": {parallel_s:.3},\n  \"parallel_speedup\": {speedup:.2}\n}}\n",
            cores = host_cores(),
        );
        std::fs::write(&path, json).expect("write bench JSON");
        println!("wrote {path}");
    }
}
