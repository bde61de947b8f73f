//! Workloads for the Stramash reproduction.
//!
//! Everything the paper's evaluation (§8–§9) runs on top of the OS
//! designs, rebuilt as *functional* programs whose every memory access
//! travels through the simulated system:
//!
//! * [`npb`] — the NAS Parallel Benchmark kernels IS, CG, MG and FT
//!   (§8.3), with per-procedure cross-ISA migration,
//! * [`micro`] — the §9.2.4–§9.2.6 microbenchmarks (memory-access
//!   analysis, consistency granularity, futex ping-pong),
//! * [`kvstore`] — the §9.2.8 network-serving KV store (Figure 14),
//! * [`serve`] — the production-scale serving scenario: sharded store,
//!   workers on both ISA domains, open-loop Poisson/Zipfian load,
//!   p50/p99-vs-load curves,
//! * [`target`] — [`TargetSystem`], one handle over Vanilla /
//!   Popcorn-TCP / Popcorn-SHM / Stramash,
//! * [`driver`] — configuration sweeps and metric collection,
//! * [`client`] — the typed application-side memory interface.
//!
//! # Example
//!
//! ```
//! use stramash_workloads::driver::{run_benchmark, Configuration};
//! use stramash_workloads::npb::{Class, NpbKind};
//! use stramash_workloads::target::SystemKind;
//! use stramash_sim::HardwareModel;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cfg = Configuration { kind: SystemKind::Stramash, model: HardwareModel::Shared };
//! let report = run_benchmark(cfg, NpbKind::Is, Class::Tiny)?;
//! assert!(report.outcome.verified); // IS really sorted its keys
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod chaos;
pub mod client;
pub mod driver;
pub mod kvstore;
pub mod micro;
pub mod npb;
pub mod recovery;
pub mod serve;
pub mod target;

pub use chaos::{chaos_sweep, ChaosReport, Reproducer, StageReport};
pub use client::{ArrayF64, ArrayU64, ColSpec, IndexedPlan, MemoryClient, PlanCol, ScopePlan};
pub use driver::{run_benchmark, run_benchmark_with, Configuration, RunReport};
pub use kvstore::{run_kv, KvOp, KvRunResult, KvServer, ShardedKv};
pub use serve::{
    generate_schedule, run_serve, run_serve_curve, schedule_fingerprint, Request, ServeConfig,
    ServeResult,
};
pub use micro::{
    futex_pingpong, granularity, memory_access, AccessResult, AccessScenario, FutexResult,
    GranularityResult,
};
pub use npb::{run_npb, Class, NpbKind, NpbOutcome};
pub use recovery::{
    run_is_recovered, run_kv_recovered, Recovered, RecoveryConfig, RecoveryPolicy,
};
pub use target::{SystemKind, TargetSystem};
