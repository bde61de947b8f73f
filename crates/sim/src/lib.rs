//! Simulation substrate for the Stramash reproduction.
//!
//! This crate provides the pieces that the paper's *Stramash-QEMU* fused
//! simulator builds on top of QEMU (§7 of the paper):
//!
//! * a [`time`] module with the **instruction-count timebase** (§7.3
//!   "Stramash Timebase"): time progresses with the number of retired
//!   instructions at a fixed non-memory IPC, plus memory-access feedback
//!   supplied by the cache model,
//! * a [`config`] module describing the simulated machines (Table 1) and
//!   their memory latencies (Table 2), the hardware models of Figure 3,
//!   and the CXL snoop costs of §7.3,
//! * a [`stats`] module with per-domain counters mirroring the output of
//!   the paper's artifact (cache hits per level, IPI counts, local/remote
//!   memory hits, instruction counts, runtime), and the §7.3 per-phase
//!   report rendered from deltas of those counters,
//! * an [`ipi`] module modelling cross-ISA inter-processor interrupts
//!   (§7.2) and the IPI-latency characterisation of Figures 5 and 6,
//! * a deterministic [`rng`] so every experiment is reproducible,
//! * a [`fault`] module scheduling deterministic, replayable fault
//!   injection (message loss, IPI loss, allocation failures, lock contention)
//!   for the robustness harness,
//! * a [`trace`] module with the deterministic observability layer: a
//!   bounded typed-event ring and latency histograms wired through
//!   every layer of the stack without costing a simulated cycle,
//! * an [`intmap`] module with [`IntMap`]/[`IntSet`], the fixed-hash
//!   maps every simulator table uses instead of `std`'s SipHash ones.
//!
//! # Example
//!
//! ```
//! use stramash_sim::config::SimConfig;
//! use stramash_sim::time::{Clock, Cycles};
//!
//! let cfg = SimConfig::big_pair();
//! let mut clock = Clock::new();
//! clock.retire(1_000);                 // 1000 instructions at IPC 1
//! clock.add_memory(Cycles::new(300));  // one main-memory access
//! assert_eq!(clock.cycles(), Cycles::new(1_300));
//! assert!(cfg.validate().is_ok());
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]
#![warn(clippy::undocumented_unsafe_blocks)]

pub mod chaos;
pub mod checkpoint;
pub mod config;
pub mod fault;
pub mod intmap;
pub mod ipi;
pub mod rng;
pub mod stats;
pub mod time;
pub mod trace;

pub use chaos::{shrink, ChaosEvent, ChaosSchedule};
pub use checkpoint::{CheckpointError, Decoder, Encoder};
pub use config::{
    CacheConfig, CacheGeometry, CxlCosts, DomainConfig, HardwareModel, Interconnect, LatencyTable,
    SimConfig,
};
pub use fault::{
    shared_injector, FaultEvent, FaultInjector, FaultKind, FaultPlan, FaultSite,
    SharedFaultInjector,
};
pub use intmap::{IntMap, IntSet};
pub use stats::{fully_shared_estimate, render_phases, DomainStats, StatsError};
pub use time::{Clock, Cycles, DomainId, Timebase};
pub use trace::{shared_tracer, EventClass, MetricsRegistry, SharedTracer, TraceEvent, Tracer};

/// Number of simulated ISA domains. The paper's prototype fuses exactly two
/// kernel instances (x86-64 and AArch64); scalability beyond a pair is
/// explicitly out of scope (§1 "Limitations and Future Work").
pub const NUM_DOMAINS: usize = 2;
