//! Host-time benchmark of the Stramash simulator.
//!
//! One command runs a named workload against the default release build
//! on one simulation thread, checks every simulated result through
//! [`gate`], and prints its metrics by name and unit as one JSON line.
//! See `BENCHMARK.md` beside this package for the workloads, metrics
//! and recorded numbers.

#![warn(missing_docs)]

pub mod gate;
pub mod measure;
pub mod metrics;
pub mod ops;
pub mod reference;
