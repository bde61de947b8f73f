//! Umbrella crate for the Stramash fused-kernel OS reproduction.
//!
//! Re-exports every workspace crate and provides a [`prelude`] for the
//! examples, integration tests and benchmark harnesses.

#![warn(missing_docs)]
#![deny(unsafe_code)]
#![warn(clippy::undocumented_unsafe_blocks)]

pub use popcorn_os as popcorn;
pub use stramash as fused;
pub use stramash_bench as bench;
pub use stramash_isa as isa;
pub use stramash_kernel as kernel;
pub use stramash_mem as mem;
pub use stramash_sim as sim;
pub use stramash_workloads as workloads;

/// Commonly used types for experiments.
pub mod prelude {
    pub use stramash_sim::{Cycles, DomainId, HardwareModel, SimConfig};
}
