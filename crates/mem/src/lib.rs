//! Memory system simulator for the Stramash reproduction.
//!
//! This crate is the Rust counterpart of Stramash-QEMU's memory model
//! (§7 of the paper): one coherent physical memory shared by both ISA
//! domains, per-domain three-level cache hierarchies with MESI
//! coherence, the three Figure 3 hardware models, and the CXL snoop cost
//! accounting of §7.3.
//!
//! * [`phys`] — physical addresses, the Figure 4 layout, and the sparse
//!   byte backing store (data really lives here; both domains see every
//!   write immediately, like cache-coherent DRAM).
//! * [`hwmodel`] — *Separated* / *Shared* / *Fully Shared* address
//!   classification and DRAM latency selection.
//! * [`cache`] — set-associative LRU caches and per-domain hierarchies.
//! * [`system`] — [`MemorySystem`], the timed access path with MESI
//!   transitions and CXL snoops; the currency is [`stramash_sim::Cycles`].
//! * [`mod@reference`] — an independently structured model (the gem5 Ruby
//!   stand-in) used by the Figure 7/8 validation benches.
//!
//! # Example
//!
//! ```
//! use stramash_mem::{MemorySystem, PhysAddr};
//! use stramash_sim::{DomainId, HardwareModel, SimConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cfg = SimConfig::big_pair().with_hw_model(HardwareModel::Shared);
//! let mut mem = MemorySystem::new(cfg)?;
//! // x86 writes a value into the 4–8 GB shared pool...
//! let pool = PhysAddr::new(5 << 30);
//! mem.write_u64(DomainId::X86, pool, 42);
//! // ...and the Arm kernel reads it back coherently.
//! let (value, latency) = mem.read_u64(DomainId::ARM, pool);
//! assert_eq!(value, 42);
//! assert!(latency.raw() > 0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]
#![warn(clippy::undocumented_unsafe_blocks)]

pub mod cache;
pub mod hwmodel;
pub mod phys;
pub mod reference;
pub mod system;

pub use cache::{Cache, CacheHierarchy, Mesi};
pub use hwmodel::{AddressMap, MemClass};
pub use phys::{MemRegion, PhysAddr, PhysLayout, RegionKind, SparseMemory};
pub use reference::ReferenceSystem;
pub use system::{
    Access, AccessKind, AccessOutcome, AccessPlan, HitLevel, MemorySystem, PlanOp, TraceEntry,
};
