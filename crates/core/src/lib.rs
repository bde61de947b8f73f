//! **Stramash** — the fused-kernel operating system.
//!
//! This crate is the reproduction of the paper's primary contribution
//! (§5 "Fused-kernel Operating Systems Design", §6 "Stramash-Linux
//! Implementation"): a multiple-kernel OS for cache-coherent,
//! heterogeneous-ISA platforms built on the **shared-mostly** principle
//! — kernel instances communicate through (and share state in)
//! cache-coherent shared memory instead of message passing.
//!
//! Modules:
//!
//! * [`system`] — [`StramashSystem`], the OS itself: the Stramash page
//!   fault handler with direct remote PTE insertion under the cross-ISA
//!   Stramash-PTL, remote VMA walking, fused futexes, migration with
//!   PTE reconfiguration, and process-exit recycling (§6.4, §6.5).
//! * [`galloc`] — the global memory allocator over the shared pool with
//!   hotplug-style offline/online (§6.3, Table 4).
//!
//! # Example
//!
//! ```
//! use stramash::StramashSystem;
//! use stramash_kernel::system::OsSystem;
//! use stramash_kernel::vma::VmaProt;
//! use stramash_sim::{DomainId, HardwareModel, SimConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cfg = SimConfig::big_pair().with_hw_model(HardwareModel::Shared);
//! let mut sys = StramashSystem::new(cfg)?;
//! let pid = sys.spawn(DomainId::X86)?;
//! let buf = sys.mmap(pid, 64 << 10, VmaProt::rw())?;
//! sys.store_u64(pid, buf, 1)?;           // origin builds its tables
//! sys.migrate(pid, DomainId::ARM)?;      // cross-ISA migration
//! sys.store_u64(pid, buf.offset(4096), 2)?; // remote fault: NO messages
//! assert_eq!(sys.counters().direct_remote_faults, 1);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]
#![warn(clippy::undocumented_unsafe_blocks)]

pub mod galloc;
pub mod system;

pub use galloc::{GallocError, GlobalAllocator, MAX_BLOCK, MIN_BLOCK, PRESSURE_THRESHOLD};
pub use system::{StramashCounters, StramashSystem, DEFAULT_BLOCK_SIZE};
