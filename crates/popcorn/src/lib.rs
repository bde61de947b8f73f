//! The multiple-kernel baseline OS (Popcorn-Linux model).
//!
//! Popcorn-Linux is "the state-of-the-art multiple-kernel OS" the paper
//! compares against (§8): shared-nothing kernel instances that provide a
//! single system image by *message passing* — software DSM for the
//! application address space (pages shipped and replicated between
//! kernels), origin-kernel futex management, and message-based VMA and
//! migration protocols.
//!
//! Two transports reproduce the §8.2 baselines:
//!
//! * [`PopcornSystem::new_shm`] — messaging over shared-memory ring
//!   buffers (Popcorn-SHM),
//! * [`PopcornSystem::new_tcp`] — messaging over TCP with the measured
//!   75 µs round trip (Popcorn-TCP).
//!
//! # Example
//!
//! ```
//! use popcorn_os::PopcornSystem;
//! use stramash_kernel::system::OsSystem;
//! use stramash_kernel::vma::VmaProt;
//! use stramash_sim::{DomainId, SimConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut sys = PopcornSystem::new_shm(SimConfig::big_pair())?;
//! let pid = sys.spawn(DomainId::X86)?;
//! let buf = sys.mmap(pid, 4096, VmaProt::rw())?;
//! sys.migrate(pid, DomainId::ARM)?;          // cross-ISA migration
//! sys.store_u64(pid, buf, 7)?;               // DSM replicates the page
//! assert!(sys.replicated_pages(pid) >= 1);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]
#![warn(clippy::undocumented_unsafe_blocks)]

pub mod dsm;
pub mod system;

pub use dsm::{DsmDirectory, DsmPage, DsmPageState};
pub use system::PopcornSystem;
