//! OS kernel substrate for the Stramash reproduction.
//!
//! Everything a monolithic kernel needs and both OS designs share,
//! running over the simulated machine of [`stramash_mem`]:
//!
//! * [`addr`] / [`frame`] — virtual addresses and per-kernel physical
//!   frame allocation (§5 *Minimal Resource Provisioning*),
//! * [`pagetable`] — per-ISA page tables stored in simulated physical
//!   memory, so remote walks pay real remote-memory latencies (§6.4),
//! * [`vma`] — ordered VMA trees (§6.4),
//! * [`futex`] — futex tables with cross-domain waiters (§6.5),
//! * [`msg`] — the ring-buffer + IPI messaging layer and the TCP
//!   baseline transport (§6.2, §8.2),
//! * [`boot`] — the §6.1 boot partitioning over the Figure 4 layout,
//! * [`process`] — migratable processes with per-domain page tables and
//!   software TLBs,
//! * [`system`] — [`BaseSystem`], the [`OsSystem`] trait that Popcorn
//!   and Stramash implement, and the single-kernel [`VanillaSystem`]
//!   baseline.
//!
//! # Example
//!
//! ```
//! use stramash_kernel::system::{OsSystem, VanillaSystem};
//! use stramash_kernel::vma::VmaProt;
//! use stramash_sim::{DomainId, SimConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut sys = VanillaSystem::new(SimConfig::big_pair())?;
//! let pid = sys.spawn(DomainId::X86)?;
//! let buf = sys.mmap(pid, 4096, VmaProt::rw())?;
//! sys.store_u64(pid, buf, 42)?; // demand-paged on first touch
//! assert_eq!(sys.load_u64(pid, buf)?, 42);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]
#![warn(clippy::undocumented_unsafe_blocks)]

pub mod addr;
pub mod boot;
pub mod buddy;
pub mod frame;
pub mod futex;
pub mod kernel;
pub mod msg;
pub mod pagetable;
pub mod process;
pub mod session;
pub mod system;
pub mod vma;
pub mod watchdog;

pub use addr::{VirtAddr, PAGE_SIZE};
pub use boot::{boot_pair, BootConfig, BootedPlatform};
pub use buddy::{BuddyAllocator, BuddyError};
pub use frame::{FrameAllocator, FrameError};
pub use futex::{FutexTable, ThreadId, Waiter};
pub use kernel::{KernelCounters, KernelInstance};
pub use msg::{Message, MessagingLayer, MsgCounters, MsgType, Transport};
pub use pagetable::{MapError, PageTable};
pub use process::{Pid, Process, SoftTlb};
pub use session::AccessSession;
pub use system::{BaseSystem, OsError, OsSystem, VanillaSystem};
pub use vma::{Vma, VmaKind, VmaProt, VmaTree};
pub use watchdog::{Watchdog, WatchdogReport};
