//! ISA modelling for the Stramash reproduction.
//!
//! The fused-kernel design's hardest problem is that kernel data is not
//! always ISA-portable: page tables, descriptor flags and atomic
//! primitives differ between x86-64 and AArch64. This crate captures
//! exactly the ISA properties the paper's mechanisms depend on:
//!
//! * [`mod@format`] — per-ISA page-table **format descriptors**: level
//!   counts, index extraction, and the genuinely different flag layouts
//!   of x86 PTEs and AArch64 descriptors (§6.4 "Software Remote Page
//!   Table Walker": "Each level page mask is re-defined if it is
//!   different between x86 and Arm").
//! * [`pte`] — a portable flag set and the per-ISA encode/decode codec,
//!   including the §6.4 cross-format conversion ("the origin kernel can
//!   simply reconfigure the PTE to its own format").
//! * [`atomic`] — the cross-ISA atomicity model of §6.5/§7.1: AArch64
//!   LSE CAS vs LL/SC, and the soundness condition for cross-ISA locks.
//! * [`regs`] — the cost of the Popcorn-toolchain register-state
//!   transformation executed at migration equivalence points (§5).

#![warn(missing_docs)]
#![deny(unsafe_code)]
#![warn(clippy::undocumented_unsafe_blocks)]

pub mod atomic;
pub mod format;
pub mod pte;
pub mod regs;

pub use atomic::{AtomicKind, AtomicModel};
pub use format::{IsaKind, PageTableFormat};
pub use pte::{PteFlags, RawPte};
pub use regs::MigrationCostModel;
