//! Remote CPU drivers — the paper's accessor-function bundles.
//!
//! §5: when a kernel must read or write another kernel's
//! architecture-dependent data (the page table being the canonical
//! example), it cannot use a common format; instead "each kernel
//! instance keeps its own data format, but the others use *accessor
//! functions* to read/write the original data … A collection of accessor
//! functions targeting a specific ISA makes up a **remote CPU driver**."
//!
//! [`RemoteCpuDriver`] is exactly that collection for page tables: given
//! the remote ISA, it computes entry addresses with the remote level
//! masks and encodes/decodes entries in the remote format. The timed
//! memory traffic itself is issued by the caller (the kernel crates), so
//! the driver stays a pure, side-effect-free codec.

use crate::format::{IsaKind, PageTableFormat};
use crate::pte::{
    decode_pte, decode_table_entry, encode_pte, encode_table_entry, PteFlags, RawPte,
};

/// Accessor functions for one remote ISA's page-table structures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RemoteCpuDriver {
    format: &'static PageTableFormat,
}

impl RemoteCpuDriver {
    /// Creates the driver for structures owned by a kernel of `isa`.
    #[must_use]
    pub fn new(isa: IsaKind) -> Self {
        RemoteCpuDriver { format: isa.format() }
    }

    /// The ISA this driver understands.
    #[must_use]
    pub fn isa(&self) -> IsaKind {
        self.format.isa
    }

    /// The underlying format descriptor.
    #[must_use]
    pub fn format(&self) -> &'static PageTableFormat {
        self.format
    }

    /// Number of memory reads a full software walk performs (one per
    /// level — the §6.4 remote walker cost that replaces a message
    /// round-trip).
    #[must_use]
    pub fn walk_steps(&self) -> u8 {
        self.format.levels
    }

    /// The physical address of the entry indexing `va` at `level` in a
    /// table rooted at `table_base_pa`, using the remote ISA's masks.
    #[must_use]
    pub fn entry_addr(&self, table_base_pa: u64, va: u64, level: u8) -> u64 {
        table_base_pa + self.format.va_index(va, level) * 8
    }

    /// Decodes a leaf entry read from remote memory.
    #[must_use]
    pub fn decode_leaf(&self, raw: u64) -> Option<(u64, PteFlags)> {
        decode_pte(self.format, raw)
    }

    /// Decodes a non-leaf entry into the next table's physical address.
    #[must_use]
    pub fn decode_table(&self, raw: u64) -> Option<u64> {
        decode_table_entry(self.format, raw)
    }

    /// Encodes a leaf entry in the remote format ("with the remote node
    /// ISA format", §6.4).
    #[must_use]
    pub fn encode_leaf(&self, pfn: u64, flags: PteFlags) -> RawPte {
        encode_pte(self.format, pfn, flags)
    }

    /// Encodes a non-leaf entry in the remote format.
    #[must_use]
    pub fn encode_table(&self, next_table_pa: u64) -> u64 {
        encode_table_entry(self.format, next_table_pa)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_addresses_follow_remote_masks() {
        let x86 = RemoteCpuDriver::new(IsaKind::X86_64);
        let va = (3u64 << 48) | (1 << 39);
        assert_eq!(x86.entry_addr(0x10_0000, va, 0), 0x10_0000 + 3 * 8);
        assert_eq!(x86.entry_addr(0x20_0000, va, 1), 0x20_0000 + 8);
        assert_eq!(x86.entry_addr(0x20_0000, va, 2), 0x20_0000);
    }

    #[test]
    fn walk_steps_matches_levels() {
        assert_eq!(RemoteCpuDriver::new(IsaKind::Aarch64).walk_steps(), 5);
    }

    #[test]
    fn leaf_codec_roundtrip_through_driver() {
        let drv = RemoteCpuDriver::new(IsaKind::Aarch64);
        let pte = drv.encode_leaf(0x99, PteFlags::user_data());
        let (pfn, flags) = drv.decode_leaf(pte.raw).unwrap();
        assert_eq!(pfn, 0x99);
        assert!(flags.writable && flags.user);
    }

    #[test]
    fn table_codec_roundtrip_through_driver() {
        let drv = RemoteCpuDriver::new(IsaKind::X86_64);
        let raw = drv.encode_table(0xF000);
        assert_eq!(drv.decode_table(raw), Some(0xF000));
        assert_eq!(drv.decode_table(0), None);
    }

    #[test]
    fn drivers_for_different_isas_disagree_on_bits() {
        // The reason drivers exist: identical logical entries have
        // different raw encodings per ISA.
        let x = RemoteCpuDriver::new(IsaKind::X86_64).encode_leaf(5, PteFlags::user_data());
        let a = RemoteCpuDriver::new(IsaKind::Aarch64).encode_leaf(5, PteFlags::user_data());
        assert_ne!(x.raw, a.raw);
        assert_eq!(x.decode().unwrap().0, a.decode().unwrap().0);
    }
}
