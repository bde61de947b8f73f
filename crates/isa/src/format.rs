//! ISA kinds and page-table format descriptors.
//!
//! Both kernels in the paper's prototype use 5-level, 4 KiB-granule page
//! tables (§6.4), but the *entry formats* differ: an x86-64 PTE and an
//! AArch64 stage-1 descriptor place their flags at different bits, and
//! AArch64 even inverts the sense of the write-permission bit (AP\[2\] set
//! means *read-only*). A kernel walking the other ISA's table must use
//! that ISA's masks — which is what [`PageTableFormat`] encodes.

use std::fmt;

/// The instruction-set architectures supported by the prototype (§6:
/// "the Popcorn project fully supports only the x86 and Arm ISAs, and
/// our Stramash prototype inherits the same limitation").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum IsaKind {
    /// 64-bit x86 (the domain that boots at physical 0x0).
    X86_64,
    /// 64-bit Arm (AArch64) with the Large System Extensions.
    Aarch64,
}

impl IsaKind {
    /// Both ISAs, in domain-index order (x86 = domain 0).
    pub const ALL: [IsaKind; 2] = [IsaKind::X86_64, IsaKind::Aarch64];

    /// The page-table format of this ISA.
    #[must_use]
    pub fn format(self) -> &'static PageTableFormat {
        match self {
            IsaKind::X86_64 => &X86_64_FORMAT,
            IsaKind::Aarch64 => &AARCH64_FORMAT,
        }
    }

    /// The ISA conventionally run by a domain index (x86 on 0, Arm on 1),
    /// matching the Figure 4 boot layout.
    #[must_use]
    pub fn of_domain(domain: stramash_sim::DomainId) -> IsaKind {
        match domain {
            stramash_sim::DomainId::X86 => IsaKind::X86_64,
            _ => IsaKind::Aarch64,
        }
    }
}

impl fmt::Display for IsaKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IsaKind::X86_64 => f.write_str("x86-64"),
            IsaKind::Aarch64 => f.write_str("aarch64"),
        }
    }
}

/// Architecture-specific layout of a page-table entry and of the
/// virtual-address index fields.
///
/// All fields are public so that remote CPU drivers (and tests) can
/// inspect the exact masks; the struct is only constructed by this
/// module, one static instance per ISA.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PageTableFormat {
    /// Which ISA this format belongs to.
    pub isa: IsaKind,
    /// Number of translation levels (5 for both prototype ISAs, §6.4).
    pub levels: u8,
    /// Index bits per level (9 for a 4 KiB granule with 512 entries).
    pub index_bits: u8,
    /// log2 of the page size (12).
    pub page_shift: u8,
    /// Bit position of the valid/present flag.
    pub present_bit: u8,
    /// Bit position of the write-permission flag.
    pub write_bit: u8,
    /// Whether the write bit is *inverted* (set = read-only). True for
    /// AArch64's AP\[2\], false for x86's R/W.
    pub write_inverted: bool,
    /// Bit position of the user/EL0-accessible flag.
    pub user_bit: u8,
    /// Bit position of the accessed flag (x86 A, AArch64 AF).
    pub accessed_bit: u8,
    /// Bit position of the dirty flag (x86 D; AArch64 uses a software
    /// dirty bit at 55, as Linux does).
    pub dirty_bit: u8,
    /// Bit position of the no-execute flag (x86 NX = 63, AArch64 UXN = 54).
    pub nx_bit: u8,
    /// Lowest bit of the physical frame number field.
    pub pfn_low: u8,
    /// Highest bit (exclusive) of the physical frame number field.
    pub pfn_high: u8,
}

/// x86-64 long-mode 5-level paging.
pub static X86_64_FORMAT: PageTableFormat = PageTableFormat {
    isa: IsaKind::X86_64,
    levels: 5,
    index_bits: 9,
    page_shift: 12,
    present_bit: 0,
    write_bit: 1,
    write_inverted: false,
    user_bit: 2,
    accessed_bit: 5,
    dirty_bit: 6,
    nx_bit: 63,
    pfn_low: 12,
    pfn_high: 52,
};

/// AArch64 stage-1 translation, 4 KiB granule, with Linux's software
/// dirty bit.
pub static AARCH64_FORMAT: PageTableFormat = PageTableFormat {
    isa: IsaKind::Aarch64,
    levels: 5,
    index_bits: 9,
    page_shift: 12,
    present_bit: 0,
    write_bit: 7, // AP[2]: set means read-only
    write_inverted: true,
    user_bit: 6,      // AP[1]: EL0 accessible
    accessed_bit: 10, // AF
    dirty_bit: 55,    // software dirty (Linux arm64 PTE_DIRTY)
    nx_bit: 54,       // UXN
    pfn_low: 12,
    pfn_high: 48,
};

impl PageTableFormat {
    /// Entries per table (512 for 9 index bits).
    #[must_use]
    pub fn entries_per_table(&self) -> u64 {
        1 << self.index_bits
    }

    /// The table index used at translation `level` (0 = root, walking
    /// down to `levels - 1` = leaf).
    ///
    /// # Panics
    ///
    /// Panics if `level >= levels`.
    #[must_use]
    pub fn va_index(&self, va: u64, level: u8) -> u64 {
        assert!(level < self.levels, "level {level} out of range");
        let low =
            self.page_shift as u32 + (self.levels - 1 - level) as u32 * self.index_bits as u32;
        (va >> low) & (self.entries_per_table() - 1)
    }

    /// Mask selecting the PFN field of an entry.
    #[must_use]
    pub fn pfn_mask(&self) -> u64 {
        let high = if self.pfn_high >= 64 { u64::MAX } else { (1u64 << self.pfn_high) - 1 };
        high & !((1u64 << self.pfn_low) - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stramash_sim::DomainId;

    #[test]
    fn isa_of_domain_matches_boot_layout() {
        assert_eq!(IsaKind::of_domain(DomainId::X86), IsaKind::X86_64);
        assert_eq!(IsaKind::of_domain(DomainId::ARM), IsaKind::Aarch64);
    }

    #[test]
    fn display_names() {
        assert_eq!(IsaKind::X86_64.to_string(), "x86-64");
        assert_eq!(IsaKind::Aarch64.to_string(), "aarch64");
    }

    #[test]
    fn both_formats_are_five_level_4k() {
        // §6.4: "both x86 and Arm in Stramash-Linux are using 5-level
        // page tables" with 4 KiB pages.
        for isa in IsaKind::ALL {
            let f = isa.format();
            assert_eq!(f.levels, 5);
            assert_eq!(f.page_shift, 12);
            assert_eq!(f.entries_per_table(), 512);
        }
    }

    #[test]
    fn formats_differ_in_flag_layout() {
        // The whole point of accessor functions: the layouts disagree.
        let x = IsaKind::X86_64.format();
        let a = IsaKind::Aarch64.format();
        assert_ne!(x.write_bit, a.write_bit);
        assert_ne!(x.write_inverted, a.write_inverted);
        assert_ne!(x.dirty_bit, a.dirty_bit);
        assert_ne!(x.nx_bit, a.nx_bit);
    }

    #[test]
    fn va_index_extracts_nine_bit_fields() {
        let f = IsaKind::X86_64.format();
        // Construct a VA with distinct indices 1,2,3,4,5 and offset 6.
        let va = (1u64 << 48) | (2 << 39) | (3 << 30) | (4 << 21) | (5 << 12) | 6;
        assert_eq!(f.va_index(va, 0), 1);
        assert_eq!(f.va_index(va, 1), 2);
        assert_eq!(f.va_index(va, 2), 3);
        assert_eq!(f.va_index(va, 3), 4);
        assert_eq!(f.va_index(va, 4), 5);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn va_index_rejects_bad_level() {
        let _ = IsaKind::X86_64.format().va_index(0, 5);
    }

    #[test]
    fn pfn_masks() {
        let x = IsaKind::X86_64.format();
        assert_eq!(x.pfn_mask(), 0x000f_ffff_ffff_f000);
        let a = IsaKind::Aarch64.format();
        assert_eq!(a.pfn_mask(), 0x0000_ffff_ffff_f000);
    }
}
