//! Portable page-table-entry flags and the per-ISA codec.
//!
//! The Stramash page-fault handler inserts a freshly allocated page into
//! *both* kernels' page tables — its own in its own format, and the
//! origin kernel's "with the remote node ISA format" (§6.4). When the
//! process migrates back, "the origin kernel can simply reconfigure the
//! PTE to its own format". [`PteFlags`] is the ISA-neutral meaning; the
//! codec functions translate it to and from each ISA's raw bits.

use crate::format::{IsaKind, PageTableFormat};

/// ISA-neutral leaf-entry permissions and state bits.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct PteFlags {
    /// Mapping is valid.
    pub present: bool,
    /// Writable (already in the *logical* sense; the AArch64 codec
    /// inverts it into AP\[2\]).
    pub writable: bool,
    /// Accessible from user mode / EL0.
    pub user: bool,
    /// Hardware/software accessed flag.
    pub accessed: bool,
    /// Dirty flag.
    pub dirty: bool,
    /// Not executable.
    pub no_exec: bool,
}

impl PteFlags {
    /// The flag set used for freshly faulted-in anonymous user pages.
    #[must_use]
    pub fn user_data() -> Self {
        PteFlags {
            present: true,
            writable: true,
            user: true,
            accessed: true,
            dirty: false,
            no_exec: true,
        }
    }

    /// A read-only variant (COW / replicated DSM pages are mapped
    /// read-only so that writes fault, §6.4).
    #[must_use]
    pub fn read_only(mut self) -> Self {
        self.writable = false;
        self
    }
}

/// A raw page-table entry tagged with the format that encoded it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RawPte {
    /// The raw 64-bit entry.
    pub raw: u64,
    /// The ISA whose format the bits follow.
    pub isa: IsaKind,
}

impl RawPte {
    /// An empty (non-present) entry.
    #[must_use]
    pub fn empty(isa: IsaKind) -> Self {
        RawPte { raw: 0, isa }
    }

    /// Whether the present/valid bit is set.
    #[must_use]
    pub fn is_present(self) -> bool {
        let f = self.isa.format();
        self.raw & (1 << f.present_bit) != 0
    }

    /// Decodes into `(pfn, flags)`; `None` if not present.
    #[must_use]
    pub fn decode(self) -> Option<(u64, PteFlags)> {
        decode_pte(self.isa.format(), self.raw)
    }

    /// Re-encodes this entry in another ISA's format — the §6.4
    /// cross-format PTE conversion. Non-present entries convert to empty
    /// entries.
    #[must_use]
    pub fn convert_to(self, isa: IsaKind) -> RawPte {
        match self.decode() {
            Some((pfn, flags)) => encode_pte(isa.format(), pfn, flags),
            None => RawPte::empty(isa),
        }
    }
}

/// Encodes a leaf entry in `format`.
///
/// # Panics
///
/// Panics if `pfn` does not fit the format's PFN field.
#[must_use]
pub fn encode_pte(format: &PageTableFormat, pfn: u64, flags: PteFlags) -> RawPte {
    let pfn_field = pfn << format.pfn_low;
    assert_eq!(pfn_field & !format.pfn_mask(), 0, "pfn {pfn:#x} out of range for {:?}", format.isa);
    let mut raw = pfn_field;
    let mut set = |bit: u8, on: bool| {
        if on {
            raw |= 1u64 << bit;
        }
    };
    set(format.present_bit, flags.present);
    let write_bit_on = flags.writable != format.write_inverted;
    set(format.write_bit, write_bit_on);
    set(format.user_bit, flags.user);
    set(format.accessed_bit, flags.accessed);
    set(format.dirty_bit, flags.dirty);
    set(format.nx_bit, flags.no_exec);
    RawPte { raw, isa: format.isa }
}

/// Decodes a raw entry under `format`; `None` when not present.
#[must_use]
pub fn decode_pte(format: &PageTableFormat, raw: u64) -> Option<(u64, PteFlags)> {
    if raw & (1 << format.present_bit) == 0 {
        return None;
    }
    let bit = |b: u8| raw & (1u64 << b) != 0;
    let flags = PteFlags {
        present: true,
        writable: bit(format.write_bit) != format.write_inverted,
        user: bit(format.user_bit),
        accessed: bit(format.accessed_bit),
        dirty: bit(format.dirty_bit),
        no_exec: bit(format.nx_bit),
    };
    let pfn = (raw & format.pfn_mask()) >> format.pfn_low;
    Some((pfn, flags))
}

/// Encodes a non-leaf (table) entry pointing at the next-level table.
///
/// Both ISAs mark intermediate entries present; AArch64 additionally
/// sets the "table" type bit (bit 1).
#[must_use]
pub fn encode_table_entry(format: &PageTableFormat, next_table_pa: u64) -> u64 {
    let mut raw = next_table_pa & format.pfn_mask();
    raw |= 1 << format.present_bit;
    if format.isa == IsaKind::Aarch64 {
        raw |= 1 << 1; // table descriptor
    } else {
        raw |= 1 << format.write_bit | 1 << format.user_bit; // permissive upper level
    }
    raw
}

/// Decodes a non-leaf entry into the next table's physical address;
/// `None` when not present.
#[must_use]
pub fn decode_table_entry(format: &PageTableFormat, raw: u64) -> Option<u64> {
    if raw & (1 << format.present_bit) == 0 {
        return None;
    }
    Some(raw & format.pfn_mask())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(isa: IsaKind, flags: PteFlags) {
        let f = isa.format();
        let pte = encode_pte(f, 0x1234, flags);
        let (pfn, decoded) = pte.decode().expect("present entry decodes");
        assert_eq!(pfn, 0x1234);
        assert_eq!(decoded, PteFlags { present: true, ..flags });
    }

    #[test]
    fn roundtrip_user_data_both_isas() {
        for isa in IsaKind::ALL {
            roundtrip(isa, PteFlags::user_data());
            roundtrip(isa, PteFlags { user: false, ..PteFlags::user_data() });
            roundtrip(isa, PteFlags::user_data().read_only());
        }
    }

    #[test]
    fn raw_bits_differ_between_isas() {
        let flags = PteFlags::user_data();
        let x = encode_pte(IsaKind::X86_64.format(), 7, flags);
        let a = encode_pte(IsaKind::Aarch64.format(), 7, flags);
        assert_ne!(x.raw, a.raw, "same meaning must produce different raw bits");
    }

    #[test]
    fn aarch64_write_bit_is_inverted() {
        let f = IsaKind::Aarch64.format();
        let rw = encode_pte(f, 1, PteFlags::user_data());
        let ro = encode_pte(f, 1, PteFlags::user_data().read_only());
        // AP[2] (bit 7) set means read-only.
        assert_eq!(rw.raw & (1 << 7), 0);
        assert_ne!(ro.raw & (1 << 7), 0);
    }

    #[test]
    fn x86_write_bit_is_direct() {
        let f = IsaKind::X86_64.format();
        let rw = encode_pte(f, 1, PteFlags::user_data());
        assert_ne!(rw.raw & (1 << 1), 0);
    }

    #[test]
    fn non_present_decodes_none() {
        for isa in IsaKind::ALL {
            assert!(RawPte::empty(isa).decode().is_none());
            assert!(!RawPte::empty(isa).is_present());
        }
    }

    #[test]
    fn cross_isa_conversion_preserves_meaning() {
        // §6.4: the origin kernel reconfigures a remote-format PTE to its
        // own format; pfn and logical flags must survive.
        let flags = PteFlags {
            present: true,
            writable: true,
            user: true,
            accessed: true,
            dirty: true,
            no_exec: false,
        };
        let arm = encode_pte(IsaKind::Aarch64.format(), 0xabcd, flags);
        let x86 = arm.convert_to(IsaKind::X86_64);
        assert_eq!(x86.isa, IsaKind::X86_64);
        let (pfn, decoded) = x86.decode().unwrap();
        assert_eq!(pfn, 0xabcd);
        assert_eq!(decoded, flags);
        // And back again.
        let back = x86.convert_to(IsaKind::Aarch64);
        assert_eq!(back.raw, arm.raw);
    }

    #[test]
    fn convert_empty_stays_empty() {
        let e = RawPte::empty(IsaKind::X86_64).convert_to(IsaKind::Aarch64);
        assert_eq!(e.raw, 0);
        assert_eq!(e.isa, IsaKind::Aarch64);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn encode_rejects_oversized_pfn() {
        // AArch64 PFN field ends at bit 48 → pfn must fit 36 bits.
        let _ = encode_pte(IsaKind::Aarch64.format(), 1 << 37, PteFlags::user_data());
    }

    #[test]
    fn table_entry_roundtrip() {
        for isa in IsaKind::ALL {
            let f = isa.format();
            let raw = encode_table_entry(f, 0x7_7000);
            assert_eq!(decode_table_entry(f, raw), Some(0x7_7000));
            assert_eq!(decode_table_entry(f, 0), None);
        }
    }

    #[test]
    fn aarch64_table_entry_sets_type_bit() {
        let raw = encode_table_entry(IsaKind::Aarch64.format(), 0x5000);
        assert_ne!(raw & 0b10, 0);
    }
}
