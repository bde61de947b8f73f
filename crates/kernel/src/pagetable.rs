//! Multi-level page tables stored *in simulated physical memory*.
//!
//! Table frames live in the owning kernel's memory and every timed walk
//! or update goes through the [`MemorySystem`], so a **software remote
//! page table walk** (§6.4) automatically pays remote-memory and
//! coherence costs: the walker domain reads five entries that physically
//! reside in the origin kernel's DRAM.

use crate::addr::{VirtAddr, PAGE_SIZE};
use crate::frame::{FrameAllocator, FrameError};
use std::fmt;
use stramash_isa::pte::{decode_table_entry, encode_table_entry};
use stramash_isa::{IsaKind, PteFlags, RawPte};
use stramash_mem::{MemorySystem, PhysAddr};
use stramash_sim::{Cycles, DomainId};

/// Errors from page-table mutation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapError {
    /// The virtual page already has a present leaf entry.
    AlreadyMapped(VirtAddr),
    /// A required intermediate table is missing (PTE-level insertion
    /// only — the §9.2.3 condition that forces an origin-handled fault).
    MissingTable {
        /// The level whose table was absent (0 = root's child).
        level: u8,
    },
    /// The frame allocator could not supply a table frame.
    Frame(FrameError),
}

impl fmt::Display for MapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MapError::AlreadyMapped(va) => write!(f, "virtual page {va} is already mapped"),
            MapError::MissingTable { level } => {
                write!(f, "intermediate table missing at level {level}")
            }
            MapError::Frame(e) => write!(f, "table frame allocation failed: {e}"),
        }
    }
}

impl std::error::Error for MapError {}

impl From<FrameError> for MapError {
    fn from(e: FrameError) -> Self {
        MapError::Frame(e)
    }
}

/// A per-kernel, per-process page table in one ISA's format.
///
/// # Examples
///
/// ```
/// use stramash_isa::{IsaKind, PteFlags};
/// use stramash_kernel::addr::VirtAddr;
/// use stramash_kernel::{FrameAllocator, PageTable};
/// use stramash_mem::{MemorySystem, PhysAddr};
/// use stramash_sim::{DomainId, SimConfig};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut mem = MemorySystem::new(SimConfig::big_pair())?;
/// let mut frames = FrameAllocator::new();
/// frames.add_region(PhysAddr::new(64 << 20), 1 << 20)?;
/// let pt = PageTable::new(&mut mem, &mut frames, IsaKind::Aarch64)?;
/// let va = VirtAddr::new(0x4000_0000);
/// pt.map(&mut mem, &mut frames, DomainId::ARM, va, PhysAddr::new(0x70_0000),
///        PteFlags::user_data(), false)?;
/// // A software walk — by EITHER domain (§6.4's remote walker).
/// let (hit, _cycles) = pt.walk(&mut mem, DomainId::X86, va);
/// assert_eq!(hit.unwrap().0, PhysAddr::new(0x70_0000));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageTable {
    isa: IsaKind,
    root: PhysAddr,
}

impl PageTable {
    /// Allocates an empty (zeroed) root table from `frames`.
    ///
    /// # Errors
    ///
    /// Propagates [`FrameError`] if no frame is available.
    pub fn new(
        mem: &mut MemorySystem,
        frames: &mut FrameAllocator,
        isa: IsaKind,
    ) -> Result<Self, FrameError> {
        let root = frames.alloc()?;
        mem.store_mut().fill(root, PAGE_SIZE, 0);
        Ok(PageTable { isa, root })
    }

    /// Rebinds a handle to an existing root table — the restore path:
    /// the table *contents* live in (already-restored) simulated memory,
    /// so a checkpointed page table is just this pair.
    #[must_use]
    pub fn from_existing(isa: IsaKind, root: PhysAddr) -> Self {
        PageTable { isa, root }
    }

    /// The table's ISA format.
    #[must_use]
    pub fn isa(&self) -> IsaKind {
        self.isa
    }

    /// Physical address of the root table.
    #[must_use]
    pub fn root(&self) -> PhysAddr {
        self.root
    }

    /// Timed software walk performed by `walker` (which may be the
    /// *other* domain — the remote walker of §6.4). Returns the
    /// translation, if present, and the cycles spent reading entries.
    pub fn walk(
        &self,
        mem: &mut MemorySystem,
        walker: DomainId,
        va: VirtAddr,
    ) -> (Option<(PhysAddr, PteFlags)>, Cycles) {
        let fmt = self.isa.format();
        let mut table = self.root;
        let mut cycles = Cycles::ZERO;
        for level in 0..fmt.levels - 1 {
            let entry_pa = PhysAddr::new(table.raw() + fmt.va_index(va.raw(), level) * 8);
            let (raw, c) = mem.read_u64(walker, entry_pa);
            cycles += c;
            match decode_table_entry(fmt, raw) {
                Some(next) => table = PhysAddr::new(next),
                None => return (None, cycles),
            }
        }
        let leaf_pa = PhysAddr::new(table.raw() + fmt.va_index(va.raw(), fmt.levels - 1) * 8);
        let (raw, c) = mem.read_u64(walker, leaf_pa);
        cycles += c;
        match (RawPte { raw, isa: self.isa }).decode() {
            Some((pfn, flags)) => {
                let pa = PhysAddr::new((pfn << fmt.page_shift) + va.page_offset());
                (Some((pa, flags)), cycles)
            }
            None => (None, cycles),
        }
    }

    /// Untimed walk (boot-time setup, checkers).
    #[must_use]
    pub fn walk_untimed(&self, mem: &MemorySystem, va: VirtAddr) -> Option<(PhysAddr, PteFlags)> {
        let fmt = self.isa.format();
        let mut table = self.root;
        for level in 0..fmt.levels - 1 {
            let entry_pa = PhysAddr::new(table.raw() + fmt.va_index(va.raw(), level) * 8);
            let raw = mem.store().read_u64(entry_pa);
            table = PhysAddr::new(decode_table_entry(fmt, raw)?);
        }
        let leaf_pa = PhysAddr::new(table.raw() + fmt.va_index(va.raw(), fmt.levels - 1) * 8);
        let raw = mem.store().read_u64(leaf_pa);
        let (pfn, flags) = (RawPte { raw, isa: self.isa }).decode()?;
        Some((PhysAddr::new((pfn << fmt.page_shift) + va.page_offset()), flags))
    }

    /// Maps `va → pa` with `flags`, creating intermediate tables as
    /// needed from `frames`. When `timed`, entry reads/writes are
    /// charged to `walker`.
    ///
    /// # Errors
    ///
    /// [`MapError::AlreadyMapped`] if a present leaf exists;
    /// [`MapError::Frame`] if a table frame cannot be allocated.
    #[allow(clippy::too_many_arguments)] // mirrors the kernel fault-path signature
    pub fn map(
        &self,
        mem: &mut MemorySystem,
        frames: &mut FrameAllocator,
        walker: DomainId,
        va: VirtAddr,
        pa: PhysAddr,
        flags: PteFlags,
        timed: bool,
    ) -> Result<Cycles, MapError> {
        let fmt = self.isa.format();
        let mut table = self.root;
        let mut cycles = Cycles::ZERO;
        for level in 0..fmt.levels - 1 {
            let entry_pa = PhysAddr::new(table.raw() + fmt.va_index(va.raw(), level) * 8);
            let raw = if timed {
                let (r, c) = mem.read_u64(walker, entry_pa);
                cycles += c;
                r
            } else {
                mem.store().read_u64(entry_pa)
            };
            match decode_table_entry(fmt, raw) {
                Some(next) => table = PhysAddr::new(next),
                None => {
                    let new_table = frames.alloc()?;
                    mem.store_mut().fill(new_table, PAGE_SIZE, 0);
                    let entry = encode_table_entry(fmt, new_table.raw());
                    if timed {
                        cycles += mem.write_u64(walker, entry_pa, entry);
                    } else {
                        mem.store_mut().write_u64(entry_pa, entry);
                    }
                    table = new_table;
                }
            }
        }
        let leaf_pa = PhysAddr::new(table.raw() + fmt.va_index(va.raw(), fmt.levels - 1) * 8);
        let existing = if timed {
            let (r, c) = mem.read_u64(walker, leaf_pa);
            cycles += c;
            r
        } else {
            mem.store().read_u64(leaf_pa)
        };
        if (RawPte { raw: existing, isa: self.isa }).is_present() {
            return Err(MapError::AlreadyMapped(va.page_base()));
        }
        let pte = stramash_isa::pte::encode_pte(fmt, pa.raw() >> fmt.page_shift, flags);
        if timed {
            cycles += mem.write_u64(walker, leaf_pa, pte.raw);
        } else {
            mem.store_mut().write_u64(leaf_pa, pte.raw);
        }
        Ok(cycles)
    }

    /// Physical address of the *leaf entry slot* for `va`, if the whole
    /// intermediate chain exists. This is the §9.2.3 test: Stramash's
    /// remote kernel may insert "at the PTE level" only when the upper
    /// layers are present. When `timed`, the intermediate reads are
    /// charged to `walker`.
    pub fn leaf_slot(
        &self,
        mem: &mut MemorySystem,
        walker: DomainId,
        va: VirtAddr,
        timed: bool,
    ) -> (Result<PhysAddr, MapError>, Cycles) {
        let fmt = self.isa.format();
        let mut table = self.root;
        let mut cycles = Cycles::ZERO;
        for level in 0..fmt.levels - 1 {
            let entry_pa = PhysAddr::new(table.raw() + fmt.va_index(va.raw(), level) * 8);
            let raw = if timed {
                let (r, c) = mem.read_u64(walker, entry_pa);
                cycles += c;
                r
            } else {
                mem.store().read_u64(entry_pa)
            };
            match decode_table_entry(fmt, raw) {
                Some(next) => table = PhysAddr::new(next),
                None => return (Err(MapError::MissingTable { level }), cycles),
            }
        }
        let slot = PhysAddr::new(table.raw() + fmt.va_index(va.raw(), fmt.levels - 1) * 8);
        (Ok(slot), cycles)
    }

    /// Clears the leaf entry for `va`, returning the old translation.
    pub fn unmap(
        &self,
        mem: &mut MemorySystem,
        walker: DomainId,
        va: VirtAddr,
        timed: bool,
    ) -> (Option<PhysAddr>, Cycles) {
        let (slot, mut cycles) = self.leaf_slot(mem, walker, va, timed);
        let Ok(slot) = slot else {
            return (None, cycles);
        };
        let raw = if timed {
            let (r, c) = mem.read_u64(walker, slot);
            cycles += c;
            r
        } else {
            mem.store().read_u64(slot)
        };
        let fmt = self.isa.format();
        let old = (RawPte { raw, isa: self.isa })
            .decode()
            .map(|(pfn, _)| PhysAddr::new(pfn << fmt.page_shift));
        if old.is_some() {
            if timed {
                cycles += mem.write_u64(walker, slot, 0);
            } else {
                mem.store_mut().write_u64(slot, 0);
            }
        }
        (old, cycles)
    }

    /// Rewrites the leaf flags for `va` (COW downgrades/upgrades).
    /// Returns `false` if the page is not mapped.
    pub fn protect(
        &self,
        mem: &mut MemorySystem,
        walker: DomainId,
        va: VirtAddr,
        flags: PteFlags,
        timed: bool,
    ) -> (bool, Cycles) {
        let (slot, mut cycles) = self.leaf_slot(mem, walker, va, timed);
        let Ok(slot) = slot else {
            return (false, cycles);
        };
        let raw = if timed {
            let (r, c) = mem.read_u64(walker, slot);
            cycles += c;
            r
        } else {
            mem.store().read_u64(slot)
        };
        let Some((pfn, _)) = (RawPte { raw, isa: self.isa }).decode() else {
            return (false, cycles);
        };
        let pte = stramash_isa::pte::encode_pte(self.isa.format(), pfn, flags);
        if timed {
            cycles += mem.write_u64(walker, slot, pte.raw);
        } else {
            mem.store_mut().write_u64(slot, pte.raw);
        }
        (true, cycles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stramash_sim::{HardwareModel, SimConfig};

    fn setup() -> (MemorySystem, FrameAllocator) {
        let mem =
            MemorySystem::new(SimConfig::big_pair().with_hw_model(HardwareModel::Shared)).unwrap();
        let mut frames = FrameAllocator::new();
        frames.add_region(PhysAddr::new(0x10_0000), 4 << 20).unwrap();
        (mem, frames)
    }

    #[test]
    fn map_then_walk_both_isas() {
        for isa in IsaKind::ALL {
            let (mut mem, mut frames) = setup();
            let pt = PageTable::new(&mut mem, &mut frames, isa).unwrap();
            let va = VirtAddr::new(0x4000_2000);
            let pa = PhysAddr::new(0x50_3000);
            pt.map(&mut mem, &mut frames, DomainId::X86, va, pa, PteFlags::user_data(), false)
                .unwrap();
            let got = pt.walk_untimed(&mem, va).unwrap();
            assert_eq!(got.0, pa);
            assert!(got.1.writable);
            // Offsets carry through.
            let got = pt.walk_untimed(&mem, va.offset(0x123)).unwrap();
            assert_eq!(got.0.raw(), pa.raw() + 0x123);
        }
    }

    #[test]
    fn walk_unmapped_is_none() {
        let (mut mem, mut frames) = setup();
        let pt = PageTable::new(&mut mem, &mut frames, IsaKind::X86_64).unwrap();
        assert!(pt.walk_untimed(&mem, VirtAddr::new(0x1234_5000)).is_none());
        let (res, cycles) = pt.walk(&mut mem, DomainId::X86, VirtAddr::new(0x1234_5000));
        assert!(res.is_none());
        assert!(cycles.raw() > 0, "even a failed walk reads the root entry");
    }

    #[test]
    fn double_map_rejected() {
        let (mut mem, mut frames) = setup();
        let pt = PageTable::new(&mut mem, &mut frames, IsaKind::Aarch64).unwrap();
        let va = VirtAddr::new(0x7000);
        pt.map(
            &mut mem,
            &mut frames,
            DomainId::ARM,
            va,
            PhysAddr::new(0x60_0000),
            PteFlags::user_data(),
            false,
        )
        .unwrap();
        let err = pt
            .map(
                &mut mem,
                &mut frames,
                DomainId::ARM,
                va,
                PhysAddr::new(0x61_0000),
                PteFlags::user_data(),
                false,
            )
            .unwrap_err();
        assert_eq!(err, MapError::AlreadyMapped(va));
    }

    #[test]
    fn timed_walk_charges_five_reads() {
        let (mut mem, mut frames) = setup();
        let pt = PageTable::new(&mut mem, &mut frames, IsaKind::X86_64).unwrap();
        let va = VirtAddr::new(0x9000);
        pt.map(
            &mut mem,
            &mut frames,
            DomainId::X86,
            va,
            PhysAddr::new(0x70_0000),
            PteFlags::user_data(),
            false,
        )
        .unwrap();
        let before = *mem.stats(DomainId::X86);
        let (res, cycles) = pt.walk(&mut mem, DomainId::X86, va);
        assert!(res.is_some());
        // 5 levels → 5 entry reads, all data accesses.
        let walk = mem.stats(DomainId::X86).checked_since(&before).unwrap();
        assert_eq!(walk.mem_accesses, 5);
        assert!(cycles.raw() >= 5 * 4);
    }

    #[test]
    fn remote_walker_pays_remote_latency() {
        // Table frames live in x86-local memory (0x10_0000 region); a
        // walk by the Arm domain is a §6.4 remote software walk.
        let (mut mem, mut frames) = setup();
        let pt = PageTable::new(&mut mem, &mut frames, IsaKind::X86_64).unwrap();
        let va = VirtAddr::new(0xA000);
        pt.map(
            &mut mem,
            &mut frames,
            DomainId::X86,
            va,
            PhysAddr::new(0x70_0000),
            PteFlags::user_data(),
            false,
        )
        .unwrap();
        mem.flush_caches();
        let before = *mem.stats(DomainId::ARM);
        let (_, remote_cost) = pt.walk(&mut mem, DomainId::ARM, va);
        let walk = mem.stats(DomainId::ARM).checked_since(&before).unwrap();
        assert_eq!(walk.remote_mem_hits, 5);
        // 5 remote DRAM reads at 620 cycles each (ThunderX2 row).
        assert!(remote_cost.raw() >= 5 * 620);
    }

    #[test]
    fn leaf_slot_missing_table() {
        let (mut mem, mut frames) = setup();
        let pt = PageTable::new(&mut mem, &mut frames, IsaKind::X86_64).unwrap();
        let (res, _) = pt.leaf_slot(&mut mem, DomainId::X86, VirtAddr::new(0x5000), false);
        assert_eq!(res, Err(MapError::MissingTable { level: 0 }));
    }

    #[test]
    fn unmap_clears_translation() {
        let (mut mem, mut frames) = setup();
        let pt = PageTable::new(&mut mem, &mut frames, IsaKind::Aarch64).unwrap();
        let va = VirtAddr::new(0xD000);
        pt.map(
            &mut mem,
            &mut frames,
            DomainId::ARM,
            va,
            PhysAddr::new(0x71_0000),
            PteFlags::user_data(),
            false,
        )
        .unwrap();
        let (old, _) = pt.unmap(&mut mem, DomainId::ARM, va, false);
        assert_eq!(old, Some(PhysAddr::new(0x71_0000)));
        assert!(pt.walk_untimed(&mem, va).is_none());
        let (old, _) = pt.unmap(&mut mem, DomainId::ARM, va, false);
        assert_eq!(old, None);
    }

    #[test]
    fn protect_downgrades_to_read_only() {
        let (mut mem, mut frames) = setup();
        let pt = PageTable::new(&mut mem, &mut frames, IsaKind::X86_64).unwrap();
        let va = VirtAddr::new(0xE000);
        pt.map(
            &mut mem,
            &mut frames,
            DomainId::X86,
            va,
            PhysAddr::new(0x72_0000),
            PteFlags::user_data(),
            false,
        )
        .unwrap();
        let (ok, _) =
            pt.protect(&mut mem, DomainId::X86, va, PteFlags::user_data().read_only(), false);
        assert!(ok);
        let (_, flags) = pt.walk_untimed(&mem, va).unwrap();
        assert!(!flags.writable);
        let (ok, _) = pt.protect(
            &mut mem,
            DomainId::X86,
            VirtAddr::new(0xFF000),
            PteFlags::user_data(),
            false,
        );
        assert!(!ok);
    }

    #[test]
    fn map_error_display() {
        assert!(!MapError::AlreadyMapped(VirtAddr::new(0)).to_string().is_empty());
        assert!(!MapError::MissingTable { level: 2 }.to_string().is_empty());
        assert!(!MapError::Frame(FrameError::OutOfMemory).to_string().is_empty());
    }
}
