//! Processes, software TLBs, and the per-process cross-kernel state.
//!
//! A migratable process (compiled with the Popcorn toolchain, §5) has
//! one VMA list owned by its *origin* kernel and a page table per
//! kernel instance — "both page tables refer to the same physical memory
//! pages for the same application" under Stramash, or to replicated
//! pages under Popcorn's DSM (§6.4).

use crate::addr::{VirtAddr, PAGE_SIZE};
use crate::pagetable::PageTable;
use crate::vma::{Vma, VmaKind, VmaProt, VmaTree};
use std::fmt;
use stramash_isa::PteFlags;
use stramash_mem::PhysAddr;
use stramash_sim::{DomainId, IntMap};

/// Process identifier (fused PID namespace, §6.6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Pid(pub u32);

impl fmt::Display for Pid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pid:{}", self.0)
    }
}

/// A software model of the hardware TLB: translations cached here cost
/// nothing extra; misses trigger a (timed) software walk. Flushed on
/// migration and on any unmap/protect, mirroring real TLB shootdowns.
#[derive(Debug, Clone, Default)]
pub struct SoftTlb {
    map: IntMap<u64, (PhysAddr, PteFlags)>,
    /// Bumped on every invalidation/flush; translation caches layered
    /// above the TLB (the batched pipeline's [`AccessSession`]s) compare
    /// generations to detect that their entries may have gone stale.
    ///
    /// [`AccessSession`]: crate::session::AccessSession
    generation: u64,
}

impl SoftTlb {
    /// Creates an empty TLB.
    #[must_use]
    pub fn new() -> Self {
        SoftTlb::default()
    }

    /// Looks up the translation of the page containing `va`. Hits and
    /// misses are counted by the caller, in `DomainStats`.
    #[must_use]
    pub fn lookup(&self, va: VirtAddr) -> Option<(PhysAddr, PteFlags)> {
        self.map.get(&va.vpn()).copied()
    }

    /// Installs a translation (page-granular).
    pub fn insert(&mut self, va: VirtAddr, page_pa: PhysAddr, flags: PteFlags) {
        self.map.insert(va.vpn(), (page_pa.align_down(PAGE_SIZE), flags));
    }

    /// Drops one page's translation.
    pub fn invalidate(&mut self, va: VirtAddr) {
        self.generation += 1;
        self.map.remove(&va.vpn());
    }

    /// Drops everything (migration, exec).
    pub fn flush(&mut self) {
        self.generation += 1;
        self.map.clear();
    }

    /// The invalidation generation (see the `generation` field).
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Number of cached translations.
    #[must_use]
    pub fn entries(&self) -> usize {
        self.map.len()
    }

    /// Serializes the TLB (entries in VPN order, generation)
    /// into a checkpoint section.
    pub fn save_state(&self, e: &mut stramash_sim::checkpoint::Encoder) {
        e.tag(0x544c_4253); // "TLBS"
        let mut vpns: Vec<u64> = self.map.keys().copied().collect();
        vpns.sort_unstable();
        e.u64(vpns.len() as u64);
        for vpn in vpns {
            let (pa, fl) = self.map[&vpn];
            e.u64(vpn);
            e.u64(pa.raw());
            for b in [fl.present, fl.writable, fl.user, fl.accessed, fl.dirty, fl.no_exec] {
                e.bool(b);
            }
        }
        e.u64(self.generation);
    }

    /// Restores a TLB written by [`SoftTlb::save_state`].
    ///
    /// # Errors
    ///
    /// Decoding errors.
    pub fn load_state(
        &mut self,
        d: &mut stramash_sim::checkpoint::Decoder<'_>,
    ) -> Result<(), stramash_sim::checkpoint::CheckpointError> {
        d.tag(0x544c_4253)?;
        let n = d.len()?;
        let mut map = IntMap::with_capacity_and_hasher(n, Default::default());
        for _ in 0..n {
            let vpn = d.u64()?;
            let pa = PhysAddr::new(d.u64()?);
            let flags = PteFlags {
                present: d.bool()?,
                writable: d.bool()?,
                user: d.bool()?,
                accessed: d.bool()?,
                dirty: d.bool()?,
                no_exec: d.bool()?,
            };
            map.insert(vpn, (pa, flags));
        }
        self.map = map;
        self.generation = d.u64()?;
        Ok(())
    }
}

/// Base of the mmap area used by the bump allocator.
pub const MMAP_BASE: u64 = 0x4000_0000;

/// A (single-threaded, migratable) process.
#[derive(Debug)]
pub struct Process {
    /// The process id.
    pub pid: Pid,
    /// The kernel the process started on ("origin", §6.4).
    pub origin: DomainId,
    /// The kernel currently executing it.
    pub current: DomainId,
    /// The authoritative VMA list (owned by the origin kernel; Stramash
    /// lets the remote kernel walk it directly, §6.4).
    pub vmas: VmaTree,
    /// Per-domain page tables (same VA space, per-ISA formats).
    pub page_tables: [Option<PageTable>; 2],
    /// Per-domain software TLBs.
    pub tlbs: [SoftTlb; 2],
    /// Physical address of the shared VMA-lock word.
    pub vma_lock: PhysAddr,
    /// Physical address of the Stramash-PTL cross-ISA page-table lock.
    pub page_table_lock: PhysAddr,
    /// Bump cursor for `mmap`.
    mmap_cursor: u64,
}

impl Process {
    /// Creates a process on `origin` with the given page table and lock
    /// words (allocated by the boot/OS layer in the origin's memory).
    #[must_use]
    pub fn new(
        pid: Pid,
        origin: DomainId,
        origin_pt: PageTable,
        vma_lock: PhysAddr,
        page_table_lock: PhysAddr,
    ) -> Self {
        let mut page_tables = [None, None];
        page_tables[origin.index()] = Some(origin_pt);
        Process {
            pid,
            origin,
            current: origin,
            vmas: VmaTree::new(),
            page_tables,
            tlbs: [SoftTlb::new(), SoftTlb::new()],
            vma_lock,
            page_table_lock,
            mmap_cursor: MMAP_BASE,
        }
    }

    /// The page table of `domain`, if one exists yet.
    #[must_use]
    pub fn page_table(&self, domain: DomainId) -> Option<&PageTable> {
        self.page_tables[domain.index()].as_ref()
    }

    /// The TLB of `domain`.
    pub fn tlb_mut(&mut self, domain: DomainId) -> &mut SoftTlb {
        &mut self.tlbs[domain.index()]
    }

    /// Read-only view of `domain`'s TLB.
    #[must_use]
    pub fn tlb(&self, domain: DomainId) -> &SoftTlb {
        &self.tlbs[domain.index()]
    }

    /// Reserves `len` bytes of anonymous VA space (page-rounded) and
    /// records the VMA. Pages populate lazily on fault.
    ///
    /// # Errors
    ///
    /// Propagates [`crate::vma::VmaError`] (cannot happen with the bump
    /// cursor unless the cursor overflowed into an existing area).
    pub fn mmap(
        &mut self,
        len: u64,
        prot: VmaProt,
        kind: VmaKind,
    ) -> Result<VirtAddr, crate::vma::VmaError> {
        let start = VirtAddr::new(self.mmap_cursor);
        let len = len.div_ceil(PAGE_SIZE) * PAGE_SIZE;
        let end = start.offset(len);
        self.vmas.insert(Vma { start, end, prot, kind })?;
        // Leave a guard page between areas.
        self.mmap_cursor = end.raw() + PAGE_SIZE;
        Ok(start)
    }

    /// Flushes the current domain's TLB and switches domains (the
    /// scheduler half of migration; OS layers add protocol costs).
    pub fn switch_domain(&mut self, to: DomainId) {
        self.tlbs[self.current.index()].flush();
        self.current = to;
    }

    /// Serializes the process into a checkpoint section. Page-table
    /// *contents* live in simulated memory (serialized separately); only
    /// the `(isa, root)` handles are written here.
    pub fn save_state(&self, e: &mut stramash_sim::checkpoint::Encoder) {
        e.tag(0x5052_4f43); // "PROC"
        e.u32(self.pid.0);
        e.domain(self.origin);
        e.domain(self.current);
        self.vmas.save_state(e);
        for pt in &self.page_tables {
            match pt {
                Some(pt) => {
                    e.bool(true);
                    e.u8(match pt.isa() {
                        stramash_isa::IsaKind::X86_64 => 0,
                        stramash_isa::IsaKind::Aarch64 => 1,
                    });
                    e.u64(pt.root().raw());
                }
                None => e.bool(false),
            }
        }
        for tlb in &self.tlbs {
            tlb.save_state(e);
        }
        e.u64(self.vma_lock.raw());
        e.u64(self.page_table_lock.raw());
        e.u64(self.mmap_cursor);
    }

    /// Reconstructs a process from a checkpoint section.
    ///
    /// # Errors
    ///
    /// Decoding errors.
    pub fn load_state(
        d: &mut stramash_sim::checkpoint::Decoder<'_>,
    ) -> Result<Self, stramash_sim::checkpoint::CheckpointError> {
        use stramash_sim::checkpoint::CheckpointError;
        d.tag(0x5052_4f43)?;
        let pid = Pid(d.u32()?);
        let origin = d.domain()?;
        let current = d.domain()?;
        let vmas = VmaTree::load_state(d)?;
        let mut page_tables = [None, None];
        for slot in &mut page_tables {
            if d.bool()? {
                let isa = match d.u8()? {
                    0 => stramash_isa::IsaKind::X86_64,
                    1 => stramash_isa::IsaKind::Aarch64,
                    _ => return Err(CheckpointError::Malformed("bad ISA code")),
                };
                let root = PhysAddr::new(d.u64()?);
                *slot = Some(crate::pagetable::PageTable::from_existing(isa, root));
            }
        }
        let mut tlbs = [SoftTlb::new(), SoftTlb::new()];
        for tlb in &mut tlbs {
            tlb.load_state(d)?;
        }
        let vma_lock = PhysAddr::new(d.u64()?);
        let page_table_lock = PhysAddr::new(d.u64()?);
        let mmap_cursor = d.u64()?;
        Ok(Process {
            pid,
            origin,
            current,
            vmas,
            page_tables,
            tlbs,
            vma_lock,
            page_table_lock,
            mmap_cursor,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::FrameAllocator;
    use stramash_isa::IsaKind;
    use stramash_mem::MemorySystem;
    use stramash_sim::SimConfig;

    fn proc() -> Process {
        let mut mem = MemorySystem::new(SimConfig::big_pair()).unwrap();
        let mut frames = FrameAllocator::new();
        frames.add_region(PhysAddr::new(0x10_0000), 1 << 20).unwrap();
        let pt = PageTable::new(&mut mem, &mut frames, IsaKind::X86_64).unwrap();
        Process::new(Pid(1), DomainId::X86, pt, PhysAddr::new(0x1000), PhysAddr::new(0x1008))
    }

    #[test]
    fn new_process_has_origin_pt_only() {
        let p = proc();
        assert!(p.page_table(DomainId::X86).is_some());
        assert!(p.page_table(DomainId::ARM).is_none());
        assert_eq!(p.current, DomainId::X86);
        assert_eq!(p.origin, DomainId::X86);
    }

    #[test]
    fn mmap_bumps_with_guard_pages() {
        let mut p = proc();
        let a = p.mmap(10_000, VmaProt::rw(), VmaKind::Anon).unwrap();
        let b = p.mmap(4096, VmaProt::rw(), VmaKind::Anon).unwrap();
        assert_eq!(a.raw(), MMAP_BASE);
        // 10 000 B rounds to 3 pages + 1 guard page.
        assert_eq!(b.raw(), MMAP_BASE + 4 * PAGE_SIZE);
        assert_eq!(p.vmas.len(), 2);
        assert!(p.vmas.find(a.offset(9_999)).is_some());
        assert!(p.vmas.find(a.offset(3 * PAGE_SIZE)).is_none(), "guard page unmapped");
    }

    #[test]
    fn tlb_hit_miss_and_flush() {
        let mut tlb = SoftTlb::new();
        let va = VirtAddr::new(0x4000_0123);
        assert!(tlb.lookup(va).is_none());
        tlb.insert(va, PhysAddr::new(0x55_4000), PteFlags::user_data());
        let (pa, fl) = tlb.lookup(va).unwrap();
        assert_eq!(pa.raw(), 0x55_4000);
        assert!(fl.writable);
        // Same page, different offset: still a hit.
        assert!(tlb.lookup(VirtAddr::new(0x4000_0fff)).is_some());
        assert!(tlb.lookup(VirtAddr::new(0x4000_1000)).is_none());
        assert_eq!(tlb.entries(), 1);
        tlb.flush();
        assert!(tlb.lookup(va).is_none());
    }

    #[test]
    fn tlb_invalidate_single_page() {
        let mut tlb = SoftTlb::new();
        tlb.insert(VirtAddr::new(0x1000), PhysAddr::new(0x9000), PteFlags::user_data());
        tlb.insert(VirtAddr::new(0x2000), PhysAddr::new(0xA000), PteFlags::user_data());
        tlb.invalidate(VirtAddr::new(0x1000));
        assert!(tlb.lookup(VirtAddr::new(0x1000)).is_none());
        assert!(tlb.lookup(VirtAddr::new(0x2000)).is_some());
    }

    #[test]
    fn tlb_generation_tracks_invalidations() {
        let mut tlb = SoftTlb::new();
        assert_eq!(tlb.generation(), 0);
        tlb.insert(VirtAddr::new(0x1000), PhysAddr::new(0x9000), PteFlags::user_data());
        assert_eq!(tlb.generation(), 0, "inserts do not stale anything");
        tlb.invalidate(VirtAddr::new(0x1000));
        assert_eq!(tlb.generation(), 1);
        tlb.flush();
        assert_eq!(tlb.generation(), 2);
    }

    #[test]
    fn switch_domain_flushes_tlb() {
        let mut p = proc();
        p.tlb_mut(DomainId::X86).insert(
            VirtAddr::new(0x1000),
            PhysAddr::new(0x9000),
            PteFlags::user_data(),
        );
        p.switch_domain(DomainId::ARM);
        assert_eq!(p.current, DomainId::ARM);
        assert_eq!(p.tlbs[DomainId::X86.index()].entries(), 0);
    }

    #[test]
    fn pid_display() {
        assert_eq!(Pid(7).to_string(), "pid:7");
    }
}
