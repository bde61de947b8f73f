//! A binary buddy allocator — the engine behind each kernel's physical
//! frame allocation, as in Linux (whose buddy/LRU lists the §6.3 hotplug
//! offline path walks). Frames are handed out one page at a time: an
//! allocation splits the smallest free block down to one page, and a
//! free coalesces the page with its free buddies.

use crate::addr::PAGE_SIZE;
use std::collections::BTreeSet;
use std::fmt;
use stramash_sim::IntSet;

/// Largest block order (2¹⁰ pages = 4 MiB), matching Linux's MAX_ORDER
/// neighbourhood.
pub const MAX_ORDER: u32 = 10;

/// Errors from the buddy allocator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BuddyError {
    /// No free page left.
    OutOfMemory,
    /// The address was not allocated by this allocator.
    NotAllocated,
}

impl fmt::Display for BuddyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuddyError::OutOfMemory => f.write_str("no free page left"),
            BuddyError::NotAllocated => f.write_str("address was not allocated here"),
        }
    }
}

impl std::error::Error for BuddyError {}

/// A binary buddy allocator over one physical region.
///
/// # Examples
///
/// ```
/// use stramash_kernel::buddy::BuddyAllocator;
/// use stramash_mem::PhysAddr;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut buddy = BuddyAllocator::new(PhysAddr::new(0x10_0000), 1 << 20);
/// let a = buddy.alloc()?; // one 4 KiB frame
/// let b = buddy.alloc()?;
/// assert_eq!(b.raw(), a.raw() + 4096, "the split hands out the low half first");
/// buddy.free(a)?;
/// buddy.free(b)?;
/// assert_eq!(buddy.allocated_pages(), 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct BuddyAllocator {
    base: u64,
    total_pages: u64,
    /// Free blocks per order, as page indices relative to `base`.
    free_lists: Vec<BTreeSet<u64>>,
    /// Allocated pages, as page indices relative to `base`.
    allocated: IntSet<u64>,
}

impl BuddyAllocator {
    /// Creates an allocator over `[base, base + len)`.
    ///
    /// # Panics
    ///
    /// Panics unless `base` and `len` are page-aligned and `len > 0`.
    #[must_use]
    pub fn new(base: stramash_mem::PhysAddr, len: u64) -> Self {
        assert!(base.is_aligned(PAGE_SIZE), "buddy base must be page-aligned");
        assert!(len > 0 && len.is_multiple_of(PAGE_SIZE), "buddy length must be whole pages");
        let total_pages = len / PAGE_SIZE;
        let mut a = BuddyAllocator {
            base: base.raw(),
            total_pages,
            free_lists: vec![BTreeSet::new(); (MAX_ORDER + 1) as usize],
            allocated: IntSet::default(),
        };
        // Greedy seeding: carve the region into naturally aligned
        // power-of-two blocks (alignment relative to the region base).
        let mut idx = 0;
        while idx < total_pages {
            let align_order =
                if idx == 0 { MAX_ORDER } else { idx.trailing_zeros().min(MAX_ORDER) };
            let fit_order = (63 - (total_pages - idx).leading_zeros()).min(MAX_ORDER);
            let order = align_order.min(fit_order);
            a.free_lists[order as usize].insert(idx);
            idx += 1 << order;
        }
        a
    }

    /// Total pages managed.
    #[must_use]
    pub fn total_pages(&self) -> u64 {
        self.total_pages
    }

    /// Pages currently allocated.
    #[must_use]
    pub fn allocated_pages(&self) -> u64 {
        self.allocated.len() as u64
    }

    /// Whether `pa` lies inside this allocator's region.
    #[must_use]
    pub fn contains(&self, pa: stramash_mem::PhysAddr) -> bool {
        pa.raw() >= self.base && pa.raw() < self.base + self.total_pages * PAGE_SIZE
    }

    /// Allocates one page: the lowest block of the smallest non-empty
    /// order is split down to a page, freeing the upper halves.
    ///
    /// # Errors
    ///
    /// [`BuddyError::OutOfMemory`] when no page is free.
    pub fn alloc(&mut self) -> Result<stramash_mem::PhysAddr, BuddyError> {
        let from =
            self.free_lists.iter().position(|l| !l.is_empty()).ok_or(BuddyError::OutOfMemory)?;
        let idx = self.free_lists[from].pop_first().expect("non-empty");
        for cur in (0..from).rev() {
            self.free_lists[cur].insert(idx + (1 << cur));
        }
        self.allocated.insert(idx);
        Ok(stramash_mem::PhysAddr::new(self.base + idx * PAGE_SIZE))
    }

    /// Frees a previously allocated page, coalescing with free buddies.
    ///
    /// # Errors
    ///
    /// [`BuddyError::NotAllocated`] if `pa` is not a live allocation.
    pub fn free(&mut self, pa: stramash_mem::PhysAddr) -> Result<(), BuddyError> {
        if !self.contains(pa) || !pa.is_aligned(PAGE_SIZE) {
            return Err(BuddyError::NotAllocated);
        }
        let mut idx = (pa.raw() - self.base) / PAGE_SIZE;
        if !self.allocated.remove(&idx) {
            return Err(BuddyError::NotAllocated);
        }
        // Coalesce while the buddy is free at the same order.
        let mut order = 0;
        while order < MAX_ORDER {
            let buddy = idx ^ (1 << order);
            if buddy + (1 << order) > self.total_pages
                || !self.free_lists[order as usize].remove(&buddy)
            {
                break;
            }
            idx = idx.min(buddy);
            order += 1;
        }
        self.free_lists[order as usize].insert(idx);
        Ok(())
    }

    /// Verifies conservation and disjointness (for tests): allocated +
    /// free pages equals the total, and no two live blocks overlap.
    ///
    /// # Panics
    ///
    /// Panics on any inconsistency.
    pub fn assert_invariants(&self) {
        let free_pages: u64 =
            self.free_lists.iter().enumerate().map(|(o, l)| (l.len() as u64) << o).sum();
        assert_eq!(
            free_pages + self.allocated_pages(),
            self.total_pages,
            "pages must be conserved"
        );
        // Disjointness: collect every block (free + allocated) and check
        // for overlaps.
        let mut blocks: Vec<(u64, u64)> = Vec::new();
        for (o, list) in self.free_lists.iter().enumerate() {
            for &idx in list {
                blocks.push((idx, 1u64 << o));
            }
        }
        blocks.extend(self.allocated.iter().map(|&idx| (idx, 1)));
        blocks.sort_unstable();
        for w in blocks.windows(2) {
            assert!(w[0].0 + w[0].1 <= w[1].0, "blocks overlap: {:?} and {:?}", w[0], w[1]);
        }
        let covered: u64 = blocks.iter().map(|&(_, l)| l).sum();
        assert_eq!(covered, self.total_pages, "blocks must tile the region");
    }

    /// Serializes the allocator's mutable state (free lists and the
    /// allocated pages) into a checkpoint section. `BTreeSet` and the
    /// sorted allocated list give a canonical byte stream.
    pub fn save_state(&self, e: &mut stramash_sim::checkpoint::Encoder) {
        e.tag(0x4244_4459); // "BDDY"
        e.u64(self.base);
        e.u64(self.total_pages);
        for list in &self.free_lists {
            let v: Vec<u64> = list.iter().copied().collect();
            e.u64s(&v);
        }
        let mut allocated: Vec<u64> = self.allocated.iter().copied().collect();
        allocated.sort_unstable();
        e.u64s(&allocated);
    }

    /// Restores mutable state written by [`BuddyAllocator::save_state`]
    /// into this allocator.
    ///
    /// # Errors
    ///
    /// Decoding errors; `ConfigMismatch` if the section was written for
    /// a region with a different base or size.
    pub fn load_state(
        &mut self,
        d: &mut stramash_sim::checkpoint::Decoder<'_>,
    ) -> Result<(), stramash_sim::checkpoint::CheckpointError> {
        use stramash_sim::checkpoint::CheckpointError;
        d.tag(0x4244_4459)?;
        if d.u64()? != self.base || d.u64()? != self.total_pages {
            return Err(CheckpointError::ConfigMismatch);
        }
        let mut free_lists = Vec::with_capacity((MAX_ORDER + 1) as usize);
        for _ in 0..=MAX_ORDER {
            free_lists.push(d.u64s()?.into_iter().collect::<BTreeSet<u64>>());
        }
        let allocated = d.u64s()?;
        if allocated.iter().any(|&idx| idx >= self.total_pages) {
            return Err(CheckpointError::Malformed("buddy allocation out of range"));
        }
        self.free_lists = free_lists;
        self.allocated = allocated.into_iter().collect();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stramash_mem::PhysAddr;
    use stramash_sim::rng::SimRng;

    fn buddy(pages: u64) -> BuddyAllocator {
        BuddyAllocator::new(PhysAddr::new(0x40_0000), pages * PAGE_SIZE)
    }

    #[test]
    fn single_frame_alloc_free() {
        let mut b = buddy(16);
        let f = b.alloc().unwrap();
        assert!(b.contains(f));
        assert_eq!(b.allocated_pages(), 1);
        b.free(f).unwrap();
        assert_eq!(b.allocated_pages(), 0);
        b.assert_invariants();
        // After freeing everything, coalescing restores one big block.
        assert_eq!(b.free_lists[4].len(), 1);
    }

    #[test]
    fn natural_alignment() {
        // Every free block stays naturally aligned relative to the base
        // through splits and coalescing: the buddy of a block is found
        // by flipping one index bit, which relies on it.
        let mut rng = SimRng::new(0xA11C);
        let mut b = buddy(100);
        let mut live = Vec::new();
        for _ in 0..2_000 {
            if live.is_empty() || rng.gen_range(2) == 0 {
                live.extend(b.alloc());
            } else {
                let i = rng.gen_range(live.len() as u64) as usize;
                b.free(live.swap_remove(i)).unwrap();
            }
            for (order, list) in b.free_lists.iter().enumerate() {
                assert!(list.iter().all(|idx| idx % (1 << order) == 0), "order-{order} block");
            }
        }
    }

    #[test]
    fn split_and_coalesce_roundtrip() {
        let mut b = buddy(8);
        let blocks: Vec<_> = (0..8).map(|_| b.alloc().unwrap()).collect();
        assert_eq!(b.allocated_pages(), 8);
        assert_eq!(b.alloc(), Err(BuddyError::OutOfMemory));
        for blk in &blocks {
            b.free(*blk).unwrap();
        }
        b.assert_invariants();
        // Fully coalesced: a single order-3 block again.
        assert_eq!(b.free_lists[3].len(), 1);
    }

    #[test]
    fn double_free_and_foreign_free_rejected() {
        let mut b = buddy(8);
        let f = b.alloc().unwrap();
        b.free(f).unwrap();
        assert_eq!(b.free(f), Err(BuddyError::NotAllocated));
        assert_eq!(b.free(PhysAddr::new(0x9999_0000)), Err(BuddyError::NotAllocated));
    }

    #[test]
    fn non_power_of_two_regions_fully_usable() {
        // 13 pages: seeds 8 + 4 + 1.
        let mut b = buddy(13);
        b.assert_invariants();
        let mut got = 0;
        while b.alloc().is_ok() {
            got += 1;
        }
        assert_eq!(got, 13, "every page must be allocatable");
    }

    #[test]
    fn randomized_against_model() {
        let mut rng = SimRng::new(0xBDD7);
        let mut b = buddy(256);
        let mut live: Vec<PhysAddr> = Vec::new();
        for step in 0..5_000u32 {
            if rng.gen_range(2) == 0 || live.is_empty() {
                if let Ok(page) = b.alloc() {
                    assert!(!live.contains(&page), "page handed out twice at step {step}");
                    live.push(page);
                }
            } else {
                let i = rng.gen_range(live.len() as u64) as usize;
                b.free(live.swap_remove(i)).unwrap();
            }
            if step % 256 == 0 {
                b.assert_invariants();
            }
        }
        for page in live {
            b.free(page).unwrap();
        }
        b.assert_invariants();
        assert_eq!(b.allocated_pages(), 0);
    }

    /// Frame addresses feed the cache model, so the page sequence of a
    /// seeded alloc/free interleaving is pinned: filling and draining
    /// phases exercise exhaustion, splits and coalescing.
    #[test]
    fn seeded_address_sequence_is_pinned() {
        let mut rng = SimRng::new(0xB0DD_7E57);
        let mut b = buddy(300);
        let mut live: Vec<PhysAddr> = Vec::new();
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for step in 0..20_000u32 {
            let alloc_in_5 = if (step / 2000) % 2 == 0 { 4 } else { 1 };
            if live.is_empty() || rng.gen_range(5) < alloc_in_5 {
                let pa = b.alloc().map_or(u64::MAX, |pa| {
                    live.push(pa);
                    pa.raw()
                });
                hash = (hash ^ pa).wrapping_mul(0x100_0000_01b3);
            } else {
                let i = rng.gen_range(live.len() as u64) as usize;
                b.free(live.swap_remove(i)).unwrap();
            }
        }
        b.assert_invariants();
        assert_eq!(hash, 0x1f17_80eb_02d7_9547);
    }
}
