//! A binary buddy allocator — the engine behind each kernel's physical
//! frame allocation, as in Linux (whose buddy/LRU lists the §6.3 hotplug
//! offline path walks).

use crate::addr::PAGE_SIZE;
use std::collections::BTreeSet;
use std::fmt;
use stramash_sim::IntMap;

/// Largest block order (2¹⁰ pages = 4 MiB), matching Linux's MAX_ORDER
/// neighbourhood.
pub const MAX_ORDER: u32 = 10;

/// Errors from the buddy allocator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BuddyError {
    /// No free block of the requested (or any larger) order.
    OutOfMemory {
        /// The order that could not be satisfied.
        order: u32,
    },
    /// The order exceeds [`MAX_ORDER`].
    OrderTooLarge(u32),
    /// The address was not allocated by this allocator.
    NotAllocated,
}

impl fmt::Display for BuddyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuddyError::OutOfMemory { order } => {
                write!(f, "no free block of order {order} or above")
            }
            BuddyError::OrderTooLarge(o) => write!(f, "order {o} exceeds MAX_ORDER"),
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
/// let a = buddy.alloc(0)?; // one 4 KiB frame
/// let b = buddy.alloc(4)?; // 16 contiguous frames (64 KiB)
/// assert!(b.is_aligned(16 * 4096), "buddy blocks are naturally aligned");
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
    /// Allocated block order per starting page index.
    allocated: IntMap<u64, u32>,
    allocated_pages: u64,
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
            allocated: IntMap::default(),
            allocated_pages: 0,
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
        self.allocated_pages
    }

    /// Whether `pa` lies inside this allocator's region.
    #[must_use]
    pub fn contains(&self, pa: stramash_mem::PhysAddr) -> bool {
        pa.raw() >= self.base && pa.raw() < self.base + self.total_pages * PAGE_SIZE
    }

    /// Allocates a naturally aligned block of `2^order` pages.
    ///
    /// # Errors
    ///
    /// [`BuddyError::OrderTooLarge`] or [`BuddyError::OutOfMemory`].
    pub fn alloc(&mut self, order: u32) -> Result<stramash_mem::PhysAddr, BuddyError> {
        if order > MAX_ORDER {
            return Err(BuddyError::OrderTooLarge(order));
        }
        // Find the smallest order with a free block.
        let mut from = order;
        while from <= MAX_ORDER && self.free_lists[from as usize].is_empty() {
            from += 1;
        }
        if from > MAX_ORDER {
            return Err(BuddyError::OutOfMemory { order });
        }
        let idx = *self.free_lists[from as usize].iter().next().expect("non-empty");
        self.free_lists[from as usize].remove(&idx);
        // Split down to the requested order, freeing the upper halves.
        let mut cur = from;
        while cur > order {
            cur -= 1;
            let buddy = idx + (1 << cur);
            self.free_lists[cur as usize].insert(buddy);
        }
        self.allocated.insert(idx, order);
        self.allocated_pages += 1 << order;
        Ok(stramash_mem::PhysAddr::new(self.base + idx * PAGE_SIZE))
    }

    /// Frees a previously allocated block, coalescing with free buddies.
    ///
    /// # Errors
    ///
    /// [`BuddyError::NotAllocated`] if `pa` is not a live allocation.
    pub fn free(&mut self, pa: stramash_mem::PhysAddr) -> Result<(), BuddyError> {
        if !self.contains(pa) || !pa.is_aligned(PAGE_SIZE) {
            return Err(BuddyError::NotAllocated);
        }
        let mut idx = (pa.raw() - self.base) / PAGE_SIZE;
        let mut order = self.allocated.remove(&idx).ok_or(BuddyError::NotAllocated)?;
        self.allocated_pages -= 1 << order;
        // Coalesce while the buddy is free at the same order.
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

    /// The number of free blocks at each order (diagnostics; the §6.3
    /// offline path inspects exactly these lists).
    #[must_use]
    pub fn free_list_lengths(&self) -> Vec<usize> {
        self.free_lists.iter().map(BTreeSet::len).collect()
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
        assert_eq!(free_pages + self.allocated_pages, self.total_pages, "pages must be conserved");
        // Disjointness: collect every block (free + allocated) and check
        // for overlaps.
        let mut blocks: Vec<(u64, u64)> = Vec::new();
        for (o, list) in self.free_lists.iter().enumerate() {
            for &idx in list {
                blocks.push((idx, 1u64 << o));
            }
        }
        for (&idx, &o) in &self.allocated {
            blocks.push((idx, 1u64 << o));
        }
        blocks.sort_unstable();
        for w in blocks.windows(2) {
            assert!(w[0].0 + w[0].1 <= w[1].0, "blocks overlap: {:?} and {:?}", w[0], w[1]);
        }
        let covered: u64 = blocks.iter().map(|&(_, l)| l).sum();
        assert_eq!(covered, self.total_pages, "blocks must tile the region");
    }

    /// Serializes the allocator's mutable state (free lists, allocated
    /// map, allocation count) into a checkpoint section. `BTreeSet` and
    /// the sorted allocated map give a canonical byte stream.
    pub fn save_state(&self, e: &mut stramash_sim::checkpoint::Encoder) {
        e.tag(0x4244_4459); // "BDDY"
        e.u64(self.base);
        e.u64(self.total_pages);
        for list in &self.free_lists {
            let v: Vec<u64> = list.iter().copied().collect();
            e.u64s(&v);
        }
        let mut allocs: Vec<(u64, u32)> = self.allocated.iter().map(|(&i, &o)| (i, o)).collect();
        allocs.sort_unstable();
        e.u64(allocs.len() as u64);
        for (idx, order) in allocs {
            e.u64(idx);
            e.u32(order);
        }
        e.u64(self.allocated_pages);
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
        let n = d.len()?;
        let mut allocated = IntMap::with_capacity_and_hasher(n, Default::default());
        for _ in 0..n {
            let idx = d.u64()?;
            let order = d.u32()?;
            if order > MAX_ORDER || idx >= self.total_pages {
                return Err(CheckpointError::Malformed("buddy allocation out of range"));
            }
            allocated.insert(idx, order);
        }
        self.free_lists = free_lists;
        self.allocated = allocated;
        self.allocated_pages = d.u64()?;
        Ok(())
    }
}

/// The smallest order whose block covers `pages` pages.
#[must_use]
pub fn order_for_pages(pages: u64) -> u32 {
    pages.next_power_of_two().trailing_zeros()
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
        let f = b.alloc(0).unwrap();
        assert!(b.contains(f));
        assert_eq!(b.allocated_pages(), 1);
        b.free(f).unwrap();
        assert_eq!(b.allocated_pages(), 0);
        b.assert_invariants();
        // After freeing everything, coalescing restores one big block.
        assert_eq!(b.free_list_lengths()[4], 1);
    }

    #[test]
    fn natural_alignment() {
        let mut b = buddy(64);
        for order in 0..=5u32 {
            let blk = b.alloc(order).unwrap();
            assert!(
                blk.is_aligned((1 << order) * PAGE_SIZE),
                "order-{order} block must be naturally aligned"
            );
            b.assert_invariants();
        }
    }

    #[test]
    fn split_and_coalesce_roundtrip() {
        let mut b = buddy(8);
        let blocks: Vec<_> = (0..8).map(|_| b.alloc(0).unwrap()).collect();
        assert_eq!(b.allocated_pages(), 8);
        assert!(matches!(b.alloc(0), Err(BuddyError::OutOfMemory { .. })));
        for blk in &blocks {
            b.free(*blk).unwrap();
        }
        b.assert_invariants();
        // Fully coalesced: a single order-3 block again.
        assert_eq!(b.free_list_lengths()[3], 1);
        assert!(b.alloc(3).is_ok());
    }

    #[test]
    fn double_free_and_foreign_free_rejected() {
        let mut b = buddy(8);
        let f = b.alloc(0).unwrap();
        b.free(f).unwrap();
        assert_eq!(b.free(f), Err(BuddyError::NotAllocated));
        assert_eq!(b.free(PhysAddr::new(0x9999_0000)), Err(BuddyError::NotAllocated));
        assert_eq!(b.alloc(MAX_ORDER + 1), Err(BuddyError::OrderTooLarge(MAX_ORDER + 1)));
    }

    #[test]
    fn non_power_of_two_regions_fully_usable() {
        // 13 pages: seeds 8 + 4 + 1.
        let mut b = buddy(13);
        b.assert_invariants();
        let mut got = 0;
        while b.alloc(0).is_ok() {
            got += 1;
        }
        assert_eq!(got, 13, "every page must be allocatable");
    }

    #[test]
    fn order_for_pages_helper() {
        assert_eq!(order_for_pages(1), 0);
        assert_eq!(order_for_pages(2), 1);
        assert_eq!(order_for_pages(3), 2);
        assert_eq!(order_for_pages(16), 4);
        assert_eq!(order_for_pages(17), 5);
    }

    #[test]
    fn randomized_against_model() {
        let mut rng = SimRng::new(0xBDD7);
        let mut b = buddy(256);
        let mut live: Vec<(PhysAddr, u32)> = Vec::new();
        for step in 0..5_000u32 {
            if rng.gen_range(2) == 0 || live.is_empty() {
                let order = rng.gen_range(4) as u32;
                if let Ok(blk) = b.alloc(order) {
                    // No overlap with any live block.
                    for &(other, oo) in &live {
                        let a0 = blk.raw();
                        let a1 = a0 + (PAGE_SIZE << order);
                        let b0 = other.raw();
                        let b1 = b0 + (PAGE_SIZE << oo);
                        assert!(a1 <= b0 || b1 <= a0, "overlap at step {step}");
                    }
                    live.push((blk, order));
                }
            } else {
                let i = rng.gen_range(live.len() as u64) as usize;
                let (blk, _) = live.swap_remove(i);
                b.free(blk).unwrap();
            }
            if step % 256 == 0 {
                b.assert_invariants();
            }
        }
        for (blk, _) in live {
            b.free(blk).unwrap();
        }
        b.assert_invariants();
        assert_eq!(b.allocated_pages(), 0);
    }
}
