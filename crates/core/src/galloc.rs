//! The global memory allocator (§6.3).
//!
//! Stramash-Linux manages the shared physical pool with a fixed-size
//! block allocator (block size configurable from 32 MB to 4 GB, minimum
//! 32 MB "to reduce the overhead associated with frequent memory
//! assignments"). A kernel whose memory pressure passes 70 % requests a
//! block; if none is free the allocator evicts one from the other
//! kernel. Hot removal follows the modified hotplug path: "it first
//! evacuates the memory block and then isolates the pages" — the
//! per-page isolation work is what Table 4 measures.

use std::fmt;
use stramash_mem::{MemorySystem, PhysAddr};
use stramash_sim::{Cycles, DomainId};

/// Pressure threshold above which a kernel requests another block.
pub const PRESSURE_THRESHOLD: f64 = 0.70;

/// Smallest supported block (§6.3).
pub const MIN_BLOCK: u64 = 32 << 20;
/// Largest supported block (§6.3).
pub const MAX_BLOCK: u64 = 4 << 30;

/// Bytes of `struct page` metadata per 4 KiB page (one cache line, as
/// in Linux's 64-byte `struct page`).
const PAGE_DESC_BYTES: u64 = 64;

/// Instructions of kernel work per page isolated (offline path walks
/// LRU/buddy lists and checks references).
const OFFLINE_INSNS_PER_PAGE: u64 = 55;
/// Instructions per page restored on the online path.
const ONLINE_INSNS_PER_PAGE: u64 = 30;

/// Errors from the global allocator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GallocError {
    /// Block size outside 32 MB – 4 GB or not a power of two.
    BadBlockSize(u64),
    /// The pool is smaller than one block.
    PoolTooSmall,
    /// The block does not belong to this allocator.
    NoSuchBlock(PhysAddr),
    /// Every block is owned and the peer has none to evict.
    Exhausted,
}

impl fmt::Display for GallocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GallocError::BadBlockSize(s) => {
                write!(f, "block size {s} outside the 32 MB – 4 GB power-of-two range")
            }
            GallocError::PoolTooSmall => f.write_str("pool smaller than one block"),
            GallocError::NoSuchBlock(pa) => write!(f, "no pool block starts at {pa}"),
            GallocError::Exhausted => f.write_str("no block free and nothing to evict"),
        }
    }
}

impl std::error::Error for GallocError {}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Block {
    start: PhysAddr,
    owner: Option<DomainId>,
}

/// The fixed-size global block allocator over the shared pool.
///
/// # Examples
///
/// ```
/// use stramash::GlobalAllocator;
/// use stramash_mem::PhysAddr;
/// use stramash_sim::DomainId;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut galloc = GlobalAllocator::new(
///     PhysAddr::new(4 << 30),
///     PhysAddr::new(8 << 30),
///     256 << 20, // the paper's §9.2.7 slice size
///     [PhysAddr::new(32 << 20), PhysAddr::new((3 << 29) + (32 << 20))],
/// )?;
/// let block = galloc.request(DomainId::ARM)?;
/// assert_eq!(galloc.owner(block)?, Some(DomainId::ARM));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct GlobalAllocator {
    block_size: u64,
    blocks: Vec<Block>,
    /// Per-domain base of the `struct page` descriptor array used to
    /// charge the isolation work.
    vmemmap_base: [PhysAddr; 2],
}

impl GlobalAllocator {
    /// Creates an allocator over `[pool_start, pool_end)`.
    ///
    /// # Errors
    ///
    /// [`GallocError::BadBlockSize`] or [`GallocError::PoolTooSmall`].
    pub fn new(
        pool_start: PhysAddr,
        pool_end: PhysAddr,
        block_size: u64,
        vmemmap_base: [PhysAddr; 2],
    ) -> Result<Self, GallocError> {
        if !(MIN_BLOCK..=MAX_BLOCK).contains(&block_size) || !block_size.is_power_of_two() {
            return Err(GallocError::BadBlockSize(block_size));
        }
        let len = pool_end.raw().saturating_sub(pool_start.raw());
        let count = len / block_size;
        if count == 0 {
            return Err(GallocError::PoolTooSmall);
        }
        let blocks = (0..count)
            .map(|i| Block { start: pool_start.offset(i * block_size), owner: None })
            .collect();
        Ok(GlobalAllocator { block_size, blocks, vmemmap_base })
    }

    /// The configured block size.
    #[must_use]
    pub fn block_size(&self) -> u64 {
        self.block_size
    }

    /// Serializes the mutable allocator state (per-block owners; block
    /// starts and geometry are derived from the boot configuration).
    pub fn save_state(&self, e: &mut stramash_sim::checkpoint::Encoder) {
        e.tag(0x4741_4c43); // "GALC"
        e.u64(self.block_size);
        e.u64(self.blocks.len() as u64);
        for b in &self.blocks {
            e.u8(match b.owner {
                None => 2,
                Some(d) => d.index() as u8,
            });
        }
    }

    /// Restores ownership written by [`GlobalAllocator::save_state`].
    ///
    /// # Errors
    ///
    /// `ConfigMismatch` when the block geometry disagrees; decoding
    /// errors otherwise.
    pub fn load_state(
        &mut self,
        d: &mut stramash_sim::checkpoint::Decoder<'_>,
    ) -> Result<(), stramash_sim::checkpoint::CheckpointError> {
        use stramash_sim::checkpoint::CheckpointError;
        d.tag(0x4741_4c43)?;
        if d.u64()? != self.block_size || d.u64()? != self.blocks.len() as u64 {
            return Err(CheckpointError::ConfigMismatch);
        }
        for b in &mut self.blocks {
            b.owner = match d.u8()? {
                0 => Some(DomainId::X86),
                1 => Some(DomainId::ARM),
                2 => None,
                _ => return Err(CheckpointError::Malformed("bad block owner code")),
            };
        }
        Ok(())
    }

    /// Number of unowned blocks.
    #[must_use]
    pub fn free_blocks(&self) -> usize {
        self.blocks.iter().filter(|b| b.owner.is_none()).count()
    }

    /// Number of blocks owned by `domain`.
    #[must_use]
    pub fn owned_by(&self, domain: DomainId) -> usize {
        self.blocks.iter().filter(|b| b.owner == Some(domain)).count()
    }

    /// The owner of the block starting at `start`.
    ///
    /// # Errors
    ///
    /// [`GallocError::NoSuchBlock`].
    pub fn owner(&self, start: PhysAddr) -> Result<Option<DomainId>, GallocError> {
        self.blocks
            .iter()
            .find(|b| b.start == start)
            .map(|b| b.owner)
            .ok_or(GallocError::NoSuchBlock(start))
    }

    /// Grants a free block to `requester` ("if a block is free, it is
    /// directly assigned", §6.3). Returns the block start.
    ///
    /// # Errors
    ///
    /// [`GallocError::Exhausted`] when no block is free (the caller may
    /// then run the eviction protocol).
    pub fn request(&mut self, requester: DomainId) -> Result<PhysAddr, GallocError> {
        let block =
            self.blocks.iter_mut().find(|b| b.owner.is_none()).ok_or(GallocError::Exhausted)?;
        block.owner = Some(requester);
        Ok(block.start)
    }

    /// Picks the peer block to evict when nothing is free: the
    /// most-recently granted block of the *other* kernel.
    ///
    /// # Errors
    ///
    /// [`GallocError::Exhausted`] when the peer owns nothing either.
    pub fn eviction_candidate(&self, requester: DomainId) -> Result<PhysAddr, GallocError> {
        self.blocks
            .iter()
            .rev()
            .find(|b| b.owner == Some(requester.other()))
            .map(|b| b.start)
            .ok_or(GallocError::Exhausted)
    }

    /// Transfers ownership directly (eviction completion).
    ///
    /// # Errors
    ///
    /// [`GallocError::NoSuchBlock`].
    pub fn transfer(&mut self, start: PhysAddr, to: DomainId) -> Result<(), GallocError> {
        let block = self
            .blocks
            .iter_mut()
            .find(|b| b.start == start)
            .ok_or(GallocError::NoSuchBlock(start))?;
        block.owner = Some(to);
        Ok(())
    }

    /// The hotplug-style **offline** path run by `domain` on `pages`
    /// pages: walk each page descriptor, check references, isolate.
    /// Returns the cycles charged (the Table 4 "Offline" column).
    pub fn offline_cost(&self, mem: &mut MemorySystem, domain: DomainId, pages: u64) -> Cycles {
        let mut cycles = Cycles::ZERO;
        let base = self.vmemmap_base[domain.index()];
        for p in 0..pages {
            let desc = base.offset((p % (1 << 20)) * PAGE_DESC_BYTES);
            // Read the descriptor, then write the isolated flag.
            let (_, c1) = mem.read_u64(domain, desc);
            let c2 = mem.write_u64(domain, desc.offset(8), 1);
            cycles += c1 + c2 + Cycles::new(OFFLINE_INSNS_PER_PAGE);
        }
        cycles
    }

    /// The **online** path: clear isolation and return pages to the
    /// buddy lists (Table 4 "Online" column).
    pub fn online_cost(&self, mem: &mut MemorySystem, domain: DomainId, pages: u64) -> Cycles {
        let mut cycles = Cycles::ZERO;
        let base = self.vmemmap_base[domain.index()];
        for p in 0..pages {
            let desc = base.offset((p % (1 << 20)) * PAGE_DESC_BYTES);
            let c = mem.write_u64(domain, desc.offset(8), 0);
            cycles += c + Cycles::new(ONLINE_INSNS_PER_PAGE);
        }
        cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stramash_sim::SimConfig;

    const POOL_START: PhysAddr = PhysAddr::new((4 << 30) + (128 << 20));
    const POOL_END: PhysAddr = PhysAddr::new(8 << 30);

    fn galloc(block: u64) -> GlobalAllocator {
        GlobalAllocator::new(
            POOL_START,
            POOL_END,
            block,
            [PhysAddr::new(32 << 20), PhysAddr::new((3 << 29) + (32 << 20))],
        )
        .unwrap()
    }

    #[test]
    fn rejects_bad_block_sizes() {
        for bad in [16 << 20, 8u64 << 30, 100 << 20] {
            assert!(matches!(
                GlobalAllocator::new(POOL_START, POOL_END, bad, [PhysAddr::new(0); 2]),
                Err(GallocError::BadBlockSize(_))
            ));
        }
        // Paper bounds are inclusive.
        assert!(GlobalAllocator::new(POOL_START, POOL_END, 32 << 20, [PhysAddr::new(0); 2]).is_ok());
    }

    #[test]
    fn request_until_exhausted_then_evict() {
        let mut g = galloc(1 << 30); // ~3.87 GB pool → 3 blocks
        assert_eq!(g.free_blocks(), 3);
        let _b1 = g.request(DomainId::X86).unwrap();
        let _b2 = g.request(DomainId::X86).unwrap();
        let _b3 = g.request(DomainId::ARM).unwrap();
        assert_eq!(g.free_blocks(), 0);
        assert_eq!(g.owned_by(DomainId::X86), 2);
        assert!(matches!(g.request(DomainId::ARM), Err(GallocError::Exhausted)));
        // §6.3: evict from the other kernel.
        let victim = g.eviction_candidate(DomainId::ARM).unwrap();
        assert_eq!(g.owner(victim).unwrap(), Some(DomainId::X86));
        g.transfer(victim, DomainId::ARM).unwrap();
        assert_eq!(g.owned_by(DomainId::ARM), 2);
    }

    #[test]
    fn eviction_without_peer_blocks_fails() {
        let mut g = galloc(1 << 30);
        g.request(DomainId::X86).unwrap();
        assert!(matches!(g.eviction_candidate(DomainId::X86), Err(GallocError::Exhausted)));
    }

    #[test]
    fn no_such_block_errors() {
        let mut g = galloc(1 << 30);
        assert!(matches!(g.owner(PhysAddr::new(0)), Err(GallocError::NoSuchBlock(_))));
        assert!(matches!(
            g.transfer(PhysAddr::new(0), DomainId::X86),
            Err(GallocError::NoSuchBlock(_))
        ));
    }

    #[test]
    fn offline_cost_scales_linearly_and_exceeds_online() {
        // The Table 4 shape: cost grows with page count; offline > online
        // for x86.
        let mut mem = MemorySystem::new(SimConfig::big_pair()).unwrap();
        let g = galloc(256 << 20);
        let off_small = g.offline_cost(&mut mem, DomainId::X86, 1 << 12);
        mem.flush_caches();
        let off_big = g.offline_cost(&mut mem, DomainId::X86, 1 << 14);
        mem.flush_caches();
        let on_big = g.online_cost(&mut mem, DomainId::X86, 1 << 14);
        assert!(off_big.raw() > 3 * off_small.raw(), "offline must scale with pages");
        assert!(off_big > on_big, "offline does more work than online");
    }

    #[test]
    fn table4_magnitudes_are_milliseconds() {
        // Table 4 reports 2^15-page operations in the 5–13 ms range.
        let mut mem = MemorySystem::new(SimConfig::big_pair()).unwrap();
        let g = galloc(256 << 20);
        let freq = 2_100_000_000;
        let off = g.offline_cost(&mut mem, DomainId::X86, 1 << 15).to_millis(freq);
        assert!((1.0..60.0).contains(&off), "offline(2^15) = {off} ms, expected ms-scale");
    }

    #[test]
    fn error_display() {
        for e in [
            GallocError::BadBlockSize(7),
            GallocError::PoolTooSmall,
            GallocError::NoSuchBlock(PhysAddr::new(0)),
            GallocError::Exhausted,
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
