//! Per-kernel physical frame allocation.
//!
//! Each kernel instance "fully utilizes its own private hardware
//! resources when available, and acquires any other shared resource only
//! when needed" (§5 *Minimal Resource Provisioning*). The allocator owns
//! a set of physical regions (its boot-time private memory plus any
//! blocks later granted by the global allocator) and hands out 4 KiB
//! frames. Regions can be drained and removed again, which is the
//! substrate for the hotplug-style offline path of §6.3. Each region is
//! managed by a [`crate::buddy::BuddyAllocator`].

use crate::addr::PAGE_SIZE;
use crate::buddy::BuddyAllocator;
use std::fmt;
use stramash_mem::PhysAddr;

/// State of one owned physical region.
#[derive(Debug, Clone)]
struct Region {
    start: u64,
    len: u64,
    buddy: BuddyAllocator,
}

impl Region {
    fn frames(&self) -> u64 {
        self.len / PAGE_SIZE
    }
}

/// Errors returned by the frame allocator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// No free frame in any region.
    OutOfMemory,
    /// The address does not belong to any owned region.
    NotOwned(PhysAddr),
    /// The address is inside a region but is not a live allocation.
    NotAllocated(PhysAddr),
    /// The region still has outstanding allocations.
    RegionBusy {
        /// Outstanding allocated frames.
        allocated: u64,
    },
    /// No region starts at the given address.
    NoSuchRegion(PhysAddr),
    /// Region bounds are not page-aligned.
    Unaligned,
    /// The new region overlaps an existing one.
    Overlap,
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::OutOfMemory => f.write_str("out of physical frames"),
            FrameError::NotOwned(pa) => write!(f, "frame {pa} is not owned by this allocator"),
            FrameError::NotAllocated(pa) => write!(f, "frame {pa} is not a live allocation"),
            FrameError::RegionBusy { allocated } => {
                write!(f, "region still has {allocated} allocated frames")
            }
            FrameError::NoSuchRegion(pa) => write!(f, "no region starts at {pa}"),
            FrameError::Unaligned => f.write_str("region bounds must be page-aligned"),
            FrameError::Overlap => f.write_str("region overlaps an existing region"),
        }
    }
}

impl std::error::Error for FrameError {}

/// A 4 KiB-frame allocator over a set of owned physical regions.
///
/// # Examples
///
/// ```
/// use stramash_kernel::FrameAllocator;
/// use stramash_mem::PhysAddr;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut frames = FrameAllocator::new();
/// frames.add_region(PhysAddr::new(0x10_0000), 64 << 10)?;
/// let frame = frames.alloc()?;
/// assert!(frame.is_aligned(4096));
/// frames.free(frame)?;
/// assert_eq!(frames.allocated_frames(), 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct FrameAllocator {
    regions: Vec<Region>,
}

impl FrameAllocator {
    /// Creates an allocator owning no memory.
    #[must_use]
    pub fn new() -> Self {
        FrameAllocator::default()
    }

    /// Adds an owned region.
    ///
    /// # Errors
    ///
    /// [`FrameError::Unaligned`] if bounds are not page-aligned;
    /// [`FrameError::Overlap`] if it overlaps an existing region.
    pub fn add_region(&mut self, start: PhysAddr, len: u64) -> Result<(), FrameError> {
        if !start.is_aligned(PAGE_SIZE) || !len.is_multiple_of(PAGE_SIZE) || len == 0 {
            return Err(FrameError::Unaligned);
        }
        let s = start.raw();
        for r in &self.regions {
            if s < r.start + r.len && r.start < s + len {
                return Err(FrameError::Overlap);
            }
        }
        self.regions.push(Region { start: s, len, buddy: BuddyAllocator::new(start, len) });
        Ok(())
    }

    /// Allocates one page-aligned 4 KiB frame.
    ///
    /// # Errors
    ///
    /// [`FrameError::OutOfMemory`] when every region is full.
    pub fn alloc(&mut self) -> Result<PhysAddr, FrameError> {
        self.regions.iter_mut().find_map(|r| r.buddy.alloc().ok()).ok_or(FrameError::OutOfMemory)
    }

    /// Returns a frame to its region.
    ///
    /// # Errors
    ///
    /// [`FrameError::NotOwned`] if the frame is outside every region.
    pub fn free(&mut self, frame: PhysAddr) -> Result<(), FrameError> {
        let pa = PhysAddr::new(frame.raw() & !(PAGE_SIZE - 1));
        for r in &mut self.regions {
            if pa.raw() >= r.start && pa.raw() < r.start + r.len {
                return r.buddy.free(pa).map_err(|_| FrameError::NotAllocated(pa));
            }
        }
        Err(FrameError::NotOwned(frame))
    }

    /// Removes a fully evacuated region, returning its length.
    ///
    /// # Errors
    ///
    /// [`FrameError::NoSuchRegion`] if absent; [`FrameError::RegionBusy`]
    /// if frames are still allocated from it.
    pub fn remove_region(&mut self, start: PhysAddr) -> Result<u64, FrameError> {
        let idx = self
            .regions
            .iter()
            .position(|r| r.start == start.raw())
            .ok_or(FrameError::NoSuchRegion(start))?;
        let allocated = self.regions[idx].buddy.allocated_pages();
        if allocated > 0 {
            return Err(FrameError::RegionBusy { allocated });
        }
        Ok(self.regions.remove(idx).len)
    }

    /// Frames currently handed out.
    #[must_use]
    pub fn allocated_frames(&self) -> u64 {
        self.regions.iter().map(|r| r.buddy.allocated_pages()).sum()
    }

    /// Total frames across all regions.
    #[must_use]
    pub fn total_frames(&self) -> u64 {
        self.regions.iter().map(Region::frames).sum()
    }

    /// Memory pressure in `[0, 1]`: allocated / total. The §6.3 global
    /// allocator requests a new block when this passes 0.70.
    #[must_use]
    pub fn pressure(&self) -> f64 {
        let total = self.total_frames();
        if total == 0 {
            return 1.0;
        }
        self.allocated_frames() as f64 / total as f64
    }

    /// Outstanding allocations in the region starting at `start`.
    #[must_use]
    pub fn region_allocated(&self, start: PhysAddr) -> Option<u64> {
        self.regions.iter().find(|r| r.start == start.raw()).map(|r| r.buddy.allocated_pages())
    }

    /// Whether `pa` belongs to one of the owned regions.
    #[must_use]
    pub fn owns(&self, pa: PhysAddr) -> bool {
        self.regions.iter().any(|r| pa.raw() >= r.start && pa.raw() < r.start + r.len)
    }

    /// Serializes the full region list (bounds and buddy state) into a
    /// checkpoint section. The whole list is written — not just
    /// per-region deltas — because the §6.3 grow/evict paths add and
    /// remove regions at runtime.
    pub fn save_state(&self, e: &mut stramash_sim::checkpoint::Encoder) {
        e.tag(0x4652_4d53); // "FRMS"
        e.u64(self.regions.len() as u64);
        for r in &self.regions {
            e.u64(r.start);
            e.u64(r.len);
            r.buddy.save_state(e);
        }
    }

    /// Replaces this allocator's regions with the checkpointed set.
    ///
    /// # Errors
    ///
    /// Decoding errors.
    pub fn load_state(
        &mut self,
        d: &mut stramash_sim::checkpoint::Decoder<'_>,
    ) -> Result<(), stramash_sim::checkpoint::CheckpointError> {
        use stramash_sim::checkpoint::CheckpointError;
        d.tag(0x4652_4d53)?;
        let n = d.len()?;
        let mut regions = Vec::with_capacity(n);
        for _ in 0..n {
            let start = d.u64()?;
            let len = d.u64()?;
            if start % PAGE_SIZE != 0 || len == 0 || len % PAGE_SIZE != 0 {
                return Err(CheckpointError::Malformed("frame region bounds unaligned"));
            }
            let mut buddy = BuddyAllocator::new(PhysAddr::new(start), len);
            buddy.load_state(d)?;
            regions.push(Region { start, len, buddy });
        }
        self.regions = regions;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alloc_with(start: u64, len: u64) -> FrameAllocator {
        let mut a = FrameAllocator::new();
        a.add_region(PhysAddr::new(start), len).unwrap();
        a
    }

    #[test]
    fn alloc_and_free_roundtrip() {
        let mut a = alloc_with(0x10_0000, 4 * PAGE_SIZE);
        let f1 = a.alloc().unwrap();
        let f2 = a.alloc().unwrap();
        assert_ne!(f1, f2);
        assert!(f1.is_aligned(PAGE_SIZE));
        assert_eq!(a.allocated_frames(), 2);
        a.free(f1).unwrap();
        assert_eq!(a.allocated_frames(), 1);
        // Freed frame is reused.
        assert_eq!(a.alloc().unwrap(), f1);
    }

    #[test]
    fn exhaustion() {
        let mut a = alloc_with(0, 2 * PAGE_SIZE);
        a.alloc().unwrap();
        a.alloc().unwrap();
        assert_eq!(a.alloc(), Err(FrameError::OutOfMemory));
    }

    #[test]
    fn rejects_unaligned_region() {
        let mut a = FrameAllocator::new();
        assert_eq!(a.add_region(PhysAddr::new(10), PAGE_SIZE), Err(FrameError::Unaligned));
        assert_eq!(a.add_region(PhysAddr::new(0), 100), Err(FrameError::Unaligned));
        assert_eq!(a.add_region(PhysAddr::new(0), 0), Err(FrameError::Unaligned));
    }

    #[test]
    fn rejects_overlap() {
        let mut a = alloc_with(0x1000, 4 * PAGE_SIZE);
        assert_eq!(a.add_region(PhysAddr::new(0x2000), PAGE_SIZE), Err(FrameError::Overlap));
        assert!(a.add_region(PhysAddr::new(0x4000 + 0x1000), PAGE_SIZE).is_ok());
    }

    #[test]
    fn free_foreign_frame_fails() {
        let mut a = alloc_with(0, PAGE_SIZE);
        assert!(matches!(a.free(PhysAddr::new(0x9_0000)), Err(FrameError::NotOwned(_))));
    }

    #[test]
    fn pressure_tracks_allocation() {
        let mut a = alloc_with(0, 10 * PAGE_SIZE);
        assert_eq!(a.pressure(), 0.0);
        for _ in 0..7 {
            a.alloc().unwrap();
        }
        assert!((a.pressure() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn remove_requires_evacuation() {
        let mut a = alloc_with(0, 2 * PAGE_SIZE);
        let f = a.alloc().unwrap();
        assert!(matches!(
            a.remove_region(PhysAddr::new(0)),
            Err(FrameError::RegionBusy { allocated: 1 })
        ));
        a.free(f).unwrap();
        assert_eq!(a.remove_region(PhysAddr::new(0)), Ok(2 * PAGE_SIZE));
        assert_eq!(a.total_frames(), 0);
        assert!(matches!(a.remove_region(PhysAddr::new(0)), Err(FrameError::NoSuchRegion(_))));
    }

    #[test]
    fn owns_checks_bounds() {
        let a = alloc_with(0x1000, PAGE_SIZE);
        assert!(a.owns(PhysAddr::new(0x1fff)));
        assert!(!a.owns(PhysAddr::new(0x2000)));
    }

    #[test]
    fn error_display_nonempty() {
        for e in [
            FrameError::OutOfMemory,
            FrameError::NotOwned(PhysAddr::new(0)),
            FrameError::RegionBusy { allocated: 3 },
            FrameError::NoSuchRegion(PhysAddr::new(0)),
            FrameError::Unaligned,
            FrameError::Overlap,
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
