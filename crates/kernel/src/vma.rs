//! Virtual memory areas.
//!
//! Each process's address space is described by an ordered set of VMAs.
//! The paper's kernels keep "the VMA lists … maintained using the
//! RB-tree structure" (§6.4); this reproduction backs [`VmaTree`] with
//! an ordered map keyed by start address. No simulated cost depends on
//! the tree's shape: a remote walk is charged from the area count alone.
//! Stramash lets one kernel walk the *other* kernel's VMA tree directly
//! ("with appropriate VMA locks acquired", §6.4) — the lock word lives
//! in simulated shared memory and is taken with a cross-ISA CAS.

use crate::addr::{VirtAddr, PAGE_SIZE};
use std::collections::BTreeMap;
use std::fmt;

/// Access protections of a VMA.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VmaProt {
    /// Readable.
    pub read: bool,
    /// Writable.
    pub write: bool,
    /// Executable.
    pub exec: bool,
}

impl VmaProt {
    /// `rw-` — ordinary data.
    #[must_use]
    pub fn rw() -> Self {
        VmaProt { read: true, write: true, exec: false }
    }

    /// `r--`.
    #[must_use]
    pub fn ro() -> Self {
        VmaProt { read: true, write: false, exec: false }
    }
}

/// What backs a VMA.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VmaKind {
    /// Anonymous memory (heap, mmap).
    Anon,
    /// The main stack.
    Stack,
    /// Program text/data (treated as pre-populated at spawn).
    Image,
}

/// One virtual memory area, `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Vma {
    /// Inclusive start (page-aligned).
    pub start: VirtAddr,
    /// Exclusive end (page-aligned).
    pub end: VirtAddr,
    /// Protections.
    pub prot: VmaProt,
    /// Backing kind.
    pub kind: VmaKind,
}

impl Vma {
    /// Whether `va` falls inside.
    #[must_use]
    pub fn contains(&self, va: VirtAddr) -> bool {
        va >= self.start && va < self.end
    }

    /// Length in bytes.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.end.raw() - self.start.raw()
    }

    /// Whether the area is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of pages spanned.
    #[must_use]
    pub fn pages(&self) -> u64 {
        self.len() / PAGE_SIZE
    }
}

impl fmt::Display for Vma {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:#x},{:#x}) {}{}{} {:?}",
            self.start.raw(),
            self.end.raw(),
            if self.prot.read { 'r' } else { '-' },
            if self.prot.write { 'w' } else { '-' },
            if self.prot.exec { 'x' } else { '-' },
            self.kind
        )
    }
}

/// Errors from VMA-tree mutation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VmaError {
    /// Bounds are not page-aligned or end ≤ start.
    BadRange,
    /// The new area overlaps an existing one.
    Overlap(VirtAddr),
}

impl fmt::Display for VmaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmaError::BadRange => f.write_str("VMA bounds must be page-aligned and non-empty"),
            VmaError::Overlap(va) => write!(f, "VMA overlaps existing area at {va}"),
        }
    }
}

impl std::error::Error for VmaError {}

/// An ordered set of non-overlapping VMAs.
///
/// # Examples
///
/// ```
/// use stramash_kernel::addr::VirtAddr;
/// use stramash_kernel::vma::{Vma, VmaKind, VmaProt, VmaTree};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut vmas = VmaTree::new();
/// vmas.insert(Vma {
///     start: VirtAddr::new(0x4000_0000),
///     end: VirtAddr::new(0x4000_4000),
///     prot: VmaProt::rw(),
///     kind: VmaKind::Anon,
/// })?;
/// // The fault path's lookup:
/// assert!(vmas.find(VirtAddr::new(0x4000_1234)).is_some());
/// assert!(vmas.find(VirtAddr::new(0x4000_4000)).is_none());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct VmaTree {
    map: BTreeMap<u64, Vma>,
}

impl VmaTree {
    /// Creates an empty tree.
    #[must_use]
    pub fn new() -> Self {
        VmaTree::default()
    }

    /// Inserts a VMA.
    ///
    /// # Errors
    ///
    /// [`VmaError::BadRange`] for unaligned/empty areas,
    /// [`VmaError::Overlap`] when intersecting an existing VMA.
    pub fn insert(&mut self, vma: Vma) -> Result<(), VmaError> {
        if !vma.start.is_page_aligned() || !vma.end.is_page_aligned() || vma.end <= vma.start {
            return Err(VmaError::BadRange);
        }
        // Neighbour starting at or before our last byte, ending after
        // our start?
        if let Some((_, prev)) = self.map.range(..vma.end.raw()).next_back() {
            if prev.end > vma.start {
                return Err(VmaError::Overlap(prev.start));
            }
        }
        self.map.insert(vma.start.raw(), vma);
        Ok(())
    }

    /// The VMA containing `va`, if any — the fault-path lookup (a
    /// floor query, as on the paper's RB-trees).
    #[must_use]
    pub fn find(&self, va: VirtAddr) -> Option<&Vma> {
        self.map.range(..=va.raw()).next_back().map(|(_, v)| v).filter(|v| v.contains(va))
    }

    /// Removes the VMA starting at `start`.
    pub fn remove(&mut self, start: VirtAddr) -> Option<Vma> {
        self.map.remove(&start.raw())
    }

    /// Number of areas.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the tree is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterates areas in address order.
    pub fn iter(&self) -> impl Iterator<Item = &Vma> {
        self.map.values()
    }

    /// Serializes the tree into a checkpoint section: the area count,
    /// then each area in address order.
    pub fn save_state(&self, e: &mut stramash_sim::checkpoint::Encoder) {
        e.tag(0x564d_4153); // "VMAS"
        e.u64(self.map.len() as u64);
        for v in self.map.values() {
            e.u64(v.start.raw());
            e.u64(v.end.raw());
            e.bool(v.prot.read);
            e.bool(v.prot.write);
            e.bool(v.prot.exec);
            e.u8(match v.kind {
                VmaKind::Anon => 0,
                VmaKind::Stack => 1,
                VmaKind::Image => 2,
            });
        }
    }

    /// Restores a tree from a checkpoint section, re-inserting every
    /// area through [`VmaTree::insert`].
    ///
    /// # Errors
    ///
    /// Decoding errors; `Malformed` for an unknown kind or an area that
    /// `insert` refuses (unaligned, empty or overlapping).
    pub fn load_state(
        d: &mut stramash_sim::checkpoint::Decoder<'_>,
    ) -> Result<Self, stramash_sim::checkpoint::CheckpointError> {
        use stramash_sim::checkpoint::CheckpointError;
        d.tag(0x564d_4153)?;
        let mut tree = VmaTree::new();
        for _ in 0..d.len()? {
            let start = VirtAddr::new(d.u64()?);
            let end = VirtAddr::new(d.u64()?);
            let prot = VmaProt { read: d.bool()?, write: d.bool()?, exec: d.bool()? };
            let kind = match d.u8()? {
                0 => VmaKind::Anon,
                1 => VmaKind::Stack,
                2 => VmaKind::Image,
                _ => return Err(CheckpointError::Malformed("unknown VMA kind")),
            };
            tree.insert(Vma { start, end, prot, kind })
                .map_err(|_| CheckpointError::Malformed("VMA unaligned, empty or overlapping"))?;
        }
        Ok(tree)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vma(start: u64, end: u64) -> Vma {
        Vma {
            start: VirtAddr::new(start),
            end: VirtAddr::new(end),
            prot: VmaProt::rw(),
            kind: VmaKind::Anon,
        }
    }

    #[test]
    fn insert_and_find() {
        let mut t = VmaTree::new();
        t.insert(vma(0x1000, 0x3000)).unwrap();
        t.insert(vma(0x5000, 0x6000)).unwrap();
        assert_eq!(t.len(), 2);
        assert!(t.find(VirtAddr::new(0x1000)).is_some());
        assert!(t.find(VirtAddr::new(0x2fff)).is_some());
        assert!(t.find(VirtAddr::new(0x3000)).is_none());
        assert!(t.find(VirtAddr::new(0x4500)).is_none());
        assert_eq!(t.find(VirtAddr::new(0x5800)).unwrap().start.raw(), 0x5000);
    }

    #[test]
    fn rejects_overlap() {
        let mut t = VmaTree::new();
        t.insert(vma(0x2000, 0x4000)).unwrap();
        assert_eq!(t.insert(vma(0x3000, 0x5000)), Err(VmaError::Overlap(VirtAddr::new(0x2000))));
        assert_eq!(t.insert(vma(0x1000, 0x2001)), Err(VmaError::BadRange));
        assert_eq!(t.insert(vma(0x1000, 0x3000)), Err(VmaError::Overlap(VirtAddr::new(0x2000))));
        // Adjacent is fine.
        t.insert(vma(0x4000, 0x5000)).unwrap();
        t.insert(vma(0x1000, 0x2000)).unwrap();
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn rejects_bad_ranges() {
        let mut t = VmaTree::new();
        assert_eq!(t.insert(vma(0x1000, 0x1000)), Err(VmaError::BadRange));
        assert_eq!(t.insert(vma(0x3000, 0x2000)), Err(VmaError::BadRange));
        assert_eq!(t.insert(vma(0x1234, 0x3000)), Err(VmaError::BadRange));
    }

    #[test]
    fn remove_and_accounting() {
        let mut t = VmaTree::new();
        t.insert(vma(0x1000, 0x3000)).unwrap();
        t.insert(vma(0x8000, 0xA000)).unwrap();
        let removed = t.remove(VirtAddr::new(0x1000)).unwrap();
        assert_eq!(removed.pages(), 2);
        assert!(t.remove(VirtAddr::new(0x1000)).is_none());
        assert_eq!(t.iter().map(Vma::len).sum::<u64>(), 0x2000);
        assert!(!t.is_empty());
    }

    #[test]
    fn iteration_in_address_order() {
        let mut t = VmaTree::new();
        t.insert(vma(0x9000, 0xA000)).unwrap();
        t.insert(vma(0x1000, 0x2000)).unwrap();
        t.insert(vma(0x5000, 0x6000)).unwrap();
        let starts: Vec<u64> = t.iter().map(|v| v.start.raw()).collect();
        assert_eq!(starts, vec![0x1000, 0x5000, 0x9000]);
    }

    #[test]
    fn display_formats() {
        let v = Vma {
            start: VirtAddr::new(0x1000),
            end: VirtAddr::new(0x2000),
            prot: VmaProt { read: true, write: false, exec: true },
            kind: VmaKind::Image,
        };
        let s = v.to_string();
        assert!(s.contains("r-x"));
        assert!(s.contains("Image"));
        assert!(!VmaError::BadRange.to_string().is_empty());
    }
}
