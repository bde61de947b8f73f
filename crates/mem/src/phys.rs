//! Physical addresses, the Figure 4 memory layout, and the sparse
//! byte-level backing store.
//!
//! Stramash-QEMU allocates guest memory on a per-host basis so that "any
//! memory operation from a single guest will be reflected in others"
//! (§7.1). The reproduction keeps one [`SparseMemory`] shared by both
//! domains — every byte written by one kernel instance is immediately
//! visible to the other, exactly like cache-coherent shared DRAM.

use std::cell::Cell;
use std::fmt;
use stramash_sim::DomainId;

/// A physical memory address.
///
/// ```
/// use stramash_mem::PhysAddr;
/// let a = PhysAddr::new(0x1000);
/// assert_eq!(a.offset(0x20).raw(), 0x1020);
/// assert_eq!(a.align_down(0x1000), a);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PhysAddr(u64);

impl PhysAddr {
    /// Creates a physical address.
    #[must_use]
    pub const fn new(raw: u64) -> Self {
        PhysAddr(raw)
    }

    /// The raw address value.
    #[must_use]
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// This address plus `off` bytes.
    #[must_use]
    pub const fn offset(self, off: u64) -> PhysAddr {
        PhysAddr(self.0 + off)
    }

    /// Rounds down to a multiple of `align` (a power of two).
    #[must_use]
    pub const fn align_down(self, align: u64) -> PhysAddr {
        PhysAddr(self.0 & !(align - 1))
    }

    /// Whether the address is a multiple of `align` (a power of two).
    #[must_use]
    pub const fn is_aligned(self, align: u64) -> bool {
        self.0 & (align - 1) == 0
    }

    /// The physical frame number for 4 KiB pages.
    #[must_use]
    pub const fn frame(self) -> u64 {
        self.0 >> 12
    }

    /// The cache-line address for the given line size.
    #[must_use]
    pub const fn line(self, line_bytes: u64) -> u64 {
        self.0 / line_bytes
    }
}

impl fmt::Display for PhysAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PA:{:#x}", self.0)
    }
}

impl From<u64> for PhysAddr {
    fn from(raw: u64) -> Self {
        PhysAddr(raw)
    }
}

/// Ownership attribution of a physical region (Figure 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RegionKind {
    /// Memory attached to (owned by) one domain's memory controller.
    DomainLocal(DomainId),
    /// The dynamically shared memory pool (4–8 GB in Figure 4).
    Pool {
        /// Which domain's controller physically hosts this half of the
        /// pool. In the *Separated* model the pool halves behave like
        /// ordinary local memory of their host; in the *Shared* model
        /// they are remote-shared for everyone (§8.1).
        host: DomainId,
    },
}

/// A contiguous physical region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemRegion {
    /// First byte.
    pub start: PhysAddr,
    /// Length in bytes.
    pub len: u64,
    /// Ownership attribution.
    pub kind: RegionKind,
}

impl MemRegion {
    /// Whether `addr` falls inside the region.
    #[must_use]
    pub fn contains(&self, addr: PhysAddr) -> bool {
        addr.raw() >= self.start.raw() && addr.raw() < self.start.raw() + self.len
    }

    /// One past the last byte.
    #[must_use]
    pub fn end(&self) -> PhysAddr {
        self.start.offset(self.len)
    }
}

/// The paper's 8 GB physical layout (Figure 4 and §8.1):
///
/// | range | attribution |
/// |---|---|
/// | 0 – 1.5 GB | x86 local (x86 instance boots at 0x0) |
/// | 1.5 – 3 GB | Arm local (Arm instance boots at 0xA000_0000) |
/// | 3 – 4 GB | hole (MMIO / firmware) |
/// | 4 – 6 GB | pool, hosted by x86 |
/// | 6 – 8 GB | pool, hosted by Arm |
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhysLayout {
    regions: Vec<MemRegion>,
}

pub(crate) const GB: u64 = 1 << 30;

impl PhysLayout {
    /// The Figure 4 layout.
    #[must_use]
    pub fn paper_default() -> Self {
        let half_gb = GB / 2;
        PhysLayout {
            regions: vec![
                MemRegion {
                    start: PhysAddr::new(0),
                    len: GB + half_gb,
                    kind: RegionKind::DomainLocal(DomainId::X86),
                },
                MemRegion {
                    start: PhysAddr::new(GB + half_gb),
                    len: GB + half_gb,
                    kind: RegionKind::DomainLocal(DomainId::ARM),
                },
                MemRegion {
                    start: PhysAddr::new(4 * GB),
                    len: 2 * GB,
                    kind: RegionKind::Pool { host: DomainId::X86 },
                },
                MemRegion {
                    start: PhysAddr::new(6 * GB),
                    len: 2 * GB,
                    kind: RegionKind::Pool { host: DomainId::ARM },
                },
            ],
        }
    }

    /// A layout of the given regions (for tests of unusual spans).
    #[cfg(test)]
    pub(crate) fn from_regions(regions: Vec<MemRegion>) -> Self {
        PhysLayout { regions }
    }

    /// The region containing `addr`, if any (the 3–4 GB hole has none).
    #[must_use]
    pub fn region_of(&self, addr: PhysAddr) -> Option<&MemRegion> {
        self.regions.iter().find(|r| r.contains(addr))
    }

    /// The private (boot-time) region of a domain.
    #[must_use]
    pub fn private_region(&self, domain: DomainId) -> &MemRegion {
        self.regions
            .iter()
            .find(|r| r.kind == RegionKind::DomainLocal(domain))
            .expect("layout always has a private region per domain")
    }

    /// The pool half hosted by `domain`.
    #[must_use]
    pub fn pool_region(&self, domain: DomainId) -> &MemRegion {
        self.regions
            .iter()
            .find(|r| r.kind == RegionKind::Pool { host: domain })
            .expect("layout always has a pool half per domain")
    }

    /// One past the highest byte of any region: the machine's physical
    /// span.
    #[must_use]
    pub fn end(&self) -> PhysAddr {
        self.regions.iter().map(MemRegion::end).max().unwrap_or_default()
    }

    /// Verifies that no two regions overlap (the §6.1 boot invariant:
    /// "kernel instances' memory areas do not overlap").
    #[must_use]
    pub fn is_disjoint(&self) -> bool {
        let mut sorted: Vec<&MemRegion> = self.regions.iter().collect();
        sorted.sort_by_key(|r| r.start);
        sorted.windows(2).all(|w| w[0].end().raw() <= w[1].start.raw())
    }
}

impl Default for PhysLayout {
    fn default() -> Self {
        PhysLayout::paper_default()
    }
}

const CHUNK_SHIFT: u32 = 16; // 64 KiB chunks
const CHUNK_SIZE: usize = 1 << CHUNK_SHIFT;

/// Chunks per radix leaf: one leaf covers 64 MiB of physical space.
const LEAF_SHIFT: u32 = 10;
const LEAF_LEN: usize = 1 << LEAF_SHIFT;

/// One radix leaf: arena slot + 1 per chunk, 0 meaning absent.
type Leaf = [u32; LEAF_LEN];

/// The cursor value meaning "no chunk cached". `u64::MAX` can never be
/// a real chunk number (chunk numbers are addresses shifted right).
const NO_CHUNK: u64 = u64::MAX;

/// Sparse byte-addressable physical memory shared by both domains.
///
/// Chunks materialise on first write; reads of untouched memory return
/// zeroes, matching freshly-zeroed DRAM handed out by the allocators.
/// Storage is a chunk arena under a two-level radix index (a top-level
/// table of 64 MiB leaves, each mapping its 1024 chunks to arena slots),
/// so a lookup is two dependent loads and no hash. A one-entry cursor
/// memoises the last chunk touched, so streaming access (sequential
/// lines within one 64 KiB chunk) skips even those.
///
/// The store spans the machine's physical address space, fixed at
/// construction: the top level is sized for it once, and a checkpoint
/// naming a chunk outside it is rejected before anything is allocated.
#[derive(Debug)]
pub struct SparseMemory {
    /// Radix top level, one entry per 64 MiB of the span.
    leaves: Vec<Option<Box<Leaf>>>,
    /// Chunks in the span: every chunk number is below this.
    span_chunks: u64,
    arena: Vec<Box<[u8; CHUNK_SIZE]>>,
    /// `(chunk number, arena slot)` of the most recently touched chunk.
    cursor: Cell<(u64, u32)>,
}

impl Default for SparseMemory {
    /// An empty store spanning the Figure 4 layout.
    fn default() -> Self {
        SparseMemory::with_span(PhysLayout::paper_default().end())
    }
}

impl SparseMemory {
    /// Creates an empty (all-zero) memory spanning the Figure 4 layout.
    #[must_use]
    pub fn new() -> Self {
        SparseMemory::default()
    }

    /// Creates an empty memory covering physical addresses below `end`.
    #[must_use]
    pub fn with_span(end: PhysAddr) -> Self {
        let span_chunks = end.raw().div_ceil(CHUNK_SIZE as u64);
        let n_leaves = span_chunks.div_ceil(LEAF_LEN as u64) as usize;
        // The cursor must start *invalid*: `(0, 0)` would claim chunk 0
        // lives at slot 0 of a still-empty arena.
        SparseMemory {
            leaves: (0..n_leaves).map(|_| None).collect(),
            span_chunks,
            arena: Vec::new(),
            cursor: Cell::new((NO_CHUNK, 0)),
        }
    }

    /// The arena slot holding `chunk`, consulting the cursor first.
    #[inline]
    fn slot_of(&self, chunk: u64) -> Option<u32> {
        let (c, s) = self.cursor.get();
        if c == chunk {
            return Some(s);
        }
        let leaf = self.leaves.get((chunk >> LEAF_SHIFT) as usize)?.as_deref()?;
        let s = leaf[chunk as usize & (LEAF_LEN - 1)].checked_sub(1)?;
        self.cursor.set((chunk, s));
        Some(s)
    }

    /// The arena slot holding `chunk`, materialising it if absent.
    ///
    /// # Panics
    ///
    /// Panics if `chunk` lies outside the span: a write beyond the
    /// machine's physical memory is a simulator bug.
    fn slot_of_mut(&mut self, chunk: u64) -> u32 {
        if let Some(s) = self.slot_of(chunk) {
            return s;
        }
        assert!(
            chunk < self.span_chunks,
            "physical write at {:#x} beyond the machine's span",
            chunk << CHUNK_SHIFT
        );
        let s = u32::try_from(self.arena.len()).expect("chunk arena overflow");
        self.arena.push(Box::new([0u8; CHUNK_SIZE]));
        self.link(chunk, s);
        self.cursor.set((chunk, s));
        s
    }

    /// Points `chunk` (inside the span) at arena slot `s`, creating its
    /// leaf on first use. Returns whether the chunk was already linked.
    fn link(&mut self, chunk: u64, s: u32) -> bool {
        let leaf = self.leaves[(chunk >> LEAF_SHIFT) as usize]
            .get_or_insert_with(|| Box::new([0; LEAF_LEN]));
        let entry = &mut leaf[chunk as usize & (LEAF_LEN - 1)];
        let was_linked = *entry != 0;
        *entry = s + 1;
        was_linked
    }

    /// Reads `buf.len()` bytes starting at `addr`.
    pub fn read(&self, addr: PhysAddr, buf: &mut [u8]) {
        let mut pos = addr.raw();
        let mut done = 0usize;
        while done < buf.len() {
            let chunk_idx = pos >> CHUNK_SHIFT;
            let off = (pos as usize) & (CHUNK_SIZE - 1);
            let n = (CHUNK_SIZE - off).min(buf.len() - done);
            match self.slot_of(chunk_idx) {
                Some(s) => {
                    buf[done..done + n].copy_from_slice(&self.arena[s as usize][off..off + n]);
                }
                None => buf[done..done + n].fill(0),
            }
            done += n;
            pos += n as u64;
        }
    }

    /// Writes `buf` starting at `addr`.
    pub fn write(&mut self, addr: PhysAddr, buf: &[u8]) {
        let mut pos = addr.raw();
        let mut done = 0usize;
        while done < buf.len() {
            let chunk_idx = pos >> CHUNK_SHIFT;
            let off = (pos as usize) & (CHUNK_SIZE - 1);
            let n = (CHUNK_SIZE - off).min(buf.len() - done);
            let slot = self.slot_of_mut(chunk_idx);
            self.arena[slot as usize][off..off + n].copy_from_slice(&buf[done..done + n]);
            done += n;
            pos += n as u64;
        }
    }

    /// Reads a little-endian `u64`.
    #[must_use]
    pub fn read_u64(&self, addr: PhysAddr) -> u64 {
        let pos = addr.raw();
        let off = (pos as usize) & (CHUNK_SIZE - 1);
        if off <= CHUNK_SIZE - 8 {
            // Word lies within one chunk: read straight out of the
            // arena (cursor hit in the streaming common case).
            return match self.slot_of(pos >> CHUNK_SHIFT) {
                Some(s) => {
                    let b: [u8; 8] =
                        self.arena[s as usize][off..off + 8].try_into().expect("8-byte slice");
                    u64::from_le_bytes(b)
                }
                None => 0,
            };
        }
        let mut b = [0u8; 8];
        self.read(addr, &mut b);
        u64::from_le_bytes(b)
    }

    /// Writes a little-endian `u64`.
    pub fn write_u64(&mut self, addr: PhysAddr, value: u64) {
        let pos = addr.raw();
        let off = (pos as usize) & (CHUNK_SIZE - 1);
        if off <= CHUNK_SIZE - 8 {
            let slot = self.slot_of_mut(pos >> CHUNK_SHIFT);
            self.arena[slot as usize][off..off + 8].copy_from_slice(&value.to_le_bytes());
            return;
        }
        self.write(addr, &value.to_le_bytes());
    }

    /// Fills `len` bytes starting at `addr` with `byte`, chunk by chunk
    /// straight into the arena.
    pub fn fill(&mut self, addr: PhysAddr, len: u64, byte: u8) {
        let mut pos = addr.raw();
        let end = pos + len;
        while pos < end {
            let off = (pos as usize) & (CHUNK_SIZE - 1);
            let n = ((CHUNK_SIZE - off) as u64).min(end - pos) as usize;
            let slot = self.slot_of_mut(pos >> CHUNK_SHIFT);
            self.arena[slot as usize][off..off + n].fill(byte);
            pos += n as u64;
        }
    }

    /// Copies `len` bytes from `src` to `dst` (the page-replication
    /// primitive used by the Popcorn DSM model) through a page-sized
    /// stack buffer. Overlapping ranges copy as `memmove` does: a copy
    /// to a higher address runs back to front, so every piece is read
    /// before it is overwritten.
    pub fn copy(&mut self, src: PhysAddr, dst: PhysAddr, len: u64) {
        let mut buf = [0u8; 4096];
        let backward = dst.raw() > src.raw() && dst.raw() - src.raw() < len;
        let mut done = 0u64;
        while done < len {
            let n = (len - done).min(buf.len() as u64);
            let off = if backward { len - done - n } else { done };
            let piece = &mut buf[..n as usize];
            self.read(src.offset(off), piece);
            self.write(dst.offset(off), piece);
            done += n;
        }
    }

    /// Serializes every materialised chunk into a checkpoint section,
    /// in ascending chunk order (the radix walk order) so identical
    /// memory always yields an identical byte stream regardless of
    /// materialisation order.
    pub fn save_state(&self, e: &mut stramash_sim::checkpoint::Encoder) {
        e.tag(0x53_504d45); // "SPME"
        e.u64(self.arena.len() as u64);
        for (i, leaf) in self.leaves.iter().enumerate() {
            let Some(leaf) = leaf else { continue };
            for (j, &entry) in leaf.iter().enumerate() {
                if entry != 0 {
                    e.u64(((i as u64) << LEAF_SHIFT) | j as u64);
                    e.bytes(&self.arena[(entry - 1) as usize][..]);
                }
            }
        }
    }

    /// Restores the memory contents from a checkpoint section,
    /// replacing everything currently materialised. The streaming
    /// cursor restarts invalid.
    ///
    /// # Errors
    ///
    /// Decoding errors; [`Malformed`] for a chunk outside this store's
    /// span (checked before anything is allocated for it), a duplicate
    /// chunk, or a chunk of the wrong size.
    ///
    /// [`Malformed`]: stramash_sim::checkpoint::CheckpointError::Malformed
    pub fn load_state(
        &mut self,
        d: &mut stramash_sim::checkpoint::Decoder<'_>,
    ) -> Result<(), stramash_sim::checkpoint::CheckpointError> {
        use stramash_sim::checkpoint::CheckpointError;
        d.tag(0x53_504d45)?;
        let n = d.len()?;
        self.leaves.iter_mut().for_each(|l| *l = None);
        self.arena.clear();
        self.cursor.set((NO_CHUNK, 0));
        for slot in 0..n {
            let chunk = d.u64()?;
            if chunk >= self.span_chunks {
                return Err(CheckpointError::Malformed("memory chunk outside the physical span"));
            }
            let data = d.bytes()?;
            let data: &[u8; CHUNK_SIZE] =
                data.try_into().map_err(|_| CheckpointError::Malformed("chunk size"))?;
            self.arena.push(Box::new(*data));
            if self.link(chunk, slot as u32) {
                return Err(CheckpointError::Malformed("duplicate memory chunk"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stramash_sim::checkpoint::CheckpointError;

    #[test]
    fn phys_addr_helpers() {
        let a = PhysAddr::new(0x1234);
        assert_eq!(a.align_down(0x1000).raw(), 0x1000);
        assert!(!a.is_aligned(0x1000));
        assert!(PhysAddr::new(0x2000).is_aligned(0x1000));
        assert_eq!(a.frame(), 1);
        assert_eq!(PhysAddr::new(128).line(64), 2);
        assert_eq!(a.to_string(), "PA:0x1234");
    }

    #[test]
    fn paper_layout_matches_figure4() {
        let l = PhysLayout::paper_default();
        assert!(l.is_disjoint());
        // x86 boots at 0x0; Arm's private region starts at 1.5 GB
        // (its kernel loads at 0xA000_0000 inside it).
        assert_eq!(l.private_region(DomainId::X86).start.raw(), 0);
        assert_eq!(l.private_region(DomainId::ARM).start.raw(), 3 * GB / 2);
        assert!(l.private_region(DomainId::ARM).contains(PhysAddr::new(0xA000_0000)));
        // Shared pool spans 4–8 GB.
        assert_eq!(l.pool_region(DomainId::X86).start.raw(), 4 * GB);
        assert_eq!(l.pool_region(DomainId::ARM).end().raw(), 8 * GB);
    }

    #[test]
    fn region_lookup_and_hole() {
        let l = PhysLayout::paper_default();
        assert!(l.region_of(PhysAddr::new(0)).is_some());
        // The 3–4 GB hole belongs to no region.
        assert!(l.region_of(PhysAddr::new(3 * GB + 42)).is_none());
        let pool = l.region_of(PhysAddr::new(5 * GB)).unwrap();
        assert_eq!(pool.kind, RegionKind::Pool { host: DomainId::X86 });
    }

    #[test]
    fn sparse_memory_zero_initialised() {
        let m = SparseMemory::new();
        let mut buf = [0xffu8; 16];
        m.read(PhysAddr::new(0x5000), &mut buf);
        assert_eq!(buf, [0u8; 16]);
        assert_eq!(m.arena.len(), 0);
    }

    #[test]
    fn sparse_memory_read_back() {
        let mut m = SparseMemory::new();
        m.write(PhysAddr::new(0x100), b"stramash");
        let mut buf = [0u8; 8];
        m.read(PhysAddr::new(0x100), &mut buf);
        assert_eq!(&buf, b"stramash");
    }

    #[test]
    fn sparse_memory_cross_chunk() {
        let mut m = SparseMemory::new();
        let boundary = (1u64 << CHUNK_SHIFT) - 4;
        let data: Vec<u8> = (0..16).collect();
        m.write(PhysAddr::new(boundary), &data);
        let mut buf = [0u8; 16];
        m.read(PhysAddr::new(boundary), &mut buf);
        assert_eq!(buf.as_slice(), data.as_slice());
        assert_eq!(m.arena.len(), 2);
    }

    #[test]
    fn sparse_memory_u64() {
        let mut m = SparseMemory::new();
        m.write_u64(PhysAddr::new(0x40), 0xdead_beef_cafe_f00d);
        assert_eq!(m.read_u64(PhysAddr::new(0x40)), 0xdead_beef_cafe_f00d);
    }

    #[test]
    fn sparse_memory_fill_and_copy() {
        let mut m = SparseMemory::new();
        m.fill(PhysAddr::new(0x2000), 4096, 0xab);
        assert_eq!(m.read_u64(PhysAddr::new(0x2ff8)), 0xabab_abab_abab_abab);
        m.copy(PhysAddr::new(0x2000), PhysAddr::new(0x9000), 4096);
        assert_eq!(m.read_u64(PhysAddr::new(0x9000)), 0xabab_abab_abab_abab);
    }

    /// A hand-built "SPME" section: `(chunk, payload)` records, where a
    /// `None` payload ends the section right after the chunk number.
    fn spme_section(chunks: &[(u64, Option<&[u8]>)]) -> Vec<u8> {
        let mut e = stramash_sim::checkpoint::Encoder::new();
        e.tag(0x53_504d45);
        e.u64(chunks.len() as u64);
        for (chunk, data) in chunks {
            e.u64(*chunk);
            if let Some(data) = data {
                e.bytes(data);
            }
        }
        e.into_bytes()
    }

    fn load(m: &mut SparseMemory, bytes: &[u8]) -> Result<(), CheckpointError> {
        m.load_state(&mut stramash_sim::checkpoint::Decoder::new(bytes))
    }

    #[test]
    fn load_rejects_chunks_outside_the_span() {
        let mut m = SparseMemory::with_span(PhysLayout::paper_default().end());
        let span_chunks = (8 * GB) >> CHUNK_SHIFT;
        let page = vec![0x5au8; CHUNK_SIZE];
        // A chunk near the top of the address space is refused before
        // its payload is even read: the section carries none.
        for chunk in [u64::MAX >> CHUNK_SHIFT, u64::MAX - 1, span_chunks] {
            let bytes = spme_section(&[(chunk, None)]);
            assert_eq!(
                load(&mut m, &bytes),
                Err(CheckpointError::Malformed("memory chunk outside the physical span")),
                "chunk {chunk:#x}"
            );
        }
        // The last chunk of the span is fine; one past it is not, even
        // with a well-formed payload.
        let ok = spme_section(&[(span_chunks - 1, Some(&page))]);
        assert_eq!(load(&mut m, &ok), Ok(()));
        assert_eq!(m.read_u64(PhysAddr::new(8 * GB - 8)), 0x5a5a_5a5a_5a5a_5a5a);
        let bad = spme_section(&[(0, Some(&page)), (span_chunks, Some(&page))]);
        assert!(load(&mut m, &bad).is_err());
        // The top level never grew past the span.
        assert_eq!(m.leaves.len(), 128);
    }

    #[test]
    fn load_rejects_duplicate_chunks() {
        let mut m = SparseMemory::new();
        let page = vec![1u8; CHUNK_SIZE];
        let other = vec![2u8; CHUNK_SIZE];
        let bytes = spme_section(&[(7, Some(&page)), (3, Some(&page)), (7, Some(&other))]);
        assert_eq!(load(&mut m, &bytes), Err(CheckpointError::Malformed("duplicate memory chunk")));
        // A rejected artifact leaves a store that is still safe to read.
        let _ = m.read_u64(PhysAddr::new(7 << CHUNK_SHIFT));
        // Wrong-sized chunks are refused too.
        let short = spme_section(&[(1, Some(&page[..100]))]);
        assert_eq!(load(&mut m, &short), Err(CheckpointError::Malformed("chunk size")));
    }

    #[test]
    fn save_load_save_is_byte_identical() {
        let mut m = SparseMemory::new();
        // Materialise out of address order, across leaves and in the
        // 4–8 GB pool, so the walk order is what sorts the section.
        for (i, addr) in [7 * GB + 0x123, 0x40, 5 * GB, 64 << 20, (64 << 20) - 8, 3 * GB / 2]
            .into_iter()
            .enumerate()
        {
            m.write_u64(PhysAddr::new(addr), 0x1111 * (i as u64 + 1));
        }
        let mut e = stramash_sim::checkpoint::Encoder::new();
        m.save_state(&mut e);
        let first = e.into_bytes();
        let mut back = SparseMemory::new();
        load(&mut back, &first).unwrap();
        assert_eq!(back.arena.len(), m.arena.len());
        let mut e = stramash_sim::checkpoint::Encoder::new();
        back.save_state(&mut e);
        assert_eq!(e.into_bytes(), first);
        // Chunk numbers are written in ascending order.
        let mut d = stramash_sim::checkpoint::Decoder::new(&first);
        d.tag(0x53_504d45).unwrap();
        let n = d.len().unwrap();
        let chunks: Vec<u64> = (0..n)
            .map(|_| {
                let c = d.u64().unwrap();
                d.bytes().unwrap();
                c
            })
            .collect();
        assert!(chunks.windows(2).all(|w| w[0] < w[1]), "{chunks:x?}");
    }

    #[test]
    fn reads_beyond_the_span_are_zero() {
        let m = SparseMemory::new();
        assert_eq!(m.read_u64(PhysAddr::new(1 << 40)), 0);
        let mut buf = [0xffu8; 4];
        m.read(PhysAddr::new(8 * GB - 2), &mut buf);
        assert_eq!(buf, [0; 4]);
    }

    #[test]
    #[should_panic(expected = "beyond the machine's span")]
    fn writes_beyond_the_span_panic() {
        SparseMemory::new().write_u64(PhysAddr::new(8 * GB), 1);
    }

    /// Seeded random op mixes against a naive byte map: every read and
    /// the resident-chunk count must agree. Addresses cluster around
    /// 64 KiB chunk and 64 MiB leaf boundaries, in both the private
    /// regions and the 4–8 GB pool, up to the end of the span.
    #[test]
    fn matches_a_byte_map_model_on_random_ops() {
        use std::collections::{BTreeMap, BTreeSet};
        use stramash_sim::rng::SimRng;

        const LEAF: u64 = (LEAF_LEN as u64) << CHUNK_SHIFT;
        const CHUNK: u64 = CHUNK_SIZE as u64;
        let end = 8 * GB;
        let anchors = [
            0,
            CHUNK,
            7 * CHUNK,
            LEAF,
            3 * LEAF + CHUNK,
            3 * GB / 2,
            4 * GB,
            4 * GB + LEAF,
            6 * GB - CHUNK,
            7 * GB + 5 * LEAF,
            end - CHUNK,
            end,
        ];

        /// Every byte ever written, and the chunks those bytes fall in.
        #[derive(Default)]
        struct Model {
            bytes: BTreeMap<u64, u8>,
            chunks: BTreeSet<u64>,
        }
        fn model_read(model: &Model, addr: u64, len: usize) -> Vec<u8> {
            (0..len as u64).map(|i| model.bytes.get(&(addr + i)).copied().unwrap_or(0)).collect()
        }
        fn model_write(model: &mut Model, addr: u64, bytes: &[u8]) {
            for (i, b) in bytes.iter().enumerate() {
                let a = addr + i as u64;
                model.bytes.insert(a, *b);
                model.chunks.insert(a >> CHUNK_SHIFT);
            }
        }

        for seed in 0..4u64 {
            let mut rng = SimRng::new(0x5ba5_e000 + seed);
            let mut m = SparseMemory::new();
            let mut model = Model::default();
            // An address within 200 bytes of an anchor, leaving room for
            // `len` bytes before the end of the span.
            let pick = |rng: &mut SimRng, len: u64| {
                let a = anchors[rng.gen_range(anchors.len() as u64) as usize];
                let addr = (a + rng.gen_range(400)).saturating_sub(200);
                addr.min(end - len)
            };
            for step in 0..2_000u32 {
                let ctx = format!("seed {seed}, step {step}");
                match rng.gen_range(8) {
                    0 => {
                        let len = 1 + rng.gen_range(300);
                        let addr = pick(&mut rng, len);
                        let bytes: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
                        m.write(PhysAddr::new(addr), &bytes);
                        model_write(&mut model, addr, &bytes);
                    }
                    1 => {
                        let len = 1 + rng.gen_range(300) as usize;
                        let addr = pick(&mut rng, len as u64);
                        let mut buf = vec![0xeeu8; len];
                        m.read(PhysAddr::new(addr), &mut buf);
                        assert_eq!(buf, model_read(&model, addr, len), "{ctx}");
                    }
                    2 => {
                        let addr = pick(&mut rng, 8);
                        let v = rng.next_u64();
                        m.write_u64(PhysAddr::new(addr), v);
                        model_write(&mut model, addr, &v.to_le_bytes());
                    }
                    3 => {
                        let addr = pick(&mut rng, 8);
                        let want = model_read(&model, addr, 8);
                        let want = u64::from_le_bytes(want.try_into().unwrap());
                        assert_eq!(m.read_u64(PhysAddr::new(addr)), want, "{ctx}");
                    }
                    4 => {
                        let n = 1 + rng.gen_range(40);
                        let addr = pick(&mut rng, 8 * n) & !7;
                        for i in 0..n {
                            let v = rng.next_u64();
                            m.write_u64(PhysAddr::new(addr + 8 * i), v);
                            model_write(&mut model, addr + 8 * i, &v.to_le_bytes());
                        }
                    }
                    5 => {
                        let n = 1 + rng.gen_range(40);
                        let addr = pick(&mut rng, 8 * n) & !7;
                        for i in 0..n {
                            let want = model_read(&model, addr + 8 * i, 8);
                            let want = u64::from_le_bytes(want.try_into().unwrap());
                            assert_eq!(m.read_u64(PhysAddr::new(addr + 8 * i)), want, "{ctx}");
                        }
                    }
                    6 => {
                        let len = rng.gen_range(3_000);
                        let addr = pick(&mut rng, len);
                        let byte = rng.next_u64() as u8;
                        m.fill(PhysAddr::new(addr), len, byte);
                        model_write(&mut model, addr, &vec![byte; len as usize]);
                    }
                    _ => {
                        let len = rng.gen_range(2_000);
                        let src = pick(&mut rng, len);
                        let dst = pick(&mut rng, len);
                        m.copy(PhysAddr::new(src), PhysAddr::new(dst), len);
                        let bytes = model_read(&model, src, len as usize);
                        model_write(&mut model, dst, &bytes);
                    }
                }
                assert_eq!(m.arena.len(), model.chunks.len(), "{ctx}");
            }
        }
    }

    #[test]
    fn shared_store_is_visible_across_writers() {
        // Models §7.1: a write from one guest is reflected in the other.
        let mut m = SparseMemory::new();
        m.write_u64(PhysAddr::new(0x7000), 7); // "x86 writes"
        assert_eq!(m.read_u64(PhysAddr::new(0x7000)), 7); // "Arm reads"
    }
}
