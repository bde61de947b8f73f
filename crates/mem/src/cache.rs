//! Set-associative caches and the per-domain three-level hierarchy.
//!
//! This reimplements the extended QEMU cache plugin of §7.3: split L1
//! instruction/data caches, a unified L2 and a unified, *inclusive* L3,
//! all with LRU replacement. MESI coherence state is tracked at the L3
//! (the coherence point between domains, as in the plugin's CXL model);
//! the upper levels are back-invalidated when the inclusive L3 evicts a
//! line. An L1D or L2 line is either `Shared` (a plain copy) or
//! `Modified`, which marks write ownership: the line is `Modified` at
//! the domain's coherence point and, under a shared LLC, the peer's
//! upper levels hold no copy. A store to an owned line completes
//! locally, as in a real MESI L1; the L1I never holds ownership.

use stramash_sim::config::{CacheGeometry, MAX_CACHE_WAYS};

/// MESI coherence states (§7.3 models MESI transitions with CXL snoops).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mesi {
    /// Dirty, exclusive copy.
    Modified,
    /// Clean, exclusive copy.
    Exclusive,
    /// Clean copy that may exist in other caches.
    Shared,
}

/// Tag of an empty way, and of every padding lane past a set's ways.
const EMPTY: u32 = u32::MAX;

/// Tag lanes per set: every set is padded to the widest associativity.
const LANES: usize = MAX_CACHE_WAYS as usize;

/// One set's tags: each way's line number ([`EMPTY`] when free),
/// padded with [`EMPTY`] to [`LANES`] lanes and aligned so a set is
/// exactly one 64-byte host cache line, whatever its associativity.
#[derive(Debug, Clone, Copy)]
#[repr(C, align(64))]
struct TagSet([u32; LANES]);

const _: () = assert!(std::mem::size_of::<TagSet>() == 64);

/// An empty set.
const EMPTY_SET: TagSet = TagSet([EMPTY; LANES]);

/// The tag of `line`. Line numbers sit below [`EMPTY`]:
/// `MemorySystem::with_layout` rejects a layout with more lines.
#[inline(always)]
fn tag_of(line: u64) -> u32 {
    debug_assert!(line < u64::from(EMPTY), "line {line:#x} does not fit a 32-bit tag");
    line as u32
}

/// Bit `l` set for every lane `l` of `set` equal to `tag`, one compare
/// per lane `|`-accumulated with no early exit. The match on targets
/// other than x86-64, and the oracle the SSE2 match is tested against.
#[cfg(any(test, not(target_arch = "x86_64")))]
#[inline(always)]
fn match_lanes_scalar(set: &TagSet, tag: u32) -> u32 {
    let mut mask = 0;
    for (lane, &t) in set.0.iter().enumerate() {
        mask |= u32::from(t == tag) << lane;
    }
    mask
}

#[cfg(not(target_arch = "x86_64"))]
#[inline(always)]
fn match_lanes(set: &TagSet, tag: u32) -> u32 {
    match_lanes_scalar(set, tag)
}

/// [`match_lanes_scalar`] in SSE2: four 4-lane compares, narrowed by
/// saturating packs (each all-ones or all-zero lane stays so) to 16
/// bytes in lane order, then one `movemask` to the 16-bit mask.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
#[inline(always)]
fn match_lanes(set: &TagSet, tag: u32) -> u32 {
    use std::arch::x86_64::{
        __m128i, _mm_cmpeq_epi32, _mm_load_si128, _mm_movemask_epi8, _mm_packs_epi16,
        _mm_packs_epi32, _mm_set1_epi32,
    };
    let quads = set.0.as_ptr().cast::<__m128i>();
    // SAFETY: a `TagSet` is 64-byte aligned and exactly 64 bytes (16
    // `u32` lanes, checked at compile time above), so `quads.add(q)`
    // for `q` in 0..4 is an in-bounds, 16-byte-aligned pointer to four
    // lanes of `set`, as `_mm_load_si128` requires. Every intrinsic
    // here is SSE2, which the x86-64 baseline always provides.
    let mask = unsafe {
        let needle = _mm_set1_epi32(tag as i32);
        let eq = |q: usize| _mm_cmpeq_epi32(_mm_load_si128(quads.add(q)), needle);
        let low = _mm_packs_epi32(eq(0), eq(1));
        let high = _mm_packs_epi32(eq(2), eq(3));
        _mm_movemask_epi8(_mm_packs_epi16(low, high))
    };
    mask as u32
}

/// Checkpoint wire code for a MESI state.
fn mesi_code(m: Mesi) -> u8 {
    match m {
        Mesi::Modified => 0,
        Mesi::Exclusive => 1,
        Mesi::Shared => 2,
    }
}

/// Inverse of [`mesi_code`].
fn mesi_from_code(b: u8) -> Result<Mesi, stramash_sim::checkpoint::CheckpointError> {
    match b {
        0 => Ok(Mesi::Modified),
        1 => Ok(Mesi::Exclusive),
        2 => Ok(Mesi::Shared),
        _ => Err(stramash_sim::checkpoint::CheckpointError::Malformed("MESI state code")),
    }
}

/// A single set-associative, LRU cache level.
///
/// Structure-of-arrays layout: power-of-two set masking, one 64-byte
/// block of 32-bit tags per set and a packed-nibble LRU permutation
/// per set. Every set walk is one branch-free compare of all 16 tag
/// lanes (`match_lanes`) that yields a mask of the matching ways.
/// A slot is `set * 16 + way`. Exact LRU — the unit tests hold every
/// observable (hits, evictions, per-set residency, MESI state) against
/// the independently written exact-LRU cache in [`crate::reference`].
#[derive(Debug, Clone)]
pub struct Cache {
    geo: CacheGeometry,
    /// `set count - 1`; valid because set counts are power-of-two
    /// (enforced by `SimConfig::validate` / `CacheGeometry::new`).
    set_mask: u64,
    /// `(1 << ways) - 1`: the lanes of a set that are real ways.
    way_bits: u32,
    /// Each set's tags: each way's line number (`addr / line_bytes`,
    /// [`EMPTY`] when free), padded to one host cache line.
    tags: Vec<TagSet>,
    /// Each slot's coherence state: full MESI at the L3, the
    /// write-ownership bit (`Modified` vs `Shared`) at the L1D and L2.
    /// Same `set * 16 + way` stride as the tags; padding slots are
    /// never read.
    states: Vec<Mesi>,
    /// Per-set LRU order, packed 4 bits per way: nibble `r` holds the
    /// way index at recency rank `r` (0 = MRU, `ways-1` = LRU/victim).
    /// Every touch is a move-to-front register permutation update.
    perms: Vec<u64>,
}

/// Identity LRU permutation (nibble `r` = way `r`); ranks at and above
/// the way count are never read.
const PERM_IDENTITY: u64 = 0xFEDC_BA98_7654_3210;

/// The way index at recency rank `rank`.
#[inline]
fn perm_way_at(perm: u64, rank: u32) -> usize {
    ((perm >> (4 * rank)) & 0xF) as usize
}

/// Bit offset (4 × rank) of the lowest nibble equal to `way`, found
/// branchlessly with SWAR zero-nibble detection. `way` must be present
/// in the low `ways` nibbles; any stale duplicate in the unused high
/// ranks sits above the real occurrence and is never selected.
#[inline]
fn perm_find(perm: u64, way: u64) -> u32 {
    let x = perm ^ (way.wrapping_mul(0x1111_1111_1111_1111));
    let z = x.wrapping_sub(0x1111_1111_1111_1111) & !x & 0x8888_8888_8888_8888;
    debug_assert!(z != 0, "way {way} absent from permutation {perm:#x}");
    // trailing_zeros is 4r+3; clear the low bits to get 4r. (SWAR
    // borrow propagation can flag nibbles above the first match, never
    // below it, so the lowest set bit is always the true occurrence.)
    z.trailing_zeros() & !3
}

/// Moves the `way` known to sit at bit offset `idx` (4 × its rank) to
/// the MRU nibble, shifting the ranks it overtakes down by one.
#[inline]
fn perm_promote_at(perm: u64, way: u64, idx: u32) -> u64 {
    let below = perm & ((1u64 << idx) - 1);
    // Double shift: `idx + 4` may be 64, which a single shift forbids.
    let above = (perm >> idx >> 4) << idx << 4;
    above | (below << 4) | way
}

/// Moves `way` to the MRU (rank-0) nibble, shifting the ranks it
/// overtakes down by one. No-op if it is already MRU.
#[inline]
fn perm_promote(perm: u64, way: u64) -> u64 {
    perm_promote_at(perm, way, perm_find(perm, way))
}

/// Moves `way` to the LRU (rank `ways-1`) nibble — used when a way is
/// invalidated, so a set's empty ways sit at its LRU end.
#[inline]
fn perm_demote(perm: u64, way: usize, ways: u32) -> u64 {
    let way64 = way as u64;
    let last = ways - 1;
    if perm_way_at(perm, last) == way {
        return perm;
    }
    let idx = perm_find(perm, way64);
    let below = perm & ((1u64 << idx) - 1);
    let shifted = (perm >> idx >> 4) << idx;
    let res = below | shifted;
    (res & !(0xFu64 << (4 * last))) | (way64 << (4 * last))
}

/// Result of filling a line into a level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Eviction {
    /// The evicted line address.
    pub line: u64,
    /// Its state at eviction (a `Modified` eviction implies a writeback).
    pub state: Mesi,
}

/// Result of [`Cache::probe_or_plan`]: either a hit (identical to
/// [`Cache::probe_slot`]) or a miss carrying the fill slot
/// [`Cache::plan_fill`] chooses.
#[derive(Debug, Clone, Copy)]
pub enum ProbeFill {
    /// The line is resident in this slot; LRU was refreshed. The slot
    /// stays valid until the set is next edited, so the caller can read
    /// or set its state ([`Cache::state_at`], [`Cache::set_state_at`])
    /// without another way match.
    Hit(usize),
    /// The line is absent; `plan` pre-computes the fill.
    Miss(FillPlan),
}

/// A pre-computed fill decision for an absent line: the first empty
/// way, else the LRU way.
/// Only valid while the set is untouched between the probe and
/// [`Cache::fill_planned`] — the caller guarantees that (upper-level
/// fills on an L2/L3 hit, and the LLC fill of a memory miss; a memory
/// miss drops the L1 and L2 plans because inclusive back-invalidation
/// may edit their sets).
#[derive(Debug, Clone, Copy)]
pub struct FillPlan {
    /// Slot (`set * 16 + way`) to fill.
    slot: usize,
    /// The set index (whose permutation the fill promotes).
    set: usize,
    /// The slot's current LRU rank, when the plan evicts (an LRU victim
    /// is at rank `ways-1`); `u32::MAX` for empty-way fills, which
    /// evict nothing and promote through the SWAR find.
    rank: u32,
}

impl Cache {
    /// Creates an empty cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics on a non-power-of-two set count or more than
    /// [`MAX_CACHE_WAYS`] ways; `SimConfig::validate` reports both as
    /// typed errors first.
    #[must_use]
    pub fn new(geo: CacheGeometry) -> Self {
        let set_count = geo.sets();
        assert!(
            set_count.is_power_of_two(),
            "cache set count must be a power of two (got {set_count}); \
             SimConfig::validate reports this as ConfigError::NonPowerOfTwoSets"
        );
        assert!(
            geo.ways <= MAX_CACHE_WAYS,
            "cache associativity must be at most {MAX_CACHE_WAYS} ways (got {}); \
             SimConfig::validate reports this as ConfigError::TooManyWays",
            geo.ways
        );
        Cache {
            geo,
            set_mask: set_count - 1,
            way_bits: (1 << geo.ways) - 1,
            tags: vec![EMPTY_SET; set_count as usize],
            states: vec![Mesi::Shared; set_count as usize * LANES],
            perms: vec![PERM_IDENTITY; set_count as usize],
        }
    }

    /// The geometry of this level.
    #[must_use]
    pub fn geometry(&self) -> &CacheGeometry {
        &self.geo
    }

    /// The set `line` maps to.
    #[inline(always)]
    fn set_of(&self, line: u64) -> usize {
        (line & self.set_mask) as usize
    }

    /// The set `line` maps to and the mask of its ways holding `line`
    /// (at most one bit: a line sits in at most one way, and padding
    /// lanes hold [`EMPTY`], which no line's tag equals).
    #[inline(always)]
    fn lookup(&self, line: u64) -> (usize, u32) {
        let set = self.set_of(line);
        (set, match_lanes(&self.tags[set], tag_of(line)))
    }

    /// Probes for a line; on hit, refreshes LRU and returns its state.
    #[inline]
    pub fn probe(&mut self, line: u64) -> Option<Mesi> {
        self.probe_slot(line).map(|slot| self.states[slot])
    }

    /// Probes for a line; on hit, refreshes LRU and returns the slot it
    /// lives in (see [`ProbeFill::Hit`]).
    #[inline(always)]
    pub fn probe_slot(&mut self, line: u64) -> Option<usize> {
        let (set, hits) = self.lookup(line);
        if hits == 0 {
            return None;
        }
        let way = u64::from(hits.trailing_zeros());
        let perm = self.perms[set];
        // A re-hit on the MRU way is an identity promote: skipping its
        // store keeps runs of hits on one line free of a store-to-load
        // chain through the permutation.
        if perm & 0xF != way {
            self.perms[set] = perm_promote(perm, way);
        }
        Some(set * LANES + way as usize)
    }

    /// Probes for a line like [`Cache::probe_slot`], but on a miss also
    /// returns the fill slot [`Cache::plan_fill`] chooses, so the hot
    /// L1-miss/L2-hit pattern fills without re-matching the set. The
    /// plan holds while the set is untouched, which the `MemorySystem`
    /// call sites guarantee.
    #[inline(always)]
    pub fn probe_or_plan(&mut self, line: u64) -> ProbeFill {
        match self.probe_slot(line) {
            Some(slot) => ProbeFill::Hit(slot),
            None => ProbeFill::Miss(self.plan_fill(line)),
        }
    }

    /// The fill slot for `line`, which must be absent: its set's LRU
    /// way, whose rank rides along so the fill can promote without a
    /// find, unless that way is empty. Empty ways sit at the LRU end of
    /// a set (fills take one, invalidations demote to it), so only then
    /// does the set have one, and the fill takes the first empty way —
    /// the same lane match, against `EMPTY`, masked to the real ways
    /// so a padding lane is never chosen.
    #[inline(always)]
    #[must_use]
    pub fn plan_fill(&self, line: u64) -> FillPlan {
        let set = self.set_of(line);
        let last = self.geo.ways - 1;
        let victim = perm_way_at(self.perms[set], last);
        if self.tags[set].0[victim] != EMPTY {
            return FillPlan { slot: set * LANES + victim, set, rank: last };
        }
        let empty = match_lanes(&self.tags[set], EMPTY) & self.way_bits;
        FillPlan { slot: set * LANES + empty.trailing_zeros() as usize, set, rank: u32::MAX }
    }

    /// Consumes a [`FillPlan`] from [`Cache::probe_or_plan`] or
    /// [`Cache::plan_fill`], filling the planned slot and returning its
    /// eviction, if any. The set must be untouched since the plan was
    /// made.
    #[inline(always)]
    pub fn fill_planned(&mut self, plan: FillPlan, line: u64, state: Mesi) -> Option<Eviction> {
        let way = plan.slot % LANES;
        let tag = &mut self.tags[plan.set].0[way];
        let evicted = (plan.rank != u32::MAX)
            .then(|| Eviction { line: u64::from(*tag), state: self.states[plan.slot] });
        *tag = tag_of(line);
        self.states[plan.slot] = state;
        let way = way as u64;
        let perm = self.perms[plan.set];
        let idx = if plan.rank == u32::MAX { perm_find(perm, way) } else { 4 * plan.rank };
        self.perms[plan.set] = perm_promote_at(perm, way, idx);
        evicted
    }

    /// Whether the line is present, without disturbing LRU.
    #[must_use]
    pub fn contains(&self, line: u64) -> bool {
        self.lookup(line).1 != 0
    }

    /// The slot holding `line`, if resident, without disturbing LRU.
    #[inline]
    pub(crate) fn slot_of(&self, line: u64) -> Option<usize> {
        let (set, hits) = self.lookup(line);
        (hits != 0).then(|| set * LANES + hits.trailing_zeros() as usize)
    }

    /// Reads a line's state without disturbing LRU.
    #[must_use]
    pub fn state_of(&self, line: u64) -> Option<Mesi> {
        self.slot_of(line).map(|slot| self.states[slot])
    }

    /// The state of the line in `slot`, as returned by a probe hit.
    #[inline]
    #[must_use]
    pub fn state_at(&self, slot: usize) -> Mesi {
        self.states[slot]
    }

    /// Sets the state of the line in `slot`, as returned by a probe hit
    /// (valid while the set is unedited since the probe).
    #[inline]
    pub fn set_state_at(&mut self, slot: usize, state: Mesi) {
        self.states[slot] = state;
    }

    /// Sets the state of a resident line, returning the *previous*
    /// state so callers can observe the transition (`None` if absent).
    pub fn set_state(&mut self, line: u64, state: Mesi) -> Option<Mesi> {
        let slot = self.slot_of(line)?;
        Some(std::mem::replace(&mut self.states[slot], state))
    }

    /// Removes a line; returns its state if it was present.
    pub fn invalidate(&mut self, line: u64) -> Option<Mesi> {
        let slot = self.slot_of(line)?;
        let (set, way) = (slot / LANES, slot % LANES);
        self.tags[set].0[way] = EMPTY;
        // The emptied way drops to the LRU rank.
        self.perms[set] = perm_demote(self.perms[set], way, self.geo.ways);
        Some(self.states[slot])
    }

    /// Drops every line (e.g. between experiment phases).
    pub fn flush(&mut self) {
        self.tags.fill(EMPTY_SET);
        self.perms.fill(PERM_IDENTITY);
    }

    /// Number of resident lines (for tests and occupancy metrics).
    #[must_use]
    pub fn resident(&self) -> usize {
        self.tags.iter().flat_map(|set| set.0).filter(|&t| t != EMPTY).count()
    }

    /// Serializes the mutable cache state into a checkpoint section:
    /// each real way's tag as a `u64` (`u64::MAX` when empty) and state,
    /// set by set, then the LRU permutations. Padding lanes are not
    /// written.
    pub fn save_state(&self, e: &mut stramash_sim::checkpoint::Encoder) {
        e.tag(0x4343_4845); // "CCHE"
        let ways = self.geo.ways as usize;
        let tags: Vec<u64> = self
            .tags
            .iter()
            .flat_map(|set| &set.0[..ways])
            .map(|&t| if t == EMPTY { u64::MAX } else { u64::from(t) })
            .collect();
        e.u64s(&tags);
        let states: Vec<u8> = self
            .states
            .chunks_exact(LANES)
            .flat_map(|set| &set[..ways])
            .map(|&s| mesi_code(s))
            .collect();
        e.bytes(&states);
        e.u64s(&self.perms);
    }

    /// Restores the cache from a checkpoint section taken on an
    /// identically-configured cache.
    ///
    /// # Errors
    ///
    /// Decoding errors, [`CheckpointError::ConfigMismatch`] when the
    /// artifact's slot count does not match this cache's geometry, and
    /// [`CheckpointError::Malformed`] for a tag that is neither empty
    /// (`u64::MAX`) nor below `u32::MAX`, a set that holds a line twice,
    /// holds a line of another set, whose LRU order is not a permutation
    /// of its ways, or that ranks an empty way above a resident one —
    /// states no sequence of cache operations produces.
    ///
    /// [`CheckpointError::ConfigMismatch`]: stramash_sim::checkpoint::CheckpointError::ConfigMismatch
    /// [`CheckpointError::Malformed`]: stramash_sim::checkpoint::CheckpointError::Malformed
    pub fn load_state(
        &mut self,
        d: &mut stramash_sim::checkpoint::Decoder<'_>,
    ) -> Result<(), stramash_sim::checkpoint::CheckpointError> {
        use stramash_sim::checkpoint::CheckpointError;
        d.tag(0x4343_4845)?;
        let ways = self.geo.ways as usize;
        let slots = self.tags.len() * ways;
        let wire_tags = d.u64s()?;
        if wire_tags.len() != slots {
            return Err(CheckpointError::ConfigMismatch);
        }
        let wire_states = d.bytes()?;
        if wire_states.len() != slots {
            return Err(CheckpointError::ConfigMismatch);
        }
        let perms = d.u64s()?;
        if perms.len() != self.perms.len() {
            return Err(CheckpointError::ConfigMismatch);
        }
        let mut tags = vec![EMPTY_SET; self.tags.len()];
        for (set, wire) in tags.iter_mut().zip(wire_tags.chunks_exact(ways)) {
            for (lane, &t) in set.0.iter_mut().zip(wire) {
                *lane = match t {
                    u64::MAX => EMPTY,
                    t if t < u64::from(EMPTY) => t as u32,
                    _ => return Err(CheckpointError::Malformed("cache tag wider than 32 bits")),
                };
            }
        }
        for (set, (set_tags, &perm)) in tags.iter().zip(&perms).enumerate() {
            for &t in set_tags.0.iter().filter(|&&t| t != EMPTY) {
                if (u64::from(t) & self.set_mask) as usize != set {
                    return Err(CheckpointError::Malformed("cache line in the wrong set"));
                }
                if match_lanes(set_tags, t).count_ones() != 1 {
                    return Err(CheckpointError::Malformed("cache line in two ways"));
                }
            }
            let ranked = (0..self.geo.ways).fold(0u32, |m, r| m | 1 << perm_way_at(perm, r));
            if ranked != self.way_bits {
                return Err(CheckpointError::Malformed("cache LRU order"));
            }
            let mut seen_empty = false;
            for r in 0..self.geo.ways {
                let empty = set_tags.0[perm_way_at(perm, r)] == EMPTY;
                if seen_empty && !empty {
                    return Err(CheckpointError::Malformed("cache empty way above a resident one"));
                }
                seen_empty |= empty;
            }
        }
        let mut states = vec![Mesi::Shared; self.states.len()];
        for (set, wire) in states.chunks_exact_mut(LANES).zip(wire_states.chunks_exact(ways)) {
            for (dst, &b) in set.iter_mut().zip(wire) {
                *dst = mesi_from_code(b)?;
            }
        }
        self.tags = tags;
        self.states = states;
        self.perms = perms;
        Ok(())
    }

    /// Iterates every resident line with its state, without disturbing
    /// LRU. Used by the coherence auditor.
    pub fn lines(&self) -> impl Iterator<Item = (u64, Mesi)> + '_ {
        self.tags
            .iter()
            .zip(self.states.chunks_exact(LANES))
            .flat_map(|(set, states)| set.0.iter().zip(states))
            .filter(|(&tag, _)| tag != EMPTY)
            .map(|(&tag, &state)| (u64::from(tag), state))
    }
}

/// The per-domain hierarchy: split L1, unified L2, inclusive L3.
#[derive(Debug, Clone)]
pub struct CacheHierarchy {
    /// L1 instruction cache (presence only: every line is `Shared`).
    pub l1i: Cache,
    /// L1 data cache; a `Modified` line is owned for writing.
    pub l1d: Cache,
    /// Unified L2; a `Modified` line is owned for writing.
    pub l2: Cache,
    /// Unified, inclusive L3 — the coherence point holding MESI state.
    pub l3: Cache,
}

impl CacheHierarchy {
    /// Builds a hierarchy from a domain's cache configuration.
    #[must_use]
    pub fn new(cfg: &stramash_sim::CacheConfig) -> Self {
        CacheHierarchy {
            l1i: Cache::new(cfg.l1i),
            l1d: Cache::new(cfg.l1d),
            l2: Cache::new(cfg.l2),
            l3: Cache::new(cfg.l3),
        }
    }

    /// Whether any level holds the line (the L3 suffices: inclusive).
    #[must_use]
    pub fn contains(&self, line: u64) -> bool {
        self.l3.contains(line)
    }

    /// The coherence state of a resident line.
    #[must_use]
    pub fn state_of(&self, line: u64) -> Option<Mesi> {
        self.l3.state_of(line)
    }

    /// Invalidates a line in every level; returns the L3 state it had.
    pub fn invalidate(&mut self, line: u64) -> Option<Mesi> {
        self.l1i.invalidate(line);
        self.l1d.invalidate(line);
        self.l2.invalidate(line);
        self.l3.invalidate(line)
    }

    /// Whether a line is present in a level above the L3 (the ownership
    /// check and the coherence audit).
    #[must_use]
    pub fn in_upper_levels(&self, line: u64) -> bool {
        self.l1i.contains(line) || self.l1d.contains(line) || self.l2.contains(line)
    }

    /// Drops the upper levels' write ownership of a line (its L1D and
    /// L2 copies become `Shared`), when the domain stops owning it but
    /// keeps its copies.
    pub fn demote_upper(&mut self, line: u64) {
        self.l1d.set_state(line, Mesi::Shared);
        self.l2.set_state(line, Mesi::Shared);
    }

    /// Drops the line from the upper levels only (back-invalidation);
    /// returns whether any of them held a copy.
    pub fn back_invalidate_upper(&mut self, line: u64) -> bool {
        let l1i = self.l1i.invalidate(line).is_some();
        let l1d = self.l1d.invalidate(line).is_some();
        let l2 = self.l2.invalidate(line).is_some();
        l1i || l1d || l2
    }

    /// Flushes every level.
    pub fn flush(&mut self) {
        self.l1i.flush();
        self.l1d.flush();
        self.l2.flush();
        self.l3.flush();
    }

    /// Serializes all four levels into a checkpoint section.
    pub fn save_state(&self, e: &mut stramash_sim::checkpoint::Encoder) {
        e.tag(0x4348_4945); // "CHIE"
        self.l1i.save_state(e);
        self.l1d.save_state(e);
        self.l2.save_state(e);
        self.l3.save_state(e);
    }

    /// Restores all four levels from a checkpoint section.
    ///
    /// # Errors
    ///
    /// Decoding errors.
    pub fn load_state(
        &mut self,
        d: &mut stramash_sim::checkpoint::Decoder<'_>,
    ) -> Result<(), stramash_sim::checkpoint::CheckpointError> {
        d.tag(0x4348_4945)?;
        self.l1i.load_state(d)?;
        self.l1d.load_state(d)?;
        self.l2.load_state(d)?;
        self.l3.load_state(d)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stramash_sim::CacheConfig;

    fn tiny() -> Cache {
        // 2 sets × 2 ways × 64 B lines = 256 B.
        Cache::new(CacheGeometry::new(256, 2, 64))
    }

    /// Probes `line`; sets its state on a hit and fills it through the
    /// probe's plan on a miss, returning the eviction.
    fn fill(c: &mut Cache, line: u64, state: Mesi) -> Option<Eviction> {
        match c.probe_or_plan(line) {
            ProbeFill::Hit(slot) => {
                c.set_state_at(slot, state);
                None
            }
            ProbeFill::Miss(plan) => c.fill_planned(plan, line, state),
        }
    }

    #[test]
    fn miss_then_hit() {
        let mut c = tiny();
        assert_eq!(c.probe(10), None);
        assert_eq!(fill(&mut c, 10, Mesi::Exclusive), None);
        assert_eq!(c.probe(10), Some(Mesi::Exclusive));
        assert!(c.contains(10));
        assert_eq!(c.resident(), 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // Lines 0, 2, 4 map to set 0 (2 sets → even lines share set 0).
        fill(&mut c, 0, Mesi::Shared);
        fill(&mut c, 2, Mesi::Shared);
        c.probe(0); // refresh 0, so 2 is LRU
        let ev = fill(&mut c, 4, Mesi::Shared).expect("set full, must evict");
        assert_eq!(ev.line, 2);
        assert!(c.contains(0));
        assert!(c.contains(4));
        assert!(!c.contains(2));
    }

    #[test]
    fn insert_existing_updates_state_without_eviction() {
        let mut c = tiny();
        fill(&mut c, 8, Mesi::Shared);
        assert_eq!(fill(&mut c, 8, Mesi::Modified), None);
        assert_eq!(c.state_of(8), Some(Mesi::Modified));
        assert_eq!(c.resident(), 1);
    }

    #[test]
    fn eviction_reports_modified_state() {
        let mut c = tiny();
        fill(&mut c, 0, Mesi::Modified);
        fill(&mut c, 2, Mesi::Shared);
        c.probe(2);
        // Refresh 2; 0 is LRU and dirty.
        let ev = fill(&mut c, 4, Mesi::Shared).unwrap();
        assert_eq!(ev, Eviction { line: 0, state: Mesi::Modified });
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = tiny();
        fill(&mut c, 6, Mesi::Exclusive);
        assert_eq!(c.invalidate(6), Some(Mesi::Exclusive));
        assert_eq!(c.invalidate(6), None);
        assert!(!c.contains(6));
    }

    #[test]
    fn set_state_on_missing_line_is_none() {
        let mut c = tiny();
        assert_eq!(c.set_state(1, Mesi::Shared), None);
        fill(&mut c, 1, Mesi::Exclusive);
        assert_eq!(c.set_state(1, Mesi::Shared), Some(Mesi::Exclusive));
        assert_eq!(c.state_of(1), Some(Mesi::Shared));
    }

    #[test]
    fn flush_empties_cache() {
        let mut c = tiny();
        fill(&mut c, 0, Mesi::Shared);
        fill(&mut c, 1, Mesi::Shared);
        c.flush();
        assert_eq!(c.resident(), 0);
    }

    #[test]
    fn different_sets_do_not_conflict() {
        let mut c = tiny();
        // Lines 0,2 → set 0; lines 1,3 → set 1.
        fill(&mut c, 0, Mesi::Shared);
        fill(&mut c, 2, Mesi::Shared);
        fill(&mut c, 1, Mesi::Shared);
        fill(&mut c, 3, Mesi::Shared);
        assert_eq!(c.resident(), 4);
    }

    #[test]
    fn hierarchy_inclusive_queries() {
        let mut h = CacheHierarchy::new(&CacheConfig::paper_default());
        fill(&mut h.l3, 100, Mesi::Exclusive);
        fill(&mut h.l2, 100, Mesi::Exclusive);
        fill(&mut h.l1d, 100, Mesi::Exclusive);
        assert!(h.contains(100));
        assert!(h.in_upper_levels(100));
        assert!(h.back_invalidate_upper(100));
        assert!(!h.in_upper_levels(100));
        assert!(!h.back_invalidate_upper(100), "no copy left to drop");
        assert!(h.contains(100), "back-invalidation keeps the L3 copy");
        assert_eq!(h.invalidate(100), Some(Mesi::Exclusive));
        assert!(!h.contains(100));
    }

    /// Every observable of [`Cache`] — hit/miss, every eviction,
    /// per-set residency and MESI state — against independent models:
    /// the exact-LRU cache of [`crate::reference`] for replacement and
    /// residency, and a plain map for coherence state. A seeded random
    /// op mix drives every mutating entry point (including the fused
    /// probe/fill pair and the absent-line fill) over a line universe
    /// larger than the cache, so hits, conflicts, evictions and refills
    /// of invalidated ways all occur at every associativity from 1 to
    /// [`MAX_CACHE_WAYS`] — every count of padding lanes, which must
    /// stay empty.
    #[test]
    fn matches_exact_lru_reference_on_random_ops() {
        use crate::reference::PlruCache;
        use std::collections::BTreeMap;
        use stramash_sim::rng::SimRng;

        for ways in 1..=MAX_CACHE_WAYS {
            let sets = if ways <= 4 {
                16u64
            } else if ways <= 8 {
                8
            } else {
                4
            };
            let geo = CacheGeometry::new(sets * u64::from(ways) * 64, ways, 64);
            let mut c = Cache::new(geo);
            let mut r = PlruCache::new_lru(geo);
            let mut mesi: BTreeMap<u64, Mesi> = BTreeMap::new();
            let mut rng = SimRng::new(0x5eed_0000 + u64::from(ways));
            let universe = sets * u64::from(ways) * 3 / 2;
            for step in 0..20_000u32 {
                let ctx = format!("{ways}-way, step {step}");
                if step % 997 == 0 {
                    // Every reachable state survives a checkpoint.
                    assert_eq!(restore_forged(c.clone(), |_| {}), Ok(()), "{ctx}");
                }
                let line = rng.gen_range(universe);
                let state =
                    [Mesi::Modified, Mesi::Exclusive, Mesi::Shared][rng.gen_range(3) as usize];
                match rng.gen_range(1000) {
                    0..=249 => {
                        let got = c.probe(line);
                        assert_eq!(got.is_some(), r.probe(line), "probe hit/miss, {ctx}");
                        assert_eq!(got, mesi.get(&line).copied(), "probe state, {ctx}");
                    }
                    250..=349 => match c.probe_slot(line) {
                        Some(slot) => {
                            assert!(r.probe(line), "probe_slot hit, {ctx}");
                            assert_eq!(c.state_at(slot), mesi[&line], "slot state, {ctx}");
                            c.set_state_at(slot, state);
                            mesi.insert(line, state);
                        }
                        None => assert!(!r.probe(line), "probe_slot miss, {ctx}"),
                    },
                    350..=549 => match c.probe_or_plan(line) {
                        ProbeFill::Hit(slot) => {
                            assert!(r.probe(line), "planned hit, {ctx}");
                            assert_eq!(c.state_at(slot), mesi[&line], "planned slot state, {ctx}");
                        }
                        ProbeFill::Miss(plan) => {
                            assert!(!r.probe(line), "planned miss, {ctx}");
                            let ev = c.fill_planned(plan, line, state);
                            assert_eq!(
                                ev.map(|e| e.line),
                                r.insert(line),
                                "planned eviction, {ctx}"
                            );
                            if let Some(e) = ev {
                                assert!(!c.contains(e.line), "planned fill kept the victim, {ctx}");
                                assert_eq!(
                                    Some(e.state),
                                    mesi.remove(&e.line),
                                    "victim state, {ctx}"
                                );
                            }
                            mesi.insert(line, state);
                        }
                    },
                    550..=749 => {
                        let ev = if mesi.contains_key(&line) {
                            fill(&mut c, line, state)
                        } else {
                            c.fill_planned(c.plan_fill(line), line, state)
                        };
                        assert_eq!(ev.map(|e| e.line), r.insert(line), "eviction, {ctx}");
                        if let Some(e) = ev {
                            assert_eq!(Some(e.state), mesi.remove(&e.line), "evicted state, {ctx}");
                        }
                        mesi.insert(line, state);
                    }
                    750..=849 => {
                        assert_eq!(c.invalidate(line), mesi.remove(&line), "invalidate, {ctx}");
                        r.invalidate(line);
                    }
                    850..=998 => {
                        assert_eq!(c.state_of(line), mesi.get(&line).copied(), "state_of, {ctx}");
                        let old = c.set_state(line, state);
                        assert_eq!(old, mesi.get(&line).copied(), "set_state, {ctx}");
                        if old.is_some() {
                            mesi.insert(line, state);
                        }
                    }
                    _ => {
                        c.flush();
                        r = PlruCache::new_lru(geo);
                        mesi.clear();
                    }
                }
                let set = (line % sets) as usize;
                let (real, padding) = c.tags[set].0.split_at(ways as usize);
                assert!(padding.iter().all(|&t| t == EMPTY), "set {set} padding, {ctx}");
                let mut got: Vec<u64> =
                    real.iter().filter(|&&t| t != EMPTY).map(|&t| u64::from(t)).collect();
                got.sort_unstable();
                assert_eq!(got, r.set_lines(set), "set {set} residency, {ctx}");
                assert_eq!(c.resident(), mesi.len(), "resident count, {ctx}");
            }
            let mut got: Vec<(u64, Mesi)> = c.lines().collect();
            got.sort_unstable_by_key(|&(l, _)| l);
            let mut want: Vec<(u64, Mesi)> = mesi.into_iter().collect();
            want.sort_unstable_by_key(|&(l, _)| l);
            assert_eq!(got, want, "{ways}-way: final contents and states");
        }
    }

    /// Saves `c`, lets `forge` edit the cache it was saved from, and
    /// restores the forged section into a fresh cache.
    fn restore_forged(
        mut c: Cache,
        forge: impl FnOnce(&mut Cache),
    ) -> Result<(), stramash_sim::checkpoint::CheckpointError> {
        use stramash_sim::checkpoint::{Decoder, Encoder};
        forge(&mut c);
        let mut e = Encoder::new();
        c.save_state(&mut e);
        let bytes = e.into_bytes();
        Cache::new(*c.geometry()).load_state(&mut Decoder::new(&bytes))
    }

    fn two_lines() -> Cache {
        let mut c = tiny();
        fill(&mut c, 0, Mesi::Shared);
        fill(&mut c, 2, Mesi::Modified);
        c
    }

    #[test]
    fn checkpoint_round_trips_a_valid_cache() {
        assert_eq!(restore_forged(two_lines(), |_| {}), Ok(()));
    }

    #[test]
    fn checkpoint_rejects_a_line_held_twice() {
        use stramash_sim::checkpoint::CheckpointError;
        let got = restore_forged(two_lines(), |c| c.tags[0].0[1] = c.tags[0].0[0]);
        assert_eq!(got, Err(CheckpointError::Malformed("cache line in two ways")));
    }

    #[test]
    fn checkpoint_rejects_a_line_in_the_wrong_set() {
        use stramash_sim::checkpoint::CheckpointError;
        // Line 3 maps to set 1; ways 0 and 1 are set 0's.
        let got = restore_forged(two_lines(), |c| c.tags[0].0[1] = 3);
        assert_eq!(got, Err(CheckpointError::Malformed("cache line in the wrong set")));
    }

    #[test]
    fn checkpoint_rejects_an_lru_order_that_is_not_a_permutation() {
        use stramash_sim::checkpoint::CheckpointError;
        // Rank 1 names way 0 again: way 1 has no rank.
        let dup = restore_forged(two_lines(), |c| c.perms[0] = 0x00);
        assert_eq!(dup, Err(CheckpointError::Malformed("cache LRU order")));
        // Rank 0 names way 2 of a 2-way set.
        let wide = restore_forged(two_lines(), |c| c.perms[1] = 0x02);
        assert_eq!(wide, Err(CheckpointError::Malformed("cache LRU order")));
    }

    #[test]
    fn checkpoint_rejects_an_empty_way_ranked_above_a_resident_one() {
        use stramash_sim::checkpoint::CheckpointError;
        let mut c = tiny();
        fill(&mut c, 0, Mesi::Shared);
        // Set 0 holds line 0 in way 0 and nothing in way 1; swap their
        // ranks so the empty way is MRU.
        let got = restore_forged(c, |c| c.perms[0] = 0x01);
        assert_eq!(got, Err(CheckpointError::Malformed("cache empty way above a resident one")));
    }

    #[test]
    fn hierarchy_flush() {
        let mut h = CacheHierarchy::new(&CacheConfig::paper_default());
        fill(&mut h.l3, 5, Mesi::Shared);
        h.flush();
        assert!(!h.contains(5));
    }

    /// A small cache of `ways` ways, partly filled by a fixed mix of
    /// planned fills, re-hits and invalidations, so its section holds
    /// resident and empty ways, stale states and shuffled LRU orders.
    fn partly_filled(ways: u32) -> Cache {
        let sets = 4u64;
        let mut c = Cache::new(CacheGeometry::new(sets * u64::from(ways) * 64, ways, 64));
        let universe = sets * u64::from(ways);
        for i in 0..universe * 2 {
            let line = 0x0123_4500 + (i * 7) % universe;
            let state = [Mesi::Modified, Mesi::Exclusive, Mesi::Shared][(i % 3) as usize];
            if let ProbeFill::Miss(plan) = c.probe_or_plan(line) {
                c.fill_planned(plan, line, state);
            }
            if i % 3 == 0 {
                c.invalidate(0x0123_4500 + (i * 5) % universe);
            }
        }
        c
    }

    /// The `CCHE` section of a 2-, 8- and 16-way cache, pinned by an
    /// FNV-1a hash of its bytes: the on-disk format is one `u64` tag
    /// per real way (`u64::MAX` when empty), whatever the in-memory
    /// layout pads a set to.
    #[test]
    fn checkpoint_bytes_are_pinned() {
        use stramash_sim::checkpoint::Encoder;
        for (ways, pinned) in [
            (2u32, 0xfeee_ccc8_0d6f_dbe0u64),
            (8, 0x79d8_a178_4c0d_8f4c),
            (16, 0xf94e_9f3c_0768_98e6),
        ] {
            let c = partly_filled(ways);
            assert!(c.resident() > 0 && c.resident() < 4 * ways as usize, "{ways}-way fill");
            let mut e = Encoder::new();
            c.save_state(&mut e);
            let hash = e.into_bytes().iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
                (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
            });
            assert_eq!(hash, pinned, "{ways}-way checkpoint bytes");
        }
    }

    /// Restores a hand-encoded `CCHE` section of `tags` (one per real
    /// way, `u64::MAX` when empty) into a fresh [`tiny`] cache, every
    /// way `Shared` and every set in identity LRU order.
    fn restore_wire(tags: [u64; 4]) -> Result<(), stramash_sim::checkpoint::CheckpointError> {
        use stramash_sim::checkpoint::{Decoder, Encoder};
        let mut e = Encoder::new();
        e.tag(0x4343_4845);
        e.u64s(&tags);
        e.bytes(&[mesi_code(Mesi::Shared); 4]);
        e.u64s(&[PERM_IDENTITY; 2]);
        let bytes = e.into_bytes();
        tiny().load_state(&mut Decoder::new(&bytes))
    }

    #[test]
    fn checkpoint_rejects_a_tag_wider_than_32_bits() {
        use stramash_sim::checkpoint::CheckpointError;
        let wide = Err(CheckpointError::Malformed("cache tag wider than 32 bits"));
        // `u32::MAX` is the in-memory empty tag, so no line may use it.
        assert_eq!(restore_wire([u64::MAX, u64::MAX, u64::from(u32::MAX), u64::MAX]), wide);
        assert_eq!(restore_wire([1 << 32, u64::MAX, u64::MAX, u64::MAX]), wide);
        assert_eq!(restore_wire([u64::from(u32::MAX) - 1, u64::MAX, 1, u64::MAX]), Ok(()));
    }

    /// The SSE2 lane match against the scalar oracle, bit for bit, on
    /// seeded random sets (on other targets the two are one function).
    /// Tags come from a small alphabet plus the full `u32` range, so no
    /// match, one match, several matches and several [`EMPTY`] lanes
    /// all occur, with the unused lanes left as padding.
    #[test]
    fn lane_match_equals_scalar_match_on_random_sets() {
        use stramash_sim::rng::SimRng;
        let mut rng = SimRng::new(0x1a4e_5eed);
        let mut seen = [0u32; 3]; // sets with no, one and several matches
        for _ in 0..50_000 {
            let ways = 1 + rng.gen_range(u64::from(MAX_CACHE_WAYS)) as usize;
            let mut set = EMPTY_SET;
            for lane in &mut set.0[..ways] {
                *lane = match rng.gen_range(4) {
                    0 => EMPTY,
                    1 => rng.next_u64() as u32,
                    _ => rng.gen_range(6) as u32,
                };
            }
            let tag = match rng.gen_range(4) {
                0 => EMPTY,
                1 => set.0[rng.gen_range(ways as u64) as usize],
                2 => rng.next_u64() as u32,
                _ => rng.gen_range(6) as u32,
            };
            let got = match_lanes(&set, tag);
            assert_eq!(got, match_lanes_scalar(&set, tag), "{ways}-way set {set:?}, tag {tag:#x}");
            seen[got.count_ones().min(2) as usize] += 1;
        }
        assert!(seen.iter().all(|&n| n > 1000), "match counts {seen:?}");
    }

    /// The [`EMPTY`] search masked to a level's real ways, at every
    /// associativity and for every pattern of empty ways up to 8 wide
    /// (then a seeded sample): the empty real ways, never a padding lane.
    #[test]
    fn empty_search_masked_to_real_ways_skips_padding() {
        use stramash_sim::rng::SimRng;
        let mut rng = SimRng::new(0xe3_5eed);
        for ways in 1..=MAX_CACHE_WAYS {
            let c = Cache::new(CacheGeometry::new(u64::from(ways) * 64, ways, 64));
            let patterns: Vec<u32> = if ways <= 8 {
                (0..1u32 << ways).collect()
            } else {
                (0..512).map(|_| rng.gen_range(1 << ways) as u32).collect()
            };
            for empties in patterns {
                let mut set = EMPTY_SET;
                for way in (0..ways as usize).filter(|w| empties & 1 << w == 0) {
                    set.0[way] = way as u32;
                }
                let got = match_lanes(&set, EMPTY) & c.way_bits;
                assert_eq!(got, match_lanes_scalar(&set, EMPTY) & c.way_bits, "{ways}-way");
                assert_eq!(got, empties, "{ways}-way set, empty ways {empties:#b}");
            }
        }
    }
}
