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

/// Tag of an empty way.
const EMPTY: u64 = u64::MAX;

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
/// Structure-of-arrays layout: power-of-two set masking, packed tags
/// per set, a packed-nibble LRU permutation per set, an MRU-first way
/// check and an L0 "same line again" short circuit. Exact LRU — the
/// unit tests hold every observable (hits, evictions, per-set
/// residency, MESI state) against the independently written exact-LRU
/// cache in [`crate::reference`].
#[derive(Debug, Clone)]
pub struct Cache {
    geo: CacheGeometry,
    /// `set count - 1`; valid because set counts are power-of-two
    /// (enforced by `SimConfig::validate` / `CacheGeometry::new`).
    set_mask: u64,
    /// Each way's line address (`addr / line_bytes`, [`EMPTY`] when
    /// free), densely packed so a set's tags share one host cache line
    /// and the match scan vectorises.
    tags: Vec<u64>,
    /// Each way's coherence state: full MESI at the L3, the
    /// write-ownership bit (`Modified` vs `Shared`) at the L1D and L2.
    states: Vec<Mesi>,
    /// Per-set LRU order, packed 4 bits per way: nibble `r` holds the
    /// way index at recency rank `r` (0 = MRU, `ways-1` = LRU/victim).
    /// Every touch is a move-to-front register permutation update.
    perms: Vec<u64>,
    /// Per-set resident-way count. Full sets — the steady state — skip
    /// empty-way tracking in the miss scans entirely.
    occ: Vec<u8>,
    /// L0 hint: the line of the last probe hit and the slot/set it
    /// lives in. Self-validating — the tag is re-checked before use, so
    /// no invalidation bookkeeping is needed on eviction.
    last_line: u64,
    last_slot: usize,
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
fn perm_promote(perm: u64, way: usize) -> u64 {
    let way = way as u64;
    perm_promote_at(perm, way, perm_find(perm, way))
}

/// Scans a set's ways in LRU-recency order, starting at rank 1 (the
/// caller has already checked the MRU way). On a hit, returns the way
/// index and its bit offset in the permutation, so the promote needs
/// no find. Hit/miss and the found slot are identical to a slot-order
/// scan — a line is resident in at most one way — but temporal
/// locality lands hits at the low ranks, where this order exits first.
#[inline]
fn scan_recency(
    tags: &[u64],
    base: usize,
    perm: u64,
    ways: usize,
    line: u64,
) -> Option<(usize, u32)> {
    let mut p = perm >> 4;
    for r in 1..ways as u32 {
        let w = (p & 0xF) as usize;
        if tags[base + w] == line {
            return Some((w, 4 * r));
        }
        p >>= 4;
    }
    None
}

/// Branchless presence test over one fixed-width set: `|`-accumulated
/// compares with no early exit, which the backend turns into SIMD
/// compares — a *miss* (the case that must scan everything anyway)
/// costs a couple of vector ops instead of `ways` compare-and-branch
/// iterations.
#[inline]
fn contain_fixed<const N: usize>(t: &[u64], line: u64) -> bool {
    let t: &[u64; N] = t.try_into().expect("slice length equals the way count");
    let mut hit = false;
    for &x in t {
        hit |= x == line;
    }
    hit
}

/// Presence test over a set's packed tags, specialised for the common
/// associativities so the compare chain vectorises.
#[inline]
fn tags_contain(t: &[u64], line: u64) -> bool {
    match t.len() {
        4 => contain_fixed::<4>(t, line),
        8 => contain_fixed::<8>(t, line),
        16 => contain_fixed::<16>(t, line),
        _ => t.contains(&line),
    }
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

/// Result of inserting a line into a level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Eviction {
    /// The evicted line address.
    pub line: u64,
    /// Its state at eviction (a `Modified` eviction implies a writeback).
    pub state: Mesi,
}

/// Result of [`Cache::probe_or_plan`]: either a hit (identical to
/// [`Cache::probe_slot`]) or a miss carrying the fill slot the insert
/// scan would choose, computed in the same pass.
#[derive(Debug, Clone, Copy)]
pub enum ProbeFill {
    /// The line is resident in this slot; LRU was refreshed. The slot
    /// stays valid until the set is next edited, so the caller can read
    /// or set its state ([`Cache::state_at`], [`Cache::set_state_at`])
    /// without another way scan.
    Hit(usize),
    /// The line is absent; `plan` pre-computes the fill.
    Miss(FillPlan),
}

/// A pre-computed fill decision for a line that just missed: the slot
/// [`Cache::insert`] would pick (first empty way, else the LRU way).
/// Only valid while the set is untouched between the probe and
/// [`Cache::fill_planned`] — the caller guarantees that (upper-level
/// fills on an L2/L3 hit; a full memory miss drops the plan because
/// inclusive back-invalidation may edit the set).
#[derive(Debug, Clone, Copy)]
pub struct FillPlan {
    /// Global way index to fill.
    slot: usize,
    /// The set index (for the MRU hint update).
    set: usize,
    /// The slot's current LRU rank, when the probe learned it (an LRU
    /// victim is at rank `ways-1`); `u32::MAX` when unknown (empty-way
    /// fills), in which case the fill falls back to the SWAR find.
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
        let slots = set_count as usize * geo.ways as usize;
        Cache {
            geo,
            set_mask: set_count - 1,
            tags: vec![EMPTY; slots],
            states: vec![Mesi::Shared; slots],
            perms: vec![PERM_IDENTITY; set_count as usize],
            occ: vec![0; set_count as usize],
            last_line: EMPTY,
            last_slot: 0,
        }
    }

    /// The geometry of this level.
    #[must_use]
    pub fn geometry(&self) -> &CacheGeometry {
        &self.geo
    }

    #[inline]
    fn set_range(&self, line: u64) -> std::ops::Range<usize> {
        let set = (line & self.set_mask) as usize;
        let ways = self.geo.ways as usize;
        set * ways..(set + 1) * ways
    }

    /// Probes for a line; on hit, refreshes LRU and returns its state.
    #[inline]
    pub fn probe(&mut self, line: u64) -> Option<Mesi> {
        self.probe_slot(line).map(|slot| self.states[slot])
    }

    /// Probes for a line; on hit, refreshes LRU and returns the slot it
    /// lives in (see [`ProbeFill::Hit`]). The one way walk behind every
    /// probe.
    #[inline]
    pub fn probe_slot(&mut self, line: u64) -> Option<usize> {
        // L0: the same line probed again. The tag re-check makes the
        // hint self-validating, so eviction needs no bookkeeping here.
        if line == self.last_line && line != EMPTY && self.tags[self.last_slot] == line {
            let set = (line & self.set_mask) as usize;
            let way = self.last_slot - set * self.geo.ways as usize;
            // Already-MRU promotes are the common case here and are
            // identity — skipping them keeps the L0 hit store-free.
            if (self.perms[set] & 0xF) as usize != way {
                self.perms[set] = perm_promote(self.perms[set], way);
            }
            return Some(self.last_slot);
        }
        let set = (line & self.set_mask) as usize;
        let ways = self.geo.ways as usize;
        let base = set * ways;
        let perm = self.perms[set];
        // MRU-first: the way that hit or filled last usually hits again
        // (and then the permutation needs no update at all).
        let mru_slot = base + (perm & 0xF) as usize;
        if self.tags[mru_slot] == line {
            self.last_line = line;
            self.last_slot = mru_slot;
            return Some(mru_slot);
        }
        // Rank-1 next: alternating two-line sets hit here every time,
        // with the promote offset known statically.
        let w1 = ((perm >> 4) & 0xF) as usize;
        if ways > 1 && self.tags[base + w1] == line {
            self.perms[set] = perm_promote_at(perm, w1 as u64, 4);
            // No hint update: the line is MRU now, so a repeat access
            // hits the MRU check (which sets the hint) — scan hits stay
            // store-light.
            return Some(base + w1);
        }
        if tags_contain(&self.tags[base..base + ways], line) {
            let (w, idx) = scan_recency(&self.tags, base, perm, ways, line)
                .expect("contained line is found by the recency scan");
            self.perms[set] = perm_promote_at(perm, w as u64, idx);
            return Some(base + w);
        }
        None
    }

    /// Probes for a line like [`Cache::probe_slot`], but on a miss also
    /// returns the fill slot the subsequent insert scan would choose —
    /// from the same set state, so the hot L1-miss/L2-hit pattern scans
    /// the set once instead of twice. Consuming the plan via
    /// [`Cache::fill_planned`] is state-identical to calling
    /// [`Cache::insert`] — provided the set is untouched in between,
    /// which the `MemorySystem` call sites guarantee.
    #[inline]
    pub fn probe_or_plan(&mut self, line: u64) -> ProbeFill {
        if let Some(slot) = self.probe_slot(line) {
            return ProbeFill::Hit(slot);
        }
        let set = (line & self.set_mask) as usize;
        let ways = self.geo.ways as usize;
        let base = set * ways;
        // The victim is the LRU rank of the packed permutation; its
        // rank rides along so the fill can promote without re-finding
        // the way. Full sets (the steady state, tracked in `occ`) skip
        // the empty-way search.
        let (slot, rank) = if self.occ[set] == ways as u8 {
            let last = self.geo.ways - 1;
            (base + perm_way_at(self.perms[set], last), last)
        } else {
            let first_empty = self.tags[base..base + ways]
                .iter()
                .position(|&t| t == EMPTY)
                .expect("occ < ways implies an empty way");
            (base + first_empty, u32::MAX)
        };
        ProbeFill::Miss(FillPlan { slot, set, rank })
    }

    /// Consumes a [`FillPlan`] from [`Cache::probe_or_plan`], filling
    /// the planned slot. Equivalent to `insert(line, state)` under the
    /// plan's validity condition (set untouched since the probe); the
    /// eviction, if any, is the one upper-level fills discard anyway.
    #[inline]
    pub fn fill_planned(&mut self, plan: FillPlan, line: u64, state: Mesi) {
        let way = (plan.slot - plan.set * self.geo.ways as usize) as u64;
        self.tags[plan.slot] = line;
        self.states[plan.slot] = state;
        let perm = self.perms[plan.set];
        let idx = if plan.rank != u32::MAX {
            4 * plan.rank
        } else {
            // An empty way was planned: it joins the residents.
            self.occ[plan.set] += 1;
            perm_find(perm, way)
        };
        self.perms[plan.set] = perm_promote_at(perm, way, idx);
    }

    /// Whether the line is present, without disturbing LRU.
    #[must_use]
    pub fn contains(&self, line: u64) -> bool {
        self.tags[self.set_range(line)].contains(&line)
    }

    /// The slot holding `line`, if resident, without disturbing LRU.
    #[inline]
    pub(crate) fn slot_of(&self, line: u64) -> Option<usize> {
        let range = self.set_range(line);
        let base = range.start;
        self.tags[range].iter().position(|&t| t == line).map(|i| base + i)
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

    /// Inserts a line (replacing LRU if the set is full), returning any
    /// eviction. If the line is already resident its state is updated.
    #[inline]
    pub fn insert(&mut self, line: u64, state: Mesi) -> Option<Eviction> {
        // One pass over the packed tags finds the matching way and the
        // first empty way; the victim is the permutation's LRU rank.
        let set = (line & self.set_mask) as usize;
        let ways = self.geo.ways as usize;
        let base = set * ways;
        let perm = self.perms[set];
        let mru_slot = base + (perm & 0xF) as usize;
        if self.tags[mru_slot] == line {
            self.states[mru_slot] = state;
            self.last_line = line;
            self.last_slot = mru_slot;
            return None;
        }
        if tags_contain(&self.tags[base..base + ways], line) {
            let (w, idx) = scan_recency(&self.tags, base, perm, ways, line)
                .expect("contained line is found by the recency scan");
            self.states[base + w] = state;
            self.perms[set] = perm_promote_at(perm, w as u64, idx);
            return None;
        }
        let (slot, evicted, idx) = if self.occ[set] == ways as u8 {
            let last = self.geo.ways - 1;
            let slot = base + perm_way_at(perm, last);
            let ev = Eviction { line: self.tags[slot], state: self.states[slot] };
            (slot, Some(ev), 4 * last)
        } else {
            let first_empty = self.tags[base..base + ways]
                .iter()
                .position(|&t| t == EMPTY)
                .expect("occ < ways implies an empty way");
            self.occ[set] += 1;
            let way = first_empty as u64;
            (base + first_empty, None, perm_find(perm, way))
        };
        self.tags[slot] = line;
        self.states[slot] = state;
        self.perms[set] = perm_promote_at(perm, (slot - base) as u64, idx);
        evicted
    }

    /// Removes a line; returns its state if it was present.
    pub fn invalidate(&mut self, line: u64) -> Option<Mesi> {
        let slot = self.slot_of(line)?;
        let ways = self.geo.ways as usize;
        let set = slot / ways;
        self.tags[slot] = EMPTY;
        // The emptied way drops to the LRU rank.
        self.perms[set] = perm_demote(self.perms[set], slot - set * ways, self.geo.ways);
        self.occ[set] -= 1;
        Some(self.states[slot])
    }

    /// Drops every line (e.g. between experiment phases).
    pub fn flush(&mut self) {
        self.tags.fill(EMPTY);
        self.perms.fill(PERM_IDENTITY);
        self.occ.fill(0);
        self.last_line = EMPTY;
        self.last_slot = 0;
    }

    /// Number of resident lines (for tests and occupancy metrics).
    #[must_use]
    pub fn resident(&self) -> usize {
        self.tags.iter().filter(|&&t| t != EMPTY).count()
    }

    /// Serializes the mutable cache state into a checkpoint section:
    /// tags, states, LRU permutations, occupancy and the L0 hint.
    pub fn save_state(&self, e: &mut stramash_sim::checkpoint::Encoder) {
        e.tag(0x4343_4845); // "CCHE"
        e.u64s(&self.tags);
        let states: Vec<u8> = self.states.iter().map(|&s| mesi_code(s)).collect();
        e.bytes(&states);
        e.u64s(&self.perms);
        e.bytes(&self.occ);
        e.u64(self.last_line);
        e.u64(self.last_slot as u64);
    }

    /// Restores the cache from a checkpoint section taken on an
    /// identically-configured cache.
    ///
    /// # Errors
    ///
    /// Decoding errors, or [`CheckpointError::ConfigMismatch`] when the
    /// artifact's slot count does not match this cache's geometry.
    ///
    /// [`CheckpointError::ConfigMismatch`]: stramash_sim::checkpoint::CheckpointError::ConfigMismatch
    pub fn load_state(
        &mut self,
        d: &mut stramash_sim::checkpoint::Decoder<'_>,
    ) -> Result<(), stramash_sim::checkpoint::CheckpointError> {
        use stramash_sim::checkpoint::CheckpointError;
        d.tag(0x4343_4845)?;
        let tags = d.u64s()?;
        if tags.len() != self.tags.len() {
            return Err(CheckpointError::ConfigMismatch);
        }
        self.tags = tags;
        let states = d.bytes()?;
        if states.len() != self.states.len() {
            return Err(CheckpointError::ConfigMismatch);
        }
        for (dst, &b) in self.states.iter_mut().zip(states) {
            *dst = mesi_from_code(b)?;
        }
        let perms = d.u64s()?;
        if perms.len() != self.perms.len() {
            return Err(CheckpointError::ConfigMismatch);
        }
        self.perms = perms;
        let occ = d.bytes()?;
        if occ.len() != self.occ.len() {
            return Err(CheckpointError::ConfigMismatch);
        }
        self.occ.copy_from_slice(occ);
        self.last_line = d.u64()?;
        self.last_slot = d.u64()? as usize;
        if self.last_slot >= self.tags.len() && self.last_line != EMPTY {
            return Err(CheckpointError::Malformed("cache MRU hint slot"));
        }
        self.last_slot = self.last_slot.min(self.tags.len().saturating_sub(1));
        Ok(())
    }

    /// Iterates every resident line with its state, without disturbing
    /// LRU. Used by the coherence auditor.
    pub fn lines(&self) -> impl Iterator<Item = (u64, Mesi)> + '_ {
        self.tags
            .iter()
            .zip(&self.states)
            .filter(|(&line, _)| line != EMPTY)
            .map(|(&line, &state)| (line, state))
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

    /// Whether a line is present in a level above the L3 (used to price
    /// back-invalidations on inclusive evictions).
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

    /// Drops the line from the upper levels only (back-invalidation).
    pub fn back_invalidate_upper(&mut self, line: u64) {
        self.l1i.invalidate(line);
        self.l1d.invalidate(line);
        self.l2.invalidate(line);
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

    #[test]
    fn miss_then_hit() {
        let mut c = tiny();
        assert_eq!(c.probe(10), None);
        assert_eq!(c.insert(10, Mesi::Exclusive), None);
        assert_eq!(c.probe(10), Some(Mesi::Exclusive));
        assert!(c.contains(10));
        assert_eq!(c.resident(), 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // Lines 0, 2, 4 map to set 0 (2 sets → even lines share set 0).
        c.insert(0, Mesi::Shared);
        c.insert(2, Mesi::Shared);
        c.probe(0); // refresh 0, so 2 is LRU
        let ev = c.insert(4, Mesi::Shared).expect("set full, must evict");
        assert_eq!(ev.line, 2);
        assert!(c.contains(0));
        assert!(c.contains(4));
        assert!(!c.contains(2));
    }

    #[test]
    fn insert_existing_updates_state_without_eviction() {
        let mut c = tiny();
        c.insert(8, Mesi::Shared);
        assert_eq!(c.insert(8, Mesi::Modified), None);
        assert_eq!(c.state_of(8), Some(Mesi::Modified));
        assert_eq!(c.resident(), 1);
    }

    #[test]
    fn eviction_reports_modified_state() {
        let mut c = tiny();
        c.insert(0, Mesi::Modified);
        c.insert(2, Mesi::Shared);
        c.probe(2);
        // Refresh 2; 0 is LRU and dirty.
        let ev = c.insert(4, Mesi::Shared).unwrap();
        assert_eq!(ev, Eviction { line: 0, state: Mesi::Modified });
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = tiny();
        c.insert(6, Mesi::Exclusive);
        assert_eq!(c.invalidate(6), Some(Mesi::Exclusive));
        assert_eq!(c.invalidate(6), None);
        assert!(!c.contains(6));
    }

    #[test]
    fn set_state_on_missing_line_is_none() {
        let mut c = tiny();
        assert_eq!(c.set_state(1, Mesi::Shared), None);
        c.insert(1, Mesi::Exclusive);
        assert_eq!(c.set_state(1, Mesi::Shared), Some(Mesi::Exclusive));
        assert_eq!(c.state_of(1), Some(Mesi::Shared));
    }

    #[test]
    fn flush_empties_cache() {
        let mut c = tiny();
        c.insert(0, Mesi::Shared);
        c.insert(1, Mesi::Shared);
        c.flush();
        assert_eq!(c.resident(), 0);
    }

    #[test]
    fn different_sets_do_not_conflict() {
        let mut c = tiny();
        // Lines 0,2 → set 0; lines 1,3 → set 1.
        c.insert(0, Mesi::Shared);
        c.insert(2, Mesi::Shared);
        c.insert(1, Mesi::Shared);
        c.insert(3, Mesi::Shared);
        assert_eq!(c.resident(), 4);
    }

    #[test]
    fn hierarchy_inclusive_queries() {
        let mut h = CacheHierarchy::new(&CacheConfig::paper_default());
        h.l3.insert(100, Mesi::Exclusive);
        h.l2.insert(100, Mesi::Exclusive);
        h.l1d.insert(100, Mesi::Exclusive);
        assert!(h.contains(100));
        assert!(h.in_upper_levels(100));
        h.back_invalidate_upper(100);
        assert!(!h.in_upper_levels(100));
        assert!(h.contains(100), "back-invalidation keeps the L3 copy");
        assert_eq!(h.invalidate(100), Some(Mesi::Exclusive));
        assert!(!h.contains(100));
    }

    /// Every observable of [`Cache`] — hit/miss, every eviction,
    /// per-set residency and MESI state — against independent models:
    /// the exact-LRU cache of [`crate::reference`] for replacement and
    /// residency, and a plain map for coherence state. A seeded random
    /// op mix drives every mutating entry point (including the fused
    /// probe/fill pair) over a line universe larger than the cache, so
    /// hits, conflicts, evictions and refills of invalidated ways all
    /// occur at every tested associativity.
    #[test]
    fn matches_exact_lru_reference_on_random_ops() {
        use crate::reference::PlruCache;
        use std::collections::BTreeMap;
        use stramash_sim::rng::SimRng;

        for (ways, sets) in [(2u32, 16u64), (4, 16), (8, 8), (12, 4), (16, 4)] {
            let geo = CacheGeometry::new(sets * u64::from(ways) * 64, ways, 64);
            let mut c = Cache::new(geo);
            let mut r = PlruCache::new_lru(geo);
            let mut mesi: BTreeMap<u64, Mesi> = BTreeMap::new();
            let mut rng = SimRng::new(0x5eed_0000 + u64::from(ways));
            let universe = sets * u64::from(ways) * 3 / 2;
            for step in 0..20_000u32 {
                let ctx = format!("{ways}-way, step {step}");
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
                            c.fill_planned(plan, line, state);
                            if let Some(ev) = r.insert(line) {
                                assert!(!c.contains(ev), "planned fill kept the victim, {ctx}");
                                assert!(mesi.remove(&ev).is_some(), "victim was resident, {ctx}");
                            }
                            mesi.insert(line, state);
                        }
                    },
                    550..=749 => {
                        let ev = c.insert(line, state);
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
                let range = set * ways as usize..(set + 1) * ways as usize;
                let mut got: Vec<u64> =
                    c.tags[range].iter().copied().filter(|&t| t != EMPTY).collect();
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

    #[test]
    fn hierarchy_flush() {
        let mut h = CacheHierarchy::new(&CacheConfig::paper_default());
        h.l3.insert(5, Mesi::Shared);
        h.flush();
        assert!(!h.contains(5));
    }
}
