//! An independent reference memory-system model.
//!
//! The paper validates its cache plugin against the gem5 Ruby *MESI
//! Three Level* model (§9.1.3, Figure 8) and its icount timing against
//! native `perf` on real machines (§9.1.2, Figure 7). Neither gem5 nor
//! the Table 1 hardware is available here, so the reproduction preserves
//! the *methodology*: this module is a second, independently structured
//! simulator that the validation benches compare against the primary
//! [`crate::MemorySystem`] on identical access traces.
//!
//! Deliberate structural differences (mirroring how gem5 Ruby differs
//! from the QEMU plugin):
//!
//! * **tree pseudo-LRU** replacement instead of exact LRU,
//! * a **directory-based** MESI protocol with explicit sharer sets
//!   instead of peer-cache probing,
//! * a timing model with memory-level-parallelism overlap (a fraction of
//!   DRAM latency is hidden) and per-level pipeline bubbles.
//!
//! The two models therefore agree closely but not exactly — the benches
//! check the same error bounds the paper reports (< 5 % per-level hit
//! rate discrepancy; < 13 % cycle error, ≈ 4 % on average).
//!
//! The exact-LRU mode of the reference cache is also the oracle for the
//! primary [`crate::cache::Cache`]: written as plain stamp scans with a
//! modulo set index, it shares no code with the packed-permutation
//! cache, and the cache's unit tests require identical hits, evictions
//! and per-set residency on random op mixes.

use crate::hwmodel::{AddressMap, MemClass};
use crate::phys::{PhysAddr, PhysLayout};
use crate::system::{Access, AccessKind};
// The oracle's line directory keeps `std`'s map on purpose: sharing no
// data structure with the production path is what makes it independent.
#[allow(clippy::disallowed_types)]
use std::collections::HashMap;
use stramash_sim::config::CacheGeometry;
use stramash_sim::{Cycles, DomainId, DomainStats, SimConfig};

/// A set-associative cache with tree pseudo-LRU replacement (or exact
/// LRU when `exact_lru` is set — gem5's MESI\_Three\_Level manages its
/// LLC with LRU, so the reference L3 matches that configuration while
/// the upper levels keep PLRU).
#[derive(Debug, Clone)]
pub(crate) struct PlruCache {
    geo: CacheGeometry,
    sets: u64,
    /// `tags[set * ways + way]`; `u64::MAX` = empty.
    tags: Vec<u64>,
    /// One PLRU tree bitmask per set (supports up to 64 ways).
    plru: Vec<u64>,
    /// Exact-LRU mode: timestamps per way.
    exact_lru: bool,
    stamps: Vec<u64>,
    tick: u64,
}

const EMPTY: u64 = u64::MAX;

impl PlruCache {
    fn new(geo: CacheGeometry) -> Self {
        Self::with_policy(geo, false)
    }

    pub(crate) fn new_lru(geo: CacheGeometry) -> Self {
        Self::with_policy(geo, true)
    }

    fn with_policy(geo: CacheGeometry, exact_lru: bool) -> Self {
        let sets = geo.sets();
        let slots = (sets * geo.ways as u64) as usize;
        PlruCache {
            geo,
            sets,
            tags: vec![EMPTY; slots],
            plru: vec![0; sets as usize],
            exact_lru,
            stamps: vec![0; slots],
            tick: 0,
        }
    }

    fn base(&self, line: u64) -> usize {
        ((line % self.sets) * self.geo.ways as u64) as usize
    }

    /// Walks the PLRU tree bits to pick a victim way.
    fn plru_victim(&self, set: usize) -> usize {
        let ways = self.geo.ways as usize;
        let bits = self.plru[set];
        let mut node = 0usize; // heap-style tree over `ways` leaves
        let mut lo = 0usize;
        let mut hi = ways;
        while hi - lo > 1 {
            let right = (bits >> node) & 1 == 1;
            let mid = lo + (hi - lo) / 2;
            if right {
                lo = mid;
            } else {
                hi = mid;
            }
            node = 2 * node + 1 + usize::from(right);
        }
        lo
    }

    /// Flips the tree bits along the path to `way` so it is protected.
    fn plru_touch(&mut self, set: usize, way: usize) {
        let ways = self.geo.ways as usize;
        let mut node = 0usize;
        let mut lo = 0usize;
        let mut hi = ways;
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            let right = way >= mid;
            // Point the bit *away* from the touched half.
            if right {
                self.plru[set] &= !(1 << node);
                lo = mid;
            } else {
                self.plru[set] |= 1 << node;
                hi = mid;
            }
            node = 2 * node + 1 + usize::from(right);
        }
    }

    /// Probe; on hit, protect the way. Returns hit.
    pub(crate) fn probe(&mut self, line: u64) -> bool {
        let base = self.base(line);
        let ways = self.geo.ways as usize;
        let set = (line % self.sets) as usize;
        self.tick += 1;
        for w in 0..ways {
            if self.tags[base + w] == line {
                self.plru_touch(set, w);
                self.stamps[base + w] = self.tick;
                return true;
            }
        }
        false
    }

    #[cfg(test)]
    pub(crate) fn contains(&self, line: u64) -> bool {
        let base = self.base(line);
        (0..self.geo.ways as usize).any(|w| self.tags[base + w] == line)
    }

    /// The lines resident in `set`, sorted.
    #[cfg(test)]
    pub(crate) fn set_lines(&self, set: usize) -> Vec<u64> {
        let ways = self.geo.ways as usize;
        let tags = &self.tags[set * ways..(set + 1) * ways];
        let mut lines: Vec<u64> = tags.iter().copied().filter(|&t| t != EMPTY).collect();
        lines.sort_unstable();
        lines
    }

    /// Insert; returns the evicted line, if any.
    pub(crate) fn insert(&mut self, line: u64) -> Option<u64> {
        let base = self.base(line);
        let ways = self.geo.ways as usize;
        let set = (line % self.sets) as usize;
        self.tick += 1;
        for w in 0..ways {
            if self.tags[base + w] == line {
                self.plru_touch(set, w);
                self.stamps[base + w] = self.tick;
                return None;
            }
        }
        for w in 0..ways {
            if self.tags[base + w] == EMPTY {
                self.tags[base + w] = line;
                self.plru_touch(set, w);
                self.stamps[base + w] = self.tick;
                return None;
            }
        }
        let victim = if self.exact_lru {
            (0..ways).min_by_key(|&w| self.stamps[base + w]).expect("ways > 0")
        } else {
            self.plru_victim(set)
        };
        let evicted = self.tags[base + victim];
        self.tags[base + victim] = line;
        self.plru_touch(set, victim);
        self.stamps[base + victim] = self.tick;
        Some(evicted)
    }

    pub(crate) fn invalidate(&mut self, line: u64) {
        let base = self.base(line);
        for w in 0..self.geo.ways as usize {
            if self.tags[base + w] == line {
                self.tags[base + w] = EMPTY;
            }
        }
    }
}

/// Directory entry for one line: which domains share it and who owns a
/// dirty copy.
#[derive(Debug, Clone, Copy, Default)]
struct DirEntry {
    sharers: u8,
    dirty_owner: Option<DomainId>,
}

/// The reference (gem5-Ruby-style) memory system.
#[derive(Debug)]
#[allow(clippy::disallowed_types)] // independent oracle, see the import
pub struct ReferenceSystem {
    cfg: SimConfig,
    map: AddressMap,
    l1i: [PlruCache; 2],
    l1d: [PlruCache; 2],
    l2: [PlruCache; 2],
    l3: [PlruCache; 2],
    directory: HashMap<u64, DirEntry>,
    stats: [DomainStats; 2],
    cycles: [Cycles; 2],
    line_bytes: u64,
    /// Fraction of DRAM latency hidden by memory-level parallelism.
    mlp_hidden: f64,
}

impl ReferenceSystem {
    /// Builds the reference model with the same geometry as the primary
    /// simulator would use for `cfg`.
    #[must_use]
    #[allow(clippy::disallowed_types)] // independent oracle, see the import
    pub fn new(cfg: SimConfig) -> Self {
        let mk = |g: CacheGeometry| PlruCache::new(g);
        let line_bytes = cfg.domains[0].cache.line_bytes() as u64;
        let map = AddressMap::new(PhysLayout::paper_default(), cfg.hw_model);
        ReferenceSystem {
            l1i: [mk(cfg.domains[0].cache.l1i), mk(cfg.domains[1].cache.l1i)],
            l1d: [mk(cfg.domains[0].cache.l1d), mk(cfg.domains[1].cache.l1d)],
            l2: [mk(cfg.domains[0].cache.l2), mk(cfg.domains[1].cache.l2)],
            l3: [
                PlruCache::new_lru(cfg.domains[0].cache.l3),
                PlruCache::new_lru(cfg.domains[1].cache.l3),
            ],
            directory: HashMap::new(),
            stats: [DomainStats::new(), DomainStats::new()],
            cycles: [Cycles::ZERO, Cycles::ZERO],
            map,
            line_bytes,
            mlp_hidden: 0.08,
            cfg,
        }
    }

    /// Statistics of `domain`.
    #[must_use]
    pub fn stats(&self, domain: DomainId) -> &DomainStats {
        &self.stats[domain.index()]
    }

    /// Accumulated model time of `domain`.
    #[must_use]
    pub fn cycles(&self, domain: DomainId) -> Cycles {
        self.cycles[domain.index()]
    }

    /// Runs one access through the reference model.
    pub fn access(&mut self, domain: DomainId, addr: PhysAddr, access: Access, kind: AccessKind) {
        let di = domain.index();
        let line = addr.line(self.line_bytes);
        let lat = self.cfg.domains[di].latency;
        let is_write = access == Access::Write;
        if kind == AccessKind::Data {
            self.stats[di].mem_accesses += 1;
        }

        let l1 = match kind {
            AccessKind::Data => &mut self.l1d[di],
            AccessKind::Instruction => &mut self.l1i[di],
        };
        let l1_hit = l1.probe(line);
        match kind {
            AccessKind::Data => self.stats[di].l1d.record(l1_hit),
            AccessKind::Instruction => self.stats[di].l1i.record(l1_hit),
        }
        if l1_hit {
            self.cycles[di] += Cycles::new(lat.l1 as u64);
            if is_write {
                self.dir_write(domain, line);
            }
            return;
        }

        let l2_hit = self.l2[di].probe(line);
        self.stats[di].l2.record(l2_hit);
        if l2_hit {
            // +1 pipeline bubble vs the primary model.
            self.cycles[di] += Cycles::new(lat.l2 as u64 + 1);
            self.fill_l1(domain, line, kind);
            if is_write {
                self.dir_write(domain, line);
            }
            return;
        }

        let l3_hit = self.l3[di].probe(line);
        self.stats[di].l3.record(l3_hit);
        if l3_hit {
            self.cycles[di] += Cycles::new(lat.l3 as u64 + 2);
            // The L2 is non-inclusive (as in the primary model): its
            // evictions do not disturb the L1s.
            self.l2[di].insert(line);
            self.fill_l1(domain, line, kind);
            if is_write {
                self.dir_write(domain, line);
            }
            return;
        }

        // Full miss: directory transaction + DRAM with MLP overlap.
        let class = self.map.classify(domain, addr);
        match class {
            MemClass::Local => self.stats[di].local_mem_hits += 1,
            MemClass::Remote => self.stats[di].remote_mem_hits += 1,
            MemClass::RemoteShared => self.stats[di].remote_shared_mem_hits += 1,
        }
        let raw = self.map.dram_latency(&lat, class).raw() as f64;
        let mut cost = (raw * (1.0 - self.mlp_hidden)) as u64;

        let entry = self.directory.entry(line).or_default();
        let other_bit = 1u8 << domain.other().index();
        if entry.sharers & other_bit != 0 {
            if is_write {
                cost += self.cfg.cxl.snoop_invalidate as u64;
                entry.sharers &= !other_bit;
                entry.dirty_owner = None;
                self.stats[di].snoop_invalidations += 1;
                let oi = domain.other().index();
                self.l1d[oi].invalidate(line);
                self.l1i[oi].invalidate(line);
                self.l2[oi].invalidate(line);
                self.l3[oi].invalidate(line);
            } else {
                cost += self.cfg.cxl.snoop_data as u64;
                self.stats[di].snoop_data_hits += 1;
                if entry.dirty_owner == Some(domain.other()) {
                    entry.dirty_owner = None;
                }
            }
        }
        entry.sharers |= 1 << di;
        if is_write {
            entry.dirty_owner = Some(domain);
        }
        self.cycles[di] += Cycles::new(cost);

        if let Some(ev) = self.l3[di].insert(line) {
            self.l2[di].invalidate(ev);
            self.l1d[di].invalidate(ev);
            self.l1i[di].invalidate(ev);
            if let Some(e) = self.directory.get_mut(&ev) {
                e.sharers &= !(1 << di);
                if e.dirty_owner == Some(domain) {
                    // Writeback drain, with the same MLP overlap as
                    // demand traffic.
                    let wb = lat.mem as f64 / 2.0 * (1.0 - self.mlp_hidden);
                    self.cycles[di] += Cycles::new(wb as u64);
                    e.dirty_owner = None;
                }
            }
        }
        self.l2[di].insert(line);
        self.fill_l1(domain, line, kind);
    }

    fn fill_l1(&mut self, domain: DomainId, line: u64, kind: AccessKind) {
        let di = domain.index();
        match kind {
            AccessKind::Data => {
                self.l1d[di].insert(line);
            }
            AccessKind::Instruction => {
                self.l1i[di].insert(line);
            }
        }
    }

    /// Directory bookkeeping for a write that hit in-cache.
    fn dir_write(&mut self, domain: DomainId, line: u64) {
        let di = domain.index();
        let entry = self.directory.entry(line).or_default();
        let other_bit = 1u8 << domain.other().index();
        if entry.sharers & other_bit != 0 {
            entry.sharers &= !other_bit;
            self.cycles[di] += Cycles::new(self.cfg.cxl.snoop_invalidate as u64);
            self.stats[di].snoop_invalidations += 1;
            let oi = domain.other().index();
            self.l1d[oi].invalidate(line);
            self.l1i[oi].invalidate(line);
            self.l2[oi].invalidate(line);
            self.l3[oi].invalidate(line);
        }
        entry.dirty_owner = Some(domain);
        entry.sharers |= 1 << di;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::MemorySystem;
    use stramash_sim::rng::SimRng;
    use stramash_sim::HardwareModel;

    fn cfg() -> SimConfig {
        SimConfig::big_pair().with_hw_model(HardwareModel::Shared)
    }

    #[test]
    fn plru_cache_hits_after_insert() {
        let mut c = PlruCache::new(CacheGeometry::new(256, 2, 64));
        assert!(!c.probe(3));
        assert!(c.insert(3).is_none());
        assert!(c.probe(3));
        assert!(c.contains(3));
    }

    #[test]
    fn plru_eviction_from_full_set() {
        let mut c = PlruCache::new(CacheGeometry::new(256, 2, 64));
        // Set 0 holds even lines; fill with 0 and 2, then insert 4.
        c.insert(0);
        c.insert(2);
        let ev = c.insert(4).expect("full set must evict");
        assert!(ev == 0 || ev == 2);
        assert!(c.contains(4));
    }

    #[test]
    fn plru_victim_never_most_recently_used() {
        // Tree-PLRU only approximates LRU, but it must never evict the
        // most recently touched way.
        let mut c = PlruCache::new(CacheGeometry::new(512, 4, 64));
        for l in [0u64, 8, 16, 24] {
            c.insert(l); // all map to set 0 (8 sets)
        }
        c.probe(0);
        c.probe(8);
        c.probe(16);
        let ev = c.insert(32).unwrap();
        assert_ne!(ev, 16, "PLRU must protect the most recently used way");
        assert!(c.contains(32));
        // This exact-LRU divergence (PLRU picks way 0 here, LRU would
        // pick 24) is precisely why the reference model's hit rates
        // differ slightly from the primary model's — the Figure 8 gap.
        assert_eq!(ev, 0);
    }

    #[test]
    fn reference_counts_hit_levels() {
        let mut r = ReferenceSystem::new(cfg());
        let a = PhysAddr::new(0x10_0000);
        r.access(DomainId::X86, a, Access::Read, AccessKind::Data);
        r.access(DomainId::X86, a, Access::Read, AccessKind::Data);
        assert_eq!(r.stats(DomainId::X86).l1d.accesses, 2);
        assert_eq!(r.stats(DomainId::X86).l1d.hits, 1);
        assert!(r.cycles(DomainId::X86).raw() > 0);
    }

    #[test]
    fn reference_write_invalidates_peer() {
        let mut r = ReferenceSystem::new(cfg());
        let a = PhysAddr::new(0x1_4000_0000);
        r.access(DomainId::X86, a, Access::Read, AccessKind::Data);
        r.access(DomainId::ARM, a, Access::Write, AccessKind::Data);
        // x86 must re-miss now.
        r.access(DomainId::X86, a, Access::Read, AccessKind::Data);
        assert_eq!(r.stats(DomainId::X86).l1d.hits, 0);
        assert!(r.stats(DomainId::ARM).snoop_invalidations >= 1);
    }

    #[test]
    fn models_agree_on_random_trace_within_five_percent() {
        // The Figure 8 criterion, on a synthetic trace: per-level hit
        // rates of primary and reference models differ by < 5 points.
        let mut prim = MemorySystem::new(cfg()).unwrap();
        let mut refm = ReferenceSystem::new(cfg());
        let mut rng = SimRng::new(42);
        // 64 KB working set with some locality: 80% of accesses to a hot
        // 8 KB region.
        for _ in 0..60_000 {
            let hot = rng.gen_range(100) < 80;
            let span = if hot { 8 << 10 } else { 64 << 10 };
            let addr = PhysAddr::new((0x10_0000 + rng.gen_range(span)) & !7);
            let acc = if rng.gen_range(100) < 30 { Access::Write } else { Access::Read };
            prim.access(DomainId::X86, addr, acc, AccessKind::Data);
            refm.access(DomainId::X86, addr, acc, AccessKind::Data);
        }
        let p = prim.stats(DomainId::X86);
        let r = refm.stats(DomainId::X86);
        assert!((p.l1d.hit_rate() - r.l1d.hit_rate()).abs() < 0.05);
        assert!((p.l2.hit_rate() - r.l2.hit_rate()).abs() < 0.05);
        assert!((p.l3.hit_rate() - r.l3.hit_rate()).abs() < 0.05);
    }
}
