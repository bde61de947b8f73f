//! The fused memory system: both domains' cache hierarchies over one
//! coherent physical memory, with CXL snoop accounting.
//!
//! This is the reproduction's equivalent of Stramash-QEMU's shared guest
//! memory (§7.1) plus the cache plugin's timing feedback (§7.3, §8.1):
//! every access probes the issuing domain's hierarchy; on a miss the DRAM
//! latency depends on the address's [`MemClass`] under the configured
//! hardware model, and if the *other* domain caches the line the
//! appropriate MESI transition and CXL snoop overhead are applied.

use crate::cache::{Cache, CacheHierarchy, FillPlan, Mesi, ProbeFill};
use crate::hwmodel::{AddressMap, MemClass};
use crate::phys::{PhysAddr, PhysLayout, SparseMemory};
use stramash_sim::config::ConfigError;
use stramash_sim::trace::{TraceEvent, TraceLevel, TraceMemClass, TraceMesi};
use stramash_sim::{Cycles, DomainId, DomainStats, HardwareModel, SharedTracer, SimConfig};

/// Maps a [`HitLevel`] to its trace-event counterpart.
fn trace_level(level: HitLevel) -> TraceLevel {
    match level {
        HitLevel::L1 => TraceLevel::L1,
        HitLevel::L2 => TraceLevel::L2,
        HitLevel::L3 => TraceLevel::L3,
        HitLevel::Memory => TraceLevel::Memory,
    }
}

/// Maps a [`MemClass`] to its trace-event counterpart.
fn trace_class(class: MemClass) -> TraceMemClass {
    match class {
        MemClass::Local => TraceMemClass::Local,
        MemClass::Remote => TraceMemClass::Remote,
        MemClass::RemoteShared => TraceMemClass::RemoteShared,
    }
}

/// Maps a cache [`Mesi`] state to its trace-event counterpart (the
/// cache model has no explicit Invalid state — absence is invalid).
fn trace_mesi(state: Mesi) -> TraceMesi {
    match state {
        Mesi::Modified => TraceMesi::Modified,
        Mesi::Exclusive => TraceMesi::Exclusive,
        Mesi::Shared => TraceMesi::Shared,
    }
}

/// Read or write.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Access {
    /// A load.
    Read,
    /// A store.
    Write,
}

/// Data access or instruction fetch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A data load/store (probes the L1D).
    Data,
    /// An instruction fetch (probes the L1I).
    Instruction,
}

/// Where an access was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HitLevel {
    /// L1 (I or D).
    L1,
    /// Unified L2.
    L2,
    /// Last-level cache.
    L3,
    /// Main memory (local, remote or remote-shared).
    Memory,
}

/// One recorded access (for trace-driven model validation — the
/// Figure 7/8 methodology replays identical traces through the primary
/// and reference simulators).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEntry {
    /// Issuing domain.
    pub domain: DomainId,
    /// Physical address.
    pub addr: PhysAddr,
    /// Read or write.
    pub access: Access,
    /// Data or instruction fetch.
    pub kind: AccessKind,
}

/// Outcome of a single timed access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Total latency charged.
    pub cycles: Cycles,
    /// The level that satisfied the access.
    pub level: HitLevel,
    /// For memory-level accesses, the DRAM class reached.
    pub class: Option<MemClass>,
    /// Whether a cross-domain snoop was involved.
    pub snooped: bool,
}

/// One journalled ECC fault: the XOR mask a fault injector applied to
/// the 64-bit word at `addr`. DRAM SEC-DED ECC corrects single-bit
/// flips and detects (but cannot repair) double-bit flips.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EccFault {
    /// 8-byte-aligned physical address of the flipped word.
    pub addr: PhysAddr,
    /// XOR mask applied — one set bit for a correctable fault, two
    /// adjacent bits for an uncorrectable one.
    pub mask: u64,
    /// Whether the fault exceeds SEC-DED correction capability.
    pub double: bool,
}

/// Outcome of one [`MemorySystem::ecc_scrub`] pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EccScrubReport {
    /// Single-bit faults detected and repaired in place.
    pub corrected: u64,
    /// Double-bit faults detected but left corrupted.
    pub uncorrectable: u64,
}

/// The shared, coherent memory system of the simulated platform.
#[derive(Debug)]
pub struct MemorySystem {
    cfg: SimConfig,
    map: AddressMap,
    hierarchies: [CacheHierarchy; 2],
    /// The single shared LLC of the Fully-Shared model; `None` when each
    /// domain has a private L3.
    shared_l3: Option<Cache>,
    store: SparseMemory,
    stats: [DomainStats; 2],
    writebacks: [u64; 2],
    line_bytes: u64,
    /// `log2(line_bytes)` — line numbers come from a shift, not a
    /// division, on the per-access hot path.
    line_shift: u32,
    trace: Option<Vec<TraceEntry>>,
    /// Per-domain alias windows (§7: the fused simulator supports
    /// "memory remapping" — the single shared memory "may be mapped to
    /// different addresses" on each processor, as on OpenPiton).
    aliases: Vec<AliasWindow>,
    /// Injected-but-unscrubbed ECC faults.
    ecc_journal: Vec<EccFault>,
    /// Observability sink: every timed access, snoop, eviction and MESI
    /// transition is mirrored here as a typed event. Emission is
    /// passive — it never costs a simulated cycle, so the golden
    /// fingerprints are identical with tracing on or off.
    tracer: Option<SharedTracer>,
}

/// One per-domain physical alias: `domain` sees
/// `[alias_start, alias_start + len)` as
/// `[canon_start, canon_start + len)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct AliasWindow {
    domain: DomainId,
    alias_start: u64,
    len: u64,
    canon_start: u64,
}

impl MemorySystem {
    /// Builds a memory system over the Figure 4 layout.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`ConfigError`] if `cfg` is inconsistent.
    pub fn new(cfg: SimConfig) -> Result<Self, ConfigError> {
        Self::with_layout(cfg, PhysLayout::paper_default())
    }

    /// Builds a memory system over a custom layout.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`ConfigError`] if `cfg` is inconsistent.
    pub fn with_layout(cfg: SimConfig, layout: PhysLayout) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let line_bytes = cfg.domains[0].cache.line_bytes() as u64;
        let line_shift = line_bytes.trailing_zeros();
        let hierarchies = [
            CacheHierarchy::new(&cfg.domains[0].cache),
            CacheHierarchy::new(&cfg.domains[1].cache),
        ];
        let shared_l3 = if cfg.hw_model == HardwareModel::FullyShared {
            Some(Cache::new(cfg.domains[0].cache.l3))
        } else {
            None
        };
        let map = AddressMap::new(layout, cfg.hw_model);
        Ok(MemorySystem {
            cfg,
            map,
            hierarchies,
            shared_l3,
            store: SparseMemory::new(),
            stats: [DomainStats::new(), DomainStats::new()],
            writebacks: [0, 0],
            line_bytes,
            line_shift,
            trace: None,
            aliases: Vec::new(),
            ecc_journal: Vec::new(),
            tracer: None,
        })
    }

    /// Installs the shared event tracer. Cache accesses, snoops,
    /// evictions, MESI transitions and TLB lookups are mirrored into it
    /// from this point on, without perturbing any simulated cycle.
    pub fn set_tracer(&mut self, tracer: SharedTracer) {
        self.tracer = Some(tracer);
    }

    /// Records one event into the tracer, if installed.
    #[inline]
    fn emit(&self, event: TraceEvent) {
        if let Some(t) = &self.tracer {
            t.borrow_mut().record(event);
        }
    }

    /// The configuration in force.
    #[must_use]
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// The address map (layout + hardware model).
    #[must_use]
    pub fn address_map(&self) -> &AddressMap {
        &self.map
    }

    /// Cache line size in bytes.
    #[must_use]
    pub fn line_bytes(&self) -> u64 {
        self.line_bytes
    }

    /// Statistics of `domain`.
    #[must_use]
    pub fn stats(&self, domain: DomainId) -> &DomainStats {
        &self.stats[domain.index()]
    }

    /// Mutable statistics of `domain` (OS layers add runtime here).
    pub fn stats_mut(&mut self, domain: DomainId) -> &mut DomainStats {
        &mut self.stats[domain.index()]
    }

    /// Dirty-line writebacks performed by `domain`'s LLC.
    #[must_use]
    pub fn writebacks(&self, domain: DomainId) -> u64 {
        self.writebacks[domain.index()]
    }

    // ---- software-TLB accounting -------------------------------------------
    //
    // The OS layers keep their translation caches, but every lookup is
    // recorded here so the counter bump and the trace event can never
    // drift apart.

    /// Records one software-TLB hit for `domain`.
    #[inline]
    pub fn note_tlb_hit(&mut self, domain: DomainId) {
        self.note_tlb_hits(domain, 1);
    }

    /// Records `n` software-TLB hits for `domain` (the batched client
    /// pipeline counts a whole page run at once; the trace still carries
    /// one event per lookup so batched and scalar streams agree).
    pub fn note_tlb_hits(&mut self, domain: DomainId, n: u64) {
        self.stats[domain.index()].tlb_hits += n;
        if let Some(t) = &self.tracer {
            let mut t = t.borrow_mut();
            for _ in 0..n {
                t.record(TraceEvent::TlbLookup { domain, hit: true });
            }
        }
    }

    /// Records one software-TLB miss for `domain`.
    #[inline]
    pub fn note_tlb_miss(&mut self, domain: DomainId) {
        self.stats[domain.index()].tlb_misses += 1;
        self.emit(TraceEvent::TlbLookup { domain, hit: false });
    }

    /// Zeroes all statistics (cache contents are preserved).
    pub fn reset_stats(&mut self) {
        for s in &mut self.stats {
            s.reset();
        }
        self.writebacks = [0, 0];
    }

    /// Flushes every cache (contents only; statistics are preserved).
    pub fn flush_caches(&mut self) {
        for h in &mut self.hierarchies {
            h.flush();
        }
        if let Some(l3) = &mut self.shared_l3 {
            l3.flush();
        }
    }

    /// Installs a per-domain physical alias (§7 "memory remapping"):
    /// accesses by `domain` to `[alias_start, alias_start+len)` resolve
    /// to `[canon_start, canon_start+len)`. Coherence and data are
    /// shared with every other path to the canonical range.
    ///
    /// # Panics
    ///
    /// Panics if the alias range overlaps the canonical range.
    pub fn add_alias(
        &mut self,
        domain: DomainId,
        alias_start: PhysAddr,
        len: u64,
        canon_start: PhysAddr,
    ) {
        assert!(
            alias_start.raw() + len <= canon_start.raw()
                || canon_start.raw() + len <= alias_start.raw(),
            "alias must not overlap its canonical range"
        );
        self.aliases.push(AliasWindow {
            domain,
            alias_start: alias_start.raw(),
            len,
            canon_start: canon_start.raw(),
        });
    }

    /// Resolves `addr` through `domain`'s alias windows.
    #[must_use]
    #[inline]
    pub fn canonicalize(&self, domain: DomainId, addr: PhysAddr) -> PhysAddr {
        // Almost every system runs without remapping; skip the window
        // scan entirely in that case.
        if self.aliases.is_empty() {
            return addr;
        }
        for w in &self.aliases {
            if w.domain == domain && addr.raw() >= w.alias_start && addr.raw() < w.alias_start + w.len
            {
                return PhysAddr::new(w.canon_start + (addr.raw() - w.alias_start));
            }
        }
        addr
    }

    /// Starts recording every timed access (clears any prior trace).
    pub fn enable_trace(&mut self) {
        self.trace = Some(Vec::new());
    }

    /// Stops recording and returns the trace collected so far.
    pub fn take_trace(&mut self) -> Vec<TraceEntry> {
        self.trace.take().unwrap_or_default()
    }

    /// Untimed access to the backing store, for boot-time setup and
    /// checkers that must not perturb the timing statistics.
    #[must_use]
    pub fn store(&self) -> &SparseMemory {
        &self.store
    }

    /// Untimed mutable access to the backing store.
    pub fn store_mut(&mut self) -> &mut SparseMemory {
        &mut self.store
    }

    // ---- fault injection & auditing ----------------------------------------

    /// Injects a transient bit flip into the word containing `addr`
    /// (aligned down to 8 bytes) and journals it for the ECC scrubber.
    /// A single-bit flip is SEC-correctable; `double` flips two adjacent
    /// bits, which SEC-DED detects but cannot repair.
    pub fn inject_bit_flip(&mut self, addr: PhysAddr, bit: u32, double: bool) -> EccFault {
        let addr = PhysAddr::new(addr.raw() & !7);
        let bit = bit % 64;
        let mask = if double { (1u64 << bit) | (1u64 << ((bit + 1) % 64)) } else { 1u64 << bit };
        self.store.flip_bits(addr, mask);
        let fault = EccFault { addr, mask, double };
        self.ecc_journal.push(fault);
        fault
    }

    /// The journalled faults awaiting a scrub pass.
    #[must_use]
    pub fn ecc_pending(&self) -> &[EccFault] {
        &self.ecc_journal
    }

    /// One ECC scrub pass, performed by `domain`'s memory controller:
    /// every journalled single-bit fault is repaired in place (the XOR
    /// mask is involutive), double-bit faults are detected but the data
    /// stays corrupt. Repairs and fatalities are reflected in the
    /// scrubbing domain's fault statistics.
    pub fn ecc_scrub(&mut self, domain: DomainId) -> EccScrubReport {
        let mut report = EccScrubReport::default();
        let faults = std::mem::take(&mut self.ecc_journal);
        for f in &faults {
            if f.double {
                report.uncorrectable += 1;
            } else {
                self.store.flip_bits(f.addr, f.mask);
                report.corrected += 1;
            }
        }
        let s = &mut self.stats[domain.index()];
        s.faults_injected += report.corrected + report.uncorrectable;
        s.faults_recovered += report.corrected;
        s.faults_fatal += report.uncorrectable;
        report
    }

    /// Audits the MESI coherence invariants: a `Modified` or `Exclusive`
    /// line in one private LLC must not coexist with any peer copy, and
    /// every upper-level line must be covered by its inclusive LLC.
    /// Returns one human-readable message per violation (empty = clean).
    #[must_use]
    pub fn audit_coherence(&self) -> Vec<String> {
        let mut violations = Vec::new();
        if self.shared_l3.is_none() {
            for di in 0..2 {
                let oi = di ^ 1;
                for (line, state) in self.hierarchies[di].l3.lines() {
                    if matches!(state, Mesi::Modified | Mesi::Exclusive) {
                        if let Some(peer) = self.hierarchies[oi].l3.state_of(line) {
                            violations.push(format!(
                                "line {:#x} is {state:?} in domain {di} L3 but {peer:?} in peer L3",
                                line * self.line_bytes
                            ));
                        }
                    }
                }
            }
        }
        for (di, h) in self.hierarchies.iter().enumerate() {
            for (name, cache) in [("L1I", &h.l1i), ("L1D", &h.l1d), ("L2", &h.l2)] {
                for (line, _) in cache.lines() {
                    let covered = match &self.shared_l3 {
                        Some(l3) => l3.contains(line),
                        None => h.l3.contains(line),
                    };
                    if !covered {
                        violations.push(format!(
                            "domain {di} {name} line {:#x} missing from inclusive LLC",
                            line * self.line_bytes
                        ));
                    }
                }
            }
        }
        violations
    }

    // ---- timed access path -------------------------------------------------

    /// Performs one timed access of at most a cache line.
    ///
    /// This is the plugin's per-memory-instruction feedback path: the
    /// returned latency is what the caller adds to the issuing domain's
    /// icount clock.
    #[inline]
    pub fn access(
        &mut self,
        domain: DomainId,
        addr: PhysAddr,
        access: Access,
        kind: AccessKind,
    ) -> AccessOutcome {
        let addr = self.canonicalize(domain, addr);
        self.access_line(domain, addr, access, kind)
    }

    /// Performs one timed access of at most a cache line on an address
    /// that is **already canonical** (alias windows resolved).
    ///
    /// This is the streaming fast path: bulk transfers canonicalize once
    /// and then drive the hierarchy line by line through this entry
    /// point. Timing, stats and tracing are identical to
    /// [`MemorySystem::access`].
    #[inline]
    pub fn access_line(
        &mut self,
        domain: DomainId,
        addr: PhysAddr,
        access: Access,
        kind: AccessKind,
    ) -> AccessOutcome {
        let out = self.access_line_inner(domain, addr, access, kind);
        if self.tracer.is_some() {
            // Sub-events (snoops, evictions, MESI transitions) were
            // emitted inside the pipeline; the summarising access event
            // comes last, keyed to the line-aligned address.
            self.emit(TraceEvent::CacheAccess {
                domain,
                addr: (addr.raw() >> self.line_shift) << self.line_shift,
                write: access == Access::Write,
                ifetch: kind == AccessKind::Instruction,
                level: trace_level(out.level),
                class: out.class.map(trace_class),
                snooped: out.snooped,
                cost: out.cycles,
            });
        }
        out
    }

    /// The untraced access pipeline behind [`MemorySystem::access_line`].
    #[inline]
    fn access_line_inner(
        &mut self,
        domain: DomainId,
        addr: PhysAddr,
        access: Access,
        kind: AccessKind,
    ) -> AccessOutcome {
        let line = addr.raw() >> self.line_shift;
        let di = domain.index();
        let lat = self.cfg.domains[di].latency;
        let is_write = access == Access::Write;
        if let Some(trace) = &mut self.trace {
            trace.push(TraceEntry { domain, addr, access, kind });
        }
        if kind == AccessKind::Data {
            self.stats[di].mem_accesses += 1;
        }

        // L1 probe, fused with the fill plan an upper-level hit will
        // consume (one way scan instead of probe + insert scans).
        let probe = match kind {
            AccessKind::Data => self.hierarchies[di].l1d.probe_or_plan(line),
            AccessKind::Instruction => self.hierarchies[di].l1i.probe_or_plan(line),
        };
        let l1_hit = matches!(probe, ProbeFill::Hit);
        match kind {
            AccessKind::Data => self.stats[di].l1d.record(l1_hit),
            AccessKind::Instruction => self.stats[di].l1i.record(l1_hit),
        }
        let plan = match probe {
            ProbeFill::Hit => {
                let mut cycles = Cycles::new(lat.l1 as u64);
                let snooped = is_write && self.ensure_writable(domain, line, &mut cycles);
                return AccessOutcome { cycles, level: HitLevel::L1, class: None, snooped };
            }
            ProbeFill::Miss(plan) => plan,
        };

        // L2 probe.
        let l2_hit = self.hierarchies[di].l2.probe_hit(line);
        self.stats[di].l2.record(l2_hit);
        if l2_hit {
            let mut cycles = Cycles::new(lat.l2 as u64);
            self.fill_l1_planned(di, line, kind, plan);
            let snooped = is_write && self.ensure_writable(domain, line, &mut cycles);
            return AccessOutcome { cycles, level: HitLevel::L2, class: None, snooped };
        }

        // L3 probe (private or shared).
        let l3_hit = match &mut self.shared_l3 {
            Some(l3) => l3.probe_hit(line),
            None => self.hierarchies[di].l3.probe_hit(line),
        };
        self.stats[di].l3.record(l3_hit);
        if l3_hit {
            let mut cycles = Cycles::new(lat.l3 as u64);
            // Same order as `fill_upper`: L2 first, then the L1 plan.
            self.hierarchies[di].l2.insert(line, Mesi::Shared);
            self.fill_l1_planned(di, line, kind, plan);
            let snooped = is_write && self.ensure_writable(domain, line, &mut cycles);
            return AccessOutcome { cycles, level: HitLevel::L3, class: None, snooped };
        }

        // Miss everywhere: go to memory. The fill plan is dropped here
        // on purpose — an inclusive L3 eviction back-invalidates the
        // upper levels, which may edit the planned set first.
        self.miss_to_memory(domain, addr, line, is_write, kind, lat)
    }

    /// Handles a full miss: peer snoop, DRAM latency, fills and evictions.
    fn miss_to_memory(
        &mut self,
        domain: DomainId,
        addr: PhysAddr,
        line: u64,
        is_write: bool,
        kind: AccessKind,
        lat: stramash_sim::LatencyTable,
    ) -> AccessOutcome {
        let di = domain.index();
        let oi = domain.other().index();
        let line_addr = line << self.line_shift;
        let class = self.map.classify(domain, addr);
        let mut cycles = self.map.dram_latency(&lat, class);
        match class {
            MemClass::Local => self.stats[di].local_mem_hits += 1,
            MemClass::Remote => self.stats[di].remote_mem_hits += 1,
            MemClass::RemoteShared => self.stats[di].remote_shared_mem_hits += 1,
        }

        let mut snooped = false;
        let mut new_state = if is_write { Mesi::Modified } else { Mesi::Exclusive };

        if self.shared_l3.is_none() {
            // Private LLCs: consult the peer's hierarchy (CXL snoops §7.3).
            if self.hierarchies[oi].contains(line) {
                snooped = true;
                if is_write {
                    cycles += Cycles::new(self.cfg.cxl.snoop_invalidate as u64);
                    if self.hierarchies[oi].invalidate(line) == Some(Mesi::Modified) {
                        self.writebacks[oi] += 1;
                    }
                    self.stats[di].snoop_invalidations += 1;
                    self.emit(TraceEvent::Snoop { domain, addr: line_addr, invalidate: true });
                } else {
                    cycles += Cycles::new(self.cfg.cxl.snoop_data as u64);
                    // Demote the peer's copy Exclusive/Modified → Shared.
                    if self.hierarchies[oi].state_of(line) == Some(Mesi::Modified) {
                        self.writebacks[oi] += 1;
                    }
                    let old = self.hierarchies[oi].l3.set_state(line, Mesi::Shared);
                    self.stats[di].snoop_data_hits += 1;
                    new_state = Mesi::Shared;
                    self.emit(TraceEvent::Snoop { domain, addr: line_addr, invalidate: false });
                    if let Some(old) = old {
                        if old != Mesi::Shared {
                            self.emit(TraceEvent::MesiTransition {
                                domain: domain.other(),
                                addr: line_addr,
                                from: trace_mesi(old),
                                to: TraceMesi::Shared,
                            });
                        }
                    }
                }
            }
        } else if is_write && self.hierarchies[oi].in_upper_levels(line) {
            // Shared LLC: only the peer's private L1/L2 can hold a copy.
            snooped = true;
            cycles += Cycles::new(self.cfg.cxl.onchip_snoop as u64);
            self.hierarchies[oi].back_invalidate_upper(line);
            self.stats[di].snoop_invalidations += 1;
            self.emit(TraceEvent::Snoop { domain, addr: line_addr, invalidate: true });
        }

        // Fill the LLC, handling inclusive evictions.
        let eviction = match &mut self.shared_l3 {
            Some(l3) => l3.insert(line, new_state),
            None => self.hierarchies[di].l3.insert(line, new_state),
        };
        // The fill itself is an Invalid → new-state transition at the
        // coherence point (the line just missed the LLC probe).
        self.emit(TraceEvent::MesiTransition {
            domain,
            addr: line_addr,
            from: TraceMesi::Invalid,
            to: trace_mesi(new_state),
        });
        if let Some(ev) = eviction {
            self.emit(TraceEvent::CacheEvict {
                domain,
                addr: ev.line << self.line_shift,
                dirty: ev.state == Mesi::Modified,
            });
            if ev.state == Mesi::Modified {
                self.writebacks[di] += 1;
                // Dirty evictions drain through the write buffer; under
                // streaming writes this stalls for a fraction of the
                // DRAM write latency.
                cycles += Cycles::new(lat.mem as u64 / 2);
            }
            // Inclusive L3: upper levels must drop the evicted line.
            let mut back = false;
            for h in 0..2 {
                if (h == di || self.shared_l3.is_some()) && self.hierarchies[h].in_upper_levels(ev.line)
                {
                    self.hierarchies[h].back_invalidate_upper(ev.line);
                    back = true;
                }
            }
            if back {
                cycles += Cycles::new(self.cfg.cxl.back_invalidate as u64);
            }
        }
        self.fill_upper(domain, line, kind, /*fill_l2=*/ true);

        AccessOutcome { cycles, level: HitLevel::Memory, class: Some(class), snooped }
    }

    /// Fills the L1 (and optionally the L2) after a lower-level hit.
    /// Fills the kind-matching L1 through a [`FillPlan`] captured by the
    /// probe. The full-miss path must NOT use this: an inclusive L3
    /// eviction back-invalidates the upper levels, which can edit the
    /// planned set and invalidate the plan.
    #[inline]
    fn fill_l1_planned(&mut self, di: usize, line: u64, kind: AccessKind, plan: FillPlan) {
        match kind {
            AccessKind::Data => self.hierarchies[di].l1d.fill_planned(plan, line, Mesi::Shared),
            AccessKind::Instruction => {
                self.hierarchies[di].l1i.fill_planned(plan, line, Mesi::Shared);
            }
        }
    }

    fn fill_upper(&mut self, domain: DomainId, line: u64, kind: AccessKind, fill_l2: bool) {
        let di = domain.index();
        if fill_l2 {
            self.hierarchies[di].l2.insert(line, Mesi::Shared);
        }
        match kind {
            AccessKind::Data => self.hierarchies[di].l1d.insert(line, Mesi::Shared),
            AccessKind::Instruction => self.hierarchies[di].l1i.insert(line, Mesi::Shared),
        };
    }

    /// On a write hit, upgrades the line to Modified, snooping the peer
    /// out if it holds a copy. Returns whether a snoop happened.
    fn ensure_writable(&mut self, domain: DomainId, line: u64, cycles: &mut Cycles) -> bool {
        let di = domain.index();
        let oi = domain.other().index();
        match &mut self.shared_l3 {
            Some(l3) => {
                let old = l3.set_state(line, Mesi::Modified);
                self.emit_upgrade(domain, line, old);
                if self.hierarchies[oi].in_upper_levels(line) {
                    *cycles += Cycles::new(self.cfg.cxl.onchip_snoop as u64);
                    self.hierarchies[oi].back_invalidate_upper(line);
                    self.stats[di].snoop_invalidations += 1;
                    self.emit(TraceEvent::Snoop {
                        domain,
                        addr: line << self.line_shift,
                        invalidate: true,
                    });
                    return true;
                }
                false
            }
            None => {
                let state = self.hierarchies[di].l3.state_of(line);
                if state == Some(Mesi::Modified) || state == Some(Mesi::Exclusive) {
                    let old = self.hierarchies[di].l3.set_state(line, Mesi::Modified);
                    if state == Some(Mesi::Exclusive) {
                        self.emit_upgrade(domain, line, old);
                    }
                    return false;
                }
                // Shared (or L1-resident without L3 state after an odd
                // flush): invalidate the peer if present.
                let mut snooped = false;
                if self.hierarchies[oi].contains(line) {
                    *cycles += Cycles::new(self.cfg.cxl.snoop_invalidate as u64);
                    if self.hierarchies[oi].invalidate(line) == Some(Mesi::Modified) {
                        self.writebacks[oi] += 1;
                    }
                    self.stats[di].snoop_invalidations += 1;
                    self.emit(TraceEvent::Snoop {
                        domain,
                        addr: line << self.line_shift,
                        invalidate: true,
                    });
                    snooped = true;
                }
                let old = self.hierarchies[di].l3.set_state(line, Mesi::Modified);
                self.emit_upgrade(domain, line, old);
                snooped
            }
        }
    }

    /// Emits the MESI transition for a write upgrade to Modified, if the
    /// line was resident in a different state.
    #[inline]
    fn emit_upgrade(&self, domain: DomainId, line: u64, old: Option<Mesi>) {
        if self.tracer.is_none() {
            return;
        }
        if let Some(old) = old {
            if old != Mesi::Modified {
                self.emit(TraceEvent::MesiTransition {
                    domain,
                    addr: line << self.line_shift,
                    from: trace_mesi(old),
                    to: TraceMesi::Modified,
                });
            }
        }
    }

    // ---- timed data transfer ----------------------------------------------

    /// Timed read of `buf.len()` bytes: charges one access per cache line
    /// touched and copies the data out of the backing store.
    pub fn read_bytes(&mut self, domain: DomainId, addr: PhysAddr, buf: &mut [u8]) -> Cycles {
        let addr = self.canonicalize(domain, addr);
        let cycles = self.access_range(domain, addr, buf.len() as u64, Access::Read);
        self.store.read(addr, buf);
        cycles
    }

    /// Timed write of `data`: charges one access per line and stores the
    /// bytes (visible to both domains immediately — §7.1).
    pub fn write_bytes(&mut self, domain: DomainId, addr: PhysAddr, data: &[u8]) -> Cycles {
        let addr = self.canonicalize(domain, addr);
        let cycles = self.access_range(domain, addr, data.len() as u64, Access::Write);
        self.store.write(addr, data);
        cycles
    }

    /// Timed read of a little-endian `u64`.
    pub fn read_u64(&mut self, domain: DomainId, addr: PhysAddr) -> (u64, Cycles) {
        let addr = self.canonicalize(domain, addr);
        let cycles = self.access_range(domain, addr, 8, Access::Read);
        (self.store.read_u64(addr), cycles)
    }

    /// Timed write of a little-endian `u64`.
    pub fn write_u64(&mut self, domain: DomainId, addr: PhysAddr, value: u64) -> Cycles {
        let addr = self.canonicalize(domain, addr);
        let cycles = self.access_range(domain, addr, 8, Access::Write);
        self.store.write_u64(addr, value);
        cycles
    }

    /// Timed atomic read-modify-write of a `u64` (compare-and-swap).
    ///
    /// Models §6.5/§7.1: both ISAs use single-instruction CAS (x86
    /// `lock cmpxchg`, AArch64 LSE `CAS`), so a cross-ISA atomic is one
    /// write-for-ownership access plus a fixed serialisation penalty.
    pub fn cas_u64(
        &mut self,
        domain: DomainId,
        addr: PhysAddr,
        expected: u64,
        new: u64,
        penalty: Cycles,
    ) -> (Result<u64, u64>, Cycles) {
        let addr = self.canonicalize(domain, addr);
        let out = self.access_line(domain, addr, Access::Write, AccessKind::Data);
        let cycles = out.cycles + penalty;
        let current = self.store.read_u64(addr);
        if current == expected {
            self.store.write_u64(addr, new);
            (Ok(current), cycles)
        } else {
            (Err(current), cycles)
        }
    }

    /// Timed fetch-add on a `u64`.
    pub fn fetch_add_u64(
        &mut self,
        domain: DomainId,
        addr: PhysAddr,
        delta: u64,
        penalty: Cycles,
    ) -> (u64, Cycles) {
        let addr = self.canonicalize(domain, addr);
        let out = self.access_line(domain, addr, Access::Write, AccessKind::Data);
        let old = self.store.read_u64(addr);
        self.store.write_u64(addr, old.wrapping_add(delta));
        (old, out.cycles + penalty)
    }

    /// Timed copy (e.g. DSM page replication): reads from `src`, writes
    /// to `dst`, charging both sides' line accesses to `domain`.
    pub fn copy_bytes(
        &mut self,
        domain: DomainId,
        src: PhysAddr,
        dst: PhysAddr,
        len: u64,
    ) -> Cycles {
        let src = self.canonicalize(domain, src);
        let dst = self.canonicalize(domain, dst);
        let mut cycles = self.access_range(domain, src, len, Access::Read);
        cycles += self.access_range(domain, dst, len, Access::Write);
        self.store.copy(src, dst, len);
        cycles
    }

    /// Charges one timed access per cache line in `[addr, addr+len)`.
    ///
    /// `addr` must already be canonical — this is the bulk entry point
    /// the timed transfers (and the kernel's streaming `read_mem` /
    /// `write_mem` path) use after canonicalizing once.
    pub fn access_range(
        &mut self,
        domain: DomainId,
        addr: PhysAddr,
        len: u64,
        access: Access,
    ) -> Cycles {
        if len == 0 {
            return Cycles::ZERO;
        }
        let first = addr.raw() >> self.line_shift;
        let last = (addr.raw() + len - 1) >> self.line_shift;
        let mut cycles = Cycles::ZERO;
        for line in first..=last {
            let line_addr = PhysAddr::new(line << self.line_shift);
            cycles += self.access_line(domain, line_addr, access, AccessKind::Data).cycles;
        }
        cycles
    }

    /// Charges `count` identical timed accesses to the single cache line
    /// at `line_addr` (already canonical, line-aligned).
    ///
    /// Cycle-identical to calling [`MemorySystem::access_line`] `count`
    /// times: the first access runs the full pipeline (it may miss, fill
    /// and snoop); the repeats are guaranteed L1 hits — every access
    /// path fills the L1, a write leaves the line Modified with the peer
    /// already snooped out, and re-touching the MRU line is idempotent —
    /// so they are accounted in bulk (`n` L1 hits at L1 latency, `n`
    /// trace entries) in O(1) instead of `n` pipeline walks.
    pub fn access_line_run(
        &mut self,
        domain: DomainId,
        line_addr: PhysAddr,
        access: Access,
        kind: AccessKind,
        count: u64,
    ) -> Cycles {
        if count == 0 {
            return Cycles::ZERO;
        }
        let cycles = self.access_line(domain, line_addr, access, kind).cycles;
        let n = count - 1;
        if n == 0 {
            return cycles;
        }
        let di = domain.index();
        let lat = self.cfg.domains[di].latency;
        if let Some(trace) = &mut self.trace {
            for _ in 0..n {
                trace.push(TraceEntry { domain, addr: line_addr, access, kind });
            }
        }
        match kind {
            AccessKind::Data => {
                self.stats[di].mem_accesses += n;
                self.stats[di].l1d.accesses += n;
                self.stats[di].l1d.hits += n;
            }
            AccessKind::Instruction => {
                self.stats[di].l1i.accesses += n;
                self.stats[di].l1i.hits += n;
            }
        }
        if let Some(t) = &self.tracer {
            // The repeats are guaranteed L1 hits; a replayed scalar loop
            // would emit exactly this event `n` times (a repeated write
            // finds the line already Modified, so no snoop, no MESI
            // transition, and the cost stays at the L1 latency).
            let event = TraceEvent::CacheAccess {
                domain,
                addr: (line_addr.raw() >> self.line_shift) << self.line_shift,
                write: access == Access::Write,
                ifetch: kind == AccessKind::Instruction,
                level: TraceLevel::L1,
                class: None,
                snooped: false,
                cost: Cycles::new(lat.l1 as u64),
            };
            let mut t = t.borrow_mut();
            for _ in 0..n {
                t.record(event);
            }
        }
        cycles + Cycles::new(n * lat.l1 as u64)
    }

    // ---- fused element / run transfers -------------------------------------
    //
    // The batched pipeline's mem-layer entry points: one dispatch per
    // element run instead of one `access_range` walk per 8-byte word.

    /// Timed read of an 8-byte-aligned `u64`: one line access plus the
    /// arena read, skipping the generic `access_range` loop. Identical
    /// timing/stats to [`MemorySystem::read_u64`] for aligned addresses
    /// (an aligned word never straddles a line).
    pub fn read_u64_aligned(&mut self, domain: DomainId, addr: PhysAddr) -> (u64, Cycles) {
        debug_assert!(addr.is_aligned(8), "fused element reads must be 8-byte aligned");
        let addr = self.canonicalize(domain, addr);
        let line_addr = addr.align_down(self.line_bytes);
        let out = self.access_line(domain, line_addr, Access::Read, AccessKind::Data);
        (self.store.read_u64(addr), out.cycles)
    }

    /// Timed write of an 8-byte-aligned `u64`; see
    /// [`MemorySystem::read_u64_aligned`].
    pub fn write_u64_aligned(&mut self, domain: DomainId, addr: PhysAddr, value: u64) -> Cycles {
        debug_assert!(addr.is_aligned(8), "fused element writes must be 8-byte aligned");
        let addr = self.canonicalize(domain, addr);
        let line_addr = addr.align_down(self.line_bytes);
        let out = self.access_line(domain, line_addr, Access::Write, AccessKind::Data);
        self.store.write_u64(addr, value);
        out.cycles
    }

    /// Timed read of `out.len()` consecutive aligned `u64`s: canonicalize
    /// once, charge each touched line as a run of repeats, and pull the
    /// payload out of the arena a chunk at a time. Access order (and so
    /// every counter) matches a per-word [`MemorySystem::read_u64`] loop.
    pub fn read_u64_run(&mut self, domain: DomainId, addr: PhysAddr, out: &mut [u64]) -> Cycles {
        debug_assert!(addr.is_aligned(8), "word runs must be 8-byte aligned");
        if out.is_empty() {
            return Cycles::ZERO;
        }
        let addr = self.canonicalize(domain, addr);
        let cycles = self.run_lines(domain, addr, out.len() as u64, Access::Read);
        self.store.read_words(addr, out);
        cycles
    }

    /// Timed write of `words` as consecutive aligned `u64`s; see
    /// [`MemorySystem::read_u64_run`].
    pub fn write_u64_run(&mut self, domain: DomainId, addr: PhysAddr, words: &[u64]) -> Cycles {
        debug_assert!(addr.is_aligned(8), "word runs must be 8-byte aligned");
        if words.is_empty() {
            return Cycles::ZERO;
        }
        let addr = self.canonicalize(domain, addr);
        let cycles = self.run_lines(domain, addr, words.len() as u64, Access::Write);
        self.store.write_words(addr, words);
        cycles
    }

    /// Charges the line accesses of a `words`-long aligned word run
    /// starting at canonical `addr`: per line touched, one
    /// [`MemorySystem::access_line_run`] of however many of the run's
    /// words fall in that line — exactly the per-word access sequence.
    fn run_lines(&mut self, domain: DomainId, addr: PhysAddr, words: u64, access: Access) -> Cycles {
        let mut cycles = Cycles::ZERO;
        let mut pos = addr.raw();
        let mut left = words;
        while left > 0 {
            let line = pos >> self.line_shift;
            let line_end = (line + 1) << self.line_shift;
            let n = ((line_end - pos) / 8).min(left);
            cycles += self.access_line_run(
                domain,
                PhysAddr::new(line << self.line_shift),
                access,
                AccessKind::Data,
                n,
            );
            pos += n * 8;
            left -= n;
        }
        cycles
    }

    // ---- compiled access plans ---------------------------------------------

    /// Replays the plan's ops in `range` as timed data accesses. Cycle-, stat-
    /// and trace-identical to issuing each op through
    /// [`MemorySystem::access_line`] in order: with the tracer or the
    /// debug trace on (or a shared LLC) it *is* that loop; otherwise
    /// repeat hits on resident lines — the vast majority for a compiled
    /// loop nest — are accounted in bulk against the L1D's
    /// structure-of-arrays tags without the per-access dispatch. Plan
    /// addresses must be canonical.
    pub fn run_plan(
        &mut self,
        domain: DomainId,
        plan: &AccessPlan,
        range: std::ops::Range<usize>,
    ) -> Cycles {
        let start = range.start;
        let addrs = &plan.addrs[range];
        let mask = !(self.line_bytes - 1);
        if self.tracer.is_some() || self.trace.is_some() || self.shared_l3.is_some() {
            let mut cycles = Cycles::ZERO;
            for (i, &addr) in addrs.iter().enumerate() {
                let access =
                    if plan.write_at(start + i) { Access::Write } else { Access::Read };
                cycles += self
                    .access_line(domain, PhysAddr::new(addr & mask), access, AccessKind::Data)
                    .cycles;
            }
            return cycles;
        }
        // Dense fast path, lane-parallel (DESIGN.md §11.2): classify
        // up to `PLAN_LANES` ops at once against the structure-of-
        // arrays tags — a pure sweep with no LRU, hint, or stat
        // side effects — then commit the leading all-hit run with the
        // exact probe side effects and one bulk account, and push the
        // first non-hit op through the full pipeline just as the
        // per-op loop does. An op is a pure L1 hit when the line is
        // L1D-resident and, for writes, the private L3 already holds
        // it Modified (then `ensure_writable` would be a no-op: no
        // event, no snoop, no extra cycles). Classifying a whole batch
        // up front is sound because hits never move tags, so the
        // verdicts stay valid across the committed all-hit prefix; the
        // first fallback op ends the batch and the next iteration
        // re-classifies whatever the full pipeline changed.
        const PLAN_LANES: usize = 16;
        let di = domain.index();
        let shift = self.line_shift;
        let l1_lat = self.cfg.domains[di].latency.l1 as u64;
        let mut fast_ops = 0u64;
        let mut total = Cycles::ZERO;
        let n = addrs.len();
        let mut k = 0usize;
        let mut lines = [0u64; PLAN_LANES];
        while k < n {
            let w = (n - k).min(PLAN_LANES);
            for (j, &addr) in addrs[k..k + w].iter().enumerate() {
                lines[j] = addr >> shift;
            }
            let wmask = plan.write_window(start + k) as u32;
            let h = &self.hierarchies[di];
            let hit = h.l1d.classify_lanes(&lines[..w]);
            // Write lanes additionally need L3 ownership.
            let mut fast = hit;
            let mut writes = fast & wmask;
            while writes != 0 {
                let j = writes.trailing_zeros() as usize;
                if !h.l3.state_modified(lines[j]) {
                    fast &= !(1 << j);
                }
                writes &= writes - 1;
            }
            let run = ((!fast).trailing_zeros() as usize).min(w);
            self.hierarchies[di].l1d.touch_hits(&lines[..run]);
            fast_ops += run as u64;
            k += run;
            if run < w {
                if fast_ops > 0 {
                    let s = &mut self.stats[di];
                    s.mem_accesses += fast_ops;
                    s.l1d.accesses += fast_ops;
                    s.l1d.hits += fast_ops;
                    total += Cycles::new(fast_ops * l1_lat);
                    fast_ops = 0;
                }
                // A fallback op that probed Hit (a write awaiting
                // ownership) must keep the probe's MRU re-touch before
                // the full pipeline runs, exactly as the per-op loop
                // interleaves them. A true miss probes to a fill plan
                // that mutates nothing, so the probe is skipped
                // entirely — the pipeline rebuilds it anyway.
                let line = lines[run];
                if hit & (1 << run) != 0 {
                    let _ = self.hierarchies[di].l1d.probe_or_plan(line);
                }
                let access =
                    if plan.write_at(start + k) { Access::Write } else { Access::Read };
                total += self
                    .access_line(domain, PhysAddr::new(line << shift), access, AccessKind::Data)
                    .cycles;
                k += 1;
            }
        }
        if fast_ops > 0 {
            let s = &mut self.stats[di];
            s.mem_accesses += fast_ops;
            s.l1d.accesses += fast_ops;
            s.l1d.hits += fast_ops;
            total += Cycles::new(fast_ops * l1_lat);
        }
        total
    }

    /// Serializes the mutable memory-system state into a checkpoint
    /// section: both hierarchies, the shared LLC (if the model has one),
    /// the backing store, per-domain stats, writeback counters, alias
    /// windows and the ECC journal. Config-derived structure (geometry,
    /// address map, latencies) is never written; the debug access trace
    /// and the tracer handle are host-side and excluded.
    pub fn save_state(&self, e: &mut stramash_sim::checkpoint::Encoder) {
        e.tag(0x4d_454d53); // "MEMS"
        for h in &self.hierarchies {
            h.save_state(e);
        }
        match &self.shared_l3 {
            Some(l3) => {
                e.bool(true);
                l3.save_state(e);
            }
            None => e.bool(false),
        }
        self.store.save_state(e);
        for s in &self.stats {
            s.save_state(e);
        }
        e.u64(self.writebacks[0]);
        e.u64(self.writebacks[1]);
        e.u64(self.aliases.len() as u64);
        for w in &self.aliases {
            e.u8(w.domain.index() as u8);
            e.u64(w.alias_start);
            e.u64(w.len);
            e.u64(w.canon_start);
        }
        e.u64(self.ecc_journal.len() as u64);
        for f in &self.ecc_journal {
            e.u64(f.addr.raw());
            e.u64(f.mask);
            e.bool(f.double);
        }
    }

    /// Restores the mutable memory-system state from a checkpoint
    /// section taken on an identically-configured system.
    ///
    /// # Errors
    ///
    /// Decoding errors, or [`ConfigMismatch`]
    /// (\[`stramash_sim::checkpoint::CheckpointError::ConfigMismatch`\])
    /// when the artifact's shared-LLC presence disagrees with this
    /// system's hardware model.
    pub fn load_state(
        &mut self,
        d: &mut stramash_sim::checkpoint::Decoder<'_>,
    ) -> Result<(), stramash_sim::checkpoint::CheckpointError> {
        use stramash_sim::checkpoint::CheckpointError;
        d.tag(0x4d_454d53)?;
        for h in &mut self.hierarchies {
            h.load_state(d)?;
        }
        let has_shared = d.bool()?;
        match (&mut self.shared_l3, has_shared) {
            (Some(l3), true) => l3.load_state(d)?,
            (None, false) => {}
            _ => return Err(CheckpointError::ConfigMismatch),
        }
        self.store.load_state(d)?;
        for s in &mut self.stats {
            s.load_state(d)?;
        }
        self.writebacks[0] = d.u64()?;
        self.writebacks[1] = d.u64()?;
        let n = d.len()?;
        self.aliases.clear();
        for _ in 0..n {
            let domain = match d.u8()? {
                0 => DomainId::X86,
                1 => DomainId::ARM,
                _ => return Err(CheckpointError::Malformed("alias domain")),
            };
            self.aliases.push(AliasWindow {
                domain,
                alias_start: d.u64()?,
                len: d.u64()?,
                canon_start: d.u64()?,
            });
        }
        let n = d.len()?;
        self.ecc_journal.clear();
        for _ in 0..n {
            self.ecc_journal.push(EccFault {
                addr: PhysAddr::new(d.u64()?),
                mask: d.u64()?,
                double: d.bool()?,
            });
        }
        Ok(())
    }

    /// Whether `domain`'s L1/L2 hold the line containing `addr` — with
    /// inclusive LLCs this implies [`MemorySystem::caches_line`], an
    /// invariant the property tests check.
    #[must_use]
    pub fn upper_levels_resident(&self, domain: DomainId, addr: PhysAddr) -> bool {
        let line = addr.line(self.line_bytes);
        self.hierarchies[domain.index()].in_upper_levels(line)
    }

    /// Whether `domain`'s hierarchy (or the shared LLC) holds the line
    /// containing `addr` — used by tests and the reference comparison.
    #[must_use]
    pub fn caches_line(&self, domain: DomainId, addr: PhysAddr) -> bool {
        let line = addr.line(self.line_bytes);
        match &self.shared_l3 {
            Some(l3) => l3.contains(line),
            None => self.hierarchies[domain.index()].contains(line),
        }
    }
}

// ---- compiled access plans --------------------------------------------------

/// One compiled access-plan operation: a canonical physical address and
/// a direction. The line mapping happens at replay time against the
/// replaying system's geometry, so a plan survives checkpoint/restore.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanOp {
    /// Canonical physical address of the word touched.
    pub addr: u64,
    /// Store (`true`) or load (`false`).
    pub write: bool,
}

/// A compiled access plan: the exact data-access sequence of one loop
/// iteration (or iteration chunk), precomputed once and replayed via
/// [`MemorySystem::run_plan`]. Replay is cycle-, stat- and
/// trace-identical to issuing each op through
/// [`MemorySystem::access_line`] in order.
///
/// Stored structure-of-arrays — a dense address vector plus a
/// write-direction bitset — so the lane-parallel replay sweeps
/// contiguous `u64`s and reads a whole batch's directions in one word.
#[derive(Debug, Clone, Default)]
pub struct AccessPlan {
    /// Canonical physical addresses in element order.
    addrs: Vec<u64>,
    /// Direction bitset: bit `i % 64` of word `i / 64` is set when op
    /// `i` is a store.
    writes: Vec<u64>,
}

impl AccessPlan {
    /// Number of operations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.addrs.len()
    }

    /// Whether the plan holds no operations.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.addrs.is_empty()
    }

    /// Appends one operation.
    pub fn push(&mut self, addr: u64, write: bool) {
        let i = self.addrs.len();
        self.addrs.push(addr);
        if i.is_multiple_of(64) {
            self.writes.push(0);
        }
        if write {
            self.writes[i / 64] |= 1 << (i % 64);
        }
    }

    /// Drops all operations, keeping the allocations.
    pub fn clear(&mut self) {
        self.addrs.clear();
        self.writes.clear();
    }

    /// The canonical addresses, one per op in element order.
    #[must_use]
    pub fn addrs(&self) -> &[u64] {
        &self.addrs
    }

    /// Whether op `i` is a store.
    #[must_use]
    pub fn write_at(&self, i: usize) -> bool {
        (self.writes[i / 64] >> (i % 64)) & 1 != 0
    }

    /// A 64-bit window of direction bits: bit `j` is op `start + j`
    /// (zero past the end of the plan).
    #[must_use]
    pub fn write_window(&self, start: usize) -> u64 {
        let wi = start / 64;
        let off = start % 64;
        let lo = self.writes.get(wi).copied().unwrap_or(0) >> off;
        if off == 0 {
            lo
        } else {
            lo | (self.writes.get(wi + 1).copied().unwrap_or(0) << (64 - off))
        }
    }

    /// Iterates the ops in element order as [`PlanOp`] views.
    pub fn iter(&self) -> impl Iterator<Item = PlanOp> + '_ {
        self.addrs
            .iter()
            .enumerate()
            .map(|(i, &addr)| PlanOp { addr, write: self.write_at(i) })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stramash_sim::CacheConfig;

    fn sys(model: HardwareModel) -> MemorySystem {
        let cfg = SimConfig::big_pair().with_hw_model(model);
        MemorySystem::new(cfg).unwrap()
    }

    const X86_LOCAL: PhysAddr = PhysAddr::new(0x10_0000);
    const ARM_LOCAL: PhysAddr = PhysAddr::new(0x8000_0000); // 2 GB
    const POOL: PhysAddr = PhysAddr::new(0x1_4000_0000); // 5 GB

    #[test]
    fn cold_miss_then_l1_hit() {
        let mut m = sys(HardwareModel::Separated);
        let out = m.access(DomainId::X86, X86_LOCAL, Access::Read, AccessKind::Data);
        assert_eq!(out.level, HitLevel::Memory);
        assert_eq!(out.class, Some(MemClass::Local));
        assert_eq!(out.cycles.raw(), 300);
        let out = m.access(DomainId::X86, X86_LOCAL, Access::Read, AccessKind::Data);
        assert_eq!(out.level, HitLevel::L1);
        assert_eq!(out.cycles.raw(), 4);
        assert_eq!(m.stats(DomainId::X86).local_mem_hits, 1);
        assert_eq!(m.stats(DomainId::X86).mem_accesses, 2);
    }

    #[test]
    fn remote_miss_charges_remote_latency() {
        let mut m = sys(HardwareModel::Separated);
        let out = m.access(DomainId::X86, ARM_LOCAL, Access::Read, AccessKind::Data);
        assert_eq!(out.class, Some(MemClass::Remote));
        assert_eq!(out.cycles.raw(), 640); // Xeon Gold remote-mem
        assert_eq!(m.stats(DomainId::X86).remote_mem_hits, 1);
    }

    #[test]
    fn shared_pool_counts_remote_shared() {
        let mut m = sys(HardwareModel::Shared);
        let out = m.access(DomainId::ARM, POOL, Access::Read, AccessKind::Data);
        assert_eq!(out.class, Some(MemClass::RemoteShared));
        assert_eq!(out.cycles.raw(), 620); // ThunderX2 remote-mem
        assert_eq!(m.stats(DomainId::ARM).remote_shared_mem_hits, 1);
    }

    #[test]
    fn read_sharing_triggers_snoop_data() {
        let mut m = sys(HardwareModel::Shared);
        // x86 writes the line (Modified in x86's L3).
        m.access(DomainId::X86, POOL, Access::Write, AccessKind::Data);
        // Arm reads it: Snoop Data demotes x86's copy to Shared (§7.3).
        let out = m.access(DomainId::ARM, POOL, Access::Read, AccessKind::Data);
        assert!(out.snooped);
        assert_eq!(out.cycles.raw(), 620 + 80);
        assert_eq!(m.stats(DomainId::ARM).snoop_data_hits, 1);
        // The dirty copy was demoted → counts as a writeback on x86.
        assert_eq!(m.writebacks(DomainId::X86), 1);
    }

    #[test]
    fn write_invalidates_peer_copy() {
        let mut m = sys(HardwareModel::Shared);
        m.access(DomainId::X86, POOL, Access::Read, AccessKind::Data);
        assert!(m.caches_line(DomainId::X86, POOL));
        // Arm writes: Snoop Invalidate (§7.3) drops x86's copy.
        let out = m.access(DomainId::ARM, POOL, Access::Write, AccessKind::Data);
        assert!(out.snooped);
        assert_eq!(out.cycles.raw(), 620 + 90);
        assert!(!m.caches_line(DomainId::X86, POOL));
        assert_eq!(m.stats(DomainId::ARM).snoop_invalidations, 1);
    }

    #[test]
    fn write_hit_on_shared_line_upgrades_and_snoops() {
        let mut m = sys(HardwareModel::Shared);
        // Both domains read the line → Shared in both.
        m.access(DomainId::X86, POOL, Access::Read, AccessKind::Data);
        m.access(DomainId::ARM, POOL, Access::Read, AccessKind::Data);
        // x86 writes: L1 hit but must invalidate Arm's copy first.
        let out = m.access(DomainId::X86, POOL, Access::Write, AccessKind::Data);
        assert_eq!(out.level, HitLevel::L1);
        assert!(out.snooped);
        assert_eq!(out.cycles.raw(), 4 + 90);
        assert!(!m.caches_line(DomainId::ARM, POOL));
    }

    #[test]
    fn write_hit_on_exclusive_line_is_silent() {
        let mut m = sys(HardwareModel::Separated);
        m.access(DomainId::X86, X86_LOCAL, Access::Read, AccessKind::Data);
        let out = m.access(DomainId::X86, X86_LOCAL, Access::Write, AccessKind::Data);
        assert_eq!(out.level, HitLevel::L1);
        assert!(!out.snooped);
        assert_eq!(out.cycles.raw(), 4);
    }

    #[test]
    fn fully_shared_everything_local_and_llc_shared() {
        let mut m = sys(HardwareModel::FullyShared);
        let out = m.access(DomainId::X86, POOL, Access::Write, AccessKind::Data);
        assert_eq!(out.class, Some(MemClass::Local));
        assert_eq!(out.cycles.raw(), 300);
        // Arm finds the line in the *shared* L3 — no DRAM access.
        let out = m.access(DomainId::ARM, POOL, Access::Read, AccessKind::Data);
        assert_eq!(out.level, HitLevel::L3);
        assert_eq!(m.stats(DomainId::ARM).memory_hits(), 0);
    }

    #[test]
    fn fully_shared_write_back_invalidates_peer_l1() {
        let mut m = sys(HardwareModel::FullyShared);
        m.access(DomainId::ARM, POOL, Access::Read, AccessKind::Data);
        // x86 writes the same line: Arm's L1/L2 copy must go (on-chip snoop).
        let out = m.access(DomainId::X86, POOL, Access::Write, AccessKind::Data);
        assert!(out.snooped);
        // Arm re-reads: shared L3 still hits (no memory access), but its
        // private L1 was dropped, so this is an L2/L3-level access.
        let out = m.access(DomainId::ARM, POOL, Access::Read, AccessKind::Data);
        assert_ne!(out.level, HitLevel::L1);
    }

    #[test]
    fn instruction_fetches_use_l1i() {
        let mut m = sys(HardwareModel::Separated);
        m.access(DomainId::X86, X86_LOCAL, Access::Read, AccessKind::Instruction);
        m.access(DomainId::X86, X86_LOCAL, Access::Read, AccessKind::Instruction);
        let s = m.stats(DomainId::X86);
        assert_eq!(s.l1i.accesses, 2);
        assert_eq!(s.l1i.hits, 1);
        assert_eq!(s.l1d.accesses, 0);
        // Instruction fetches do not count as data mem_accesses.
        assert_eq!(s.mem_accesses, 0);
    }

    #[test]
    fn timed_data_round_trip() {
        let mut m = sys(HardwareModel::Shared);
        let c = m.write_bytes(DomainId::X86, X86_LOCAL, b"fused-kernel");
        assert!(c.raw() >= 300);
        let mut buf = [0u8; 12];
        let c2 = m.read_bytes(DomainId::ARM, X86_LOCAL, &mut buf);
        assert_eq!(&buf, b"fused-kernel");
        assert!(c2.raw() >= 620, "peer read pays remote latency, got {c2}");
    }

    #[test]
    fn touch_charges_per_line() {
        let mut m = sys(HardwareModel::Separated);
        // 256 bytes = 4 lines, all cold local misses.
        let c = m.write_bytes(DomainId::X86, X86_LOCAL, &[0u8; 256]);
        assert_eq!(c.raw(), 4 * 300);
        assert_eq!(m.stats(DomainId::X86).mem_accesses, 4);
    }

    #[test]
    fn cas_success_and_failure() {
        let mut m = sys(HardwareModel::Shared);
        m.store_mut().write_u64(POOL, 5);
        let (r, c) = m.cas_u64(DomainId::X86, POOL, 5, 9, Cycles::new(20));
        assert_eq!(r, Ok(5));
        assert!(c.raw() > 20);
        assert_eq!(m.store().read_u64(POOL), 9);
        let (r, _) = m.cas_u64(DomainId::ARM, POOL, 5, 11, Cycles::new(20));
        assert_eq!(r, Err(9));
        assert_eq!(m.store().read_u64(POOL), 9, "failed CAS must not write");
    }

    #[test]
    fn fetch_add_returns_old() {
        let mut m = sys(HardwareModel::Shared);
        let (old, _) = m.fetch_add_u64(DomainId::X86, POOL, 3, Cycles::new(20));
        assert_eq!(old, 0);
        let (old, _) = m.fetch_add_u64(DomainId::ARM, POOL, 4, Cycles::new(20));
        assert_eq!(old, 3);
        assert_eq!(m.store().read_u64(POOL), 7);
    }

    #[test]
    fn copy_bytes_moves_data_and_charges_both_sides() {
        let mut m = sys(HardwareModel::Separated);
        m.store_mut().write(X86_LOCAL, &[7u8; 4096]);
        let c = m.copy_bytes(DomainId::ARM, X86_LOCAL, ARM_LOCAL, 4096);
        // 64 line reads from remote (x86) memory + 64 line writes local.
        assert!(c.raw() >= 64 * (640 + 300) - 64 * 300, "copy cost too low: {c}");
        let mut buf = [0u8; 8];
        m.store().read(ARM_LOCAL, &mut buf);
        assert_eq!(buf, [7u8; 8]);
    }

    #[test]
    fn llc_eviction_back_invalidates_upper_levels() {
        // Tiny caches to force evictions quickly.
        let mut cfg = SimConfig::big_pair().with_hw_model(HardwareModel::Separated);
        for d in &mut cfg.domains {
            d.cache = CacheConfig {
                l1i: stramash_sim::CacheGeometry::new(128, 2, 64),
                l1d: stramash_sim::CacheGeometry::new(128, 2, 64),
                l2: stramash_sim::CacheGeometry::new(256, 2, 64),
                l3: stramash_sim::CacheGeometry::new(256, 2, 64),
            };
        }
        let mut m = MemorySystem::new(cfg).unwrap();
        // Fill one L3 set (2 ways, 2 sets: same-set lines are 128 B apart).
        for i in 0..3u64 {
            m.access(
                DomainId::X86,
                PhysAddr::new(0x10_0000 + i * 128),
                Access::Read,
                AccessKind::Data,
            );
        }
        // First line must be gone from the entire hierarchy (inclusive).
        assert!(!m.caches_line(DomainId::X86, PhysAddr::new(0x10_0000)));
        let out = m.access(DomainId::X86, PhysAddr::new(0x10_0000), Access::Read, AccessKind::Data);
        assert_eq!(out.level, HitLevel::Memory);
    }

    #[test]
    fn writeback_counted_on_dirty_eviction() {
        let mut cfg = SimConfig::big_pair().with_hw_model(HardwareModel::Separated);
        for d in &mut cfg.domains {
            d.cache = CacheConfig {
                l1i: stramash_sim::CacheGeometry::new(128, 2, 64),
                l1d: stramash_sim::CacheGeometry::new(128, 2, 64),
                l2: stramash_sim::CacheGeometry::new(256, 2, 64),
                l3: stramash_sim::CacheGeometry::new(256, 2, 64),
            };
        }
        let mut m = MemorySystem::new(cfg).unwrap();
        for i in 0..3u64 {
            m.access(
                DomainId::X86,
                PhysAddr::new(0x10_0000 + i * 128),
                Access::Write,
                AccessKind::Data,
            );
        }
        assert!(m.writebacks(DomainId::X86) >= 1);
    }

    #[test]
    fn aliases_remap_per_domain_and_stay_coherent() {
        // §7 "memory remapping": the Arm instance maps the pool at a
        // different physical base (as OpenPiton-style platforms do);
        // both views are the same coherent memory.
        let mut m = sys(HardwareModel::FullyShared);
        let arm_view = PhysAddr::new(0x7_0000_0000);
        let canon = PhysAddr::new(5 << 30);
        m.add_alias(DomainId::ARM, arm_view, 1 << 20, canon);
        // Arm writes through its alias…
        m.write_u64(DomainId::ARM, arm_view.offset(0x40), 0xfade);
        // …and x86 reads the canonical address coherently.
        let (v, _) = m.read_u64(DomainId::X86, canon.offset(0x40));
        assert_eq!(v, 0xfade);
        // Writes the other way are visible through the alias.
        m.write_u64(DomainId::X86, canon.offset(0x80), 7);
        let (v, _) = m.read_u64(DomainId::ARM, arm_view.offset(0x80));
        assert_eq!(v, 7);
        // The alias does not apply to the other domain.
        assert_eq!(m.canonicalize(DomainId::X86, arm_view), arm_view);
        assert_eq!(m.canonicalize(DomainId::ARM, arm_view), canon);
    }

    #[test]
    fn alias_views_share_cache_lines() {
        // Cache coherence must key on the canonical address: an aliased
        // write invalidates the peer's canonically-cached copy.
        let mut m = sys(HardwareModel::Shared);
        let arm_view = PhysAddr::new(0x7_0000_0000);
        let canon = PhysAddr::new(5 << 30);
        m.add_alias(DomainId::ARM, arm_view, 1 << 20, canon);
        m.access(DomainId::X86, canon, Access::Read, AccessKind::Data);
        assert!(m.caches_line(DomainId::X86, canon));
        let out = m.access(DomainId::ARM, arm_view, Access::Write, AccessKind::Data);
        assert!(out.snooped, "aliased write must snoop the canonical copy");
        assert!(!m.caches_line(DomainId::X86, canon));
    }

    #[test]
    #[should_panic(expected = "must not overlap")]
    fn alias_overlap_rejected() {
        let mut m = sys(HardwareModel::Shared);
        m.add_alias(DomainId::ARM, PhysAddr::new(0x1000), 0x2000, PhysAddr::new(0x2000));
    }

    #[test]
    fn ecc_single_bit_flip_is_corrected_by_scrub() {
        let mut m = sys(HardwareModel::Shared);
        m.store_mut().write_u64(POOL, 0xdead_beef);
        let f = m.inject_bit_flip(POOL.offset(3), 5, false);
        assert_eq!(f.addr, POOL, "flip aligns down to the word");
        assert_eq!(f.mask.count_ones(), 1);
        assert_ne!(m.store().read_u64(POOL), 0xdead_beef, "fault visible before scrub");
        assert_eq!(m.ecc_pending().len(), 1);
        let report = m.ecc_scrub(DomainId::X86);
        assert_eq!(report, EccScrubReport { corrected: 1, uncorrectable: 0 });
        assert_eq!(m.store().read_u64(POOL), 0xdead_beef, "SEC repairs the word");
        assert!(m.ecc_pending().is_empty());
        assert_eq!(m.stats(DomainId::X86).faults_recovered, 1);
        assert_eq!(m.stats(DomainId::X86).faults_fatal, 0);
    }

    #[test]
    fn ecc_double_bit_flip_is_detected_but_fatal() {
        let mut m = sys(HardwareModel::Shared);
        m.store_mut().write_u64(POOL, 77);
        let f = m.inject_bit_flip(POOL, 63, true);
        assert_eq!(f.mask.count_ones(), 2);
        let report = m.ecc_scrub(DomainId::ARM);
        assert_eq!(report, EccScrubReport { corrected: 0, uncorrectable: 1 });
        assert_ne!(m.store().read_u64(POOL), 77, "DED cannot repair the data");
        assert_eq!(m.stats(DomainId::ARM).faults_fatal, 1);
        assert_eq!(m.stats(DomainId::ARM).faults_recovered, 0);
    }

    #[test]
    fn coherence_audit_clean_after_cross_domain_traffic() {
        for model in [HardwareModel::Separated, HardwareModel::Shared, HardwareModel::FullyShared]
        {
            let mut m = sys(model);
            for i in 0..32u64 {
                m.access(DomainId::X86, POOL.offset(i * 64), Access::Write, AccessKind::Data);
                m.access(DomainId::ARM, POOL.offset(i * 32), Access::Read, AccessKind::Data);
                m.access(DomainId::ARM, X86_LOCAL.offset(i * 64), Access::Write, AccessKind::Data);
            }
            assert!(m.audit_coherence().is_empty(), "model {model:?} must audit clean");
        }
    }

    #[test]
    fn coherence_audit_flags_forged_double_owner() {
        let mut m = sys(HardwareModel::Shared);
        m.access(DomainId::X86, POOL, Access::Write, AccessKind::Data);
        // Forge an impossible state: the peer L3 also claims the line.
        let line = POOL.line(m.line_bytes());
        m.hierarchies[1].l3.insert(line, Mesi::Exclusive);
        let violations = m.audit_coherence();
        assert!(
            violations.iter().any(|v| v.contains("peer L3")),
            "double ownership must be reported, got {violations:?}"
        );
    }

    #[test]
    fn coherence_audit_flags_forged_inclusivity_break() {
        let mut m = sys(HardwareModel::Separated);
        m.access(DomainId::ARM, ARM_LOCAL, Access::Read, AccessKind::Data);
        let line = ARM_LOCAL.line(m.line_bytes());
        m.hierarchies[1].l3.invalidate(line);
        let violations = m.audit_coherence();
        assert!(
            violations.iter().any(|v| v.contains("missing from inclusive LLC")),
            "inclusivity break must be reported, got {violations:?}"
        );
    }

    #[test]
    fn checkpoint_round_trip_resumes_bit_identically() {
        for model in [HardwareModel::Separated, HardwareModel::Shared, HardwareModel::FullyShared]
        {
            let mut m = sys(model);
            // Warm up with mixed cross-domain traffic and a pending
            // ECC fault so every serialized section is non-trivial.
            for i in 0..96u64 {
                m.access(DomainId::X86, POOL.offset(i * 64), Access::Write, AccessKind::Data);
                m.access(DomainId::ARM, POOL.offset(i * 32), Access::Read, AccessKind::Data);
                m.access(DomainId::ARM, X86_LOCAL.offset(i * 48), Access::Write, AccessKind::Data);
            }
            m.write_bytes(DomainId::X86, X86_LOCAL, b"checkpointed payload");
            m.inject_bit_flip(POOL, 9, false);

            let mut e = stramash_sim::Encoder::new();
            m.save_state(&mut e);
            let bytes = e.finish();

            let mut r = sys(model);
            let mut d = stramash_sim::Decoder::new_verified(&bytes).unwrap();
            r.load_state(&mut d).unwrap();
            assert_eq!(d.remaining(), 0, "model {model:?} leaves trailing bytes");

            // Checkpointing the restored system again must be
            // byte-identical (proves the stream is deterministic).
            let mut e2 = stramash_sim::Encoder::new();
            r.save_state(&mut e2);
            assert_eq!(e2.finish(), bytes, "model {model:?} re-save drifted");

            // Both systems must agree on every subsequent outcome.
            for i in 0..96u64 {
                let a = m.access(DomainId::ARM, POOL.offset(i * 64), Access::Write, AccessKind::Data);
                let b = r.access(DomainId::ARM, POOL.offset(i * 64), Access::Write, AccessKind::Data);
                assert_eq!(a, b, "model {model:?} diverged at access {i}");
            }
            assert_eq!(m.stats(DomainId::X86), r.stats(DomainId::X86));
            assert_eq!(m.stats(DomainId::ARM), r.stats(DomainId::ARM));
            assert_eq!(m.ecc_scrub(DomainId::X86), r.ecc_scrub(DomainId::X86));
            let mut buf = [0u8; 20];
            r.store().read(X86_LOCAL, &mut buf);
            assert_eq!(&buf, b"checkpointed payload");
        }
    }

    #[test]
    fn checkpoint_rejects_mismatched_model() {
        let m = sys(HardwareModel::FullyShared);
        let mut e = stramash_sim::Encoder::new();
        m.save_state(&mut e);
        let bytes = e.finish();
        let mut r = sys(HardwareModel::Separated);
        let mut d = stramash_sim::Decoder::new_verified(&bytes).unwrap();
        assert_eq!(
            r.load_state(&mut d),
            Err(stramash_sim::CheckpointError::ConfigMismatch),
            "shared-LLC presence mismatch must be rejected"
        );
    }

    #[test]
    fn reset_and_flush() {
        let mut m = sys(HardwareModel::Shared);
        m.access(DomainId::X86, X86_LOCAL, Access::Read, AccessKind::Data);
        m.reset_stats();
        assert_eq!(m.stats(DomainId::X86).mem_accesses, 0);
        assert!(m.caches_line(DomainId::X86, X86_LOCAL), "reset_stats keeps contents");
        m.flush_caches();
        assert!(!m.caches_line(DomainId::X86, X86_LOCAL));
    }

    // ---- compiled access plans --------------------------------------------

    /// A small mixed plan: a resident working set plus a streaming leg,
    /// with writes sprinkled through both.
    fn mixed_plan() -> AccessPlan {
        let mut plan = AccessPlan::default();
        for i in 0..2048u64 {
            if i % 8 == 7 {
                plan.push(X86_LOCAL.raw() + 0x20_0000 + i * 512, i % 16 == 15);
            } else {
                plan.push(X86_LOCAL.raw() + (i % 1024) * 8, i % 5 == 0);
            }
        }
        plan
    }

    #[test]
    fn run_plan_matches_per_access_loop() {
        let plan = mixed_plan();
        let mut fast = sys(HardwareModel::Separated);
        let mut slow = sys(HardwareModel::Separated);
        let line_mask = !(fast.line_bytes() - 1);
        for round in 0..3 {
            let got = fast.run_plan(DomainId::X86, &plan, 0..plan.len());
            let mut want = Cycles::ZERO;
            for op in plan.iter() {
                let access = if op.write { Access::Write } else { Access::Read };
                let addr = PhysAddr::new(op.addr & line_mask);
                want += slow.access_line(DomainId::X86, addr, access, AccessKind::Data).cycles;
            }
            assert_eq!(got, want, "round {round}: plan replay must charge loop cycles");
            assert_eq!(fast.stats(DomainId::X86), slow.stats(DomainId::X86));
            assert_eq!(fast.writebacks(DomainId::X86), slow.writebacks(DomainId::X86));
        }
    }

    #[test]
    fn run_plan_traced_matches_untraced_counters() {
        let plan = mixed_plan();
        let mut traced = sys(HardwareModel::Separated);
        let mut plain = sys(HardwareModel::Separated);
        let t = stramash_sim::shared_tracer(1 << 15);
        traced.set_tracer(t.clone());
        let a = traced.run_plan(DomainId::X86, &plan, 0..plan.len());
        let b = plain.run_plan(DomainId::X86, &plan, 0..plan.len());
        assert_eq!(a, b, "tracing must not change plan-replay cycles");
        assert_eq!(traced.stats(DomainId::X86), plain.stats(DomainId::X86));
        assert!(!t.borrow().events().is_empty());
    }
}
