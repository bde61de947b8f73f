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

/// The upper-level (L1D/L2) state of a line: `Modified` marks a line
/// the domain owns for writing, `Shared` is a plain copy.
#[inline]
fn upper_state(owned: bool) -> Mesi {
    if owned {
        Mesi::Modified
    } else {
        Mesi::Shared
    }
}

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
    /// Observability sink: every timed access, snoop, eviction and MESI
    /// transition is mirrored here as a typed event. Emission is
    /// passive — it never costs a simulated cycle, so the golden
    /// fingerprints are identical with tracing on or off.
    tracer: Option<SharedTracer>,
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
    /// Returns the underlying [`ConfigError`] if `cfg` is inconsistent,
    /// and [`ConfigError::TooManyLines`] if the layout has `u32::MAX`
    /// lines or more, which the caches' 32-bit tags cannot name.
    pub fn with_layout(cfg: SimConfig, layout: PhysLayout) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let line_bytes = cfg.domains[0].cache.line_bytes() as u64;
        let line_shift = line_bytes.trailing_zeros();
        let lines = layout.end().raw() >> line_shift;
        if lines >= u64::from(u32::MAX) {
            return Err(ConfigError::TooManyLines { lines });
        }
        let hierarchies = [
            CacheHierarchy::new(&cfg.domains[0].cache),
            CacheHierarchy::new(&cfg.domains[1].cache),
        ];
        let shared_l3 = if cfg.hw_model == HardwareModel::FullyShared {
            Some(Cache::new(cfg.domains[0].cache.l3))
        } else {
            None
        };
        let store = SparseMemory::with_span(layout.end());
        let map = AddressMap::new(layout, cfg.hw_model);
        Ok(MemorySystem {
            cfg,
            map,
            hierarchies,
            shared_l3,
            store,
            stats: [DomainStats::new(), DomainStats::new()],
            writebacks: [0, 0],
            line_bytes,
            line_shift,
            trace: None,
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
            t.borrow_mut().record_n(TraceEvent::TlbLookup { domain, hit: true }, n);
        }
    }

    /// Records one software-TLB miss for `domain`.
    #[inline]
    pub fn note_tlb_miss(&mut self, domain: DomainId) {
        self.stats[domain.index()].tlb_misses += 1;
        self.emit(TraceEvent::TlbLookup { domain, hit: false });
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

    // ---- auditing ----------------------------------------------------------

    /// Whether domain `di` owns `line` for writing: the line is
    /// `Modified` at the domain's coherence point and, under a shared
    /// LLC, no copy sits in the peer's L1I/L1D/L2. An owned line's
    /// write upgrade ([`MemorySystem::ensure_writable`]) is a no-op.
    fn owns(&self, di: usize, line: u64) -> bool {
        match &self.shared_l3 {
            Some(l3) => {
                l3.state_of(line) == Some(Mesi::Modified)
                    && !self.hierarchies[di ^ 1].in_upper_levels(line)
            }
            None => self.hierarchies[di].l3.state_of(line) == Some(Mesi::Modified),
        }
    }

    /// Audits the MESI coherence invariants: a `Modified` or `Exclusive`
    /// line in one private LLC must not coexist with any peer copy,
    /// every upper-level line must be covered by its inclusive LLC, and
    /// an upper-level `Modified` line must be owned by its domain (the
    /// write-ownership hint the store fast path trusts).
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
                for (line, state) in cache.lines() {
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
                    if state == Mesi::Modified && !self.owns(di, line) {
                        violations.push(format!(
                            "domain {di} {name} line {:#x} is Modified but not owned",
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
    #[inline(always)]
    pub fn access(
        &mut self,
        domain: DomainId,
        addr: PhysAddr,
        access: Access,
        kind: AccessKind,
    ) -> AccessOutcome {
        let out = self.access_inner(domain, addr, access, kind);
        if self.tracer.is_some() {
            self.emit_access(domain, addr, access, kind, out);
        }
        out
    }

    /// Emits the summarising event of one access. Sub-events (snoops,
    /// evictions, MESI transitions) were emitted inside the pipeline;
    /// this one comes last, keyed to the line-aligned address.
    #[inline(never)]
    fn emit_access(
        &self,
        domain: DomainId,
        addr: PhysAddr,
        access: Access,
        kind: AccessKind,
        out: AccessOutcome,
    ) {
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

    /// The untraced access pipeline behind [`MemorySystem::access`]:
    /// the L1 probe and the L1-hit return, inlined into every caller;
    /// everything below the L1 is [`MemorySystem::access_below_l1`].
    #[inline(always)]
    fn access_inner(
        &mut self,
        domain: DomainId,
        addr: PhysAddr,
        access: Access,
        kind: AccessKind,
    ) -> AccessOutcome {
        let line = addr.raw() >> self.line_shift;
        let di = domain.index();
        let is_write = access == Access::Write;
        if let Some(trace) = &mut self.trace {
            trace.push(TraceEntry { domain, addr, access, kind });
        }
        if kind == AccessKind::Data {
            self.stats[di].mem_accesses += 1;
        }

        // L1 probe, fused with the fill plan an upper-level hit will
        // consume (one way match instead of probe + insert matches).
        let probe = match kind {
            AccessKind::Data => self.hierarchies[di].l1d.probe_or_plan(line),
            AccessKind::Instruction => self.hierarchies[di].l1i.probe_or_plan(line),
        };
        let l1_hit = matches!(probe, ProbeFill::Hit(_));
        match kind {
            AccessKind::Data => self.stats[di].l1d.record(l1_hit),
            AccessKind::Instruction => self.stats[di].l1i.record(l1_hit),
        }
        match probe {
            ProbeFill::Hit(slot) => {
                let mut cycles = Cycles::new(self.cfg.domains[di].latency.l1 as u64);
                let snooped = is_write && self.write_l1_hit(domain, line, kind, slot, &mut cycles);
                AccessOutcome { cycles, level: HitLevel::L1, class: None, snooped }
            }
            ProbeFill::Miss(plan) => self.access_below_l1(domain, addr, line, is_write, kind, plan),
        }
    }

    /// The access pipeline after an L1 miss: L2, L3, then memory. `plan`
    /// is the L1 fill the missed probe computed.
    #[inline(never)]
    fn access_below_l1(
        &mut self,
        domain: DomainId,
        addr: PhysAddr,
        line: u64,
        is_write: bool,
        kind: AccessKind,
        plan: FillPlan,
    ) -> AccessOutcome {
        let di = domain.index();
        let lat = self.cfg.domains[di].latency;

        // L2 probe. An owned (Modified) L2 line needs no write upgrade
        // and hands its ownership to the L1D fill.
        let l2_plan = match self.hierarchies[di].l2.probe_or_plan(line) {
            ProbeFill::Hit(slot) => {
                self.stats[di].l2.record(true);
                let mut cycles = Cycles::new(lat.l2 as u64);
                let owned = self.hierarchies[di].l2.state_at(slot) == Mesi::Modified;
                debug_assert!(
                    !owned || self.owns(di, line),
                    "L2 Modified line {:#x} is not owned",
                    line << self.line_shift
                );
                let mut snooped = false;
                if is_write && !owned {
                    snooped = self.ensure_writable(domain, line, &mut cycles);
                    self.hierarchies[di].l2.set_state_at(slot, Mesi::Modified);
                }
                self.fill_l1_planned(di, line, kind, plan, owned || is_write);
                return AccessOutcome { cycles, level: HitLevel::L2, class: None, snooped };
            }
            ProbeFill::Miss(l2_plan) => l2_plan,
        };
        self.stats[di].l2.record(false);

        // L3 probe (private or shared).
        let l3_probe = match &mut self.shared_l3 {
            Some(l3) => {
                let probe = l3.probe_or_plan(line);
                // The peer may own a Modified line of the shared LLC;
                // once this domain holds a copy it no longer does. (A
                // write's upgrade drops the peer's copy outright.)
                if let ProbeFill::Hit(slot) = probe {
                    if !is_write && l3.state_at(slot) == Mesi::Modified {
                        self.hierarchies[di ^ 1].demote_upper(line);
                    }
                }
                probe
            }
            None => self.hierarchies[di].l3.probe_or_plan(line),
        };
        let l3_plan = match l3_probe {
            ProbeFill::Hit(_) => {
                self.stats[di].l3.record(true);
                let mut cycles = Cycles::new(lat.l3 as u64);
                // Same order as `fill_upper`: L2 first, then L1. A write
                // fills as Modified: the upgrade below makes it owned.
                self.hierarchies[di].l2.fill_planned(l2_plan, line, upper_state(is_write));
                self.fill_l1_planned(di, line, kind, plan, is_write);
                let snooped = is_write && self.ensure_writable(domain, line, &mut cycles);
                return AccessOutcome { cycles, level: HitLevel::L3, class: None, snooped };
            }
            ProbeFill::Miss(l3_plan) => l3_plan,
        };
        self.stats[di].l3.record(false);

        // Miss everywhere: go to memory. The L1 and L2 plans are dropped
        // here on purpose — an inclusive L3 eviction back-invalidates
        // the upper levels, which may edit the planned sets first. The
        // snoops before the LLC fill edit only the peer's hierarchy, so
        // the L3 plan holds.
        self.miss_to_memory(domain, addr, line, is_write, kind, l3_plan)
    }

    /// Handles a full miss: peer snoop, DRAM latency, fills and evictions.
    fn miss_to_memory(
        &mut self,
        domain: DomainId,
        addr: PhysAddr,
        line: u64,
        is_write: bool,
        kind: AccessKind,
        l3_plan: FillPlan,
    ) -> AccessOutcome {
        let di = domain.index();
        let oi = domain.other().index();
        let lat = self.cfg.domains[di].latency;
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
            // (Its L3 is inclusive: the L3 slot decides presence.)
            if let Some(slot) = self.hierarchies[oi].l3.slot_of(line) {
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
                    let old = self.hierarchies[oi].l3.state_at(slot);
                    self.hierarchies[oi].l3.set_state_at(slot, Mesi::Shared);
                    if old == Mesi::Modified {
                        self.writebacks[oi] += 1;
                        self.hierarchies[oi].demote_upper(line);
                    }
                    self.stats[di].snoop_data_hits += 1;
                    new_state = Mesi::Shared;
                    self.emit(TraceEvent::Snoop { domain, addr: line_addr, invalidate: false });
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
        } else if is_write && self.hierarchies[oi].back_invalidate_upper(line) {
            // Shared LLC: only the peer's private L1/L2 can hold a copy.
            snooped = true;
            cycles += Cycles::new(self.cfg.cxl.onchip_snoop as u64);
            self.stats[di].snoop_invalidations += 1;
            self.emit(TraceEvent::Snoop { domain, addr: line_addr, invalidate: true });
        }

        // Fill the LLC, handling inclusive evictions.
        let eviction = match &mut self.shared_l3 {
            Some(l3) => l3.fill_planned(l3_plan, line, new_state),
            None => self.hierarchies[di].l3.fill_planned(l3_plan, line, new_state),
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
                if (h == di || self.shared_l3.is_some())
                    && self.hierarchies[h].back_invalidate_upper(ev.line)
                {
                    back = true;
                }
            }
            if back {
                cycles += Cycles::new(self.cfg.cxl.back_invalidate as u64);
            }
        }
        // A write fill is owned: the line is Modified at the coherence
        // point and the peer's copies were snooped out above.
        self.fill_upper(di, line, kind, is_write);

        AccessOutcome { cycles, level: HitLevel::Memory, class: Some(class), snooped }
    }

    /// Fills the kind-matching L1 through a [`FillPlan`] captured by the
    /// probe, as `Modified` when `owned` (data lines only: the L1I never
    /// holds ownership). The full-miss path must NOT use this: an
    /// inclusive L3 eviction back-invalidates the upper levels, which
    /// can edit the planned set and invalidate the plan.
    #[inline]
    fn fill_l1_planned(
        &mut self,
        di: usize,
        line: u64,
        kind: AccessKind,
        plan: FillPlan,
        owned: bool,
    ) {
        match kind {
            AccessKind::Data => {
                self.hierarchies[di].l1d.fill_planned(plan, line, upper_state(owned));
            }
            AccessKind::Instruction => {
                self.hierarchies[di].l1i.fill_planned(plan, line, Mesi::Shared);
            }
        }
    }

    /// Fills the L2 and the kind-matching L1 after a full miss, as
    /// `Modified` when the domain now owns the line. Both levels just
    /// missed it and the miss path only drops lines from them, so the
    /// line is absent and each fill is planned without a probe.
    fn fill_upper(&mut self, di: usize, line: u64, kind: AccessKind, owned: bool) {
        let h = &mut self.hierarchies[di];
        let (l1, l1_state) = match kind {
            AccessKind::Data => (&mut h.l1d, upper_state(owned)),
            AccessKind::Instruction => (&mut h.l1i, Mesi::Shared),
        };
        debug_assert!(!h.l2.contains(line) && !l1.contains(line), "line {line:#x} refilled");
        h.l2.fill_planned(h.l2.plan_fill(line), line, upper_state(owned));
        l1.fill_planned(l1.plan_fill(line), line, l1_state);
    }

    /// The write upgrade of an L1 hit in `slot`. A data hit on an L1D
    /// slot already `Modified` is owned, so the upgrade is a no-op and
    /// is skipped; any other hit runs
    /// [`MemorySystem::ensure_writable`], after which a data line is
    /// owned and its slot says so. Returns whether a snoop happened.
    #[inline]
    fn write_l1_hit(
        &mut self,
        domain: DomainId,
        line: u64,
        kind: AccessKind,
        slot: usize,
        cycles: &mut Cycles,
    ) -> bool {
        let di = domain.index();
        if kind == AccessKind::Instruction {
            return self.ensure_writable(domain, line, cycles);
        }
        if self.hierarchies[di].l1d.state_at(slot) == Mesi::Modified {
            debug_assert!(
                self.owns(di, line),
                "L1D Modified line {:#x} is not owned",
                line << self.line_shift
            );
            return false;
        }
        let snooped = self.ensure_writable(domain, line, cycles);
        self.hierarchies[di].l1d.set_state_at(slot, Mesi::Modified);
        snooped
    }

    /// On a write hit, upgrades the line to Modified, snooping the peer
    /// out if it holds a copy. Returns whether a snoop happened. This is
    /// the only upgrade path; afterwards the domain owns the line, so
    /// the caller may mark its upper-level copy `Modified`, and a later
    /// write hit on a `Modified` upper-level slot skips this call.
    fn ensure_writable(&mut self, domain: DomainId, line: u64, cycles: &mut Cycles) -> bool {
        let di = domain.index();
        let oi = domain.other().index();
        match &mut self.shared_l3 {
            Some(l3) => {
                let old = l3.set_state(line, Mesi::Modified);
                self.emit_upgrade(domain, line, old);
                if self.hierarchies[oi].back_invalidate_upper(line) {
                    *cycles += Cycles::new(self.cfg.cxl.onchip_snoop as u64);
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
                // One scan of the L3 set: the peer invalidation below
                // edits only the peer's hierarchy, so the slot stays
                // valid.
                let l3 = &self.hierarchies[di].l3;
                let slot = l3.slot_of(line);
                let old = slot.map(|slot| l3.state_at(slot));
                // Shared (or L1-resident without L3 state after an odd
                // flush): invalidate the peer if present.
                let mut snooped = false;
                if !matches!(old, Some(Mesi::Modified | Mesi::Exclusive))
                    && self.hierarchies[oi].contains(line)
                {
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
                if let Some(slot) = slot {
                    self.hierarchies[di].l3.set_state_at(slot, Mesi::Modified);
                }
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
        let cycles = self.access_range(domain, addr, buf.len() as u64, Access::Read);
        self.store.read(addr, buf);
        cycles
    }

    /// Timed write of `data`: charges one access per line and stores the
    /// bytes (visible to both domains immediately — §7.1).
    pub fn write_bytes(&mut self, domain: DomainId, addr: PhysAddr, data: &[u8]) -> Cycles {
        let cycles = self.access_range(domain, addr, data.len() as u64, Access::Write);
        self.store.write(addr, data);
        cycles
    }

    /// Timed read of a little-endian `u64`.
    pub fn read_u64(&mut self, domain: DomainId, addr: PhysAddr) -> (u64, Cycles) {
        let cycles = self.access_range(domain, addr, 8, Access::Read);
        (self.store.read_u64(addr), cycles)
    }

    /// Timed write of a little-endian `u64`.
    pub fn write_u64(&mut self, domain: DomainId, addr: PhysAddr, value: u64) -> Cycles {
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
        let out = self.access(domain, addr, Access::Write, AccessKind::Data);
        let cycles = out.cycles + penalty;
        let current = self.store.read_u64(addr);
        if current == expected {
            self.store.write_u64(addr, new);
            (Ok(current), cycles)
        } else {
            (Err(current), cycles)
        }
    }

    /// Charges one timed access per cache line in `[addr, addr+len)`:
    /// the bulk entry point of the timed transfers and the kernel's
    /// streaming `read_mem` / `write_mem` path.
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
            cycles += self.access(domain, line_addr, access, AccessKind::Data).cycles;
        }
        cycles
    }

    // ---- compiled access plans ---------------------------------------------

    /// Replays the plan's ops in `range` as timed data accesses: one
    /// [`MemorySystem::access`] per op, in order, on the op's line.
    pub fn run_plan(
        &mut self,
        domain: DomainId,
        plan: &AccessPlan,
        range: std::ops::Range<usize>,
    ) -> Cycles {
        let mask = !(self.line_bytes - 1);
        let mut cycles = Cycles::ZERO;
        for i in range {
            let access = if plan.write_at(i) { Access::Write } else { Access::Read };
            let addr = PhysAddr::new(plan.addrs[i] & mask);
            cycles += self.access(domain, addr, access, AccessKind::Data).cycles;
        }
        cycles
    }

    /// Serializes the mutable memory-system state into a checkpoint
    /// section: both hierarchies, the shared LLC (if the model has one),
    /// the backing store, per-domain stats and writeback counters.
    /// Config-derived structure (geometry,
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
    }

    /// Restores the mutable memory-system state from a checkpoint
    /// section taken on an identically-configured system.
    ///
    /// # Errors
    ///
    /// Decoding errors,
    /// [`CheckpointError::ConfigMismatch`](stramash_sim::checkpoint::CheckpointError::ConfigMismatch)
    /// when the artifact's shared-LLC presence disagrees with this
    /// system's hardware model, or `Malformed` when the restored caches
    /// fail [`MemorySystem::audit_coherence`] (e.g. a forged
    /// upper-level `Modified` on a line the domain does not own).
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
        // The caches must restore to a coherent state, and in particular
        // every upper-level `Modified` line must be owned: the store fast
        // path trusts that bit instead of re-checking the coherence point.
        if !self.audit_coherence().is_empty() {
            return Err(CheckpointError::Malformed("cache coherence or write-ownership state"));
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

/// One compiled access-plan operation: a physical address and a
/// direction. The line mapping happens at replay time against the
/// replaying system's geometry, so a plan survives checkpoint/restore.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanOp {
    /// Physical address of the word touched.
    pub addr: u64,
    /// Store (`true`) or load (`false`).
    pub write: bool,
}

/// A compiled access plan: the exact data-access sequence of one loop
/// iteration (or iteration chunk), precomputed once and replayed via
/// [`MemorySystem::run_plan`] as one [`MemorySystem::access`] per
/// op, in order.
#[derive(Debug, Clone, Default)]
pub struct AccessPlan {
    /// Physical addresses in element order.
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

    /// The addresses, one per op in element order.
    #[must_use]
    pub fn addrs(&self) -> &[u64] {
        &self.addrs
    }

    /// Whether op `i` is a store.
    #[must_use]
    pub fn write_at(&self, i: usize) -> bool {
        (self.writes[i / 64] >> (i % 64)) & 1 != 0
    }

    /// Iterates the ops in element order as [`PlanOp`] views.
    pub fn iter(&self) -> impl Iterator<Item = PlanOp> + '_ {
        self.addrs.iter().enumerate().map(|(i, &addr)| PlanOp { addr, write: self.write_at(i) })
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
        let arm = m.stats(DomainId::ARM);
        assert_eq!(arm.local_mem_hits + arm.remote_mem_hits + arm.remote_shared_mem_hits, 0);
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
    fn coherence_audit_clean_after_cross_domain_traffic() {
        for model in [HardwareModel::Separated, HardwareModel::Shared, HardwareModel::FullyShared] {
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
    fn layout_past_32_bit_line_numbers_is_a_typed_error() {
        use crate::phys::{MemRegion, RegionKind, GB};
        let local = |start: u64, domain| MemRegion {
            start: PhysAddr::new(start),
            len: GB,
            kind: RegionKind::DomainLocal(domain),
        };
        // Ends at 257 GiB: 2^32 + 2^24 lines of 64 B.
        let layout =
            PhysLayout::from_regions(vec![local(0, DomainId::X86), local(256 * GB, DomainId::ARM)]);
        let got = MemorySystem::with_layout(SimConfig::big_pair(), layout).err();
        assert_eq!(got, Some(ConfigError::TooManyLines { lines: 257 * GB / 64 }));
    }

    #[test]
    fn coherence_audit_flags_forged_double_owner() {
        let mut m = sys(HardwareModel::Shared);
        m.access(DomainId::X86, POOL, Access::Write, AccessKind::Data);
        // Forge an impossible state: the peer L3 also claims the line.
        let line = POOL.line(m.line_bytes());
        let l3 = &mut m.hierarchies[1].l3;
        l3.fill_planned(l3.plan_fill(line), line, Mesi::Exclusive);
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

    /// A system with caches small enough that a few hundred hot lines
    /// overflow the L1D (16 lines) and the L2 (64 lines) and churn the
    /// L3 (256 lines), so lines ping-pong between the domains and get
    /// evicted at every level.
    fn tiny_sys(model: HardwareModel) -> MemorySystem {
        let mut cfg = SimConfig::big_pair().with_hw_model(model);
        for d in &mut cfg.domains {
            d.cache = CacheConfig {
                l1i: stramash_sim::CacheGeometry::new(512, 2, 64),
                l1d: stramash_sim::CacheGeometry::new(1024, 2, 64),
                l2: stramash_sim::CacheGeometry::new(4096, 4, 64),
                l3: stramash_sim::CacheGeometry::new(16384, 8, 64),
            };
        }
        MemorySystem::new(cfg).unwrap()
    }

    /// FNV-1a step over one 64-bit word.
    fn fnv_word(acc: u64, word: u64) -> u64 {
        word.to_le_bytes()
            .iter()
            .fold(acc, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    }

    /// One seeded ping-pong op on `m`: a random domain issues a load, a
    /// store, a read-modify-write (load then store) or an instruction
    /// fetch to a line drawn from a dozen L1D-hot pool lines, 160 warm
    /// pool lines, either domain's local memory, or a cold stream that
    /// forces L3 evictions. Every [`AccessOutcome`] is folded into
    /// `hash`.
    fn ping_pong_op(m: &mut MemorySystem, rng: &mut stramash_sim::rng::SimRng, hash: &mut u64) {
        let d = if rng.gen_range(2) == 0 { DomainId::X86 } else { DomainId::ARM };
        let addr = match rng.gen_range(20) {
            0..=5 => POOL.offset(rng.gen_range(12) * 64 + rng.gen_range(8) * 8),
            6..=11 => POOL.offset(rng.gen_range(160) * 64 + rng.gen_range(8) * 8),
            12..=14 => X86_LOCAL.offset(rng.gen_range(48) * 64),
            15..=17 => ARM_LOCAL.offset(rng.gen_range(48) * 64),
            _ => POOL.offset(0x10_0000 + rng.gen_range(4096) * 64),
        };
        let ops: &[(Access, AccessKind)] = match rng.gen_range(20) {
            0..=7 => &[(Access::Read, AccessKind::Data)],
            8..=14 => &[(Access::Write, AccessKind::Data)],
            15..=18 => &[(Access::Read, AccessKind::Data), (Access::Write, AccessKind::Data)],
            _ => &[(Access::Read, AccessKind::Instruction)],
        };
        for &(access, kind) in ops {
            let out = m.access(d, addr, access, kind);
            *hash = fnv_word(*hash, out.cycles.raw());
            *hash = fnv_word(*hash, out.level as u64);
            *hash = fnv_word(*hash, out.class.map_or(9, |c| c as u64));
            *hash = fnv_word(*hash, u64::from(out.snooped));
        }
    }

    /// Per domain: L1D/L2/L3 hits, snoop-data hits, snoop
    /// invalidations and writebacks.
    fn ping_pong_counters(m: &MemorySystem) -> [[u64; 6]; 2] {
        [DomainId::X86, DomainId::ARM].map(|d| {
            let s = m.stats(d);
            [
                s.l1d.hits,
                s.l2.hits,
                s.l3.hits,
                s.snoop_data_hits,
                s.snoop_invalidations,
                m.writebacks(d),
            ]
        })
    }

    /// Seeded two-domain ping-pong over a hot set that overflows the
    /// L1D and L2, with the coherence auditor run after every op. The
    /// per-op [`AccessOutcome`] stream hash and the final per-domain
    /// counters and writebacks are pinned (recorded before write
    /// ownership existed), so a host-side fast path in the access
    /// pipeline must leave every simulated outcome as it was: the
    /// differential approach of Rhea (PAPERS.md) applied to the cache
    /// model.
    #[test]
    fn seeded_ping_pong_is_pinned_and_audits_clean() {
        // (model, outcome stream hash, `ping_pong_counters`).
        const PINS: [(HardwareModel, u64, [[u64; 6]; 2]); 3] = [
            (
                HardwareModel::Separated,
                16636517102550301409,
                [[2022, 1057, 1319, 1255, 1806, 2230], [1944, 1074, 1367, 1269, 1793, 2234]],
            ),
            (
                HardwareModel::Shared,
                16345868446106790067,
                [[2022, 1057, 1319, 1255, 1806, 2230], [1944, 1074, 1367, 1269, 1793, 2234]],
            ),
            (
                HardwareModel::FullyShared,
                17929941234799008293,
                [[2022, 1055, 2672, 0, 1061, 950], [1944, 1075, 2714, 0, 1020, 988]],
            ),
        ];
        for (model, want_hash, want) in PINS {
            let mut m = tiny_sys(model);
            let mut rng = stramash_sim::rng::SimRng::new(0x9196_9096);
            let mut hash = 0xcbf2_9ce4_8422_2325u64;
            for op in 0..12_000u32 {
                ping_pong_op(&mut m, &mut rng, &mut hash);
                let violations = m.audit_coherence();
                assert!(violations.is_empty(), "{model:?} op {op}: {violations:?}");
            }
            let got = ping_pong_counters(&m);
            assert_eq!((hash, got), (want_hash, want), "{model:?}: outcome hash, final counters");
        }
    }

    /// Write ownership follows the coherence point: a store leaves the
    /// L1D and L2 copies `Modified`; a peer read demotes them to
    /// `Shared` (Snoop Data on private LLCs, a shared-LLC hit on the
    /// Fully-Shared model); a peer write drops them.
    #[test]
    fn write_ownership_is_granted_and_revoked() {
        for model in HardwareModel::ALL {
            let mut m = sys(model);
            let line = POOL.line(m.line_bytes());
            let upper = |m: &MemorySystem, d: DomainId| {
                let h = &m.hierarchies[d.index()];
                (h.l1d.state_of(line), h.l2.state_of(line))
            };
            let owned = (Some(Mesi::Modified), Some(Mesi::Modified));
            let shared = (Some(Mesi::Shared), Some(Mesi::Shared));
            m.access(DomainId::X86, POOL, Access::Write, AccessKind::Data);
            assert_eq!(upper(&m, DomainId::X86), owned, "{model:?}: write miss owns");
            m.access(DomainId::ARM, POOL, Access::Read, AccessKind::Data);
            assert_eq!(upper(&m, DomainId::X86), shared, "{model:?}: peer read demotes");
            assert_eq!(upper(&m, DomainId::ARM), shared, "{model:?}: reader holds a copy");
            let out = m.access(DomainId::X86, POOL, Access::Write, AccessKind::Data);
            assert!(out.snooped, "{model:?}: a demoted line's store snoops the peer");
            assert_eq!(upper(&m, DomainId::X86).0, Some(Mesi::Modified), "{model:?}: re-owned");
            assert_eq!(upper(&m, DomainId::ARM), (None, None), "{model:?}: peer dropped");
            let out = m.access(DomainId::X86, POOL, Access::Write, AccessKind::Data);
            assert!(!out.snooped && out.level == HitLevel::L1, "{model:?}: owned store is local");
            assert!(m.audit_coherence().is_empty(), "{model:?}");
        }
    }

    /// The auditor flags an upper-level `Modified` on a line the domain
    /// does not own, in the L1D and in the L2, on every model: x86
    /// writes the line and Arm reads it, so neither domain owns it.
    #[test]
    fn coherence_audit_flags_forged_ownership() {
        for model in HardwareModel::ALL {
            for (d, level) in
                [(DomainId::X86, "L1D"), (DomainId::X86, "L2"), (DomainId::ARM, "L1D")]
            {
                let mut m = sys(model);
                m.access(DomainId::X86, POOL, Access::Write, AccessKind::Data);
                m.access(DomainId::ARM, POOL, Access::Read, AccessKind::Data);
                assert!(m.audit_coherence().is_empty(), "{model:?}: clean before forging");
                let line = POOL.line(m.line_bytes());
                let h = &mut m.hierarchies[d.index()];
                let cache = if level == "L1D" { &mut h.l1d } else { &mut h.l2 };
                assert_eq!(cache.set_state(line, Mesi::Modified), Some(Mesi::Shared));
                let violations = m.audit_coherence();
                assert!(
                    violations.iter().any(|v| v.contains(level) && v.contains("not owned")),
                    "{model:?} {d:?} {level}: forged ownership must be reported, got {violations:?}"
                );
            }
        }
    }

    /// A checkpoint whose caches carry a forged upper-level `Modified`
    /// is rejected on restore.
    #[test]
    fn checkpoint_rejects_forged_ownership() {
        for model in HardwareModel::ALL {
            let mut m = sys(model);
            m.access(DomainId::X86, POOL, Access::Read, AccessKind::Data);
            let line = POOL.line(m.line_bytes());
            m.hierarchies[0].l1d.set_state(line, Mesi::Modified);
            let mut e = stramash_sim::Encoder::new();
            m.save_state(&mut e);
            let bytes = e.finish();
            let mut r = sys(model);
            let mut d = stramash_sim::Decoder::new_verified(&bytes).unwrap();
            assert!(
                matches!(r.load_state(&mut d), Err(stramash_sim::CheckpointError::Malformed(_))),
                "{model:?}: forged ownership must not restore"
            );
        }
    }

    /// Upper-level ownership is only a hint: an artifact whose L1D/L2
    /// states are all `Shared` (what a checkpoint taken before write
    /// ownership existed holds) restores and resumes to the same
    /// outcomes and counters as the uninterrupted run.
    #[test]
    fn checkpoint_with_all_shared_upper_levels_resumes_identically() {
        for model in HardwareModel::ALL {
            let mut m = tiny_sys(model);
            let mut rng = stramash_sim::rng::SimRng::new(0x5eed);
            let mut hash = 0;
            for _ in 0..3000 {
                ping_pong_op(&mut m, &mut rng, &mut hash);
            }
            let mut e = stramash_sim::Encoder::new();
            m.save_state(&mut e);
            let mut plain = tiny_sys(model);
            plain
                .load_state(&mut stramash_sim::Decoder::new_verified(&e.finish()).unwrap())
                .unwrap();
            let mut demoted = 0;
            for h in &mut plain.hierarchies {
                for cache in [&mut h.l1d, &mut h.l2] {
                    let owned: Vec<u64> = cache
                        .lines()
                        .filter(|&(_, s)| s == Mesi::Modified)
                        .map(|(line, _)| line)
                        .collect();
                    for line in owned {
                        cache.set_state(line, Mesi::Shared);
                        demoted += 1;
                    }
                }
            }
            assert!(demoted > 0, "{model:?}: the warm-up must leave owned lines");
            let mut e = stramash_sim::Encoder::new();
            plain.save_state(&mut e);
            let mut r = tiny_sys(model);
            r.load_state(&mut stramash_sim::Decoder::new_verified(&e.finish()).unwrap()).unwrap();
            let (mut rng_r, mut hash_r) = (rng.clone(), hash);
            for _ in 0..3000 {
                ping_pong_op(&mut m, &mut rng, &mut hash);
                ping_pong_op(&mut r, &mut rng_r, &mut hash_r);
            }
            assert_eq!(hash, hash_r, "{model:?}: resumed outcome stream");
            assert_eq!(ping_pong_counters(&m), ping_pong_counters(&r), "{model:?}: counters");
            for d in [DomainId::X86, DomainId::ARM] {
                assert_eq!(m.stats(d), r.stats(d), "{model:?} {d:?}: stats");
            }
            assert!(r.audit_coherence().is_empty(), "{model:?}");
        }
    }

    #[test]
    fn checkpoint_round_trip_resumes_bit_identically() {
        for model in [HardwareModel::Separated, HardwareModel::Shared, HardwareModel::FullyShared] {
            let mut m = sys(model);
            // Warm up with mixed cross-domain traffic so every serialized
            // section is non-trivial.
            for i in 0..96u64 {
                m.access(DomainId::X86, POOL.offset(i * 64), Access::Write, AccessKind::Data);
                m.access(DomainId::ARM, POOL.offset(i * 32), Access::Read, AccessKind::Data);
                m.access(DomainId::ARM, X86_LOCAL.offset(i * 48), Access::Write, AccessKind::Data);
            }
            m.write_bytes(DomainId::X86, X86_LOCAL, b"checkpointed payload");

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
                let a =
                    m.access(DomainId::ARM, POOL.offset(i * 64), Access::Write, AccessKind::Data);
                let b =
                    r.access(DomainId::ARM, POOL.offset(i * 64), Access::Write, AccessKind::Data);
                assert_eq!(a, b, "model {model:?} diverged at access {i}");
            }
            assert_eq!(m.stats(DomainId::X86), r.stats(DomainId::X86));
            assert_eq!(m.stats(DomainId::ARM), r.stats(DomainId::ARM));
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
    fn flush_drops_contents_and_keeps_stats() {
        let mut m = sys(HardwareModel::Shared);
        m.access(DomainId::X86, X86_LOCAL, Access::Read, AccessKind::Data);
        let before = *m.stats(DomainId::X86);
        assert!(m.caches_line(DomainId::X86, X86_LOCAL));
        m.flush_caches();
        assert!(!m.caches_line(DomainId::X86, X86_LOCAL));
        assert_eq!(*m.stats(DomainId::X86), before, "flush_caches keeps statistics");
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

    /// Hot shared lines that both domains read and write, so replaying
    /// it in alternating turns ping-pongs ownership between them.
    fn ping_pong_plan() -> AccessPlan {
        let mut plan = AccessPlan::default();
        for i in 0..1024u64 {
            plan.push(POOL.raw() + (i * 24 % 4096), i % 3 != 0);
        }
        plan
    }

    /// An IS-like plan: a streaming key read, then a write to a
    /// randomly chosen bucket in a span far larger than the L1 and L2.
    fn scattered_plan() -> AccessPlan {
        let mut rng = stramash_sim::rng::SimRng::new(0x15);
        let mut plan = AccessPlan::default();
        for i in 0..4096u64 {
            plan.push(ARM_LOCAL.raw() + i * 8, false);
            plan.push(POOL.raw() + 0x10_0000 + rng.gen_range(1 << 17) * 8, true);
        }
        plan
    }

    /// `run_plan` is pinned to one `access` per op on every model,
    /// traced or not: each plan is replayed in 256-op turns that
    /// alternate between the domains, through `run_plan` on one system
    /// and an `access` loop on another. Cycles per turn, both
    /// domains' stats and writebacks, the debug access trace and the
    /// full event stream must all match.
    #[test]
    fn run_plan_matches_per_access_loop() {
        let plans = [mixed_plan(), ping_pong_plan(), scattered_plan()];
        for model in HardwareModel::ALL {
            for traced in [false, true] {
                let mut fast = sys(model);
                let mut slow = sys(model);
                let tracers = traced.then(|| {
                    let (a, b) = (
                        stramash_sim::shared_tracer(1 << 18),
                        stramash_sim::shared_tracer(1 << 18),
                    );
                    fast.set_tracer(a.clone());
                    slow.set_tracer(b.clone());
                    fast.enable_trace();
                    slow.enable_trace();
                    (a, b)
                });
                let line_mask = !(fast.line_bytes() - 1);
                for round in 0..2 {
                    for (p, plan) in plans.iter().enumerate() {
                        for (turn, lo) in (0..plan.len()).step_by(256).enumerate() {
                            let hi = (lo + 256).min(plan.len());
                            let domain = if turn % 2 == 0 { DomainId::X86 } else { DomainId::ARM };
                            let got = fast.run_plan(domain, plan, lo..hi);
                            let mut want = Cycles::ZERO;
                            for op in plan.iter().skip(lo).take(hi - lo) {
                                let access = if op.write { Access::Write } else { Access::Read };
                                let addr = PhysAddr::new(op.addr & line_mask);
                                want += slow.access(domain, addr, access, AccessKind::Data).cycles;
                            }
                            let ctx = format!("{model:?} traced={traced} round {round} plan {p}");
                            assert_eq!(got, want, "{ctx} turn {turn}: plan cycles");
                        }
                    }
                }
                for d in [DomainId::X86, DomainId::ARM] {
                    let st = fast.stats(d);
                    assert!(st.snoop_invalidations > 0, "{model:?} {d:?}: plans must ping-pong");
                    assert_eq!(st, slow.stats(d), "{model:?} traced={traced} {d:?}");
                    assert_eq!(
                        fast.writebacks(d),
                        slow.writebacks(d),
                        "{model:?} {d:?} writebacks"
                    );
                }
                if let Some((a, b)) = tracers {
                    assert_eq!(fast.take_trace(), slow.take_trace(), "{model:?}: access trace");
                    let (a, b) = (a.borrow(), b.borrow());
                    assert_eq!(a.dropped(), 0, "{model:?}: ring must hold the whole run");
                    assert_eq!(a.events(), b.events(), "{model:?}: event stream");
                }
            }
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
