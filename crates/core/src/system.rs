//! The fused-kernel operating system (§5, §6) — the paper's primary
//! contribution.
//!
//! [`StramashSystem`] runs the same kernel-pair substrate as the Popcorn
//! baseline, but replaces nearly every message protocol with direct
//! cache-coherent shared-memory access:
//!
//! * **Remote VMA walker** (§6.4): instead of a message exchange, the
//!   faulting kernel takes the origin's VMA lock with a cross-ISA CAS
//!   and walks the tree in shared memory.
//! * **Software remote page-table walker** (§6.4): the remote kernel
//!   reads the origin's table levels directly (paying remote-memory
//!   latency), using the origin ISA's masks.
//! * **Stramash page-fault handler** (§6.4): the remote kernel allocates
//!   anonymous pages from its *own* memory without notifying the origin,
//!   inserts them into both page tables under the cross-ISA
//!   **Stramash-PTL**, writing the origin-side entry in the remote
//!   node's ISA format; the entry is reconfigured to the origin format
//!   when the process migrates back. Only when the origin's upper table
//!   levels are missing does the origin handle the fault over messages
//!   (§9.2.3) — the residual replications of Table 3.
//! * **Fused futex** (§6.5): remote kernels operate on the futex word
//!   and the origin's futex list directly; waking a cross-kernel waiter
//!   costs a single cross-ISA IPI.
//! * **Global memory allocator** (§6.3): blocks of the shared pool are
//!   granted on memory pressure and evicted from the peer when the pool
//!   runs dry (hotplug-style offline/online, Table 4).

use crate::galloc::{GallocError, GlobalAllocator, PRESSURE_THRESHOLD};
use stramash_isa::{PteFlags, RawPte};
use stramash_kernel::addr::{VirtAddr, PAGE_SIZE};
use stramash_kernel::futex::{ThreadId, Waiter};
use stramash_kernel::msg::{Message, MsgType};
use stramash_kernel::pagetable::{MapError, PageTable};
use stramash_kernel::process::Pid;
use stramash_kernel::system::{
    protocol_round_trip, BaseSystem, OsError, OsSystem, FAULT_TRAP_COST,
};
use stramash_kernel::BootConfig;
use stramash_mem::PhysAddr;
use stramash_sim::config::ConfigError;
use stramash_sim::trace::{FutexOp, TraceEvent, HIST_FUTEX_WAIT};
use stramash_sim::{Cycles, DomainId, IntMap, SharedTracer, SimConfig};

/// Cycles charged to retry a transiently failed frame allocation.
const ALLOC_RETRY_COST: Cycles = Cycles::new(200);

/// Maximum Stramash-PTL acquisition attempts before the path aborts
/// with [`OsError::LockTimeout`].
const MAX_PTL_ATTEMPTS: u32 = 8;

/// Base backoff charged after a contended Stramash-PTL attempt; doubles
/// per retry, capped at 8×.
const PTL_BACKOFF_BASE: Cycles = Cycles::new(200);

/// Default global-allocator block size used by the experiments (§9.2.7
/// uses 256 MB slices).
pub const DEFAULT_BLOCK_SIZE: u64 = 256 << 20;

/// Fused-OS specific counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StramashCounters {
    /// Remote faults resolved with zero messages (direct PTE insertion).
    pub direct_remote_faults: u64,
    /// Stramash-PTL acquisitions.
    pub ptl_acquisitions: u64,
    /// Remote VMA-tree walks over shared memory.
    pub remote_vma_walks: u64,
    /// Remote-format PTEs reconfigured at migrate-back (§6.4).
    pub pte_reconfigurations: u64,
    /// Futex wakes delivered with a single cross-ISA IPI.
    pub futex_wake_ipis: u64,
    /// Pool blocks granted by the global allocator.
    pub blocks_granted: u64,
    /// Pool blocks evicted from the peer kernel.
    pub blocks_evicted: u64,
}

/// The fused-kernel OS.
#[derive(Debug)]
pub struct StramashSystem {
    base: BaseSystem,
    galloc: GlobalAllocator,
    counters: StramashCounters,
    /// Origin-side PTEs currently encoded in the remote ISA's format
    /// (pid → virtual page numbers). Converted in bulk at migrate-back,
    /// or lazily if the origin kernel faults on one first (§6.4).
    remote_fmt_ptes: IntMap<u32, std::collections::BTreeSet<u64>>,
}

impl StramashSystem {
    /// Boots the fused-kernel OS with the paper's defaults (SHM
    /// messaging for the residual protocols, 256 MB pool blocks).
    ///
    /// # Errors
    ///
    /// Configuration errors.
    pub fn new(cfg: SimConfig) -> Result<Self, OsError> {
        Self::with_block_size(cfg, DEFAULT_BLOCK_SIZE)
    }

    /// Boots with an explicit global-allocator block size.
    ///
    /// # Errors
    ///
    /// Configuration errors, including [`ConfigError::PoolBlockSize`] for
    /// a block size the global allocator cannot tile the pool with.
    pub fn with_block_size(cfg: SimConfig, block_size: u64) -> Result<Self, OsError> {
        let base = BaseSystem::new(cfg, &BootConfig::paper_default())?;
        let vmemmap = [PhysAddr::new(32 << 20), PhysAddr::new((3u64 << 29) + (32 << 20))];
        // Construction fails only on a bad block size or a pool smaller
        // than one block; both are this one configuration error.
        let galloc = GlobalAllocator::new(base.pool_start, base.pool_end, block_size, vmemmap)
            .map_err(|_| ConfigError::PoolBlockSize {
                block_size,
                pool_bytes: base.pool_end.raw() - base.pool_start.raw(),
            })?;
        Ok(StramashSystem {
            base,
            galloc,
            counters: StramashCounters::default(),
            remote_fmt_ptes: IntMap::default(),
        })
    }

    /// Spawns a process on `origin`.
    ///
    /// # Errors
    ///
    /// Allocation errors.
    pub fn spawn(&mut self, origin: DomainId) -> Result<Pid, OsError> {
        self.base.spawn(origin)
    }

    /// Fused-OS counters.
    #[must_use]
    pub fn counters(&self) -> &StramashCounters {
        &self.counters
    }

    /// Installs a shared tracer across the whole stack (memory system,
    /// messaging layer, IPI fabric, and the fused-OS events emitted by
    /// this system).
    pub fn install_tracer(&mut self, tracer: SharedTracer) {
        self.base.install_tracer(tracer);
    }

    /// The global allocator (Table 4 benches drive it directly).
    #[must_use]
    pub fn global_allocator(&self) -> &GlobalAllocator {
        &self.galloc
    }

    /// Replicated-page count (Table 3): only origin-handled faults
    /// replicate under Stramash.
    #[must_use]
    pub fn replicated_pages(&self) -> u64 {
        self.base.kernels.iter().map(|k| k.counters.replicated_pages).sum()
    }

    /// Serializes the whole system — base machine, global-allocator
    /// ownership, fused-OS counters and the pending remote-format PTE
    /// sets — into a checkpoint section.
    pub fn save_state(&self, e: &mut stramash_sim::checkpoint::Encoder) {
        e.tag(0x5354_524d); // "STRM"
        self.base.save_state(e);
        self.galloc.save_state(e);
        let c = &self.counters;
        for v in [
            c.direct_remote_faults,
            c.ptl_acquisitions,
            c.remote_vma_walks,
            c.pte_reconfigurations,
            c.futex_wake_ipis,
            c.blocks_granted,
            c.blocks_evicted,
        ] {
            e.u64(v);
        }
        let mut pids: Vec<u32> = self.remote_fmt_ptes.keys().copied().collect();
        pids.sort_unstable();
        e.u64(pids.len() as u64);
        for pid in pids {
            e.u32(pid);
            let vpns: Vec<u64> = self.remote_fmt_ptes[&pid].iter().copied().collect();
            e.u64s(&vpns);
        }
    }

    /// Restores state written by [`StramashSystem::save_state`] into
    /// this freshly booted system (same boot configuration required).
    ///
    /// # Errors
    ///
    /// Decoding errors; geometry mismatches surface as `ConfigMismatch`.
    pub fn load_state(
        &mut self,
        d: &mut stramash_sim::checkpoint::Decoder<'_>,
    ) -> Result<(), stramash_sim::checkpoint::CheckpointError> {
        d.tag(0x5354_524d)?;
        self.base.load_state(d)?;
        self.galloc.load_state(d)?;
        self.counters = StramashCounters {
            direct_remote_faults: d.u64()?,
            ptl_acquisitions: d.u64()?,
            remote_vma_walks: d.u64()?,
            pte_reconfigurations: d.u64()?,
            futex_wake_ipis: d.u64()?,
            blocks_granted: d.u64()?,
            blocks_evicted: d.u64()?,
        };
        let n = d.len()?;
        let mut remote_fmt = IntMap::with_capacity_and_hasher(n, Default::default());
        for _ in 0..n {
            let pid = d.u32()?;
            let vpns: std::collections::BTreeSet<u64> = d.u64s()?.into_iter().collect();
            remote_fmt.insert(pid, vpns);
        }
        self.remote_fmt_ptes = remote_fmt;
        Ok(())
    }

    /// Audits the fused-kernel invariants without timing side effects:
    /// ring-cursor sanity and MESI directory agreement (via
    /// [`BaseSystem::audit`]), plus for every VMA page the §6.4
    /// page-table ↔ VMA ↔ frame-ownership consistency — both kernels'
    /// page tables must agree on the backing frame, and that frame must
    /// be owned by one of the kernels. Pages whose origin-side PTE is
    /// still in the remote ISA's format (pending migrate-back
    /// reconfiguration) are checked on the remote side only. Returns
    /// one message per violation; an empty vector means the system is
    /// consistent after the latest fault-injection round.
    #[must_use]
    pub fn audit(&self) -> Vec<String> {
        let mut violations = self.base.audit();
        for proc in self.base.processes() {
            let remote_fmt = self.remote_fmt_ptes.get(&proc.pid.0);
            for vma in proc.vmas.iter() {
                for p in 0..vma.pages() {
                    let va = vma.start.offset(p * PAGE_SIZE);
                    let in_remote_fmt = remote_fmt.is_some_and(|s| s.contains(&va.vpn()));
                    let mut mapped = [None, None];
                    for d in DomainId::ALL {
                        // An origin-side entry in the remote format
                        // decodes with the wrong masks until migrate-back
                        // reconfigures it — skip that side.
                        if in_remote_fmt && d == proc.origin {
                            continue;
                        }
                        let Some(pt) = proc.page_table(d) else { continue };
                        if let Some((pa, _)) = pt.walk_untimed(&self.base.mem, va) {
                            mapped[d.index()] = Some(pa.align_down(PAGE_SIZE));
                        }
                    }
                    for d in DomainId::ALL {
                        let Some(frame) = mapped[d.index()] else { continue };
                        let owned = DomainId::ALL
                            .iter()
                            .any(|k| self.base.kernels[k.index()].frames.owns(frame));
                        if !owned {
                            violations.push(format!(
                                "{}: {va} maps frame {frame} owned by no kernel",
                                proc.pid
                            ));
                        }
                    }
                    if let [Some(a), Some(b)] = mapped {
                        if a != b {
                            violations
                                .push(format!("{}: {va} maps {a} on x86 but {b} on arm", proc.pid));
                        }
                    }
                }
            }
        }
        violations
    }

    /// Allocates a zeroed frame for `domain`, engaging the global
    /// allocator when pressure passes 70 % or memory runs out (§6.3).
    ///
    /// Under an installed fault injector this path degrades gracefully:
    /// a transient allocation fault is retried once at a small cycle
    /// cost; a one-shot forced pool exhaustion denies the pressure
    /// grant and falls back to the local free list, then to an eviction
    /// retry through [`StramashSystem::grow`], before any typed error
    /// surfaces.
    fn alloc_frame(&mut self, domain: DomainId) -> Result<PhysAddr, OsError> {
        let (forced_exhaust, transient_fail) = match self.base.fault_injector() {
            Some(inj) => {
                let mut inj = inj.borrow_mut();
                (inj.galloc_exhausted(), inj.alloc_fails())
            }
            None => (false, false),
        };
        if transient_fail {
            // The first buddy attempt is discarded and immediately
            // retried; only the retry overhead is observable.
            self.base.charge(domain, ALLOC_RETRY_COST);
            self.base.mem.stats_mut(domain).note_retried_fault();
        }
        if forced_exhaust {
            self.base.mem.stats_mut(domain).faults_injected += 1;
        }
        if !forced_exhaust
            && self.base.kernels[domain.index()].frames.pressure() > PRESSURE_THRESHOLD
        {
            // Best effort: failure to grow is not fatal while frames
            // remain.
            let _ = self.grow(domain);
        }
        let frame = match self.base.kernels[domain.index()].frames.alloc() {
            Ok(f) => {
                if forced_exhaust {
                    // Grant denied, but the local free list still had a
                    // frame: graceful degradation, no grow needed.
                    self.base.mem.stats_mut(domain).faults_recovered += 1;
                }
                f
            }
            Err(_) => {
                // Eviction retry: grow (possibly evicting a peer block)
                // and allocate again before surfacing a typed error.
                if forced_exhaust {
                    self.base.mem.stats_mut(domain).faults_retried += 1;
                }
                self.grow(domain)?;
                let f = self.base.kernels[domain.index()].frames.alloc()?;
                if forced_exhaust {
                    self.base.mem.stats_mut(domain).faults_recovered += 1;
                }
                f
            }
        };
        self.base.mem.store_mut().fill(frame, PAGE_SIZE, 0);
        Ok(frame)
    }

    /// Grants `domain` one more pool block, evicting from the peer if
    /// the pool is exhausted.
    fn grow(&mut self, domain: DomainId) -> Result<(), OsError> {
        let block_size = self.galloc.block_size();
        match self.galloc.request(domain) {
            Ok(start) => {
                let pages = block_size / PAGE_SIZE;
                let c = self.galloc.online_cost(&mut self.base.mem, domain, pages);
                self.base.charge(domain, c);
                self.base.kernels[domain.index()].frames.add_region(start, block_size)?;
                self.counters.blocks_granted += 1;
                Ok(())
            }
            Err(GallocError::Exhausted) => {
                // §6.3: "the allocator will try to evict a block from the
                // other kernels".
                let peer = domain.other();
                let victim = self
                    .galloc
                    .eviction_candidate(domain)
                    .map_err(|_| OsError::Frame(stramash_kernel::FrameError::OutOfMemory))?;
                // The peer must have evacuated it (no live allocations).
                let peer_frames = &mut self.base.kernels[peer.index()].frames;
                if peer_frames.region_allocated(victim).unwrap_or(1) != 0 {
                    return Err(OsError::Frame(stramash_kernel::FrameError::RegionBusy {
                        allocated: peer_frames.region_allocated(victim).unwrap_or(0),
                    }));
                }
                peer_frames.remove_region(victim)?;
                let pages = block_size / PAGE_SIZE;
                let c_off = self.galloc.offline_cost(&mut self.base.mem, peer, pages);
                self.base.charge(peer, c_off);
                self.galloc
                    .transfer(victim, domain)
                    .map_err(|_| OsError::InvariantViolation("eviction candidate vanished"))?;
                let c_on = self.galloc.online_cost(&mut self.base.mem, domain, pages);
                self.base.charge(domain, c_on);
                self.base.kernels[domain.index()].frames.add_region(victim, block_size)?;
                self.counters.blocks_evicted += 1;
                Ok(())
            }
            Err(_) => {
                Err(OsError::InvariantViolation("unexpected global-allocator error on grant"))
            }
        }
    }

    /// §6.4 remote VMA walk: take the origin's VMA lock with a cross-ISA
    /// CAS, descend the tree in shared memory, release. Charged to the
    /// walking domain.
    fn remote_vma_walk(&mut self, pid: Pid, walker: DomainId) -> Result<Cycles, OsError> {
        let (lock_pa, depth) = {
            let proc = self.base.process(pid)?;
            let depth = (proc.vmas.len().max(1) as f64).log2().ceil() as u64 + 1;
            (proc.vma_lock, depth)
        };
        let penalty = self.base.kernels[walker.index()].atomics.rmw_penalty();
        let (_, mut cycles) = self.base.mem.cas_u64(walker, lock_pa, 0, 1, penalty);
        // Tree descent: one shared-memory node read per level.
        for i in 0..depth {
            let (_, c) = self.base.mem.read_u64(walker, lock_pa.offset(128 + i * 64));
            cycles += c;
        }
        cycles += self.base.mem.write_u64(walker, lock_pa, 0);
        self.base.charge(walker, cycles);
        self.counters.remote_vma_walks += 1;
        Ok(cycles)
    }

    /// Acquire/release pair on the cross-ISA Stramash-PTL, with a
    /// bounded abort-and-retry path: a contended attempt (injected —
    /// the simulator is single-threaded, so real contention cannot
    /// arise) aborts the acquisition, backs off exponentially and
    /// retries; exhausting the budget surfaces [`OsError::LockTimeout`]
    /// instead of spinning forever.
    fn with_ptl(&mut self, pid: Pid, domain: DomainId) -> Result<(PhysAddr, Cycles), OsError> {
        let ptl = self.base.process(pid)?.page_table_lock;
        let penalty = self.base.kernels[domain.index()].atomics.rmw_penalty();
        let mut total = Cycles::ZERO;
        for attempt in 1..=MAX_PTL_ATTEMPTS {
            let contended =
                self.base.fault_injector().is_some_and(|inj| inj.borrow_mut().lock_contended());
            let (res, c) = self.base.mem.cas_u64(domain, ptl, 0, 1, penalty);
            self.base.charge(domain, c);
            total += c;
            if res.is_ok() && !contended {
                if attempt > 1 {
                    self.base.mem.stats_mut(domain).faults_recovered += 1;
                }
                self.counters.ptl_acquisitions += 1;
                return Ok((ptl, total));
            }
            if contended && res.is_ok() {
                // The injected view says the peer holds the lock: undo
                // our acquisition before backing off (abort-and-retry).
                let c_undo = self.base.mem.write_u64(domain, ptl, 0);
                self.base.charge(domain, c_undo);
                total += c_undo;
            }
            let s = self.base.mem.stats_mut(domain);
            s.faults_injected += u64::from(contended);
            s.faults_retried += 1;
            let backoff = Cycles::new(PTL_BACKOFF_BASE.raw() << (attempt - 1).min(3));
            self.base.charge(domain, backoff);
            total += backoff;
        }
        Err(OsError::LockTimeout { pid })
    }

    fn release_ptl(&mut self, ptl: PhysAddr, domain: DomainId) -> Cycles {
        let c = self.base.mem.write_u64(domain, ptl, 0);
        self.base.charge(domain, c);
        c
    }

    /// Rewrites one origin-side leaf entry from the remote ISA's format
    /// into the origin's own format (§6.4: "the origin kernel can simply
    /// reconfigure the PTE to its own format").
    fn reconfigure_pte(
        &mut self,
        pid: Pid,
        origin: DomainId,
        va: VirtAddr,
    ) -> Result<Cycles, OsError> {
        let origin_pt = self
            .base
            .process(pid)?
            .page_table(origin)
            .copied()
            .ok_or(OsError::InvariantViolation("origin kernel lost its page table"))?;
        let remote_isa = self.base.kernels[origin.other().index()].isa;
        let origin_isa = self.base.kernels[origin.index()].isa;
        let (slot, mut cycles) = origin_pt.leaf_slot(&mut self.base.mem, origin, va, true);
        if let Ok(slot) = slot {
            let (raw, c_read) = self.base.mem.read_u64(origin, slot);
            cycles += c_read;
            let converted = (RawPte { raw, isa: remote_isa }).convert_to(origin_isa);
            cycles += self.base.mem.write_u64(origin, slot, converted.raw);
            self.counters.pte_reconfigurations += 1;
        }
        if let Some(set) = self.remote_fmt_ptes.get_mut(&pid.0) {
            set.remove(&va.vpn());
        }
        self.base.process_mut(pid)?.tlb_mut(origin).invalidate(va);
        self.base.emit(TraceEvent::TlbInvalidate { domain: origin, va: va.raw() });
        self.base.charge(origin, cycles);
        Ok(cycles)
    }

    /// Maps `frame` at `va` into the faulting kernel's own page table,
    /// upgrading the protection in place if a mapping already exists.
    fn map_own(
        &mut self,
        pid: Pid,
        domain: DomainId,
        own_pt: PageTable,
        va: VirtAddr,
        frame: PhysAddr,
        flags: PteFlags,
    ) -> Result<Cycles, OsError> {
        let cycles = {
            let base = &mut self.base;
            let (mem, kernels) = (&mut base.mem, &mut base.kernels);
            match own_pt.map(
                mem,
                &mut kernels[domain.index()].frames,
                domain,
                va.page_base(),
                frame,
                flags,
                true,
            ) {
                Ok(c) => c,
                Err(MapError::AlreadyMapped(_)) => {
                    let (_, c) = own_pt.protect(mem, domain, va.page_base(), flags, true);
                    c
                }
                Err(e) => return Err(OsError::Map(e)),
            }
        };
        self.base.charge(domain, cycles);
        self.base.process_mut(pid)?.tlb_mut(domain).invalidate(va);
        Ok(cycles)
    }

    /// Terminates a process, applying the §6.4 recycling discipline:
    /// each kernel invalidates its own PTEs, but a page is released only
    /// by the kernel that allocated it. Returns the number of frames
    /// each kernel freed.
    ///
    /// # Errors
    ///
    /// [`OsError::NoSuchProcess`].
    pub fn exit(&mut self, pid: Pid) -> Result<[u64; 2], OsError> {
        let vmas: Vec<(VirtAddr, u64)> =
            self.base.process(pid)?.vmas.iter().map(|v| (v.start, v.pages())).collect();
        let pts: [Option<PageTable>; 2] = [
            self.base.process(pid)?.page_table(DomainId::X86).copied(),
            self.base.process(pid)?.page_table(DomainId::ARM).copied(),
        ];
        let mut freed = [0u64; 2];
        for (start, pages) in vmas {
            for p in 0..pages {
                let va = start.offset(p * PAGE_SIZE);
                let mut released = false;
                for d in DomainId::ALL {
                    let Some(pt) = pts[d.index()] else { continue };
                    let (old, _) = pt.unmap(&mut self.base.mem, d, va, false);
                    let Some(frame) = old else { continue };
                    // Only the allocating kernel releases the page.
                    if !released {
                        for owner in DomainId::ALL {
                            if self.base.kernels[owner.index()].frames.owns(frame) {
                                self.base.kernels[owner.index()].frames.free(frame)?;
                                freed[owner.index()] += 1;
                                released = true;
                                break;
                            }
                        }
                    }
                }
            }
        }
        Ok(freed)
    }
}

impl OsSystem for StramashSystem {
    fn base(&self) -> &BaseSystem {
        &self.base
    }

    fn base_mut(&mut self) -> &mut BaseSystem {
        &mut self.base
    }

    fn name(&self) -> &'static str {
        "stramash"
    }

    fn handle_fault(&mut self, pid: Pid, va: VirtAddr, write: bool) -> Result<Cycles, OsError> {
        let (domain, origin, prot) = {
            let proc = self.base.process(pid)?;
            let vma = proc.vmas.find(va).ok_or(OsError::Segfault { pid, va })?;
            (proc.current, proc.origin, vma.prot)
        };
        if write && !prot.write {
            return Err(OsError::PermissionDenied { pid, va });
        }
        self.base.charge(domain, FAULT_TRAP_COST);
        let mut total = FAULT_TRAP_COST;

        let mut flags = PteFlags::user_data();
        flags.writable = prot.write;

        if domain == origin {
            let pt = self
                .base
                .process(pid)?
                .page_table(domain)
                .copied()
                .ok_or(OsError::InvariantViolation("origin kernel lost its page table"))?;
            // A fault on a page whose PTE the remote kernel wrote in its
            // own format: reconfigure it lazily (§6.4) and retry.
            if self.remote_fmt_ptes.get(&pid.0).is_some_and(|set| set.contains(&va.vpn())) {
                total += self.reconfigure_pte(pid, origin, va.page_base())?;
                return Ok(total);
            }
            let (slot, c_probe) = pt.leaf_slot(&mut self.base.mem, domain, va, true);
            self.base.charge(domain, c_probe);
            total += c_probe;
            if let Ok(slot_pa) = slot {
                let (raw, c_read) = self.base.mem.read_u64(domain, slot_pa);
                self.base.charge(domain, c_read);
                total += c_read;
                let origin_isa = self.base.kernels[origin.index()].isa;
                if (RawPte { raw, isa: origin_isa }).is_present() {
                    // Present but not writable enough: upgrade in place.
                    let (_, c) =
                        pt.protect(&mut self.base.mem, domain, va.page_base(), flags, true);
                    self.base.charge(domain, c);
                    total += c;
                    self.base.process_mut(pid)?.tlb_mut(domain).invalidate(va);
                    self.base.kernels[domain.index()].counters.local_faults += 1;
                    return Ok(total);
                }
            }
            // Plain anonymous fault — identical to a vanilla kernel.
            let frame = self.alloc_frame(domain)?;
            let c = {
                let base = &mut self.base;
                let (mem, kernels) = (&mut base.mem, &mut base.kernels);
                pt.map(
                    mem,
                    &mut kernels[domain.index()].frames,
                    domain,
                    va.page_base(),
                    frame,
                    flags,
                    true,
                )?
            };
            self.base.charge(domain, c);
            total += c;
            self.base.kernels[domain.index()].counters.local_faults += 1;
            return Ok(total);
        }

        // Remote fault: walk the origin's VMA list directly (§6.4).
        total += self.remote_vma_walk(pid, domain)?;
        let origin_pt = self
            .base
            .process(pid)?
            .page_table(origin)
            .copied()
            .ok_or(OsError::InvariantViolation("origin kernel lost its page table"))?;
        let own_pt = self.base.ensure_pt(pid, domain)?;

        // Software remote page-table walk: does the origin's chain reach
        // the PTE level? All reads are charged to the remote walker and
        // use the origin ISA's masks.
        let (slot, walk_c) = origin_pt.leaf_slot(&mut self.base.mem, domain, va, true);
        self.base.charge(domain, walk_c);
        total += walk_c;

        match slot {
            Ok(slot_pa) => {
                let (raw, c_read) = self.base.mem.read_u64(domain, slot_pa);
                self.base.charge(domain, c_read);
                total += c_read;
                let in_remote_fmt =
                    self.remote_fmt_ptes.get(&pid.0).is_some_and(|s| s.contains(&va.vpn()));
                // A remote-format entry is in our ISA's format, any
                // other in the origin's.
                let format_of = if in_remote_fmt { domain } else { origin };
                let isa = self.base.kernels[format_of.index()].isa;
                if let Some((pfn, _)) = (RawPte { raw, isa }).decode() {
                    // The origin already maps this page: map the SAME
                    // frame into our table — no copy, no messages. This
                    // is the fused no-replication property of §6.4.
                    let frame = PhysAddr::new(pfn << 12);
                    total += self.map_own(pid, domain, own_pt, va, frame, flags)?;
                    self.counters.direct_remote_faults += 1;
                } else {
                    // Empty leaf: THE fused allocation path. Allocate
                    // locally, insert into both tables under the
                    // Stramash-PTL — zero messages.
                    let (ptl, c_lock) = self.with_ptl(pid, domain)?;
                    total += c_lock;
                    let frame = self.alloc_frame(domain)?;
                    total += self.map_own(pid, domain, own_pt, va, frame, flags)?;
                    // Origin-side entry "with the remote node ISA
                    // format": encoded for *our* ISA, reconfigured when
                    // the process migrates back (§6.4).
                    let remote_isa = self.base.kernels[domain.index()].isa;
                    let raw_remote_fmt = stramash_isa::pte::encode_pte(
                        remote_isa.format(),
                        frame.raw() >> 12,
                        flags,
                    );
                    let c_write = self.base.mem.write_u64(domain, slot_pa, raw_remote_fmt.raw);
                    self.base.charge(domain, c_write);
                    total += c_write;
                    self.remote_fmt_ptes.entry(pid.0).or_default().insert(va.vpn());
                    total += self.release_ptl(ptl, domain);
                    self.base.kernels[domain.index()].counters.remote_pt_inserts += 1;
                    self.counters.direct_remote_faults += 1;
                }
            }
            Err(MapError::MissingTable { .. }) => {
                // §9.2.3: the origin handles the fault over messages and
                // the page is replicated.
                total += protocol_round_trip(
                    &mut self.base,
                    domain,
                    Message::control(MsgType::OriginFaultRequest),
                    Message::page(MsgType::OriginFaultResponse),
                );
                // The origin allocates the page and builds its own
                // chain; the response ships the page contents (counted
                // as a replication in Table 3). Both kernels then map
                // the SAME frame — cache coherence keeps it consistent,
                // unlike Popcorn's per-kernel copies.
                let origin_frame = self.alloc_frame(origin)?;
                let c_org = {
                    let base = &mut self.base;
                    let (mem, kernels) = (&mut base.mem, &mut base.kernels);
                    origin_pt.map(
                        mem,
                        &mut kernels[origin.index()].frames,
                        origin,
                        va.page_base(),
                        origin_frame,
                        flags,
                        true,
                    )?
                };
                self.base.charge(origin, c_org);
                total += c_org;
                total += self.map_own(pid, domain, own_pt, va, origin_frame, flags)?;
                let k = &mut self.base.kernels[domain.index()].counters;
                k.origin_handled_faults += 1;
                k.replicated_pages += 1;
            }
            Err(e) => return Err(OsError::Map(e)),
        }
        Ok(total)
    }

    fn migrate(&mut self, pid: Pid, to: DomainId) -> Result<Cycles, OsError> {
        let Some(mut total) = self.base.migrate_thread(pid, to)? else {
            return Ok(Cycles::ZERO);
        };
        // Migrating back to the origin: reconfigure remote-format PTEs
        // to the origin's format (§6.4).
        let origin = self.base.process(pid)?.origin;
        if to == origin {
            let pending: Vec<u64> = self
                .remote_fmt_ptes
                .remove(&pid.0)
                .map(|s| s.into_iter().collect())
                .unwrap_or_default();
            for vpn in pending {
                total += self.reconfigure_pte(pid, origin, VirtAddr::new(vpn << 12))?;
            }
        }
        Ok(total)
    }

    fn futex_lock(
        &mut self,
        pid: Pid,
        domain: DomainId,
        uaddr: VirtAddr,
    ) -> Result<Cycles, OsError> {
        // §6.5: the remote kernel operates on the futex word and the
        // origin's locking list directly — no messages.
        let origin = self.base.process(pid)?.origin;
        self.base.kernels[domain.index()].counters.futex_ops += 1;
        // Translate on behalf of the executing thread's domain (a
        // process may have one thread per kernel during the futex
        // experiments).
        let saved = self.base.process(pid)?.current;
        self.base.process_mut(pid)?.current = domain;
        let res = self.translate(pid, uaddr, true);
        self.base.process_mut(pid)?.current = saved;
        let (pa, _) = res?;
        let penalty = self.base.kernels[domain.index()].atomics.rmw_penalty();
        let (acquired, mut total) = {
            let (r, c) = self.base.mem.cas_u64(domain, pa, 0, 1, penalty);
            (r.is_ok(), c)
        };
        self.base.charge(domain, total);
        if !acquired {
            // Enqueue ourselves on the origin's list via shared memory.
            let lock_frame = self.base.process(pid)?.vma_lock;
            let mut c = Cycles::ZERO;
            let (_, c1) = self.base.mem.read_u64(domain, lock_frame.offset(192));
            c += c1;
            c += self.base.mem.write_u64(domain, lock_frame.offset(256), uaddr.raw());
            self.base.charge(domain, c);
            total += c;
            self.base.kernels[origin.index()]
                .futexes
                .wait(uaddr, Waiter { thread: ThreadId(u64::from(pid.0)), domain });
            self.base.emit(TraceEvent::Futex { domain, op: FutexOp::Wait, va: uaddr.raw() });
            self.base.observe(HIST_FUTEX_WAIT, total);
        } else {
            self.base.emit(TraceEvent::Futex { domain, op: FutexOp::Acquire, va: uaddr.raw() });
        }
        Ok(total)
    }

    fn futex_unlock(
        &mut self,
        pid: Pid,
        domain: DomainId,
        uaddr: VirtAddr,
    ) -> Result<Cycles, OsError> {
        let origin = self.base.process(pid)?.origin;
        self.base.kernels[domain.index()].counters.futex_ops += 1;
        let saved = self.base.process(pid)?.current;
        self.base.process_mut(pid)?.current = domain;
        let res = self.translate(pid, uaddr, true);
        self.base.process_mut(pid)?.current = saved;
        let (pa, _) = res?;
        let mut total = self.base.mem.write_u64(domain, pa, 0);
        // Check the origin's list directly for waiters.
        let lock_frame = self.base.process(pid)?.vma_lock;
        let (_, c_list) = self.base.mem.read_u64(domain, lock_frame.offset(192));
        total += c_list;
        self.base.charge(domain, total);
        if let Some(w) = self.base.kernels[origin.index()].futexes.wake_one(uaddr) {
            self.base.emit(TraceEvent::Futex {
                domain: w.domain,
                op: FutexOp::Wake,
                va: uaddr.raw(),
            });
            if w.domain != domain {
                // One cross-ISA IPI wakes the waiter (§6.5).
                let c = self.base.ipi.send(domain, self.base.mem.stats_mut(domain));
                self.base.charge(domain, c);
                total += c;
                self.counters.futex_wake_ipis += 1;
            }
        }
        Ok(total)
    }

    fn munmap(&mut self, pid: Pid, start: VirtAddr) -> Result<[u64; 2], OsError> {
        let (domain, vma) = {
            let proc = self.base.process_mut(pid)?;
            let vma = proc.vmas.remove(start).ok_or(OsError::Segfault { pid, va: start })?;
            (proc.current, vma)
        };
        // §6.4's recycling discipline, message-free: each kernel
        // invalidates its own PTEs; the page is released only by the
        // kernel that allocated it. The peer's teardown happens through
        // shared memory (its PT is directly writable), charged to the
        // unmapping domain.
        let pts: [Option<PageTable>; 2] = [
            self.base.process(pid)?.page_table(DomainId::X86).copied(),
            self.base.process(pid)?.page_table(DomainId::ARM).copied(),
        ];
        let mut freed = [0u64; 2];
        for p in 0..vma.pages() {
            let va = start.offset(p * PAGE_SIZE);
            let mut released = false;
            for d in DomainId::ALL {
                let Some(pt) = pts[d.index()] else { continue };
                let (old, c) = pt.unmap(&mut self.base.mem, domain, va, true);
                self.base.charge(domain, c);
                self.base.process_mut(pid)?.tlb_mut(d).invalidate(va);
                self.base.emit(TraceEvent::TlbInvalidate { domain: d, va: va.raw() });
                let Some(frame) = old else { continue };
                if !released {
                    for owner in DomainId::ALL {
                        if self.base.kernels[owner.index()].frames.owns(frame) {
                            self.base.kernels[owner.index()].frames.free(frame)?;
                            freed[owner.index()] += 1;
                            released = true;
                            break;
                        }
                    }
                }
            }
            if let Some(set) = self.remote_fmt_ptes.get_mut(&pid.0) {
                set.remove(&va.vpn());
            }
        }
        Ok(freed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stramash_kernel::vma::VmaProt;
    use stramash_sim::HardwareModel;

    fn stramash() -> (StramashSystem, Pid) {
        let cfg = SimConfig::big_pair().with_hw_model(HardwareModel::Shared);
        let mut sys = StramashSystem::new(cfg).unwrap();
        let pid = sys.spawn(DomainId::X86).unwrap();
        (sys, pid)
    }

    #[test]
    fn remote_fault_sends_no_messages_when_chain_exists() {
        let (mut sys, pid) = stramash();
        let va = sys.mmap(pid, 64 << 10, VmaProt::rw()).unwrap();
        // Origin touches the first page → builds the origin chain.
        sys.store_u64(pid, va, 1).unwrap();
        sys.migrate(pid, DomainId::ARM).unwrap();
        let msgs_before = sys.base().msg.counters().total();
        // Remote touches a sibling page in the same 2 MB region.
        sys.store_u64(pid, va.offset(PAGE_SIZE), 2).unwrap();
        assert_eq!(
            sys.base().msg.counters().total(),
            msgs_before,
            "fused remote fault must be message-free"
        );
        assert_eq!(sys.counters().direct_remote_faults, 1);
        assert_eq!(sys.base().kernels[1].counters.remote_pt_inserts, 1);
        assert_eq!(sys.replicated_pages(), 0);
    }

    #[test]
    fn missing_upper_table_goes_to_origin_and_replicates() {
        let (mut sys, pid) = stramash();
        let va = sys.mmap(pid, 4096, VmaProt::rw()).unwrap();
        sys.migrate(pid, DomainId::ARM).unwrap();
        // First-ever touch from remote: the origin chain is missing.
        sys.store_u64(pid, va, 7).unwrap();
        let c = sys.base().msg.counters();
        assert_eq!(c.of_type(MsgType::OriginFaultRequest), 1);
        assert_eq!(c.of_type(MsgType::OriginFaultResponse), 1);
        assert_eq!(sys.replicated_pages(), 1);
        assert_eq!(sys.counters().direct_remote_faults, 0);
    }

    #[test]
    fn no_replication_compared_to_popcorn_on_spread_access() {
        let (mut sys, pid) = stramash();
        let va = sys.mmap(pid, 256 << 10, VmaProt::rw()).unwrap();
        // Origin warms the whole area (builds all chains).
        for i in 0..64u64 {
            sys.store_u64(pid, va.offset(i * PAGE_SIZE), i).unwrap();
        }
        sys.migrate(pid, DomainId::ARM).unwrap();
        // The pages are already mapped at the origin; remote reads walk
        // the origin PT remotely... but its own PT is empty → faults
        // resolve via direct insertion reading the same frames.
        for i in 0..64u64 {
            assert_eq!(sys.load_u64(pid, va.offset(i * PAGE_SIZE)).unwrap(), i);
        }
        assert_eq!(sys.replicated_pages(), 0, "reads of origin data never replicate");
    }

    #[test]
    fn remote_reads_see_origin_data_in_place() {
        // §6.4: no page replication — updates are immediately visible.
        let (mut sys, pid) = stramash();
        let va = sys.mmap(pid, 4096, VmaProt::rw()).unwrap();
        sys.store_u64(pid, va, 123).unwrap();
        sys.migrate(pid, DomainId::ARM).unwrap();
        assert_eq!(sys.load_u64(pid, va).unwrap(), 123);
        // Remote writes are immediately visible after migrating back.
        sys.store_u64(pid, va, 456).unwrap();
        sys.migrate(pid, DomainId::X86).unwrap();
        assert_eq!(sys.load_u64(pid, va).unwrap(), 456);
    }

    #[test]
    fn migrate_back_reconfigures_remote_format_ptes() {
        let (mut sys, pid) = stramash();
        let va = sys.mmap(pid, 64 << 10, VmaProt::rw()).unwrap();
        sys.store_u64(pid, va, 1).unwrap(); // origin chain
        sys.migrate(pid, DomainId::ARM).unwrap();
        sys.store_u64(pid, va.offset(PAGE_SIZE), 2).unwrap(); // direct insert
        assert_eq!(sys.counters().pte_reconfigurations, 0);
        sys.migrate(pid, DomainId::X86).unwrap();
        assert_eq!(sys.counters().pte_reconfigurations, 1);
        // After conversion the origin reads the remote-allocated page
        // through its own page table.
        assert_eq!(sys.load_u64(pid, va.offset(PAGE_SIZE)).unwrap(), 2);
    }

    #[test]
    fn fused_futex_is_message_free() {
        let (mut sys, pid) = stramash();
        let va = sys.mmap(pid, 4096, VmaProt::rw()).unwrap();
        sys.store_u64(pid, va, 0).unwrap();
        sys.migrate(pid, DomainId::ARM).unwrap();
        sys.store_u64(pid, va, 0).unwrap(); // ensure remote mapping
        let msgs = sys.base().msg.counters().total();
        sys.futex_lock(pid, DomainId::ARM, va).unwrap();
        sys.futex_unlock(pid, DomainId::X86, va).unwrap();
        assert_eq!(sys.base().msg.counters().total(), msgs, "no futex messages");
    }

    #[test]
    fn futex_wake_uses_single_ipi() {
        let (mut sys, pid) = stramash();
        let va = sys.mmap(pid, 4096, VmaProt::rw()).unwrap();
        sys.store_u64(pid, va, 0).unwrap();
        // x86 takes the lock; Arm contends and queues; x86 unlocks → one
        // cross-ISA IPI.
        sys.futex_lock(pid, DomainId::X86, va).unwrap();
        sys.futex_lock(pid, DomainId::ARM, va).unwrap(); // contended → waits
        let ipis_before = sys.base().mem.stats(DomainId::X86).ipi;
        sys.futex_unlock(pid, DomainId::X86, va).unwrap();
        assert_eq!(sys.counters().futex_wake_ipis, 1);
        assert_eq!(sys.base().mem.stats(DomainId::X86).ipi, ipis_before + 1);
    }

    #[test]
    fn exit_applies_split_recycling_discipline() {
        let (mut sys, pid) = stramash();
        let va = sys.mmap(pid, 64 << 10, VmaProt::rw()).unwrap();
        sys.store_u64(pid, va, 1).unwrap(); // origin page
        sys.migrate(pid, DomainId::ARM).unwrap();
        sys.store_u64(pid, va.offset(PAGE_SIZE), 2).unwrap(); // remote page
        let freed = sys.exit(pid).unwrap();
        // Each kernel released exactly the page it allocated (§6.4).
        assert_eq!(freed[DomainId::X86.index()], 1);
        assert_eq!(freed[DomainId::ARM.index()], 1);
    }

    #[test]
    fn bad_block_size_is_a_typed_config_error() {
        let cfg = SimConfig::big_pair().with_hw_model(HardwareModel::Shared);
        let pool_bytes = (4u64 << 30) - (128 << 20);
        let err = StramashSystem::with_block_size(cfg, 3).unwrap_err();
        assert_eq!(err, OsError::Config(ConfigError::PoolBlockSize { block_size: 3, pool_bytes }));
        assert!(err.to_string().contains("block size 3 is not a power of two"), "{err}");
    }

    #[test]
    fn pressure_growth_grants_pool_blocks() {
        // A tiny synthetic allocator state: drain the kernel's frames to
        // force galloc growth.
        let cfg = SimConfig::big_pair().with_hw_model(HardwareModel::Shared);
        let mut sys = StramashSystem::with_block_size(cfg, 32 << 20).unwrap();
        let pid = sys.spawn(DomainId::X86).unwrap();
        // Artificially shrink x86's memory: allocate almost everything.
        while sys.base().kernels[0].frames.pressure() < 0.71 {
            sys.base_mut().kernels[0].frames.alloc().unwrap();
        }
        let va = sys.mmap(pid, 4096, VmaProt::rw()).unwrap();
        sys.store_u64(pid, va, 1).unwrap();
        assert!(sys.counters().blocks_granted >= 1, "pressure must trigger a block grant");
    }

    #[test]
    fn audit_clean_after_migration_workload() {
        let (mut sys, pid) = stramash();
        let va = sys.mmap(pid, 64 << 10, VmaProt::rw()).unwrap();
        sys.store_u64(pid, va, 1).unwrap();
        sys.migrate(pid, DomainId::ARM).unwrap();
        sys.store_u64(pid, va.offset(PAGE_SIZE), 2).unwrap();
        assert!(sys.audit().is_empty(), "remote-format PTE pending is not a violation");
        sys.migrate(pid, DomainId::X86).unwrap();
        assert!(sys.audit().is_empty(), "reconfigured tables must agree");
    }

    #[test]
    fn injected_ptl_contention_backs_off_and_recovers() {
        let (mut sys, pid) = stramash();
        let plan = stramash_sim::FaultPlan::none().with_lock_contention(0.9).with_window(0, 3);
        sys.base_mut().install_fault_injector(stramash_sim::shared_injector(plan, 11));
        let va = sys.mmap(pid, 64 << 10, VmaProt::rw()).unwrap();
        sys.store_u64(pid, va, 1).unwrap();
        sys.migrate(pid, DomainId::ARM).unwrap();
        // Direct insertion takes the PTL; the first attempts are
        // injected-contended, the retry path must still succeed.
        sys.store_u64(pid, va.offset(PAGE_SIZE), 2).unwrap();
        assert_eq!(sys.load_u64(pid, va.offset(PAGE_SIZE)).unwrap(), 2);
        let s = sys.base().mem.stats(DomainId::ARM);
        assert!(s.faults_retried > 0, "contention must show up as retries");
        assert!(s.faults_recovered > 0);
        assert!(sys.audit().is_empty());
    }

    #[test]
    fn permanent_ptl_contention_times_out_with_typed_error() {
        let (mut sys, pid) = stramash();
        let plan = stramash_sim::FaultPlan::none().with_lock_contention(1.0);
        sys.base_mut().install_fault_injector(stramash_sim::shared_injector(plan, 5));
        let va = sys.mmap(pid, 64 << 10, VmaProt::rw()).unwrap();
        sys.store_u64(pid, va, 1).unwrap();
        sys.migrate(pid, DomainId::ARM).unwrap();
        let err = sys.store_u64(pid, va.offset(PAGE_SIZE), 2).unwrap_err();
        assert!(matches!(err, OsError::LockTimeout { pid: p } if p == pid));
    }

    #[test]
    fn forced_galloc_exhaustion_degrades_to_local_free_list() {
        let (mut sys, pid) = stramash();
        let plan = stramash_sim::FaultPlan::none().with_galloc_exhaust_at(0);
        sys.base_mut().install_fault_injector(stramash_sim::shared_injector(plan, 21));
        let va = sys.mmap(pid, 4096, VmaProt::rw()).unwrap();
        sys.store_u64(pid, va, 0xbeef).unwrap();
        assert_eq!(sys.load_u64(pid, va).unwrap(), 0xbeef);
        let s = sys.base().mem.stats(DomainId::X86);
        assert_eq!(s.faults_injected, 1, "the denied grant is recorded");
        assert_eq!(s.faults_recovered, 1, "the local free list recovered it");
        assert_eq!(sys.counters().blocks_granted, 0, "no pool block was granted");
        assert!(sys.audit().is_empty());
    }

    #[test]
    fn transient_alloc_fault_retries_at_a_cost() {
        let (mut sys, pid) = stramash();
        let plan = stramash_sim::FaultPlan::none().with_alloc_fail(1.0).with_window(0, 1);
        sys.base_mut().install_fault_injector(stramash_sim::shared_injector(plan, 8));
        let va = sys.mmap(pid, 4096, VmaProt::rw()).unwrap();
        sys.store_u64(pid, va, 3).unwrap();
        assert_eq!(sys.load_u64(pid, va).unwrap(), 3);
        let s = sys.base().mem.stats(DomainId::X86);
        assert_eq!(s.faults_injected, 1);
        assert_eq!(s.faults_retried, 1);
        assert_eq!(s.faults_recovered, 1);
    }

    #[test]
    fn stramash_remote_fault_cheaper_than_popcorn() {
        // The headline comparison in microcosm: after migration, filling
        // pages under Stramash (direct insertion) is cheaper than under
        // Popcorn (message + replication per page).
        let cfg = SimConfig::big_pair().with_hw_model(HardwareModel::Shared);
        let mut pop = popcorn_cost(cfg.clone());
        let mut stra = {
            let mut sys = StramashSystem::new(cfg).unwrap();
            let pid = sys.spawn(DomainId::X86).unwrap();
            let va = sys.mmap(pid, 512 << 10, VmaProt::rw()).unwrap();
            sys.store_u64(pid, va, 1).unwrap();
            sys.migrate(pid, DomainId::ARM).unwrap();
            let t0 = sys.runtime();
            for i in 1..128u64 {
                sys.store_u64(pid, va.offset(i * PAGE_SIZE), i).unwrap();
            }
            (sys.runtime() - t0).raw()
        };
        // Normalise out the shared constant work.
        pop = pop.max(1);
        stra = stra.max(1);
        assert!(pop > stra, "popcorn remote-page cost ({pop}) should exceed stramash ({stra})");
    }

    fn popcorn_cost(cfg: SimConfig) -> u64 {
        use popcorn_os::PopcornSystem;
        let mut sys = PopcornSystem::new_shm(cfg).unwrap();
        let pid = sys.spawn(DomainId::X86).unwrap();
        let va = sys.mmap(pid, 512 << 10, VmaProt::rw()).unwrap();
        sys.store_u64(pid, va, 1).unwrap();
        sys.migrate(pid, DomainId::ARM).unwrap();
        let t0 = sys.runtime();
        for i in 1..128u64 {
            sys.store_u64(pid, va.offset(i * PAGE_SIZE), i).unwrap();
        }
        (sys.runtime() - t0).raw()
    }
}
