//! The Popcorn-Linux baseline system: shared-nothing kernels coordinated
//! purely by messages (§2, §6.4, §8.2).
//!
//! Every cross-kernel interaction is a message round-trip over the
//! configured transport (shared-memory rings or TCP): remote VMA
//! lookups, anonymous page allocation, DSM page replication and
//! invalidation, futex operations, and thread migration. The fused
//! Stramash system replaces almost all of these with direct shared-
//! memory accesses — the quantitative difference is Figure 9/Table 3.

use crate::dsm::{DsmDirectory, DsmPageState};
use stramash_isa::PteFlags;
use stramash_kernel::addr::{VirtAddr, PAGE_SHIFT, PAGE_SIZE};
use stramash_kernel::msg::{Message, MsgType, Transport};
use stramash_kernel::process::Pid;
use stramash_kernel::system::{
    protocol_round_trip, BaseSystem, OsError, OsSystem, FAULT_TRAP_COST,
};
use stramash_kernel::BootConfig;
use stramash_mem::{Access, PhysAddr};
use stramash_sim::trace::{FutexOp, TraceEvent, HIST_DSM_TRANSFER};
use stramash_sim::{Cycles, DomainId, IntMap, IntSet, SharedTracer, SimConfig};

/// The multiple-kernel baseline OS.
#[derive(Debug)]
pub struct PopcornSystem {
    base: BaseSystem,
    dsm: IntMap<u32, DsmDirectory>,
    /// VMAs already fetched by the remote kernel, per process.
    vma_cache: IntMap<u32, IntSet<u64>>,
}

impl PopcornSystem {
    /// Boots Popcorn with shared-memory messaging (Popcorn-SHM, §8.2).
    ///
    /// # Errors
    ///
    /// Configuration errors.
    pub fn new_shm(cfg: SimConfig) -> Result<Self, OsError> {
        Self::with_boot(cfg, BootConfig::paper_default())
    }

    /// Boots Popcorn with TCP messaging (Popcorn-TCP, §8.2).
    ///
    /// # Errors
    ///
    /// Configuration errors.
    pub fn new_tcp(cfg: SimConfig) -> Result<Self, OsError> {
        Self::with_boot(cfg, BootConfig::tcp())
    }

    /// Boots Popcorn with an explicit boot configuration.
    ///
    /// # Errors
    ///
    /// Configuration errors.
    pub fn with_boot(cfg: SimConfig, boot: BootConfig) -> Result<Self, OsError> {
        Ok(PopcornSystem {
            base: BaseSystem::new(cfg, &boot)?,
            dsm: IntMap::default(),
            vma_cache: IntMap::default(),
        })
    }

    /// Spawns a process on `origin`.
    ///
    /// # Errors
    ///
    /// Allocation errors.
    pub fn spawn(&mut self, origin: DomainId) -> Result<Pid, OsError> {
        let pid = self.base.spawn(origin)?;
        self.dsm.insert(pid.0, DsmDirectory::new());
        self.vma_cache.insert(pid.0, IntSet::default());
        Ok(pid)
    }

    /// The messaging transport in use.
    #[must_use]
    pub fn transport(&self) -> Transport {
        self.base.msg.transport()
    }

    /// Installs a shared tracer across the whole stack (memory system,
    /// messaging layer, IPI fabric, and the DSM protocol events emitted
    /// by this system).
    pub fn install_tracer(&mut self, tracer: SharedTracer) {
        self.base.install_tracer(tracer);
    }

    /// DSM replication count for `pid` (Table 3).
    #[must_use]
    pub fn replicated_pages(&self, pid: Pid) -> u64 {
        self.dsm.get(&pid.0).map_or(0, DsmDirectory::replications)
    }

    /// Runs the cross-layer invariant auditor and returns every
    /// violation found (an empty vector means the system is sound).
    ///
    /// On top of the base checks (messaging-ring cursor sanity and
    /// MESI directory ↔ cache-state agreement) this verifies the DSM
    /// protocol's bookkeeping against the real page tables:
    ///
    /// * every tracked page still lies inside a live VMA,
    /// * every replica frame is owned by the kernel that holds it,
    /// * an `Exclusive` page is mapped by its owner at the recorded
    ///   frame and by nobody else,
    /// * a `SharedBoth` page is mapped read-only, and only at frames
    ///   the directory records.
    #[must_use]
    pub fn audit(&self) -> Vec<String> {
        let mut violations = self.base.audit();
        for proc in self.base.processes() {
            let pid = proc.pid;
            let Some(dir) = self.dsm.get(&pid.0) else {
                violations.push(format!("{pid}: process has no DSM directory"));
                continue;
            };
            for (vpn, page) in dir.iter() {
                let va = VirtAddr::new(vpn << PAGE_SHIFT);
                if proc.vmas.find(va).is_none() {
                    violations.push(format!("{pid} {va}: DSM tracks a page outside every VMA"));
                }
                for d in DomainId::ALL {
                    if let Some(frame) = page.frames[d.index()] {
                        if !self.base.kernels[d.index()].frames.owns(frame) {
                            violations.push(format!(
                                "{pid} {va}: {d} replica frame {frame} not owned by that kernel"
                            ));
                        }
                    }
                }
                let mapped = DomainId::ALL
                    .map(|d| proc.page_table(d).and_then(|pt| pt.walk_untimed(&self.base.mem, va)));
                match page.state {
                    DsmPageState::Exclusive(owner) => {
                        match mapped[owner.index()] {
                            Some((pa, _)) if Some(pa) == page.frames[owner.index()] => {}
                            Some(_) => violations.push(format!(
                                "{pid} {va}: exclusive owner maps a frame the directory does not record"
                            )),
                            None => violations.push(format!(
                                "{pid} {va}: exclusive owner {owner} has no mapping"
                            )),
                        }
                        if mapped[owner.other().index()].is_some() {
                            violations.push(format!(
                                "{pid} {va}: peer of exclusive owner {owner} still maps the page"
                            ));
                        }
                    }
                    DsmPageState::SharedBoth => {
                        for d in DomainId::ALL {
                            if let Some((pa, flags)) = mapped[d.index()] {
                                if Some(pa) != page.frames[d.index()] {
                                    violations.push(format!(
                                        "{pid} {va}: {d} maps a frame the directory does not record"
                                    ));
                                }
                                if flags.writable {
                                    violations.push(format!(
                                        "{pid} {va}: shared page is writable on {d}"
                                    ));
                                }
                            }
                        }
                    }
                }
            }
        }
        violations
    }

    /// Fails every process's DSM directory over after `dead`'s kernel
    /// died (see [`DsmDirectory::fail_over`]). Returns the totals
    /// `(pages lost, replicas shed)` across all processes.
    pub fn fail_over(&mut self, dead: DomainId) -> (u64, u64) {
        let mut lost = 0;
        let mut shed = 0;
        let mut pids: Vec<u32> = self.dsm.keys().copied().collect();
        pids.sort_unstable();
        for pid in pids {
            if let Some(dir) = self.dsm.get_mut(&pid) {
                let (l, s) = dir.fail_over(dead);
                lost += l;
                shed += s;
            }
        }
        (lost, shed)
    }

    /// Serializes the whole system — base machine, per-process DSM
    /// directories and remote-VMA caches — into a checkpoint section.
    pub fn save_state(&self, e: &mut stramash_sim::checkpoint::Encoder) {
        e.tag(0x504f_5043); // "POPC"
        self.base.save_state(e);
        let mut pids: Vec<u32> = self.dsm.keys().copied().collect();
        pids.sort_unstable();
        e.u64(pids.len() as u64);
        for pid in pids {
            e.u32(pid);
            self.dsm[&pid].save_state(e);
        }
        let mut pids: Vec<u32> = self.vma_cache.keys().copied().collect();
        pids.sort_unstable();
        e.u64(pids.len() as u64);
        for pid in pids {
            e.u32(pid);
            let mut starts: Vec<u64> = self.vma_cache[&pid].iter().copied().collect();
            starts.sort_unstable();
            e.u64s(&starts);
        }
    }

    /// Restores state written by [`PopcornSystem::save_state`] into this
    /// freshly booted system (same boot configuration required).
    ///
    /// # Errors
    ///
    /// Decoding errors; geometry mismatches surface as `ConfigMismatch`.
    pub fn load_state(
        &mut self,
        d: &mut stramash_sim::checkpoint::Decoder<'_>,
    ) -> Result<(), stramash_sim::checkpoint::CheckpointError> {
        d.tag(0x504f_5043)?;
        self.base.load_state(d)?;
        let n = d.len()?;
        let mut dsm = IntMap::with_capacity_and_hasher(n, Default::default());
        for _ in 0..n {
            let pid = d.u32()?;
            dsm.insert(pid, DsmDirectory::load_state(d)?);
        }
        self.dsm = dsm;
        let n = d.len()?;
        let mut vma_cache = IntMap::with_capacity_and_hasher(n, Default::default());
        for _ in 0..n {
            let pid = d.u32()?;
            vma_cache.insert(pid, d.u64s()?.into_iter().collect::<IntSet<u64>>());
        }
        self.vma_cache = vma_cache;
        Ok(())
    }

    /// Ensures the remote kernel has fetched the VMA covering `va`
    /// (Popcorn's remote-VMA fault protocol: "a VMA fault triggers a
    /// message exchange to the original kernel", §6.4).
    fn ensure_vma(&mut self, pid: Pid, domain: DomainId, va: VirtAddr) -> Result<Cycles, OsError> {
        let (origin, vma_start, prot_ok) = {
            let proc = self.base.process(pid)?;
            match proc.vmas.find(va) {
                Some(vma) => (proc.origin, vma.start.raw(), true),
                None => (proc.origin, 0, false),
            }
        };
        if !prot_ok {
            return Err(OsError::Segfault { pid, va });
        }
        if domain == origin {
            return Ok(Cycles::ZERO);
        }
        let cache = self.vma_cache.entry(pid.0).or_default();
        if !cache.insert(vma_start) {
            return Ok(Cycles::ZERO);
        }
        Ok(protocol_round_trip(
            &mut self.base,
            domain,
            Message::control(MsgType::VmaRequest),
            Message::control(MsgType::VmaResponse),
        ))
    }

    /// Allocates (and zeroes) a frame from `domain`'s kernel.
    fn alloc_frame(&mut self, domain: DomainId) -> Result<PhysAddr, OsError> {
        let frame = self.base.kernels[domain.index()].frames.alloc()?;
        self.base.mem.store_mut().fill(frame, PAGE_SIZE, 0);
        Ok(frame)
    }

    /// Maps `frame` at `va` in `domain`'s page table (timed), creating
    /// the table if the process does not have one on that kernel yet.
    fn map_into(
        &mut self,
        pid: Pid,
        domain: DomainId,
        va: VirtAddr,
        frame: PhysAddr,
        writable: bool,
    ) -> Result<Cycles, OsError> {
        let pt = self.base.ensure_pt(pid, domain)?;
        let mut flags = PteFlags::user_data();
        flags.writable = writable;
        let di = domain.index();
        // Split borrows: frames and mem live in different fields.
        let base = &mut self.base;
        let cycles = {
            let (mem, kernels) = (&mut base.mem, &mut base.kernels);
            match pt.map(mem, &mut kernels[di].frames, domain, va.page_base(), frame, flags, true) {
                Ok(c) => c,
                Err(stramash_kernel::pagetable::MapError::AlreadyMapped(_)) => {
                    // Remap: clear then set (ownership returned to us).
                    let (_, c1) = pt.unmap(mem, domain, va.page_base(), true);
                    let c2 = pt
                        .map(
                            mem,
                            &mut kernels[di].frames,
                            domain,
                            va.page_base(),
                            frame,
                            flags,
                            true,
                        )
                        .map_err(OsError::Map)?;
                    c1 + c2
                }
                Err(e) => return Err(OsError::Map(e)),
            }
        };
        base.charge(domain, cycles);
        let proc = base.process_mut(pid)?;
        proc.tlb_mut(domain).invalidate(va);
        Ok(cycles)
    }

    /// Removes `domain`'s mapping of `va` (DSM invalidation receiver
    /// side).
    fn unmap_from(&mut self, pid: Pid, domain: DomainId, va: VirtAddr) -> Result<Cycles, OsError> {
        let Some(pt) = self.base.process(pid)?.page_table(domain).copied() else {
            return Ok(Cycles::ZERO);
        };
        let (_, cycles) = pt.unmap(&mut self.base.mem, domain, va.page_base(), true);
        self.base.charge(domain, cycles);
        let proc = self.base.process_mut(pid)?;
        proc.tlb_mut(domain).invalidate(va);
        Ok(cycles)
    }

    /// Downgrades `domain`'s mapping of `va` to read-only (DSM share).
    fn downgrade(&mut self, pid: Pid, domain: DomainId, va: VirtAddr) -> Result<Cycles, OsError> {
        let Some(pt) = self.base.process(pid)?.page_table(domain).copied() else {
            return Ok(Cycles::ZERO);
        };
        let (_, cycles) = pt.protect(
            &mut self.base.mem,
            domain,
            va.page_base(),
            PteFlags::user_data().read_only(),
            true,
        );
        self.base.charge(domain, cycles);
        let proc = self.base.process_mut(pid)?;
        proc.tlb_mut(domain).invalidate(va);
        Ok(cycles)
    }

    /// Translates `va` as if the executing thread were on `domain`
    /// (the origin kernel servicing a forwarded futex operation),
    /// running the full DSM fault path if needed.
    fn translate_as(
        &mut self,
        pid: Pid,
        domain: DomainId,
        va: VirtAddr,
        write: bool,
    ) -> Result<(PhysAddr, Cycles), OsError> {
        let saved = self.base.process(pid)?.current;
        self.base.process_mut(pid)?.current = domain;
        let res = self.translate(pid, va, write);
        self.base.process_mut(pid)?.current = saved;
        res
    }

    /// Looks up the DSM directory for `pid`, which every spawned
    /// process owns for its entire lifetime.
    fn dsm_mut(&mut self, pid: Pid) -> Result<&mut DsmDirectory, OsError> {
        self.dsm.get_mut(&pid.0).ok_or(OsError::InvariantViolation("process has no DSM directory"))
    }

    /// The replication transfer: the holder reads its copy and ships it
    /// as a 4 KiB page message; the requester writes it into its own
    /// frame. Returns cycles charged.
    ///
    /// Reliability: the PageRequest/PageResponse round trip goes
    /// through [`stramash_kernel::msg::MessagingLayer`], so dropped or
    /// corrupted page messages are retransmitted (with acks, timeouts,
    /// and capped exponential backoff) transparently — DSM never sees a
    /// lost page, only a higher cycle charge.
    fn ship_page(
        &mut self,
        requester: DomainId,
        src_frame: PhysAddr,
        dst_frame: PhysAddr,
    ) -> Cycles {
        let holder = requester.other();
        let base = &mut self.base;
        // Holder reads the page out of its frame (into the ring).
        let c_read = base.mem.access_range(holder, src_frame, PAGE_SIZE, Access::Read);
        base.charge(holder, c_read);
        // Message round-trip with the page payload on the response.
        let total = protocol_round_trip(
            &mut self.base,
            requester,
            Message::control(MsgType::PageRequest),
            Message::page(MsgType::PageResponse),
        );
        // Requester stores the payload into its local frame; the bytes
        // move once, so later reads see real data.
        let base = &mut self.base;
        let c_write = base.mem.access_range(requester, dst_frame, PAGE_SIZE, Access::Write);
        base.charge(requester, c_write);
        base.mem.store_mut().copy(src_frame, dst_frame, PAGE_SIZE);
        let cost = c_read + c_write + total;
        self.base.emit(TraceEvent::DsmTransfer {
            from: holder,
            to: requester,
            bytes: PAGE_SIZE,
            cost,
        });
        self.base.observe(HIST_DSM_TRANSFER, cost);
        cost
    }
}

impl OsSystem for PopcornSystem {
    fn base(&self) -> &BaseSystem {
        &self.base
    }

    fn base_mut(&mut self) -> &mut BaseSystem {
        &mut self.base
    }

    fn name(&self) -> &'static str {
        "popcorn"
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
        total += self.ensure_vma(pid, domain, va)?;

        let vpn = va.vpn();
        let entry = self.dsm.get(&pid.0).and_then(|d| d.page(vpn)).copied();
        match entry {
            None => {
                if domain == origin {
                    // Plain local anonymous fault.
                    let frame = self.alloc_frame(domain)?;
                    total += self.map_into(pid, domain, va, frame, prot.write)?;
                    self.dsm_mut(pid)?.insert_exclusive(vpn, domain, frame);
                    self.base.kernels[domain.index()].counters.local_faults += 1;
                } else {
                    // §6.4: "anonymous pages are allocated in the origin
                    // kernel … at least 2 rounds of message passing".
                    let origin_frame = self.alloc_frame(origin)?;
                    let local_frame = self.alloc_frame(domain)?;
                    total += self.ship_page(domain, origin_frame, local_frame);
                    let dsm = self.dsm_mut(pid)?;
                    dsm.insert_exclusive(vpn, origin, origin_frame);
                    dsm.count_replication();
                    let page = dsm
                        .page_mut(vpn)
                        .ok_or(OsError::InvariantViolation("DSM page vanished after insert"))?;
                    page.frames[domain.index()] = Some(local_frame);
                    if write {
                        page.state = DsmPageState::Exclusive(domain);
                        total += self.map_into(pid, domain, va, local_frame, true)?;
                        // Origin's copy is stale the moment we write.
                        total += self.unmap_from(pid, origin, va)?;
                    } else {
                        page.state = DsmPageState::SharedBoth;
                        total += self.map_into(pid, domain, va, local_frame, false)?;
                        total += self.map_into(pid, origin, va, origin_frame, false)?;
                    }
                    self.base.emit(TraceEvent::DsmReplicate {
                        to: domain,
                        page_va: va.page_base().raw(),
                    });
                    self.base.kernels[domain.index()].counters.replicated_pages += 1;
                    self.base.kernels[domain.index()].counters.origin_handled_faults += 1;
                }
            }
            Some(page) => match page.state {
                DsmPageState::Exclusive(owner) if owner == domain => {
                    // We own it; the mapping was merely missing or RO.
                    let frame = page.frames[domain.index()]
                        .ok_or(OsError::InvariantViolation("exclusive DSM owner has no frame"))?;
                    total += self.map_into(pid, domain, va, frame, prot.write)?;
                    self.base.kernels[domain.index()].counters.local_faults += 1;
                }
                DsmPageState::Exclusive(owner) => {
                    // Fetch from the current owner.
                    let src = page.frames[owner.index()]
                        .ok_or(OsError::InvariantViolation("exclusive DSM owner has no frame"))?;
                    let dst = match page.frames[domain.index()] {
                        Some(f) => f,
                        None => self.alloc_frame(domain)?,
                    };
                    total += self.ship_page(domain, src, dst);
                    {
                        let dsm = self.dsm_mut(pid)?;
                        dsm.count_replication();
                        let p = dsm.page_mut(vpn).ok_or(OsError::InvariantViolation(
                            "DSM page vanished during replication",
                        ))?;
                        p.frames[domain.index()] = Some(dst);
                        p.state = if write {
                            DsmPageState::Exclusive(domain)
                        } else {
                            DsmPageState::SharedBoth
                        };
                    }
                    self.base.emit(TraceEvent::DsmReplicate {
                        to: domain,
                        page_va: va.page_base().raw(),
                    });
                    self.base.kernels[domain.index()].counters.replicated_pages += 1;
                    if write {
                        total += self.map_into(pid, domain, va, dst, true)?;
                        total += self.unmap_from(pid, owner, va)?;
                    } else {
                        total += self.map_into(pid, domain, va, dst, false)?;
                        total += self.downgrade(pid, owner, va)?;
                    }
                }
                DsmPageState::SharedBoth => {
                    let frame = match page.frames[domain.index()] {
                        Some(f) => f,
                        None => {
                            // Shouldn't normally happen; re-fetch.
                            let src = page.frames[domain.other().index()].ok_or(
                                OsError::InvariantViolation("shared DSM page has no peer frame"),
                            )?;
                            let dst = self.alloc_frame(domain)?;
                            let c = self.ship_page(domain, src, dst);
                            self.dsm_mut(pid)?
                                .page_mut(vpn)
                                .ok_or(OsError::InvariantViolation(
                                    "DSM page vanished during re-fetch",
                                ))?
                                .frames[domain.index()] = Some(dst);
                            total += c;
                            dst
                        }
                    };
                    if write {
                        // Invalidate the peer's replica, then upgrade.
                        let peer = domain.other();
                        total += protocol_round_trip(
                            &mut self.base,
                            domain,
                            Message::control(MsgType::PageInvalidate),
                            Message::control(MsgType::PageResponse),
                        );
                        total += self.unmap_from(pid, peer, va)?;
                        {
                            let dsm = self.dsm_mut(pid)?;
                            dsm.count_invalidation();
                            let p = dsm.page_mut(vpn).ok_or(OsError::InvariantViolation(
                                "DSM page vanished during invalidation",
                            ))?;
                            p.state = DsmPageState::Exclusive(domain);
                        }
                        self.base.emit(TraceEvent::DsmInvalidate {
                            to: peer,
                            page_va: va.page_base().raw(),
                        });
                        self.base.kernels[domain.other().index()].counters.dsm_invalidations += 1;
                        total += self.map_into(pid, domain, va, frame, true)?;
                    } else {
                        total += self.map_into(pid, domain, va, frame, false)?;
                        self.base.kernels[domain.index()].counters.local_faults += 1;
                    }
                }
            },
        }
        Ok(total)
    }

    fn migrate(&mut self, pid: Pid, to: DomainId) -> Result<Cycles, OsError> {
        Ok(self.base.migrate_thread(pid, to)?.unwrap_or(Cycles::ZERO))
    }

    fn futex_lock(
        &mut self,
        pid: Pid,
        domain: DomainId,
        uaddr: VirtAddr,
    ) -> Result<Cycles, OsError> {
        let origin = self.base.process(pid)?.origin;
        self.base.kernels[domain.index()].counters.futex_ops += 1;
        let mut total = Cycles::ZERO;
        if domain != origin {
            // §6.5: "the remote kernel must message the origin kernel to
            // engage the lock".
            total += protocol_round_trip(
                &mut self.base,
                domain,
                Message::control(MsgType::FutexRequest),
                Message::control(MsgType::FutexResponse),
            );
        }
        // The origin kernel performs the lock on its copy of the word,
        // faulting it in through the DSM protocol if the page currently
        // lives on the remote kernel.
        let (pa, walk) = self.translate_as(pid, origin, uaddr, true)?;
        total += walk;
        let penalty = self.base.kernels[origin.index()].atomics.rmw_penalty();
        let (_, c) = self.base.mem.cas_u64(origin, pa, 0, 1, penalty);
        self.base.charge(origin, c);
        total += c;
        self.base.emit(TraceEvent::Futex { domain, op: FutexOp::Acquire, va: uaddr.raw() });
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
        let mut total = Cycles::ZERO;
        if domain != origin {
            total += protocol_round_trip(
                &mut self.base,
                domain,
                Message::control(MsgType::FutexRequest),
                Message::control(MsgType::FutexResponse),
            );
        }
        let (pa, walk) = self.translate_as(pid, origin, uaddr, true)?;
        total += walk;
        let c = self.base.mem.write_u64(origin, pa, 0);
        self.base.charge(origin, c);
        total += c;
        // Wake a waiter if one exists; cross-domain waiters need a wake
        // message.
        if let Some(w) = self.base.kernels[origin.index()].futexes.wake_one(uaddr) {
            self.base.emit(TraceEvent::Futex {
                domain: w.domain,
                op: FutexOp::Wake,
                va: uaddr.raw(),
            });
            if w.domain != origin {
                let base = &mut self.base;
                let c = base.msg.send(
                    &mut base.mem,
                    &mut base.ipi,
                    origin,
                    Message::control(MsgType::FutexWake),
                );
                base.charge(origin, c);
                total += c;
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
        // The peer kernel must tear down its replicas and VMA copy — a
        // message round trip under the shared-nothing design.
        let peer_has_state = self.base.process(pid)?.page_table(domain.other()).is_some();
        if peer_has_state {
            protocol_round_trip(
                &mut self.base,
                domain,
                Message::control(MsgType::VmaRequest),
                Message::control(MsgType::VmaResponse),
            );
        }
        self.vma_cache.entry(pid.0).or_default().remove(&start.raw());
        let mut freed = [0u64; 2];
        for p in 0..vma.pages() {
            let va = start.offset(p * PAGE_SIZE);
            let vpn = va.vpn();
            // Each kernel unmaps and frees ITS OWN replica.
            for d in stramash_sim::DomainId::ALL {
                let Some(pt) = self.base.process(pid)?.page_table(d).copied() else { continue };
                let (old, c) = pt.unmap(&mut self.base.mem, d, va, true);
                self.base.charge(d, c);
                if old.is_some() {
                    self.base.process_mut(pid)?.tlb_mut(d).invalidate(va);
                }
            }
            if let Some(page) = self.dsm.get_mut(&pid.0).and_then(|dir| dir.remove(vpn)) {
                for d in stramash_sim::DomainId::ALL {
                    if let Some(frame) = page.frames[d.index()] {
                        self.base.kernels[d.index()].frames.free(frame)?;
                        freed[d.index()] += 1;
                    }
                }
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

    fn popcorn() -> (PopcornSystem, Pid) {
        let cfg = SimConfig::big_pair().with_hw_model(HardwareModel::Shared);
        let mut sys = PopcornSystem::new_shm(cfg).unwrap();
        let pid = sys.spawn(DomainId::X86).unwrap();
        (sys, pid)
    }

    #[test]
    fn local_faults_send_no_messages() {
        let (mut sys, pid) = popcorn();
        let va = sys.mmap(pid, 16 << 10, VmaProt::rw()).unwrap();
        sys.store_u64(pid, va, 1).unwrap();
        assert_eq!(sys.base().msg.counters().total(), 0);
        assert_eq!(sys.replicated_pages(pid), 0);
    }

    #[test]
    fn migration_exchanges_messages_and_switches_domain() {
        let (mut sys, pid) = popcorn();
        sys.migrate(pid, DomainId::ARM).unwrap();
        assert_eq!(sys.current_domain(pid).unwrap(), DomainId::ARM);
        let c = sys.base().msg.counters();
        assert_eq!(c.of_type(MsgType::MigrationRequest), 1);
        assert_eq!(c.of_type(MsgType::MigrationResponse), 1);
        assert_eq!(sys.base().kernels[1].counters.migrations_in, 1);
    }

    #[test]
    fn remote_first_touch_replicates_via_messages() {
        let (mut sys, pid) = popcorn();
        let va = sys.mmap(pid, 4096, VmaProt::rw()).unwrap();
        sys.migrate(pid, DomainId::ARM).unwrap();
        sys.store_u64(pid, va, 0xbeef).unwrap();
        let c = sys.base().msg.counters();
        // VMA fetch + page request/response.
        assert_eq!(c.of_type(MsgType::VmaRequest), 1);
        assert_eq!(c.of_type(MsgType::PageRequest), 1);
        assert_eq!(c.of_type(MsgType::PageResponse), 1);
        assert_eq!(sys.replicated_pages(pid), 1);
        assert_eq!(sys.load_u64(pid, va).unwrap(), 0xbeef);
    }

    #[test]
    fn data_written_remotely_survives_migration_back() {
        let (mut sys, pid) = popcorn();
        let va = sys.mmap(pid, 4096, VmaProt::rw()).unwrap();
        sys.migrate(pid, DomainId::ARM).unwrap();
        sys.store_u64(pid, va, 77).unwrap();
        sys.migrate(pid, DomainId::X86).unwrap();
        // Origin's copy was invalidated by the remote write; reading it
        // back must re-fetch via DSM and see 77.
        assert_eq!(sys.load_u64(pid, va).unwrap(), 77);
        assert!(sys.replicated_pages(pid) >= 2, "page shipped both ways");
    }

    #[test]
    fn read_sharing_then_write_invalidates() {
        let (mut sys, pid) = popcorn();
        let va = sys.mmap(pid, 4096, VmaProt::rw()).unwrap();
        // Origin writes first (owns the page).
        sys.store_u64(pid, va, 1).unwrap();
        sys.migrate(pid, DomainId::ARM).unwrap();
        // Remote read → SharedBoth.
        assert_eq!(sys.load_u64(pid, va).unwrap(), 1);
        let before = sys.base().msg.counters().of_type(MsgType::PageInvalidate);
        // Remote write on a shared page → invalidate the peer replica.
        sys.store_u64(pid, va, 2).unwrap();
        let after = sys.base().msg.counters().of_type(MsgType::PageInvalidate);
        assert_eq!(after - before, 1);
        sys.migrate(pid, DomainId::X86).unwrap();
        assert_eq!(sys.load_u64(pid, va).unwrap(), 2);
    }

    #[test]
    fn vma_fetched_once_per_area() {
        let (mut sys, pid) = popcorn();
        let va = sys.mmap(pid, 64 << 10, VmaProt::rw()).unwrap();
        sys.migrate(pid, DomainId::ARM).unwrap();
        for i in 0..8u64 {
            sys.store_u64(pid, va.offset(i * PAGE_SIZE), i).unwrap();
        }
        assert_eq!(sys.base().msg.counters().of_type(MsgType::VmaRequest), 1);
        // But each page needed its own replication round.
        assert_eq!(sys.base().msg.counters().of_type(MsgType::PageRequest), 8);
    }

    #[test]
    fn remote_futex_round_trips_to_origin() {
        let (mut sys, pid) = popcorn();
        let va = sys.mmap(pid, 4096, VmaProt::rw()).unwrap();
        // Fault the word in at the origin.
        sys.store_u64(pid, va, 0).unwrap();
        let origin_cost = sys.futex_lock(pid, DomainId::X86, va).unwrap();
        sys.futex_unlock(pid, DomainId::X86, va).unwrap();
        assert_eq!(sys.base().msg.counters().of_type(MsgType::FutexRequest), 0);
        let remote_cost = sys.futex_lock(pid, DomainId::ARM, va).unwrap();
        assert_eq!(sys.base().msg.counters().of_type(MsgType::FutexRequest), 1);
        assert!(
            remote_cost.raw() > origin_cost.raw() * 2,
            "remote futex ops pay the message protocol: {remote_cost} vs {origin_cost}"
        );
    }

    #[test]
    fn audit_clean_after_dsm_workload() {
        let (mut sys, pid) = popcorn();
        let va = sys.mmap(pid, 16 << 10, VmaProt::rw()).unwrap();
        sys.store_u64(pid, va, 1).unwrap();
        sys.migrate(pid, DomainId::ARM).unwrap();
        assert_eq!(sys.load_u64(pid, va).unwrap(), 1);
        sys.store_u64(pid, va.offset(PAGE_SIZE), 2).unwrap();
        sys.store_u64(pid, va, 3).unwrap();
        sys.migrate(pid, DomainId::X86).unwrap();
        assert_eq!(sys.load_u64(pid, va).unwrap(), 3);
        let violations = sys.audit();
        assert!(violations.is_empty(), "unexpected violations: {violations:?}");
    }

    #[test]
    fn audit_flags_forged_directory_state() {
        let (mut sys, pid) = popcorn();
        let va = sys.mmap(pid, 4096, VmaProt::rw()).unwrap();
        sys.store_u64(pid, va, 1).unwrap();
        assert!(sys.audit().is_empty());
        // Forge: claim the writable origin mapping is a shared replica.
        let dir = sys.dsm.get_mut(&pid.0).unwrap();
        dir.page_mut(va.vpn()).unwrap().state = DsmPageState::SharedBoth;
        let violations = sys.audit();
        assert!(
            violations.iter().any(|v| v.contains("writable")),
            "expected a writable-shared-page violation, got {violations:?}"
        );
    }

    #[test]
    fn dropped_page_messages_retransmit_and_dsm_stays_sound() {
        use stramash_sim::{shared_injector, FaultPlan};
        let (mut sys, pid) = popcorn();
        let inj = shared_injector(FaultPlan::none().with_msg_drop(0.4), 0xb0c0);
        sys.base.install_fault_injector(inj.clone());
        let va = sys.mmap(pid, 16 << 10, VmaProt::rw()).unwrap();
        sys.migrate(pid, DomainId::ARM).unwrap();
        for i in 0..4u64 {
            sys.store_u64(pid, va.offset(i * PAGE_SIZE), 0x1000 + i).unwrap();
        }
        for i in 0..4u64 {
            assert_eq!(sys.load_u64(pid, va.offset(i * PAGE_SIZE)).unwrap(), 0x1000 + i);
        }
        let c = sys.base().msg.counters();
        assert!(c.retransmits() > 0, "a 40% drop rate must force retransmissions");
        let recovered: u64 =
            DomainId::ALL.iter().map(|&d| sys.base().mem.stats(d).faults_recovered).sum();
        assert_eq!(recovered, inj.borrow().log().len() as u64, "every drop is recovered");
        let violations = sys.audit();
        assert!(violations.is_empty(), "unexpected violations: {violations:?}");
    }

    #[test]
    fn tcp_transport_is_much_slower_per_fault() {
        let cfg = SimConfig::big_pair().with_hw_model(HardwareModel::Shared);
        let mut shm = PopcornSystem::new_shm(cfg.clone()).unwrap();
        let mut tcp = PopcornSystem::new_tcp(cfg).unwrap();
        let mut costs = Vec::new();
        for sys in [&mut shm, &mut tcp] {
            let pid = sys.spawn(DomainId::X86).unwrap();
            let va = sys.mmap(pid, 4096, VmaProt::rw()).unwrap();
            sys.migrate(pid, DomainId::ARM).unwrap();
            let before = sys.runtime();
            sys.store_u64(pid, va, 1).unwrap();
            costs.push((sys.runtime() - before).raw());
        }
        assert!(
            costs[1] > 2 * costs[0],
            "TCP remote fault ({}) should dwarf SHM ({})",
            costs[1],
            costs[0]
        );
    }

    #[test]
    fn ship_page_copies_the_frame_at_the_pinned_cost() {
        let (mut sys, _pid) = popcorn();
        let src = sys.alloc_frame(DomainId::X86).unwrap();
        let dst = sys.alloc_frame(DomainId::ARM).unwrap();
        let page: Vec<u8> = (0..PAGE_SIZE).map(|i| (i * 7 + 3) as u8).collect();
        sys.base.mem.store_mut().write(src, &page);
        let cost = sys.ship_page(DomainId::ARM, src, dst);
        let mut got = vec![0u8; PAGE_SIZE as usize];
        sys.base.mem.store().read(dst, &mut got);
        assert_eq!(got, page, "the requester's frame holds the holder's bytes");
        assert_eq!(cost.raw(), 135_640, "cost of one cold 4 KiB SHM page transfer");
    }
}
