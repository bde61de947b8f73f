//! The OS-system abstraction shared by every kernel design.
//!
//! [`BaseSystem`] owns the simulated machine (memory system, timebase,
//! IPI fabric, messaging layer, the two kernel instances, and the
//! process table). The [`OsSystem`] trait adds the design-specific
//! policies on top — page-fault handling, migration, and futexes — and
//! provides the common execution primitives (translate / load / store /
//! retire instructions) that the workloads run against.
//!
//! Three implementations exist in the workspace:
//!
//! * [`VanillaSystem`] (here) — a single-kernel baseline; the paper's
//!   "Vanilla" normalisation case (application runs locally, §9.2.1),
//! * `popcorn_os::PopcornSystem` — the multiple-kernel baseline,
//! * `stramash::StramashSystem` — the fused-kernel OS.

use crate::addr::{VirtAddr, PAGE_SIZE};
use crate::boot::{boot_pair, BootConfig, BootedPlatform};
use crate::frame::FrameError;
use crate::kernel::KernelInstance;
use crate::msg::{Message, MessagingLayer, MsgType};
use crate::pagetable::{MapError, PageTable};
use crate::process::{Pid, Process};
use crate::session::AccessSession;
use crate::vma::{VmaError, VmaKind, VmaProt};
use crate::watchdog::{Watchdog, WatchdogReport};
use std::fmt;
use stramash_isa::{MigrationCostModel, PteFlags};
use stramash_mem::{MemorySystem, PhysAddr, PhysLayout};
use stramash_sim::config::ConfigError;
use stramash_sim::ipi::IpiFabric;
use stramash_sim::trace::{FutexOp, TraceEvent, HIST_FAULT_SERVICE, HIST_MSG_ROUND_TRIP};
use stramash_sim::{
    Cycles, DomainId, DomainStats, IntMap, SharedFaultInjector, SharedTracer, SimConfig, Timebase,
};

/// Trap entry/exit plus generic fault-path bookkeeping, charged for
/// every page fault regardless of how it is resolved.
pub const FAULT_TRAP_COST: Cycles = Cycles::new(600);

/// Scheduler/context-switch cost of resuming a migrated thread.
pub const MIGRATION_SCHED_COST: Cycles = Cycles::new(1_500);

/// Kernel work to service one received protocol message (a forwarded
/// fault, futex operation or migration request).
pub const MSG_HANDLER_COST: Cycles = Cycles::new(400);

/// Errors surfaced by OS operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OsError {
    /// Unknown pid.
    NoSuchProcess(Pid),
    /// Access outside any VMA.
    Segfault {
        /// Faulting process.
        pid: Pid,
        /// Faulting address.
        va: VirtAddr,
    },
    /// Write to a read-only VMA.
    PermissionDenied {
        /// Faulting process.
        pid: Pid,
        /// Faulting address.
        va: VirtAddr,
    },
    /// Out of physical frames.
    Frame(FrameError),
    /// Page-table mutation failed.
    Map(MapError),
    /// VMA bookkeeping failed.
    Vma(VmaError),
    /// This system does not support cross-ISA migration.
    MigrationUnsupported,
    /// Platform configuration was invalid.
    Config(ConfigError),
    /// A cross-ISA lock acquisition exhausted its retry budget.
    LockTimeout {
        /// Process whose lock acquisition timed out.
        pid: Pid,
    },
    /// An uncorrectable (double-bit) memory fault was detected.
    UncorrectableMemory {
        /// The corrupted physical address.
        pa: PhysAddr,
    },
    /// A kernel invariant that should always hold was violated — the
    /// typed replacement for what used to be a panic site.
    InvariantViolation(&'static str),
    /// The operation needed a domain whose kernel the watchdog has
    /// declared dead.
    DomainDead(DomainId),
    /// A lock operation found its futex poisoned: the holder's domain
    /// died while holding it, and the waiter is woken instead of
    /// blocking forever (the robust-futex `EOWNERDEAD` contract).
    OwnerDied,
    /// A checkpoint artifact could not be decoded or did not match the
    /// running configuration.
    Checkpoint(stramash_sim::checkpoint::CheckpointError),
}

impl fmt::Display for OsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OsError::NoSuchProcess(pid) => write!(f, "no such process: {pid}"),
            OsError::Segfault { pid, va } => write!(f, "segmentation fault: {pid} at {va}"),
            OsError::PermissionDenied { pid, va } => {
                write!(f, "permission denied: {pid} writing {va}")
            }
            OsError::Frame(e) => write!(f, "frame allocation failed: {e}"),
            OsError::Map(e) => write!(f, "page-table update failed: {e}"),
            OsError::Vma(e) => write!(f, "vma update failed: {e}"),
            OsError::MigrationUnsupported => f.write_str("this OS cannot migrate across ISAs"),
            OsError::Config(e) => write!(f, "bad configuration: {e}"),
            OsError::LockTimeout { pid } => {
                write!(f, "cross-ISA lock acquisition timed out for {pid}")
            }
            OsError::UncorrectableMemory { pa } => {
                write!(f, "uncorrectable memory fault at {pa}")
            }
            OsError::InvariantViolation(what) => write!(f, "kernel invariant violated: {what}"),
            OsError::DomainDead(d) => write!(f, "domain {d} was declared dead by the watchdog"),
            OsError::OwnerDied => f.write_str("futex owner died; lock is poisoned"),
            OsError::Checkpoint(e) => write!(f, "checkpoint restore failed: {e}"),
        }
    }
}

impl From<stramash_sim::checkpoint::CheckpointError> for OsError {
    fn from(e: stramash_sim::checkpoint::CheckpointError) -> Self {
        OsError::Checkpoint(e)
    }
}

impl std::error::Error for OsError {}

impl From<FrameError> for OsError {
    fn from(e: FrameError) -> Self {
        OsError::Frame(e)
    }
}

impl From<MapError> for OsError {
    fn from(e: MapError) -> Self {
        OsError::Map(e)
    }
}

impl From<VmaError> for OsError {
    fn from(e: VmaError) -> Self {
        OsError::Vma(e)
    }
}

impl From<ConfigError> for OsError {
    fn from(e: ConfigError) -> Self {
        OsError::Config(e)
    }
}

/// Whether the simulator replays accesses on more than one host thread.
/// It never does, so `enabled` is always `false`. Its only caller is
/// the host-time benchmark (`perfbench`), which checks that it measures
/// one simulation thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochPolicy {
    /// Always `false`.
    pub enabled: bool,
}

/// The simulated machine plus OS-neutral kernel state.
#[derive(Debug)]
pub struct BaseSystem {
    /// The coherent memory system (caches, DRAM, snoops).
    pub mem: MemorySystem,
    /// Per-domain icount clocks.
    pub timebase: Timebase,
    /// IPI delivery.
    pub ipi: IpiFabric,
    /// Inter-kernel messaging.
    pub msg: MessagingLayer,
    /// The two kernel instances.
    pub kernels: [KernelInstance; 2],
    /// Start of the global pool arena (after the message rings).
    pub pool_start: PhysAddr,
    /// End of the global pool arena.
    pub pool_end: PhysAddr,
    processes: IntMap<u32, Process>,
    next_pid: u32,
    /// The deterministic fault injector, shared with the messaging layer
    /// and IPI fabric once installed.
    fault_injector: Option<SharedFaultInjector>,
    /// The shared event tracer, wired through every simulated layer once
    /// installed. Emission is passive: it never adds a simulated cycle.
    tracer: Option<SharedTracer>,
    /// Per-domain code region base for instruction-fetch modelling.
    code_base: [PhysAddr; 2],
    /// Modelled code working-set bytes.
    code_bytes: u64,
    /// One modelled I-fetch per this many retired instructions.
    ifetch_interval: u64,
    ip: u64,
    /// Domain-failure detector (inert until armed).
    watchdog: Watchdog,
    /// Both domains' counters (runtime from the clocks) at each
    /// migration, oldest first: the §7.3 perf+icount phase markers.
    migrations: Vec<[DomainStats; 2]>,
}

impl BaseSystem {
    /// Boots the platform for `cfg` over the Figure 4 layout.
    ///
    /// # Errors
    ///
    /// Returns [`OsError::Config`] if the configuration is inconsistent.
    pub fn new(cfg: SimConfig, boot: &BootConfig) -> Result<Self, OsError> {
        let layout = PhysLayout::paper_default();
        let mem = MemorySystem::with_layout(cfg.clone(), layout.clone())?;
        let BootedPlatform { kernels, msg, ipi, pool_start, pool_end } =
            boot_pair(&cfg, &layout, boot);
        let code_base = [
            layout.private_region(DomainId::X86).start.offset(1 << 20),
            layout.private_region(DomainId::ARM).start.offset(1 << 20),
        ];
        Ok(BaseSystem {
            mem,
            timebase: Timebase::new(),
            ipi,
            msg,
            kernels,
            pool_start,
            pool_end,
            processes: IntMap::default(),
            next_pid: 1,
            fault_injector: None,
            tracer: None,
            code_base,
            code_bytes: 32 << 10,
            ifetch_interval: 64,
            ip: 0,
            watchdog: Watchdog::new(),
            migrations: Vec::new(),
        })
    }

    /// Spawns a process on `origin` with an empty address space.
    ///
    /// # Errors
    ///
    /// Propagates frame-allocation failures.
    pub fn spawn(&mut self, origin: DomainId) -> Result<Pid, OsError> {
        let pid = Pid(self.next_pid);
        self.next_pid += 1;
        let kernel = &mut self.kernels[origin.index()];
        let pt = PageTable::new(&mut self.mem, &mut kernel.frames, kernel.isa)?;
        // One frame of lock words: VMA lock and the Stramash-PTL live on
        // separate cache lines so cross-ISA CAS traffic does not
        // false-share.
        let lock_frame = kernel.frames.alloc()?;
        self.mem.store_mut().fill(lock_frame, PAGE_SIZE, 0);
        let proc = Process::new(pid, origin, pt, lock_frame, lock_frame.offset(64));
        self.processes.insert(pid.0, proc);
        Ok(pid)
    }

    /// Installs a deterministic fault injector, sharing it with the
    /// messaging layer and the IPI fabric so every layer draws from the
    /// same seeded schedule.
    pub fn install_fault_injector(&mut self, injector: SharedFaultInjector) {
        self.msg.set_fault_injector(injector.clone());
        self.ipi.set_fault_injector(injector.clone());
        self.fault_injector = Some(injector);
    }

    /// The installed fault injector, if any.
    #[must_use]
    pub fn fault_injector(&self) -> Option<&SharedFaultInjector> {
        self.fault_injector.as_ref()
    }

    /// Installs the shared event tracer, wiring it through the memory
    /// system, the messaging layer and the IPI fabric so every layer of
    /// the stack records into the same bounded ring.
    pub fn install_tracer(&mut self, tracer: SharedTracer) {
        self.mem.set_tracer(tracer.clone());
        self.msg.set_tracer(tracer.clone());
        self.ipi.set_tracer(tracer.clone());
        self.tracer = Some(tracer);
    }

    /// The installed tracer, if any.
    #[must_use]
    pub fn tracer(&self) -> Option<&SharedTracer> {
        self.tracer.as_ref()
    }

    /// Records one event into the tracer, if installed.
    #[inline]
    pub fn emit(&self, event: TraceEvent) {
        if let Some(t) = &self.tracer {
            t.borrow_mut().record(event);
        }
    }

    /// Records a latency sample into a named registry histogram, if a
    /// tracer is installed.
    #[inline]
    pub fn observe(&self, hist: &'static str, cycles: Cycles) {
        if let Some(t) = &self.tracer {
            t.borrow_mut().metrics_mut().observe(hist, cycles);
        }
    }

    /// Iterates every live process (for the invariant auditors, which
    /// must inspect all address spaces without timing side effects).
    pub fn processes(&self) -> impl Iterator<Item = &Process> {
        self.processes.values()
    }

    /// Audits the OS-neutral machine invariants: messaging-ring cursor
    /// sanity and MESI coherence agreement. Design-specific systems
    /// extend this with page-table/ownership checks.
    #[must_use]
    pub fn audit(&self) -> Vec<String> {
        let mut violations = self.msg.audit();
        violations.extend(self.mem.audit_coherence());
        violations
    }

    /// Looks up a process.
    ///
    /// # Errors
    ///
    /// [`OsError::NoSuchProcess`] when absent.
    pub fn process(&self, pid: Pid) -> Result<&Process, OsError> {
        self.processes.get(&pid.0).ok_or(OsError::NoSuchProcess(pid))
    }

    /// Mutable process lookup.
    ///
    /// # Errors
    ///
    /// [`OsError::NoSuchProcess`] when absent.
    pub fn process_mut(&mut self, pid: Pid) -> Result<&mut Process, OsError> {
        self.processes.get_mut(&pid.0).ok_or(OsError::NoSuchProcess(pid))
    }

    /// Charges `cycles` of kernel/memory overhead to `domain`'s clock.
    pub fn charge(&mut self, domain: DomainId, cycles: Cycles) {
        self.timebase.clock_mut(domain).add_memory(cycles);
        if cycles.raw() != 0 {
            self.emit(TraceEvent::Charge { domain, cost: cycles });
        }
    }

    /// Retires `insns` instructions on `domain`, modelling periodic
    /// instruction fetches over a small code working set.
    pub fn retire(&mut self, domain: DomainId, insns: u64) {
        if insns != 0 {
            self.emit(TraceEvent::Retire { domain, insns });
        }
        self.timebase.clock_mut(domain).retire(insns);
        self.mem.stats_mut(domain).instructions += insns;
        let fetches = insns / self.ifetch_interval;
        let mut cycles = Cycles::ZERO;
        for _ in 0..fetches {
            let addr = self.code_base[domain.index()].offset(self.ip % self.code_bytes);
            self.ip += 64;
            cycles += self
                .mem
                .access(
                    domain,
                    addr,
                    stramash_mem::Access::Read,
                    stramash_mem::AccessKind::Instruction,
                )
                .cycles;
        }
        self.charge(domain, cycles);
    }

    /// The process's page table on `domain`, created empty on first use.
    ///
    /// # Errors
    ///
    /// [`OsError::NoSuchProcess`]; frame-allocation failures.
    pub fn ensure_pt(&mut self, pid: Pid, domain: DomainId) -> Result<PageTable, OsError> {
        if let Some(pt) = self.process(pid)?.page_table(domain).copied() {
            return Ok(pt);
        }
        let kernel = &mut self.kernels[domain.index()];
        let pt = PageTable::new(&mut self.mem, &mut kernel.frames, kernel.isa)?;
        self.process_mut(pid)?.page_tables[domain.index()] = Some(pt);
        Ok(pt)
    }

    /// Moves `pid`'s thread to `to` with the §5 migration protocol both
    /// multiple-kernel designs run: a request/response round trip
    /// carrying the application state, then the register-state
    /// transformation and scheduling at the destination. Returns the
    /// cycles added, or `None`, charging nothing, when the thread
    /// already runs on `to`.
    ///
    /// # Errors
    ///
    /// [`OsError::NoSuchProcess`]; frame-allocation failures building
    /// the destination's page table.
    pub fn migrate_thread(&mut self, pid: Pid, to: DomainId) -> Result<Option<Cycles>, OsError> {
        let from = self.process(pid)?.current;
        if from == to {
            return Ok(None);
        }
        self.ensure_pt(pid, to)?;
        let cost_model = MigrationCostModel::popcorn_toolchain();
        let mut total = protocol_round_trip(
            self,
            from,
            Message { ty: MsgType::MigrationRequest, payload: cost_model.payload_bytes },
            Message::control(MsgType::MigrationResponse),
        );
        // The phase ends once the protocol hands the thread over: the
        // destination's transform and scheduling work belong to the
        // phase that runs there.
        self.record_migration(from, to);
        self.retire(to, cost_model.transform_insns);
        self.charge(to, MIGRATION_SCHED_COST);
        total += MIGRATION_SCHED_COST + cost_model.transform_cycles();
        self.process_mut(pid)?.switch_domain(to);
        self.kernels[to.index()].counters.migrations_in += 1;
        Ok(Some(total))
    }

    /// Records a migration between domains: snapshots both domains'
    /// counters as the end of the current phase.
    pub fn record_migration(&mut self, from: DomainId, to: DomainId) {
        self.migrations.push(self.domain_stats());
        self.emit(TraceEvent::Migration { from, to });
    }

    /// Both domains' live counters, with `runtime` read from the domain
    /// clocks (the memory system's copy is only synced by
    /// [`BaseSystem::sync_runtime_stats`]).
    fn domain_stats(&self) -> [DomainStats; 2] {
        DomainId::ALL
            .map(|d| DomainStats { runtime: self.timebase.clock(d).cycles(), ..*self.mem.stats(d) })
    }

    /// The §7.3 perf+icount phases: what each domain did between
    /// consecutive migrations. Phase 0 runs from boot to the first
    /// migration and the last phase from the final migration to now,
    /// so there are migrations + 1 phases and, per domain, they sum to
    /// the live counters with runtime read from the clocks. Render with
    /// [`stramash_sim::render_phases`].
    #[must_use]
    pub fn phases(&self) -> Vec<[DomainStats; 2]> {
        self.checked_phases()
            .expect("migration snapshots are taken, and restored, in counter order")
    }

    /// [`BaseSystem::phases`], or `None` when a migration snapshot
    /// exceeds the next one or the live counters (a hostile checkpoint).
    fn checked_phases(&self) -> Option<Vec<[DomainStats; 2]>> {
        let mut prev = [DomainStats::default(); 2];
        self.migrations
            .iter()
            .copied()
            .chain([self.domain_stats()])
            .map(|now| {
                let [x86, arm] =
                    DomainId::ALL.map(|d| now[d.index()].checked_since(&prev[d.index()]));
                prev = now;
                Some([x86?, arm?])
            })
            .collect()
    }

    /// Copies each domain's accumulated runtime into its statistics
    /// block (call before printing reports).
    pub fn sync_runtime_stats(&mut self) {
        for d in DomainId::ALL {
            let cycles = self.timebase.clock(d).cycles();
            self.mem.stats_mut(d).runtime = cycles;
        }
    }

    /// Total runtime over both domains (the paper's final-runtime
    /// formula, Artifact Appendix A.5).
    #[must_use]
    pub fn total_runtime(&self) -> Cycles {
        self.timebase.total_runtime()
    }

    /// The epoch policy in force: always serial (see [`EpochPolicy`]).
    #[must_use]
    pub fn epoch_policy(&self) -> EpochPolicy {
        EpochPolicy { enabled: false }
    }

    /// Arms the domain watchdog: from now on every
    /// [`BaseSystem::watchdog_tick`] runs a heartbeat round, and a
    /// domain silent for `threshold` consecutive rounds is declared
    /// dead. Disarmed systems pay nothing (see [`crate::watchdog`]).
    pub fn enable_watchdog(&mut self, threshold: u32) {
        self.watchdog.arm(threshold);
    }

    /// The domain-failure detector.
    #[must_use]
    pub fn watchdog(&self) -> &Watchdog {
        &self.watchdog
    }

    /// Mutable detector access (the recovery supervisor clears its
    /// flags after a successful restart).
    pub fn watchdog_mut(&mut self) -> &mut Watchdog {
        &mut self.watchdog
    }

    /// One supervisor step of the failure protocol: fires any injected
    /// fail-stop that is due at `step`, runs the heartbeat round (each
    /// live kernel beacons its peer over the messaging layer), and —
    /// when a domain crosses the missed-beat threshold — declares it
    /// dead and quarantines it. Returns the death report, produced at
    /// most once per crash.
    ///
    /// Quarantine drops the dead domain's unconsumed ring messages and
    /// drains both futex tables: the dead domain's waiters vanish with
    /// it, and survivors queued behind its lock holders are returned in
    /// the report so the OS can wake them with [`OsError::OwnerDied`].
    pub fn watchdog_tick(&mut self, step: u64) -> Option<WatchdogReport> {
        if !self.watchdog.is_armed() {
            return None;
        }
        if let Some(inj) = &self.fault_injector {
            let due = inj.borrow_mut().crash_due(step);
            if let Some(idx) = due {
                let d = if idx == 0 { DomainId::X86 } else { DomainId::ARM };
                self.watchdog.mark_crashed(d);
                self.mem.stats_mut(d).faults_injected += 1;
            }
        }
        let mut beat = [false; 2];
        for d in DomainId::ALL {
            if self.watchdog.is_halted(d) {
                continue;
            }
            beat[d.index()] = true;
            // Beacon the peer; a halted peer never consumes it, so the
            // round is skipped rather than stalling the ring.
            if !self.watchdog.is_halted(d.other()) {
                let hb = Message::control(MsgType::Heartbeat);
                let c_send = self.msg.send(&mut self.mem, &mut self.ipi, d, hb);
                self.charge(d, c_send);
                let c_recv = self.msg.receive(&mut self.mem, d.other(), hb);
                self.charge(d.other(), c_recv);
            }
        }
        let (dead, missed) = self.watchdog.observe(beat)?;
        let dropped_msg_bytes = self.msg.quarantine(dead);
        let mut orphaned_waiters: [Vec<_>; 2] = [Vec::new(), Vec::new()];
        for k in &mut self.kernels {
            orphaned_waiters[k.domain.index()] = k.futexes.drain_domain(dead);
        }
        self.emit(TraceEvent::Watchdog { domain: dead, missed });
        Some(WatchdogReport { dead, missed, dropped_msg_bytes, orphaned_waiters })
    }

    /// Serializes every piece of mutable machine state — simulated
    /// memory, clocks, message rings, migration snapshots, both
    /// kernels, the process table, the watchdog, and (when installed)
    /// the fault injector's stream positions — into a
    /// checkpoint section. Structure derived from the boot
    /// configuration (layout, transports, IPI latency, namespaces, code
    /// regions) is rebuilt by [`BaseSystem::new`], not stored.
    pub fn save_state(&self, e: &mut stramash_sim::checkpoint::Encoder) {
        e.tag(0x4241_5345); // "BASE"
        self.mem.save_state(e);
        self.timebase.save_state(e);
        self.msg.save_state(e);
        e.u64(self.migrations.len() as u64);
        for stats in self.migrations.iter().flatten() {
            stats.save_state(e);
        }
        for k in &self.kernels {
            k.save_state(e);
        }
        let mut pids: Vec<u32> = self.processes.keys().copied().collect();
        pids.sort_unstable();
        e.u64(pids.len() as u64);
        for pid in pids {
            self.processes[&pid].save_state(e);
        }
        e.u32(self.next_pid);
        e.u64(self.ip);
        self.watchdog.save_state(e);
        match &self.fault_injector {
            Some(inj) => {
                e.bool(true);
                inj.borrow().save_state(e);
            }
            None => e.bool(false),
        }
    }

    /// Restores state written by [`BaseSystem::save_state`] into this
    /// freshly booted system. The boot configuration must match the one
    /// the checkpoint was taken under.
    ///
    /// # Errors
    ///
    /// Decoding errors; `ConfigMismatch` when the platform geometry
    /// disagrees with the checkpoint.
    pub fn load_state(
        &mut self,
        d: &mut stramash_sim::checkpoint::Decoder<'_>,
    ) -> Result<(), stramash_sim::checkpoint::CheckpointError> {
        use stramash_sim::checkpoint::CheckpointError;
        d.tag(0x4241_5345)?;
        self.mem.load_state(d)?;
        self.timebase.load_state(d)?;
        self.msg.load_state(d)?;
        self.migrations.clear();
        for _ in 0..d.len()? {
            let mut snapshot = [DomainStats::default(); 2];
            for stats in &mut snapshot {
                stats.load_state(d)?;
            }
            self.migrations.push(snapshot);
        }
        // The live counters were restored above; the snapshots must be
        // earlier states of them, in order, or `phases` would underflow.
        if self.checked_phases().is_none() {
            return Err(CheckpointError::Malformed("migration snapshots out of counter order"));
        }
        for k in &mut self.kernels {
            k.load_state(d)?;
        }
        let n = d.len()?;
        let mut processes = IntMap::with_capacity_and_hasher(n, Default::default());
        for _ in 0..n {
            let proc = Process::load_state(d)?;
            processes.insert(proc.pid.0, proc);
        }
        self.processes = processes;
        self.next_pid = d.u32()?;
        self.ip = d.u64()?;
        self.watchdog.load_state(d)?;
        if d.bool()? {
            let inj = self.fault_injector.as_ref().ok_or(CheckpointError::Malformed(
                "checkpoint carries injector state but none is installed",
            ))?;
            inj.borrow_mut().restore_state(d)?;
        }
        Ok(())
    }
}

/// Runs a full protocol round-trip over the messaging layer: `from`
/// sends `req`, the peer receives it, spends [`MSG_HANDLER_COST`]
/// servicing it, and answers `resp`. Each side's cycles land on its own
/// clock; the total added is returned.
pub fn protocol_round_trip(
    base: &mut BaseSystem,
    from: DomainId,
    req: crate::msg::Message,
    resp: crate::msg::Message,
) -> Cycles {
    let to = from.other();
    let mut c_from = base.msg.send(&mut base.mem, &mut base.ipi, from, req);
    let mut c_to = base.msg.receive(&mut base.mem, to, req);
    c_to += MSG_HANDLER_COST;
    c_to += base.msg.send(&mut base.mem, &mut base.ipi, to, resp);
    c_from += base.msg.receive(&mut base.mem, from, resp);
    base.charge(from, c_from);
    base.charge(to, c_to);
    let total = c_from + c_to;
    base.observe(HIST_MSG_ROUND_TRIP, total);
    total
}

/// [`OsSystem::translate`], also returning the domain the access runs
/// on: the one process-table probe a scalar op needs for both.
fn translate_on<S: OsSystem + ?Sized>(
    sys: &mut S,
    pid: Pid,
    va: VirtAddr,
    write: bool,
) -> Result<(DomainId, PhysAddr, Cycles), OsError> {
    let (domain, tlb_hit) = {
        let proc = sys.base().process(pid)?;
        let domain = proc.current;
        let hit = proc.tlb(domain).lookup(va).filter(|(_, f)| !write || f.writable);
        (domain, hit)
    };
    if let Some((page_pa, _)) = tlb_hit {
        sys.base_mut().mem.note_tlb_hit(domain);
        return Ok((domain, page_pa.offset(va.page_offset()), Cycles::ZERO));
    }
    sys.base_mut().mem.note_tlb_miss(domain);
    let mut total = Cycles::ZERO;
    for attempt in 0..2 {
        let pt = {
            let proc = sys.base().process(pid)?;
            proc.page_table(domain).copied()
        };
        if let Some(pt) = pt {
            let base = sys.base_mut();
            let (res, cycles) = pt.walk(&mut base.mem, domain, va);
            base.charge(domain, cycles);
            total += cycles;
            if let Some((pa, flags)) = res {
                if !write || flags.writable {
                    let proc = base.process_mut(pid)?;
                    proc.tlb_mut(domain).insert(va, pa.align_down(PAGE_SIZE), flags);
                    return Ok((domain, pa, total));
                }
            }
        }
        if attempt == 0 {
            let fault_cost = sys.handle_fault(pid, va, write)?;
            total += fault_cost;
            let base = sys.base();
            base.emit(TraceEvent::PageFault { domain, va: va.raw(), write, cost: fault_cost });
            base.observe(HIST_FAULT_SERVICE, fault_cost);
        }
    }
    Err(OsError::Segfault { pid, va })
}

/// The single source of truth for page-chunk iteration over a process
/// buffer: translates each page-sized chunk on the executing domain
/// (it cannot change mid-call — only an explicit migrate does that),
/// and hands `(base, domain, pa, done, n)` to `op`,
/// charging whatever cycles it returns. Both the scalar
/// `read_mem`/`write_mem` and any batched transfer share this walk, so
/// chunking semantics cannot drift between them.
fn walk_page_chunks<S: OsSystem + ?Sized>(
    sys: &mut S,
    pid: Pid,
    va: VirtAddr,
    len: usize,
    write: bool,
    op: &mut dyn FnMut(&mut BaseSystem, DomainId, PhysAddr, usize, usize) -> Cycles,
) -> Result<Cycles, OsError> {
    if len == 0 {
        // No chunk translates, yet a missing process is still an error.
        sys.base().process(pid)?;
    }
    let mut total = Cycles::ZERO;
    let mut done = 0usize;
    while done < len {
        let cur = va.offset(done as u64);
        let in_page = (PAGE_SIZE - cur.page_offset()) as usize;
        let n = in_page.min(len - done);
        let (domain, pa, tc) = translate_on(sys, pid, cur, write)?;
        total += tc;
        let base = sys.base_mut();
        let c = op(base, domain, pa, done, n);
        base.charge(domain, c);
        total += c;
        done += n;
    }
    Ok(total)
}

/// The OS-design abstraction: policy hooks plus provided execution
/// primitives.
pub trait OsSystem {
    /// Shared machine state.
    fn base(&self) -> &BaseSystem;

    /// Mutable shared machine state.
    fn base_mut(&mut self) -> &mut BaseSystem;

    /// Human-readable design name ("vanilla", "popcorn", "stramash").
    fn name(&self) -> &'static str;

    /// Resolves a page fault at `va` (design-specific). Charges its own
    /// costs to the appropriate clocks and returns the total added.
    ///
    /// # Errors
    ///
    /// [`OsError::Segfault`]/[`OsError::PermissionDenied`] for invalid
    /// accesses, allocation errors otherwise.
    fn handle_fault(&mut self, pid: Pid, va: VirtAddr, write: bool) -> Result<Cycles, OsError>;

    /// Migrates the process's thread to `to` (design-specific).
    ///
    /// # Errors
    ///
    /// [`OsError::MigrationUnsupported`] for single-kernel designs.
    fn migrate(&mut self, pid: Pid, to: DomainId) -> Result<Cycles, OsError>;

    /// Futex lock executed by a thread of `pid` running on `domain`.
    ///
    /// # Errors
    ///
    /// Translation errors for an unmapped futex word.
    fn futex_lock(
        &mut self,
        pid: Pid,
        domain: DomainId,
        uaddr: VirtAddr,
    ) -> Result<Cycles, OsError>;

    /// Futex unlock executed by a thread of `pid` running on `domain`.
    ///
    /// # Errors
    ///
    /// Translation errors for an unmapped futex word.
    fn futex_unlock(
        &mut self,
        pid: Pid,
        domain: DomainId,
        uaddr: VirtAddr,
    ) -> Result<Cycles, OsError>;

    /// Unmaps the VMA starting at `start`, releasing its pages under the
    /// design's ownership discipline. Returns frames freed per kernel.
    ///
    /// # Errors
    ///
    /// [`OsError::Segfault`] if no VMA starts at `start`.
    fn munmap(&mut self, pid: Pid, start: VirtAddr) -> Result<[u64; 2], OsError>;

    // ---- provided methods ---------------------------------------------

    /// The domain currently executing `pid`.
    ///
    /// # Errors
    ///
    /// [`OsError::NoSuchProcess`].
    fn current_domain(&self, pid: Pid) -> Result<DomainId, OsError> {
        Ok(self.base().process(pid)?.current)
    }

    /// Reserves anonymous VA space.
    ///
    /// # Errors
    ///
    /// VMA bookkeeping errors.
    fn mmap(&mut self, pid: Pid, len: u64, prot: VmaProt) -> Result<VirtAddr, OsError> {
        let proc = self.base_mut().process_mut(pid)?;
        Ok(proc.mmap(len, prot, VmaKind::Anon)?)
    }

    /// Changes the protections of the VMA starting at `start` (whole-VMA
    /// granularity, like [`OsSystem::munmap`]): rewrites the leaf flags
    /// of every present PTE in every existing per-domain page table and
    /// shoots the affected pages out of both TLBs, so a downgraded
    /// mapping can never be reached through a stale cached translation.
    ///
    /// # Errors
    ///
    /// [`OsError::Segfault`] if no VMA starts at `start`.
    fn mprotect(&mut self, pid: Pid, start: VirtAddr, prot: VmaProt) -> Result<Cycles, OsError> {
        let (domain, vma) = {
            let proc = self.base_mut().process_mut(pid)?;
            let domain = proc.current;
            let mut vma = proc.vmas.remove(start).ok_or(OsError::Segfault { pid, va: start })?;
            vma.prot = prot;
            proc.vmas.insert(vma)?;
            (domain, vma)
        };
        let mut flags = PteFlags::user_data();
        flags.writable = prot.write;
        let mut total = Cycles::ZERO;
        for d in DomainId::ALL {
            let Some(pt) = self.base().process(pid)?.page_table(d).copied() else {
                continue;
            };
            for p in 0..vma.pages() {
                let base = self.base_mut();
                let (_, c) =
                    pt.protect(&mut base.mem, domain, start.offset(p * PAGE_SIZE), flags, true);
                base.charge(domain, c);
                total += c;
            }
        }
        {
            let proc = self.base_mut().process_mut(pid)?;
            for d in DomainId::ALL {
                for p in 0..vma.pages() {
                    proc.tlb_mut(d).invalidate(start.offset(p * PAGE_SIZE));
                }
            }
        }
        let base = self.base();
        for d in DomainId::ALL {
            for p in 0..vma.pages() {
                base.emit(TraceEvent::TlbInvalidate {
                    domain: d,
                    va: start.offset(p * PAGE_SIZE).raw(),
                });
            }
        }
        Ok(total)
    }

    /// Translates `va` for an access, faulting once if needed. Returns
    /// the physical address and the translation cycles charged.
    ///
    /// # Errors
    ///
    /// [`OsError::Segfault`] if the fault handler cannot map the page.
    fn translate(
        &mut self,
        pid: Pid,
        va: VirtAddr,
        write: bool,
    ) -> Result<(PhysAddr, Cycles), OsError> {
        translate_on(self, pid, va, write).map(|(_, pa, cycles)| (pa, cycles))
    }

    /// Revalidates a batch's [`AccessSession`] against the process's
    /// current domain and TLB generation: one process-table probe per
    /// batch instead of one per element. Returns the executing domain.
    ///
    /// # Errors
    ///
    /// [`OsError::NoSuchProcess`].
    fn session_begin(&mut self, session: &mut AccessSession) -> Result<DomainId, OsError> {
        let proc = self.base().process(session.pid())?;
        Ok(session.revalidate(proc))
    }

    /// Translates `va` through a validated session. A session hit is
    /// exactly a (zero-cycle) scalar TLB hit — the session only ever
    /// holds copies of live TLB entries, and [`OsSystem::session_begin`]
    /// dropped it if any invalidation happened since — so the TLB
    /// hit/miss statistics come out identical to per-element
    /// [`OsSystem::translate`] calls. A miss falls back to `translate`
    /// (counted, timed, may fault) and then adopts the fresh TLB entry,
    /// resyncing first in case the fault path invalidated translations.
    ///
    /// # Errors
    ///
    /// As [`OsSystem::translate`].
    fn session_translate(
        &mut self,
        session: &mut AccessSession,
        va: VirtAddr,
        write: bool,
    ) -> Result<(PhysAddr, Cycles), OsError> {
        if let Some(pa) = session.lookup(va, write) {
            let domain = session.domain();
            self.base_mut().mem.note_tlb_hit(domain);
            return Ok((pa, Cycles::ZERO));
        }
        let pid = session.pid();
        let (pa, cycles) = self.translate(pid, va, write)?;
        let proc = self.base().process(pid)?;
        let domain = session.revalidate(proc);
        if let Some((page_pa, flags)) = proc.tlb(domain).lookup(va) {
            session.insert(va, page_pa, flags.writable);
        }
        Ok((pa, cycles))
    }

    /// Reads `buf.len()` bytes from the process's address space,
    /// charging translation and memory-system costs to its domain.
    ///
    /// # Errors
    ///
    /// Translation errors.
    fn read_mem(&mut self, pid: Pid, va: VirtAddr, buf: &mut [u8]) -> Result<Cycles, OsError> {
        let len = buf.len();
        walk_page_chunks(self, pid, va, len, false, &mut |base, domain, pa, done, n| {
            base.mem.read_bytes(domain, pa, &mut buf[done..done + n])
        })
    }

    /// Writes bytes into the process's address space.
    ///
    /// # Errors
    ///
    /// Translation errors.
    fn write_mem(&mut self, pid: Pid, va: VirtAddr, data: &[u8]) -> Result<Cycles, OsError> {
        walk_page_chunks(self, pid, va, data.len(), true, &mut |base, domain, pa, done, n| {
            base.mem.write_bytes(domain, pa, &data[done..done + n])
        })
    }

    /// Loads a `u64` (assumed not to straddle a page).
    ///
    /// # Errors
    ///
    /// Translation errors.
    fn load_u64(&mut self, pid: Pid, va: VirtAddr) -> Result<u64, OsError> {
        let (domain, pa, _) = translate_on(self, pid, va, false)?;
        let base = self.base_mut();
        let (v, c) = base.mem.read_u64(domain, pa);
        base.charge(domain, c);
        Ok(v)
    }

    /// Stores a `u64`.
    ///
    /// # Errors
    ///
    /// Translation errors.
    fn store_u64(&mut self, pid: Pid, va: VirtAddr, value: u64) -> Result<(), OsError> {
        let (domain, pa, _) = translate_on(self, pid, va, true)?;
        let base = self.base_mut();
        let c = base.mem.write_u64(domain, pa, value);
        base.charge(domain, c);
        Ok(())
    }

    /// Loads an `f64`.
    ///
    /// # Errors
    ///
    /// Translation errors.
    fn load_f64(&mut self, pid: Pid, va: VirtAddr) -> Result<f64, OsError> {
        Ok(f64::from_bits(self.load_u64(pid, va)?))
    }

    /// Stores an `f64`.
    ///
    /// # Errors
    ///
    /// Translation errors.
    fn store_f64(&mut self, pid: Pid, va: VirtAddr, value: f64) -> Result<(), OsError> {
        self.store_u64(pid, va, value.to_bits())
    }

    /// Retires `insns` compute instructions on the process's current
    /// domain.
    ///
    /// # Errors
    ///
    /// [`OsError::NoSuchProcess`].
    fn exec(&mut self, pid: Pid, insns: u64) -> Result<(), OsError> {
        let domain = self.current_domain(pid)?;
        self.base_mut().retire(domain, insns);
        Ok(())
    }

    /// Total runtime so far (both domains).
    fn runtime(&self) -> Cycles {
        self.base().total_runtime()
    }
}

/// Single-kernel baseline: the application runs where it started and
/// never migrates (the "Vanilla" case of §9.2.1).
#[derive(Debug)]
pub struct VanillaSystem {
    base: BaseSystem,
}

impl VanillaSystem {
    /// Boots a vanilla system.
    ///
    /// # Errors
    ///
    /// Configuration errors.
    pub fn new(cfg: SimConfig) -> Result<Self, OsError> {
        Ok(VanillaSystem { base: BaseSystem::new(cfg, &BootConfig::paper_default())? })
    }

    /// Spawns a process on `origin`.
    ///
    /// # Errors
    ///
    /// Allocation errors.
    pub fn spawn(&mut self, origin: DomainId) -> Result<Pid, OsError> {
        self.base.spawn(origin)
    }
}

impl OsSystem for VanillaSystem {
    fn base(&self) -> &BaseSystem {
        &self.base
    }

    fn base_mut(&mut self) -> &mut BaseSystem {
        &mut self.base
    }

    fn name(&self) -> &'static str {
        "vanilla"
    }

    fn handle_fault(&mut self, pid: Pid, va: VirtAddr, write: bool) -> Result<Cycles, OsError> {
        let (domain, prot) = {
            let proc = self.base.process(pid)?;
            let vma = proc.vmas.find(va).ok_or(OsError::Segfault { pid, va })?;
            (proc.current, vma.prot)
        };
        if write && !prot.write {
            return Err(OsError::PermissionDenied { pid, va });
        }
        let frame = self.base.kernels[domain.index()].frames.alloc()?;
        self.base.mem.store_mut().fill(frame, PAGE_SIZE, 0);
        let pt = self
            .base
            .process(pid)?
            .page_table(domain)
            .copied()
            .ok_or(OsError::InvariantViolation("origin kernel lost its page table"))?;
        let mut flags = PteFlags::user_data();
        flags.writable = prot.write;
        let cycles = pt.map(
            &mut self.base.mem,
            &mut self.base.kernels[domain.index()].frames,
            domain,
            va.page_base(),
            frame,
            flags,
            true,
        )? + FAULT_TRAP_COST;
        self.base.kernels[domain.index()].counters.local_faults += 1;
        self.base.charge(domain, cycles);
        Ok(cycles)
    }

    fn migrate(&mut self, _pid: Pid, _to: DomainId) -> Result<Cycles, OsError> {
        Err(OsError::MigrationUnsupported)
    }

    fn futex_lock(
        &mut self,
        pid: Pid,
        domain: DomainId,
        uaddr: VirtAddr,
    ) -> Result<Cycles, OsError> {
        // Local-only fast path: CAS on the futex word.
        let (pa, _) = self.translate(pid, uaddr, true)?;
        let penalty = self.base.kernels[domain.index()].atomics.rmw_penalty();
        let (_, c) = self.base.mem.cas_u64(domain, pa, 0, 1, penalty);
        self.base.kernels[domain.index()].counters.futex_ops += 1;
        self.base.charge(domain, c);
        self.base.emit(TraceEvent::Futex { domain, op: FutexOp::Acquire, va: uaddr.raw() });
        Ok(c)
    }

    fn futex_unlock(
        &mut self,
        pid: Pid,
        domain: DomainId,
        uaddr: VirtAddr,
    ) -> Result<Cycles, OsError> {
        let (pa, _) = self.translate(pid, uaddr, true)?;
        let c = self.base.mem.write_u64(domain, pa, 0);
        self.base.kernels[domain.index()].counters.futex_ops += 1;
        self.base.charge(domain, c);
        Ok(c)
    }

    fn munmap(&mut self, pid: Pid, start: VirtAddr) -> Result<[u64; 2], OsError> {
        let (domain, vma) = {
            let proc = self.base.process_mut(pid)?;
            let vma = proc.vmas.remove(start).ok_or(OsError::Segfault { pid, va: start })?;
            (proc.current, vma)
        };
        let pt = self
            .base
            .process(pid)?
            .page_table(domain)
            .copied()
            .ok_or(OsError::InvariantViolation("origin kernel lost its page table"))?;
        let mut freed = [0u64; 2];
        for p in 0..vma.pages() {
            let va = start.offset(p * PAGE_SIZE);
            let (old, c) = pt.unmap(&mut self.base.mem, domain, va, true);
            self.base.charge(domain, c);
            if let Some(frame) = old {
                self.base.kernels[domain.index()].frames.free(frame)?;
                freed[domain.index()] += 1;
            }
            self.base.process_mut(pid)?.tlb_mut(domain).invalidate(va);
            self.base.emit(TraceEvent::TlbInvalidate { domain, va: va.raw() });
        }
        Ok(freed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stramash_sim::HardwareModel;

    fn vanilla() -> (VanillaSystem, Pid) {
        let cfg = SimConfig::big_pair().with_hw_model(HardwareModel::Shared);
        let mut sys = VanillaSystem::new(cfg).unwrap();
        let pid = sys.spawn(DomainId::X86).unwrap();
        (sys, pid)
    }

    #[test]
    fn spawn_and_mmap() {
        let (mut sys, pid) = vanilla();
        let va = sys.mmap(pid, 64 << 10, VmaProt::rw()).unwrap();
        assert_eq!(va.raw(), crate::process::MMAP_BASE);
        assert_eq!(sys.current_domain(pid).unwrap(), DomainId::X86);
        assert_eq!(sys.name(), "vanilla");
    }

    #[test]
    fn demand_paging_on_first_touch() {
        let (mut sys, pid) = vanilla();
        let va = sys.mmap(pid, 16 << 10, VmaProt::rw()).unwrap();
        sys.store_u64(pid, va, 0xfeed).unwrap();
        assert_eq!(sys.load_u64(pid, va).unwrap(), 0xfeed);
        assert_eq!(sys.base().kernels[0].counters.local_faults, 1);
        // Second page faults separately.
        sys.store_u64(pid, va.offset(PAGE_SIZE), 1).unwrap();
        assert_eq!(sys.base().kernels[0].counters.local_faults, 2);
        assert!(sys.runtime().raw() > 0);
    }

    #[test]
    fn unmapped_access_segfaults() {
        let (mut sys, pid) = vanilla();
        let err = sys.load_u64(pid, VirtAddr::new(0xdead_0000)).unwrap_err();
        assert!(matches!(err, OsError::Segfault { .. }));
    }

    #[test]
    fn write_to_read_only_vma_denied() {
        let (mut sys, pid) = vanilla();
        let va = sys.mmap(pid, 4096, VmaProt::ro()).unwrap();
        assert_eq!(sys.load_u64(pid, va).unwrap(), 0, "read of RO page is fine");
        let err = sys.store_u64(pid, va, 1).unwrap_err();
        assert!(matches!(err, OsError::PermissionDenied { .. }));
    }

    #[test]
    fn vanilla_cannot_migrate() {
        let (mut sys, pid) = vanilla();
        assert_eq!(sys.migrate(pid, DomainId::ARM).unwrap_err(), OsError::MigrationUnsupported);
    }

    #[test]
    fn bulk_read_write_roundtrip() {
        let (mut sys, pid) = vanilla();
        let va = sys.mmap(pid, 64 << 10, VmaProt::rw()).unwrap();
        let data: Vec<u8> = (0..10_000u32).map(|i| i as u8).collect();
        sys.write_mem(pid, va.offset(100), &data).unwrap();
        let mut back = vec![0u8; data.len()];
        sys.read_mem(pid, va.offset(100), &mut back).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn float_roundtrip() {
        let (mut sys, pid) = vanilla();
        let va = sys.mmap(pid, 4096, VmaProt::rw()).unwrap();
        sys.store_f64(pid, va, 3.25).unwrap();
        assert_eq!(sys.load_f64(pid, va).unwrap(), 3.25);
    }

    #[test]
    fn exec_advances_clock_and_models_ifetch() {
        let (mut sys, pid) = vanilla();
        sys.exec(pid, 10_000).unwrap();
        let clock = sys.base().timebase.clock(DomainId::X86);
        assert_eq!(clock.icount(), 10_000);
        assert!(clock.memory_cycles().raw() > 0, "ifetches cost memory cycles");
        let s = sys.base().mem.stats(DomainId::X86);
        assert_eq!(s.instructions, 10_000);
        assert!(s.l1i.accesses > 0);
    }

    #[test]
    fn translation_caches_in_tlb() {
        let (mut sys, pid) = vanilla();
        let va = sys.mmap(pid, 4096, VmaProt::rw()).unwrap();
        sys.store_u64(pid, va, 1).unwrap();
        let before = sys.base().mem.stats(DomainId::X86).mem_accesses;
        // Repeated access to the same page: no more walks.
        for i in 1..10 {
            sys.store_u64(pid, va.offset(8 * i), i).unwrap();
        }
        let walked = sys.base().mem.stats(DomainId::X86).mem_accesses - before;
        assert_eq!(walked, 9, "only the data accesses, no PT walks");
    }

    #[test]
    fn futex_lock_unlock_local() {
        let (mut sys, pid) = vanilla();
        let va = sys.mmap(pid, 4096, VmaProt::rw()).unwrap();
        sys.futex_lock(pid, DomainId::X86, va).unwrap();
        assert_eq!(sys.load_u64(pid, va).unwrap(), 1, "lock word set");
        sys.futex_unlock(pid, DomainId::X86, va).unwrap();
        assert_eq!(sys.load_u64(pid, va).unwrap(), 0);
        assert_eq!(sys.base().kernels[0].counters.futex_ops, 2);
    }

    #[test]
    fn sync_runtime_stats_populates_report() {
        let (mut sys, pid) = vanilla();
        sys.exec(pid, 1000).unwrap();
        sys.base_mut().sync_runtime_stats();
        assert!(sys.base().mem.stats(DomainId::X86).runtime.raw() >= 1000);
    }

    #[test]
    fn os_error_display() {
        let e = OsError::Segfault { pid: Pid(1), va: VirtAddr::new(0x10) };
        assert!(e.to_string().contains("segmentation fault"));
        assert!(!OsError::MigrationUnsupported.to_string().is_empty());
        assert!(OsError::LockTimeout { pid: Pid(3) }.to_string().contains("timed out"));
        assert!(OsError::UncorrectableMemory { pa: PhysAddr::new(0x40) }
            .to_string()
            .contains("uncorrectable"));
        assert!(OsError::InvariantViolation("x").to_string().contains("invariant"));
    }

    #[test]
    fn base_audit_clean_after_workload() {
        let (mut sys, pid) = vanilla();
        let va = sys.mmap(pid, 64 << 10, VmaProt::rw()).unwrap();
        for i in 0..16 {
            sys.store_u64(pid, va.offset(i * 512), i).unwrap();
        }
        assert!(sys.base().audit().is_empty());
    }

    #[test]
    fn installed_injector_is_shared_with_msg_and_ipi() {
        let (mut sys, pid) = vanilla();
        let inj =
            stramash_sim::shared_injector(stramash_sim::FaultPlan::none().with_ipi_loss(1.0), 42);
        sys.base_mut().install_fault_injector(inj.clone());
        assert!(sys.base().fault_injector().is_some());
        // Any IPI now draws from the shared schedule and recovers.
        let va = sys.mmap(pid, 4096, VmaProt::rw()).unwrap();
        sys.store_u64(pid, va, 1).unwrap();
        let base = sys.base_mut();
        let c = base.ipi.send(DomainId::X86, base.mem.stats_mut(DomainId::X86));
        base.charge(DomainId::X86, c);
        let s = base.mem.stats(DomainId::X86);
        assert!(s.faults_recovered > 0, "lost IPIs were retried");
        assert_eq!(s.faults_injected, inj.borrow().log().len() as u64);
    }
}
