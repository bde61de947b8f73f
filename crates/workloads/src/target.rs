//! A uniform handle over every OS design under test.
//!
//! The evaluation compares seven configurations (§9.2.1): Vanilla,
//! Popcorn-TCP, Popcorn-SHM on three hardware models, and Stramash on
//! three hardware models. [`TargetSystem`] wraps them behind one type so
//! the workloads and bench harnesses can iterate configurations.

use popcorn_os::PopcornSystem;
use std::fmt;
use stramash::StramashSystem;
use stramash_kernel::addr::VirtAddr;
use stramash_kernel::process::Pid;
use stramash_kernel::system::{BaseSystem, OsError, OsSystem, VanillaSystem};
use stramash_sim::{
    shared_injector, Cycles, DomainId, FaultPlan, HardwareModel, SharedFaultInjector, SimConfig,
};

/// Which OS design to instantiate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SystemKind {
    /// Single-kernel baseline, no migration.
    Vanilla,
    /// Popcorn with TCP messaging (hardware-model independent, §8.2).
    PopcornTcp,
    /// Popcorn with shared-memory messaging.
    PopcornShm,
    /// The fused-kernel OS.
    Stramash,
}

impl SystemKind {
    /// All kinds, in the paper's figure order.
    pub const ALL: [SystemKind; 4] =
        [SystemKind::Vanilla, SystemKind::PopcornTcp, SystemKind::PopcornShm, SystemKind::Stramash];

    /// Whether this design migrates threads across ISAs.
    #[must_use]
    pub fn migrates(self) -> bool {
        self != SystemKind::Vanilla
    }
}

impl fmt::Display for SystemKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SystemKind::Vanilla => f.write_str("Vanilla"),
            SystemKind::PopcornTcp => f.write_str("Popcorn-TCP"),
            SystemKind::PopcornShm => f.write_str("Popcorn-SHM"),
            SystemKind::Stramash => f.write_str("Stramash"),
        }
    }
}

enum Inner {
    Vanilla(VanillaSystem),
    Popcorn(PopcornSystem),
    Stramash(StramashSystem),
}

impl fmt::Debug for Inner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Inner::Vanilla(_) => f.write_str("Vanilla"),
            Inner::Popcorn(_) => f.write_str("Popcorn"),
            Inner::Stramash(_) => f.write_str("Stramash"),
        }
    }
}

/// One booted system under test.
#[derive(Debug)]
pub struct TargetSystem {
    kind: SystemKind,
    model: HardwareModel,
    inner: Inner,
    /// The boot configuration, retained so a checkpoint can fingerprint
    /// the platform it was taken on and restore can reject mismatches.
    cfg: SimConfig,
}

/// Stable on-disk code for each [`SystemKind`] in checkpoint artifacts.
fn kind_code(kind: SystemKind) -> u8 {
    match kind {
        SystemKind::Vanilla => 0,
        SystemKind::PopcornTcp => 1,
        SystemKind::PopcornShm => 2,
        SystemKind::Stramash => 3,
    }
}

impl TargetSystem {
    /// Boots `kind` on `model` with the big machine pair.
    ///
    /// # Errors
    ///
    /// Configuration errors.
    pub fn build(kind: SystemKind, model: HardwareModel) -> Result<Self, OsError> {
        Self::build_with(kind, SimConfig::big_pair().with_hw_model(model))
    }

    /// Boots `kind` with an explicit configuration.
    ///
    /// # Errors
    ///
    /// Configuration errors.
    pub fn build_with(kind: SystemKind, cfg: SimConfig) -> Result<Self, OsError> {
        let model = cfg.hw_model;
        let inner = match kind {
            SystemKind::Vanilla => Inner::Vanilla(VanillaSystem::new(cfg.clone())?),
            SystemKind::PopcornTcp => Inner::Popcorn(PopcornSystem::new_tcp(cfg.clone())?),
            SystemKind::PopcornShm => Inner::Popcorn(PopcornSystem::new_shm(cfg.clone())?),
            SystemKind::Stramash => Inner::Stramash(StramashSystem::new(cfg.clone())?),
        };
        Ok(TargetSystem { kind, model, inner, cfg })
    }

    /// The boot configuration this system was built with.
    #[must_use]
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Serializes the complete mutable machine state into a versioned,
    /// CRC-protected checkpoint artifact. The header pins the magic,
    /// format version, system kind and a configuration fingerprint, so
    /// restore rejects artifacts from a different platform. Emits a
    /// [`stramash_sim::trace::TraceEvent::Checkpoint`] into the
    /// installed tracer (passive — no simulated cycles are charged).
    #[must_use]
    pub fn checkpoint(&self) -> Vec<u8> {
        use stramash_sim::checkpoint::{digest_str, Encoder, MAGIC, VERSION};
        let mut e = Encoder::new();
        e.u32(MAGIC);
        e.u32(VERSION);
        e.u8(kind_code(self.kind));
        e.u64(digest_str(&format!("{:?}", self.cfg)));
        match &self.inner {
            Inner::Vanilla(s) => s.base().save_state(&mut e),
            Inner::Popcorn(s) => s.save_state(&mut e),
            Inner::Stramash(s) => s.save_state(&mut e),
        }
        let bytes = e.finish();
        self.base().emit(stramash_sim::trace::TraceEvent::Checkpoint {
            domain: DomainId::X86,
            bytes: bytes.len() as u64,
        });
        if let Some(t) = self.base().tracer() {
            t.borrow_mut().metrics_mut().inc(stramash_sim::trace::CTR_CHECKPOINTS);
        }
        bytes
    }

    /// Restores a [`TargetSystem::checkpoint`] artifact into this
    /// freshly booted system. The system must have been built with the
    /// same kind and configuration; going forward the restored machine
    /// is bit-identical to the one the checkpoint was taken from.
    ///
    /// If a fault injector is installed, its serialized stream positions
    /// are restored too — including a `crash_fired` flag that rewinds
    /// with the checkpoint. A recovery harness replaying past a crash
    /// must call `disarm_crash()` on the injector after this returns.
    ///
    /// # Errors
    ///
    /// [`stramash_sim::checkpoint::CheckpointError`] on corrupt,
    /// truncated, or mismatched artifacts.
    pub fn restore(
        &mut self,
        bytes: &[u8],
    ) -> Result<(), stramash_sim::checkpoint::CheckpointError> {
        use stramash_sim::checkpoint::{digest_str, CheckpointError, Decoder, MAGIC, VERSION};
        let mut d = Decoder::new_verified(bytes)?;
        if d.u32()? != MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        let version = d.u32()?;
        if version != VERSION {
            return Err(CheckpointError::BadVersion(version));
        }
        if d.u8()? != kind_code(self.kind) {
            return Err(CheckpointError::KindMismatch);
        }
        if d.u64()? != digest_str(&format!("{:?}", self.cfg)) {
            return Err(CheckpointError::ConfigMismatch);
        }
        match &mut self.inner {
            Inner::Vanilla(s) => s.base_mut().load_state(&mut d)?,
            Inner::Popcorn(s) => s.load_state(&mut d)?,
            Inner::Stramash(s) => s.load_state(&mut d)?,
        }
        Ok(())
    }

    /// Fails design-specific distributed state over after `dead`'s
    /// kernel died: Popcorn's DSM directories shed the dead domain's
    /// replicas (returning `(pages lost, replicas shed)`); the other
    /// designs keep all state in coherent shared memory and have
    /// nothing to fail over.
    pub fn fail_over(&mut self, dead: DomainId) -> (u64, u64) {
        match &mut self.inner {
            Inner::Popcorn(s) => s.fail_over(dead),
            Inner::Vanilla(_) | Inner::Stramash(_) => (0, 0),
        }
    }

    /// The design under test.
    #[must_use]
    pub fn kind(&self) -> SystemKind {
        self.kind
    }

    /// The hardware model in force.
    #[must_use]
    pub fn model(&self) -> HardwareModel {
        self.model
    }

    /// Spawns a process on `origin`.
    ///
    /// # Errors
    ///
    /// Allocation errors.
    pub fn spawn(&mut self, origin: DomainId) -> Result<Pid, OsError> {
        match &mut self.inner {
            Inner::Vanilla(s) => s.spawn(origin),
            Inner::Popcorn(s) => s.spawn(origin),
            Inner::Stramash(s) => s.spawn(origin),
        }
    }

    /// DSM/origin-replicated page count (Table 3).
    #[must_use]
    pub fn replicated_pages(&self, pid: Pid) -> u64 {
        match &self.inner {
            Inner::Vanilla(_) => 0,
            Inner::Popcorn(s) => s.replicated_pages(pid),
            Inner::Stramash(s) => s.replicated_pages(),
        }
    }

    /// Total inter-kernel messages exchanged so far (Table 3).
    #[must_use]
    pub fn message_total(&self) -> u64 {
        self.base().msg.counters().total()
    }

    /// The Stramash-specific counters (None for other designs).
    #[must_use]
    pub fn stramash_counters(&self) -> Option<&stramash::StramashCounters> {
        match &self.inner {
            Inner::Stramash(s) => Some(s.counters()),
            _ => None,
        }
    }

    /// Direct access to the Stramash system (Table 4 benches).
    pub fn as_stramash_mut(&mut self) -> Option<&mut StramashSystem> {
        match &mut self.inner {
            Inner::Stramash(s) => Some(s),
            _ => None,
        }
    }

    /// Installs a deterministic fault-injection plan, seeded with
    /// `seed`, on whichever system is under test. Every workload run
    /// with the same plan and seed observes the identical fault
    /// sequence regardless of wall-clock timing.
    pub fn install_fault_plan(&mut self, plan: FaultPlan, seed: u64) {
        self.base_mut().install_fault_injector(shared_injector(plan, seed));
    }

    /// The installed fault injector, if any (for counters and the
    /// replayable fault log).
    #[must_use]
    pub fn fault_injector(&self) -> Option<&SharedFaultInjector> {
        self.base().fault_injector()
    }

    /// Installs a shared tracer on whichever system is under test: every
    /// layer (memory hierarchy, messaging, IPIs, OS protocols) records
    /// its events into the same deterministic stream.
    pub fn install_tracer(&mut self, tracer: stramash_sim::SharedTracer) {
        self.base_mut().install_tracer(tracer);
    }

    /// The installed tracer, if any.
    #[must_use]
    pub fn tracer(&self) -> Option<&stramash_sim::SharedTracer> {
        self.base().tracer()
    }

    /// Runs the design-specific invariant auditor and returns every
    /// violation found; empty means sound. Vanilla gets the base
    /// checks (ring cursors + cache coherence), Popcorn adds DSM
    /// directory ↔ page-table agreement, Stramash adds cross-ISA
    /// page-table ↔ VMA ↔ frame-ownership consistency.
    #[must_use]
    pub fn audit(&self) -> Vec<String> {
        match &self.inner {
            Inner::Vanilla(s) => s.base().audit(),
            Inner::Popcorn(s) => s.audit(),
            Inner::Stramash(s) => s.audit(),
        }
    }

    /// Runs `f` with the process's executing domain temporarily forced
    /// to `domain` — modelling a second application thread pinned to the
    /// other kernel (used by the §9.2.4–§9.2.6 microbenchmarks).
    ///
    /// # Errors
    ///
    /// Propagates errors from `f` or the process lookup.
    pub fn as_thread_on<R>(
        &mut self,
        pid: Pid,
        domain: DomainId,
        f: impl FnOnce(&mut Self) -> Result<R, OsError>,
    ) -> Result<R, OsError> {
        let saved = self.base().process(pid)?.current;
        self.base_mut().process_mut(pid)?.current = domain;
        let result = f(self);
        self.base_mut().process_mut(pid)?.current = saved;
        result
    }
}

impl OsSystem for TargetSystem {
    fn base(&self) -> &BaseSystem {
        match &self.inner {
            Inner::Vanilla(s) => s.base(),
            Inner::Popcorn(s) => s.base(),
            Inner::Stramash(s) => s.base(),
        }
    }

    fn base_mut(&mut self) -> &mut BaseSystem {
        match &mut self.inner {
            Inner::Vanilla(s) => s.base_mut(),
            Inner::Popcorn(s) => s.base_mut(),
            Inner::Stramash(s) => s.base_mut(),
        }
    }

    fn name(&self) -> &'static str {
        match &self.inner {
            Inner::Vanilla(s) => s.name(),
            Inner::Popcorn(s) => s.name(),
            Inner::Stramash(s) => s.name(),
        }
    }

    fn handle_fault(&mut self, pid: Pid, va: VirtAddr, write: bool) -> Result<Cycles, OsError> {
        match &mut self.inner {
            Inner::Vanilla(s) => s.handle_fault(pid, va, write),
            Inner::Popcorn(s) => s.handle_fault(pid, va, write),
            Inner::Stramash(s) => s.handle_fault(pid, va, write),
        }
    }

    fn migrate(&mut self, pid: Pid, to: DomainId) -> Result<Cycles, OsError> {
        match &mut self.inner {
            Inner::Vanilla(s) => s.migrate(pid, to),
            Inner::Popcorn(s) => s.migrate(pid, to),
            Inner::Stramash(s) => s.migrate(pid, to),
        }
    }

    fn futex_lock(
        &mut self,
        pid: Pid,
        domain: DomainId,
        uaddr: VirtAddr,
    ) -> Result<Cycles, OsError> {
        match &mut self.inner {
            Inner::Vanilla(s) => s.futex_lock(pid, domain, uaddr),
            Inner::Popcorn(s) => s.futex_lock(pid, domain, uaddr),
            Inner::Stramash(s) => s.futex_lock(pid, domain, uaddr),
        }
    }

    fn futex_unlock(
        &mut self,
        pid: Pid,
        domain: DomainId,
        uaddr: VirtAddr,
    ) -> Result<Cycles, OsError> {
        match &mut self.inner {
            Inner::Vanilla(s) => s.futex_unlock(pid, domain, uaddr),
            Inner::Popcorn(s) => s.futex_unlock(pid, domain, uaddr),
            Inner::Stramash(s) => s.futex_unlock(pid, domain, uaddr),
        }
    }

    fn munmap(&mut self, pid: Pid, start: VirtAddr) -> Result<[u64; 2], OsError> {
        match &mut self.inner {
            Inner::Vanilla(s) => s.munmap(pid, start),
            Inner::Popcorn(s) => s.munmap(pid, start),
            Inner::Stramash(s) => s.munmap(pid, start),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stramash_kernel::vma::VmaProt;

    #[test]
    fn builds_every_kind() {
        for kind in SystemKind::ALL {
            let mut sys = TargetSystem::build(kind, HardwareModel::Shared).unwrap();
            let pid = sys.spawn(DomainId::X86).unwrap();
            let va = sys.mmap(pid, 4096, VmaProt::rw()).unwrap();
            sys.store_u64(pid, va, 9).unwrap();
            assert_eq!(sys.load_u64(pid, va).unwrap(), 9);
            assert_eq!(sys.kind(), kind);
            assert_eq!(sys.replicated_pages(pid), 0);
        }
    }

    #[test]
    fn vanilla_does_not_migrate() {
        assert!(!SystemKind::Vanilla.migrates());
        assert!(SystemKind::Stramash.migrates());
        let mut sys = TargetSystem::build(SystemKind::Vanilla, HardwareModel::Shared).unwrap();
        let pid = sys.spawn(DomainId::X86).unwrap();
        assert!(sys.migrate(pid, DomainId::ARM).is_err());
    }

    #[test]
    fn as_thread_on_restores_domain() {
        let mut sys = TargetSystem::build(SystemKind::Stramash, HardwareModel::Shared).unwrap();
        let pid = sys.spawn(DomainId::X86).unwrap();
        let va = sys.mmap(pid, 4096, VmaProt::rw()).unwrap();
        sys.store_u64(pid, va, 1).unwrap();
        sys.as_thread_on(pid, DomainId::ARM, |s| {
            assert_eq!(s.current_domain(pid)?, DomainId::ARM);
            s.load_u64(pid, va).map(|v| assert_eq!(v, 1))
        })
        .unwrap();
        assert_eq!(sys.current_domain(pid).unwrap(), DomainId::X86);
    }

    #[test]
    fn restore_rejects_a_version_1_artifact() {
        use stramash_sim::checkpoint::{crc32, CheckpointError, VERSION};
        let sys = TargetSystem::build(SystemKind::Vanilla, HardwareModel::Shared).unwrap();
        let mut bytes = sys.checkpoint();
        assert_eq!(VERSION, 2);
        // Rewrite the header's version field (after the 4-byte magic)
        // and re-seal the CRC, so only the version is wrong.
        bytes[4..8].copy_from_slice(&1u32.to_le_bytes());
        let body = bytes.len() - 4;
        let crc = crc32(&bytes[..body]);
        bytes[body..].copy_from_slice(&crc.to_le_bytes());
        let mut fresh = TargetSystem::build(SystemKind::Vanilla, HardwareModel::Shared).unwrap();
        assert_eq!(fresh.restore(&bytes), Err(CheckpointError::BadVersion(1)));
    }

    #[test]
    fn kind_display() {
        assert_eq!(SystemKind::PopcornShm.to_string(), "Popcorn-SHM");
        assert_eq!(SystemKind::ALL.len(), 4);
    }
}
