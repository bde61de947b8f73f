//! Crash-recovery supervisor: stepped workloads under a watchdog.
//!
//! The recovery state machine of DESIGN.md §10.3. A workload is run as
//! a sequence of *steps* (one KV request, one NPB ranking procedure);
//! between steps the supervisor takes periodic checkpoints and drives
//! [`BaseSystem::watchdog_tick`], so a [`FaultPlan`] crash manifests as
//! heartbeat silence and — after the watchdog declares the domain dead
//! and quarantines its messages and locks — recovery proceeds by
//! policy:
//!
//! * [`RecoveryPolicy::RestartFromCheckpoint`] — rebuild a fresh
//!   machine, restore the last checkpoint artifact (system *and*
//!   workload cursor in one atomic snapshot), disarm the already-fired
//!   crash and replay the step backlog. Replay is deterministic, so the
//!   finished run is byte-identical to an uninterrupted one.
//! * [`RecoveryPolicy::Degrade`] — the surviving kernel adopts the
//!   work: DSM entries fail over, the process is re-homed, migration is
//!   suppressed, and the survivor drains the remaining steps alone.
//!
//! [`BaseSystem::watchdog_tick`]: stramash_kernel::system::BaseSystem::watchdog_tick
//! [`FaultPlan`]: stramash_sim::FaultPlan

use crate::client::{ArrayU64, MemoryClient};
use crate::kvstore::{KvOp, KvRun, KvRunResult, KvServer};
use crate::npb::is::{self, IsArrays};
use crate::npb::{offload, Class, NpbOutcome};
use crate::target::TargetSystem;
use stramash_kernel::process::Pid;
use stramash_kernel::system::{OsError, OsSystem};
use stramash_kernel::watchdog::DEFAULT_THRESHOLD;
use stramash_sim::checkpoint::{CheckpointError, Decoder, Encoder};
use stramash_sim::trace::TraceEvent;
use stramash_sim::DomainId;

/// What the supervisor does once the watchdog declares a domain dead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryPolicy {
    /// The surviving kernel adopts the work and drains it alone.
    Degrade,
    /// Rebuild from the last checkpoint and replay the step backlog.
    RestartFromCheckpoint,
}

/// Supervisor knobs.
#[derive(Debug, Clone, Copy)]
pub struct RecoveryConfig {
    /// Dead-domain policy.
    pub policy: RecoveryPolicy,
    /// Steps between periodic checkpoints (0 = only the baseline
    /// snapshot taken before step 0).
    pub checkpoint_every: u64,
    /// Heartbeat misses before the watchdog declares death.
    pub watchdog_threshold: u32,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig {
            policy: RecoveryPolicy::RestartFromCheckpoint,
            checkpoint_every: 16,
            watchdog_threshold: DEFAULT_THRESHOLD,
        }
    }
}

/// A supervised run's result plus the recovery history.
#[derive(Debug)]
pub struct Recovered<T> {
    /// The workload's own outcome.
    pub result: T,
    /// The system as it finished (for fingerprinting and audits).
    pub sys: TargetSystem,
    /// Watchdog deaths observed.
    pub crashes: u32,
    /// Restart-from-checkpoint recoveries performed.
    pub restarts: u32,
    /// `Some(dead)` when the run finished degraded on one kernel.
    pub degraded: Option<DomainId>,
}

/// Section tag of the supervisor's combined artifact ("RCVR").
const RCVR: u32 = 0x5243_5652;

/// A workload the supervisor can checkpoint, replay and re-home.
trait Stepped {
    type Output;
    /// Serializes the workload-side cursor state.
    fn save(&self, e: &mut Encoder);
    /// Restores what [`Stepped::save`] wrote, against the restored
    /// system (for state recomputed from the machine, e.g. the current
    /// domain of the server process).
    fn restore(&mut self, d: &mut Decoder<'_>, sys: &TargetSystem) -> Result<(), CheckpointError>;
    /// Executes step `step` (0-based).
    fn step(&mut self, sys: &mut TargetSystem, step: u64) -> Result<(), OsError>;
    /// Re-homes the workload onto `survivor` after a degrade decision.
    fn adopt(&mut self, sys: &mut TargetSystem, survivor: DomainId) -> Result<(), OsError>;
    /// Finishes the run (verification sweeps) and produces the output.
    fn finish(&mut self, sys: &mut TargetSystem) -> Result<Self::Output, OsError>;
}

/// One atomic snapshot: machine checkpoint + workload cursor state.
fn snapshot<W: Stepped>(sys: &TargetSystem, w: &W, cursor: u64) -> Vec<u8> {
    let mut e = Encoder::new();
    e.tag(RCVR);
    e.bytes(&sys.checkpoint());
    w.save(&mut e);
    e.u64(cursor);
    e.into_bytes()
}

/// Rebuilds a fresh machine from `artifact`, re-wiring the old
/// system's injector and tracer handles, and returns it with the
/// restored step cursor. The fired crash is disarmed so replay does
/// not re-kill the domain.
fn rollback<W: Stepped>(
    old: &TargetSystem,
    artifact: &[u8],
    w: &mut W,
) -> Result<(TargetSystem, u64), OsError> {
    let mut d = Decoder::new(artifact);
    d.tag(RCVR)?;
    let sys_bytes = d.bytes()?.to_vec();
    let mut sys = TargetSystem::build_with(old.kind(), old.config().clone())?;
    if let Some(inj) = old.fault_injector() {
        sys.base_mut().install_fault_injector(inj.clone());
    }
    if let Some(t) = old.tracer() {
        sys.install_tracer(t.clone());
    }
    sys.restore(&sys_bytes)?;
    if let Some(inj) = sys.fault_injector() {
        inj.borrow_mut().disarm_crash();
    }
    // The artifact may predate the crash only by moments; clear any
    // in-progress miss counting so detection restarts from scratch.
    sys.base_mut().watchdog_mut().reset_after_recovery();
    w.restore(&mut d, &sys)?;
    let cursor = d.u64()?;
    Ok((sys, cursor))
}

/// The supervisor loop: step, tick the watchdog, recover by policy.
fn supervise<W: Stepped>(
    mut sys: TargetSystem,
    mut w: W,
    steps: u64,
    rc: &RecoveryConfig,
) -> Result<Recovered<W::Output>, OsError> {
    sys.base_mut().enable_watchdog(rc.watchdog_threshold);
    let mut artifact = snapshot(&sys, &w, 0);
    let mut cursor = 0u64;
    let mut crashes = 0u32;
    let mut restarts = 0u32;
    let mut degraded = None;
    while cursor < steps {
        // Never snapshot inside a crash's silent window (fired but not
        // yet detected): such an artifact would bake the halted domain's
        // missing heartbeats into every replay.
        let halted = {
            let wd = sys.base().watchdog();
            DomainId::ALL.iter().any(|&d| wd.is_halted(d))
        };
        if cursor > 0
            && rc.checkpoint_every > 0
            && cursor.is_multiple_of(rc.checkpoint_every)
            && !halted
        {
            artifact = snapshot(&sys, &w, cursor);
        }
        w.step(&mut sys, cursor)?;
        cursor += 1;
        if let Some(report) = sys.base_mut().watchdog_tick(cursor) {
            crashes += 1;
            match rc.policy {
                RecoveryPolicy::RestartFromCheckpoint => {
                    sys.base().emit(TraceEvent::Recovery { domain: report.dead, stage: "restart" });
                    let (fresh, restored_cursor) = rollback(&sys, &artifact, &mut w)?;
                    sys = fresh;
                    cursor = restored_cursor;
                    restarts += 1;
                    sys.base().emit(TraceEvent::Recovery { domain: report.dead, stage: "replay" });
                }
                RecoveryPolicy::Degrade => {
                    let survivor = report.dead.other();
                    sys.base().emit(TraceEvent::Recovery { domain: report.dead, stage: "degrade" });
                    sys.fail_over(report.dead);
                    w.adopt(&mut sys, survivor)?;
                    degraded = Some(report.dead);
                }
            }
        }
    }
    let result = w.finish(&mut sys)?;
    Ok(Recovered { result, sys, crashes, restarts, degraded })
}

// ---------------------------------------------------------------------
// Stepped KV store (one request per step)
// ---------------------------------------------------------------------

fn op_code(op: KvOp) -> u8 {
    KvOp::ALL.iter().position(|&o| o == op).unwrap_or(0) as u8
}

fn op_from_code(code: u8) -> Result<KvOp, CheckpointError> {
    KvOp::ALL.get(code as usize).copied().ok_or(CheckpointError::Malformed("unknown KV op code"))
}

impl Stepped for KvRun {
    type Output = KvRunResult;

    fn save(&self, e: &mut Encoder) {
        e.tag(0x534b_5653); // "SKVS"
        e.u32(self.pid.0);
        self.server.save_state(e);
        e.u8(op_code(self.op));
        e.u64(self.requests);
        e.u32(self.payload.len() as u32);
        e.domain(self.server_domain);
        e.u64(self.checksum);
        e.u64(self.before.raw());
    }

    fn restore(&mut self, d: &mut Decoder<'_>, sys: &TargetSystem) -> Result<(), CheckpointError> {
        d.tag(0x534b_5653)?;
        self.pid = Pid(d.u32()?);
        self.server = KvServer::load_state(d)?;
        self.op = op_from_code(d.u8()?)?;
        self.requests = d.u64()?;
        // Checked before the allocation: a request must fit one message.
        let payload_len = d.u32()?;
        if u64::from(payload_len) > sys.base().msg.max_message_bytes() {
            return Err(CheckpointError::Malformed("KV payload longer than a message"));
        }
        self.payload = vec![0xab; payload_len as usize];
        self.server_domain = d.domain()?;
        self.checksum = d.u64()?;
        self.before = stramash_sim::Cycles::new(d.u64()?);
        Ok(())
    }

    fn step(&mut self, sys: &mut TargetSystem, step: u64) -> Result<(), OsError> {
        self.request(sys, step)
    }

    fn adopt(&mut self, sys: &mut TargetSystem, survivor: DomainId) -> Result<(), OsError> {
        if sys.current_domain(self.pid)? != survivor {
            // Forced adoption: the survivor re-homes the task straight
            // from DRAM — no migration protocol with a dead kernel. A
            // survivor without its own page-table format for the task
            // (single-ISA Vanilla) cannot adopt it at all.
            if sys.base().process(self.pid)?.page_tables[survivor.index()].is_none() {
                return Err(OsError::DomainDead(survivor.other()));
            }
            sys.base_mut().process_mut(self.pid)?.current = survivor;
        }
        self.server_domain = survivor;
        Ok(())
    }

    fn finish(&mut self, sys: &mut TargetSystem) -> Result<KvRunResult, OsError> {
        self.sweep(sys)
    }
}

/// Runs the Figure 14 KV experiment one request per step under the
/// crash-recovery supervisor. With no installed fault plan this is the
/// stepped-deterministic baseline; with a plan containing a
/// `DomainCrash`, the run recovers by `rc.policy` and — under
/// [`RecoveryPolicy::RestartFromCheckpoint`] — produces a checksum
/// byte-identical to the crash-free baseline.
///
/// # Errors
///
/// OS errors, including checkpoint-decode failures during recovery.
pub fn run_kv_recovered(
    mut sys: TargetSystem,
    op: KvOp,
    requests: u64,
    payload_len: u32,
    rc: &RecoveryConfig,
) -> Result<Recovered<KvRunResult>, OsError> {
    let run = KvRun::setup(&mut sys, op, requests, payload_len)?;
    supervise(sys, run, requests, rc)
}

// ---------------------------------------------------------------------
// Stepped NPB IS (one ranking procedure per step)
// ---------------------------------------------------------------------

struct SteppedIs {
    pid: Pid,
    keys: ArrayU64,
    sorted: ArrayU64,
    hist: ArrayU64,
    max_key: u64,
    migrate: bool,
    verified: bool,
    procedures: u32,
}

fn save_array(e: &mut Encoder, a: ArrayU64) {
    e.u64(a.base().raw());
    e.u64(a.len());
}

fn load_array(d: &mut Decoder<'_>) -> Result<ArrayU64, CheckpointError> {
    let base = d.u64()?;
    let len = d.u64()?;
    Ok(ArrayU64::from_raw(stramash_kernel::addr::VirtAddr::new(base), len))
}

impl Stepped for SteppedIs {
    type Output = NpbOutcome;

    fn save(&self, e: &mut Encoder) {
        e.tag(0x5349_5353); // "SISS"
        e.u32(self.pid.0);
        save_array(e, self.keys);
        save_array(e, self.sorted);
        save_array(e, self.hist);
        e.u64(self.max_key);
        e.bool(self.migrate);
        e.bool(self.verified);
        e.u32(self.procedures);
    }

    fn restore(&mut self, d: &mut Decoder<'_>, _sys: &TargetSystem) -> Result<(), CheckpointError> {
        d.tag(0x5349_5353)?;
        self.pid = Pid(d.u32()?);
        self.keys = load_array(d)?;
        self.sorted = load_array(d)?;
        self.hist = load_array(d)?;
        self.max_key = d.u64()?;
        self.migrate = d.bool()?;
        self.verified = d.bool()?;
        self.procedures = d.u32()?;
        Ok(())
    }

    fn step(&mut self, sys: &mut TargetSystem, _step: u64) -> Result<(), OsError> {
        let arrays = IsArrays { keys: self.keys, sorted: self.sorted, hist: self.hist };
        let mut c = MemoryClient::new(sys, self.pid);
        offload(&mut c, self.migrate, |c| is::rank(c, arrays))?;
        self.procedures += 1;
        if !is::spot_check(&mut c, self.sorted)? {
            self.verified = false;
        }
        c.flush_work()
    }

    fn adopt(&mut self, sys: &mut TargetSystem, survivor: DomainId) -> Result<(), OsError> {
        if sys.current_domain(self.pid)? != survivor {
            if sys.base().process(self.pid)?.page_tables[survivor.index()].is_none() {
                return Err(OsError::DomainDead(survivor.other()));
            }
            sys.base_mut().process_mut(self.pid)?.current = survivor;
        }
        self.migrate = false;
        Ok(())
    }

    fn finish(&mut self, sys: &mut TargetSystem) -> Result<NpbOutcome, OsError> {
        let mut c = MemoryClient::new(sys, self.pid);
        let (ordered, checksum) = is::verify_sorted(&mut c, self.sorted)?;
        c.flush_work()?;
        Ok(NpbOutcome { verified: self.verified && ordered, checksum, procedures: self.procedures })
    }
}

/// Runs NPB IS one ranking procedure per step under the crash-recovery
/// supervisor. Same contract as [`run_kv_recovered`]: with a crash in
/// the installed plan and restart-from-checkpoint recovery, the sorted
/// output and checksum are byte-identical to the crash-free stepped
/// baseline.
///
/// # Errors
///
/// OS errors, including checkpoint-decode failures during recovery.
pub fn run_is_recovered(
    mut sys: TargetSystem,
    class: Class,
    rc: &RecoveryConfig,
) -> Result<Recovered<NpbOutcome>, OsError> {
    let p = is::params(class);
    let pid = sys.spawn(DomainId::X86)?;
    let migrate = sys.kind().migrates();
    let IsArrays { keys, sorted, hist } = {
        let mut c = MemoryClient::new(&mut sys, pid);
        let arrays = is::setup(&mut c, &p)?;
        c.flush_work()?;
        arrays
    };
    let w = SteppedIs {
        pid,
        keys,
        sorted,
        hist,
        max_key: p.max_key,
        migrate,
        verified: true,
        procedures: 0,
    };
    supervise(sys, w, u64::from(p.iterations), rc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::target::SystemKind;
    use stramash_sim::{FaultPlan, HardwareModel};

    fn build(kind: SystemKind) -> TargetSystem {
        TargetSystem::build(kind, HardwareModel::Shared).unwrap()
    }

    fn crash_plan(domain: u8, at_tick: u64) -> FaultPlan {
        let mut p = FaultPlan::none();
        p.crash = Some((domain, at_tick));
        p
    }

    #[test]
    fn stepped_kv_without_faults_matches_itself() {
        let rc = RecoveryConfig::default();
        let a = run_kv_recovered(build(SystemKind::Stramash), KvOp::Set, 60, 64, &rc).unwrap();
        let b = run_kv_recovered(build(SystemKind::Stramash), KvOp::Set, 60, 64, &rc).unwrap();
        assert_eq!(a.result.checksum, b.result.checksum);
        assert_eq!(a.result.total, b.result.total, "stepped runs must be deterministic");
        assert_eq!(a.crashes, 0);
        assert_eq!(a.restarts, 0);
    }

    #[test]
    fn kv_crash_restart_is_byte_identical() {
        let rc = RecoveryConfig { checkpoint_every: 8, ..RecoveryConfig::default() };
        let clean = run_kv_recovered(build(SystemKind::Stramash), KvOp::Set, 60, 64, &rc).unwrap();
        let mut sys = build(SystemKind::Stramash);
        sys.install_fault_plan(crash_plan(1, 20), 0xdead_beef);
        let hurt = run_kv_recovered(sys, KvOp::Set, 60, 64, &rc).unwrap();
        assert_eq!(hurt.crashes, 1);
        assert_eq!(hurt.restarts, 1);
        assert_eq!(
            hurt.result.checksum, clean.result.checksum,
            "restart-from-checkpoint must replay to the same responses"
        );
        assert!(hurt.sys.audit().is_empty(), "auditor violations after recovery");
    }

    #[test]
    fn kv_crash_degrade_completes_on_survivor() {
        let rc = RecoveryConfig { policy: RecoveryPolicy::Degrade, ..RecoveryConfig::default() };
        let mut sys = build(SystemKind::Stramash);
        sys.install_fault_plan(crash_plan(1, 20), 0xdead_beef);
        let out = run_kv_recovered(sys, KvOp::Set, 60, 64, &rc).unwrap();
        assert_eq!(out.crashes, 1);
        assert_eq!(out.restarts, 0);
        assert_eq!(out.degraded, Some(DomainId::ARM));
        assert_eq!(out.result.requests, 60);
    }

    #[test]
    fn forged_skvs_fields_are_malformed() {
        let mut sys = build(SystemKind::Stramash);
        let mut run = KvRun::setup(&mut sys, KvOp::Set, 4, 64).unwrap();
        let mut e = Encoder::new();
        run.save(&mut e);
        let good = e.into_bytes();
        // The section ends with the payload length (u32), the server
        // domain (u8), the checksum and the start runtime (u64 each).
        let domain_at = good.len() - 17;
        let len_at = domain_at - 4;
        let restore = |bytes: &[u8], run: &mut KvRun| run.restore(&mut Decoder::new(bytes), &sys);
        restore(&good, &mut run).unwrap();
        assert_eq!((run.payload.len(), run.server_domain), (64, DomainId::ARM));

        let mut bad = good.clone();
        bad[domain_at] = 2;
        assert_eq!(restore(&bad, &mut run), Err(CheckpointError::Malformed("domain code")));
        let mut bad = good;
        bad[len_at..domain_at].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            restore(&bad, &mut run),
            Err(CheckpointError::Malformed("KV payload longer than a message"))
        );
    }

    #[test]
    fn is_crash_restart_is_byte_identical() {
        let rc = RecoveryConfig {
            checkpoint_every: 1,
            watchdog_threshold: 1,
            ..RecoveryConfig::default()
        };
        let clean = run_is_recovered(build(SystemKind::Stramash), Class::Tiny, &rc).unwrap();
        assert!(clean.result.verified);
        let mut sys = build(SystemKind::Stramash);
        sys.install_fault_plan(crash_plan(1, 1), 0xfeed);
        let hurt = run_is_recovered(sys, Class::Tiny, &rc).unwrap();
        assert_eq!(hurt.crashes, 1);
        assert!(hurt.restarts >= 1);
        assert!(hurt.result.verified, "recovered IS must still sort");
        assert_eq!(hurt.result.checksum, clean.result.checksum);
        assert_eq!(hurt.result.procedures, clean.result.procedures);
    }
}
