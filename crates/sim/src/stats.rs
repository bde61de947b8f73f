//! Per-domain simulation statistics.
//!
//! [`DomainStats`] mirrors the counter block that the Stramash artifact's
//! cache plugin prints at the end of a run (Artifact Appendix A.5
//! "Example output"): per-level cache hit counts and rates, IPI count,
//! local/remote/remote-shared memory hits, instruction and memory-access
//! counts, and the derived runtime.

use crate::config::LatencyTable;
use crate::time::{Cycles, DomainId};
use std::fmt;

/// Errors from statistics derivations on degenerate inputs.
///
/// These were previously *silently clamped* (`saturating_sub` to zero),
/// which produced a plausible-looking but meaningless Fully-Shared
/// estimate; the typed error makes the bad input visible instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatsError {
    /// The latency table claims remote DRAM is not slower than local
    /// DRAM, so the remote-vs-local differential is undefined.
    InvertedLatencyTable {
        /// Local DRAM latency.
        mem: u32,
        /// Remote DRAM latency (≤ `mem`, which is the defect).
        remote_mem: u32,
    },
    /// The subtracted term exceeds the measured runtime — the counters
    /// and the runtime cannot belong to the same run.
    EstimateUnderflow {
        /// The measured runtime.
        runtime: u64,
        /// The remote-hit adjustment that exceeds it.
        adjustment: u64,
    },
}

impl fmt::Display for StatsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StatsError::InvertedLatencyTable { mem, remote_mem } => write!(
                f,
                "latency table is inverted: remote_mem {remote_mem} is not above mem {mem}"
            ),
            StatsError::EstimateUnderflow { runtime, adjustment } => {
                write!(f, "fully-shared adjustment {adjustment} exceeds runtime {runtime}")
            }
        }
    }
}

impl std::error::Error for StatsError {}

/// The artifact's Fully-Shared runtime derivation (Appendix A.5):
///
/// ```text
/// Fully Shared Runtime = Final Runtime − Remote Memory Hits × (remote − local)
/// ```
///
/// With the AE plugin constants (remote 660, local 360) the subtracted
/// term is `remote_hits × 0.455 × remote`; expressed against a
/// [`LatencyTable`] it is simply the remote-vs-local differential per
/// remote DRAM hit.
///
/// # Errors
///
/// [`StatsError::InvertedLatencyTable`] when `remote_mem ≤ mem` with
/// remote hits present (the differential would be negative), and
/// [`StatsError::EstimateUnderflow`] when the adjustment exceeds the
/// runtime — both cases previously clamped silently to `Cycles::ZERO`.
pub fn fully_shared_estimate(
    runtime: Cycles,
    remote_hits: u64,
    table: &LatencyTable,
) -> Result<Cycles, StatsError> {
    if remote_hits == 0 {
        return Ok(runtime);
    }
    if table.remote_mem <= table.mem {
        return Err(StatsError::InvertedLatencyTable {
            mem: table.mem,
            remote_mem: table.remote_mem,
        });
    }
    let differential = u64::from(table.remote_mem - table.mem);
    let adjustment = remote_hits
        .checked_mul(differential)
        .ok_or(StatsError::EstimateUnderflow { runtime: runtime.raw(), adjustment: u64::MAX })?;
    let estimate = runtime
        .raw()
        .checked_sub(adjustment)
        .ok_or(StatsError::EstimateUnderflow { runtime: runtime.raw(), adjustment })?;
    Ok(Cycles::new(estimate))
}

/// Counters for one cache level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LevelStats {
    /// Accesses that reached this level.
    pub accesses: u64,
    /// Accesses that hit at this level.
    pub hits: u64,
}

impl LevelStats {
    /// Hit rate in `[0, 1]`; zero when the level was never accessed.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses as f64
        }
    }

    /// Records one access, a hit when `hit` is true.
    #[inline]
    pub fn record(&mut self, hit: bool) {
        self.accesses += 1;
        self.hits += u64::from(hit);
    }
}

/// All counters for one ISA domain, in the artifact's output format.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DomainStats {
    /// L1 instruction cache.
    pub l1i: LevelStats,
    /// L1 data cache.
    pub l1d: LevelStats,
    /// Unified L2.
    pub l2: LevelStats,
    /// Unified L3 / LLC.
    pub l3: LevelStats,
    /// Inter-processor interrupts sent by this domain.
    pub ipi: u64,
    /// Cache misses satisfied by this domain's local memory.
    pub local_mem_hits: u64,
    /// Cache misses satisfied by the *other* domain's memory (remote).
    pub remote_mem_hits: u64,
    /// Cache misses satisfied by the shared memory pool (remote shared).
    pub remote_shared_mem_hits: u64,
    /// Cache misses satisfied by a snoop from the other domain's cache.
    pub snoop_data_hits: u64,
    /// Snoop invalidations this domain *caused* in the other domain.
    pub snoop_invalidations: u64,
    /// Retired instructions.
    pub instructions: u64,
    /// Memory accesses issued.
    pub mem_accesses: u64,
    /// Software-TLB lookups that hit a cached translation.
    pub tlb_hits: u64,
    /// Software-TLB lookups that missed and took a page-table walk.
    pub tlb_misses: u64,
    /// Faults injected while this domain was the acting side. Every
    /// fault the injector fires lands in exactly one domain, so the sum
    /// over both domains equals the injector's log length.
    pub faults_injected: u64,
    /// Recovery attempts (retransmits, lock re-acquisitions, allocation
    /// retries) this domain performed.
    pub faults_retried: u64,
    /// Injected faults this domain fully recovered from.
    pub faults_recovered: u64,
    /// Injected faults that were unrecoverable (a message, ack or IPI
    /// whose retransmission cap ran out).
    pub faults_fatal: u64,
    /// Accumulated runtime (icount + memory feedback).
    pub runtime: Cycles,
}

impl DomainStats {
    /// Creates zeroed statistics.
    #[must_use]
    pub fn new() -> Self {
        DomainStats::default()
    }

    /// Combined L1 hit rate over instruction and data accesses.
    #[must_use]
    pub fn l1_combined_hit_rate(&self) -> f64 {
        let acc = self.l1i.accesses + self.l1d.accesses;
        if acc == 0 {
            0.0
        } else {
            (self.l1i.hits + self.l1d.hits) as f64 / acc as f64
        }
    }

    /// Records one injected fault that a single retry recovered (a
    /// retransmission, a re-raised IPI, a re-run allocation).
    pub fn note_retried_fault(&mut self) {
        self.faults_injected += 1;
        self.faults_retried += 1;
        self.faults_recovered += 1;
    }

    /// Records one injected fault whose retry cap ran out.
    pub fn note_fatal_fault(&mut self) {
        self.faults_injected += 1;
        self.faults_fatal += 1;
    }

    /// Software-TLB hit rate in `[0, 1]`; zero before any lookup.
    #[must_use]
    pub fn tlb_hit_rate(&self) -> f64 {
        let total = self.tlb_hits + self.tlb_misses;
        if total == 0 {
            0.0
        } else {
            self.tlb_hits as f64 / total as f64
        }
    }

    /// The counters accumulated since `earlier`, an older snapshot of
    /// the same domain: one phase of the §7.3 perf+icount report. `None`
    /// when some counter of `earlier` exceeds this one, so the two cannot
    /// be snapshots of one run in that order.
    #[must_use]
    pub fn checked_since(&self, earlier: &DomainStats) -> Option<DomainStats> {
        let level = |now: LevelStats, then: LevelStats| {
            Some(LevelStats {
                accesses: now.accesses.checked_sub(then.accesses)?,
                hits: now.hits.checked_sub(then.hits)?,
            })
        };
        Some(DomainStats {
            l1i: level(self.l1i, earlier.l1i)?,
            l1d: level(self.l1d, earlier.l1d)?,
            l2: level(self.l2, earlier.l2)?,
            l3: level(self.l3, earlier.l3)?,
            ipi: self.ipi.checked_sub(earlier.ipi)?,
            local_mem_hits: self.local_mem_hits.checked_sub(earlier.local_mem_hits)?,
            remote_mem_hits: self.remote_mem_hits.checked_sub(earlier.remote_mem_hits)?,
            remote_shared_mem_hits: self
                .remote_shared_mem_hits
                .checked_sub(earlier.remote_shared_mem_hits)?,
            snoop_data_hits: self.snoop_data_hits.checked_sub(earlier.snoop_data_hits)?,
            snoop_invalidations: self
                .snoop_invalidations
                .checked_sub(earlier.snoop_invalidations)?,
            instructions: self.instructions.checked_sub(earlier.instructions)?,
            mem_accesses: self.mem_accesses.checked_sub(earlier.mem_accesses)?,
            tlb_hits: self.tlb_hits.checked_sub(earlier.tlb_hits)?,
            tlb_misses: self.tlb_misses.checked_sub(earlier.tlb_misses)?,
            faults_injected: self.faults_injected.checked_sub(earlier.faults_injected)?,
            faults_retried: self.faults_retried.checked_sub(earlier.faults_retried)?,
            faults_recovered: self.faults_recovered.checked_sub(earlier.faults_recovered)?,
            faults_fatal: self.faults_fatal.checked_sub(earlier.faults_fatal)?,
            runtime: Cycles::new(self.runtime.raw().checked_sub(earlier.runtime.raw())?),
        })
    }

    /// Serializes every counter into a checkpoint section.
    pub fn save_state(&self, e: &mut crate::checkpoint::Encoder) {
        e.tag(0x4453_5441); // "DSTA"
        for level in [&self.l1i, &self.l1d, &self.l2, &self.l3] {
            e.u64(level.accesses);
            e.u64(level.hits);
        }
        for v in [
            self.ipi,
            self.local_mem_hits,
            self.remote_mem_hits,
            self.remote_shared_mem_hits,
            self.snoop_data_hits,
            self.snoop_invalidations,
            self.instructions,
            self.mem_accesses,
            self.tlb_hits,
            self.tlb_misses,
            self.faults_injected,
            self.faults_retried,
            self.faults_recovered,
            self.faults_fatal,
            self.runtime.raw(),
        ] {
            e.u64(v);
        }
    }

    /// Restores every counter from a checkpoint section.
    ///
    /// # Errors
    ///
    /// Decoding errors.
    pub fn load_state(
        &mut self,
        d: &mut crate::checkpoint::Decoder<'_>,
    ) -> Result<(), crate::checkpoint::CheckpointError> {
        d.tag(0x4453_5441)?;
        for level in [&mut self.l1i, &mut self.l1d, &mut self.l2, &mut self.l3] {
            level.accesses = d.u64()?;
            level.hits = d.u64()?;
        }
        self.ipi = d.u64()?;
        self.local_mem_hits = d.u64()?;
        self.remote_mem_hits = d.u64()?;
        self.remote_shared_mem_hits = d.u64()?;
        self.snoop_data_hits = d.u64()?;
        self.snoop_invalidations = d.u64()?;
        self.instructions = d.u64()?;
        self.mem_accesses = d.u64()?;
        self.tlb_hits = d.u64()?;
        self.tlb_misses = d.u64()?;
        self.faults_injected = d.u64()?;
        self.faults_retried = d.u64()?;
        self.faults_recovered = d.u64()?;
        self.faults_fatal = d.u64()?;
        self.runtime = Cycles::new(d.u64()?);
        Ok(())
    }

    /// Renders the artifact-style report block.
    #[must_use]
    pub fn report(&self, label: &str) -> String {
        let mut s = String::new();
        use fmt::Write as _;
        let _ = writeln!(s, "{label}:");
        let _ = writeln!(s, "L1 Cache Hit Rate: {:.2}%", self.l1_combined_hit_rate() * 100.0);
        let _ = writeln!(s, "L2 Cache Hit Rate: {:.2}%", self.l2.hit_rate() * 100.0);
        let _ = writeln!(s, "L3 Cache Hit Rate: {:.2}%", self.l3.hit_rate() * 100.0);
        let _ = writeln!(s, "L1 Cache Hits: {}", self.l1i.hits + self.l1d.hits);
        let _ = writeln!(s, "L2 Cache Hits: {}", self.l2.hits);
        let _ = writeln!(s, "L3 Cache Hits: {}", self.l3.hits);
        let _ = writeln!(s, "L1 Cache Accesses: {}", self.l1i.accesses + self.l1d.accesses);
        let _ = writeln!(s, "L2 Cache Accesses: {}", self.l2.accesses);
        let _ = writeln!(s, "L3 Cache Accesses: {}", self.l3.accesses);
        let _ = writeln!(s, "IPI: {}", self.ipi);
        let _ = writeln!(s, "Local Memory Hits: {}", self.local_mem_hits);
        let _ = writeln!(s, "Remote Memory Hits: {}", self.remote_mem_hits);
        let _ = writeln!(s, "Remote Shared Memory Hits: {}", self.remote_shared_mem_hits);
        let _ = writeln!(s, "Number of Instructions: {}", self.instructions);
        let _ = writeln!(s, "Number of mem_access: {}", self.mem_accesses);
        let _ = writeln!(s, "TLB Hits: {}", self.tlb_hits);
        let _ = writeln!(s, "TLB Misses: {}", self.tlb_misses);
        let _ = writeln!(s, "TLB Hit Rate: {:.2}%", self.tlb_hit_rate() * 100.0);
        let _ = writeln!(s, "Faults Injected: {}", self.faults_injected);
        let _ = writeln!(s, "Faults Retried: {}", self.faults_retried);
        let _ = writeln!(s, "Faults Recovered: {}", self.faults_recovered);
        let _ = writeln!(s, "Faults Fatal: {}", self.faults_fatal);
        let _ = writeln!(s, "Runtime: {}", self.runtime.raw());
        s
    }
}

/// Renders the §7.3 perf+icount per-phase table. `phases[i]` holds
/// what each domain did between migration `i` and the next one (phase 0
/// starts at boot, the last phase ends at the current counters), so
/// each phase is attributed to the domain that executed it. Memory
/// cycles are runtime minus instructions (IPC 1).
#[must_use]
pub fn render_phases(phases: &[[DomainStats; 2]]) -> String {
    use fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:<7} {:<5} {:>14} {:>14} {:>12} {:>11} {:>6}",
        "phase", "dom", "insns", "mem_cycles", "l1_acc", "remote_hits", "ipis"
    );
    for (i, phase) in phases.iter().enumerate() {
        for d in DomainId::ALL {
            let p = &phase[d.index()];
            let _ = writeln!(
                s,
                "{:<7} {:<5} {:>14} {:>14} {:>12} {:>11} {:>6}",
                i,
                d.to_string(),
                p.instructions,
                (p.runtime - Cycles::new(p.instructions)).raw(),
                p.l1i.accesses + p.l1d.accesses,
                p.remote_mem_hits + p.remote_shared_mem_hits,
                p.ipi
            );
        }
    }
    let _ = writeln!(s, "phases: {} (split at thread migrations)", phases.len());
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ae_fully_shared_derivation() {
        // 1000 remote hits on the Xeon Gold row: each saves 640−300
        // cycles under the Fully-Shared model.
        let est =
            fully_shared_estimate(Cycles::new(1_000_000), 1000, &LatencyTable::XEON_GOLD).unwrap();
        assert_eq!(est.raw(), 1_000_000 - 1000 * 340);
        // No remote hits: the runtime passes through untouched, even
        // with a degenerate table (nothing is subtracted).
        let flat = LatencyTable { l1: 4, l2: 14, l3: 50, mem: 360, remote_mem: 360 };
        assert_eq!(fully_shared_estimate(Cycles::new(42), 0, &flat).unwrap(), Cycles::new(42));
    }

    #[test]
    fn fully_shared_rejects_degenerate_inputs() {
        // Underflow: 1000 remote hits cannot fit in a 10-cycle runtime.
        // This used to clamp silently to Cycles::ZERO.
        assert_eq!(
            fully_shared_estimate(Cycles::new(10), 1000, &LatencyTable::XEON_GOLD),
            Err(StatsError::EstimateUnderflow { runtime: 10, adjustment: 1000 * 340 })
        );
        // Inverted table: remote DRAM "faster" than local DRAM. This
        // used to clamp the differential to 0 and return the runtime.
        let inverted = LatencyTable { l1: 4, l2: 14, l3: 50, mem: 660, remote_mem: 360 };
        let err = fully_shared_estimate(Cycles::new(1_000_000), 5, &inverted).unwrap_err();
        assert_eq!(err, StatsError::InvertedLatencyTable { mem: 660, remote_mem: 360 });
        // Equal latencies are just as undefined as inverted ones.
        let flat = LatencyTable { l1: 4, l2: 14, l3: 50, mem: 360, remote_mem: 360 };
        assert!(fully_shared_estimate(Cycles::new(1_000_000), 5, &flat).is_err());
        // Multiplication overflow is reported, not wrapped.
        let wide = LatencyTable { l1: 4, l2: 14, l3: 50, mem: 0, remote_mem: u32::MAX };
        assert!(matches!(
            fully_shared_estimate(Cycles::new(u64::MAX), u64::MAX, &wide),
            Err(StatsError::EstimateUnderflow { .. })
        ));
        // Errors render for diagnostics.
        assert!(!err.to_string().is_empty());
        assert!(!StatsError::EstimateUnderflow { runtime: 1, adjustment: 2 }
            .to_string()
            .is_empty());
    }

    #[test]
    fn level_hit_rate() {
        let mut l = LevelStats::default();
        assert_eq!(l.hit_rate(), 0.0);
        l.record(true);
        l.record(true);
        l.record(false);
        assert!((l.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(l.accesses, 3);
        assert_eq!(l.hits, 2);
    }

    #[test]
    fn combined_l1_rate_weighs_both_caches() {
        let mut s = DomainStats::new();
        s.l1i = LevelStats { accesses: 100, hits: 100 };
        s.l1d = LevelStats { accesses: 100, hits: 0 };
        assert!((s.l1_combined_hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn since_subtracts_an_earlier_snapshot() {
        let earlier = DomainStats { ipi: 1, instructions: 10, ..DomainStats::default() };
        let now = DomainStats {
            ipi: 3,
            instructions: 15,
            l1d: LevelStats { accesses: 4, hits: 2 },
            runtime: Cycles::new(100),
            ..DomainStats::default()
        };
        let d = now.checked_since(&earlier).unwrap();
        assert_eq!(d.ipi, 2);
        assert_eq!(d.instructions, 5);
        assert_eq!(d.l1d, LevelStats { accesses: 4, hits: 2 });
        assert_eq!(d.runtime.raw(), 100);
        assert_eq!(now.checked_since(&now), Some(DomainStats::default()));
        // An "earlier" snapshot ahead on any one counter is no snapshot
        // of the same run: the phase would underflow.
        assert_eq!(earlier.checked_since(&now), None);
        let ahead = DomainStats { l3: LevelStats { accesses: 0, hits: 1 }, ..now };
        assert_eq!(now.checked_since(&ahead), None);
    }

    #[test]
    fn render_phases_shows_one_row_per_phase_and_domain() {
        let x86 = DomainStats {
            instructions: 1000,
            runtime: Cycles::new(1500),
            remote_mem_hits: 2,
            remote_shared_mem_hits: 3,
            ..DomainStats::default()
        };
        let arm = DomainStats { instructions: 7, runtime: Cycles::new(7), ipi: 1, ..x86 };
        let r = render_phases(&[[x86, DomainStats::default()], [DomainStats::default(), arm]]);
        assert_eq!(r.lines().count(), 1 + 2 * 2 + 1);
        let row = r.lines().nth(1).unwrap();
        assert_eq!(
            row.split_whitespace().collect::<Vec<_>>(),
            ["0", "x86", "1000", "500", "0", "5", "0"]
        );
        assert!(r.ends_with("phases: 2 (split at thread migrations)\n"));
        assert!(render_phases(&[]).contains("phases: 0"));
    }

    #[test]
    fn report_contains_artifact_fields() {
        let s = DomainStats { remote_mem_hits: 42, ..DomainStats::default() };
        let r = s.report("x86");
        assert!(r.contains("Remote Memory Hits: 42"));
        assert!(r.contains("TLB Hits: 0"));
        assert!(r.contains("TLB Hit Rate:"));
        assert!(r.contains("L3 Cache Hit Rate:"));
        assert!(r.contains("Faults Injected: 0"));
        assert!(r.contains("Faults Recovered: 0"));
        assert!(r.contains("Runtime:"));
    }
}
