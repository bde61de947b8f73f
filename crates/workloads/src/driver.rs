//! Experiment driver: runs one workload on one configuration and
//! collects the metrics the paper's tables and figures report.

use crate::npb::{run_npb, Class, NpbKind, NpbOutcome};
use crate::target::{SystemKind, TargetSystem};
use stramash_kernel::system::{OsError, OsSystem};
use stramash_sim::{Cycles, DomainId, HardwareModel};
use std::fmt;

/// One experiment configuration: a design on a hardware model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Configuration {
    /// The OS design.
    pub kind: SystemKind,
    /// The Figure 3 hardware model.
    pub model: HardwareModel,
}

impl Configuration {
    /// The Figure 9 configuration set: Vanilla, Popcorn-TCP,
    /// Popcorn-SHM ×3 models, Stramash ×3 models.
    #[must_use]
    pub fn figure9_set() -> Vec<Configuration> {
        let mut set = vec![
            Configuration { kind: SystemKind::Vanilla, model: HardwareModel::Shared },
            Configuration { kind: SystemKind::PopcornTcp, model: HardwareModel::Shared },
        ];
        for model in HardwareModel::ALL {
            set.push(Configuration { kind: SystemKind::PopcornShm, model });
        }
        for model in HardwareModel::ALL {
            set.push(Configuration { kind: SystemKind::Stramash, model });
        }
        set
    }

    /// Label matching the figure legends.
    #[must_use]
    pub fn label(&self) -> String {
        match self.kind {
            SystemKind::Vanilla => "Vanilla".to_string(),
            SystemKind::PopcornTcp => "Popcorn-TCP".to_string(),
            SystemKind::PopcornShm => format!("{}-SHM", self.model),
            SystemKind::Stramash => format!("Stramash-{}", self.model),
        }
    }
}

impl fmt::Display for Configuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// Everything measured in one run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// The configuration that ran.
    pub config: Configuration,
    /// The workload.
    pub kind: NpbKind,
    /// Total runtime (x86 + Arm, the artifact's formula).
    pub runtime: Cycles,
    /// Inter-kernel messages exchanged (Table 3).
    pub messages: u64,
    /// Pages replicated across kernels (Table 3).
    pub replicated_pages: u64,
    /// Remote-memory DRAM hits across both domains.
    pub remote_hits: u64,
    /// Remote-memory DRAM hits per domain (for the artifact's
    /// Fully-Shared derivation).
    pub remote_hits_by_domain: [u64; 2],
    /// Instruction-execution cycles (the paper's INST component).
    pub inst_cycles: u64,
    /// Memory-system feedback cycles (local + remote + snoop + message
    /// traffic — the paper's memory/MSG components).
    pub mem_cycles: u64,
    /// Migration phases recorded by the perf+icount tool.
    pub perf_phases: usize,
    /// Kernel outcome (verification, checksum).
    pub outcome: NpbOutcome,
}

impl RunReport {
    /// Runtime normalised to a baseline runtime (Figure 9's y-axis).
    #[must_use]
    pub fn normalized_to(&self, baseline: Cycles) -> f64 {
        self.runtime.raw() as f64 / baseline.raw() as f64
    }

    /// The artifact's Fully-Shared runtime derivation (Appendix A.5):
    /// subtract each domain's remote hits times its remote-vs-local
    /// differential from the measured runtime.
    #[must_use]
    pub fn ae_fully_shared_estimate(&self, cfg: &stramash_sim::SimConfig) -> Cycles {
        let mut estimate = self.runtime;
        for d in DomainId::ALL {
            // A degenerate table or an underflowing adjustment means the
            // derivation is meaningless for this run; keep the measured
            // runtime rather than fabricating a clamped estimate.
            if let Ok(saved) = stramash_sim::fully_shared_estimate(
                estimate,
                self.remote_hits_by_domain[d.index()],
                &cfg.domain(d).latency,
            ) {
                estimate = saved;
            }
        }
        estimate
    }
}

/// Runs `kind` at `class` on a freshly booted `config`.
///
/// # Errors
///
/// OS or configuration errors.
pub fn run_benchmark(
    config: Configuration,
    kind: NpbKind,
    class: Class,
) -> Result<RunReport, OsError> {
    run_benchmark_with(config, kind, class, None)
}

/// As [`run_benchmark`], optionally overriding the L3 capacity (the
/// §9.2.2 cache-size sensitivity study).
///
/// # Errors
///
/// OS or configuration errors.
pub fn run_benchmark_with(
    config: Configuration,
    kind: NpbKind,
    class: Class,
    l3_bytes: Option<u64>,
) -> Result<RunReport, OsError> {
    let mut cfg = stramash_sim::SimConfig::big_pair().with_hw_model(config.model);
    if let Some(l3) = l3_bytes {
        cfg = cfg.with_l3_size(l3);
    }
    let mut sys = TargetSystem::build_with(config.kind, cfg)?;
    let pid = sys.spawn(DomainId::X86)?;
    let migrate = config.kind.migrates();
    let outcome = run_npb(kind, &mut sys, pid, class, migrate)?;
    sys.base_mut().sync_runtime_stats();
    let remote_hits_by_domain = [DomainId::X86, DomainId::ARM].map(|d| {
        let s = sys.base().mem.stats(d);
        s.remote_mem_hits + s.remote_shared_mem_hits
    });
    let remote_hits = remote_hits_by_domain.iter().sum();
    let inst_cycles = DomainId::ALL
        .iter()
        .map(|&d| sys.base().timebase.clock(d).icount())
        .sum();
    let mem_cycles = DomainId::ALL
        .iter()
        .map(|&d| sys.base().timebase.clock(d).memory_cycles().raw())
        .sum();
    Ok(RunReport {
        config,
        kind,
        runtime: sys.runtime(),
        messages: sys.message_total(),
        replicated_pages: sys.replicated_pages(pid),
        remote_hits,
        remote_hits_by_domain,
        inst_cycles,
        mem_cycles,
        perf_phases: sys.base().perf.phases().len(),
        outcome,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure9_set_has_eight_configs() {
        let set = Configuration::figure9_set();
        assert_eq!(set.len(), 8);
        assert_eq!(set[0].label(), "Vanilla");
        assert_eq!(set[2].label(), "Separated-SHM");
        assert_eq!(set[7].label(), "Stramash-Fully Shared");
    }

    #[test]
    fn is_results_reproduce_figure9_ordering() {
        // The central claim on the write-intensive benchmark: Stramash
        // (Shared) beats Popcorn-SHM (Shared) beats Popcorn-TCP; the
        // Vanilla case is the floor.
        let class = Class::Tiny;
        let vanilla = run_benchmark(
            Configuration { kind: SystemKind::Vanilla, model: HardwareModel::Shared },
            NpbKind::Is,
            class,
        )
        .unwrap();
        let tcp = run_benchmark(
            Configuration { kind: SystemKind::PopcornTcp, model: HardwareModel::Shared },
            NpbKind::Is,
            class,
        )
        .unwrap();
        let shm = run_benchmark(
            Configuration { kind: SystemKind::PopcornShm, model: HardwareModel::Shared },
            NpbKind::Is,
            class,
        )
        .unwrap();
        let stramash = run_benchmark(
            Configuration { kind: SystemKind::Stramash, model: HardwareModel::Shared },
            NpbKind::Is,
            class,
        )
        .unwrap();
        for r in [&vanilla, &tcp, &shm, &stramash] {
            assert!(r.outcome.verified, "{} must sort correctly", r.config);
        }
        assert!(vanilla.runtime < stramash.runtime);
        assert!(stramash.runtime < shm.runtime, "fused beats multiple-kernel on IS");
        assert!(shm.runtime < tcp.runtime, "SHM messaging beats TCP");
        // Table 3 shape: Stramash sends far fewer messages and
        // replicates far fewer pages. (At Tiny class the gap is smaller
        // than the paper's 99 % — the bench harness runs Small, where
        // the reduction is orders of magnitude.)
        assert!(
            stramash.messages * 2 < shm.messages,
            "stramash msgs {} vs popcorn {}",
            stramash.messages,
            shm.messages
        );
        assert!(stramash.replicated_pages * 2 < shm.replicated_pages);
    }

    #[test]
    fn vanilla_exchanges_no_messages() {
        let r = run_benchmark(
            Configuration { kind: SystemKind::Vanilla, model: HardwareModel::Shared },
            NpbKind::Is,
            Class::Tiny,
        )
        .unwrap();
        assert_eq!(r.messages, 0);
        assert_eq!(r.replicated_pages, 0);
        assert!(r.normalized_to(r.runtime) == 1.0);
    }
}
