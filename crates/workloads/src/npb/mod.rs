//! NAS Parallel Benchmark kernels (§8.3), reimplemented to run *through*
//! the simulated system.
//!
//! The paper evaluates IS, CG, MG and FT because "NPB has different
//! memory access patterns, including read and write intensive
//! workloads": CG is ~98 % loads (sparse matrix–vector products), IS is
//! write-intensive (integer ranking), MG and FT sit in between. The
//! reproductions are functional — IS really sorts, CG really converges,
//! MG really reduces the residual, FT really inverts its transform — so
//! the access patterns are the algorithms' own, not replayed traces.
//!
//! Migration follows §9.2: "there is a migration and back-migration for
//! each processing procedure (similarly to offloading)" — each compute
//! procedure runs on the Arm domain and control returns to x86.

pub mod cg;
pub mod ft;
pub mod is;
pub mod mg;

use crate::client::MemoryClient;
use std::fmt;
use stramash_kernel::process::Pid;
use stramash_kernel::system::{OsError, OsSystem};
use stramash_sim::DomainId;

/// Which NPB kernel to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NpbKind {
    /// Integer Sort — write-intensive bucket ranking.
    Is,
    /// Conjugate Gradient — read-intensive sparse solves.
    Cg,
    /// MultiGrid — 3-D V-cycles.
    Mg,
    /// Fourier Transform — 3-D FFT with evolve steps.
    Ft,
}

impl NpbKind {
    /// The four kernels the paper's figures evaluate, in their order.
    pub const ALL: [NpbKind; 4] = [NpbKind::Is, NpbKind::Cg, NpbKind::Mg, NpbKind::Ft];
}

impl fmt::Display for NpbKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NpbKind::Is => f.write_str("IS"),
            NpbKind::Cg => f.write_str("CG"),
            NpbKind::Mg => f.write_str("MG"),
            NpbKind::Ft => f.write_str("FT"),
        }
    }
}

/// Problem-size class (scaled down from the NPB classes so a software
/// simulator finishes in seconds; the access *patterns* are unchanged).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Class {
    /// For unit tests: finishes in milliseconds.
    Tiny,
    /// For the benchmark harness: exercises the caches properly.
    Small,
    /// For the Figure 7/8 simulator-validation benches: working sets
    /// between the 1 MB L2 and the 4 MB L3, so every cache level sees
    /// meaningful, stable hit rates (the regime the paper's validation
    /// figures operate in, away from pathological LLC thrash).
    Validation,
    /// Working sets beyond even the 32 MB LLC — the regime of the
    /// paper's real NPB classes. Seconds of host time per run (IS about
    /// 8 s, FT about 3 s on a 2-vCPU host); opt-in (`STRAMASH_LARGE=1`
    /// for the Figure 10 bench, `--class large` in the CLI).
    Large,
}

/// Outcome of one NPB run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NpbOutcome {
    /// Whether the kernel's own verification passed.
    pub verified: bool,
    /// A kernel-specific checksum (for cross-system result equality).
    pub checksum: f64,
    /// Number of offloaded procedures executed.
    pub procedures: u32,
}

/// Runs one kernel on `sys` for process `pid`.
///
/// With `migrate`, each processing procedure is offloaded to the Arm
/// domain and back; without, everything runs on the origin (the Vanilla
/// normalisation case).
///
/// # Errors
///
/// Propagates OS errors (OOM, migration failures).
pub fn run_npb<S: OsSystem>(
    kind: NpbKind,
    sys: &mut S,
    pid: Pid,
    class: Class,
    migrate: bool,
) -> Result<NpbOutcome, OsError> {
    match kind {
        NpbKind::Is => is::run(sys, pid, class, migrate),
        NpbKind::Cg => cg::run(sys, pid, class, migrate),
        NpbKind::Mg => mg::run(sys, pid, class, migrate),
        NpbKind::Ft => ft::run(sys, pid, class, migrate),
    }
}

/// Offloads one processing procedure: migrate to Arm, run `f`, migrate
/// back (§9.2: "a migration and back-migration for each processing
/// procedure").
pub(crate) fn offload<S: OsSystem>(
    client: &mut MemoryClient<'_, S>,
    migrate: bool,
    f: impl FnOnce(&mut MemoryClient<'_, S>) -> Result<(), OsError>,
) -> Result<(), OsError> {
    if migrate {
        client.migrate(DomainId::ARM)?;
    }
    f(client)?;
    if migrate {
        client.migrate(DomainId::X86)?;
    }
    Ok(())
}

/// Deterministic pseudo-random stream for workload data (host-side; the
/// generated values are then *stored through* the simulator).
pub(crate) struct DataRng(u64);

impl DataRng {
    pub(crate) fn new(seed: u64) -> Self {
        DataRng(seed.max(1))
    }

    pub(crate) fn next_u64(&mut self) -> u64 {
        // xorshift64*
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    pub(crate) fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_display() {
        assert_eq!(NpbKind::Is.to_string(), "IS");
        assert_eq!(NpbKind::ALL.len(), 4);
    }

    #[test]
    fn data_rng_is_deterministic() {
        let mut a = DataRng::new(5);
        let mut b = DataRng::new(5);
        for _ in 0..10 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let f = DataRng::new(9).next_f64();
        assert!((0.0..1.0).contains(&f));
    }
}
