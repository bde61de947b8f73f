//! Shared helpers for the figure/table benchmark harnesses.
//!
//! Every `benches/*.rs` target regenerates one table or figure of the
//! paper and prints it in a comparable textual form. This library holds
//! the pieces they share: table rendering, trace capture, and the NPB
//! trace-replay plumbing used by the Figure 7/8 validations.

#![warn(missing_docs)]

use stramash_kernel::system::{OsError, OsSystem, VanillaSystem};
use stramash_mem::{MemorySystem, ReferenceSystem, TraceEntry};
use stramash_sim::{Cycles, DomainId, SimConfig};
use stramash_workloads::npb::{run_npb, Class, NpbKind};

/// Renders an aligned text table.
///
/// ```
/// let t = stramash_bench::render_table(
///     &["benchmark", "speedup"],
///     &[vec!["IS".to_string(), "2.1x".to_string()]],
/// );
/// assert!(t.contains("IS"));
/// ```
#[must_use]
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(cols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let line = |out: &mut String, cells: &[String]| {
        for (i, cell) in cells.iter().enumerate().take(cols) {
            out.push_str(&format!("{:<width$}  ", cell, width = widths[i]));
        }
        out.push('\n');
    };
    line(&mut out, &headers.iter().map(|s| (*s).to_string()).collect::<Vec<_>>());
    line(
        &mut out,
        &widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>(),
    );
    for row in rows {
        line(&mut out, row);
    }
    out
}

/// Prints a figure/table banner.
pub fn banner(title: &str) {
    println!("\n=== {title} ===");
}

/// A captured NPB run: its access trace plus the instruction count and
/// the primary model's cycle total.
#[derive(Debug)]
pub struct CapturedRun {
    /// The benchmark.
    pub kind: NpbKind,
    /// Every memory access the run issued.
    pub trace: Vec<TraceEntry>,
    /// Instructions retired.
    pub instructions: u64,
    /// Primary-model runtime (icount + memory feedback).
    pub primary_cycles: Cycles,
}

/// Runs `kind` locally on a Vanilla system with tracing enabled and
/// captures the access trace (the Figure 7/8 input).
///
/// # Errors
///
/// OS errors.
pub fn capture_npb_trace(
    cfg: SimConfig,
    kind: NpbKind,
    class: Class,
) -> Result<CapturedRun, OsError> {
    let mut sys = VanillaSystem::new(cfg)?;
    let pid = sys.spawn(DomainId::X86)?;
    sys.base_mut().mem.enable_trace();
    let out = run_npb(kind, &mut sys, pid, class, false)?;
    assert!(out.verified, "{kind} failed verification during capture");
    let trace = sys.base_mut().mem.take_trace();
    let instructions = sys.base().mem.stats(DomainId::X86).instructions
        + sys.base().mem.stats(DomainId::ARM).instructions;
    Ok(CapturedRun { kind, trace, instructions, primary_cycles: sys.runtime() })
}

/// Replays a trace through a fresh primary [`MemorySystem`], returning
/// total memory cycles.
#[must_use]
pub fn replay_primary(cfg: &SimConfig, trace: &[TraceEntry]) -> (Cycles, MemorySystem) {
    let mut mem = MemorySystem::new(cfg.clone()).expect("valid config");
    let mut total = Cycles::ZERO;
    for e in trace {
        total += mem.access(e.domain, e.addr, e.access, e.kind).cycles;
    }
    (total, mem)
}

/// Replays a trace through the [`ReferenceSystem`] (the gem5-Ruby
/// stand-in), returning total memory cycles.
#[must_use]
pub fn replay_reference(cfg: &SimConfig, trace: &[TraceEntry]) -> (Cycles, ReferenceSystem) {
    let mut refm = ReferenceSystem::new(cfg.clone());
    for e in trace {
        refm.access(e.domain, e.addr, e.access, e.kind);
    }
    let total = DomainId::ALL.iter().map(|&d| refm.cycles(d)).sum();
    (total, refm)
}

/// Host core count (`available_parallelism`), recorded in the bench
/// JSON so comparisons can tell a single-core run from a regression.
#[must_use]
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Environment variable overriding the [`parallel_map`] pool size (for
/// pinned CI runners whose cgroup quota hides the real core count, or
/// for forcing a serial sweep with `1`).
const SWEEP_WORKERS_ENV: &str = "STRAMASH_SWEEP_WORKERS";

/// A `STRAMASH_SWEEP_WORKERS` value that is not a positive integer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepWorkersError {
    /// The rejected value, verbatim.
    pub value: String,
}

impl std::fmt::Display for SweepWorkersError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{SWEEP_WORKERS_ENV} must be a positive integer, not {:?}", self.value)
    }
}

impl std::error::Error for SweepWorkersError {}

/// Parses a `STRAMASH_SWEEP_WORKERS` value: a positive integer,
/// surrounding whitespace allowed.
fn parse_sweep_workers(value: &str) -> Result<usize, SweepWorkersError> {
    value
        .trim()
        .parse::<usize>()
        .ok()
        .filter(|&w| w > 0)
        .ok_or_else(|| SweepWorkersError { value: value.to_string() })
}

/// The worker count [`parallel_map`] uses for a given item count: the
/// `STRAMASH_SWEEP_WORKERS` override if set, otherwise the host's
/// available parallelism, capped by the number of items.
///
/// # Errors
///
/// [`SweepWorkersError`] when the override is set but invalid.
pub fn sweep_workers(items: usize) -> Result<usize, SweepWorkersError> {
    let pool = match std::env::var(SWEEP_WORKERS_ENV) {
        Ok(v) => parse_sweep_workers(&v)?,
        Err(std::env::VarError::NotPresent) => host_cores(),
        Err(std::env::VarError::NotUnicode(v)) => {
            return Err(SweepWorkersError { value: v.to_string_lossy().into_owned() })
        }
    };
    Ok(pool.min(items))
}

/// Runs `f` over `items` on scoped worker threads and returns the
/// results in input order.
///
/// Figure sweeps are embarrassingly parallel: each `TargetSystem`
/// (SystemKind × HardwareModel × workload) is fully independent
/// simulator state, so the sweeps fan out with `std::thread::scope` and
/// zero new dependencies. Workers are capped at the host's available
/// parallelism ([`sweep_workers`]) and pull items from a shared atomic
/// cursor, so heterogeneous run times (a PopcornTcp point costs ~10× a
/// Vanilla point) balance instead of serialising behind one oversized
/// chunk — and a single-core host runs the sweep serially rather than
/// thrashing between dozens of threads.
///
/// # Errors
///
/// [`SweepWorkersError`] when `STRAMASH_SWEEP_WORKERS` is invalid;
/// nothing has run in that case.
///
/// # Panics
///
/// Propagates a panic from any worker.
pub fn parallel_map<T, R, F>(items: Vec<T>, f: F) -> Result<Vec<R>, SweepWorkersError>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    let n = items.len();
    let workers = sweep_workers(n)?;
    if workers <= 1 {
        return Ok(items.into_iter().map(f).collect());
    }
    let f = &f;
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|i| Mutex::new(Some(i))).collect();
    let out: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let item = slots[i].lock().expect("unpoisoned").take().expect("claimed once");
                *out[i].lock().expect("unpoisoned") = Some(f(item));
            });
        }
    });
    Ok(out
        .into_iter()
        .map(|m| m.into_inner().expect("unpoisoned").expect("worker filled every claimed slot"))
        .collect())
}

/// Relative error |a − b| / b.
#[must_use]
pub fn relative_error(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        (a - b).abs() / b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let t = render_table(
            &["name", "value"],
            &[
                vec!["IS".to_string(), "1".to_string()],
                vec!["longer-name".to_string(), "2".to_string()],
            ],
        );
        assert!(t.contains("longer-name"));
        assert!(t.lines().count() >= 4);
    }

    #[test]
    fn parallel_map_preserves_input_order() {
        let out = parallel_map((0..24u64).collect::<Vec<_>>(), |i| i * i).unwrap();
        assert_eq!(out, (0..24u64).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_sweep_matches_serial_sweep_exactly() {
        // The determinism contract behind the parallel figure sweeps:
        // each simulator instance is independent state, so fanning the
        // sweep out over threads must not change a single cycle.
        use stramash_workloads::driver::{run_benchmark, Configuration};
        let configs = Configuration::figure9_set();
        let serial: Vec<_> = configs
            .iter()
            .map(|&c| run_benchmark(c, NpbKind::Is, Class::Tiny).expect("serial run"))
            .collect();
        let parallel =
            parallel_map(configs, |c| run_benchmark(c, NpbKind::Is, Class::Tiny).expect("run"))
                .unwrap();
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.runtime, p.runtime);
            assert_eq!(s.messages, p.messages);
            assert_eq!(s.remote_hits, p.remote_hits);
        }
    }

    #[test]
    fn sweep_workers_override_rejects_non_positive_and_non_numeric() {
        for bad in ["0", "-1", "two", "", "1.5"] {
            assert_eq!(
                parse_sweep_workers(bad),
                Err(SweepWorkersError { value: bad.to_string() }),
                "{bad:?} must be rejected"
            );
        }
        assert_eq!(parse_sweep_workers("2"), Ok(2));
        assert_eq!(parse_sweep_workers(" 3\n"), Ok(3));
        let msg = parse_sweep_workers("two").unwrap_err().to_string();
        assert!(msg.contains(SWEEP_WORKERS_ENV) && msg.contains("\"two\""), "{msg}");
    }

    #[test]
    fn relative_error_basics() {
        assert!((relative_error(104.0, 100.0) - 0.04).abs() < 1e-12);
        assert_eq!(relative_error(5.0, 0.0), 0.0);
    }

    #[test]
    fn capture_and_replay_agree_with_live_run() {
        // The trace replay through a fresh primary model must reproduce
        // the live run's memory behaviour (same accesses, same caches).
        let cfg = SimConfig::big_pair();
        let run = capture_npb_trace(cfg.clone(), NpbKind::Is, Class::Tiny).unwrap();
        assert!(!run.trace.is_empty());
        let (replayed, mem) = replay_primary(&cfg, &run.trace);
        assert!(replayed.raw() > 0);
        // Hit-rate sanity: replay saw the same access stream.
        assert_eq!(
            mem.stats(DomainId::X86).mem_accesses
                + mem.stats(DomainId::ARM).mem_accesses,
            run.trace
                .iter()
                .filter(|e| e.kind == stramash_mem::AccessKind::Data)
                .count() as u64
        );
    }

    #[test]
    fn reference_replay_is_close_to_primary() {
        let cfg = SimConfig::big_pair();
        let run = capture_npb_trace(cfg.clone(), NpbKind::Is, Class::Tiny).unwrap();
        let (prim, _) = replay_primary(&cfg, &run.trace);
        let (refc, _) = replay_reference(&cfg, &run.trace);
        let icount = run.instructions as f64;
        let err = relative_error(icount + refc.raw() as f64, icount + prim.raw() as f64);
        assert!(err < 0.13, "cycle error {err:.3} exceeds the paper's 13% bound");
    }
}
