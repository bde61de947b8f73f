//! Command-line front end for the Stramash reproduction — the
//! equivalent of the artifact's run scripts: boot a platform, run a
//! workload, print the artifact-style report.
//!
//! ```text
//! stramash-cli npb is --system stramash --model shared --class tiny
//! stramash-cli sweep cg --class tiny
//! stramash-cli kv get --requests 200
//! stramash-cli ipi
//! stramash-cli trace is --system stramash --json /tmp/trace.json
//! ```

#![deny(unsafe_code)]
#![warn(clippy::undocumented_unsafe_blocks)]

use std::io::Write as _;
use std::process::ExitCode;
use stramash_repro::kernel::system::OsSystem;
use stramash_repro::prelude::*;
use stramash_repro::sim::chaos::ChaosSchedule;
use stramash_repro::sim::ipi::{IpiCharacterization, IpiTopology};
use stramash_repro::sim::render_phases;
use stramash_repro::sim::rng::SimRng;
use stramash_repro::workloads::chaos::chaos_sweep;
use stramash_repro::workloads::driver::{run_benchmark, Configuration};
use stramash_repro::workloads::kvstore::{run_kv, KvOp};
use stramash_repro::workloads::npb::{Class, NpbKind};
use stramash_repro::workloads::recovery::{
    run_is_recovered, run_kv_recovered, RecoveryConfig, RecoveryPolicy,
};
use stramash_repro::workloads::target::{SystemKind, TargetSystem};

/// Writes formatted output to stdout, the one way this binary prints
/// results. A reader that closed the pipe early (`stramash-cli … | head
/// -1`) ends the process quietly with status 0, like any Unix filter;
/// any other write error prints to stderr and exits 1.
fn emit(args: std::fmt::Arguments<'_>) {
    if let Err(e) = std::io::stdout().lock().write_fmt(args) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("error: writing to stdout: {e}");
        std::process::exit(1);
    }
}

/// `print!` through [`emit`].
macro_rules! out {
    ($($arg:tt)*) => {
        emit(format_args!($($arg)*))
    };
}

/// `println!` through [`emit`].
macro_rules! outln {
    () => {
        emit(format_args!("\n"))
    };
    ($($arg:tt)*) => {
        emit(format_args!("{}\n", format_args!($($arg)*)))
    };
}

fn usage() -> ExitCode {
    eprintln!(
        "usage:
  stramash-cli npb <is|cg|mg|ft> [--system <vanilla|popcorn-tcp|popcorn-shm|stramash>]
                                    [--model <separated|shared|fully-shared>]
                                    [--class <tiny|small|validation|large>] [--report]
  stramash-cli sweep <is|cg|mg|ft> [--class <...>] [--parallel]
  stramash-cli kv <get|set|lpush|rpush|lpop|rpop|sadd|mset> [--requests N]
  stramash-cli ipi
  stramash-cli trace <is|cg|mg|ft> [--system <...>] [--model <...>] [--class <...>]
                                      [--json <path>]
  stramash-cli run <is|kv> [--system <...>] [--model <...>] [--class <...>] [--requests N]
                           [--seed N] [--stage S] [--policy <restart|degrade>]
                           [--checkpoint <path>]
  stramash-cli serve [--model <...>] [--workers N] [--connections N] [--window N]
                     [--requests N] [--loads a,b,c] [--read-pct P] [--keyspace K]
                     [--payload B] [--seed N]
  stramash-cli chaos [--seed N] [--stages K] [--inject-regression]"
    );
    ExitCode::FAILURE
}

fn fail(what: &str, e: impl std::fmt::Display) -> ExitCode {
    eprintln!("error: {what}: {e}");
    ExitCode::FAILURE
}

/// A flag given without a value, or with one that does not parse. The
/// command reports it as `error: <flag>: ...` and exits non-zero rather
/// than running with the default.
#[derive(Debug, PartialEq, Eq)]
struct FlagError {
    flag: &'static str,
    /// The offending value; `None` when the flag ends the command line.
    value: Option<String>,
    expected: &'static str,
}

impl std::fmt::Display for FlagError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.value {
            Some(v) => write!(f, "{}: invalid value `{v}` (expected {})", self.flag, self.expected),
            None => write!(f, "{}: missing value (expected {})", self.flag, self.expected),
        }
    }
}

fn parse_kind(s: &str) -> Option<NpbKind> {
    match s {
        "is" => Some(NpbKind::Is),
        "cg" => Some(NpbKind::Cg),
        "mg" => Some(NpbKind::Mg),
        "ft" => Some(NpbKind::Ft),
        _ => None,
    }
}

fn parse_system(s: &str) -> Option<SystemKind> {
    match s {
        "vanilla" => Some(SystemKind::Vanilla),
        "popcorn-tcp" => Some(SystemKind::PopcornTcp),
        "popcorn-shm" => Some(SystemKind::PopcornShm),
        "stramash" => Some(SystemKind::Stramash),
        _ => None,
    }
}

fn parse_model(s: &str) -> Option<HardwareModel> {
    match s {
        "separated" => Some(HardwareModel::Separated),
        "shared" => Some(HardwareModel::Shared),
        "fully-shared" => Some(HardwareModel::FullyShared),
        _ => None,
    }
}

fn parse_class(s: &str) -> Option<Class> {
    match s {
        "tiny" => Some(Class::Tiny),
        "small" => Some(Class::Small),
        "validation" => Some(Class::Validation),
        "large" => Some(Class::Large),
        _ => None,
    }
}

/// A `u64` in decimal or (with or without `0x`) hexadecimal, as seeds
/// are printed.
fn parse_seed(s: &str) -> Option<u64> {
    s.parse().ok().or_else(|| u64::from_str_radix(s.trim_start_matches("0x"), 16).ok())
}

/// A tiny flag parser: `--key value` pairs after the positionals.
fn flag(args: &[String], key: &str) -> Option<String> {
    args.iter().position(|a| a == key).and_then(|i| args.get(i + 1).cloned())
}

/// `key`'s value through `parse`, or `default` when the flag is absent.
///
/// # Errors
///
/// [`FlagError`] when the flag is present without a value or with one
/// `parse` rejects.
fn flag_or<T>(
    args: &[String],
    key: &'static str,
    default: T,
    expected: &'static str,
    parse: impl Fn(&str) -> Option<T>,
) -> Result<T, FlagError> {
    if !args.iter().any(|a| a == key) {
        return Ok(default);
    }
    let value = flag(args, key);
    value.as_deref().and_then(parse).ok_or(FlagError { flag: key, value, expected })
}

/// `key` as a number (`str::parse`), or `default` when absent.
fn num_flag<T: std::str::FromStr>(
    args: &[String],
    key: &'static str,
    default: T,
) -> Result<T, FlagError> {
    flag_or(args, key, default, "a number", |v| v.parse().ok())
}

const CLASSES: &str = "tiny|small|validation|large";
const SYSTEMS: &str = "vanilla|popcorn-tcp|popcorn-shm|stramash";
const MODELS: &str = "separated|shared|fully-shared";
const SEED: &str = "an integer, decimal or hex";

fn cmd_npb(args: &[String]) -> Result<ExitCode, FlagError> {
    let Some(kind) = args.first().and_then(|a| parse_kind(a)) else {
        return Ok(usage());
    };
    let system = flag_or(args, "--system", SystemKind::Stramash, SYSTEMS, parse_system)?;
    let model = flag_or(args, "--model", HardwareModel::Shared, MODELS, parse_model)?;
    let class = flag_or(args, "--class", Class::Tiny, CLASSES, parse_class)?;
    let want_report = args.iter().any(|a| a == "--report");

    // Run through the driver for the metrics, or manually for --report
    // (which needs the live system to print the stats blocks).
    let cfg = Configuration { kind: system, model };
    if want_report {
        let mut sys = TargetSystem::build(system, model).expect("boot");
        let pid = sys.spawn(DomainId::X86).expect("spawn");
        let out =
            stramash_repro::workloads::npb::run_npb(kind, &mut sys, pid, class, system.migrates())
                .expect("run");
        sys.base_mut().sync_runtime_stats();
        outln!("{kind} on {} ({model}) — verified: {}\n", cfg.label(), out.verified);
        for d in DomainId::ALL {
            outln!("{}", sys.base().mem.stats(d).report(&d.to_string()));
        }
        outln!("perf+icount phases:");
        out!("{}", render_phases(&sys.base().phases()));
        return Ok(ExitCode::SUCCESS);
    }
    let report = run_benchmark(cfg, kind, class).expect("run");
    outln!(
        "{kind} on {}: runtime {} cycles, {} messages, {} replicated pages, verified {}",
        cfg.label(),
        report.runtime.raw(),
        report.messages,
        report.replicated_pages,
        report.outcome.verified
    );
    Ok(ExitCode::SUCCESS)
}

fn cmd_sweep(args: &[String]) -> Result<ExitCode, FlagError> {
    use stramash_repro::bench::parallel_map;

    let Some(kind) = args.first().and_then(|a| parse_kind(a)) else {
        return Ok(usage());
    };
    let class = flag_or(args, "--class", Class::Tiny, CLASSES, parse_class)?;
    let parallel = args.iter().any(|a| a == "--parallel");
    let configs = Configuration::figure9_set();
    let reports: Vec<_> = if parallel {
        // Configs fan out across the sweep pool (STRAMASH_SWEEP_WORKERS);
        // reports are identical to the serial sweep's, in the same order.
        match parallel_map(configs, |c| run_benchmark(c, kind, class).expect("run")) {
            Ok(reports) => reports,
            Err(e) => return Ok(fail("sweep", e)),
        }
    } else {
        configs.iter().map(|&c| run_benchmark(c, kind, class).expect("run")).collect()
    };
    let mut baseline = None;
    for report in &reports {
        let base = *baseline.get_or_insert(report.runtime);
        outln!(
            "{:<22} {:>14} cycles  {:>6.3}x vanilla  msgs {:>6}  repl {:>5}",
            report.config.label(),
            report.runtime.raw(),
            report.normalized_to(base),
            report.messages,
            report.replicated_pages
        );
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_kv(args: &[String]) -> Result<ExitCode, FlagError> {
    let Some(op) = args.first().and_then(|a| KvOp::ALL.iter().find(|o| o.to_string() == *a)) else {
        return Ok(usage());
    };
    let requests: u64 = num_flag(args, "--requests", 200)?;
    for kind in [SystemKind::PopcornTcp, SystemKind::PopcornShm, SystemKind::Stramash] {
        let mut sys = TargetSystem::build(kind, HardwareModel::Shared).expect("boot");
        let r = run_kv(&mut sys, *op, requests, 1024).expect("run");
        outln!("{kind:<12} {op}: {:>10.0} cycles/request", r.per_request);
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_trace(args: &[String]) -> Result<ExitCode, FlagError> {
    use stramash_repro::sim::trace::{chrome_trace_json, reconstruct_domain_stats, shared_tracer};
    let Some(kind) = args.first().and_then(|a| parse_kind(a)) else {
        return Ok(usage());
    };
    let system = flag_or(args, "--system", SystemKind::Stramash, SYSTEMS, parse_system)?;
    let model = flag_or(args, "--model", HardwareModel::Shared, MODELS, parse_model)?;
    let class = flag_or(args, "--class", Class::Tiny, CLASSES, parse_class)?;
    let mut sys = TargetSystem::build(system, model).expect("boot");
    let tracer = shared_tracer(1 << 20);
    sys.install_tracer(tracer.clone());
    let pid = sys.spawn(DomainId::X86).expect("spawn");
    let out =
        stramash_repro::workloads::npb::run_npb(kind, &mut sys, pid, class, system.migrates())
            .expect("run");
    sys.base_mut().sync_runtime_stats();

    let t = tracer.borrow();
    let events = t.events();
    outln!("{kind} on {system} ({model}) — verified: {}", out.verified);
    outln!("{} events recorded, {} dropped by the bounded ring\n", t.recorded(), t.dropped());
    outln!("perf+icount phases:");
    out!("{}", render_phases(&sys.base().phases()));

    if t.dropped() == 0 {
        // The report's per-domain totals, rebuilt purely from the stream.
        outln!("\nper-domain stats reconstructed from the event stream:");
        let rebuilt = reconstruct_domain_stats(&events);
        for d in DomainId::ALL {
            outln!("{}", rebuilt[d.index()].report(&d.to_string()));
        }
    } else {
        outln!(
            "\nthe ring wrapped: the stream and its Chrome export hold only the last {} of {} recorded events\n",
            events.len(),
            t.recorded()
        );
    }
    outln!("metrics:");
    out!("{}", t.metrics().render());
    if let Some(path) = flag(args, "--json") {
        std::fs::write(&path, chrome_trace_json(&events)).expect("write trace json");
        outln!("chrome trace written to {path} (open via chrome://tracing or Perfetto)");
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_ipi() -> ExitCode {
    for (name, topo, freq) in [
        ("big_Arm", IpiTopology::big_arm(), 2_000_000_000u64),
        ("big_x86", IpiTopology::big_x86(), 2_100_000_000),
    ] {
        let mut rng = SimRng::new(7);
        let run = IpiCharacterization::run(topo, 8, &mut rng);
        outln!(
            "{name}: all-pairs avg {:.0} ns  ->  {} simulator cycles",
            run.average_ns(),
            run.average_cycles(freq).raw()
        );
    }
    ExitCode::SUCCESS
}

/// `stramash-cli run`: the supervised, crash-recoverable stepped runs.
/// `--seed`/`--stage` replay a chaos schedule's fault plan; a
/// `--checkpoint` artifact that already exists fast-forwards the
/// machine before the run, and the finished machine state is written
/// back to the same path.
fn cmd_run(args: &[String]) -> Result<ExitCode, FlagError> {
    let Some(workload) = args.first().map(String::as_str) else {
        return Ok(usage());
    };
    if workload != "is" && workload != "kv" {
        return Ok(usage());
    }
    let system = flag_or(args, "--system", SystemKind::Stramash, SYSTEMS, parse_system)?;
    let model = flag_or(args, "--model", HardwareModel::Shared, MODELS, parse_model)?;
    let class = flag_or(args, "--class", Class::Tiny, CLASSES, parse_class)?;
    let requests: u64 = num_flag(args, "--requests", 200)?;
    let seed = flag_or(args, "--seed", None, SEED, |v| parse_seed(v).map(Some))?;
    let stage: u32 = num_flag(args, "--stage", 3)?;
    let policy =
        flag_or(args, "--policy", RecoveryPolicy::RestartFromCheckpoint, "restart|degrade", |v| {
            match v {
                "degrade" => Some(RecoveryPolicy::Degrade),
                "restart" => Some(RecoveryPolicy::RestartFromCheckpoint),
                _ => None,
            }
        })?;
    let ckpt_path = flag(args, "--checkpoint");

    let mut sys = match TargetSystem::build(system, model) {
        Ok(s) => s,
        Err(e) => return Ok(fail("boot", e)),
    };
    if let Some(seed) = seed {
        let sched = ChaosSchedule::generate(seed, stage);
        outln!("replaying fault schedule: {}", sched.describe());
        sys.install_fault_plan(sched.plan(), seed);
    }
    if let Some(path) = &ckpt_path {
        if std::path::Path::new(path).exists() {
            let bytes = match std::fs::read(path) {
                Ok(b) => b,
                Err(e) => return Ok(fail("read checkpoint", e)),
            };
            if let Err(e) = sys.restore(&bytes) {
                eprintln!(
                    "hint: a checkpoint taken under a fault seed needs the same --seed to restore"
                );
                return Ok(fail("restore checkpoint", e));
            }
            outln!("fast-forwarded from {path} ({} bytes)", bytes.len());
        }
    }
    let rc = RecoveryConfig { policy, ..RecoveryConfig::default() };
    let (final_sys, crashes, restarts, degraded) =
        if workload == "is" {
            match run_is_recovered(sys, class, &rc) {
                Ok(out) => {
                    outln!(
                        "IS on {system} ({model}): verified {}, checksum {}, {} procedures",
                        out.result.verified,
                        out.result.checksum,
                        out.result.procedures
                    );
                    (out.sys, out.crashes, out.restarts, out.degraded)
                }
                Err(e) => return Ok(fail("run", e)),
            }
        } else {
            match run_kv_recovered(sys, KvOp::Set, requests, 64, &rc) {
                Ok(out) => {
                    outln!(
                    "KV set on {system} ({model}): {} requests, checksum {:#x}, {:.0} cycles/req",
                    out.result.requests, out.result.checksum, out.result.per_request
                );
                    (out.sys, out.crashes, out.restarts, out.degraded)
                }
                Err(e) => return Ok(fail("run", e)),
            }
        };
    outln!(
        "recovery: {crashes} watchdog death(s), {restarts} restart(s){}",
        degraded.map_or(String::new(), |d| format!(", degraded after losing {d}"))
    );
    let violations = final_sys.audit();
    if violations.is_empty() {
        outln!("invariant audit: clean");
    } else {
        for v in &violations {
            eprintln!("invariant violation: {v}");
        }
        return Ok(ExitCode::FAILURE);
    }
    if let Some(path) = &ckpt_path {
        let artifact = final_sys.checkpoint();
        let len = artifact.len();
        match std::fs::write(path, artifact) {
            Ok(()) => outln!("checkpoint written to {path} ({len} bytes)"),
            Err(e) => return Ok(fail("write checkpoint", e)),
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// `stramash-cli serve`: the production-scale serving scenario —
/// throughput-vs-offered-load and p50/p99-vs-load curves for every
/// system kind, from one deterministic seeded schedule per load point.
fn cmd_serve(args: &[String]) -> Result<ExitCode, FlagError> {
    use stramash_repro::workloads::serve::{run_serve_curve, ServeConfig};
    let model = flag_or(args, "--model", HardwareModel::Shared, MODELS, parse_model)?;
    let d = ServeConfig::default();
    let cfg = ServeConfig {
        workers: num_flag(args, "--workers", d.workers)?,
        connections: num_flag(args, "--connections", d.connections)?,
        window: num_flag(args, "--window", d.window)?,
        requests: num_flag(args, "--requests", d.requests)?,
        read_pct: num_flag(args, "--read-pct", d.read_pct)?,
        keyspace: num_flag(args, "--keyspace", d.keyspace)?,
        payload_len: num_flag(args, "--payload", d.payload_len)?,
        seed: flag_or(args, "--seed", d.seed, SEED, parse_seed)?,
        ..d
    };
    let loads: Vec<f64> =
        flag_or(args, "--loads", vec![2.0, 10.0, 40.0], "comma-separated numbers", |s| {
            s.split(',').map(|v| v.trim().parse().ok()).collect()
        })?;

    outln!(
        "serving: {} workers × {} connections (window {}), {} requests/point, \
         {}% reads over {} Zipf keys, seed {:#x} ({model})\n",
        cfg.workers,
        cfg.connections,
        cfg.window,
        cfg.requests,
        cfg.read_pct,
        cfg.keyspace,
        cfg.seed
    );
    outln!(
        "{:<12} {:>9} {:>10} {:>12} {:>12} {:>12} {:>8}",
        "system",
        "offered",
        "achieved",
        "p50",
        "p99",
        "queue-p99",
        "stalls"
    );
    for kind in
        [SystemKind::Stramash, SystemKind::PopcornShm, SystemKind::PopcornTcp, SystemKind::Vanilla]
    {
        let curve = match run_serve_curve(kind, model, &cfg, &loads) {
            Ok(c) => c,
            Err(e) => return Ok(fail("serve", e)),
        };
        for r in &curve {
            outln!(
                "{:<12} {:>9.1} {:>10.2} {:>12} {:>12} {:>12} {:>8}",
                kind.to_string(),
                r.offered_load,
                r.throughput,
                r.p50(),
                r.p99(),
                r.queue.percentile(99.0),
                r.window_stalls
            );
        }
        if let Some(last) = curve.last() {
            outln!(
                "  └ schedule {:#018x}  run {:#018x}  (seed-replayable)\n",
                last.schedule_fingerprint,
                last.fingerprint
            );
        }
    }
    outln!("loads are requests per million cycles; latencies are simulated cycles (log₂-bucket p50/p99)");
    Ok(ExitCode::SUCCESS)
}

/// `stramash-cli chaos`: the escalating seeded sweep with shrinking
/// reproducers.
fn cmd_chaos(args: &[String]) -> Result<ExitCode, FlagError> {
    let seed = flag_or(args, "--seed", 0x5eed, SEED, parse_seed)?;
    let stages: u32 = num_flag(args, "--stages", 4)?;
    let inject = args.iter().any(|a| a == "--inject-regression");
    if inject {
        outln!("injecting a seeded recovery regression (degrade-where-restart-required)");
    }
    let report = match chaos_sweep(seed, stages, inject) {
        Ok(r) => r,
        Err(e) => return Ok(fail("chaos baseline", e)),
    };
    for cell in &report.cells {
        outln!(
            "stage {} {:<12} {:>2} event(s)  crashes {} restarts {}  {}",
            cell.stage,
            cell.kind.to_string(),
            cell.schedule.events.len(),
            cell.crashes,
            cell.restarts,
            cell.failure.as_deref().unwrap_or("ok")
        );
    }
    if let Some(rep) = &report.reproducer {
        outln!("\nfailure on {}: {}", rep.kind, rep.failure);
        outln!("minimal reproducer after shrinking: {}", rep.schedule.describe());
        outln!(
            "replay: stramash-cli chaos --seed {:#x} --stages {stages}{}",
            seed,
            if inject { " --inject-regression" } else { "" }
        );
        return Ok(if inject { ExitCode::SUCCESS } else { ExitCode::FAILURE });
    }
    outln!(
        "\nchaos sweep green: {} cell(s), no auditor violations, no fingerprint drift",
        report.cells.len()
    );
    if inject {
        eprintln!("error: the injected regression was not found");
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rest = args.get(1..).unwrap_or_default();
    let run = match args.first().map(String::as_str) {
        Some("npb") => cmd_npb(rest),
        Some("sweep") => cmd_sweep(rest),
        Some("kv") => cmd_kv(rest),
        Some("ipi") => Ok(cmd_ipi()),
        Some("trace") => cmd_trace(rest),
        Some("run") => cmd_run(rest),
        Some("serve") => cmd_serve(rest),
        Some("chaos") => cmd_chaos(rest),
        _ => Ok(usage()),
    };
    run.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_kinds_systems_models() {
        assert_eq!(parse_kind("is"), Some(NpbKind::Is));
        assert_eq!(parse_kind("ep"), None);
        assert_eq!(parse_kind("nope"), None);
        assert_eq!(parse_system("popcorn-shm"), Some(SystemKind::PopcornShm));
        assert_eq!(parse_system("stramash"), Some(SystemKind::Stramash));
        assert_eq!(parse_system("bogus"), None);
        assert_eq!(parse_model("fully-shared"), Some(HardwareModel::FullyShared));
        assert_eq!(parse_model("separated"), Some(HardwareModel::Separated));
        assert_eq!(parse_model("x"), None);
        assert_eq!(parse_class("validation"), Some(Class::Validation));
        assert_eq!(parse_class("large"), Some(Class::Large));
        assert_eq!(parse_class("huge"), None);
        assert_eq!(parse_seed("0x5eed"), Some(0x5eed));
        assert_eq!(parse_seed("42"), Some(42));
    }

    #[test]
    fn bad_flag_values_are_typed_errors() {
        let args = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let class = |a: &[&str]| flag_or(&args(a), "--class", Class::Tiny, CLASSES, parse_class);
        // Absent flags take the default; good values parse.
        assert_eq!(class(&["is"]), Ok(Class::Tiny));
        assert_eq!(class(&["is", "--class", "validation"]), Ok(Class::Validation));
        assert_eq!(num_flag(&args(&["get", "--requests", "7"]), "--requests", 200u64), Ok(7));
        // An unknown class no longer falls back to `tiny`.
        let e = class(&["is", "--class", "huge"]).unwrap_err();
        assert_eq!(
            e.to_string(),
            "--class: invalid value `huge` (expected tiny|small|validation|large)"
        );
        // Unparsable or missing numbers no longer use the default.
        assert!(num_flag(&args(&["kv", "--requests", "many"]), "--requests", 200u64).is_err());
        assert!(num_flag(&args(&["is", "--stage", "-1"]), "--stage", 3u32).is_err());
        let e = flag_or(&args(&["is", "--seed"]), "--seed", 0, SEED, parse_seed).unwrap_err();
        assert_eq!(e.to_string(), "--seed: missing value (expected an integer, decimal or hex)");
        // Through a command: the error surfaces before anything runs.
        let e = cmd_run(&args(&["is", "--seed", "0xzz"])).unwrap_err();
        assert_eq!(e.flag, "--seed");
        assert!(cmd_sweep(&args(&["is", "--class", "Small"])).is_err());
    }

    #[test]
    fn flag_extraction() {
        let args: Vec<String> = ["is", "--system", "stramash", "--class", "small"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(flag(&args, "--system").as_deref(), Some("stramash"));
        assert_eq!(flag(&args, "--class").as_deref(), Some("small"));
        assert_eq!(flag(&args, "--model"), None);
        // A trailing flag without a value yields None.
        let args: Vec<String> = ["is", "--system"].iter().map(|s| s.to_string()).collect();
        assert_eq!(flag(&args, "--system"), None);
    }
}
