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

use stramash_repro::kernel::system::OsSystem;
use stramash_repro::prelude::*;
use stramash_repro::sim::chaos::ChaosSchedule;
use stramash_repro::sim::ipi::{IpiCharacterization, IpiTopology};
use stramash_repro::sim::rng::SimRng;
use stramash_repro::workloads::chaos::chaos_sweep;
use stramash_repro::workloads::driver::{run_benchmark, Configuration};
use stramash_repro::workloads::kvstore::{run_kv, KvOp};
use stramash_repro::workloads::npb::{Class, NpbKind};
use stramash_repro::workloads::recovery::{
    run_is_recovered, run_kv_recovered, RecoveryConfig, RecoveryPolicy,
};
use stramash_repro::workloads::target::{SystemKind, TargetSystem};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage:
  stramash-cli npb <is|cg|mg|ft|ep> [--system <vanilla|popcorn-tcp|popcorn-shm|stramash>]
                                    [--model <separated|shared|fully-shared>]
                                    [--class <tiny|small|large>] [--report]
  stramash-cli sweep <is|cg|mg|ft|ep> [--class <tiny|small|large>] [--parallel]
  stramash-cli kv <get|set|lpush|rpush|lpop|rpop|sadd|mset> [--requests N]
  stramash-cli ipi
  stramash-cli trace <is|cg|mg|ft|ep> [--system <...>] [--model <...>] [--class <...>]
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

fn parse_kind(s: &str) -> Option<NpbKind> {
    match s {
        "is" => Some(NpbKind::Is),
        "cg" => Some(NpbKind::Cg),
        "mg" => Some(NpbKind::Mg),
        "ft" => Some(NpbKind::Ft),
        "ep" => Some(NpbKind::Ep),
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

/// A tiny flag parser: `--key value` pairs after the positionals.
fn flag(args: &[String], key: &str) -> Option<String> {
    args.iter().position(|a| a == key).and_then(|i| args.get(i + 1).cloned())
}

fn cmd_npb(args: &[String]) -> ExitCode {
    let Some(kind) = args.first().and_then(|a| parse_kind(a)) else {
        return usage();
    };
    let system = match flag(args, "--system").as_deref() {
        Some(s) => match parse_system(s) {
            Some(k) => k,
            None => return usage(),
        },
        None => SystemKind::Stramash,
    };
    let model = match flag(args, "--model").as_deref() {
        Some(s) => match parse_model(s) {
            Some(m) => m,
            None => return usage(),
        },
        None => HardwareModel::Shared,
    };
    let class = match flag(args, "--class").as_deref() {
        Some("small") => Class::Small,
        Some("large") => Class::Large,
        _ => Class::Tiny,
    };
    let want_report = args.iter().any(|a| a == "--report");

    // Run through the driver for the metrics, or manually for --report
    // (which needs the live system to print the stats blocks).
    let cfg = Configuration { kind: system, model };
    if want_report {
        let mut sys = TargetSystem::build(system, model).expect("boot");
        let pid = sys.spawn(DomainId::X86).expect("spawn");
        let out = stramash_repro::workloads::npb::run_npb(
            kind,
            &mut sys,
            pid,
            class,
            system.migrates(),
        )
        .expect("run");
        sys.base_mut().sync_runtime_stats();
        println!("{kind} on {} ({model}) — verified: {}\n", cfg.label(), out.verified);
        for d in DomainId::ALL {
            println!("{}", sys.base().mem.stats(d).report(&d.to_string()));
        }
        println!("perf+icount phases:");
        print!("{}", sys.base().perf.report());
        return ExitCode::SUCCESS;
    }
    let report = run_benchmark(cfg, kind, class).expect("run");
    println!(
        "{kind} on {}: runtime {} cycles, {} messages, {} replicated pages, verified {}",
        cfg.label(),
        report.runtime.raw(),
        report.messages,
        report.replicated_pages,
        report.outcome.verified
    );
    ExitCode::SUCCESS
}

fn cmd_sweep(args: &[String]) -> ExitCode {
    use stramash_repro::bench::parallel_map;

    let Some(kind) = args.first().and_then(|a| parse_kind(a)) else {
        return usage();
    };
    let class = match flag(args, "--class").as_deref() {
        Some("small") => Class::Small,
        Some("large") => Class::Large,
        _ => Class::Tiny,
    };
    let parallel = args.iter().any(|a| a == "--parallel");
    let configs = Configuration::figure9_set();
    let reports: Vec<_> = if parallel {
        // Configs fan out across the sweep pool (STRAMASH_SWEEP_WORKERS);
        // reports are identical to the serial sweep's, in the same order.
        match parallel_map(configs, |c| run_benchmark(c, kind, class).expect("run")) {
            Ok(reports) => reports,
            Err(e) => return fail("sweep", e),
        }
    } else {
        configs.iter().map(|&c| run_benchmark(c, kind, class).expect("run")).collect()
    };
    let mut baseline = None;
    for report in &reports {
        let base = *baseline.get_or_insert(report.runtime);
        println!(
            "{:<22} {:>14} cycles  {:>6.3}x vanilla  msgs {:>6}  repl {:>5}",
            report.config.label(),
            report.runtime.raw(),
            report.normalized_to(base),
            report.messages,
            report.replicated_pages
        );
    }
    ExitCode::SUCCESS
}

fn cmd_kv(args: &[String]) -> ExitCode {
    let Some(op) = args.first().and_then(|a| KvOp::ALL.iter().find(|o| o.to_string() == *a)) else {
        return usage();
    };
    let requests: u64 =
        flag(args, "--requests").and_then(|v| v.parse().ok()).unwrap_or(200);
    for kind in [SystemKind::PopcornTcp, SystemKind::PopcornShm, SystemKind::Stramash] {
        let mut sys = TargetSystem::build(kind, HardwareModel::Shared).expect("boot");
        let r = run_kv(&mut sys, *op, requests, 1024).expect("run");
        println!("{kind:<12} {op}: {:>10.0} cycles/request", r.per_request);
    }
    ExitCode::SUCCESS
}

fn cmd_trace(args: &[String]) -> ExitCode {
    use stramash_repro::sim::trace::{
        chrome_trace_json, reconstruct_domain_stats, render_phase_report, shared_tracer,
    };
    let Some(kind) = args.first().and_then(|a| parse_kind(a)) else {
        return usage();
    };
    let system = match flag(args, "--system").as_deref() {
        Some(s) => match parse_system(s) {
            Some(k) => k,
            None => return usage(),
        },
        None => SystemKind::Stramash,
    };
    let model = match flag(args, "--model").as_deref() {
        Some(s) => match parse_model(s) {
            Some(m) => m,
            None => return usage(),
        },
        None => HardwareModel::Shared,
    };
    let class = match flag(args, "--class").as_deref() {
        Some("small") => Class::Small,
        Some("large") => Class::Large,
        _ => Class::Tiny,
    };
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
    println!("{kind} on {system} ({model}) — verified: {}", out.verified);
    println!("{} events recorded, {} dropped by the bounded ring\n", t.recorded(), t.dropped());
    print!("{}", render_phase_report(&events));

    // The report's per-domain totals, rebuilt purely from the stream.
    println!("\nper-domain stats reconstructed from the event stream:");
    let rebuilt = reconstruct_domain_stats(&events);
    for d in DomainId::ALL {
        println!("{}", rebuilt[d.index()].report(&d.to_string()));
    }
    println!("metrics:");
    print!("{}", t.metrics().render());
    if let Some(path) = flag(args, "--json") {
        std::fs::write(&path, chrome_trace_json(&events)).expect("write trace json");
        println!("chrome trace written to {path} (open via chrome://tracing or Perfetto)");
    }
    ExitCode::SUCCESS
}

fn cmd_ipi() -> ExitCode {
    for (name, topo, freq) in [
        ("big_Arm", IpiTopology::big_arm(), 2_000_000_000u64),
        ("big_x86", IpiTopology::big_x86(), 2_100_000_000),
    ] {
        let mut rng = SimRng::new(7);
        let run = IpiCharacterization::run(topo, 8, &mut rng);
        println!(
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
fn cmd_run(args: &[String]) -> ExitCode {
    let Some(workload) = args.first().map(String::as_str) else {
        return usage();
    };
    if workload != "is" && workload != "kv" {
        return usage();
    }
    let system = match flag(args, "--system").as_deref() {
        Some(s) => match parse_system(s) {
            Some(k) => k,
            None => return usage(),
        },
        None => SystemKind::Stramash,
    };
    let model = match flag(args, "--model").as_deref() {
        Some(s) => match parse_model(s) {
            Some(m) => m,
            None => return usage(),
        },
        None => HardwareModel::Shared,
    };
    let class = match flag(args, "--class").as_deref() {
        Some("small") => Class::Small,
        Some("large") => Class::Large,
        _ => Class::Tiny,
    };
    let requests: u64 = flag(args, "--requests").and_then(|v| v.parse().ok()).unwrap_or(200);
    let seed: Option<u64> = flag(args, "--seed").and_then(|v| {
        v.parse().ok().or_else(|| u64::from_str_radix(v.trim_start_matches("0x"), 16).ok())
    });
    let stage: u32 = flag(args, "--stage").and_then(|v| v.parse().ok()).unwrap_or(3);
    let policy = match flag(args, "--policy").as_deref() {
        Some("degrade") => RecoveryPolicy::Degrade,
        Some("restart") | None => RecoveryPolicy::RestartFromCheckpoint,
        Some(_) => return usage(),
    };
    let ckpt_path = flag(args, "--checkpoint");

    let mut sys = match TargetSystem::build(system, model) {
        Ok(s) => s,
        Err(e) => return fail("boot", e),
    };
    if let Some(seed) = seed {
        let sched = ChaosSchedule::generate(seed, stage);
        println!("replaying fault schedule: {}", sched.describe());
        sys.install_fault_plan(sched.plan(), seed);
    }
    if let Some(path) = &ckpt_path {
        if std::path::Path::new(path).exists() {
            let bytes = match std::fs::read(path) {
                Ok(b) => b,
                Err(e) => return fail("read checkpoint", e),
            };
            if let Err(e) = sys.restore(&bytes) {
                eprintln!(
                    "hint: a checkpoint taken under a fault seed needs the same --seed to restore"
                );
                return fail("restore checkpoint", e);
            }
            println!("fast-forwarded from {path} ({} bytes)", bytes.len());
        }
    }
    let rc = RecoveryConfig { policy, ..RecoveryConfig::default() };
    let (final_sys, crashes, restarts, degraded) = if workload == "is" {
        match run_is_recovered(sys, class, &rc) {
            Ok(out) => {
                println!(
                    "IS on {system} ({model}): verified {}, checksum {}, {} procedures",
                    out.result.verified, out.result.checksum, out.result.procedures
                );
                (out.sys, out.crashes, out.restarts, out.degraded)
            }
            Err(e) => return fail("run", e),
        }
    } else {
        match run_kv_recovered(sys, KvOp::Set, requests, 64, &rc) {
            Ok(out) => {
                println!(
                    "KV set on {system} ({model}): {} requests, checksum {:#x}, {:.0} cycles/req",
                    out.result.requests, out.result.checksum, out.result.per_request
                );
                (out.sys, out.crashes, out.restarts, out.degraded)
            }
            Err(e) => return fail("run", e),
        }
    };
    println!(
        "recovery: {crashes} watchdog death(s), {restarts} restart(s){}",
        degraded.map_or(String::new(), |d| format!(", degraded after losing {d}"))
    );
    let violations = final_sys.audit();
    if violations.is_empty() {
        println!("invariant audit: clean");
    } else {
        for v in &violations {
            eprintln!("invariant violation: {v}");
        }
        return ExitCode::FAILURE;
    }
    if let Some(path) = &ckpt_path {
        let artifact = final_sys.checkpoint();
        let len = artifact.len();
        match std::fs::write(path, artifact) {
            Ok(()) => println!("checkpoint written to {path} ({len} bytes)"),
            Err(e) => return fail("write checkpoint", e),
        }
    }
    ExitCode::SUCCESS
}

/// `stramash-cli serve`: the production-scale serving scenario —
/// throughput-vs-offered-load and p50/p99-vs-load curves for every
/// system kind, from one deterministic seeded schedule per load point.
fn cmd_serve(args: &[String]) -> ExitCode {
    use stramash_repro::workloads::serve::{run_serve_curve, ServeConfig};
    let model = match flag(args, "--model").as_deref() {
        Some(s) => match parse_model(s) {
            Some(m) => m,
            None => return usage(),
        },
        None => HardwareModel::Shared,
    };
    let mut cfg = ServeConfig::default();
    if let Some(v) = flag(args, "--workers").and_then(|v| v.parse().ok()) {
        cfg.workers = v;
    }
    if let Some(v) = flag(args, "--connections").and_then(|v| v.parse().ok()) {
        cfg.connections = v;
    }
    if let Some(v) = flag(args, "--window").and_then(|v| v.parse().ok()) {
        cfg.window = v;
    }
    if let Some(v) = flag(args, "--requests").and_then(|v| v.parse().ok()) {
        cfg.requests = v;
    }
    if let Some(v) = flag(args, "--read-pct").and_then(|v| v.parse().ok()) {
        cfg.read_pct = v;
    }
    if let Some(v) = flag(args, "--keyspace").and_then(|v| v.parse().ok()) {
        cfg.keyspace = v;
    }
    if let Some(v) = flag(args, "--payload").and_then(|v| v.parse().ok()) {
        cfg.payload_len = v;
    }
    if let Some(v) = flag(args, "--seed").and_then(|v| {
        v.parse().ok().or_else(|| u64::from_str_radix(v.trim_start_matches("0x"), 16).ok())
    }) {
        cfg.seed = v;
    }
    let loads: Vec<f64> = flag(args, "--loads")
        .map(|s| s.split(',').filter_map(|v| v.trim().parse().ok()).collect())
        .unwrap_or_else(|| vec![2.0, 10.0, 40.0]);
    if loads.is_empty() {
        return usage();
    }

    println!(
        "serving: {} workers × {} connections (window {}), {} requests/point, \
         {}% reads over {} Zipf keys, seed {:#x} ({model})\n",
        cfg.workers, cfg.connections, cfg.window, cfg.requests, cfg.read_pct, cfg.keyspace,
        cfg.seed
    );
    println!(
        "{:<12} {:>9} {:>10} {:>12} {:>12} {:>12} {:>8}",
        "system", "offered", "achieved", "p50", "p99", "queue-p99", "stalls"
    );
    for kind in
        [SystemKind::Stramash, SystemKind::PopcornShm, SystemKind::PopcornTcp, SystemKind::Vanilla]
    {
        let curve = match run_serve_curve(kind, model, &cfg, &loads) {
            Ok(c) => c,
            Err(e) => return fail("serve", e),
        };
        for r in &curve {
            println!(
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
            println!(
                "  └ schedule {:#018x}  run {:#018x}  (seed-replayable)\n",
                last.schedule_fingerprint, last.fingerprint
            );
        }
    }
    println!("loads are requests per million cycles; latencies are simulated cycles (log₂-bucket p50/p99)");
    ExitCode::SUCCESS
}

/// `stramash-cli chaos`: the escalating seeded sweep with shrinking
/// reproducers.
fn cmd_chaos(args: &[String]) -> ExitCode {
    let seed: u64 = flag(args, "--seed")
        .and_then(|v| {
            v.parse().ok().or_else(|| u64::from_str_radix(v.trim_start_matches("0x"), 16).ok())
        })
        .unwrap_or(0x5eed);
    let stages: u32 = flag(args, "--stages").and_then(|v| v.parse().ok()).unwrap_or(4);
    let inject = args.iter().any(|a| a == "--inject-regression");
    if inject {
        println!("injecting a seeded recovery regression (degrade-where-restart-required)");
    }
    let report = match chaos_sweep(seed, stages, inject) {
        Ok(r) => r,
        Err(e) => return fail("chaos baseline", e),
    };
    for cell in &report.cells {
        println!(
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
        println!("\nfailure on {}: {}", rep.kind, rep.failure);
        println!(
            "minimal reproducer after shrinking: {}",
            rep.schedule.describe()
        );
        println!(
            "replay: stramash-cli chaos --seed {:#x} --stages {stages}{}",
            seed,
            if inject { " --inject-regression" } else { "" }
        );
        return if inject { ExitCode::SUCCESS } else { ExitCode::FAILURE };
    }
    println!(
        "\nchaos sweep green: {} cell(s), no auditor violations, no fingerprint drift",
        report.cells.len()
    );
    if inject {
        eprintln!("error: the injected regression was not found");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("npb") => cmd_npb(&args[1..]),
        Some("sweep") => cmd_sweep(&args[1..]),
        Some("kv") => cmd_kv(&args[1..]),
        Some("ipi") => cmd_ipi(),
        Some("trace") => cmd_trace(&args[1..]),
        Some("run") => cmd_run(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("chaos") => cmd_chaos(&args[1..]),
        _ => usage(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_kinds_systems_models() {
        assert_eq!(parse_kind("is"), Some(NpbKind::Is));
        assert_eq!(parse_kind("ep"), Some(NpbKind::Ep));
        assert_eq!(parse_kind("nope"), None);
        assert_eq!(parse_system("popcorn-shm"), Some(SystemKind::PopcornShm));
        assert_eq!(parse_system("stramash"), Some(SystemKind::Stramash));
        assert_eq!(parse_system("bogus"), None);
        assert_eq!(parse_model("fully-shared"), Some(HardwareModel::FullyShared));
        assert_eq!(parse_model("separated"), Some(HardwareModel::Separated));
        assert_eq!(parse_model("x"), None);
    }

    #[test]
    fn flag_extraction() {
        let args: Vec<String> =
            ["is", "--system", "stramash", "--class", "small"].iter().map(|s| s.to_string()).collect();
        assert_eq!(flag(&args, "--system").as_deref(), Some("stramash"));
        assert_eq!(flag(&args, "--class").as_deref(), Some("small"));
        assert_eq!(flag(&args, "--model"), None);
        // A trailing flag without a value yields None.
        let args: Vec<String> = ["is", "--system"].iter().map(|s| s.to_string()).collect();
        assert_eq!(flag(&args, "--system"), None);
    }
}
