//! `stramash-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints one provenance line and, last, the result line on standard
//! output; per-operation progress goes to standard error. Exits 2
//! without a result on bad arguments, on a `STRAMASH_*` variable in the
//! environment, or when a measurement cannot be taken.

use std::process::ExitCode;
use std::time::Duration;
use stramash_perfbench::gate::{Gate, Pins};
use stramash_perfbench::measure::{end_to_end, per_layer};
use stramash_perfbench::metrics::{self, result_line};
use stramash_perfbench::ops::{Workload, DEFAULT_SEED};
use stramash_perfbench::reference;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, DEFAULT_SEED, 35, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                let w =
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?;
                workload = Some(w);
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?.max(1),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// The environment the simulator reads: `STRAMASH_*` variables change
/// the epoch policy and sweep workers, so any of them would change what
/// is measured.
fn check_environment() -> Result<(), String> {
    let leaked: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("STRAMASH_"))
        .collect();
    if leaked.is_empty() {
        Ok(())
    } else {
        Err(format!("refusing to run with {} set", leaked.join(", ")))
    }
}

/// The repository's git revision, or "unavailable" outside a git checkout.
fn git_rev() -> String {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
    std::process::Command::new("git")
        .args(["-C", root, "rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unavailable".to_string(), |s| s.trim().to_string())
}

fn provenance(args: &Args) -> String {
    let cores = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    format!(
        "{{\"provenance\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"host_cores\": {cores}, \"sim_threads\": 1, \"git_rev\": \"{}\", \
         \"cargo_features\": \"none\", \"profile\": \"release\", \"rustc\": \"{}\", \
         \"reference_nominal_s\": {}}}}}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        git_rev(),
        env!("PERFBENCH_RUSTC_VERSION"),
        reference::NOMINAL_S,
    )
}

fn run(raw: &[String]) -> Result<String, String> {
    let args = parse_args(raw)?;
    check_environment()?;
    println!("{}", provenance(&args));
    let mut gate = Gate::new(Pins::recorded());
    if args.trace {
        let (tally, values) = per_layer(args.workload, args.seed, &mut gate)
            .map_err(|e| format!("replay boot: {e}"))?;
        result_line(&metrics::per_layer(), &values, &tally)
    } else {
        let budget = Duration::from_secs(args.seconds);
        let (tally, values) = end_to_end(args.workload, args.seed, budget, &mut gate)?;
        result_line(&metrics::end_to_end(), &values, &tally)
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match run(&raw) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("stramash-perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
