//! The two kinds of run: the end-to-end measurement (`--trace 0`) and
//! the per-layer traced run (`--trace 1`).
//!
//! End to end, a workload's operations run round-robin until the time
//! budget is spent (each at least [`Workload::min_samples`] times), and
//! each time metric is a sum over operations of one statistic of that
//! operation's samples. The traced run makes one pass with spans around
//! each call into the program, then replays captured inputs through
//! single layers: the memory-access stream of one run through
//! `MemorySystem::access` and `run_plan`, page-table walks over that
//! run's touched pages, and each run's message mix through
//! `MessagingLayer::send`/`receive`.

use crate::gate::{render, Gate};
use crate::metrics::{npb_span_name, Tally, Value};
use crate::ops::{Counts, Op, Sample, Workload};
use crate::reference::{Reference, NOMINAL_S};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};
use stramash_repro::kernel::addr::{VirtAddr, PAGE_SIZE};
use stramash_repro::kernel::msg::{Message, MsgType, MSG_HEADER_BYTES};
use stramash_repro::kernel::pagetable::PageTable;
use stramash_repro::kernel::system::{OsError, OsSystem};
use stramash_repro::mem::system::{Access, AccessKind, AccessPlan, TraceEntry};
use stramash_repro::sim::DomainId;
use stramash_repro::workloads::target::TargetSystem;

/// Ops per compiled plan in the `run_plan` replay.
const PLAN_CHUNK: usize = 4096;
/// Passes over the touched pages in the walk replay.
const WALK_ROUNDS: usize = 4;
/// Traced and untraced runs per configuration behind `sim.trace.emit_s`.
const EMIT_ROUNDS: usize = 3;
/// Set-ups timed on their own before each run of an operation.
const SETUP_SAMPLES: usize = 3;

/// Runs `op` through the gate, counting it in `tally`. Returns the
/// sample and the finished system when the operation passed.
pub fn attempt(
    op: &Op,
    gate: &mut Gate,
    tally: &mut Tally,
    record_accesses: bool,
) -> Option<(Sample, TargetSystem)> {
    tally.attempted += 1;
    let reason = match catch_unwind(AssertUnwindSafe(|| op.run(record_accesses))) {
        Ok(Ok((sample, sys))) => {
            let verdict = gate.check(op, &sample);
            eprintln!(
                "{:<6} {:<32} setup {:.4}s run {:.4}s  {}",
                if verdict.is_ok() { "ok" } else { "FAILED" },
                op.label(),
                sample.setup_s,
                sample.run_s(),
                render(op, &sample.fingerprint)
            );
            match verdict {
                Ok(()) => return Some((sample, sys)),
                Err(reason) => reason,
            }
        }
        Ok(Err(e)) => format!("OsError: {e}"),
        Err(_) => "panicked".to_string(),
    };
    tally.failed += 1;
    eprintln!("FAILED {:<32} {reason}", op.label());
    None
}

fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Peak resident memory of this process so far, in MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// The end-to-end measurement of `workload`: operations round-robin for
/// `budget`, each sample scaled to the reference speed (see
/// [`crate::reference`]), then set-up as the sum of per-operation
/// medians and run time as the sum of per-operation means.
///
/// # Errors
///
/// When peak memory cannot be read.
pub fn end_to_end(
    workload: Workload,
    seed: u64,
    budget: Duration,
    gate: &mut Gate,
) -> Result<(Tally, BTreeMap<String, Value>), String> {
    let ops = workload.ops(seed);
    let mut tally = Tally::default();
    let mut runs: Vec<Vec<f64>> = vec![Vec::new(); ops.len()];
    let mut setups: Vec<Vec<f64>> = vec![Vec::new(); ops.len()];
    let mut accesses: Vec<u64> = vec![0; ops.len()];
    let mut slowdowns = Vec::new();
    let mut reference = Reference::new();
    reference.time(); // faults the model's pages in
    let mut before = reference.time();
    let start = Instant::now();
    'rounds: for round in 0.. {
        for (i, op) in ops.iter().enumerate() {
            if round >= workload.min_samples() && start.elapsed() >= budget {
                break 'rounds;
            }
            // Extra set-ups in the same heap state as the run's own, so
            // the set-up median has samples even when runs are few.
            let mut setup = Vec::with_capacity(SETUP_SAMPLES + 1);
            for _ in 0..SETUP_SAMPLES {
                match op.set_up_only() {
                    Ok(seconds) => setup.push(seconds),
                    Err(e) => {
                        tally.attempted += 1;
                        tally.failed += 1;
                        eprintln!("FAILED {:<32} set-up: OsError: {e}", op.label());
                    }
                }
            }
            let sample = attempt(op, gate, &mut tally, false);
            // The reference passes either side of the operation stand
            // for the host speed while it ran.
            let after = reference.time();
            let slowdown = (before + after) / 2.0 / NOMINAL_S;
            before = after;
            slowdowns.push(slowdown);
            if let Some((sample, _)) = sample {
                setup.push(sample.setup_s);
                runs[i].push(sample.run_s() / slowdown);
                accesses[i] = sample.counts.accesses();
            }
            setups[i].extend(setup.iter().map(|s| s / slowdown));
        }
    }
    // Set-up is short and allocation-bound: its median per operation.
    // Run time is the mean per operation: what the reference leaves of
    // the host's slowdown is scatter on both sides of the true time,
    // which a mean averages out over a run's samples.
    let (mut setup_s, mut run_s) = (0.0, 0.0);
    for (times, mut setup) in runs.iter().zip(setups) {
        setup_s += median(&mut setup);
        if !times.is_empty() {
            run_s += times.iter().sum::<f64>() / times.len() as f64;
        }
    }
    let typical = median(&mut slowdowns); // sorts them
    eprintln!(
        "host slowdown against the reference: median {typical:.3}, min {:.3}, max {:.3}, {} samples",
        slowdowns.first().copied().unwrap_or(0.0),
        slowdowns.last().copied().unwrap_or(0.0),
        slowdowns.len()
    );
    let accesses: u64 = accesses.iter().sum();
    let mut values = BTreeMap::new();
    values.insert("setup_s".into(), Value::Real(setup_s));
    values.insert("run_s".into(), Value::Real(run_s));
    let rate = if run_s > 0.0 {
        accesses as f64 / run_s / 1e6
    } else {
        0.0
    };
    values.insert("sim_maccess_per_s".into(), Value::Real(rate));
    values.insert("peak_rss_mb".into(), Value::Real(peak_rss_mb()?));
    Ok((tally, values))
}

/// The per-layer traced run of `workload`.
///
/// # Errors
///
/// An OS error while booting a replay system.
pub fn per_layer(
    workload: Workload,
    seed: u64,
    gate: &mut Gate,
) -> Result<(Tally, BTreeMap<String, Value>), OsError> {
    let mut tally = Tally::default();
    let mut counts = Counts::default();
    let mut spans: BTreeMap<String, f64> = BTreeMap::new();
    let (mut boot_s, mut schedule_s, mut export_s, mut run_s) = (0.0, 0.0, 0.0, 0.0);
    let mut emit_s = 0.0;
    let (mut msg_time, mut msg_count) = (Duration::ZERO, 0u64);

    let ops = workload.ops(seed);
    for op in &ops {
        let Some((sample, _sys)) = attempt(op, gate, &mut tally, false) else {
            continue;
        };
        counts.add(&sample.counts);
        boot_s += sample.boot_s;
        schedule_s += sample.schedule_s;
        export_s += sample.export_s;
        run_s += sample.run_s();
        if let Op::Npb { config, traced, .. } = *op {
            *spans.entry(npb_span_name(config)).or_default() += sample.sim_s;
            if traced {
                // Emission cost: traced and untraced runs of the same
                // configuration, alternating, compared by their medians.
                let (mut with, mut without) = (vec![sample.sim_s], Vec::new());
                for round in 0..EMIT_ROUNDS {
                    if let Some((plain, _)) = attempt(&op.untraced(), gate, &mut tally, false) {
                        without.push(plain.sim_s);
                    }
                    if round + 1 < EMIT_ROUNDS {
                        if let Some((again, _)) = attempt(op, gate, &mut tally, false) {
                            with.push(again.sim_s);
                        }
                    }
                }
                emit_s += median(&mut with) - median(&mut without);
            }
        }
        let (t, n) = replay_messages(op, &sample)?;
        msg_time += t;
        msg_count += n;
    }

    // One extra run records its memory-access stream for the replays.
    let (mut access_ns, mut plan_ns, mut walk_ns) = (0.0, 0.0, 0.0);
    let capture = workload.capture_op(seed);
    if let Some((_, mut sys)) = attempt(&capture, gate, &mut tally, true) {
        let stream = sys.base_mut().mem.take_trace();
        access_ns = replay_accesses(&capture, &stream)?;
        plan_ns = replay_plans(&capture, &stream)?;
        drop(stream);
        walk_ns = replay_walks(&mut sys);
    }
    let roundtrip_ns = per_op_ns(msg_time, msg_count);

    // Host time the replays explain, at the run's own op counts.
    let data_ns = if workload.data_through_plans() {
        plan_ns
    } else {
        access_ns
    };
    let attributed_ns = data_ns * counts.l1d_accesses as f64
        + access_ns * counts.l1i_accesses as f64
        + walk_ns * counts.tlb_misses as f64
        + roundtrip_ns * counts.msg_sent as f64;
    let unattributed_s = run_s - attributed_ns * 1e-9 - emit_s - export_s;

    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let mut v: BTreeMap<String, Value> = BTreeMap::new();
    let mut count = |name: &str, n: u64| v.insert(name.to_string(), Value::Count(n));
    count("mem.accesses", counts.accesses());
    count("mem.remote_mem_hits", counts.remote_mem_hits);
    count("mem.snoop_data_hits", counts.snoop_data_hits);
    count("mem.snoop_invalidations", counts.snoop_invalidations);
    count("mem.writebacks", counts.writebacks);
    count("kernel.tlb_hits", counts.tlb_hits);
    count("kernel.msg.sent", counts.msg_sent);
    count("kernel.msg.bytes", counts.msg_bytes);
    count("kernel.msg.backpressure_stalls", counts.backpressure_stalls);
    count("core.direct_remote_faults", counts.direct_remote_faults);
    count("core.remote_vma_walks", counts.remote_vma_walks);
    count("core.ptl_acquisitions", counts.ptl_acquisitions);
    count("core.pte_reconfigurations", counts.pte_reconfigurations);
    count("popcorn.replicated_pages", counts.replicated_pages);
    count("sim.instructions", counts.instructions);
    count("sim.ipi", counts.ipi);
    count("sim.trace.events", counts.trace_events);
    count("sim.trace.dropped", counts.trace_dropped);
    count("workloads.serve.window_stalls", counts.window_stalls);
    let mut real = |name: &str, x: f64| v.insert(name.to_string(), Value::Real(x));
    real(
        "mem.l1d.hit_rate",
        ratio(counts.l1d_hits, counts.l1d_accesses),
    );
    real("mem.l2.hit_rate", ratio(counts.l2_hits, counts.l2_accesses));
    real("mem.l3.hit_rate", ratio(counts.l3_hits, counts.l3_accesses));
    real("mem.access_ns", access_ns);
    real("mem.plan_ns", plan_ns);
    real("isa.walk_ns", walk_ns);
    real(
        "kernel.tlb_miss_rate",
        ratio(counts.tlb_misses, counts.tlb_hits + counts.tlb_misses),
    );
    real("kernel.msg.roundtrip_ns", roundtrip_ns);
    real("kernel.boot_s", boot_s);
    real("sim.trace.emit_s", emit_s);
    real("sim.trace.export_s", export_s);
    real("workloads.serve.schedule_s", schedule_s);
    real(
        "workloads.serve.utilization",
        ratio(counts.serve_busy_cycles, counts.serve_capacity_cycles),
    );
    real("bench.unattributed_s", unattributed_s);
    for config in stramash_repro::workloads::driver::Configuration::figure9_set() {
        let name = npb_span_name(config);
        let span = spans.get(&name).copied().unwrap_or(0.0);
        v.insert(name, Value::Real(span));
    }
    Ok((tally, v))
}

fn per_op_ns(elapsed: Duration, ops: u64) -> f64 {
    if ops == 0 {
        0.0
    } else {
        elapsed.as_secs_f64() * 1e9 / ops as f64
    }
}

/// Replays a recorded access stream through a freshly booted memory
/// system, one `access` call per entry. Returns host ns per access.
fn replay_accesses(op: &Op, stream: &[TraceEntry]) -> Result<f64, OsError> {
    let mut sys = op.boot()?;
    let mem = &mut sys.base_mut().mem;
    let mut cycles = 0u64;
    let start = Instant::now();
    for e in stream {
        cycles = cycles.wrapping_add(mem.access(e.domain, e.addr, e.access, e.kind).cycles.raw());
    }
    let elapsed = start.elapsed();
    black_box(cycles);
    Ok(per_op_ns(elapsed, stream.len() as u64))
}

/// Replays the data accesses of a recorded stream as compiled plans:
/// each run of same-domain accesses, cut at [`PLAN_CHUNK`] ops, through
/// one `run_plan` call on a freshly booted memory system. Returns host
/// ns per access; only the `run_plan` calls are timed.
fn replay_plans(op: &Op, stream: &[TraceEntry]) -> Result<f64, OsError> {
    let mut sys = op.boot()?;
    let mem = &mut sys.base_mut().mem;
    let mut plan = AccessPlan::default();
    let mut domain = DomainId::X86;
    let (mut elapsed, mut ops, mut cycles) = (Duration::ZERO, 0u64, 0u64);
    let mut flush = |plan: &mut AccessPlan, domain: DomainId| {
        if plan.is_empty() {
            return;
        }
        let start = Instant::now();
        cycles = cycles.wrapping_add(mem.run_plan(domain, plan, 0..plan.len()).raw());
        elapsed += start.elapsed();
        ops += plan.len() as u64;
        plan.clear();
    };
    for e in stream.iter().filter(|e| e.kind == AccessKind::Data) {
        if e.domain != domain || plan.len() == PLAN_CHUNK {
            flush(&mut plan, domain);
            domain = e.domain;
        }
        plan.push(e.addr.raw(), e.access == Access::Write);
    }
    flush(&mut plan, domain);
    black_box(cycles);
    Ok(per_op_ns(elapsed, ops))
}

/// Timed software page-table walks, by each domain's own walker, over
/// every page the run left mapped. Returns host ns per walk.
fn replay_walks(sys: &mut TargetSystem) -> f64 {
    let mut walks: Vec<(PageTable, DomainId, VirtAddr)> = Vec::new();
    let base = sys.base();
    for p in base.processes() {
        for d in DomainId::ALL {
            let Some(pt) = p.page_table(d) else { continue };
            for vma in p.vmas.iter() {
                let pages = (vma.start.raw()..vma.end.raw()).step_by(PAGE_SIZE as usize);
                for va in pages.map(VirtAddr::new) {
                    if pt.walk_untimed(&base.mem, va).is_some() {
                        walks.push((*pt, d, va));
                    }
                }
            }
        }
    }
    let mem = &mut sys.base_mut().mem;
    let mut cycles = 0u64;
    let start = Instant::now();
    for _ in 0..WALK_ROUNDS {
        for (pt, d, va) in &walks {
            cycles = cycles.wrapping_add(pt.walk(mem, *d, *va).1.raw());
        }
    }
    let elapsed = start.elapsed();
    black_box(cycles);
    per_op_ns(elapsed, (walks.len() * WALK_ROUNDS) as u64)
}

/// Replays one run's per-type message mix through a freshly booted
/// messaging layer: each message is sent and then received, directions
/// alternating, at the run's mean payload. Returns the time spent and
/// the messages replayed.
fn replay_messages(op: &Op, sample: &Sample) -> Result<(Duration, u64), OsError> {
    let sent = sample.counts.msg_sent;
    if sent == 0 {
        return Ok((Duration::ZERO, 0));
    }
    let payload =
        u32::try_from((sample.counts.msg_bytes / sent).saturating_sub(u64::from(MSG_HEADER_BYTES)))
            .unwrap_or(u32::MAX);
    let mut sys = op.boot()?;
    let base = sys.base_mut();
    let mut cycles = 0u64;
    let mut from = DomainId::X86;
    let start = Instant::now();
    for (&ty, &n) in MsgType::ALL.iter().zip(&sample.msg_mix) {
        let msg = Message { ty, payload };
        for _ in 0..n {
            cycles =
                cycles.wrapping_add(base.msg.send(&mut base.mem, &mut base.ipi, from, msg).raw());
            cycles = cycles.wrapping_add(base.msg.receive(&mut base.mem, from.other(), msg).raw());
            from = from.other();
        }
    }
    let elapsed = start.elapsed();
    black_box(cycles);
    Ok((elapsed, sample.msg_mix.iter().sum()))
}
