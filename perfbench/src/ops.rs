//! The benchmark's workloads and the operations they are made of.
//!
//! One operation is one simulated run on a freshly booted system: one
//! NPB configuration of a Figure 9 sweep, one (design, offered load)
//! point of the serving curve, or one traced NPB run. Running an
//! operation returns its host-time spans, its simulated fingerprint and
//! the layer counters read from the program's public stats.

use std::hint::black_box;
use std::time::Instant;
use stramash_repro::kernel::msg::MsgType;
use stramash_repro::kernel::process::Pid;
use stramash_repro::kernel::system::{OsError, OsSystem};
use stramash_repro::sim::rng::SimRng;
use stramash_repro::sim::trace::{
    chrome_trace_json, reconstruct_domain_stats, render_phase_report, shared_tracer,
};
use stramash_repro::sim::{DomainId, HardwareModel, SharedTracer};
use stramash_repro::workloads::driver::Configuration;
use stramash_repro::workloads::npb::{run_npb, Class, NpbKind};
use stramash_repro::workloads::serve::{
    generate_schedule, run_serve, schedule_fingerprint, Request, ServeConfig,
};
use stramash_repro::workloads::target::{SystemKind, TargetSystem};

/// Offered loads of the serving curve, in requests per million cycles:
/// below saturation for every design, and past Popcorn-TCP's capacity.
pub const SERVE_LOADS: [f64; 2] = [10.0, 40.0];

/// Event-ring capacity of the traced workload (as `stramash-cli trace`).
pub const TRACE_CAPACITY: usize = 1 << 20;

/// The seed whose serving fingerprints are pinned in [`crate::gate`].
pub const DEFAULT_SEED: u64 = 0;

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// NPB IS over the eight Figure 9 configurations.
    NpbIsFig9,
    /// Open-loop KV serving, four designs at two offered loads.
    KvServeOpen,
    /// NPB IS with the event tracer on, plus the trace post-processing.
    NpbTraced,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::NpbIsFig9,
        Workload::KvServeOpen,
        Workload::NpbTraced,
    ];

    /// The name the command line and `BENCHMARK.json` use.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::NpbIsFig9 => "npb_is_fig9",
            Workload::KvServeOpen => "kv_serve_open",
            Workload::NpbTraced => "npb_traced",
        }
    }

    /// Parses a workload name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's operations, in the run order `seed` selects.
    ///
    /// NPB inputs are fixed by the problem class, so for the NPB
    /// workloads the seed only permutes the configuration order; for
    /// serving it is the request generator's seed.
    #[must_use]
    pub fn ops(self, seed: u64) -> Vec<Op> {
        let npb = |kind, traced| {
            move |config| Op::Npb {
                kind,
                config,
                class: Class::Small,
                traced,
            }
        };
        let mut ops: Vec<Op> = match self {
            Workload::NpbIsFig9 => Configuration::figure9_set()
                .into_iter()
                .map(npb(NpbKind::Is, false))
                .collect(),
            Workload::KvServeOpen => [
                SystemKind::Stramash,
                SystemKind::PopcornShm,
                SystemKind::PopcornTcp,
                SystemKind::Vanilla,
            ]
            .into_iter()
            .flat_map(|kind| SERVE_LOADS.map(|load| Op::Serve { kind, load, seed }))
            .collect(),
            Workload::NpbTraced => [SystemKind::Stramash, SystemKind::PopcornShm]
                .into_iter()
                .map(|kind| Configuration {
                    kind,
                    model: HardwareModel::Shared,
                })
                .map(npb(NpbKind::Is, true))
                .collect(),
        };
        SimRng::new(seed).shuffle(&mut ops);
        ops
    }

    /// The operation whose memory-access stream the per-layer replays
    /// capture: the workload's Stramash-Shared run (its top load for
    /// serving).
    #[must_use]
    pub fn capture_op(self, seed: u64) -> Op {
        let stramash = Configuration {
            kind: SystemKind::Stramash,
            model: HardwareModel::Shared,
        };
        match self {
            Workload::NpbIsFig9 | Workload::NpbTraced => Op::Npb {
                kind: NpbKind::Is,
                config: stramash,
                class: Class::Small,
                traced: false,
            },
            Workload::KvServeOpen => Op::Serve {
                kind: SystemKind::Stramash,
                load: SERVE_LOADS[1],
                seed,
            },
        }
    }

    /// Samples every operation needs before the time budget may end a
    /// run: two where the seed changes the inputs, so a same-seed rerun
    /// is checked against the first.
    #[must_use]
    pub fn min_samples(self) -> usize {
        match self {
            Workload::NpbIsFig9 => 1,
            Workload::KvServeOpen | Workload::NpbTraced => 2,
        }
    }

    /// Whether the workload's data accesses go through compiled access
    /// plans (`run_plan`), as opposed to scalar per-access calls.
    #[must_use]
    pub fn data_through_plans(self) -> bool {
        self == Workload::NpbIsFig9
    }
}

/// The serving configuration of one load point: a 10 000-key store
/// (larger than the simulated 1 MiB L2), Zipf 0.99 keys, 90 % reads.
#[must_use]
pub fn serve_config(seed: u64, load: f64) -> ServeConfig {
    ServeConfig {
        workers: 4,
        connections: 64,
        window: 8,
        requests: 5_000,
        offered_load: load,
        read_pct: 90,
        payload_len: 128,
        keyspace: 10_000,
        zipf_s: 0.99,
        seed,
    }
}

/// A configuration's label as a metric-name slug ("Fully Shared-SHM"
/// becomes "fully-shared-shm").
#[must_use]
pub fn config_slug(config: Configuration) -> String {
    config.label().to_lowercase().replace(' ', "-")
}

/// One simulated run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// An NPB kernel on one configuration, optionally with the event
    /// tracer installed and its three post-processing exports run.
    Npb {
        /// The kernel.
        kind: NpbKind,
        /// Design and hardware model.
        config: Configuration,
        /// Problem size.
        class: Class,
        /// Whether the event tracer is on.
        traced: bool,
    },
    /// One open-loop serving point on the Shared model.
    Serve {
        /// The design.
        kind: SystemKind,
        /// Offered load in requests per million cycles.
        load: f64,
        /// Generator seed.
        seed: u64,
    },
}

impl Op {
    /// A readable label, unique within a workload.
    #[must_use]
    pub fn label(&self) -> String {
        match *self {
            Op::Npb {
                kind,
                config,
                traced,
                ..
            } => {
                format!(
                    "{kind} {}{}",
                    config.label(),
                    if traced { " traced" } else { "" }
                )
            }
            Op::Serve { kind, load, .. } => format!("serve {kind} @{load}"),
        }
    }

    /// The key the simulated fingerprint is checked under. A traced run
    /// shares it with the untraced run of the same configuration: the
    /// tracer must not change simulated results.
    #[must_use]
    pub fn fingerprint_key(&self) -> String {
        match *self {
            Op::Npb {
                kind,
                config,
                class,
                ..
            } => format!("{kind}/{class:?}/{}", config_slug(config)),
            Op::Serve { kind, load, seed } => format!("serve/{kind}/{load}/{seed}"),
        }
    }

    /// The same operation with the event tracer off.
    #[must_use]
    pub fn untraced(mut self) -> Op {
        if let Op::Npb { traced, .. } = &mut self {
            *traced = false;
        }
        self
    }

    /// Boots a fresh system of this operation's design and model.
    ///
    /// # Errors
    ///
    /// Configuration errors.
    pub fn boot(&self) -> Result<TargetSystem, OsError> {
        match *self {
            Op::Npb { config, .. } => TargetSystem::build(config.kind, config.model),
            Op::Serve { kind, .. } => TargetSystem::build(kind, HardwareModel::Shared),
        }
    }

    /// Runs the operation on a freshly booted system. With
    /// `record_accesses` the memory system records every timed access
    /// (`enable_trace`) for the caller to take from the returned system.
    ///
    /// # Errors
    ///
    /// OS errors from boot or the run.
    pub fn run(&self, record_accesses: bool) -> Result<(Sample, TargetSystem), OsError> {
        let Prepared { sys, times, input } = self.set_up(record_accesses)?;
        match input {
            Input::Npb(npb) => run_npb_op(sys, times, npb),
            Input::Serve { cfg, schedule } => run_serve_op(sys, times, &cfg, &schedule),
        }
    }

    /// Set-up alone: boots a fresh system and builds the operation's
    /// inputs, timed as in [`Op::run`]. Returns the set-up seconds.
    ///
    /// # Errors
    ///
    /// OS errors from boot or spawn.
    pub fn set_up_only(&self) -> Result<f64, OsError> {
        Ok(self.set_up(false)?.times.setup_s)
    }

    fn set_up(&self, record_accesses: bool) -> Result<Prepared, OsError> {
        let start = Instant::now();
        let mut sys = self.boot()?;
        let boot_s = start.elapsed().as_secs_f64();
        let mut schedule_s = 0.0;
        let input = match *self {
            Op::Npb {
                kind,
                config,
                class,
                traced,
            } => {
                let pid = sys.spawn(DomainId::X86)?;
                let tracer = traced.then(|| {
                    let t = shared_tracer(TRACE_CAPACITY);
                    sys.install_tracer(t.clone());
                    t
                });
                Input::Npb(NpbInput {
                    kind,
                    class,
                    migrate: config.kind.migrates(),
                    pid,
                    tracer,
                })
            }
            Op::Serve { load, seed, .. } => {
                let cfg = serve_config(seed, load);
                let t = Instant::now();
                let schedule = generate_schedule(&cfg);
                schedule_s = t.elapsed().as_secs_f64();
                Input::Serve { cfg, schedule }
            }
        };
        if record_accesses {
            sys.base_mut().mem.enable_trace();
        }
        let setup_s = start.elapsed().as_secs_f64();
        Ok(Prepared {
            sys,
            times: SetUpTimes {
                boot_s,
                setup_s,
                schedule_s,
            },
            input,
        })
    }
}

/// Host spans, fingerprint and layer counters of one operation.
#[derive(Debug, Clone, Default)]
pub struct Sample {
    /// Host seconds of `TargetSystem::build`.
    pub boot_s: f64,
    /// Host seconds of set-up: boot, spawn, tracer install and, for
    /// serving, schedule generation.
    pub setup_s: f64,
    /// Host seconds of `generate_schedule` (serving only).
    pub schedule_s: f64,
    /// Host seconds of the simulation call itself.
    pub sim_s: f64,
    /// Host seconds of the three trace exports (traced runs only).
    pub export_s: f64,
    /// Simulated fingerprint (see [`Sample::fingerprint_fields`]).
    pub fingerprint: [u64; 4],
    /// Invariant violations: the auditor's findings plus any broken
    /// operation-specific invariant. Empty for a sound run.
    pub violations: Vec<String>,
    /// Layer counters.
    pub counts: Counts,
    /// Messages sent, per [`MsgType::ALL`] entry.
    pub msg_mix: [u64; MsgType::ALL.len()],
}

impl Sample {
    /// Host seconds of the measured run: the simulation plus, on traced
    /// runs, the exports.
    #[must_use]
    pub fn run_s(&self) -> f64 {
        self.sim_s + self.export_s
    }
}

/// Layer counters of one or more operations, from the program's public
/// statistics after the run. Simulated, so they repeat exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
#[allow(missing_docs)] // each field is the counter of the same name
pub struct Counts {
    pub l1i_accesses: u64,
    pub l1d_accesses: u64,
    pub l1d_hits: u64,
    pub l2_accesses: u64,
    pub l2_hits: u64,
    pub l3_accesses: u64,
    pub l3_hits: u64,
    pub remote_mem_hits: u64,
    pub snoop_data_hits: u64,
    pub snoop_invalidations: u64,
    pub writebacks: u64,
    pub instructions: u64,
    pub ipi: u64,
    pub tlb_hits: u64,
    pub tlb_misses: u64,
    pub msg_sent: u64,
    pub msg_bytes: u64,
    pub backpressure_stalls: u64,
    pub direct_remote_faults: u64,
    pub remote_vma_walks: u64,
    pub ptl_acquisitions: u64,
    pub pte_reconfigurations: u64,
    pub replicated_pages: u64,
    pub trace_events: u64,
    pub trace_dropped: u64,
    pub window_stalls: u64,
    pub serve_busy_cycles: u64,
    pub serve_capacity_cycles: u64,
}

impl Counts {
    /// Simulated memory accesses (L1I + L1D, both domains).
    #[must_use]
    pub fn accesses(&self) -> u64 {
        self.l1i_accesses + self.l1d_accesses
    }

    /// Adds `other` field by field.
    pub fn add(&mut self, other: &Counts) {
        macro_rules! sum {
            ($($f:ident),*) => { $(self.$f += other.$f;)* };
        }
        sum!(
            l1i_accesses,
            l1d_accesses,
            l1d_hits,
            l2_accesses,
            l2_hits,
            l3_accesses,
            l3_hits,
            remote_mem_hits,
            snoop_data_hits,
            snoop_invalidations,
            writebacks,
            instructions,
            ipi,
            tlb_hits,
            tlb_misses,
            msg_sent,
            msg_bytes,
            backpressure_stalls,
            direct_remote_faults,
            remote_vma_walks,
            ptl_acquisitions,
            pte_reconfigurations,
            replicated_pages,
            trace_events,
            trace_dropped,
            window_stalls,
            serve_busy_cycles,
            serve_capacity_cycles
        );
    }

    /// Reads the counters of a system after its run.
    fn collect(sys: &TargetSystem) -> Counts {
        let base = sys.base();
        let mut c = Counts::default();
        for d in DomainId::ALL {
            let s = base.mem.stats(d);
            c.l1i_accesses += s.l1i.accesses;
            c.l1d_accesses += s.l1d.accesses;
            c.l1d_hits += s.l1d.hits;
            c.l2_accesses += s.l2.accesses;
            c.l2_hits += s.l2.hits;
            c.l3_accesses += s.l3.accesses;
            c.l3_hits += s.l3.hits;
            c.remote_mem_hits += s.remote_mem_hits + s.remote_shared_mem_hits;
            c.snoop_data_hits += s.snoop_data_hits;
            c.snoop_invalidations += s.snoop_invalidations;
            c.writebacks += base.mem.writebacks(d);
            c.instructions += s.instructions;
            c.ipi += s.ipi;
            c.tlb_hits += s.tlb_hits;
            c.tlb_misses += s.tlb_misses;
        }
        let msg = base.msg.counters();
        c.msg_sent = msg.total();
        c.msg_bytes = msg.total_bytes();
        c.backpressure_stalls = msg.backpressure_stalls();
        if let Some(k) = sys.stramash_counters() {
            c.direct_remote_faults = k.direct_remote_faults;
            c.remote_vma_walks = k.remote_vma_walks;
            c.ptl_acquisitions = k.ptl_acquisitions;
            c.pte_reconfigurations = k.pte_reconfigurations;
        }
        // Stramash counts replicated pages system-wide; the other
        // designs count them per process.
        c.replicated_pages = match base.processes().next() {
            Some(p) if sys.stramash_counters().is_some() => sys.replicated_pages(p.pid),
            _ => base.processes().map(|p| sys.replicated_pages(p.pid)).sum(),
        };
        c
    }
}

fn msg_mix(sys: &TargetSystem) -> [u64; MsgType::ALL.len()] {
    MsgType::ALL.map(|ty| sys.base().msg.counters().of_type(ty))
}

/// Host seconds of one set-up.
#[derive(Debug, Clone, Copy)]
struct SetUpTimes {
    boot_s: f64,
    setup_s: f64,
    schedule_s: f64,
}

/// What set-up builds for the run.
enum Input {
    Npb(NpbInput),
    Serve {
        cfg: ServeConfig,
        schedule: Vec<Request>,
    },
}

struct NpbInput {
    kind: NpbKind,
    class: Class,
    migrate: bool,
    pid: Pid,
    tracer: Option<SharedTracer>,
}

/// A booted system with its inputs, ready to run.
struct Prepared {
    sys: TargetSystem,
    times: SetUpTimes,
    input: Input,
}

fn run_npb_op(
    mut sys: TargetSystem,
    times: SetUpTimes,
    input: NpbInput,
) -> Result<(Sample, TargetSystem), OsError> {
    let NpbInput {
        kind,
        class,
        migrate,
        pid,
        tracer,
    } = input;
    let t_run = Instant::now();
    let outcome = run_npb(kind, &mut sys, pid, class, migrate)?;
    sys.base_mut().sync_runtime_stats();
    let sim_s = t_run.elapsed().as_secs_f64();

    let (mut export_s, mut trace_events, mut trace_dropped) = (0.0, 0, 0);
    if let Some(tracer) = tracer {
        let t_export = Instant::now();
        let t = tracer.borrow();
        let events = t.events();
        black_box(render_phase_report(&events));
        black_box(reconstruct_domain_stats(&events));
        black_box(chrome_trace_json(&events));
        export_s = t_export.elapsed().as_secs_f64();
        trace_events = t.recorded();
        trace_dropped = t.dropped();
    }

    // Everything below is outside the timed regions.
    let mut violations = sys.audit();
    if !outcome.verified {
        violations.push(format!("{kind} failed its own verification"));
    }
    violations.extend(single_thread_violation(&sys));
    let fingerprint = [
        sys.runtime().raw(),
        sys.message_total(),
        sys.replicated_pages(pid),
        u64::from(outcome.verified),
    ];
    let sample = Sample {
        boot_s: times.boot_s,
        setup_s: times.setup_s,
        schedule_s: 0.0,
        sim_s,
        export_s,
        fingerprint,
        violations,
        counts: Counts {
            trace_events,
            trace_dropped,
            ..Counts::collect(&sys)
        },
        msg_mix: msg_mix(&sys),
    };
    Ok((sample, sys))
}

fn run_serve_op(
    mut sys: TargetSystem,
    times: SetUpTimes,
    cfg: &ServeConfig,
    schedule: &[Request],
) -> Result<(Sample, TargetSystem), OsError> {
    // `run_serve` regenerates the same schedule internally; the copy
    // built in set-up is the one set-up time is measured on, and its
    // fingerprint checks that the two agree.
    let t_run = Instant::now();
    let result = run_serve(&mut sys, cfg)?;
    let sim_s = t_run.elapsed().as_secs_f64();

    sys.base_mut().sync_runtime_stats();
    let mut violations = sys.audit();
    if result.schedule_fingerprint != schedule_fingerprint(schedule) {
        violations.push("run_serve served a different schedule than the generator made".into());
    }
    if result.completed != cfg.requests {
        violations.push(format!(
            "completed {} of {} requests",
            result.completed, cfg.requests
        ));
    }
    violations.extend(single_thread_violation(&sys));
    let counts = Counts {
        window_stalls: result.window_stalls,
        serve_busy_cycles: result.busy.raw(),
        serve_capacity_cycles: result.makespan.raw() * u64::from(cfg.workers),
        ..Counts::collect(&sys)
    };
    let sample = Sample {
        boot_s: times.boot_s,
        setup_s: times.setup_s,
        schedule_s: times.schedule_s,
        sim_s,
        export_s: 0.0,
        fingerprint: [
            result.schedule_fingerprint,
            result.fingerprint,
            result.completed,
            cfg.requests,
        ],
        violations,
        counts,
        msg_mix: msg_mix(&sys),
    };
    Ok((sample, sys))
}

/// The benchmark measures one simulation thread: the epoch policy in
/// force must keep replay serial.
fn single_thread_violation(sys: &TargetSystem) -> Option<String> {
    sys.base()
        .epoch_policy()
        .enabled
        .then(|| "epoch-parallel replay is on; the benchmark runs one thread".to_string())
}
