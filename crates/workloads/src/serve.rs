//! The production-scale KV serving scenario (ROADMAP item 1).
//!
//! Figure 14 replays a fixed request stream through one migrated server
//! thread. This module grows that into the "millions of users" shape:
//! N worker processes spread across both ISA domains, each owning one
//! hash shard of the store ([`crate::kvstore::ShardedKv`]), thousands
//! of logical client connections multiplexed over the one physical
//! ring pair ([`stramash_kernel::msg::MessagingLayer::open_stream`]),
//! and an *open-loop* load generator: seeded Poisson arrivals, Zipfian
//! key popularity and a configurable read/write mix, driven to a target
//! offered load rather than lock-step request/response.
//!
//! # Timing model
//!
//! The simulator has no global event queue — it has two per-domain
//! cycle clocks that memory traffic and messaging charge into. The
//! serving scenario layers an event-driven timeline on top: every
//! request's wire and service costs are measured from those clocks
//! (exactly the charges `run_kv` makes), then composed on a virtual
//! timeline with per-worker availability:
//!
//! ```text
//! arrival  ──send──▶ ring ──queue──▶ worker busy: recv+process+respond ──recv──▶ done
//!    t      send_c           wait         recv_c + service + resp_send_c   resp_recv_c
//! ```
//!
//! Latency = completion − arrival; the queueing term is what separates
//! an offered load below saturation from one above it. Everything —
//! schedule, costs, timeline — is a pure function of the seed and the
//! config, so a same-seed replay is byte-identical on every platform
//! (the generator deliberately avoids `ln`/`exp`/`powf` from libm; see
//! `det_ln`).
//!
//! Per-request latencies land in [`stramash_sim::trace::HIST_KVSERVE_REQUEST`]
//! (and queueing in `HIST_KVSERVE_QUEUE`) so `stramash-cli trace` and
//! phase reports show the p50/p99 tails alongside the run's own
//! [`ServeResult`].

use crate::kvstore::{fnv, key_of, KvOp, ShardedKv, ENTRY_HEADER};
use crate::target::TargetSystem;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use stramash_kernel::msg::{Message, MsgType, StreamId};
use stramash_kernel::process::Pid;
use stramash_kernel::system::{OsError, OsSystem};
use stramash_sim::rng::SimRng;
use stramash_sim::trace::{LatencyHistogram, HIST_KVSERVE_QUEUE, HIST_KVSERVE_REQUEST};
use stramash_sim::{Cycles, DomainId};

/// Configuration of one serving run. `Default` is the small smoke
/// shape; the bench and CLI scale it up.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// Worker processes (== store shards). Odd-indexed workers migrate
    /// to the Arm kernel on designs that migrate.
    pub workers: u32,
    /// Logical client connections multiplexed over the ring pair.
    pub connections: u32,
    /// Per-connection credit window (max unanswered requests).
    pub window: u32,
    /// Total requests the generator produces.
    pub requests: u64,
    /// Offered load in requests per million cycles (the open-loop
    /// arrival rate; arrivals do *not* slow down when the server lags).
    pub offered_load: f64,
    /// Percentage of GETs (the rest are SETs), 0–100.
    pub read_pct: u32,
    /// Value payload bytes.
    pub payload_len: u32,
    /// Distinct keys; popularity is Zipf-distributed over them.
    pub keyspace: u64,
    /// Zipf exponent (s = 0 is uniform; web serving is ≈ 0.99).
    pub zipf_s: f64,
    /// Generator seed. Same seed + same config ⇒ byte-identical
    /// schedule and run fingerprint on every system kind and platform.
    pub seed: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 4,
            connections: 64,
            window: 8,
            requests: 2000,
            offered_load: 10.0,
            read_pct: 90,
            payload_len: 128,
            keyspace: 1000,
            zipf_s: 0.99,
            seed: 0x5e17_ab1e,
        }
    }
}

/// One generated request: what arrives, when, on which connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Arrival cycle on the open-loop timeline.
    pub arrival: u64,
    /// Key hash (already spread by the Fibonacci multiplier).
    pub key_hash: u64,
    /// Write (SET) or read (GET).
    pub write: bool,
    /// Logical connection carrying it.
    pub conn: u32,
}

/// Natural log over positive finite inputs using only IEEE-exact f64
/// ops (+, −, ×, ÷), so results are bit-identical on every platform —
/// `f64::ln` goes through libm, whose rounding may differ across
/// hosts, which would break the cross-platform schedule determinism
/// the goldens pin.
///
/// Decomposes `x = m·2^e` with `m ∈ [1, 2)` and sums the atanh series
/// `ln(m) = 2(s + s³/3 + s⁵/5 + …)` with `s = (m−1)/(m+1)` (|s| ≤ 1/3,
/// 25 fixed terms — far past f64 precision).
pub(crate) fn det_ln(x: f64) -> f64 {
    debug_assert!(x > 0.0 && x.is_finite());
    let bits = x.to_bits();
    let e = ((bits >> 52) & 0x7ff) as i64 - 1023;
    let m = f64::from_bits((bits & 0x000f_ffff_ffff_ffff) | (1023u64 << 52));
    let s = (m - 1.0) / (m + 1.0);
    let s2 = s * s;
    let mut term = s;
    let mut sum = 0.0;
    let mut k = 1.0;
    for _ in 0..25 {
        sum += term / k;
        term *= s2;
        k += 2.0;
    }
    e as f64 * core::f64::consts::LN_2 + 2.0 * sum
}

/// `e^x` companion to [`det_ln`], same exact-ops-only contract.
/// Argument-reduces by powers of two (`x = k·ln2 + r`, |r| ≤ ln2/2),
/// sums the Taylor series for `e^r`, then scales by `2^k` through the
/// exponent bits. Valid for the moderate |x| ≤ ~700 this module uses.
pub(crate) fn det_exp(x: f64) -> f64 {
    debug_assert!(x.is_finite());
    let kf = (x / core::f64::consts::LN_2).round();
    let r = x - kf * core::f64::consts::LN_2;
    let mut term = 1.0;
    let mut sum = 1.0;
    for n in 1..=20 {
        term *= r / f64::from(n);
        sum += term;
    }
    let k = kf as i64;
    debug_assert!((-1000..=1000).contains(&k));
    sum * f64::from_bits(((1023 + k) as u64) << 52)
}

/// Generates the open-loop request schedule: a pure function of the
/// config — system kind, hardware model and host platform never touch
/// it, which is what makes cross-kind latency curves comparable and
/// same-seed replays byte-identical.
///
/// Arrivals are Poisson (exponential inter-arrival via inverse CDF at
/// the configured offered load), keys are Zipf(`zipf_s`) ranks mapped
/// through the Fibonacci spreader so popular keys scatter across
/// shards, the read/write mix is an independent Bernoulli draw, and
/// connections are assigned round-robin.
#[must_use]
pub fn generate_schedule(cfg: &ServeConfig) -> Vec<Request> {
    let mut rng = SimRng::new(cfg.seed ^ 0x6b76_7365_7276_6531); // "kvserve1"
                                                                 // Zipf CDF over the keyspace: weight(rank i) = (i+1)^-s, computed
                                                                 // as exp(-s·ln(i+1)) with the deterministic helpers.
    let k = cfg.keyspace.max(1);
    let mut cdf = Vec::with_capacity(k as usize);
    let mut total = 0.0f64;
    for i in 0..k {
        let w = if cfg.zipf_s == 0.0 { 1.0 } else { det_exp(-cfg.zipf_s * det_ln(i as f64 + 1.0)) };
        total += w;
        cdf.push(total);
    }
    let mean_gap = 1.0e6 / cfg.offered_load.max(1e-9); // cycles between arrivals
    let mut schedule = Vec::with_capacity(cfg.requests as usize);
    let mut t = 0u64;
    for r in 0..cfg.requests {
        // Exponential inter-arrival, inverse CDF. 1−u ∈ (0, 1] so the
        // log argument is never zero.
        let gap = -det_ln(1.0 - rng.gen_f64()) * mean_gap;
        // Quantize to whole cycles; tiny gaps still advance ≥ 1 cycle
        // only via accumulated fractions being dropped — simultaneous
        // arrivals are legal (two clients really can).
        t += gap as u64;
        // Zipf rank via binary search over the CDF.
        let u = rng.gen_f64() * total;
        let rank = cdf.partition_point(|&c| c < u) as u64;
        let rank = rank.min(k - 1);
        let write = rng.gen_range(100) >= u64::from(cfg.read_pct.min(100));
        schedule.push(Request {
            arrival: t,
            key_hash: key_of(rank),
            write,
            conn: (r % u64::from(cfg.connections.max(1))) as u32,
        });
    }
    schedule
}

/// FNV-1a fingerprint of a schedule's every byte — pinned by the
/// goldens to prove same-seed replays are byte-identical.
#[must_use]
pub fn schedule_fingerprint(schedule: &[Request]) -> u64 {
    let mut acc = 0xcbf2_9ce4_8422_2325u64;
    for r in schedule {
        for b in r
            .arrival
            .to_le_bytes()
            .into_iter()
            .chain(r.key_hash.to_le_bytes())
            .chain([u8::from(r.write)])
            .chain(r.conn.to_le_bytes())
        {
            acc = fnv(acc, b);
        }
    }
    acc
}

/// Result of one serving run at one offered load.
#[derive(Debug, Clone)]
pub struct ServeResult {
    /// Offered load the generator targeted (req per million cycles).
    pub offered_load: f64,
    /// Requests completed (== generated; open loop never drops).
    pub completed: u64,
    /// First arrival to last completion on the virtual timeline.
    pub makespan: Cycles,
    /// Achieved throughput in requests per million cycles. Tracks the
    /// offered load below saturation and flattens at capacity above it.
    pub throughput: f64,
    /// End-to-end request latency histogram (arrival → response).
    pub latency: LatencyHistogram,
    /// Queueing-delay histogram (ring arrival → worker pickup).
    pub queue: LatencyHistogram,
    /// Worker-busy cycles summed over workers (service utilization
    /// numerator; divide by `makespan × workers`).
    pub busy: Cycles,
    /// Stream-window stalls summed over connections (client-side
    /// backpressure events).
    pub window_stalls: u64,
    /// FNV-1a fingerprint over every response length and latency —
    /// the determinism contract for goldens.
    pub fingerprint: u64,
    /// Schedule fingerprint (identical across system kinds).
    pub schedule_fingerprint: u64,
}

impl ServeResult {
    /// p50 request latency in cycles (log₂-bucket estimate).
    #[must_use]
    pub fn p50(&self) -> u64 {
        self.latency.percentile(50.0)
    }

    /// p99 request latency in cycles.
    #[must_use]
    pub fn p99(&self) -> u64 {
        self.latency.percentile(99.0)
    }
}

/// Runs the serving scenario on an already-built system.
///
/// Spawns `cfg.workers` worker processes (odd-indexed ones migrate to
/// the Arm kernel on migrating designs), shards the store across them,
/// pre-populates every key, opens `cfg.connections` multiplexed
/// streams, then drives the generated schedule through the event-driven
/// timeline described in the module docs.
///
/// # Errors
///
/// OS errors from setup or the shards' memory traffic.
pub fn run_serve(sys: &mut TargetSystem, cfg: &ServeConfig) -> Result<ServeResult, OsError> {
    let schedule = generate_schedule(cfg);
    let sched_fp = schedule_fingerprint(&schedule);
    let payload = vec![0xabu8; cfg.payload_len as usize];

    // Workers: spawn on x86, spread odd indices to Arm when the design
    // migrates (Vanilla keeps everything on the origin kernel but still
    // pays the messaging costs, mirroring `run_kv`).
    let workers: Vec<Pid> =
        (0..cfg.workers.max(1)).map(|_| sys.spawn(DomainId::X86)).collect::<Result<_, _>>()?;
    if sys.kind().migrates() {
        for (i, &pid) in workers.iter().enumerate() {
            if i % 2 == 1 {
                sys.migrate(pid, DomainId::ARM)?;
            }
        }
    }
    // Heap: every key lives once in its shard (SETs overwrite in
    // place), plus slack for hash-collision chains.
    let keys_per_shard = cfg.keyspace / workers.len() as u64 + 2;
    let heap = (keys_per_shard + 64) * (ENTRY_HEADER + u64::from(cfg.payload_len) + 64);
    let mut store = ShardedKv::setup(sys, &workers, heap)?;

    // Pre-populate the full keyspace so reads hit and writes overwrite
    // (steady-state serving, not cold start). Untimed: before the
    // measured window.
    for rank in 0..cfg.keyspace {
        store.process(sys, &workers, KvOp::Set, key_of(rank), &payload)?;
    }

    // Logical connections, all initiated by the client-side kernel.
    let client = DomainId::X86;
    let streams: Vec<StreamId> = (0..cfg.connections.max(1))
        .map(|_| sys.base_mut().msg.open_stream(client, cfg.window.max(1)))
        .collect();

    // Event-driven drive. Per-worker availability and per-connection
    // in-flight completions live on the virtual timeline; the costs
    // composing it are measured live from the simulated clocks.
    //
    // Client receives are *deferred*: a response is complete (for
    // latency purposes) when the server's send lands it in the
    // client-side ring; the client drains it — paying the wire receive
    // and returning the stream credit — when it next touches that
    // connection. That keeps the mux's in-flight accounting equal to
    // the number of virtually-outstanding requests, so window
    // exhaustion and its stall counter fire exactly when the timeline
    // says the connection is full.
    let mut free_at = vec![0u64; workers.len()];
    let mut inflight: Vec<BinaryHeap<Reverse<(u64, u32)>>> = vec![BinaryHeap::new(); streams.len()];
    let mut latency_h = LatencyHistogram::new();
    let mut queue_h = LatencyHistogram::new();
    let mut busy = 0u64;
    let mut last_completion = 0u64;
    let first_arrival = schedule.first().map_or(0, |r| r.arrival);
    let mut fingerprint = 0xcbf2_9ce4_8422_2325u64;

    // Client drains one landed response: wire receive + credit return.
    fn drain_response(sys: &mut TargetSystem, sid: StreamId, client: DomainId, resp_len: u32) {
        let base = sys.base_mut();
        let c = {
            let (msg, mem) = (&mut base.msg, &mut base.mem);
            msg.stream_consume(mem, sid, Message { ty: MsgType::KvResponse, payload: resp_len })
                .expect("stream is open")
        };
        base.charge(client, c);
    }

    for req in &schedule {
        let conn = req.conn as usize;
        let sid = streams[conn];
        let shard = store.shard_of(req.key_hash);
        let worker = workers[shard];
        let server = sys.current_domain(worker)?;
        let op = if req.write { KvOp::Set } else { KvOp::Get };

        // Drain responses that landed before this arrival.
        while let Some(&Reverse((done, len))) = inflight[conn].peek() {
            if done > req.arrival {
                break;
            }
            inflight[conn].pop();
            drain_response(sys, sid, client, len);
        }

        // Flow control: a full window defers the send until the
        // earliest outstanding response on this connection lands. The
        // mux counts the stall; the virtual send time moves past the
        // completion that freed the credit.
        let mut send_time = req.arrival;
        let wire_req = Message { ty: MsgType::KvRequest, payload: cfg.payload_len };
        let send_c = loop {
            let attempt = {
                let base = sys.base_mut();
                let (msg, mem, ipi) = (&mut base.msg, &mut base.mem, &mut base.ipi);
                msg.stream_request(mem, ipi, sid, wire_req)
            };
            match attempt {
                Ok(c) => break c,
                Err(_) => {
                    let Reverse((done, len)) = inflight[conn]
                        .pop()
                        .expect("window full implies an outstanding completion");
                    drain_response(sys, sid, client, len);
                    send_time = send_time.max(done);
                }
            }
        };
        sys.base_mut().charge(client, send_c);

        // Server side: receive + process + respond, measured as the
        // server domain's clock delta so DSM faults, cache misses and
        // ring reads all count as service time.
        let ring_at = send_time + send_c.raw();
        let begin = ring_at.max(free_at[shard]);
        let served_from = sys.base().timebase.clock(server).cycles().raw();
        {
            let base = sys.base_mut();
            let c = {
                let (msg, mem) = (&mut base.msg, &mut base.mem);
                msg.stream_serve_receive(mem, sid, server, wire_req).expect("stream is open")
            };
            base.charge(server, c);
        }
        let (_, resp_len) = store.process(sys, &workers, op, req.key_hash, &payload)?;
        let wire_resp = Message { ty: MsgType::KvResponse, payload: resp_len };
        let resp_send_c = {
            let base = sys.base_mut();
            let (msg, mem, ipi) = (&mut base.msg, &mut base.mem, &mut base.ipi);
            msg.stream_respond(mem, ipi, sid, server, wire_resp).expect("stream is open")
        };
        sys.base_mut().charge(server, resp_send_c);
        let service = sys.base().timebase.clock(server).cycles().raw() - served_from;

        // Complete when the server's response send lands in the
        // client-side ring (`service` includes that send). The client's
        // own drain cost is real CPU time but does not extend the
        // request's wire latency.
        let completion = begin + service;
        free_at[shard] = begin + service;
        busy += service;
        inflight[conn].push(Reverse((completion, resp_len)));
        last_completion = last_completion.max(completion);

        let latency = completion - req.arrival;
        let wait = begin - ring_at;
        latency_h.observe(Cycles::new(latency));
        queue_h.observe(Cycles::new(wait));
        {
            let base = sys.base();
            base.observe(HIST_KVSERVE_REQUEST, Cycles::new(latency));
            base.observe(HIST_KVSERVE_QUEUE, Cycles::new(wait));
        }
        for b in resp_len.to_le_bytes().into_iter().chain(latency.to_le_bytes()) {
            fingerprint = fnv(fingerprint, b);
        }
    }

    // Drain every still-outstanding response so the wire and credit
    // accounting balance before the streams close.
    for (conn, heap) in inflight.iter_mut().enumerate() {
        while let Some(Reverse((_, len))) = heap.pop() {
            drain_response(sys, streams[conn], client, len);
        }
    }
    let window_stalls = streams
        .iter()
        .filter_map(|&s| sys.base().msg.stream_stats(s))
        .map(|st| st.window_stalls)
        .sum();
    for &s in &streams {
        sys.base_mut().msg.close_stream(s);
    }

    let makespan = last_completion.saturating_sub(first_arrival).max(1);
    Ok(ServeResult {
        offered_load: cfg.offered_load,
        completed: schedule.len() as u64,
        makespan: Cycles::new(makespan),
        throughput: schedule.len() as f64 * 1.0e6 / makespan as f64,
        latency: latency_h,
        queue: queue_h,
        busy: Cycles::new(busy),
        window_stalls,
        fingerprint,
        schedule_fingerprint: sched_fp,
    })
}

/// Builds a fresh system per offered-load point and runs the scenario,
/// returning one [`ServeResult`] per load — the throughput-vs-load and
/// p50/p99-vs-load curve for one (kind, model) pair.
///
/// # Errors
///
/// Build or OS errors.
pub fn run_serve_curve(
    kind: crate::target::SystemKind,
    model: stramash_sim::HardwareModel,
    base_cfg: &ServeConfig,
    loads: &[f64],
) -> Result<Vec<ServeResult>, OsError> {
    let mut out = Vec::with_capacity(loads.len());
    for &load in loads {
        let cfg = ServeConfig { offered_load: load, ..*base_cfg };
        let mut sys = TargetSystem::build(kind, model)?;
        out.push(run_serve(&mut sys, &cfg)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::target::SystemKind;
    use stramash_sim::HardwareModel;

    #[test]
    fn det_ln_and_exp_match_libm_closely() {
        for x in [1e-6, 0.5, 1.0, 2.0, core::f64::consts::E, 1000.0, 1e12] {
            let got = det_ln(x);
            let want = x.ln();
            assert!((got - want).abs() <= want.abs().max(1.0) * 1e-14, "ln({x}): {got} vs {want}");
        }
        for x in [-20.0, -1.0, 0.0, 0.5, 1.0, 10.0, 100.0] {
            let got = det_exp(x);
            let want = x.exp();
            assert!(((got - want) / want).abs() < 1e-13, "exp({x}): {got} vs {want}");
        }
    }

    #[test]
    fn schedule_is_seeded_poisson_zipf() {
        let cfg = ServeConfig { requests: 5000, ..ServeConfig::default() };
        let a = generate_schedule(&cfg);
        let b = generate_schedule(&cfg);
        assert_eq!(a, b, "same seed must be byte-identical");
        assert_eq!(schedule_fingerprint(&a), schedule_fingerprint(&b));
        let other = generate_schedule(&ServeConfig { seed: 1, ..cfg });
        assert_ne!(schedule_fingerprint(&a), schedule_fingerprint(&other));

        // Arrivals are nondecreasing and the mean gap tracks the
        // offered load (10 req/Mcycle ⇒ ~100k-cycle gaps).
        assert!(a.windows(2).all(|w| w[0].arrival <= w[1].arrival));
        let span = a.last().unwrap().arrival - a[0].arrival;
        let mean_gap = span as f64 / (a.len() - 1) as f64;
        assert!(
            (60_000.0..140_000.0).contains(&mean_gap),
            "mean inter-arrival {mean_gap} should be ≈ 100_000"
        );

        // Zipf skew: the most popular key hash dominates a uniform
        // share by an order of magnitude.
        let mut counts = std::collections::BTreeMap::new();
        for r in &a {
            *counts.entry(r.key_hash).or_insert(0u64) += 1;
        }
        let top = counts.values().max().copied().unwrap();
        let uniform = cfg.requests / cfg.keyspace;
        assert!(top > uniform * 10, "top key {top} vs uniform {uniform}");

        // Read/write mix within sampling noise of 90/10.
        let writes = a.iter().filter(|r| r.write).count();
        let frac = writes as f64 / a.len() as f64;
        assert!((0.06..0.14).contains(&frac), "write fraction {frac}");
    }

    #[test]
    fn serve_smoke_fused_beats_tcp_tails() {
        let cfg = ServeConfig {
            workers: 2,
            connections: 8,
            window: 4,
            requests: 300,
            offered_load: 5.0,
            keyspace: 100,
            ..ServeConfig::default()
        };
        let mut fused = TargetSystem::build(SystemKind::Stramash, HardwareModel::Shared).unwrap();
        let f = run_serve(&mut fused, &cfg).unwrap();
        let mut tcp = TargetSystem::build(SystemKind::PopcornTcp, HardwareModel::Shared).unwrap();
        let t = run_serve(&mut tcp, &cfg).unwrap();
        assert_eq!(f.completed, 300);
        assert_eq!(
            f.schedule_fingerprint, t.schedule_fingerprint,
            "the schedule must not depend on the system kind"
        );
        assert!(f.p99() < t.p99(), "fused p99 {} should beat TCP p99 {}", f.p99(), t.p99());
        assert!(f.throughput > 0.0 && t.throughput > 0.0);
        assert!(fused.audit().is_empty(), "{:?}", fused.audit());
    }

    #[test]
    fn serve_saturates_under_overload() {
        // Throughput must flatten (and p99 explode) once the offered
        // load exceeds capacity — the open-loop signature.
        let cfg = ServeConfig {
            workers: 2,
            connections: 8,
            window: 4,
            requests: 400,
            keyspace: 100,
            ..ServeConfig::default()
        };
        let loads = [1.0, 2000.0];
        let curve =
            run_serve_curve(SystemKind::PopcornTcp, HardwareModel::Shared, &cfg, &loads).unwrap();
        let light = &curve[0];
        let heavy = &curve[1];
        // At 1 req/Mcycle TCP keeps up: achieved ≈ offered.
        assert!(
            (light.throughput - light.offered_load).abs() / light.offered_load < 0.25,
            "light load achieved {} vs offered {}",
            light.throughput,
            light.offered_load
        );
        // At 2000 req/Mcycle it cannot: achieved ≪ offered, queueing
        // dominates latency.
        assert!(
            heavy.throughput < heavy.offered_load * 0.5,
            "overload achieved {} vs offered {}",
            heavy.throughput,
            heavy.offered_load
        );
        assert!(heavy.p99() > light.p99() * 10, "{} vs {}", heavy.p99(), light.p99());
        assert!(heavy.queue.percentile(99.0) > light.queue.percentile(99.0));
    }
}
