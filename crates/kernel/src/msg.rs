//! The inter-kernel messaging layer (§6.2, §8.2).
//!
//! Both OSes communicate through "one or more pairs of shared memory
//! ring buffers per kernel pair": a send writes the message into the
//! receiver's ring *through the simulated memory system* (so ring
//! placement interacts with the hardware model exactly as in §8.2), then
//! notifies the receiver with a cross-ISA IPI — or lets it poll.
//!
//! The Popcorn-TCP baseline instead charges the measured 75 µs
//! round-trip per message exchange (§8.2), independent of the hardware
//! model.

use std::collections::BTreeMap;
use std::fmt;
use stramash_mem::{MemorySystem, PhysAddr};
use stramash_sim::ipi::{IpiFabric, NotifyMode};
use stramash_sim::trace::TraceEvent;
use stramash_sim::{Cycles, DomainId, FaultKind, SharedFaultInjector, SharedTracer};

/// Retransmission cap per logical message. With sane fault plans the
/// probability of this many consecutive losses is negligible; the cap
/// keeps adversarial plans (drop = 1.0) from hanging the simulation —
/// the final attempt is delivered and counted as `fatal`.
const MAX_SEND_ATTEMPTS: u32 = 16;

/// Exponent cap for the retransmission backoff (base × 2^min(n, 3)).
const BACKOFF_CAP: u32 = 3;

/// Errors from the messaging layer's configuration and flow control.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MsgError {
    /// The ring length was zero.
    ZeroRing,
    /// The ring cannot hold even one maximum-size message.
    RingTooSmall {
        /// The configured ring length.
        ring_len: u64,
        /// The minimum length (header + one 4 KiB page).
        min: u64,
    },
    /// The message (header + payload) does not fit the ring in one
    /// piece. The length arithmetic is done in `u64`, so an adversarial
    /// payload near `u32::MAX` is reported here instead of silently
    /// wrapping the byte count.
    Oversized {
        /// Header + payload bytes requested.
        bytes: u64,
        /// The largest message the ring can carry.
        max: u64,
    },
    /// A stream operation named a stream that was never opened (or was
    /// closed).
    UnknownStream {
        /// The offending stream id.
        id: u32,
    },
    /// A request send on a stream whose credit window is exhausted: the
    /// initiator already has `window` unanswered requests in flight and
    /// must wait for a response before issuing another.
    StreamWindowFull {
        /// The stream id.
        id: u32,
        /// The configured credit window.
        window: u32,
    },
}

impl fmt::Display for MsgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MsgError::ZeroRing => write!(f, "message ring length must be positive"),
            MsgError::RingTooSmall { ring_len, min } => {
                write!(f, "message ring of {ring_len} B cannot hold one {min} B message")
            }
            MsgError::Oversized { bytes, max } => {
                write!(f, "{bytes} B message exceeds the {max} B ring capacity")
            }
            MsgError::UnknownStream { id } => {
                write!(f, "stream {id} is not open")
            }
            MsgError::StreamWindowFull { id, window } => {
                write!(f, "stream {id} has all {window} window credits in flight")
            }
        }
    }
}

impl std::error::Error for MsgError {}

/// Message kinds exchanged by the OS protocols.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MsgType {
    /// DSM page fetch request (Popcorn).
    PageRequest,
    /// DSM page contents response (Popcorn).
    PageResponse,
    /// DSM invalidation of a replicated page (Popcorn).
    PageInvalidate,
    /// Remote VMA lookup request (Popcorn).
    VmaRequest,
    /// Remote VMA lookup response (Popcorn).
    VmaResponse,
    /// Futex operation forwarded to the origin kernel (Popcorn).
    FutexRequest,
    /// Futex operation acknowledgement (Popcorn).
    FutexResponse,
    /// Wake notification for a remote waiter.
    FutexWake,
    /// Thread migration request carrying the register state.
    MigrationRequest,
    /// Migration acknowledgement.
    MigrationResponse,
    /// Origin-handled fault in Stramash (missing upper-level table,
    /// §9.2.3).
    OriginFaultRequest,
    /// Response to an origin-handled fault.
    OriginFaultResponse,
    /// Network-service request (the Figure 14 KV store).
    KvRequest,
    /// Network-service response.
    KvResponse,
    /// Watchdog liveness beacon. Only sent when the watchdog is armed,
    /// so fault-free runs without one stay byte- and cycle-identical.
    Heartbeat,
}

impl MsgType {
    /// Short static name (used by trace events and reports).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            MsgType::PageRequest => "PageRequest",
            MsgType::PageResponse => "PageResponse",
            MsgType::PageInvalidate => "PageInvalidate",
            MsgType::VmaRequest => "VmaRequest",
            MsgType::VmaResponse => "VmaResponse",
            MsgType::FutexRequest => "FutexRequest",
            MsgType::FutexResponse => "FutexResponse",
            MsgType::FutexWake => "FutexWake",
            MsgType::MigrationRequest => "MigrationRequest",
            MsgType::MigrationResponse => "MigrationResponse",
            MsgType::OriginFaultRequest => "OriginFaultRequest",
            MsgType::OriginFaultResponse => "OriginFaultResponse",
            MsgType::KvRequest => "KvRequest",
            MsgType::KvResponse => "KvResponse",
            MsgType::Heartbeat => "Heartbeat",
        }
    }

    /// All message kinds (for counter reports).
    pub const ALL: [MsgType; 15] = [
        MsgType::PageRequest,
        MsgType::PageResponse,
        MsgType::PageInvalidate,
        MsgType::VmaRequest,
        MsgType::VmaResponse,
        MsgType::FutexRequest,
        MsgType::FutexResponse,
        MsgType::FutexWake,
        MsgType::MigrationRequest,
        MsgType::MigrationResponse,
        MsgType::OriginFaultRequest,
        MsgType::OriginFaultResponse,
        MsgType::KvRequest,
        MsgType::KvResponse,
        MsgType::Heartbeat,
    ];
}

impl fmt::Display for MsgType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// One message: a kind plus a payload size (contents are modelled by the
/// bytes written into the ring).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Message {
    /// Protocol kind.
    pub ty: MsgType,
    /// Payload bytes (header excluded).
    pub payload: u32,
}

impl Message {
    /// A header-only control message.
    #[must_use]
    pub fn control(ty: MsgType) -> Self {
        Message { ty, payload: 0 }
    }

    /// A message carrying one 4 KiB page (DSM replication).
    #[must_use]
    pub fn page(ty: MsgType) -> Self {
        Message { ty, payload: 4096 }
    }
}

/// Fixed per-message header bytes written to the ring.
pub const MSG_HEADER_BYTES: u32 = 64;

/// How messages travel (§8.2's two Popcorn baselines; Stramash always
/// uses Shm).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// Shared-memory ring buffers + IPI (or polling).
    Shm {
        /// Interrupt or polling delivery.
        notify: NotifyMode,
    },
    /// TCP/IP over the NIC: a flat measured round-trip per exchange.
    Tcp,
}

/// Per-direction message counters (Table 3 reports these; the fault
/// harness adds the reliability counters).
#[derive(Debug, Clone, Default)]
pub struct MsgCounters {
    sent: [u64; 2],
    bytes: [u64; 2],
    by_type: BTreeMap<MsgType, u64>,
    retransmits: [u64; 2],
    timeouts: [u64; 2],
    dup_delivered: [u64; 2],
    backpressure_stalls: [u64; 2],
}

impl MsgCounters {
    /// Messages sent by `domain`.
    #[must_use]
    pub fn sent_by(&self, domain: DomainId) -> u64 {
        self.sent[domain.index()]
    }

    /// Total messages in both directions. Counts *logical* messages: a
    /// message retransmitted five times is still one send.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.sent.iter().sum()
    }

    /// Total payload+header bytes (logical, excluding retransmissions).
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.bytes.iter().sum()
    }

    /// Messages of one kind.
    #[must_use]
    pub fn of_type(&self, ty: MsgType) -> u64 {
        self.by_type.get(&ty).copied().unwrap_or(0)
    }

    /// Retransmissions performed by `domain` after a timeout.
    #[must_use]
    pub fn retransmits_by(&self, domain: DomainId) -> u64 {
        self.retransmits[domain.index()]
    }

    /// Total retransmissions in both directions.
    #[must_use]
    pub fn retransmits(&self) -> u64 {
        self.retransmits.iter().sum()
    }

    /// Ack timeouts `domain` waited out (each is followed by a
    /// retransmission charged real simulated cycles).
    #[must_use]
    pub fn timeouts_by(&self, domain: DomainId) -> u64 {
        self.timeouts[domain.index()]
    }

    /// Total ack timeouts in both directions.
    #[must_use]
    pub fn timeouts(&self) -> u64 {
        self.timeouts.iter().sum()
    }

    /// Duplicate deliveries `domain` received and discarded by sequence
    /// number (the sender's ack was lost, so it retransmitted).
    #[must_use]
    pub fn dup_delivered_to(&self, domain: DomainId) -> u64 {
        self.dup_delivered[domain.index()]
    }

    /// Total duplicate deliveries (both receivers).
    #[must_use]
    pub fn dup_delivered(&self) -> u64 {
        self.dup_delivered.iter().sum()
    }

    /// Times `domain`'s sends found the peer ring full and had to stall
    /// for the receiver to drain it (ring-overflow backpressure).
    #[must_use]
    pub fn backpressure_stalls_by(&self, domain: DomainId) -> u64 {
        self.backpressure_stalls[domain.index()]
    }

    /// Total backpressure stalls in both directions.
    #[must_use]
    pub fn backpressure_stalls(&self) -> u64 {
        self.backpressure_stalls.iter().sum()
    }

    /// Resets all counters.
    pub fn reset(&mut self) {
        *self = MsgCounters::default();
    }
}

/// Identifier of one multiplexed logical connection over the shared
/// kernel-pair rings (see [`MessagingLayer::open_stream`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StreamId(pub u32);

impl fmt::Display for StreamId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "stream#{}", self.0)
    }
}

/// Per-stream bookkeeping. Streams are *logical* connections — every
/// byte still travels through the two physical rings (or the TCP RTT
/// model) and is charged there; the mux adds request/response credit
/// flow control and per-connection accounting on top, without touching
/// the wire model. Stream state is run-scoped (reset by checkpoint
/// restore and quarantine) and never feeds back into simulated timing
/// except through the explicit window check in
/// [`MessagingLayer::stream_send`].
#[derive(Debug, Clone)]
struct StreamState {
    /// The domain that opened the connection (requests flow
    /// initiator → peer, responses peer → initiator).
    initiator: DomainId,
    /// Max unanswered requests the initiator may have outstanding.
    window: u32,
    /// Requests sent but not yet answered.
    in_flight: u32,
    /// Logical messages sent in each direction [initiator, peer].
    sent: [u64; 2],
    /// Wire bytes (header + payload) in each direction.
    bytes: [u64; 2],
    /// Request sends refused because the window was exhausted.
    window_stalls: u64,
}

/// Read-only snapshot of one stream's accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamStats {
    /// The domain that opened the connection.
    pub initiator: DomainId,
    /// Configured credit window.
    pub window: u32,
    /// Requests currently unanswered.
    pub in_flight: u32,
    /// Requests the initiator has sent.
    pub requests: u64,
    /// Responses the peer has sent back.
    pub responses: u64,
    /// Total wire bytes both ways.
    pub bytes: u64,
    /// Request sends refused on a full window.
    pub window_stalls: u64,
}

/// The messaging layer of a kernel pair.
///
/// # Examples
///
/// ```
/// use stramash_kernel::msg::{Message, MessagingLayer, MsgType, Transport};
/// use stramash_mem::{MemorySystem, PhysAddr};
/// use stramash_sim::ipi::{IpiFabric, NotifyMode};
/// use stramash_sim::{DomainId, SimConfig};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let cfg = SimConfig::big_pair();
/// let mut ipi = IpiFabric::new(cfg.ipi_latency);
/// let mut mem = MemorySystem::new(cfg)?;
/// let pool = PhysAddr::new(4 << 30);
/// let mut msg = MessagingLayer::new(
///     Transport::Shm { notify: NotifyMode::Interrupt },
///     [pool, pool.offset(64 << 20)],
///     64 << 20,
///     stramash_sim::Cycles::new(157_500),
/// )?;
/// // A DSM page response: ring write + cross-ISA IPI, all timed.
/// let cost = msg.send(&mut mem, &mut ipi, DomainId::X86, Message::page(MsgType::PageResponse));
/// assert!(cost.raw() > 4200, "at least the 2 µs IPI");
/// assert_eq!(msg.counters().total(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct MessagingLayer {
    transport: Transport,
    /// Ring buffer base for messages *received by* each domain.
    ring_base: [PhysAddr; 2],
    ring_len: u64,
    /// Producer cursors (offsets into each ring).
    cursor: [u64; 2],
    /// Bytes written to each ring but not yet consumed by its receiver;
    /// exceeding `ring_len` is the overflow condition that triggers
    /// backpressure instead of silently overwriting unread messages.
    outstanding: [u64; 2],
    /// Per-sender sequence numbers; receivers dedup retransmissions by
    /// sequence (a retransmit after a lost ack re-delivers the same seq).
    next_seq: [u64; 2],
    tcp_rtt: Cycles,
    counters: MsgCounters,
    injector: Option<SharedFaultInjector>,
    tracer: Option<SharedTracer>,
    /// Open multiplexed connections, keyed by id. Run-scoped: not
    /// checkpointed (restore clears it) — streams carry flow-control
    /// and accounting for serving workloads, not simulated machine
    /// state.
    streams: BTreeMap<u32, StreamState>,
    /// Next stream id to hand out.
    next_stream: u32,
}

impl MessagingLayer {
    /// Creates a messaging layer.
    ///
    /// `ring_base[d]` is where messages *to* domain `d` are written —
    /// §8.2 places this 128 MB area differently per hardware model; with
    /// the Figure 4 layout, putting it at the start of the 4 GB pool
    /// reproduces all three placements at once.
    ///
    /// # Errors
    ///
    /// [`MsgError::ZeroRing`] for an empty ring, and
    /// [`MsgError::RingTooSmall`] when the ring cannot hold even one
    /// maximum-size (header + 4 KiB page) message.
    pub fn new(
        transport: Transport,
        ring_base: [PhysAddr; 2],
        ring_len: u64,
        tcp_rtt: Cycles,
    ) -> Result<Self, MsgError> {
        if ring_len == 0 {
            return Err(MsgError::ZeroRing);
        }
        let min = u64::from(MSG_HEADER_BYTES) + 4096;
        if ring_len < min {
            return Err(MsgError::RingTooSmall { ring_len, min });
        }
        Ok(MessagingLayer {
            transport,
            ring_base,
            ring_len,
            cursor: [0, 0],
            outstanding: [0, 0],
            next_seq: [0, 0],
            tcp_rtt,
            counters: MsgCounters::default(),
            injector: None,
            tracer: None,
            streams: BTreeMap::new(),
            next_stream: 0,
        })
    }

    /// The transport in use.
    #[must_use]
    pub fn transport(&self) -> Transport {
        self.transport
    }

    /// Counter snapshot.
    #[must_use]
    pub fn counters(&self) -> &MsgCounters {
        &self.counters
    }

    /// Resets the counters.
    pub fn reset_counters(&mut self) {
        self.counters.reset();
    }

    /// Installs a fault injector; subsequent sends may be dropped,
    /// corrupted or delayed and recover via timeout + retransmission.
    /// Without an injector the layer consumes zero RNG and charges the
    /// exact fault-free costs.
    pub fn set_fault_injector(&mut self, injector: SharedFaultInjector) {
        self.injector = Some(injector);
    }

    /// Installs the shared event tracer; sends, receives, retransmits
    /// and backpressure stalls are mirrored into it from then on.
    pub fn set_tracer(&mut self, tracer: SharedTracer) {
        self.tracer = Some(tracer);
    }

    /// Records one event into the tracer, if installed.
    #[inline]
    fn emit(&self, event: TraceEvent) {
        if let Some(t) = &self.tracer {
            t.borrow_mut().record(event);
        }
    }

    /// The largest message (header + payload) the rings carry in one
    /// piece.
    #[must_use]
    pub fn max_message_bytes(&self) -> u64 {
        self.ring_len
    }

    /// Validates that `msg` fits the ring in one piece.
    ///
    /// # Errors
    ///
    /// [`MsgError::Oversized`] when it does not. The send path also
    /// clamps internally, so skipping this check degrades gracefully
    /// instead of corrupting the cursor arithmetic.
    pub fn check_fits(&self, msg: Message) -> Result<(), MsgError> {
        let bytes = u64::from(MSG_HEADER_BYTES) + u64::from(msg.payload);
        if bytes > self.ring_len {
            return Err(MsgError::Oversized { bytes, max: self.ring_len });
        }
        Ok(())
    }

    /// Opens a multiplexed logical connection initiated by `initiator`
    /// with a credit window of `window` unanswered requests (minimum 1).
    ///
    /// Streams let a serving workload carry thousands of client
    /// connections over the one physical ring pair: each stream gets
    /// request/response flow control and its own accounting, while the
    /// wire costs stay exactly those of [`MessagingLayer::send`] /
    /// [`MessagingLayer::receive`] — opening a stream consumes no
    /// simulated cycles and no RNG.
    pub fn open_stream(&mut self, initiator: DomainId, window: u32) -> StreamId {
        let id = self.next_stream;
        self.next_stream += 1;
        self.streams.insert(
            id,
            StreamState {
                initiator,
                window: window.max(1),
                in_flight: 0,
                sent: [0, 0],
                bytes: [0, 0],
                window_stalls: 0,
            },
        );
        StreamId(id)
    }

    /// Closes a stream, returning its final accounting (`None` if it
    /// was never open).
    pub fn close_stream(&mut self, id: StreamId) -> Option<StreamStats> {
        let stats = self.stream_stats(id);
        self.streams.remove(&id.0);
        stats
    }

    /// Number of currently open streams.
    #[must_use]
    pub fn streams_open(&self) -> usize {
        self.streams.len()
    }

    /// Accounting snapshot for one stream.
    #[must_use]
    pub fn stream_stats(&self, id: StreamId) -> Option<StreamStats> {
        self.streams.get(&id.0).map(|s| StreamStats {
            initiator: s.initiator,
            window: s.window,
            in_flight: s.in_flight,
            requests: s.sent[0],
            responses: s.sent[1],
            bytes: s.bytes[0] + s.bytes[1],
            window_stalls: s.window_stalls,
        })
    }

    /// Sends a *request* on a stream from its initiator, consuming one
    /// window credit. The wire behavior (ring write + IPI or TCP RTT,
    /// backpressure, fault retransmission) is exactly
    /// [`MessagingLayer::send`]. Roles are explicit — request vs
    /// response is a property of the call, never inferred from domains,
    /// because non-migrating designs legitimately serve from the same
    /// domain the client lives on.
    ///
    /// # Errors
    ///
    /// [`MsgError::UnknownStream`] for a closed/unopened stream;
    /// [`MsgError::StreamWindowFull`] when the credit window is
    /// exhausted — the stall is counted in [`StreamStats`] and the
    /// caller decides how to back off (open-loop generators keep
    /// queueing, closed-loop clients block).
    pub fn stream_request(
        &mut self,
        mem: &mut MemorySystem,
        ipi: &mut IpiFabric,
        id: StreamId,
        msg: Message,
    ) -> Result<Cycles, MsgError> {
        let s = self.streams.get_mut(&id.0).ok_or(MsgError::UnknownStream { id: id.0 })?;
        if s.in_flight >= s.window {
            s.window_stalls += 1;
            return Err(MsgError::StreamWindowFull { id: id.0, window: s.window });
        }
        s.in_flight += 1;
        s.sent[0] += 1;
        s.bytes[0] += u64::from(MSG_HEADER_BYTES) + u64::from(msg.payload);
        let from = s.initiator;
        Ok(self.send(mem, ipi, from, msg))
    }

    /// Responder-side receive of a request addressed to `to` (the
    /// domain currently serving this stream). Wire behavior is exactly
    /// [`MessagingLayer::receive`]; no credit changes hands.
    ///
    /// # Errors
    ///
    /// [`MsgError::UnknownStream`] for a closed/unopened stream.
    pub fn stream_serve_receive(
        &mut self,
        mem: &mut MemorySystem,
        id: StreamId,
        to: DomainId,
        msg: Message,
    ) -> Result<Cycles, MsgError> {
        if !self.streams.contains_key(&id.0) {
            return Err(MsgError::UnknownStream { id: id.0 });
        }
        Ok(self.receive(mem, to, msg))
    }

    /// Sends a *response* on a stream from the responder's domain
    /// (`from` — explicit because shard workers live on either kernel).
    ///
    /// # Errors
    ///
    /// [`MsgError::UnknownStream`] for a closed/unopened stream.
    pub fn stream_respond(
        &mut self,
        mem: &mut MemorySystem,
        ipi: &mut IpiFabric,
        id: StreamId,
        from: DomainId,
        msg: Message,
    ) -> Result<Cycles, MsgError> {
        let s = self.streams.get_mut(&id.0).ok_or(MsgError::UnknownStream { id: id.0 })?;
        s.sent[1] += 1;
        s.bytes[1] += u64::from(MSG_HEADER_BYTES) + u64::from(msg.payload);
        Ok(self.send(mem, ipi, from, msg))
    }

    /// Initiator-side receive of a response, returning its window
    /// credit. Wire behavior is exactly [`MessagingLayer::receive`]
    /// addressed to the initiator's domain.
    ///
    /// # Errors
    ///
    /// [`MsgError::UnknownStream`] for a closed/unopened stream.
    pub fn stream_consume(
        &mut self,
        mem: &mut MemorySystem,
        id: StreamId,
        msg: Message,
    ) -> Result<Cycles, MsgError> {
        let s = self.streams.get_mut(&id.0).ok_or(MsgError::UnknownStream { id: id.0 })?;
        s.in_flight = s.in_flight.saturating_sub(1);
        let to = s.initiator;
        Ok(self.receive(mem, to, msg))
    }

    /// Checks the layer's internal invariants, returning one line per
    /// violation (empty = clean). Run by the system auditors after every
    /// fault-injection round.
    #[must_use]
    pub fn audit(&self) -> Vec<String> {
        let mut violations = Vec::new();
        for d in DomainId::ALL {
            let i = d.index();
            if self.cursor[i] > self.ring_len {
                violations.push(format!(
                    "ring cursor for {d:?} at {} exceeds ring length {}",
                    self.cursor[i], self.ring_len
                ));
            }
            if self.outstanding[i] > self.ring_len {
                violations.push(format!(
                    "outstanding bytes for {d:?} at {} exceed ring length {} (overflow)",
                    self.outstanding[i], self.ring_len
                ));
            }
        }
        for (&id, s) in &self.streams {
            if s.in_flight > s.window {
                violations.push(format!(
                    "stream {id} has {} requests in flight over its window of {}",
                    s.in_flight, s.window
                ));
            }
            if s.sent[1] > s.sent[0] {
                violations.push(format!(
                    "stream {id} recorded {} responses for only {} requests",
                    s.sent[1], s.sent[0]
                ));
            }
        }
        violations
    }

    /// The capped exponential retransmission timeout for attempt `n`
    /// (1-based): `base × 2^min(n−1, 3)`, saturating — an adversarially
    /// large base must clamp rather than silently wrap the shift.
    fn backoff(base: Cycles, attempt: u32) -> Cycles {
        let exp = attempt.saturating_sub(1).min(BACKOFF_CAP);
        Cycles::new(base.raw().saturating_mul(1u64 << exp))
    }

    /// Sends `msg` from `from` to the other domain, returning the cost
    /// charged to the *sender*.
    ///
    /// Reliability is built in: each message carries a sequence number
    /// and is acknowledged by the receiver. If an injected fault drops or
    /// corrupts the transmission (or its ack), the sender waits out a
    /// capped-exponential timeout and retransmits — every retry pays the
    /// real ring-write (or TCP half-RTT) cost again, the receiver dedups
    /// re-deliveries by sequence number, and all of it lands in
    /// [`MsgCounters`] and the per-domain fault statistics. With no
    /// injector installed the fast path is byte- and cycle-identical to
    /// the fault-free model.
    pub fn send(
        &mut self,
        mem: &mut MemorySystem,
        ipi: &mut IpiFabric,
        from: DomainId,
        msg: Message,
    ) -> Cycles {
        let to = from.other();
        // Length arithmetic is u64 end to end: `MSG_HEADER_BYTES +
        // payload` as u32 would wrap for payloads near `u32::MAX`. The
        // on-wire size is additionally clamped to one ring's worth so an
        // oversized message (rejected by `check_fits`) degrades to a
        // bounded write instead of breaking the cursor invariants.
        let total = u64::from(MSG_HEADER_BYTES) + u64::from(msg.payload);
        let wire = total.min(self.ring_len);
        self.counters.sent[from.index()] += 1;
        self.counters.bytes[from.index()] += total;
        *self.counters.by_type.entry(msg.ty).or_insert(0) += 1;
        // Sequence-number the message (modelled inside the 64 B header,
        // so it adds no bytes and no extra timed accesses).
        self.next_seq[from.index()] += 1;

        // Mirrored into the per-domain fault statistics at the end.
        let mut injected = 0u64;
        let mut retried = 0u64;
        let mut recovered = 0u64;
        let mut fatal = 0u64;

        let cycles = match self.transport {
            Transport::Shm { notify } => {
                let mut cycles = Cycles::ZERO;
                // Ring-overflow backpressure: never overwrite unread
                // messages. The sender stalls (~one notify round trip)
                // for the receiver to drain its ring, then restarts at
                // the ring base.
                if self.outstanding[to.index()] + wire > self.ring_len {
                    cycles += Cycles::new(ipi.latency().raw() * 2);
                    self.counters.backpressure_stalls[from.index()] += 1;
                    if let Some(inj) = &self.injector {
                        inj.borrow_mut().note_backpressure();
                    }
                    self.outstanding[to.index()] = 0;
                    self.cursor[to.index()] = 0;
                    self.emit(TraceEvent::MsgBackpressure { from });
                }
                let timeout_base = Cycles::new(ipi.latency().raw() * 2);
                let mut attempt = 0u32;
                loop {
                    attempt += 1;
                    if attempt > 1 {
                        self.emit(TraceEvent::MsgRetransmit { from, ty: msg.ty.name(), attempt });
                    }
                    let addr = self.slot(to, wire);
                    let payload = vec![0u8; wire_len(wire)];
                    cycles += mem.write_bytes(from, addr, &payload);
                    let fault = match &self.injector {
                        Some(inj) => inj.borrow_mut().msg_fault(),
                        None => None,
                    };
                    match fault {
                        Some(FaultKind::MsgDrop | FaultKind::MsgCorrupt)
                            if attempt < MAX_SEND_ATTEMPTS =>
                        {
                            // Lost in the channel (a corrupt message is
                            // checksum-rejected by the receiver): the ack
                            // never comes, so wait out the timeout and
                            // retransmit.
                            cycles += Self::backoff(timeout_base, attempt);
                            self.counters.timeouts[from.index()] += 1;
                            self.counters.retransmits[from.index()] += 1;
                            injected += 1;
                            retried += 1;
                            recovered += 1;
                            if let Some(inj) = &self.injector {
                                let mut inj = inj.borrow_mut();
                                inj.note_retried(1);
                                inj.note_recovered(1);
                            }
                            continue;
                        }
                        Some(FaultKind::MsgDrop | FaultKind::MsgCorrupt) => {
                            // Retransmission cap reached: deliver the
                            // final attempt but record the protocol gave
                            // up retrying (unreachable under sane plans).
                            injected += 1;
                            fatal += 1;
                            if let Some(inj) = &self.injector {
                                inj.borrow_mut().note_fatal(1);
                            }
                        }
                        Some(FaultKind::MsgDelay) => {
                            // Delivered late: pure added latency.
                            let delay = match &self.injector {
                                Some(inj) => inj.borrow().plan().msg_delay_cycles,
                                None => 0,
                            };
                            cycles += Cycles::new(delay);
                            injected += 1;
                            recovered += 1;
                            if let Some(inj) = &self.injector {
                                inj.borrow_mut().note_recovered(1);
                            }
                        }
                        _ => {}
                    }
                    // Delivered: notify the receiver. The fabric itself
                    // retries injected IPI losses; fold its retry count
                    // into this domain's fault statistics.
                    match notify {
                        NotifyMode::Interrupt => {
                            let fabric_retries = ipi.retries();
                            cycles += ipi.send(from);
                            mem.stats_mut(from).ipi += 1;
                            let lost = ipi.retries() - fabric_retries;
                            injected += lost;
                            retried += lost;
                            recovered += lost;
                        }
                        NotifyMode::Polling => {}
                    }
                    break;
                }
                // Ack leg: a delivered message whose ack is lost looks
                // like a drop to the sender — it retransmits, and the
                // receiver discards the duplicate by sequence number.
                if self.injector.is_some() {
                    let mut ack_attempt = 1u32;
                    loop {
                        let dropped = match &self.injector {
                            Some(inj) => inj.borrow_mut().ack_dropped(),
                            None => false,
                        };
                        if !dropped || ack_attempt >= MAX_SEND_ATTEMPTS {
                            break;
                        }
                        ack_attempt += 1;
                        self.emit(TraceEvent::MsgRetransmit {
                            from,
                            ty: msg.ty.name(),
                            attempt: ack_attempt,
                        });
                        cycles += Self::backoff(timeout_base, ack_attempt);
                        let addr = self.slot(to, wire);
                        let payload = vec![0u8; wire_len(wire)];
                        cycles += mem.write_bytes(from, addr, &payload);
                        if let NotifyMode::Interrupt = notify {
                            cycles += ipi.send(from);
                            mem.stats_mut(from).ipi += 1;
                        }
                        self.counters.timeouts[from.index()] += 1;
                        self.counters.retransmits[from.index()] += 1;
                        self.counters.dup_delivered[to.index()] += 1;
                        injected += 1;
                        retried += 1;
                        recovered += 1;
                        if let Some(inj) = &self.injector {
                            let mut inj = inj.borrow_mut();
                            inj.note_retried(1);
                            inj.note_recovered(1);
                        }
                    }
                }
                self.outstanding[to.index()] += wire;
                cycles
            }
            // One way is half the measured 75 µs round trip; a protocol
            // request/response pair thus costs one full RTT. A dropped
            // segment costs a full-RTT timeout plus the retransmitted
            // half-RTT.
            Transport::Tcp => {
                let mut cycles = Cycles::ZERO;
                let mut attempt = 0u32;
                loop {
                    attempt += 1;
                    if attempt > 1 {
                        self.emit(TraceEvent::MsgRetransmit { from, ty: msg.ty.name(), attempt });
                    }
                    cycles += self.tcp_rtt / 2;
                    let fault = match &self.injector {
                        Some(inj) => inj.borrow_mut().msg_fault(),
                        None => None,
                    };
                    match fault {
                        Some(FaultKind::MsgDrop | FaultKind::MsgCorrupt)
                            if attempt < MAX_SEND_ATTEMPTS =>
                        {
                            cycles += Self::backoff(self.tcp_rtt, attempt);
                            self.counters.timeouts[from.index()] += 1;
                            self.counters.retransmits[from.index()] += 1;
                            injected += 1;
                            retried += 1;
                            recovered += 1;
                            if let Some(inj) = &self.injector {
                                let mut inj = inj.borrow_mut();
                                inj.note_retried(1);
                                inj.note_recovered(1);
                            }
                            continue;
                        }
                        Some(FaultKind::MsgDrop | FaultKind::MsgCorrupt) => {
                            injected += 1;
                            fatal += 1;
                            if let Some(inj) = &self.injector {
                                inj.borrow_mut().note_fatal(1);
                            }
                        }
                        Some(FaultKind::MsgDelay) => {
                            let delay = match &self.injector {
                                Some(inj) => inj.borrow().plan().msg_delay_cycles,
                                None => 0,
                            };
                            cycles += Cycles::new(delay);
                            injected += 1;
                            recovered += 1;
                            if let Some(inj) = &self.injector {
                                inj.borrow_mut().note_recovered(1);
                            }
                        }
                        _ => {}
                    }
                    break;
                }
                cycles
            }
        };

        if injected + retried + recovered + fatal > 0 {
            let stats = mem.stats_mut(from);
            stats.faults_injected += injected;
            stats.faults_retried += retried;
            stats.faults_recovered += recovered;
            stats.faults_fatal += fatal;
        }
        self.emit(TraceEvent::MsgSend { from, ty: msg.ty.name(), bytes: total, cost: cycles });
        cycles
    }

    /// Receiver-side cost of consuming the oldest message addressed to
    /// `to` (reading it out of the ring). In polling mode the receiver
    /// additionally pays the head-word poll that discovered the message
    /// (§6.2 supports polling in place of interrupt dispatching).
    pub fn receive(&mut self, mem: &mut MemorySystem, to: DomainId, msg: Message) -> Cycles {
        let total = u64::from(MSG_HEADER_BYTES) + u64::from(msg.payload);
        let wire = total.min(self.ring_len);
        let cycles = match self.transport {
            Transport::Shm { notify } => {
                let mut cycles = Cycles::ZERO;
                if notify == NotifyMode::Polling {
                    let (_, c) = mem.read_u64(to, self.ring_base[to.index()]);
                    cycles += c;
                }
                // Consuming the message frees its ring space, releasing
                // any sender backpressure.
                self.outstanding[to.index()] = self.outstanding[to.index()].saturating_sub(wire);
                // Re-read the most recent slot of our ring.
                let addr = self.peek_slot(to, wire);
                let mut buf = vec![0u8; wire_len(wire)];
                cycles + mem.read_bytes(to, addr, &mut buf)
            }
            // Receive-side copy out of the NIC; folded into the RTT.
            Transport::Tcp => Cycles::ZERO,
        };
        self.emit(TraceEvent::MsgReceive { to, ty: msg.ty.name(), bytes: total, cost: cycles });
        cycles
    }

    /// Allocates ring space for a message to `to` and advances the
    /// cursor. The cursor only wraps once the send path has verified the
    /// ring has room (see the backpressure check in
    /// [`MessagingLayer::send`]), so wrapping never overwrites an unread
    /// message.
    fn slot(&mut self, to: DomainId, total: u64) -> PhysAddr {
        let ti = to.index();
        if self.cursor[ti] + total > self.ring_len {
            self.cursor[ti] = 0;
        }
        let addr = self.ring_base[ti].offset(self.cursor[ti]);
        self.cursor[ti] += total;
        addr
    }

    /// The slot just written for `to` (receiver reads it back).
    fn peek_slot(&self, to: DomainId, total: u64) -> PhysAddr {
        let ti = to.index();
        let start = self.cursor[ti].saturating_sub(total);
        self.ring_base[ti].offset(start)
    }

    /// Quarantines a crashed domain: drops every unconsumed message in
    /// its ring (the dead kernel will never drain them) and resets the
    /// producer cursor, so post-recovery sends to a restarted kernel
    /// start from a clean ring. Returns the number of in-flight bytes
    /// discarded.
    pub fn quarantine(&mut self, dead: DomainId) -> u64 {
        let di = dead.index();
        let dropped = self.outstanding[di];
        self.outstanding[di] = 0;
        self.cursor[di] = 0;
        // In-flight requests on every stream died with the rings; the
        // accounting survives for post-mortem, but credits come back so
        // a recovered peer can serve again.
        for s in self.streams.values_mut() {
            s.in_flight = 0;
        }
        dropped
    }

    /// Serializes the layer's mutable state (cursors, outstanding
    /// bytes, sequence numbers, counters) into a checkpoint section.
    /// Transport, ring placement and RTT are config-derived; only the
    /// ring length is written, as a geometry cross-check.
    pub fn save_state(&self, e: &mut stramash_sim::checkpoint::Encoder) {
        e.tag(0x4d53_474c); // "MSGL"
        e.u64(self.ring_len);
        e.u64s(&self.cursor);
        e.u64s(&self.outstanding);
        e.u64s(&self.next_seq);
        e.u64s(&self.counters.sent);
        e.u64s(&self.counters.bytes);
        e.u64(self.counters.by_type.len() as u64);
        for (&ty, &n) in &self.counters.by_type {
            let code = MsgType::ALL.iter().position(|&t| t == ty).expect("ALL is exhaustive");
            e.u8(code as u8);
            e.u64(n);
        }
        e.u64s(&self.counters.retransmits);
        e.u64s(&self.counters.timeouts);
        e.u64s(&self.counters.dup_delivered);
        e.u64s(&self.counters.backpressure_stalls);
    }

    /// Restores state written by [`MessagingLayer::save_state`].
    ///
    /// # Errors
    ///
    /// Decoding errors; `ConfigMismatch` on a different ring length.
    pub fn load_state(
        &mut self,
        d: &mut stramash_sim::checkpoint::Decoder<'_>,
    ) -> Result<(), stramash_sim::checkpoint::CheckpointError> {
        use stramash_sim::checkpoint::CheckpointError;
        d.tag(0x4d53_474c)?;
        if d.u64()? != self.ring_len {
            return Err(CheckpointError::ConfigMismatch);
        }
        let pair = |v: Vec<u64>| -> Result<[u64; 2], CheckpointError> {
            v.try_into().map_err(|_| CheckpointError::Malformed("expected a per-domain pair"))
        };
        self.cursor = pair(d.u64s()?)?;
        self.outstanding = pair(d.u64s()?)?;
        self.next_seq = pair(d.u64s()?)?;
        self.counters.sent = pair(d.u64s()?)?;
        self.counters.bytes = pair(d.u64s()?)?;
        let n = d.len()?;
        let mut by_type = BTreeMap::new();
        for _ in 0..n {
            let code = d.u8()? as usize;
            let ty = *MsgType::ALL
                .get(code)
                .ok_or(CheckpointError::Malformed("unknown message type code"))?;
            by_type.insert(ty, d.u64()?);
        }
        self.counters.by_type = by_type;
        self.counters.retransmits = pair(d.u64s()?)?;
        self.counters.timeouts = pair(d.u64s()?)?;
        self.counters.dup_delivered = pair(d.u64s()?)?;
        self.counters.backpressure_stalls = pair(d.u64s()?)?;
        // Streams are run-scoped serving state, deliberately outside the
        // checkpoint format: a restored machine starts with no logical
        // connections, exactly like a rebooted kernel pair.
        self.streams.clear();
        self.next_stream = 0;
        Ok(())
    }
}

/// Host-side buffer length for an on-wire byte count (already clamped
/// to the ring length, which on any supported host fits `usize`).
fn wire_len(bytes: u64) -> usize {
    usize::try_from(bytes).expect("ring length exceeds the host address space")
}

#[cfg(test)]
mod tests {
    use super::*;
    use stramash_sim::{HardwareModel, SimConfig};

    const POOL: u64 = 4 << 30;

    fn setup(model: HardwareModel, transport: Transport) -> (MemorySystem, IpiFabric, MessagingLayer) {
        let cfg = SimConfig::big_pair().with_hw_model(model);
        let ipi = IpiFabric::new(cfg.ipi_latency);
        let tcp = cfg.tcp_rtt;
        let mem = MemorySystem::new(cfg).unwrap();
        let ml = MessagingLayer::new(
            transport,
            [PhysAddr::new(POOL), PhysAddr::new(POOL + (64 << 20))],
            64 << 20,
            tcp,
        )
        .unwrap();
        (mem, ipi, ml)
    }

    #[test]
    fn shm_send_charges_ring_writes_and_ipi() {
        let (mut mem, mut ipi, mut ml) = setup(
            HardwareModel::Shared,
            Transport::Shm { notify: NotifyMode::Interrupt },
        );
        let c = ml.send(&mut mem, &mut ipi, DomainId::X86, Message::control(MsgType::FutexRequest));
        // 64-byte header = 1 cache line into remote-shared memory (640)
        // plus the 2 µs IPI (4200 cycles at 2.1 GHz).
        assert_eq!(c.raw(), 640 + 4200);
        assert_eq!(ipi.delivered_to(DomainId::ARM), 1);
        assert_eq!(mem.stats(DomainId::X86).ipi, 1);
        assert_eq!(ml.counters().total(), 1);
    }

    #[test]
    fn polling_skips_ipi() {
        let (mut mem, mut ipi, mut ml) =
            setup(HardwareModel::Shared, Transport::Shm { notify: NotifyMode::Polling });
        let c = ml.send(&mut mem, &mut ipi, DomainId::X86, Message::control(MsgType::FutexRequest));
        assert_eq!(c.raw(), 640);
        assert_eq!(ipi.delivered_to(DomainId::ARM), 0);
    }

    #[test]
    fn ring_placement_feels_hardware_model() {
        // §8.2: Separated-SHM has the ring local to x86, remote to Arm.
        let (mut mem, mut ipi, mut ml) = setup(
            HardwareModel::Separated,
            Transport::Shm { notify: NotifyMode::Polling },
        );
        let from_x86 =
            ml.send(&mut mem, &mut ipi, DomainId::X86, Message::control(MsgType::PageRequest));
        mem.flush_caches();
        let from_arm =
            ml.send(&mut mem, &mut ipi, DomainId::ARM, Message::control(MsgType::PageRequest));
        assert!(from_x86 < from_arm, "x86 writes locally, Arm pays CXL: {from_x86} vs {from_arm}");
    }

    #[test]
    fn tcp_charges_half_rtt_each_way() {
        let (mut mem, mut ipi, mut ml) = setup(HardwareModel::Shared, Transport::Tcp);
        let send = ml.send(&mut mem, &mut ipi, DomainId::X86, Message::page(MsgType::PageResponse));
        let recv = ml.receive(&mut mem, DomainId::ARM, Message::page(MsgType::PageResponse));
        // 75 µs at 2.1 GHz = 157_500 cycles per round trip.
        assert_eq!(send.raw() + recv.raw(), 157_500 / 2);
    }

    #[test]
    fn receive_reads_back_what_was_sent() {
        let (mut mem, mut ipi, mut ml) = setup(
            HardwareModel::Shared,
            Transport::Shm { notify: NotifyMode::Polling },
        );
        let msg = Message::page(MsgType::PageResponse);
        ml.send(&mut mem, &mut ipi, DomainId::X86, msg);
        let c = ml.receive(&mut mem, DomainId::ARM, msg);
        // (64 + 4096) bytes = 65 lines; all were just written by the
        // peer, so the reader pays snoop-data transitions.
        assert!(c.raw() > 0);
        assert!(mem.stats(DomainId::ARM).snoop_data_hits > 0);
    }

    #[test]
    fn counters_by_type_and_bytes() {
        let (mut mem, mut ipi, mut ml) = setup(HardwareModel::Shared, Transport::Tcp);
        for _ in 0..3 {
            ml.send(&mut mem, &mut ipi, DomainId::X86, Message::control(MsgType::PageRequest));
        }
        ml.send(&mut mem, &mut ipi, DomainId::ARM, Message::page(MsgType::PageResponse));
        let c = ml.counters();
        assert_eq!(c.of_type(MsgType::PageRequest), 3);
        assert_eq!(c.of_type(MsgType::PageResponse), 1);
        assert_eq!(c.of_type(MsgType::FutexWake), 0);
        assert_eq!(c.sent_by(DomainId::X86), 3);
        assert_eq!(c.total(), 4);
        assert_eq!(c.total_bytes(), 3 * 64 + 64 + 4096);
        ml.reset_counters();
        assert_eq!(ml.counters().total(), 0);
    }

    #[test]
    fn ring_full_stalls_instead_of_silent_wrap() {
        let cfg = SimConfig::big_pair();
        let tcp = cfg.tcp_rtt;
        let mut mem = MemorySystem::new(cfg).unwrap();
        let mut ipi = IpiFabric::new(Cycles::new(10));
        // Tiny 8 KB ring: a second unconsumed page message overflows it.
        let mut ml = MessagingLayer::new(
            Transport::Shm { notify: NotifyMode::Polling },
            [PhysAddr::new(POOL), PhysAddr::new(POOL + 8192)],
            8192,
            tcp,
        )
        .unwrap();
        for _ in 0..5 {
            ml.send(&mut mem, &mut ipi, DomainId::X86, Message::page(MsgType::PageResponse));
        }
        assert_eq!(ml.counters().total(), 5);
        // Every send after the first found the ring full and stalled for
        // the receiver to drain it — no silent overwrite.
        assert_eq!(ml.counters().backpressure_stalls(), 4);
        assert_eq!(ml.counters().backpressure_stalls_by(DomainId::X86), 4);
        assert!(ml.audit().is_empty(), "cursor must stay inside the ring");
    }

    #[test]
    fn receive_drains_ring_and_avoids_backpressure() {
        let cfg = SimConfig::big_pair();
        let tcp = cfg.tcp_rtt;
        let mut mem = MemorySystem::new(cfg).unwrap();
        let mut ipi = IpiFabric::new(Cycles::new(10));
        let mut ml = MessagingLayer::new(
            Transport::Shm { notify: NotifyMode::Polling },
            [PhysAddr::new(POOL), PhysAddr::new(POOL + 8192)],
            8192,
            tcp,
        )
        .unwrap();
        let msg = Message::page(MsgType::PageResponse);
        for _ in 0..5 {
            ml.send(&mut mem, &mut ipi, DomainId::X86, msg);
            ml.receive(&mut mem, DomainId::ARM, msg);
        }
        assert_eq!(ml.counters().backpressure_stalls(), 0);
        assert!(ml.audit().is_empty());
    }

    #[test]
    fn constructor_rejects_degenerate_rings() {
        let cfg = SimConfig::big_pair();
        let mk = |len| {
            MessagingLayer::new(
                Transport::Shm { notify: NotifyMode::Polling },
                [PhysAddr::new(POOL), PhysAddr::new(POOL + 8192)],
                len,
                cfg.tcp_rtt,
            )
        };
        assert_eq!(mk(0).unwrap_err(), MsgError::ZeroRing);
        assert_eq!(mk(1024).unwrap_err(), MsgError::RingTooSmall { ring_len: 1024, min: 4160 });
        assert!(mk(4160).is_ok());
        assert!(!mk(0).unwrap_err().to_string().is_empty());
    }

    #[test]
    fn backoff_is_capped_and_saturates() {
        let base = Cycles::new(100);
        assert_eq!(MessagingLayer::backoff(base, 1), Cycles::new(100));
        assert_eq!(MessagingLayer::backoff(base, 2), Cycles::new(200));
        assert_eq!(MessagingLayer::backoff(base, 4), Cycles::new(800));
        // The exponent caps at 2^3 no matter how many attempts.
        assert_eq!(MessagingLayer::backoff(base, 50), Cycles::new(800));
        // Attempt 0 (not a real attempt number) must not underflow.
        assert_eq!(MessagingLayer::backoff(base, 0), Cycles::new(100));
        // A huge base saturates instead of wrapping the shift.
        let huge = Cycles::new(u64::MAX / 2);
        assert_eq!(MessagingLayer::backoff(huge, 16), Cycles::new(u64::MAX));
    }

    #[test]
    fn oversized_message_is_rejected_and_send_stays_bounded() {
        let cfg = SimConfig::big_pair();
        let tcp = cfg.tcp_rtt;
        let mut mem = MemorySystem::new(cfg).unwrap();
        let mut ipi = IpiFabric::new(Cycles::new(10));
        let mut ml = MessagingLayer::new(
            Transport::Shm { notify: NotifyMode::Polling },
            [PhysAddr::new(POOL), PhysAddr::new(POOL + 8192)],
            8192,
            tcp,
        )
        .unwrap();
        assert_eq!(ml.max_message_bytes(), 8192);
        assert!(ml.check_fits(Message::page(MsgType::PageResponse)).is_ok());
        // A payload at the u32 boundary: the old u32 length arithmetic
        // would wrap `64 + u32::MAX` to 63 bytes; the u64 path reports
        // the true size.
        let huge = Message { ty: MsgType::KvRequest, payload: u32::MAX };
        assert_eq!(
            ml.check_fits(huge),
            Err(MsgError::Oversized { bytes: 64 + u64::from(u32::MAX), max: 8192 })
        );
        assert!(ml.check_fits(huge).unwrap_err().to_string().contains("exceeds"));
        // An unvalidated oversized send degrades to a ring-sized write:
        // counters record the logical size, cursors stay in bounds.
        let c = ml.send(&mut mem, &mut ipi, DomainId::X86, huge);
        assert!(c.raw() > 0);
        assert_eq!(ml.counters().total(), 1);
        assert_eq!(ml.counters().total_bytes(), 64 + u64::from(u32::MAX));
        assert!(ml.audit().is_empty(), "oversized send must not corrupt the cursors");
        let r = ml.receive(&mut mem, DomainId::ARM, huge);
        assert!(r.raw() > 0);
        assert!(ml.audit().is_empty());
    }

    #[test]
    fn exact_fit_message_fills_ring_without_overflow() {
        let cfg = SimConfig::big_pair();
        let tcp = cfg.tcp_rtt;
        let mut mem = MemorySystem::new(cfg).unwrap();
        let mut ipi = IpiFabric::new(Cycles::new(10));
        let mut ml = MessagingLayer::new(
            Transport::Shm { notify: NotifyMode::Polling },
            [PhysAddr::new(POOL), PhysAddr::new(POOL + 8192)],
            8192,
            tcp,
        )
        .unwrap();
        // Exactly one ring's worth: header + (8192 - 64) payload.
        let exact = Message { ty: MsgType::KvRequest, payload: 8192 - 64 };
        assert!(ml.check_fits(exact).is_ok());
        ml.send(&mut mem, &mut ipi, DomainId::X86, exact);
        assert!(ml.audit().is_empty());
        // One byte more no longer fits.
        let over = Message { ty: MsgType::KvRequest, payload: 8192 - 63 };
        assert!(matches!(ml.check_fits(over), Err(MsgError::Oversized { bytes: 8193, max: 8192 })));
    }

    #[test]
    fn injected_drop_retransmits_and_charges_timeout() {
        use stramash_sim::{shared_injector, FaultPlan};
        let (mut mem, mut ipi, mut ml) = setup(
            HardwareModel::Shared,
            Transport::Shm { notify: NotifyMode::Interrupt },
        );
        let inj = shared_injector(FaultPlan::none().with_msg_drop(0.4), 0x5eed);
        ml.set_fault_injector(inj.clone());
        let baseline = 640 + 4200; // fault-free header send cost
        let mut total = Cycles::ZERO;
        let sends = 200u64;
        for _ in 0..sends {
            total +=
                ml.send(&mut mem, &mut ipi, DomainId::X86, Message::control(MsgType::FutexRequest));
        }
        let c = ml.counters();
        assert_eq!(c.total(), sends, "retransmits must not inflate the logical count");
        assert!(c.retransmits() > 0, "40% drop over 200 sends must retransmit");
        assert_eq!(c.retransmits(), c.timeouts());
        assert!(
            total.raw() > sends * baseline,
            "retries must cost real cycles: {total} vs {}",
            sends * baseline
        );
        let fc = inj.borrow().counters();
        assert_eq!(fc.retried, c.retransmits());
        assert_eq!(fc.recovered, fc.injected, "every drop must be recovered");
        assert_eq!(fc.fatal, 0);
        // Recoveries are visible in the per-domain stats block.
        let s = mem.stats(DomainId::X86);
        assert_eq!(s.faults_injected, fc.injected);
        assert_eq!(s.faults_recovered, fc.recovered);
        assert!(s.faults_retried > 0);
    }

    #[test]
    fn lost_ack_causes_duplicate_delivery_and_dedup() {
        use stramash_sim::{shared_injector, FaultPlan};
        let (mut mem, mut ipi, mut ml) = setup(
            HardwareModel::Shared,
            Transport::Shm { notify: NotifyMode::Polling },
        );
        let inj = shared_injector(FaultPlan::none().with_ack_drop(0.5), 0xacc);
        ml.set_fault_injector(inj);
        for _ in 0..100 {
            ml.send(&mut mem, &mut ipi, DomainId::X86, Message::control(MsgType::VmaRequest));
        }
        let c = ml.counters();
        assert!(c.dup_delivered() > 0, "lost acks must re-deliver");
        assert_eq!(c.dup_delivered_to(DomainId::ARM), c.dup_delivered());
        assert_eq!(c.retransmits(), c.dup_delivered(), "each dup is one retransmit");
        assert_eq!(c.total(), 100, "dedup keeps the logical count exact");
    }

    #[test]
    fn delay_fault_adds_latency_but_delivers() {
        use stramash_sim::{shared_injector, FaultPlan};
        let (mut mem, mut ipi, mut ml) = setup(
            HardwareModel::Shared,
            Transport::Shm { notify: NotifyMode::Interrupt },
        );
        let inj = shared_injector(FaultPlan::none().with_msg_delay(1.0, 9999), 1);
        ml.set_fault_injector(inj);
        let c = ml.send(&mut mem, &mut ipi, DomainId::X86, Message::control(MsgType::FutexWake));
        assert_eq!(c.raw(), 640 + 4200 + 9999);
        assert_eq!(ml.counters().retransmits(), 0);
        assert_eq!(mem.stats(DomainId::X86).faults_recovered, 1);
    }

    #[test]
    fn tcp_drop_retransmits_with_rtt_timeout() {
        use stramash_sim::{shared_injector, FaultPlan};
        let (mut mem, mut ipi, mut ml) = setup(HardwareModel::Shared, Transport::Tcp);
        // Drop exactly the first transmission attempt.
        let inj = shared_injector(FaultPlan::none().with_msg_drop(1.0).with_window(0, 1), 2);
        ml.set_fault_injector(inj);
        let c = ml.send(&mut mem, &mut ipi, DomainId::X86, Message::page(MsgType::PageRequest));
        // half-RTT (lost) + one-RTT timeout + half-RTT retransmit.
        assert_eq!(c.raw(), 157_500 / 2 + 157_500 + 157_500 / 2);
        assert_eq!(ml.counters().retransmits(), 1);
    }

    #[test]
    fn streams_multiplex_and_cost_like_raw_sends() {
        let (mut mem, mut ipi, mut ml) = setup(
            HardwareModel::Shared,
            Transport::Shm { notify: NotifyMode::Interrupt },
        );
        let s = ml.open_stream(DomainId::X86, 4);
        // A request on a stream charges exactly what the raw send does.
        let req = Message { ty: MsgType::KvRequest, payload: 64 };
        let on_stream = ml.stream_request(&mut mem, &mut ipi, s, req).unwrap();
        let raw = ml.send(&mut mem, &mut ipi, DomainId::X86, req);
        assert_eq!(on_stream, raw, "mux must not perturb wire costs");
        let st = ml.stream_stats(s).unwrap();
        assert_eq!(st.in_flight, 1);
        assert_eq!(st.requests, 1);
        // The server picks it up, responds, and the initiator's consume
        // returns the credit.
        ml.stream_serve_receive(&mut mem, s, DomainId::ARM, req).unwrap();
        let resp = Message { ty: MsgType::KvResponse, payload: 128 };
        ml.stream_respond(&mut mem, &mut ipi, s, DomainId::ARM, resp).unwrap();
        ml.stream_consume(&mut mem, s, resp).unwrap();
        let st = ml.stream_stats(s).unwrap();
        assert_eq!(st.in_flight, 0);
        assert_eq!(st.responses, 1);
        assert!(st.bytes > 0);
        assert!(ml.audit().is_empty());
        assert_eq!(ml.close_stream(s).unwrap().requests, 1);
        assert_eq!(ml.streams_open(), 0);
        assert!(matches!(
            ml.stream_request(&mut mem, &mut ipi, s, req),
            Err(MsgError::UnknownStream { .. })
        ));
    }

    #[test]
    fn stream_roles_are_explicit_not_domain_inferred() {
        // A non-migrating design serves from the client's own domain;
        // a response sent from that domain must still count as a
        // response, not consume a fresh request credit.
        let (mut mem, mut ipi, mut ml) = setup(
            HardwareModel::Shared,
            Transport::Shm { notify: NotifyMode::Interrupt },
        );
        let s = ml.open_stream(DomainId::X86, 1);
        let req = Message::control(MsgType::KvRequest);
        ml.stream_request(&mut mem, &mut ipi, s, req).unwrap();
        // Same-domain responder.
        ml.stream_serve_receive(&mut mem, s, DomainId::X86, req).unwrap();
        let resp = Message::control(MsgType::KvResponse);
        ml.stream_respond(&mut mem, &mut ipi, s, DomainId::X86, resp).unwrap();
        ml.stream_consume(&mut mem, s, resp).unwrap();
        let st = ml.stream_stats(s).unwrap();
        assert_eq!((st.requests, st.responses, st.in_flight), (1, 1, 0));
        assert_eq!(st.window_stalls, 0);
        assert!(ml.audit().is_empty());
    }

    #[test]
    fn stream_window_exhaustion_counts_stalls() {
        let (mut mem, mut ipi, mut ml) = setup(
            HardwareModel::Shared,
            Transport::Shm { notify: NotifyMode::Interrupt },
        );
        let s = ml.open_stream(DomainId::ARM, 2);
        let req = Message::control(MsgType::KvRequest);
        ml.stream_request(&mut mem, &mut ipi, s, req).unwrap();
        ml.stream_request(&mut mem, &mut ipi, s, req).unwrap();
        assert!(matches!(
            ml.stream_request(&mut mem, &mut ipi, s, req),
            Err(MsgError::StreamWindowFull { window: 2, .. })
        ));
        let st = ml.stream_stats(s).unwrap();
        assert_eq!(st.window_stalls, 1);
        assert_eq!(st.in_flight, 2);
        // Window credits come back after a crash quarantine.
        ml.quarantine(DomainId::X86);
        assert_eq!(ml.stream_stats(s).unwrap().in_flight, 0);
    }
}
