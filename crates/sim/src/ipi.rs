//! Cross-ISA inter-processor interrupt (IPI) modelling.
//!
//! §7.2 of the paper prototypes cross-ISA IPIs in Stramash-QEMU by routing
//! a native IPI (AArch64 SGI / x86 APIC) through a peripheral device to
//! the other ISA. Because no real hardware exists, the paper measures
//! cross-NUMA IPI latency on the Table 1 machines as a placeholder and
//! finds an average of ≈ 2 µs on the large pairs (§9.1.1, Figures 5/6).
//!
//! This module provides both sides of that methodology:
//!
//! * [`IpiFabric`] — the *simulated platform's* IPI delivery, a
//!   configurable fixed cost (2 µs by default) that counts each IPI and
//!   each lost delivery in the sender's `DomainStats`,
//! * [`IpiCharacterization`] — the *measurement experiment*: a per-core-
//!   pair latency model reproducing the structure seen in Figures 5 and 6
//!   (cheap within a socket/cluster, more expensive across sockets, with
//!   measurement jitter), used by the `fig5_6_ipi` bench.

use crate::fault::SharedFaultInjector;
use crate::rng::SimRng;
use crate::stats::DomainStats;
use crate::time::{Cycles, DomainId};
use crate::trace::{SharedTracer, TraceEvent};

/// Retransmission cap for lost IPIs: with any sane loss probability the
/// chance of this many consecutive losses is negligible, but the cap
/// keeps pathological plans (loss = 1.0) from looping forever.
const MAX_IPI_ATTEMPTS: u32 = 64;

/// Delivery modes supported by the messaging layer (§6.2 supports both
/// interrupt dispatching and polling).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NotifyMode {
    /// Send a cross-ISA IPI; the receiver takes an interrupt.
    Interrupt,
    /// The receiver polls the ring buffer; no IPI cost, but the poll spin
    /// burns receiver cycles.
    Polling,
}

/// The simulated platform's IPI delivery fabric.
#[derive(Debug, Clone)]
pub struct IpiFabric {
    latency: Cycles,
    injector: Option<SharedFaultInjector>,
    tracer: Option<SharedTracer>,
}

impl IpiFabric {
    /// Creates a fabric with the given one-way delivery latency.
    #[must_use]
    pub fn new(latency: Cycles) -> Self {
        IpiFabric { latency, injector: None, tracer: None }
    }

    /// One-way delivery latency.
    #[must_use]
    pub fn latency(&self) -> Cycles {
        self.latency
    }

    /// Installs a fault injector; subsequent sends may lose deliveries
    /// and retransmit. With no injector the fabric consumes zero RNG.
    pub fn set_fault_injector(&mut self, injector: SharedFaultInjector) {
        self.injector = Some(injector);
    }

    /// Installs a tracer; every delivered IPI is recorded as a passive
    /// [`TraceEvent::Ipi`] (no cost, no RNG).
    pub fn set_tracer(&mut self, tracer: SharedTracer) {
        self.tracer = Some(tracer);
    }

    /// Sends an IPI from `from` to the other domain, returning its cost
    /// and counting it in `stats`, the sender's statistics. The cost is
    /// charged to the *sender* (the receiver's handler cost is modelled
    /// by the kernel code it runs on receipt).
    ///
    /// If an injected fault loses the delivery, the sender's interrupt
    /// controller re-raises it (the doorbell register stays set until
    /// acknowledged), paying the fabric latency again per attempt until
    /// the IPI lands. Each loss is one injected fault in `stats`: one
    /// retried and recovered, or fatal once the attempt cap runs out
    /// (the final attempt is delivered anyway).
    pub fn send(&mut self, from: DomainId, stats: &mut DomainStats) -> Cycles {
        let mut cost = self.latency;
        if let Some(inj) = &self.injector {
            let mut inj = inj.borrow_mut();
            let mut attempts = 1u32;
            while inj.ipi_lost() {
                if attempts == MAX_IPI_ATTEMPTS {
                    stats.note_fatal_fault();
                    break;
                }
                attempts += 1;
                cost += self.latency;
                stats.note_retried_fault();
            }
        }
        stats.ipi += 1;
        if let Some(t) = &self.tracer {
            t.borrow_mut().record(TraceEvent::Ipi { from, cost });
        }
        cost
    }
}

/// One measured core pair in the characterisation experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairSample {
    /// Sending core index.
    pub src: usize,
    /// Receiving core index.
    pub dst: usize,
    /// Mean measured latency in nanoseconds.
    pub mean_ns: f64,
    /// Standard deviation across repetitions, nanoseconds.
    pub stddev_ns: f64,
}

/// Parameters of the per-core-pair latency model.
///
/// Figures 5/6 show three regimes on the dual-socket Table 1 machines:
/// same-core-cluster pairs are fastest, same-socket pairs intermediate,
/// and cross-socket pairs slowest, with the overall average ≈ 2 µs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IpiTopology {
    /// Total cores measured.
    pub cores: usize,
    /// Cores per socket (cross-socket pairs pay `cross_socket_ns` extra).
    pub cores_per_socket: usize,
    /// Cores per cluster sharing an L2/mid-level cache.
    pub cores_per_cluster: usize,
    /// Base latency for a same-cluster IPI, nanoseconds.
    pub base_ns: f64,
    /// Additional latency when crossing clusters within a socket.
    pub cross_cluster_ns: f64,
    /// Additional latency when crossing sockets.
    pub cross_socket_ns: f64,
    /// Measurement noise (1 σ), nanoseconds.
    pub jitter_ns: f64,
}

impl IpiTopology {
    /// The big\_x86 machine: dual Xeon Gold 6230R, 26 cores per socket.
    /// Calibrated so the all-pairs average is ≈ 2 µs (§9.1.1).
    #[must_use]
    pub fn big_x86() -> Self {
        IpiTopology {
            cores: 52,
            cores_per_socket: 26,
            cores_per_cluster: 4,
            base_ns: 1250.0,
            cross_cluster_ns: 350.0,
            cross_socket_ns: 900.0,
            jitter_ns: 120.0,
        }
    }

    /// The big\_Arm machine: dual ThunderX2 CN9980, 32 cores per socket.
    #[must_use]
    pub fn big_arm() -> Self {
        IpiTopology {
            cores: 64,
            cores_per_socket: 32,
            cores_per_cluster: 4,
            base_ns: 1400.0,
            cross_cluster_ns: 300.0,
            cross_socket_ns: 800.0,
            jitter_ns: 150.0,
        }
    }

    fn socket_of(&self, core: usize) -> usize {
        core / self.cores_per_socket
    }

    fn cluster_of(&self, core: usize) -> usize {
        core / self.cores_per_cluster
    }

    /// Deterministic model latency for one (src, dst) pair before jitter.
    #[must_use]
    pub fn pair_mean_ns(&self, src: usize, dst: usize) -> f64 {
        let mut ns = self.base_ns;
        if self.socket_of(src) != self.socket_of(dst) {
            ns += self.cross_socket_ns;
        } else if self.cluster_of(src) != self.cluster_of(dst) {
            ns += self.cross_cluster_ns;
        }
        ns
    }
}

/// The all-pairs IPI measurement experiment of §9.1.1.
#[derive(Debug, Clone)]
pub struct IpiCharacterization {
    topology: IpiTopology,
    samples: Vec<PairSample>,
}

impl IpiCharacterization {
    /// Runs the experiment: measures every ordered core pair `reps`
    /// times with deterministic jitter drawn from `rng`.
    #[must_use]
    pub fn run(topology: IpiTopology, reps: usize, rng: &mut SimRng) -> Self {
        assert!(reps > 0, "at least one repetition required");
        let mut samples = Vec::with_capacity(topology.cores * (topology.cores - 1));
        for src in 0..topology.cores {
            for dst in 0..topology.cores {
                if src == dst {
                    continue;
                }
                let mean_model = topology.pair_mean_ns(src, dst);
                let mut acc = 0.0;
                let mut acc2 = 0.0;
                for _ in 0..reps {
                    let x = (mean_model + rng.gen_normal() * topology.jitter_ns).max(0.0);
                    acc += x;
                    acc2 += x * x;
                }
                let mean = acc / reps as f64;
                let var = (acc2 / reps as f64 - mean * mean).max(0.0);
                samples.push(PairSample { src, dst, mean_ns: mean, stddev_ns: var.sqrt() });
            }
        }
        IpiCharacterization { topology, samples }
    }

    /// The topology that was measured.
    #[must_use]
    pub fn topology(&self) -> &IpiTopology {
        &self.topology
    }

    /// All pair samples.
    #[must_use]
    pub fn samples(&self) -> &[PairSample] {
        &self.samples
    }

    /// Grand mean across all pairs, nanoseconds.
    #[must_use]
    pub fn average_ns(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().map(|s| s.mean_ns).sum::<f64>() / self.samples.len() as f64
    }

    /// Mean latency restricted to same-socket (`false`) or cross-socket
    /// (`true`) pairs.
    #[must_use]
    pub fn average_ns_by_socket(&self, cross: bool) -> f64 {
        let sel: Vec<&PairSample> = self
            .samples
            .iter()
            .filter(|s| (self.topology.socket_of(s.src) != self.topology.socket_of(s.dst)) == cross)
            .collect();
        if sel.is_empty() {
            return 0.0;
        }
        sel.iter().map(|s| s.mean_ns).sum::<f64>() / sel.len() as f64
    }

    /// The grand mean converted to cycles at `freq_hz` — this is the value
    /// the paper plugs into the simulator as the cross-ISA IPI cost.
    #[must_use]
    pub fn average_cycles(&self, freq_hz: u64) -> Cycles {
        Cycles::from_micros(self.average_ns() / 1000.0, freq_hz)
    }

    /// A coarse latency histogram: `(bucket_upper_ns, count)` pairs with
    /// the given bucket width.
    #[must_use]
    pub fn histogram(&self, bucket_ns: f64, buckets: usize) -> Vec<(f64, usize)> {
        let mut hist = vec![0usize; buckets];
        for s in &self.samples {
            let idx = ((s.mean_ns / bucket_ns) as usize).min(buckets - 1);
            hist[idx] += 1;
        }
        hist.into_iter().enumerate().map(|(i, c)| ((i as f64 + 1.0) * bucket_ns, c)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fabric_counts_and_charges() {
        let mut fabric = IpiFabric::new(Cycles::new(4200));
        let mut stats = DomainStats::new();
        let c = fabric.send(DomainId::X86, &mut stats);
        assert_eq!(c.raw(), 4200);
        assert_eq!(stats, DomainStats { ipi: 1, ..DomainStats::new() });
        assert_eq!(fabric.latency().raw(), 4200);
    }

    #[test]
    fn injected_loss_retries_until_delivered() {
        use crate::fault::{shared_injector, FaultPlan};
        let mut fabric = IpiFabric::new(Cycles::new(4200));
        let inj = shared_injector(FaultPlan::none().with_ipi_loss(0.5), 0xbeef);
        fabric.set_fault_injector(inj.clone());
        let mut stats = DomainStats::new();
        let mut total = Cycles::ZERO;
        for _ in 0..200 {
            total += fabric.send(DomainId::X86, &mut stats);
        }
        // Every IPI lands despite losses: retransmissions happened, were
        // charged real latency, and each loss is one recovered fault.
        assert_eq!(stats.ipi, 200);
        assert!(stats.faults_retried > 0, "50% loss must force retries");
        assert_eq!(total.raw(), (200 + stats.faults_retried) * 4200);
        assert_eq!(stats.faults_injected, inj.borrow().log().len() as u64);
        assert_eq!(stats.faults_recovered, stats.faults_injected);
        assert_eq!(stats.faults_fatal, 0);
    }

    #[test]
    fn certain_loss_is_fatal_at_the_attempt_cap() {
        use crate::fault::{shared_injector, FaultPlan};
        let mut fabric = IpiFabric::new(Cycles::new(10));
        let inj = shared_injector(FaultPlan::none().with_ipi_loss(1.0), 1);
        fabric.set_fault_injector(inj.clone());
        let mut stats = DomainStats::new();
        let c = fabric.send(DomainId::ARM, &mut stats);
        assert_eq!(c.raw(), u64::from(MAX_IPI_ATTEMPTS) * 10);
        assert_eq!(stats.faults_injected, u64::from(MAX_IPI_ATTEMPTS));
        assert_eq!(stats.faults_injected, inj.borrow().log().len() as u64);
        assert_eq!(stats.faults_retried, u64::from(MAX_IPI_ATTEMPTS) - 1);
        assert_eq!(stats.faults_fatal, 1);
    }

    #[test]
    fn fabric_without_injector_is_cost_identical() {
        let mut fabric = IpiFabric::new(Cycles::new(4200));
        let mut stats = DomainStats::new();
        for _ in 0..10 {
            assert_eq!(fabric.send(DomainId::ARM, &mut stats).raw(), 4200);
        }
        assert_eq!(stats, DomainStats { ipi: 10, ..DomainStats::new() });
    }

    #[test]
    fn topology_regimes_are_ordered() {
        let t = IpiTopology::big_x86();
        let same_cluster = t.pair_mean_ns(0, 1);
        let cross_cluster = t.pair_mean_ns(0, 5);
        let cross_socket = t.pair_mean_ns(0, 30);
        assert!(same_cluster < cross_cluster);
        assert!(cross_cluster < cross_socket);
    }

    #[test]
    fn characterization_average_is_about_two_micros() {
        // §9.1.1: "The average IPI latency is about 2 µs in large machine
        // pairs". Check both big machines land within 25% of 2000 ns.
        let mut rng = SimRng::new(2024);
        for topo in [IpiTopology::big_x86(), IpiTopology::big_arm()] {
            let run = IpiCharacterization::run(topo, 8, &mut rng);
            let avg = run.average_ns();
            assert!(
                (1500.0..2500.0).contains(&avg),
                "average IPI latency {avg} ns out of the 2 µs ballpark"
            );
        }
    }

    #[test]
    fn cross_socket_pairs_are_slower_on_average() {
        let mut rng = SimRng::new(7);
        let run = IpiCharacterization::run(IpiTopology::big_arm(), 4, &mut rng);
        assert!(run.average_ns_by_socket(true) > run.average_ns_by_socket(false));
    }

    #[test]
    fn average_cycles_conversion() {
        let mut rng = SimRng::new(1);
        let run = IpiCharacterization::run(IpiTopology::big_x86(), 4, &mut rng);
        let cycles = run.average_cycles(2_100_000_000);
        // ~2 µs at 2.1 GHz ≈ 4200 cycles; accept the model's spread.
        assert!((3000..5500).contains(&cycles.raw()), "got {cycles}");
    }

    #[test]
    fn histogram_covers_all_samples() {
        let mut rng = SimRng::new(3);
        let run = IpiCharacterization::run(IpiTopology::big_x86(), 2, &mut rng);
        let hist = run.histogram(250.0, 20);
        let total: usize = hist.iter().map(|&(_, c)| c).sum();
        assert_eq!(total, run.samples().len());
    }

    #[test]
    fn sample_count_is_all_ordered_pairs() {
        let mut rng = SimRng::new(4);
        let topo = IpiTopology { cores: 8, ..IpiTopology::big_x86() };
        let run = IpiCharacterization::run(topo, 2, &mut rng);
        assert_eq!(run.samples().len(), 8 * 7);
    }
}
