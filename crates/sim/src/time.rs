//! Simulated time: cycles, domain identifiers, and the instruction-count
//! timebase of §7.3.
//!
//! Stramash-QEMU configures QEMU to use an instruction-count based timing
//! model ("icount"): time progresses with the number of executed
//! instructions at a fixed non-memory IPC, while every memory instruction
//! is forwarded to the cache plugin which *feeds back* additional memory
//! access cycles. The artifact's runtime formula is
//!
//! ```text
//! runtime = instructions × CPI_fixed + Σ memory-feedback cycles
//! ```
//!
//! and the final cross-ISA runtime of a migrating application is the sum
//! of both domains' runtimes (Artifact Appendix A.5).

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Identifier of an ISA domain (a homogeneous group of cores running one
/// kernel instance).
///
/// The reproduction, like the paper's prototype, simulates exactly two
/// domains: [`DomainId::X86`] and [`DomainId::ARM`].
///
/// ```
/// use stramash_sim::DomainId;
/// assert_eq!(DomainId::X86.other(), DomainId::ARM);
/// assert_eq!(DomainId::ARM.index(), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DomainId(u8);

impl DomainId {
    /// The x86-64 domain (domain 0; boots at physical address 0, Fig. 4).
    pub const X86: DomainId = DomainId(0);
    /// The AArch64 domain (domain 1; boots at 0xA000_0000, Fig. 4).
    pub const ARM: DomainId = DomainId(1);

    /// Both domains, in index order.
    pub const ALL: [DomainId; 2] = [DomainId::X86, DomainId::ARM];

    /// Creates a domain id from a raw index.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 2`; the simulator models exactly two domains.
    #[must_use]
    pub fn new(index: usize) -> Self {
        assert!(index < crate::NUM_DOMAINS, "domain index out of range: {index}");
        DomainId(index as u8)
    }

    /// The array index of this domain (0 for x86, 1 for Arm).
    #[must_use]
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// The *other* domain of the pair — the "remote" kernel from this
    /// domain's perspective.
    #[must_use]
    pub const fn other(self) -> DomainId {
        DomainId(1 - self.0)
    }
}

impl fmt::Display for DomainId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            DomainId::X86 => f.write_str("x86"),
            _ => f.write_str("arm"),
        }
    }
}

/// A duration measured in simulated CPU cycles.
///
/// `Cycles` is the universal currency of the timing model: cache hit
/// latencies, memory latencies, CXL snoop overheads, IPI costs and message
/// round-trips are all expressed in cycles (Table 2 of the paper).
///
/// ```
/// use stramash_sim::Cycles;
/// let l3 = Cycles::new(50);
/// let mem = Cycles::new(300);
/// assert_eq!((l3 + mem).raw(), 350);
/// assert!(mem > l3);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Cycles(u64);

impl Cycles {
    /// Zero cycles.
    pub const ZERO: Cycles = Cycles(0);

    /// Creates a cycle count.
    #[must_use]
    pub const fn new(raw: u64) -> Self {
        Cycles(raw)
    }

    /// The raw cycle count.
    #[must_use]
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Whether this duration is zero.
    #[must_use]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Converts a wall-clock duration in microseconds to cycles at the
    /// given core frequency, rounding to the nearest cycle.
    ///
    /// The paper uses this conversion for the measured 2 µs IPI latency
    /// (§9.1.1) and the 75 µs TCP message round-trip (§8.2).
    ///
    /// ```
    /// use stramash_sim::Cycles;
    /// // 2 µs at 2.1 GHz = 4200 cycles.
    /// assert_eq!(Cycles::from_micros(2.0, 2_100_000_000).raw(), 4200);
    /// ```
    #[must_use]
    pub fn from_micros(micros: f64, freq_hz: u64) -> Self {
        let cycles = micros * 1e-6 * freq_hz as f64;
        Cycles(cycles.round() as u64)
    }

    /// Converts this cycle count to milliseconds at the given frequency.
    #[must_use]
    pub fn to_millis(self, freq_hz: u64) -> f64 {
        self.0 as f64 * 1e3 / freq_hz as f64
    }

    /// Saturating subtraction.
    #[must_use]
    pub fn saturating_sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.saturating_sub(rhs.0))
    }
}

impl Add for Cycles {
    type Output = Cycles;
    fn add(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 + rhs.0)
    }
}

impl AddAssign for Cycles {
    fn add_assign(&mut self, rhs: Cycles) {
        self.0 += rhs.0;
    }
}

impl Sub for Cycles {
    type Output = Cycles;
    fn sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 - rhs.0)
    }
}

impl SubAssign for Cycles {
    fn sub_assign(&mut self, rhs: Cycles) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Cycles {
    type Output = Cycles;
    fn mul(self, rhs: u64) -> Cycles {
        Cycles(self.0 * rhs)
    }
}

impl Div<u64> for Cycles {
    type Output = Cycles;
    fn div(self, rhs: u64) -> Cycles {
        Cycles(self.0 / rhs)
    }
}

impl Sum for Cycles {
    fn sum<I: Iterator<Item = Cycles>>(iter: I) -> Cycles {
        iter.fold(Cycles::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Cycles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} cycles", self.0)
    }
}

impl From<u64> for Cycles {
    fn from(raw: u64) -> Self {
        Cycles(raw)
    }
}

/// Per-domain clock implementing the icount timebase of §7.3.
///
/// A clock accumulates two components:
///
/// * `icount` — retired instructions, each costing one cycle (the fixed
///   non-memory IPC of 1 used by PriME-style manycore simulators that the
///   paper cites for its timing model), and
/// * `mem_cycles` — the memory-system feedback added by the cache plugin
///   for each memory instruction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Clock {
    icount: u64,
    mem_cycles: Cycles,
}

impl Clock {
    /// Creates a clock at time zero.
    #[must_use]
    pub fn new() -> Self {
        Clock::default()
    }

    /// Retires `n` non-memory instructions.
    pub fn retire(&mut self, n: u64) {
        self.icount += n;
    }

    /// Adds memory-system feedback cycles (cache/memory/snoop latency).
    pub fn add_memory(&mut self, cycles: Cycles) {
        self.mem_cycles += cycles;
    }

    /// Total retired instruction count.
    #[must_use]
    pub const fn icount(self) -> u64 {
        self.icount
    }

    /// Accumulated memory feedback.
    #[must_use]
    pub const fn memory_cycles(self) -> Cycles {
        self.mem_cycles
    }

    /// Current simulated time: `icount × 1 + memory feedback`.
    #[must_use]
    pub fn cycles(self) -> Cycles {
        Cycles(self.icount) + self.mem_cycles
    }

    /// Resets the clock to zero.
    pub fn reset(&mut self) {
        *self = Clock::default();
    }
}

/// The fused timebase: one [`Clock`] per domain, kept in step.
///
/// Stramash-QEMU "actively maintains the same icount speed on both QEMU
/// instances" (§8.1); the timebase exposes the same invariant by letting
/// callers query the skew between domains and compute the paper's final
/// runtime (the *sum* of both domains' runtimes for a migrating
/// single-threaded application, Artifact Appendix A.5).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Timebase {
    clocks: [Clock; crate::NUM_DOMAINS],
}

impl Timebase {
    /// Creates a timebase with both domain clocks at zero.
    #[must_use]
    pub fn new() -> Self {
        Timebase::default()
    }

    /// The clock of `domain`.
    #[must_use]
    pub fn clock(&self, domain: DomainId) -> &Clock {
        &self.clocks[domain.index()]
    }

    /// Mutable access to the clock of `domain`.
    pub fn clock_mut(&mut self, domain: DomainId) -> &mut Clock {
        &mut self.clocks[domain.index()]
    }

    /// The paper's final-runtime formula: x86 runtime + Arm runtime.
    ///
    /// A single-threaded application that migrates between ISAs executes
    /// on exactly one domain at a time, so the total elapsed time is the
    /// sum of the time each domain spent executing it.
    #[must_use]
    pub fn total_runtime(&self) -> Cycles {
        self.clocks.iter().map(|c| c.cycles()).sum()
    }

    /// Absolute skew between the two domains' clocks.
    #[must_use]
    pub fn skew(&self) -> Cycles {
        let a = self.clocks[0].cycles();
        let b = self.clocks[1].cycles();
        if a > b {
            a - b
        } else {
            b - a
        }
    }

    /// Resets both clocks.
    pub fn reset(&mut self) {
        for c in &mut self.clocks {
            c.reset();
        }
    }

    /// Serializes both domain clocks into a checkpoint section.
    pub fn save_state(&self, e: &mut crate::checkpoint::Encoder) {
        e.tag(0x54_494d45); // "TIME"
        for c in &self.clocks {
            e.u64(c.icount);
            e.u64(c.mem_cycles.raw());
        }
    }

    /// Restores both domain clocks from a checkpoint section.
    ///
    /// # Errors
    ///
    /// Decoding errors.
    pub fn load_state(
        &mut self,
        d: &mut crate::checkpoint::Decoder<'_>,
    ) -> Result<(), crate::checkpoint::CheckpointError> {
        d.tag(0x54_494d45)?;
        for c in &mut self.clocks {
            c.icount = d.u64()?;
            c.mem_cycles = Cycles::new(d.u64()?);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn domain_other_is_involution() {
        assert_eq!(DomainId::X86.other(), DomainId::ARM);
        assert_eq!(DomainId::ARM.other(), DomainId::X86);
        for d in DomainId::ALL {
            assert_eq!(d.other().other(), d);
        }
    }

    #[test]
    #[should_panic(expected = "domain index out of range")]
    fn domain_new_rejects_out_of_range() {
        let _ = DomainId::new(2);
    }

    #[test]
    fn domain_display_names() {
        assert_eq!(DomainId::X86.to_string(), "x86");
        assert_eq!(DomainId::ARM.to_string(), "arm");
    }

    #[test]
    fn cycles_arithmetic() {
        let a = Cycles::new(10);
        let b = Cycles::new(32);
        assert_eq!((a + b).raw(), 42);
        assert_eq!((b - a).raw(), 22);
        assert_eq!((a * 3).raw(), 30);
        assert_eq!((b / 2).raw(), 16);
        let mut c = a;
        c += b;
        assert_eq!(c.raw(), 42);
        c -= a;
        assert_eq!(c.raw(), 32);
    }

    #[test]
    fn cycles_sum_over_iterator() {
        let total: Cycles = (1..=4).map(Cycles::new).sum();
        assert_eq!(total.raw(), 10);
    }

    #[test]
    fn cycles_micros_conversion_matches_paper_ipi() {
        // §9.1.1: the average IPI latency is ~2 µs; at the Xeon Gold's
        // 2.1 GHz this is 4200 cycles.
        let ipi = Cycles::from_micros(2.0, 2_100_000_000);
        assert_eq!(ipi.raw(), 4200);
        // Round trip back to milliseconds.
        let ms = ipi.to_millis(2_100_000_000);
        assert!((ms - 0.002).abs() < 1e-12);
    }

    #[test]
    fn cycles_saturating_sub() {
        assert_eq!(Cycles::new(5).saturating_sub(Cycles::new(9)), Cycles::ZERO);
        assert_eq!(Cycles::new(9).saturating_sub(Cycles::new(5)).raw(), 4);
    }

    #[test]
    fn clock_accumulates_icount_and_memory() {
        let mut clock = Clock::new();
        clock.retire(100);
        clock.add_memory(Cycles::new(300));
        clock.retire(50);
        assert_eq!(clock.icount(), 150);
        assert_eq!(clock.memory_cycles().raw(), 300);
        assert_eq!(clock.cycles().raw(), 450);
        clock.reset();
        assert_eq!(clock.cycles(), Cycles::ZERO);
    }

    #[test]
    fn timebase_total_runtime_is_sum_of_domains() {
        let mut tb = Timebase::new();
        tb.clock_mut(DomainId::X86).retire(1000);
        tb.clock_mut(DomainId::ARM).retire(400);
        tb.clock_mut(DomainId::ARM).add_memory(Cycles::new(100));
        assert_eq!(tb.total_runtime().raw(), 1500);
        assert_eq!(tb.skew().raw(), 500);
    }

    #[test]
    fn timebase_reset() {
        let mut tb = Timebase::new();
        tb.clock_mut(DomainId::X86).retire(7);
        tb.reset();
        assert_eq!(tb.total_runtime(), Cycles::ZERO);
    }
}
