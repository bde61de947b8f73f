//! The reference kernel that end-to-end times are normalised by.
//!
//! On a shared host the simulator runs up to 2× slower for windows of
//! seconds to minutes while another tenant contends for the core's
//! private caches; the slowdown tracks L2 pressure, not CPU steal, so
//! neither CPU time nor a fixed ALU loop follows it. This kernel is a
//! small set-associative cache model, the same kind of work the
//! simulator spends its host time on, with a 1.5 MiB working set: it
//! slows in the same windows. It is fixed code of this package, so a
//! change to the program under test never changes it.
//!
//! [`Reference::time`] times one fixed pass. A run times it between
//! operations and scales each operation's host time by
//! [`NOMINAL_S`] over the reference time around it, which gives the
//! operation's time at the host speed where the kernel takes
//! [`NOMINAL_S`].

use std::hint::black_box;
use std::time::Instant;

/// Sets of the modelled cache.
const SETS: usize = 8192;
/// Ways per set: 8192 × 16 entries of 12 bytes hold 1.5 MiB.
const WAYS: usize = 16;
/// Modelled accesses per timed pass.
const PASS_ACCESSES: usize = 400_000;
/// Bytes of the modelled address space.
const SPAN: u64 = 64 << 20;

/// Host seconds of one pass on an uncontended host: the 5th percentile
/// of the pass time on the 2-vCPU Sapphire Rapids KVM guest the
/// recorded numbers come from. A normalised time reads as host seconds
/// at that speed.
pub const NOMINAL_S: f64 = 0.0095;

/// A set-associative cache model with LRU replacement, fed by a fixed
/// pseudo-random address stream: three steps in four move to the next
/// line, one in four jumps anywhere in [`SPAN`].
#[derive(Debug)]
pub struct Reference {
    tags: Vec<u64>,
    stamps: Vec<u32>,
    clock: u32,
    state: u64,
    addr: u64,
}

impl Default for Reference {
    fn default() -> Self {
        Reference::new()
    }
}

impl Reference {
    /// A cold model with the fixed stream seed. Call [`Reference::time`]
    /// once untimed to fault its pages in before timing.
    #[must_use]
    pub fn new() -> Reference {
        Reference {
            tags: vec![u64::MAX; SETS * WAYS],
            stamps: vec![0; SETS * WAYS],
            clock: 0,
            state: 0x9E37_79B9_7F4A_7C15,
            addr: 0,
        }
    }

    fn next(&mut self) -> u64 {
        self.state ^= self.state << 13;
        self.state ^= self.state >> 7;
        self.state ^= self.state << 17;
        self.state
    }

    fn access(&mut self, addr: u64) -> bool {
        self.clock = self.clock.wrapping_add(1);
        let line = addr >> 6;
        let base = (line as usize % SETS) * WAYS;
        let (mut victim, mut oldest) = (base, u32::MAX);
        for i in base..base + WAYS {
            if self.tags[i] == line {
                self.stamps[i] = self.clock;
                return true;
            }
            if self.stamps[i] < oldest {
                oldest = self.stamps[i];
                victim = i;
            }
        }
        self.tags[victim] = line;
        self.stamps[victim] = self.clock;
        false
    }

    /// Host seconds of one pass of [`PASS_ACCESSES`] modelled accesses.
    pub fn time(&mut self) -> f64 {
        let start = Instant::now();
        let mut hits = 0u64;
        for _ in 0..PASS_ACCESSES {
            let x = self.next();
            self.addr = if x & 3 == 0 {
                x % SPAN
            } else {
                (self.addr + 64) % SPAN
            };
            hits += u64::from(self.access(self.addr));
        }
        black_box(hits);
        start.elapsed().as_secs_f64()
    }
}
