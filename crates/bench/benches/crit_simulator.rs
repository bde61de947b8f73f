//! Microbenchmarks of the simulator itself.
//!
//! Not a paper figure: these measure the *host-side* performance of the
//! reproduction's hot paths (cache access, page-table walks, red-black
//! tree and buddy operations), so regressions in the simulator's own
//! speed are caught. Built only with `--features criterion` so the
//! default tier-1 build stays free of bench-only code; the harness
//! itself is a self-contained `Instant`-based timer with no external
//! crates.
//!
//! Set `STRAMASH_BENCH_JSON=<path>` to also emit the results as a flat
//! JSON object (`scripts/bench.sh` merges it into
//! `BENCH_simulator.json`).

use std::hint::black_box;
use std::time::{Duration, Instant};
use stramash_isa::{IsaKind, PteFlags};
use stramash_kernel::addr::VirtAddr;
use stramash_kernel::pagetable::PageTable;
use stramash_kernel::FrameAllocator;
use stramash_mem::{Access, AccessKind, AccessPlan, MemorySystem, PhysAddr};
use stramash_sim::{DomainId, HardwareModel, SimConfig};

const WARM_UP: Duration = Duration::from_millis(500);
const MEASURE: Duration = Duration::from_secs(2);
const PAIR_ROUNDS: usize = 5;
const PAIR_WINDOW: Duration = Duration::from_millis(300);

/// One timed window: runs `f` until `window` elapses, returns ns/iter.
fn timed_window<F: FnMut()>(f: &mut F, window: Duration) -> f64 {
    let start = Instant::now();
    let mut iters = 0u64;
    while start.elapsed() < window {
        // Batches of 64 keep the clock out of the measured loop.
        for _ in 0..64 {
            f();
        }
        iters += 64;
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// Runs `f` repeatedly for a warm-up window and then a measurement
/// window, printing and returning the mean iteration time in
/// nanoseconds.
fn bench_function<F: FnMut()>(name: &str, mut f: F) -> f64 {
    let warm_end = Instant::now() + WARM_UP;
    while Instant::now() < warm_end {
        f();
    }
    let per_iter = timed_window(&mut f, MEASURE);
    println!("{name:<34} {per_iter:>12.1} ns/iter");
    per_iter
}

/// Measures a reference/optimised pair with interleaved windows and
/// takes the per-variant minimum: the host clock on a shared box
/// drifts by tens of percent between back-to-back runs, so two long
/// sequential measurements would compare different machines. Short
/// alternating windows see the same conditions, and the minimum is
/// robust against contention spikes.
fn bench_pair<F: FnMut(), G: FnMut()>(
    name_old: &str,
    name_new: &str,
    mut old: F,
    mut new: G,
) -> (f64, f64) {
    let warm_end = Instant::now() + WARM_UP;
    while Instant::now() < warm_end {
        old();
        new();
    }
    let (mut best_old, mut best_new) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..PAIR_ROUNDS {
        best_old = best_old.min(timed_window(&mut old, PAIR_WINDOW));
        best_new = best_new.min(timed_window(&mut new, PAIR_WINDOW));
    }
    println!("{name_old:<34} {best_old:>12.1} ns/iter");
    println!("{name_new:<34} {best_new:>12.1} ns/iter");
    (best_old, best_new)
}

fn hot_access_system() -> MemorySystem {
    let cfg = SimConfig::big_pair().with_hw_model(HardwareModel::Shared);
    MemorySystem::new(cfg).unwrap()
}

/// The `memory_system_access_hot` walk: the full L1-miss/L2-hit
/// probe-and-fill pipeline (probe L1, probe L2, fill L1 with an
/// eviction every access) over a 64 KB working set at line stride —
/// every stage of the per-access machinery runs on every iteration.
struct PipelineWalk {
    addr: u64,
}

impl PipelineWalk {
    fn step(&mut self, mem: &mut MemorySystem) {
        self.addr = (self.addr + 64) % (64 << 10);
        let out = mem.access(
            DomainId::X86,
            PhysAddr::new(0x10_0000 + self.addr),
            Access::Read,
            AccessKind::Data,
        );
        black_box(out.cycles);
    }
}

/// The `memory_system_access_npb_mix` walk, shaped like the NPB runs
/// the golden stats pin (81–86 % L1 hits): seven of every eight
/// accesses cycle an 8 KB resident buffer (L1 hits), the eighth
/// streams through a 1 MB region at line stride — 87.5 % L1 hits.
#[derive(Default)]
struct MixWalk {
    i: u64,
    resident: u64,
    stream: u64,
}

impl MixWalk {
    fn next_addr(&mut self) -> u64 {
        self.i += 1;
        if self.i.is_multiple_of(8) {
            self.stream = (self.stream + 64) % (1 << 20);
            0x20_0000 + self.stream
        } else {
            self.resident = (self.resident + 64) % (8 << 10);
            0x10_0000 + self.resident
        }
    }

    fn step(&mut self, mem: &mut MemorySystem) {
        let addr = self.next_addr();
        let out =
            mem.access(DomainId::X86, PhysAddr::new(addr), Access::Read, AccessKind::Data);
        black_box(out.cycles);
    }
}

fn bench_cache_access(results: &mut Vec<(String, f64)>) {
    let mut mem = hot_access_system();
    let mut walk = PipelineWalk { addr: 0 };
    let hot = bench_function("memory_system_access_hot", || walk.step(&mut mem));
    println!("hot pipeline: {:.1}M accesses/sec", 1e3 / hot);
    results.push(("memory_system_access_hot".to_string(), hot));
    results.push(("memory_system_access_hot_accesses_per_sec".to_string(), 1e9 / hot));

    let mut mem = hot_access_system();
    let mut walk = MixWalk::default();
    let mix = bench_function("memory_system_access_npb_mix", || walk.step(&mut mem));
    results.push(("memory_system_access_npb_mix".to_string(), mix));

    // Plan leg: the identical mix sequence compiled once into an
    // [`AccessPlan`] and replayed through `run_plan`'s dense fast-hit
    // loop, vs the same sequence issued as per-access `access` calls —
    // what the workloads' `plan_map` loops buy per access.
    const PLAN_OPS: usize = 2048;
    let mut w = MixWalk::default();
    let mut plan = AccessPlan::default();
    for _ in 0..PLAN_OPS {
        plan.push(w.next_addr(), false);
    }
    let mut mem_loop = hot_access_system();
    let mut mem_plan = hot_access_system();
    // The replay is cycle-identical to the loop before we start timing.
    let loop_cycles: u64 = plan
        .iter()
        .map(|op| {
            mem_loop
                .access(DomainId::X86, PhysAddr::new(op.addr), Access::Read, AccessKind::Data)
                .cycles
                .raw()
        })
        .sum();
    let plan_cycles = mem_plan.run_plan(DomainId::X86, &plan, 0..plan.len()).raw();
    assert_eq!(loop_cycles, plan_cycles, "plan replay drifted from the per-access loop");
    let (old, new) = bench_pair(
        "memory_system_access_npb_mix_loop",
        "memory_system_access_npb_mix_plan",
        || {
            for &addr in plan.addrs() {
                let out = mem_loop.access(
                    DomainId::X86,
                    PhysAddr::new(addr),
                    Access::Read,
                    AccessKind::Data,
                );
                black_box(out.cycles);
            }
        },
        || {
            black_box(mem_plan.run_plan(DomainId::X86, &plan, 0..plan.len()));
        },
    );
    let (old, new) = (old / PLAN_OPS as f64, new / PLAN_OPS as f64);
    let speedup = old / new;
    println!("npb-mix plan speedup: {speedup:.2}x  ({old:.1} -> {new:.1} ns/access)");
    results.push(("memory_system_access_npb_mix_loop".to_string(), old));
    results.push(("memory_system_access_npb_mix_plan".to_string(), new));
    results.push(("npb_mix_plan_speedup".to_string(), speedup));
}

/// One 4 KB bulk read, streaming over 1 MB page by page: the
/// `access_range` path.
fn read4k_step(mem: &mut MemorySystem, page: &mut u64, buf: &mut [u8; 4096]) {
    *page = (*page + 1) % 256;
    let c = mem.read_bytes(DomainId::X86, PhysAddr::new(0x10_0000 + *page * 4096), buf);
    black_box(c);
}

fn bench_stream_read(results: &mut Vec<(String, f64)>) {
    let mut mem = hot_access_system();
    let mut buf = [0u8; 4096];
    let mut page = 0u64;
    let t = bench_function("memory_system_read4k", || read4k_step(&mut mem, &mut page, &mut buf));
    results.push(("memory_system_read4k".to_string(), t));
}

/// Word-run batching: eight 8-byte stores covering one cache line,
/// issued as eight scalar `write_u64` calls vs one `write_u64_run` —
/// the bulk entry point the batched client slice ops drive. Both sides
/// use the same hierarchy; the win measured here is pure dispatch
/// amortisation at identical simulated cycles.
fn bench_word_run(results: &mut Vec<(String, f64)>) {
    let mut mem_old = hot_access_system();
    let mut mem_new = hot_access_system();
    let words = [0x5a5a_5a5a_5a5a_5a5au64; 8];
    let (mut po, mut pn) = (0u64, 0u64);
    let (old, new) = bench_pair(
        "memory_system_write8_scalar",
        "memory_system_write8_run",
        || {
            po = (po + 64) % (1 << 20);
            let base = 0x10_0000 + po;
            for (k, &w) in words.iter().enumerate() {
                black_box(mem_old.write_u64(
                    DomainId::X86,
                    PhysAddr::new(base + 8 * k as u64),
                    w,
                ));
            }
        },
        || {
            pn = (pn + 64) % (1 << 20);
            black_box(mem_new.write_u64_run(DomainId::X86, PhysAddr::new(0x10_0000 + pn), &words));
        },
    );
    let speedup = old / new;
    println!("word-run speedup:  {speedup:.2}x  ({old:.1} -> {new:.1} ns/line)");
    results.push(("memory_system_write8_scalar".to_string(), old));
    results.push(("memory_system_write8_run".to_string(), new));
    results.push(("memory_system_write8_run_speedup".to_string(), speedup));
}

fn bench_cache_access_coherent(results: &mut Vec<(String, f64)>) {
    let mut mem = hot_access_system();
    let mut i = 0u64;
    let ns = bench_function("memory_system_access_pingpong", || {
        // Alternating writers force MESI transitions every access.
        i += 1;
        let domain = if i.is_multiple_of(2) { DomainId::X86 } else { DomainId::ARM };
        let out =
            mem.access(domain, PhysAddr::new(0x1_4000_0000), Access::Write, AccessKind::Data);
        black_box(out.cycles);
    });
    results.push(("memory_system_access_pingpong".to_string(), ns));
}

fn bench_page_walk(results: &mut Vec<(String, f64)>) {
    let cfg = SimConfig::big_pair().with_hw_model(HardwareModel::Shared);
    let mut mem = MemorySystem::new(cfg).unwrap();
    let mut frames = FrameAllocator::new();
    frames.add_region(PhysAddr::new(64 << 20), 64 << 20).unwrap();
    let pt = PageTable::new(&mut mem, &mut frames, IsaKind::Aarch64).unwrap();
    for p in 0..512u64 {
        pt.map(
            &mut mem,
            &mut frames,
            DomainId::ARM,
            VirtAddr::new(0x4000_0000 + p * 4096),
            PhysAddr::new((128 << 20) + p * 4096),
            PteFlags::user_data(),
            false,
        )
        .unwrap();
    }
    let mut p = 0u64;
    let ns = bench_function("software_page_walk", || {
        p = (p + 1) % 512;
        let (res, cycles) = pt.walk(&mut mem, DomainId::ARM, VirtAddr::new(0x4000_0000 + p * 4096));
        black_box((res, cycles));
    });
    results.push(("software_page_walk".to_string(), ns));
}

fn bench_rbtree(results: &mut Vec<(String, f64)>) {
    use stramash_kernel::rbtree::RbTree;
    let mut tree = RbTree::new();
    for k in 0..4096u64 {
        tree.insert(k.wrapping_mul(0x9e37_79b9) % 65536, k);
    }
    let mut probe = 0u64;
    let ns = bench_function("rbtree_floor_lookup", || {
        probe = probe.wrapping_add(977) % 65536;
        black_box(tree.floor(&probe));
    });
    results.push(("rbtree_floor_lookup".to_string(), ns));
    let mut k = 0u64;
    let ns = bench_function("rbtree_insert_remove", || {
        k = k.wrapping_add(1);
        let key = 70_000 + (k % 1024);
        tree.insert(key, k);
        black_box(tree.remove(&key));
    });
    results.push(("rbtree_insert_remove".to_string(), ns));
}

fn bench_buddy(results: &mut Vec<(String, f64)>) {
    use stramash_kernel::buddy::BuddyAllocator;
    let mut buddy = BuddyAllocator::new(PhysAddr::new(64 << 20), 64 << 20);
    let ns = bench_function("buddy_alloc_free_order0", || {
        let f = buddy.alloc(0).expect("space available");
        buddy.free(black_box(f)).expect("just allocated");
    });
    results.push(("buddy_alloc_free_order0".to_string(), ns));
}

/// Serialises the results as one flat JSON object.
fn to_json(results: &[(String, f64)]) -> String {
    let fields: Vec<String> =
        results.iter().map(|(name, v)| format!("  \"{name}\": {v:.1}")).collect();
    format!("{{\n{}\n}}\n", fields.join(",\n"))
}

fn main() {
    let mut results = Vec::new();
    bench_cache_access(&mut results);
    bench_stream_read(&mut results);
    bench_word_run(&mut results);
    bench_cache_access_coherent(&mut results);
    bench_page_walk(&mut results);
    bench_rbtree(&mut results);
    bench_buddy(&mut results);
    if let Ok(path) = std::env::var("STRAMASH_BENCH_JSON") {
        std::fs::write(&path, to_json(&results)).expect("write bench JSON");
        println!("wrote {path}");
    }
}
