//! The §6.3 global memory allocator under pressure: block grants at the
//! 70 % threshold, and eviction from the peer kernel when the pool runs
//! dry.
//!
//! ```sh
//! cargo run --release --example pool_allocator
//! ```

#![deny(unsafe_code)]

use stramash_repro::fused::StramashSystem;
use stramash_repro::kernel::system::OsSystem;
use stramash_repro::kernel::vma::VmaProt;
use stramash_repro::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = SimConfig::big_pair().with_hw_model(HardwareModel::Shared);
    let mut sys = StramashSystem::with_block_size(cfg, 32 << 20)?;
    println!(
        "pool: {} free blocks of {} MB",
        sys.global_allocator().free_blocks(),
        sys.global_allocator().block_size() >> 20
    );

    let pid = sys.spawn(DomainId::X86)?;
    let buf = sys.mmap(pid, 1 << 20, VmaProt::rw())?;

    // Drive the x86 kernel's frame allocator over the 70 % pressure
    // threshold (§6.3), then fault in more pages: the global allocator
    // grants pool blocks on demand.
    while sys.base().kernels[0].frames.pressure() < 0.71 {
        sys.base_mut().kernels[0].frames.alloc()?;
    }
    println!(
        "x86 pressure: {:.0}% — the next fault triggers a block request",
        sys.base().kernels[0].frames.pressure() * 100.0
    );
    for p in 0..16u64 {
        sys.store_u64(pid, buf.offset(p * 4096), p)?;
    }
    let c = sys.counters();
    println!(
        "blocks granted: {}   blocks evicted from the peer: {}",
        c.blocks_granted, c.blocks_evicted
    );
    println!(
        "x86 now owns {} pool blocks; {} remain free",
        sys.global_allocator().owned_by(DomainId::X86),
        sys.global_allocator().free_blocks()
    );

    // Hotplug-style costs (Table 4): offline = evacuate + isolate.
    let pages = 1u64 << 16;
    let galloc = sys.global_allocator().clone();
    let freq = 2_100_000_000;
    let off = galloc.offline_cost(&mut sys.base_mut().mem, DomainId::X86, pages);
    let on = galloc.online_cost(&mut sys.base_mut().mem, DomainId::X86, pages);
    println!(
        "\noffline {} pages: {:.1} ms    online: {:.1} ms  (Table 4's shape)",
        pages,
        off.to_millis(freq),
        on.to_millis(freq)
    );
    Ok(())
}
