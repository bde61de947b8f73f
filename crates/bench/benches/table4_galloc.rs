//! Table 4 — global memory allocator offline/online overheads (§9.2.7).
//!
//! The hotplug-style allocator's cost is dominated by per-page isolation
//! work. The paper sweeps slice sizes from 2^15 to 2^20 pages on both
//! QEMU instances and reports milliseconds; the reproduction runs the
//! same sweep through the simulated memory system.

#![deny(unsafe_code)]

use stramash::StramashSystem;
use stramash_bench::{banner, render_table};
use stramash_kernel::system::OsSystem as _;
use stramash_sim::{DomainId, HardwareModel, SimConfig};

fn main() {
    banner("Table 4 — allocator offline/online cost by slice size (milliseconds)");
    let cfg = SimConfig::big_pair().with_hw_model(HardwareModel::Shared);
    let mut sys = StramashSystem::new(cfg.clone()).expect("boot");
    let mut rows = Vec::new();
    let mut last_off_x86 = 0.0f64;

    for exp in 15..=20u32 {
        let pages = 1u64 << exp;
        let mut cells = vec![format!("2^{exp}")];
        let mut off_x86 = 0.0;
        for domain in DomainId::ALL {
            let freq = cfg.domain(domain).freq_hz;
            let galloc = sys.global_allocator().clone();
            let off = galloc.offline_cost(&mut sys.base_mut().mem, domain, pages).to_millis(freq);
            sys.base_mut().mem.flush_caches();
            let on = galloc.online_cost(&mut sys.base_mut().mem, domain, pages).to_millis(freq);
            sys.base_mut().mem.flush_caches();
            if domain == DomainId::X86 {
                off_x86 = off;
            }
            cells.push(format!("{off:.1} ms"));
            cells.push(format!("{on:.1} ms"));
        }
        // Cost must scale roughly linearly with the page count.
        if last_off_x86 > 0.0 {
            let growth = off_x86 / last_off_x86;
            assert!(
                (1.5..3.0).contains(&growth),
                "offline cost must roughly double per size step, got {growth:.2}"
            );
        }
        last_off_x86 = off_x86;
        rows.push(cells);
    }

    println!(
        "{}",
        render_table(&["pages", "x86 offline", "x86 online", "Arm offline", "Arm online"], &rows)
    );
    println!("paper (Table 4): 2^15 pages = 12.5/5.8 ms (x86), 4.8/5.8 ms (Arm);");
    println!("                 2^20 pages = 246.3/68.1 ms (x86), 64.4/80.9 ms (Arm).");
    println!("shape: ms-scale costs growing linearly with slice size,");
    println!("       offline more expensive than online.");
}
