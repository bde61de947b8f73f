//! Cross-ISA NPB migration: one benchmark across every OS design.
//!
//! A miniature of the paper's Figure 9: the IS kernel (bucket sort)
//! migrates between the x86 and Arm kernels once per processing
//! procedure, under Vanilla (no migration), Popcorn-TCP, Popcorn-SHM
//! and Stramash.
//!
//! ```sh
//! cargo run --release --example npb_migration [is|cg|mg|ft]
//! ```

#![deny(unsafe_code)]

use stramash_repro::prelude::*;
use stramash_repro::workloads::driver::{run_benchmark, Configuration};
use stramash_repro::workloads::npb::{Class, NpbKind};
use stramash_repro::workloads::target::SystemKind;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let kind = match std::env::args().nth(1).as_deref() {
        Some("cg") => NpbKind::Cg,
        Some("mg") => NpbKind::Mg,
        Some("ft") => NpbKind::Ft,
        _ => NpbKind::Is,
    };
    println!("NPB {kind} under cross-ISA migration (Shared hardware model)\n");

    let configs = [
        Configuration { kind: SystemKind::Vanilla, model: HardwareModel::Shared },
        Configuration { kind: SystemKind::PopcornTcp, model: HardwareModel::Shared },
        Configuration { kind: SystemKind::PopcornShm, model: HardwareModel::Shared },
        Configuration { kind: SystemKind::Stramash, model: HardwareModel::Shared },
    ];

    let mut baseline = None;
    for config in configs {
        let report = run_benchmark(config, kind, Class::Tiny)?;
        let base = *baseline.get_or_insert(report.runtime);
        println!(
            "{:<12}  runtime {:>12} cycles  ({:.2}x Vanilla)  msgs {:>5}  replicated pages {:>4}  verified {}",
            config.label(),
            report.runtime.raw(),
            report.normalized_to(base),
            report.messages,
            report.replicated_pages,
            report.outcome.verified,
        );
        assert!(report.outcome.verified, "every design must compute the same correct result");
    }

    // A closer look at the fused mechanisms on the Stramash run.
    use stramash_repro::workloads::npb::run_npb;
    use stramash_repro::workloads::target::TargetSystem;
    let mut sys = TargetSystem::build(SystemKind::Stramash, HardwareModel::Shared)?;
    let pid = sys.spawn(DomainId::X86)?;
    run_npb(kind, &mut sys, pid, Class::Tiny, true)?;
    if let Some(c) = sys.stramash_counters() {
        println!("\nStramash mechanism counters for this run:");
        println!("  direct remote faults (0 messages): {}", c.direct_remote_faults);
        println!("  remote VMA walks:                  {}", c.remote_vma_walks);
        println!("  Stramash-PTL acquisitions:         {}", c.ptl_acquisitions);
        println!("  PTEs reconfigured at migrate-back: {}", c.pte_reconfigurations);
    }

    println!("\nThe fused-kernel OS resolves remote faults through shared memory;");
    println!("the multiple-kernel baseline pays message protocols and page replication.");
    Ok(())
}
