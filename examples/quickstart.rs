//! Quickstart: boot the fused-kernel OS, migrate a process across ISAs,
//! and watch the fused mechanisms at work.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

#![deny(unsafe_code)]

use stramash_repro::fused::StramashSystem;
use stramash_repro::kernel::system::OsSystem;
use stramash_repro::kernel::vma::VmaProt;
use stramash_repro::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A cache-coherent heterogeneous-ISA platform: Xeon Gold (x86-64)
    // + ThunderX2 (AArch64) with a CXL-style shared memory pool.
    let cfg = SimConfig::big_pair().with_hw_model(HardwareModel::Shared);
    let mut sys = StramashSystem::new(cfg)?;

    // Spawn a process on the x86 kernel and give it some anonymous
    // memory (demand-paged).
    let pid = sys.spawn(DomainId::X86)?;
    let buf = sys.mmap(pid, 64 << 10, VmaProt::rw())?;
    println!("spawned {pid} on {}", sys.current_domain(pid)?);

    // First touches fault pages in on the origin kernel.
    for i in 0..8u64 {
        sys.store_u64(pid, buf.offset(i * 8), i * i)?;
    }

    // Cross-ISA migration: the thread moves to the AArch64 kernel.
    sys.migrate(pid, DomainId::ARM)?;
    println!("migrated to {}", sys.current_domain(pid)?);

    // The remote kernel reads the origin's data *in place* through
    // cache-coherent shared memory — no DSM, no page replication.
    for i in 0..8u64 {
        assert_eq!(sys.load_u64(pid, buf.offset(i * 8))?, i * i);
    }

    // A remote write to a fresh page: the fused fault path allocates
    // locally and inserts into BOTH page tables under the Stramash-PTL,
    // with zero inter-kernel messages.
    sys.store_u64(pid, buf.offset(4096), 42)?;

    // Back-migration reconfigures the remote-format PTEs (§6.4).
    sys.migrate(pid, DomainId::X86)?;
    assert_eq!(sys.load_u64(pid, buf.offset(4096))?, 42);

    let c = sys.counters();
    println!("\nfused-kernel counters:");
    println!("  direct remote faults (0 messages): {}", c.direct_remote_faults);
    println!("  remote VMA walks over shared memory: {}", c.remote_vma_walks);
    println!("  Stramash-PTL acquisitions: {}", c.ptl_acquisitions);
    println!("  PTEs reconfigured at migrate-back: {}", c.pte_reconfigurations);
    println!(
        "\ninter-kernel messages (migration handshakes only): {}",
        sys.base().msg.counters().total()
    );
    println!("total runtime: {}", sys.runtime());
    Ok(())
}
