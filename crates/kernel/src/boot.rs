//! Booting the kernel pair (§6.1).
//!
//! "Stramash-Linux will discover all memory and devices, but initialize
//! only a minimal set of those … At the time of writing, we limit the
//! area usable by each kernel instance using BIOS tables/device trees.
//! The OS reads the memory map tables provided by the firmware and
//! adjusts its boundaries based on that. Thus, kernel instances' memory
//! areas do not overlap."
//!
//! The boot layer partitions the Figure 4 layout: each kernel's frame
//! allocator receives its private region (minus a kernel-image reserve),
//! the first 128 MB of the shared pool becomes the message rings (§8.2),
//! and the rest of the pool stays in the global free pool for the §6.3
//! allocator to hand out.

use crate::kernel::KernelInstance;
use crate::msg::{MessagingLayer, Transport};
use stramash_mem::{PhysAddr, PhysLayout};
use stramash_sim::ipi::IpiFabric;
use stramash_sim::{DomainId, SimConfig};

/// Boot-time partitioning parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BootConfig {
    /// Bytes reserved at the start of each private region for the kernel
    /// image, static data and early allocations.
    pub kernel_reserve: u64,
    /// Size of the message-ring area carved from the start of the pool
    /// (§8.2 uses a 128 MB shared-memory message layer).
    pub msg_ring_bytes: u64,
    /// Messaging transport.
    pub transport: Transport,
}

impl BootConfig {
    /// The paper's configuration: 128 MB rings, SHM transport with IPIs.
    #[must_use]
    pub fn paper_default() -> Self {
        BootConfig {
            kernel_reserve: 64 << 20,
            msg_ring_bytes: 128 << 20,
            transport: Transport::Shm { notify: stramash_sim::ipi::NotifyMode::Interrupt },
        }
    }

    /// Same, but with the TCP transport (Popcorn-TCP baseline).
    #[must_use]
    pub fn tcp() -> Self {
        BootConfig { transport: Transport::Tcp, ..Self::paper_default() }
    }
}

/// Everything the boot sequence produces.
#[derive(Debug)]
pub struct BootedPlatform {
    /// The two kernel instances (indexed by domain).
    pub kernels: [KernelInstance; 2],
    /// The messaging layer connecting them.
    pub msg: MessagingLayer,
    /// The IPI fabric.
    pub ipi: IpiFabric,
    /// First pool byte *after* the message rings — the global
    /// allocator's arena.
    pub pool_start: PhysAddr,
    /// One past the last pool byte.
    pub pool_end: PhysAddr,
}

/// Boots both kernels over `layout` and establishes the communication
/// channel ("Once the boot is complete, kernel instances establish a
/// communication channel to coordinate", §6.1).
///
/// # Panics
///
/// Panics if the layout regions overlap or are too small for the
/// requested reserves — a mis-partitioned firmware table is a
/// configuration bug, not a runtime condition.
#[must_use]
pub fn boot_pair(cfg: &SimConfig, layout: &PhysLayout, boot: &BootConfig) -> BootedPlatform {
    assert!(layout.is_disjoint(), "firmware memory map must not overlap (§6.1)");
    let mut kernels = [KernelInstance::new(DomainId::X86), KernelInstance::new(DomainId::ARM)];

    for k in &mut kernels {
        let region = layout.private_region(k.domain);
        assert!(region.len > boot.kernel_reserve, "private region smaller than the kernel reserve");
        k.frames
            .add_region(region.start.offset(boot.kernel_reserve), region.len - boot.kernel_reserve)
            .expect("boot regions are aligned and disjoint");
    }

    // Message rings at the start of the pool: local to x86 / remote to
    // Arm under Separated, remote-shared under Shared, local under
    // Fully Shared — exactly the §8.2 placements.
    let pool = layout.pool_region(DomainId::X86);
    let ring_len = boot.msg_ring_bytes / 2;
    let ring_base = [pool.start, pool.start.offset(ring_len)];
    let msg = MessagingLayer::new(boot.transport, ring_base, ring_len, cfg.tcp_rtt)
        .expect("boot ring configuration is validated by the firmware map");
    let ipi = IpiFabric::new(cfg.ipi_latency);

    let pool_end = layout.pool_region(DomainId::ARM).end();
    BootedPlatform {
        kernels,
        msg,
        ipi,
        pool_start: pool.start.offset(boot.msg_ring_bytes),
        pool_end,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boot_assigns_disjoint_private_memory() {
        let cfg = SimConfig::big_pair();
        let layout = PhysLayout::paper_default();
        let p = boot_pair(&cfg, &layout, &BootConfig::paper_default());
        let x = &p.kernels[0].frames;
        let a = &p.kernels[1].frames;
        // 1.5 GB private minus 64 MB reserve each.
        let expect = ((3u64 << 29) - (64 << 20)) / 4096;
        assert_eq!(x.total_frames(), expect);
        assert_eq!(a.total_frames(), expect);
        // Neither kernel owns the other's memory.
        assert!(!x.owns(PhysAddr::new(2 << 30)));
        assert!(!a.owns(PhysAddr::new(0x10_0000 + (64 << 20))));
    }

    #[test]
    fn pool_arena_excludes_rings() {
        let cfg = SimConfig::big_pair();
        let p = boot_pair(&cfg, &PhysLayout::paper_default(), &BootConfig::paper_default());
        assert_eq!(p.pool_start.raw(), (4u64 << 30) + (128 << 20));
        assert_eq!(p.pool_end.raw(), 8u64 << 30);
    }

    #[test]
    fn tcp_boot_config() {
        let cfg = SimConfig::big_pair();
        let p = boot_pair(&cfg, &PhysLayout::paper_default(), &BootConfig::tcp());
        assert_eq!(p.msg.transport(), Transport::Tcp);
    }
}
