//! Ablation — what each fused mechanism is worth (design choices of
//! §5/§6, quantified one at a time).
//!
//! * remote software page-table walk (§6.4) vs a message round-trip,
//! * direct remote PTE insertion vs the origin-handled fault path,
//! * IPI-notified vs polling message delivery (§6.2),
//! * CAS (LSE) vs translated LL/SC atomics (§6.5/§7.1).

#![deny(unsafe_code)]

use stramash_bench::{banner, render_table};
use stramash_isa::atomic::AtomicModel;
use stramash_isa::{IsaKind, PteFlags};
use stramash_kernel::addr::{VirtAddr, PAGE_SIZE};
use stramash_kernel::msg::{Message, MsgType, Transport};
use stramash_kernel::pagetable::PageTable;
use stramash_kernel::system::{protocol_round_trip, BaseSystem, OsSystem};
use stramash_kernel::{BootConfig, FrameAllocator};
use stramash_mem::{MemorySystem, PhysAddr};
use stramash_sim::ipi::NotifyMode;
use stramash_sim::{DomainId, HardwareModel, Interconnect, SimConfig};
use stramash_workloads::target::{SystemKind, TargetSystem};

fn cfg() -> SimConfig {
    SimConfig::big_pair().with_hw_model(HardwareModel::Shared)
}

/// Remote software PT walk vs a message round trip for one translation.
fn walk_vs_message() -> (u64, u64) {
    let mut mem = MemorySystem::new(cfg()).unwrap();
    let mut frames = FrameAllocator::new();
    frames.add_region(PhysAddr::new(64 << 20), 16 << 20).unwrap();
    let pt = PageTable::new(&mut mem, &mut frames, IsaKind::X86_64).unwrap();
    let va = VirtAddr::new(0x4000_0000);
    pt.map(
        &mut mem,
        &mut frames,
        DomainId::X86,
        va,
        PhysAddr::new(0x70_0000),
        PteFlags::user_data(),
        false,
    )
    .unwrap();
    mem.flush_caches();
    let (_, walk) = pt.walk(&mut mem, DomainId::ARM, va);

    let mut base = BaseSystem::new(cfg(), &BootConfig::paper_default()).unwrap();
    let rtt = protocol_round_trip(
        &mut base,
        DomainId::ARM,
        Message::control(MsgType::VmaRequest),
        Message::control(MsgType::VmaResponse),
    );
    (walk.raw(), rtt.raw())
}

/// Direct remote fault vs origin-handled fault, measured end to end on
/// fresh systems (both measure the *second* remote fault, so ARM-side
/// warm-up is identical; the origin-handled path inherently includes
/// the chain building that forces it to the origin in the first place).
fn direct_vs_origin_fault() -> (u64, u64) {
    use stramash_kernel::vma::VmaProt;
    let fault_cost = |same_region: bool| {
        let mut sys = TargetSystem::build(SystemKind::Stramash, HardwareModel::Shared).unwrap();
        let pid = sys.spawn(DomainId::X86).unwrap();
        let va = sys.mmap(pid, 1 << 20, VmaProt::rw()).unwrap();
        let far = sys.mmap(pid, 4 << 20, VmaProt::rw()).unwrap();
        // Origin builds the chain for `va`'s region only.
        sys.store_u64(pid, va, 1).unwrap();
        sys.migrate(pid, DomainId::ARM).unwrap();
        // Warm the ARM-side tables with one fault in the warmed region.
        sys.store_u64(pid, va.offset(PAGE_SIZE), 2).unwrap();
        let target = if same_region {
            va.offset(2 * PAGE_SIZE) // origin chain present → direct
        } else {
            far.offset(2 << 20) // distant 2 MB region → origin-handled
        };
        let t0 = sys.runtime();
        sys.store_u64(pid, target, 3).unwrap();
        (sys.runtime() - t0).raw()
    };
    (fault_cost(true), fault_cost(false))
}

/// SHM message send cost: interrupt vs polling delivery.
fn ipi_vs_polling() -> (u64, u64) {
    let mut costs = [0u64; 2];
    for (i, notify) in [NotifyMode::Interrupt, NotifyMode::Polling].into_iter().enumerate() {
        let boot =
            BootConfig { transport: Transport::Shm { notify }, ..BootConfig::paper_default() };
        let mut base = BaseSystem::new(cfg(), &boot).unwrap();
        let c = protocol_round_trip(
            &mut base,
            DomainId::X86,
            Message::control(MsgType::FutexRequest),
            Message::control(MsgType::FutexResponse),
        );
        costs[i] = c.raw();
    }
    (costs[0], costs[1])
}

fn main() {
    banner("Ablation — per-mechanism costs of the fused design");
    let (walk, rtt) = walk_vs_message();
    let (direct, origin) = direct_vs_origin_fault();
    let (ipi, poll) = ipi_vs_polling();
    let cas = AtomicModel::paper_default(IsaKind::Aarch64).rmw_penalty().raw();
    let llsc = AtomicModel::without_lse(IsaKind::Aarch64).rmw_penalty().raw();

    let rows = vec![
        vec![
            "translation: remote SW walk vs message RTT".to_string(),
            walk.to_string(),
            rtt.to_string(),
            format!("{:.1}x", rtt as f64 / walk as f64),
        ],
        vec![
            "remote fault: direct PTE insert vs origin-handled".to_string(),
            direct.to_string(),
            origin.to_string(),
            format!("{:.1}x", origin as f64 / direct as f64),
        ],
        vec![
            "msg round trip: polling vs IPI notify".to_string(),
            poll.to_string(),
            ipi.to_string(),
            format!("{:.1}x", ipi as f64 / poll as f64),
        ],
        vec![
            "atomic RMW penalty: LSE CAS vs LL/SC".to_string(),
            cas.to_string(),
            llsc.to_string(),
            format!("{:.1}x", llsc as f64 / cas as f64),
        ],
    ];
    println!(
        "{}",
        render_table(
            &["mechanism (fused vs unfused)", "fused cycles", "unfused cycles", "ratio"],
            &rows
        )
    );

    assert!(walk < rtt, "the remote walk must undercut a message round trip");
    assert!(direct < origin, "direct insertion must undercut the origin-handled path");
    assert!(poll < ipi, "polling saves the IPI cost");
    assert!(cas < llsc, "LSE CAS must be cheaper than emulated LL/SC");

    banner("Interconnect sensitivity — §8.1's CXL / QPI / Infinity Fabric option");
    let mut ic_rows = Vec::new();
    let mut cxl_walk = 0u64;
    for ic in [Interconnect::Cxl, Interconnect::Qpi, Interconnect::InfinityFabric] {
        let cfg =
            SimConfig::big_pair().with_hw_model(HardwareModel::Separated).with_interconnect(ic);
        let mut mem = MemorySystem::new(cfg).unwrap();
        let mut frames = FrameAllocator::new();
        frames.add_region(PhysAddr::new(64 << 20), 16 << 20).unwrap();
        let pt = PageTable::new(&mut mem, &mut frames, IsaKind::X86_64).unwrap();
        let va = VirtAddr::new(0x4000_0000);
        pt.map(
            &mut mem,
            &mut frames,
            DomainId::X86,
            va,
            PhysAddr::new(0x70_0000),
            PteFlags::user_data(),
            false,
        )
        .unwrap();
        mem.flush_caches();
        let (_, walk) = pt.walk(&mut mem, DomainId::ARM, va);
        if ic == Interconnect::Cxl {
            cxl_walk = walk.raw();
        }
        ic_rows.push(vec![ic.to_string(), walk.raw().to_string()]);
    }
    println!("{}", render_table(&["interconnect", "remote PT walk (cycles)"], &ic_rows));
    println!("faster NUMA links shrink the remote-walk cost, widening the fused");
    println!("design's advantage over message protocols on such platforms.");
    let qpi_walk: u64 = ic_rows[1][1].parse().unwrap();
    assert!(qpi_walk < cxl_walk, "QPI remote walks must be cheaper than CXL");
}
