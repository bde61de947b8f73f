//! Table 3 — message count during migration and replicated page count
//! during runtime migration (§9.2.3).
//!
//! Popcorn's DSM exchanges hundreds of thousands of messages and
//! replicates tens of thousands of pages; Stramash reduces messages by
//! ≈ 99 %+ and nearly eliminates replication (the residue being the
//! §9.2.3 origin-handled faults on missing upper-level page tables).

#![deny(unsafe_code)]

use stramash_bench::{banner, render_table};
use stramash_kernel::msg::MsgType;
use stramash_sim::DomainId;
use stramash_sim::HardwareModel;
use stramash_workloads::driver::{run_benchmark, Configuration};
use stramash_workloads::npb::run_npb;
use stramash_workloads::npb::{Class, NpbKind};
use stramash_workloads::target::SystemKind;
use stramash_workloads::target::TargetSystem;

fn main() {
    banner("Table 3 — messages and replicated pages (Popcorn-SHM vs Stramash, Shared model)");
    let shm = Configuration { kind: SystemKind::PopcornShm, model: HardwareModel::Shared };
    let stra = Configuration { kind: SystemKind::Stramash, model: HardwareModel::Shared };
    let mut rows = Vec::new();

    for kind in NpbKind::ALL {
        let p = run_benchmark(shm, kind, Class::Small).expect("popcorn run");
        let s = run_benchmark(stra, kind, Class::Small).expect("stramash run");
        assert!(p.outcome.verified && s.outcome.verified);
        let msg_reduction = 100.0 * (1.0 - s.messages as f64 / p.messages.max(1) as f64);
        let rep_reduction =
            100.0 * (1.0 - s.replicated_pages as f64 / p.replicated_pages.max(1) as f64);
        rows.push(vec![
            kind.to_string(),
            p.messages.to_string(),
            s.messages.to_string(),
            format!("{msg_reduction:.2}%"),
            p.replicated_pages.to_string(),
            s.replicated_pages.to_string(),
            format!("{rep_reduction:.2}%"),
        ]);
        assert!(
            msg_reduction > 80.0,
            "{kind}: message reduction {msg_reduction:.1}% too low (paper: 99%+)"
        );
        assert!(
            s.replicated_pages < p.replicated_pages,
            "{kind}: Stramash must replicate fewer pages"
        );
    }

    println!(
        "{}",
        render_table(
            &[
                "bench",
                "Popcorn msgs",
                "Stramash msgs",
                "reduced",
                "Popcorn repl. pages",
                "Stramash repl. pages",
                "reduced",
            ],
            &rows
        )
    );
    println!("paper (Table 3): IS 207124->22 msgs (99.98%), 16918->7 pages (99.96%);");
    println!("                 FT keeps some Stramash replication (83.34%) via");
    println!("                 origin-handled faults on missing upper-level tables.");

    banner("Table 3 detail — Popcorn-SHM message breakdown on IS (by protocol type)");
    let mut sys = TargetSystem::build(
        stramash_workloads::target::SystemKind::PopcornShm,
        HardwareModel::Shared,
    )
    .expect("boot");
    let pid = sys.spawn(DomainId::X86).expect("spawn");
    use stramash_kernel::system::OsSystem as _;
    run_npb(NpbKind::Is, &mut sys, pid, Class::Small, true).expect("run");
    let counters = sys.base().msg.counters();
    let mut rows = Vec::new();
    for ty in MsgType::ALL {
        let n = counters.of_type(ty);
        if n > 0 {
            rows.push(vec![ty.to_string(), n.to_string()]);
        }
    }
    println!("{}", render_table(&["message type", "count"], &rows));
    println!("total bytes over the ring: {}", counters.total_bytes());
    assert!(
        counters.of_type(MsgType::PageRequest) > counters.of_type(MsgType::MigrationRequest),
        "DSM page traffic must dominate migration handshakes"
    );
}
