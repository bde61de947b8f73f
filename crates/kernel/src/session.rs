//! Translation sessions: the kernel half of the batched memory pipeline.
//!
//! Every scalar `ld`/`st` pays one process-table probe and one
//! [`SoftTlb`] lookup (`OsSystem::translate`). Inside a tight workload
//! loop that cost dwarfs the simulated cache model itself. An
//! [`AccessSession`] amortises it: the `(pid, domain)` resolution
//! happens once per batch, and page→frame translations are cached in a
//! direct-mapped array that a loop refills at most once per page. It is
//! the only translation cache above the TLB: batched element ops and
//! the plan segments of `plan_map_indexed`, which time their
//! session-hit elements in place, both look up here.
//!
//! Correctness leans on one invariant: **a session entry is always a
//! copy of a live [`SoftTlb`] entry of the same `(process, domain)`**.
//! Any event that could stale a TLB entry — migration (flush), `munmap`,
//! `mprotect`, a DSM ownership transfer, a Stramash PTE reconfiguration
//! — already goes through [`SoftTlb::invalidate`]/[`SoftTlb::flush`],
//! which bump the TLB's generation counter. The session remembers the
//! generation it was filled under; the moment it observes a newer one
//! it bumps its own stamp, and entries tagged with an older stamp never
//! hit again, so it can never return a frame the TLB no longer vouches
//! for. Timing is unchanged: a session hit corresponds exactly to a
//! (zero-cycle) TLB hit on the scalar path, and a session miss falls
//! back to the ordinary counted, timed `translate`.
//!
//! [`SoftTlb`]: crate::process::SoftTlb
//! [`SoftTlb::invalidate`]: crate::process::SoftTlb::invalidate
//! [`SoftTlb::flush`]: crate::process::SoftTlb::flush

use crate::addr::{VirtAddr, PAGE_SIZE};
use crate::process::{Pid, Process};
use stramash_mem::PhysAddr;
use stramash_sim::DomainId;

/// Number of slots in the direct-mapped translation cache: 4096 pages
/// cover 16 MiB of loop working set, so IS Small's ranking loop (keys
/// and sorted arrays of 4 MiB each plus the histogram, about 2 050
/// pages) never evicts its own translations. With 256 slots the keys
/// and sorted pages alias and the plan segments fall back to the
/// element path on most pages (IS ran 25 % slower on the host).
const SLOTS: usize = 4096;

#[derive(Debug, Clone, Copy)]
struct SessionEntry {
    vpn: u64,
    page_pa: PhysAddr,
    /// The session stamp the entry was filled under; it hits only while
    /// the session still carries that stamp.
    stamp: u64,
    writable: bool,
}

impl SessionEntry {
    const VACANT: SessionEntry =
        SessionEntry { vpn: 0, page_pa: PhysAddr::new(0), stamp: 0, writable: false };
}

/// A per-client translation cache over one process's software TLB.
///
/// Created once (it is plain state — no borrows) and revalidated at
/// the top of every batch via `OsSystem::session_begin`; individual
/// translations go through `OsSystem::session_translate`.
#[derive(Debug, Clone)]
pub struct AccessSession {
    pid: Pid,
    domain: DomainId,
    generation: u64,
    valid: bool,
    /// Bumped whenever every entry must die (`clear`, a domain or TLB
    /// generation change), so dropping the table costs O(1) instead of
    /// a 128 KiB refill per TLB shootdown. Starts at 1: vacant slots
    /// carry stamp 0 and never hit.
    stamp: u64,
    entries: Box<[SessionEntry; SLOTS]>,
}

impl AccessSession {
    /// Creates an (invalid) session for `pid`; the first
    /// `session_begin` adopts the process's current domain and TLB
    /// generation.
    #[must_use]
    pub fn new(pid: Pid) -> Self {
        AccessSession {
            pid,
            domain: DomainId::X86,
            generation: 0,
            valid: false,
            stamp: 1,
            entries: Box::new([SessionEntry::VACANT; SLOTS]),
        }
    }

    /// The process this session translates for.
    #[must_use]
    pub fn pid(&self) -> Pid {
        self.pid
    }

    /// The domain adopted at the last revalidation.
    #[must_use]
    pub fn domain(&self) -> DomainId {
        self.domain
    }

    /// Whether the session currently holds any usable state.
    #[must_use]
    pub fn is_valid(&self) -> bool {
        self.valid
    }

    /// Drops every cached translation.
    pub fn clear(&mut self) {
        self.valid = false;
        self.stamp += 1;
    }

    /// Syncs the session with `proc`'s current domain and TLB
    /// generation, dropping all cached translations if either moved.
    /// Returns the (possibly new) domain.
    pub fn revalidate(&mut self, proc: &Process) -> DomainId {
        let domain = proc.current;
        let generation = proc.tlb(domain).generation();
        if !self.valid || self.domain != domain || self.generation != generation {
            self.stamp += 1;
            self.domain = domain;
            self.generation = generation;
            self.valid = true;
        }
        domain
    }

    /// Cached translation of the page containing `va`, if present and
    /// adequate for the access (`write` requires a writable mapping).
    #[must_use]
    pub fn lookup(&self, va: VirtAddr, write: bool) -> Option<PhysAddr> {
        debug_assert!(self.valid, "session used before session_begin");
        let vpn = va.vpn();
        let e = &self.entries[(vpn as usize) & (SLOTS - 1)];
        if e.vpn == vpn && e.stamp == self.stamp && (!write || e.writable) {
            Some(e.page_pa.offset(va.page_offset()))
        } else {
            None
        }
    }

    /// Installs a translation copied from the live TLB.
    pub fn insert(&mut self, va: VirtAddr, page_pa: PhysAddr, writable: bool) {
        let vpn = va.vpn();
        self.entries[(vpn as usize) & (SLOTS - 1)] = SessionEntry {
            vpn,
            page_pa: page_pa.align_down(PAGE_SIZE),
            stamp: self.stamp,
            writable,
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::FrameAllocator;
    use crate::pagetable::PageTable;
    use stramash_isa::IsaKind;
    use stramash_mem::MemorySystem;
    use stramash_sim::SimConfig;

    fn proc() -> Process {
        let mut mem = MemorySystem::new(SimConfig::big_pair()).unwrap();
        let mut frames = FrameAllocator::new();
        frames.add_region(PhysAddr::new(0x10_0000), 1 << 20).unwrap();
        let pt = PageTable::new(&mut mem, &mut frames, IsaKind::X86_64).unwrap();
        Process::new(Pid(1), DomainId::X86, pt, PhysAddr::new(0x1000), PhysAddr::new(0x1008))
    }

    #[test]
    fn lookup_respects_writability_and_slots() {
        let mut s = AccessSession::new(Pid(1));
        s.valid = true; // unit-test shortcut; OS layers use revalidate
        let va = VirtAddr::new(0x4000_0123);
        assert!(s.lookup(va, false).is_none());
        s.insert(va, PhysAddr::new(0x55_4321), false);
        // Page-granular, offset re-applied, write filtered.
        assert_eq!(s.lookup(va, false).unwrap().raw(), 0x55_4000 + 0x123);
        assert!(s.lookup(va, true).is_none());
        s.insert(va, PhysAddr::new(0x55_4000), true);
        assert!(s.lookup(va, true).is_some());
    }

    #[test]
    fn vpn_slots_pages_apart_evicts_the_first() {
        let mut s = AccessSession::new(Pid(1));
        s.valid = true;
        let va = VirtAddr::new(0x4000_0123);
        s.insert(va, PhysAddr::new(0x55_4000), true);
        // One page short of a full wrap maps to a different slot.
        let neighbour = VirtAddr::new(va.raw() + (SLOTS as u64 - 1) * PAGE_SIZE);
        s.insert(neighbour, PhysAddr::new(0x77_0000), true);
        assert!(s.lookup(va, false).is_some());
        let alias = VirtAddr::new(va.raw() + (SLOTS as u64) * PAGE_SIZE);
        s.insert(alias, PhysAddr::new(0x99_0000), true);
        assert!(s.lookup(va, false).is_none());
        assert_eq!(s.lookup(alias, false).unwrap().raw(), 0x99_0123);
        assert!(s.lookup(neighbour, false).is_some());
    }

    #[test]
    fn clear_drops_everything() {
        let mut s = AccessSession::new(Pid(2));
        s.valid = true;
        let va = VirtAddr::new(0x1000);
        s.insert(va, PhysAddr::new(0x9000), true);
        s.clear();
        assert!(!s.is_valid());
        s.valid = true;
        assert!(s.lookup(va, false).is_none(), "a cleared entry must never hit again");
    }

    #[test]
    fn generation_change_drops_entries_inserted_before() {
        let mut p = proc();
        let mut s = AccessSession::new(p.pid);
        s.revalidate(&p);
        let (a, b) = (VirtAddr::new(0x4000_0000), VirtAddr::new(0x4000_1000));
        s.insert(a, PhysAddr::new(0x20_0000), true);
        s.insert(b, PhysAddr::new(0x20_1000), true);
        // An unchanged TLB keeps the entries.
        s.revalidate(&p);
        assert!(s.lookup(a, true).is_some());
        p.tlb_mut(DomainId::X86).invalidate(a);
        s.revalidate(&p);
        assert!(s.lookup(a, false).is_none());
        assert!(s.lookup(b, false).is_none(), "every pre-shootdown entry dies");
        // Entries inserted under the new stamp hit again.
        s.insert(b, PhysAddr::new(0x20_1000), false);
        assert_eq!(s.lookup(b, false).unwrap().raw(), 0x20_1000);
    }

    #[test]
    fn domain_change_drops_every_entry() {
        let mut p = proc();
        let mut s = AccessSession::new(p.pid);
        assert_eq!(s.revalidate(&p), DomainId::X86);
        let vas: Vec<VirtAddr> =
            (0..64).map(|i| VirtAddr::new(0x4000_0000 + i * PAGE_SIZE)).collect();
        for (i, &va) in vas.iter().enumerate() {
            s.insert(va, PhysAddr::new(0x30_0000 + i as u64 * PAGE_SIZE), true);
        }
        // Same TLB generation (0) on both domains: only the domain moves.
        p.current = DomainId::ARM;
        assert_eq!(s.revalidate(&p), DomainId::ARM);
        assert!(vas.iter().all(|&va| s.lookup(va, false).is_none()));
    }
}
