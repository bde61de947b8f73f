//! Software distributed shared memory at page granularity.
//!
//! Popcorn-Linux "uses software DSM to provide a single application
//! virtual address space among kernels — passing memory pages as
//! messages" (§6.4). Each domain maps its *own physical copy* of a
//! shared page; coherence is an MSI-style page state machine driven by
//! page faults:
//!
//! * read fault on a remote-owned page → request/response messages, the
//!   page is **replicated** and both copies map read-only,
//! * write fault → the writer obtains exclusive ownership; every other
//!   copy is invalidated (unmapped) by message.
//!
//! The per-page replication and message counts feed Table 3; the
//! "always local after replication" property is what makes Popcorn-SHM
//! insensitive to the hardware model (§9.2.1).

use std::collections::HashMap;
use stramash_mem::PhysAddr;
use stramash_sim::DomainId;

/// Coherence state of one DSM page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DsmPageState {
    /// One domain holds the only valid, writable copy.
    Exclusive(DomainId),
    /// Both domains hold read-only replicas.
    SharedBoth,
}

/// Per-page DSM bookkeeping.
#[derive(Debug, Clone, Copy)]
pub struct DsmPage {
    /// The physical copy each domain owns (allocated lazily).
    pub frames: [Option<PhysAddr>; 2],
    /// Current coherence state.
    pub state: DsmPageState,
}

/// The DSM directory of one process's address space.
#[derive(Debug, Default)]
pub struct DsmDirectory {
    pages: HashMap<u64, DsmPage>,
    replications: u64,
    invalidations: u64,
}

impl DsmDirectory {
    /// Creates an empty directory.
    #[must_use]
    pub fn new() -> Self {
        DsmDirectory::default()
    }

    /// Looks up a page's entry.
    #[must_use]
    pub fn page(&self, vpn: u64) -> Option<&DsmPage> {
        self.pages.get(&vpn)
    }

    /// Mutable page entry.
    pub fn page_mut(&mut self, vpn: u64) -> Option<&mut DsmPage> {
        self.pages.get_mut(&vpn)
    }

    /// Records the first allocation of a page, exclusively owned.
    pub fn insert_exclusive(&mut self, vpn: u64, owner: DomainId, frame: PhysAddr) {
        let mut frames = [None, None];
        frames[owner.index()] = Some(frame);
        self.pages.insert(vpn, DsmPage { frames, state: DsmPageState::Exclusive(owner) });
    }

    /// Removes a page's entry (munmap / teardown), returning it.
    pub fn remove(&mut self, vpn: u64) -> Option<DsmPage> {
        self.pages.remove(&vpn)
    }

    /// Records a replication event (a page copy crossed kernels).
    pub fn count_replication(&mut self) {
        self.replications += 1;
    }

    /// Records an invalidation event.
    pub fn count_invalidation(&mut self) {
        self.invalidations += 1;
    }

    /// Pages replicated so far (the Table 3 "Replicated Pages" column).
    #[must_use]
    pub fn replications(&self) -> u64 {
        self.replications
    }

    /// Invalidations sent so far.
    #[must_use]
    pub fn invalidations(&self) -> u64 {
        self.invalidations
    }

    /// Number of pages the directory tracks.
    #[must_use]
    pub fn tracked_pages(&self) -> usize {
        self.pages.len()
    }

    /// Iterates over every tracked page (used by the invariant auditor).
    pub fn iter(&self) -> impl Iterator<Item = (u64, &DsmPage)> {
        self.pages.iter().map(|(vpn, page)| (*vpn, page))
    }

    /// Resets the event counters (page state is preserved).
    pub fn reset_counters(&mut self) {
        self.replications = 0;
        self.invalidations = 0;
    }

    /// Fails the directory over after `dead`'s kernel died: every page
    /// falls back to the surviving domain's copy. Pages the dead domain
    /// held exclusively lose their only valid copy and are dropped (the
    /// survivor re-faults them as fresh zero pages); shared pages and
    /// survivor-exclusive pages just shed the dead replica. Returns
    /// `(pages lost, replicas shed)`.
    pub fn fail_over(&mut self, dead: DomainId) -> (u64, u64) {
        let survivor = dead.other();
        let mut lost = 0;
        let mut shed = 0;
        self.pages.retain(|_, p| {
            if p.state == DsmPageState::Exclusive(dead) {
                lost += 1;
                return false;
            }
            if p.frames[dead.index()].take().is_some() {
                shed += 1;
            }
            p.state = DsmPageState::Exclusive(survivor);
            true
        });
        self.invalidations += shed;
        (lost, shed)
    }

    /// Serializes the directory (pages in vpn order, then the event
    /// counters) into a checkpoint section.
    pub fn save_state(&self, e: &mut stramash_sim::checkpoint::Encoder) {
        e.tag(0x4453_4d44); // "DSMD"
        let mut vpns: Vec<u64> = self.pages.keys().copied().collect();
        vpns.sort_unstable();
        e.u64(vpns.len() as u64);
        for vpn in vpns {
            let p = &self.pages[&vpn];
            e.u64(vpn);
            for f in p.frames {
                e.opt_u64(f.map(|pa| pa.raw()));
            }
            match p.state {
                DsmPageState::Exclusive(d) => e.u8(d.index() as u8),
                DsmPageState::SharedBoth => e.u8(2),
            }
        }
        e.u64(self.replications);
        e.u64(self.invalidations);
    }

    /// Restores a directory written by [`DsmDirectory::save_state`].
    ///
    /// # Errors
    ///
    /// Decoding errors.
    pub fn load_state(
        d: &mut stramash_sim::checkpoint::Decoder<'_>,
    ) -> Result<Self, stramash_sim::checkpoint::CheckpointError> {
        use stramash_sim::checkpoint::CheckpointError;
        d.tag(0x4453_4d44)?;
        let n = d.len()?;
        let mut pages = HashMap::with_capacity(n);
        for _ in 0..n {
            let vpn = d.u64()?;
            let mut frames = [None, None];
            for f in &mut frames {
                *f = d.opt_u64()?.map(PhysAddr::new);
            }
            let state = match d.u8()? {
                0 => DsmPageState::Exclusive(DomainId::X86),
                1 => DsmPageState::Exclusive(DomainId::ARM),
                2 => DsmPageState::SharedBoth,
                _ => return Err(CheckpointError::Malformed("unknown DSM page state")),
            };
            pages.insert(vpn, DsmPage { frames, state });
        }
        Ok(DsmDirectory { pages, replications: d.u64()?, invalidations: d.u64()? })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exclusive_insert_and_lookup() {
        let mut d = DsmDirectory::new();
        d.insert_exclusive(5, DomainId::X86, PhysAddr::new(0x4000));
        let p = d.page(5).unwrap();
        assert_eq!(p.state, DsmPageState::Exclusive(DomainId::X86));
        assert_eq!(p.frames[0], Some(PhysAddr::new(0x4000)));
        assert_eq!(p.frames[1], None);
        assert!(d.page(6).is_none());
        assert_eq!(d.tracked_pages(), 1);
    }

    #[test]
    fn counters() {
        let mut d = DsmDirectory::new();
        d.count_replication();
        d.count_replication();
        d.count_invalidation();
        assert_eq!(d.replications(), 2);
        assert_eq!(d.invalidations(), 1);
        d.reset_counters();
        assert_eq!(d.replications(), 0);
    }

    #[test]
    fn state_transitions_via_page_mut() {
        let mut d = DsmDirectory::new();
        d.insert_exclusive(1, DomainId::ARM, PhysAddr::new(0x8000));
        let p = d.page_mut(1).unwrap();
        p.frames[0] = Some(PhysAddr::new(0x9000));
        p.state = DsmPageState::SharedBoth;
        assert_eq!(d.page(1).unwrap().state, DsmPageState::SharedBoth);
    }
}
