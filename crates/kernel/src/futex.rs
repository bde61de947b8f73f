//! Futex (fast userspace mutex) support.
//!
//! §6.5: Popcorn-Linux "relies on the origin kernel to create and control
//! all Futex instances", requiring a message round-trip per remote
//! operation. Stramash-Linux instead "allows the remote kernel to
//! directly access the Futex locking list" and only sends a cross-ISA
//! IPI when a waiter on the other kernel must be woken.
//!
//! This module is the shared substrate: the per-kernel futex table with
//! wait queues. How a *remote* operation reaches the table (message
//! protocol vs direct shared-memory access) is decided by the OS layers.

use crate::addr::VirtAddr;
use std::collections::VecDeque;
use stramash_sim::{DomainId, IntMap};

/// Identifier of a (simulated) thread blocked on a futex.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ThreadId(pub u64);

/// A waiter entry: which thread, and which domain it sleeps on (wakeups
/// across domains need a cross-ISA IPI, §6.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Waiter {
    /// The blocked thread.
    pub thread: ThreadId,
    /// The domain whose scheduler must be poked to wake it.
    pub domain: DomainId,
}

/// The futex table of one kernel instance ("the Futex locking list").
///
/// # Examples
///
/// ```
/// use stramash_kernel::addr::VirtAddr;
/// use stramash_kernel::futex::{FutexTable, ThreadId, Waiter};
/// use stramash_sim::DomainId;
///
/// let mut futexes = FutexTable::new();
/// let uaddr = VirtAddr::new(0x6000);
/// futexes.wait(uaddr, Waiter { thread: ThreadId(1), domain: DomainId::ARM });
/// // The §6.5 wake path: a cross-domain waiter needs a cross-ISA IPI.
/// let woken = futexes.wake_one(uaddr).unwrap();
/// assert_eq!(woken.domain, DomainId::ARM);
/// ```
#[derive(Debug, Clone, Default)]
pub struct FutexTable {
    queues: IntMap<u64, VecDeque<Waiter>>,
}

impl FutexTable {
    /// Creates an empty table.
    #[must_use]
    pub fn new() -> Self {
        FutexTable::default()
    }

    /// Enqueues `waiter` on the futex at user address `uaddr`.
    pub fn wait(&mut self, uaddr: VirtAddr, waiter: Waiter) {
        self.queues.entry(uaddr.raw()).or_default().push_back(waiter);
    }

    /// Dequeues the longest-waiting thread on `uaddr`, if any.
    pub fn wake_one(&mut self, uaddr: VirtAddr) -> Option<Waiter> {
        let q = self.queues.get_mut(&uaddr.raw())?;
        let w = q.pop_front();
        if q.is_empty() {
            self.queues.remove(&uaddr.raw());
        }
        w
    }

    /// Number of threads currently blocked on `uaddr`.
    #[must_use]
    pub fn waiters(&self, uaddr: VirtAddr) -> usize {
        self.queues.get(&uaddr.raw()).map_or(0, VecDeque::len)
    }

    /// Removes every waiter sleeping on the dead domain and returns the
    /// *surviving* waiters that were queued behind them, per futex — the
    /// watchdog wakes these with `OwnerDied` so a lock word owned by the
    /// crashed domain cannot block the survivor forever.
    ///
    /// Returned pairs are sorted by futex address for determinism.
    pub fn drain_domain(&mut self, dead: DomainId) -> Vec<(u64, Waiter)> {
        let mut orphaned = Vec::new();
        let mut empty = Vec::new();
        let mut addrs: Vec<u64> = self.queues.keys().copied().collect();
        addrs.sort_unstable();
        for uaddr in addrs {
            let q = self.queues.get_mut(&uaddr).expect("key just listed");
            let had_dead = q.iter().any(|w| w.domain == dead);
            q.retain(|w| w.domain != dead);
            if had_dead {
                // Survivors on a poisoned futex get woken with OwnerDied.
                orphaned.extend(q.drain(..).map(|w| (uaddr, w)));
            }
            if q.is_empty() {
                empty.push(uaddr);
            }
        }
        for uaddr in empty {
            self.queues.remove(&uaddr);
        }
        orphaned
    }

    /// Serializes the table (queues in futex-address order) into a
    /// checkpoint section.
    pub fn save_state(&self, e: &mut stramash_sim::checkpoint::Encoder) {
        e.tag(0x4654_5851); // "FTXQ"
        let mut addrs: Vec<u64> = self.queues.keys().copied().collect();
        addrs.sort_unstable();
        e.u64(addrs.len() as u64);
        for uaddr in addrs {
            e.u64(uaddr);
            let q = &self.queues[&uaddr];
            e.u64(q.len() as u64);
            for w in q {
                e.u64(w.thread.0);
                e.domain(w.domain);
            }
        }
    }

    /// Restores a table written by [`FutexTable::save_state`].
    ///
    /// # Errors
    ///
    /// Decoding errors.
    pub fn load_state(
        &mut self,
        d: &mut stramash_sim::checkpoint::Decoder<'_>,
    ) -> Result<(), stramash_sim::checkpoint::CheckpointError> {
        d.tag(0x4654_5851)?;
        let n = d.len()?;
        let mut queues = IntMap::with_capacity_and_hasher(n, Default::default());
        for _ in 0..n {
            let uaddr = d.u64()?;
            let m = d.len()?;
            let mut q = VecDeque::with_capacity(m);
            for _ in 0..m {
                let thread = ThreadId(d.u64()?);
                q.push_back(Waiter { thread, domain: d.domain()? });
            }
            queues.insert(uaddr, q);
        }
        self.queues = queues;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const UADDR: VirtAddr = VirtAddr::new(0x6000);

    fn waiter(id: u64, domain: DomainId) -> Waiter {
        Waiter { thread: ThreadId(id), domain }
    }

    #[test]
    fn fifo_wake_order() {
        let mut t = FutexTable::new();
        t.wait(UADDR, waiter(1, DomainId::X86));
        t.wait(UADDR, waiter(2, DomainId::ARM));
        assert_eq!(t.waiters(UADDR), 2);
        assert_eq!(t.wake_one(UADDR).unwrap().thread, ThreadId(1));
        assert_eq!(t.wake_one(UADDR).unwrap().thread, ThreadId(2));
        assert_eq!(t.wake_one(UADDR), None);
        assert_eq!(t.waiters(UADDR), 0);
    }

    #[test]
    fn independent_futexes() {
        let mut t = FutexTable::new();
        t.wait(UADDR, waiter(1, DomainId::X86));
        t.wait(VirtAddr::new(0x7000), waiter(2, DomainId::ARM));
        assert_eq!(t.wake_one(VirtAddr::new(0x7000)).unwrap().thread, ThreadId(2));
        assert_eq!(t.waiters(VirtAddr::new(0x7000)), 0);
        assert_eq!(t.waiters(UADDR), 1);
    }

    #[test]
    fn waiter_domain_is_preserved_for_cross_isa_wake() {
        // §6.5: "if the thread is currently waiting in the origin kernel,
        // the remote kernel sends a cross-ISA IPI" — the wake path needs
        // the waiter's domain to decide this.
        let mut t = FutexTable::new();
        t.wait(UADDR, waiter(9, DomainId::ARM));
        assert_eq!(t.wake_one(UADDR).unwrap().domain, DomainId::ARM);
    }
}
