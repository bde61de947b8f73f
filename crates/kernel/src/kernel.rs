//! Kernel instances.
//!
//! One [`KernelInstance`] per ISA domain, each with its own frame
//! allocator (its boot-time private memory, §6.1), futex table and
//! atomics configuration.

use crate::frame::FrameAllocator;
use crate::futex::FutexTable;
use stramash_isa::atomic::AtomicModel;
use stramash_isa::IsaKind;
use stramash_sim::DomainId;

/// Per-kernel fault/operation counters used by the experiment reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelCounters {
    /// Page faults handled locally by this kernel.
    pub local_faults: u64,
    /// Faults for which this kernel touched the *other* kernel's page
    /// table directly (Stramash remote path).
    pub remote_pt_inserts: u64,
    /// Faults resolved by the origin kernel on our behalf via messages
    /// (Popcorn always; Stramash only for missing upper tables, §9.2.3).
    pub origin_handled_faults: u64,
    /// Pages whose contents were replicated to this kernel (DSM).
    pub replicated_pages: u64,
    /// DSM invalidations received.
    pub dsm_invalidations: u64,
    /// Futex operations performed by threads on this kernel.
    pub futex_ops: u64,
    /// Thread migrations into this kernel.
    pub migrations_in: u64,
}

/// One kernel instance of the pair.
#[derive(Debug)]
pub struct KernelInstance {
    /// The domain this kernel runs on.
    pub domain: DomainId,
    /// The kernel's ISA.
    pub isa: IsaKind,
    /// Physical frame allocator over the kernel's owned regions.
    pub frames: FrameAllocator,
    /// This kernel's futex table ("Futex locking list", §6.5).
    pub futexes: FutexTable,
    /// Atomics configuration (LSE on, per the paper).
    pub atomics: AtomicModel,
    /// Experiment counters.
    pub counters: KernelCounters,
}

impl KernelInstance {
    /// Creates a kernel for `domain` with no memory yet (the boot layer
    /// assigns regions).
    #[must_use]
    pub fn new(domain: DomainId) -> Self {
        let isa = IsaKind::of_domain(domain);
        KernelInstance {
            domain,
            isa,
            frames: FrameAllocator::new(),
            futexes: FutexTable::new(),
            atomics: AtomicModel::paper_default(isa),
            counters: KernelCounters::default(),
        }
    }

    /// Serializes the kernel's mutable state (frames, futexes,
    /// counters) into a checkpoint section. The atomics model is boot
    /// configuration and is rebuilt, not restored.
    pub fn save_state(&self, e: &mut stramash_sim::checkpoint::Encoder) {
        e.tag(0x4b52_4e4c); // "KRNL"
        e.u8(self.domain.index() as u8);
        self.frames.save_state(e);
        self.futexes.save_state(e);
        let c = &self.counters;
        for v in [
            c.local_faults,
            c.remote_pt_inserts,
            c.origin_handled_faults,
            c.replicated_pages,
            c.dsm_invalidations,
            c.futex_ops,
            c.migrations_in,
        ] {
            e.u64(v);
        }
    }

    /// Restores state written by [`KernelInstance::save_state`].
    ///
    /// # Errors
    ///
    /// Decoding errors; `KindMismatch` if the section belongs to the
    /// other domain's kernel.
    pub fn load_state(
        &mut self,
        d: &mut stramash_sim::checkpoint::Decoder<'_>,
    ) -> Result<(), stramash_sim::checkpoint::CheckpointError> {
        use stramash_sim::checkpoint::CheckpointError;
        d.tag(0x4b52_4e4c)?;
        if d.u8()? != self.domain.index() as u8 {
            return Err(CheckpointError::KindMismatch);
        }
        self.frames.load_state(d)?;
        self.futexes.load_state(d)?;
        self.counters = KernelCounters {
            local_faults: d.u64()?,
            remote_pt_inserts: d.u64()?,
            origin_handled_faults: d.u64()?,
            replicated_pages: d.u64()?,
            dsm_invalidations: d.u64()?,
            futex_ops: d.u64()?,
            migrations_in: d.u64()?,
        };
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stramash_isa::atomic::cross_isa_atomics_sound;

    #[test]
    fn kernels_get_their_domains_isa() {
        let x = KernelInstance::new(DomainId::X86);
        let a = KernelInstance::new(DomainId::ARM);
        assert_eq!(x.isa, IsaKind::X86_64);
        assert_eq!(a.isa, IsaKind::Aarch64);
    }

    #[test]
    fn paper_pair_is_lock_sound() {
        let x = KernelInstance::new(DomainId::X86);
        let a = KernelInstance::new(DomainId::ARM);
        assert!(cross_isa_atomics_sound(&x.atomics, &a.atomics));
    }
}
