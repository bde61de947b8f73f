//! Typed application-side memory access.
//!
//! Workloads are real algorithms whose every load and store travels
//! through the simulated OS and memory system. [`MemoryClient`] wraps an
//! [`OsSystem`] + [`Pid`] with typed array helpers and instruction
//! accounting, playing the role of the compiled NPB binary running on
//! the machine.

use std::ops::Range;
use stramash_kernel::addr::VirtAddr;
use stramash_kernel::process::Pid;
use stramash_kernel::session::AccessSession;
use stramash_kernel::system::{OsError, OsSystem};
use stramash_kernel::vma::VmaProt;
use stramash_mem::{Access, AccessKind, MemorySystem, PhysAddr};
use stramash_sim::{Cycles, DomainId};

/// A virtually-addressed `f64` array owned by the process.
#[derive(Debug, Clone, Copy)]
pub struct ArrayF64 {
    base: VirtAddr,
    len: u64,
}

impl ArrayF64 {
    /// Rebuilds a handle from its raw parts (checkpoint restore).
    #[must_use]
    pub fn from_raw(base: VirtAddr, len: u64) -> Self {
        ArrayF64 { base, len }
    }

    /// Base address of element 0.
    #[must_use]
    pub fn base(&self) -> VirtAddr {
        self.base
    }

    /// Element count.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the array is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Address of element `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[must_use]
    pub fn at(&self, i: u64) -> VirtAddr {
        assert!(i < self.len, "index {i} out of bounds ({})", self.len);
        self.base.offset(i * 8)
    }
}

/// A virtually-addressed `u64` array owned by the process.
#[derive(Debug, Clone, Copy)]
pub struct ArrayU64 {
    base: VirtAddr,
    len: u64,
}

impl ArrayU64 {
    /// Rebuilds a handle from its raw parts (checkpoint restore).
    #[must_use]
    pub fn from_raw(base: VirtAddr, len: u64) -> Self {
        ArrayU64 { base, len }
    }

    /// Base address of element 0.
    #[must_use]
    pub fn base(&self) -> VirtAddr {
        self.base
    }

    /// Element count.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the array is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Address of element `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[must_use]
    pub fn at(&self, i: u64) -> VirtAddr {
        assert!(i < self.len, "index {i} out of bounds ({})", self.len);
        self.base.offset(i * 8)
    }
}

/// Batched instruction accounting: retiring per-op would call into the
/// timebase constantly, so the client accumulates and flushes.
const EXEC_FLUSH: u64 = 4096;

/// The application's view of the machine.
///
/// # Examples
///
/// ```
/// use stramash_kernel::system::VanillaSystem;
/// use stramash_sim::{DomainId, SimConfig};
/// use stramash_workloads::MemoryClient;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut sys = VanillaSystem::new(SimConfig::big_pair())?;
/// let pid = sys.spawn(DomainId::X86)?;
/// let mut app = MemoryClient::new(&mut sys, pid);
/// let xs = app.alloc_f64(128)?;
/// app.st_f64(xs, 0, 3.5)?;
/// app.work(12)?; // twelve compute instructions
/// assert_eq!(app.ld_f64(xs, 0)?, 3.5);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct MemoryClient<'a, S: OsSystem> {
    sys: &'a mut S,
    pid: Pid,
    pending_insns: u64,
    /// Translation session backing [`MemoryClient::batch`] scopes.
    session: AccessSession,
}

impl<'a, S: OsSystem> MemoryClient<'a, S> {
    /// Wraps a system and process.
    pub fn new(sys: &'a mut S, pid: Pid) -> Self {
        let session = AccessSession::new(pid);
        MemoryClient { sys, pid, pending_insns: 0, session }
    }

    /// The wrapped process id.
    #[must_use]
    pub fn pid(&self) -> Pid {
        self.pid
    }

    /// The underlying system.
    pub fn system(&mut self) -> &mut S {
        self.sys
    }

    /// Allocates an `f64` array (lazily populated on fault).
    ///
    /// # Errors
    ///
    /// VMA errors.
    pub fn alloc_f64(&mut self, len: u64) -> Result<ArrayF64, OsError> {
        let base = self.sys.mmap(self.pid, len * 8, VmaProt::rw())?;
        Ok(ArrayF64 { base, len })
    }

    /// Allocates a `u64` array.
    ///
    /// # Errors
    ///
    /// VMA errors.
    pub fn alloc_u64(&mut self, len: u64) -> Result<ArrayU64, OsError> {
        let base = self.sys.mmap(self.pid, len * 8, VmaProt::rw())?;
        Ok(ArrayU64 { base, len })
    }

    /// Loads `a[i]`.
    ///
    /// # Errors
    ///
    /// Translation errors.
    pub fn ld_f64(&mut self, a: ArrayF64, i: u64) -> Result<f64, OsError> {
        self.sys.load_f64(self.pid, a.at(i))
    }

    /// Stores `a[i] = v`.
    ///
    /// # Errors
    ///
    /// Translation errors.
    pub fn st_f64(&mut self, a: ArrayF64, i: u64, v: f64) -> Result<(), OsError> {
        self.sys.store_f64(self.pid, a.at(i), v)
    }

    /// Loads `a[i]`.
    ///
    /// # Errors
    ///
    /// Translation errors.
    pub fn ld_u64(&mut self, a: ArrayU64, i: u64) -> Result<u64, OsError> {
        self.sys.load_u64(self.pid, a.at(i))
    }

    /// Stores `a[i] = v`.
    ///
    /// # Errors
    ///
    /// Translation errors.
    pub fn st_u64(&mut self, a: ArrayU64, i: u64, v: u64) -> Result<(), OsError> {
        self.sys.store_u64(self.pid, a.at(i), v)
    }

    /// Accounts `n` compute instructions (flushed in batches).
    ///
    /// # Errors
    ///
    /// Process-lookup errors on flush.
    pub fn work(&mut self, n: u64) -> Result<(), OsError> {
        self.pending_insns += n;
        if self.pending_insns >= EXEC_FLUSH {
            let pending = self.pending_insns;
            self.pending_insns = 0;
            self.sys.exec(self.pid, pending)?;
        }
        Ok(())
    }

    /// Flushes any pending instruction count.
    ///
    /// # Errors
    ///
    /// Process-lookup errors.
    pub fn flush_work(&mut self) -> Result<(), OsError> {
        if self.pending_insns > 0 {
            let pending = self.pending_insns;
            self.pending_insns = 0;
            self.sys.exec(self.pid, pending)?;
        }
        Ok(())
    }

    /// Migrates the thread (flushing pending work first so instructions
    /// are charged to the domain that executed them).
    ///
    /// # Errors
    ///
    /// Migration errors.
    pub fn migrate(&mut self, to: DomainId) -> Result<(), OsError> {
        self.flush_work()?;
        self.sys.migrate(self.pid, to)?;
        Ok(())
    }

    /// The executing domain.
    ///
    /// # Errors
    ///
    /// Process-lookup errors.
    pub fn domain(&self) -> Result<DomainId, OsError> {
        self.sys.current_domain(self.pid)
    }

    /// Opens a batched-access scope over the client's translation
    /// session: the `(pid, domain)` resolution and session revalidation
    /// happen here, once, and every op on the returned scope reuses
    /// them. Cycle-identical to issuing the equivalent scalar ops —
    /// the unit tests hold every scope op against an explicit scalar
    /// loop — but much faster on the host.
    ///
    /// Nothing inside a scope may migrate or unmap: those go through
    /// [`MemoryClient::migrate`] / the system directly, after the scope
    /// is dropped. Page faults *inside* a scope are fine — the session
    /// resynchronises with the TLB after every fallback translation.
    ///
    /// # Errors
    ///
    /// Process-lookup errors.
    pub fn batch(&mut self) -> Result<BatchScope<'_, 'a, S>, OsError> {
        self.sys.session_begin(&mut self.session)?;
        Ok(BatchScope { c: self })
    }
}

/// A batched-access scope; see [`MemoryClient::batch`].
///
/// Element ops (`ld_f64`, `st_u64`, …) mirror the scalar client ops
/// one-for-one; [`BatchScope::plan_map_indexed`] runs a whole loop as a
/// plan segment whose per-element access order is exactly the scalar
/// loop's.
#[derive(Debug)]
pub struct BatchScope<'c, 'a, S: OsSystem> {
    c: &'c mut MemoryClient<'a, S>,
}

impl<S: OsSystem> BatchScope<'_, '_, S> {
    /// Translates through the session and performs one timed element
    /// read.
    fn ld_word(&mut self, va: VirtAddr) -> Result<u64, OsError> {
        let (pa, _) = self.c.sys.session_translate(&mut self.c.session, va, false)?;
        let domain = self.c.session.domain();
        let base = self.c.sys.base_mut();
        let (v, cyc) = base.mem.read_u64(domain, pa);
        base.charge(domain, cyc);
        Ok(v)
    }

    /// Translates through the session and performs one timed element
    /// write.
    fn st_word(&mut self, va: VirtAddr, v: u64) -> Result<(), OsError> {
        let (pa, _) = self.c.sys.session_translate(&mut self.c.session, va, true)?;
        let domain = self.c.session.domain();
        let base = self.c.sys.base_mut();
        let cyc = base.mem.write_u64(domain, pa, v);
        base.charge(domain, cyc);
        Ok(())
    }

    /// Loads `a[i]`.
    ///
    /// # Errors
    ///
    /// Translation errors.
    pub fn ld_f64(&mut self, a: ArrayF64, i: u64) -> Result<f64, OsError> {
        Ok(f64::from_bits(self.ld_word(a.at(i))?))
    }

    /// Stores `a[i] = v`.
    ///
    /// # Errors
    ///
    /// Translation errors.
    pub fn st_f64(&mut self, a: ArrayF64, i: u64, v: f64) -> Result<(), OsError> {
        self.st_word(a.at(i), v.to_bits())
    }

    /// Loads `a[i]`.
    ///
    /// # Errors
    ///
    /// Translation errors.
    pub fn ld_u64(&mut self, a: ArrayU64, i: u64) -> Result<u64, OsError> {
        self.ld_word(a.at(i))
    }

    /// Stores `a[i] = v`.
    ///
    /// # Errors
    ///
    /// Translation errors.
    pub fn st_u64(&mut self, a: ArrayU64, i: u64, v: u64) -> Result<(), OsError> {
        self.st_word(a.at(i), v)
    }

    /// Accounts compute instructions, exactly like
    /// [`MemoryClient::work`].
    ///
    /// # Errors
    ///
    /// Process-lookup errors on flush.
    pub fn work(&mut self, n: u64) -> Result<(), OsError> {
        self.c.work(n)
    }

    /// Largest window whose per-element `work(work_per)` calls cannot
    /// flush before the last element — so batching the accesses ahead
    /// of the works reorders nothing (the modelled I-fetch stream stays
    /// put). The final element's work may flush, exactly where the
    /// scalar loop would.
    fn flush_cap(&self, work_per: u64) -> usize {
        match (EXEC_FLUSH - 1 - self.c.pending_insns).checked_div(work_per) {
            Some(runs) => (runs + 1) as usize,
            None => usize::MAX,
        }
    }

    // ---- plan segments -----------------------------------------------------

    /// Maps `f` over `i in 0..n` as a plan segment whose columns may
    /// touch data-dependent targets: every column is a [`PlanCol`] whose
    /// element index comes from the loop counter ([`ColSpec::Dense`]),
    /// a host-side index slice ([`ColSpec::Index`]), or a value loaded
    /// by an earlier read column of the same element ([`ColSpec::Value`]
    /// — histogram / rank-scatter indirection). The canonical
    /// per-element order is: load every read column (in array order),
    /// call `f`, store every write column (in array order), account
    /// `work_per` instructions. `f` runs exactly once per element, in
    /// element order, so it may carry state from one element to the next
    /// (an accumulator, a seeded RNG); a translation error stops the
    /// segment at the failing element.
    ///
    /// The column counts `R` and `W` are compile-time constants, so the
    /// per-element values and physical addresses live in stack arrays
    /// and the column loops unroll. Each op resolves through the
    /// client's [`AccessSession`], the one translation cache above the
    /// TLB. An element whose every op is a session hit is timed in
    /// place: one [`MemorySystem::access`] per op in the canonical
    /// order, its cycles added to the window's total. At the end of
    /// each flush window the window's TLB hits are counted, its cycles
    /// charged and its `work` retired in one go. The first element with
    /// a session miss ends the window early and runs through the session
    /// element ops itself (translating, faulting and charging like the
    /// scalar path), which fills the session for later elements.
    ///
    /// Timing is identical to the canonical scalar loop: a session-hit
    /// op performs exactly the access its element op would, and a
    /// window never holds more elements than `flush_cap` allows, so only
    /// its last element's `work` can reach an exec flush and retiring
    /// the window's work in one call flushes exactly where the scalar
    /// loop would. Values flow element-major
    /// through the store, so read-after-write dependences (a write
    /// column aliasing a read column) stay value-exact.
    ///
    /// # Errors
    ///
    /// Translation errors.
    ///
    /// # Panics
    ///
    /// Panics if a resolved element index is out of bounds for its
    /// column (the same panic the scalar loop's `at()` would raise).
    ///
    /// [`MemorySystem::access`]: stramash_mem::MemorySystem::access
    pub fn plan_map_indexed<const R: usize, const W: usize, F>(
        &mut self,
        reads: &[PlanCol; R],
        writes: &[PlanCol; W],
        idx: &[&[u64]],
        n: u64,
        work_per: u64,
        mut f: F,
    ) -> Result<(), OsError>
    where
        F: FnMut(u64, &[u64], &mut [u64]),
    {
        let mut i = 0;
        while i < n {
            let end = n.min(i.saturating_add(self.flush_cap(work_per) as u64));
            let c = &mut *self.c;
            let mem = &mut c.sys.base_mut().mem;
            let (timed, cycles) = time_window(mem, &c.session, reads, writes, idx, i..end, &mut f);
            if timed > 0 {
                self.indexed_flush(timed, cycles, work_per, (R + W) as u64)?;
                i += timed;
            }
            if i < end {
                // Element `i` missed the session: with the window before
                // it charged, it runs through the session element ops.
                self.indexed_element_session(reads, writes, idx, i, work_per, &mut f)?;
                i += 1;
            }
        }
        Ok(())
    }

    /// Ends one flush window of [`BatchScope::plan_map_indexed`]: its
    /// `m` elements of `ops_per` session-hit ops each count as TLB
    /// hits, their summed access latency `cycles` is charged, and
    /// their `work` retires behind the accesses in one call.
    fn indexed_flush(
        &mut self,
        m: u64,
        cycles: Cycles,
        work_per: u64,
        ops_per: u64,
    ) -> Result<(), OsError> {
        let domain = self.c.session.domain();
        let base = self.c.sys.base_mut();
        base.mem.note_tlb_hits(domain, m * ops_per);
        base.charge(domain, cycles);
        self.c.work(m * work_per)
    }

    /// The boundary path of [`BatchScope::plan_map_indexed`]: one
    /// element through the session element ops (the canonical loop
    /// body). Its translations fill the session, so later landings on
    /// the same pages resolve there.
    fn indexed_element_session<const R: usize, const W: usize, F>(
        &mut self,
        reads: &[PlanCol; R],
        writes: &[PlanCol; W],
        idx: &[&[u64]],
        i: u64,
        work_per: u64,
        f: &mut F,
    ) -> Result<(), OsError>
    where
        F: FnMut(u64, &[u64], &mut [u64]),
    {
        let mut rv = [0u64; R];
        for j in 0..R {
            rv[j] = self.ld_word(reads[j].at(reads[j].resolve(i, idx, &rv[..j])))?;
        }
        let mut wv = [0u64; W];
        f(i, &rv, &mut wv);
        for (c, v) in writes.iter().zip(wv) {
            self.st_word(c.at(c.resolve(i, idx, &rv)), v)?;
        }
        self.c.work(work_per)
    }
}

/// Times the elements `range` of a plan segment in place, stopping
/// before the first element with a session miss: per element, every op
/// resolves through `session` (read values come from the store), then
/// the reads and the writes each take one [`MemorySystem::access`] in
/// column order and the written values land in the store. Returns how
/// many elements were timed and their summed access latency; the
/// caller charges it.
fn time_window<const R: usize, const W: usize, F>(
    mem: &mut MemorySystem,
    session: &AccessSession,
    reads: &[PlanCol; R],
    writes: &[PlanCol; W],
    idx: &[&[u64]],
    range: Range<u64>,
    f: &mut F,
) -> (u64, Cycles)
where
    F: FnMut(u64, &[u64], &mut [u64]),
{
    let domain = session.domain();
    let line_mask = !(mem.line_bytes() - 1);
    let line = |pa: PhysAddr| PhysAddr::new(pa.raw() & line_mask);
    let mut rv = [0u64; R];
    let mut rpa = [PhysAddr::new(0); R];
    let mut wpa = [PhysAddr::new(0); W];
    let mut cycles = Cycles::ZERO;
    for i in range.clone() {
        for j in 0..R {
            let va = reads[j].at(reads[j].resolve(i, idx, &rv[..j]));
            let Some(pa) = session.lookup(va, false) else { return (i - range.start, cycles) };
            rpa[j] = pa;
            rv[j] = mem.store().read_u64(pa);
        }
        for j in 0..W {
            let va = writes[j].at(writes[j].resolve(i, idx, &rv));
            let Some(pa) = session.lookup(va, true) else { return (i - range.start, cycles) };
            wpa[j] = pa;
        }
        for pa in rpa {
            cycles += mem.access(domain, line(pa), Access::Read, AccessKind::Data).cycles;
        }
        let mut wv = [0u64; W];
        f(i, &rv, &mut wv);
        for (v, pa) in wv.into_iter().zip(wpa) {
            cycles += mem.access(domain, line(pa), Access::Write, AccessKind::Data).cycles;
            mem.store_mut().write_u64(pa, v);
        }
    }
    (range.end - range.start, cycles)
}

/// How a [`PlanCol`] turns the loop counter into an element index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColSpec {
    /// `e = i * stride + offset` — an affine walk known at loop entry.
    Dense {
        /// Elements advanced per loop iteration.
        stride: u64,
        /// Element index at `i = 0`.
        offset: u64,
    },
    /// `e = idx[slice][i] + offset` — a gather/scatter driven by one of
    /// the host-side index slices passed to
    /// [`BatchScope::plan_map_indexed`] (stencil neighbours, interior
    /// cells, FFT butterfly pairs).
    Index {
        /// Which of the `idx` slices supplies the element index.
        slice: usize,
        /// Signed element offset added to the slice value.
        offset: i64,
    },
    /// `e = rv[col] + offset` — the target is a value this element just
    /// loaded (histogram buckets, rank-scatter positions). Read columns
    /// may only reference earlier read columns; write columns see every
    /// read value.
    Value {
        /// Which read column's loaded value supplies the element index.
        col: usize,
        /// Signed element offset added to the loaded value.
        offset: i64,
    },
}

/// One array column of a data-dependent plan segment: a typed array
/// plus the rule producing its element index per iteration.
#[derive(Debug, Clone, Copy)]
pub struct PlanCol {
    base: VirtAddr,
    len: u64,
    spec: ColSpec,
}

impl PlanCol {
    /// A column over an `f64` array (values travel as raw bits through
    /// the `u64` closure interface; convert with `f64::from_bits`).
    #[must_use]
    pub fn f64(a: ArrayF64, spec: ColSpec) -> Self {
        PlanCol { base: a.base(), len: a.len(), spec }
    }

    /// A column over a `u64` array.
    #[must_use]
    pub fn u64(a: ArrayU64, spec: ColSpec) -> Self {
        PlanCol { base: a.base(), len: a.len(), spec }
    }

    /// Resolves the element index for iteration `i`.
    ///
    /// # Panics
    ///
    /// Panics when the resolved index is out of bounds — the same panic
    /// the scalar loop's `at()` would raise.
    fn resolve(&self, i: u64, idx: &[&[u64]], rv: &[u64]) -> u64 {
        let e = match self.spec {
            ColSpec::Dense { stride, offset } => i.wrapping_mul(stride).wrapping_add(offset),
            ColSpec::Index { slice, offset } => {
                (idx[slice][i as usize] as i64).wrapping_add(offset) as u64
            }
            ColSpec::Value { col, offset } => (rv[col] as i64).wrapping_add(offset) as u64,
        };
        assert!(e < self.len, "index {e} out of bounds ({})", self.len);
        e
    }

    /// Address of element `e` (bounds already checked by `resolve`).
    fn at(&self, e: u64) -> VirtAddr {
        self.base.offset(e * 8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stramash_kernel::system::VanillaSystem;
    use stramash_sim::rng::SimRng;
    use stramash_sim::SimConfig;

    fn client_env() -> (VanillaSystem, Pid) {
        let mut sys = VanillaSystem::new(SimConfig::big_pair()).unwrap();
        let pid = sys.spawn(DomainId::X86).unwrap();
        (sys, pid)
    }

    /// A dense column over `a` starting at element `offset`.
    fn dense_f64(a: ArrayF64, stride: u64, offset: u64) -> PlanCol {
        PlanCol::f64(a, ColSpec::Dense { stride, offset })
    }

    /// Stores `vals` into `a[0..]` bit for bit, as one zero-read
    /// segment.
    fn st_f64s(s: &mut BatchScope<'_, '_, VanillaSystem>, a: ArrayF64, vals: &[f64], work: u64) {
        s.plan_map_indexed(&[], &[dense_f64(a, 1, 0)], &[], vals.len() as u64, work, |i, _, wv| {
            wv[0] = vals[i as usize].to_bits();
        })
        .unwrap();
    }

    /// Seed of the keys [`scope_pattern`] and its scalar loop draw.
    const SCOPE_SEED: u64 = 0x5c09e;

    #[test]
    fn typed_array_roundtrip() {
        let (mut sys, pid) = client_env();
        let mut c = MemoryClient::new(&mut sys, pid);
        let a = c.alloc_f64(100).unwrap();
        let b = c.alloc_u64(100).unwrap();
        for i in 0..100 {
            c.st_f64(a, i, i as f64 * 0.5).unwrap();
            c.st_u64(b, i, i * 3).unwrap();
        }
        for i in 0..100 {
            assert_eq!(c.ld_f64(a, i).unwrap(), i as f64 * 0.5);
            assert_eq!(c.ld_u64(b, i).unwrap(), i * 3);
        }
        assert_eq!(a.len(), 100);
        assert!(!a.is_empty());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn bounds_checked() {
        let a = ArrayF64 { base: VirtAddr::new(0x4000_0000), len: 4 };
        let _ = a.at(4);
    }

    #[test]
    fn work_batches_and_flushes() {
        let (mut sys, pid) = client_env();
        let mut c = MemoryClient::new(&mut sys, pid);
        for _ in 0..100 {
            c.work(10).unwrap();
        }
        c.flush_work().unwrap();
        assert_eq!(sys.base().timebase.clock(DomainId::X86).icount(), 1000);
    }

    /// A mixed pattern of the streaming segment shapes and element
    /// ops: a zero-read store whose closure draws from a seeded RNG, a
    /// fill at a non-zero offset, element ops with interleaved `work`, a
    /// stride-2 pair write, a two-column zero-write reduction and a
    /// one-column read — enough to cross pages, cache lines and exec
    /// flushes.
    fn scope_pattern(sys: &mut VanillaSystem, pid: Pid) -> f64 {
        let mut c = MemoryClient::new(sys, pid);
        let a = c.alloc_f64(600).unwrap();
        let b = c.alloc_f64(600).unwrap();
        let k = c.alloc_u64(600).unwrap();
        let mut acc = 0.0f64;
        {
            let mut s = c.batch().unwrap();
            let keys = PlanCol::u64(k, ColSpec::Dense { stride: 1, offset: 0 });
            let mut rng = SimRng::new(SCOPE_SEED);
            s.plan_map_indexed(&[], &[keys], &[], 600, 3, |_, _, wv| wv[0] = rng.gen_range(1000))
                .unwrap();
            let av: Vec<f64> = (0..600).map(|i| i as f64 * 0.25).collect();
            st_f64s(&mut s, a, &av, 2);
            let fill = PlanCol::u64(k, ColSpec::Dense { stride: 1, offset: 100 });
            s.plan_map_indexed(&[], &[fill], &[], 200, 1, |_, _, wv| wv[0] = 9).unwrap();
            for i in 0..300 {
                let v = s.ld_f64(a, i).unwrap();
                s.st_f64(b, i, v + 1.0).unwrap();
                acc += s.ld_u64(k, i).unwrap() as f64;
                s.work(5).unwrap();
            }
            let pair = |v| [300, 301].map(|offset| dense_f64(v, 2, offset));
            s.plan_map_indexed(&pair(a), &pair(b), &[], 150, 4, |_, rv, wv| {
                let (x, y) = (f64::from_bits(rv[0]), f64::from_bits(rv[1]));
                wv[0] = (x + y).to_bits();
                wv[1] = (x - y).to_bits();
            })
            .unwrap();
            let mut dot = 0.0;
            let ab = [dense_f64(a, 1, 0), dense_f64(b, 1, 0)];
            s.plan_map_indexed(&ab, &[], &[], 600, 4, |_, rv, _| {
                dot += f64::from_bits(rv[0]) * f64::from_bits(rv[1]);
            })
            .unwrap();
            acc += dot;
            let mut back = 0.0;
            s.plan_map_indexed(&[dense_f64(b, 1, 0)], &[], &[], 600, 3, |_, rv, _| {
                back += f64::from_bits(rv[0]);
            })
            .unwrap();
            acc += back;
        }
        c.flush_work().unwrap();
        acc
    }

    /// [`scope_pattern`] as the explicit loop of scalar client ops
    /// every segment stands for — the reference the batched pipeline
    /// must reproduce cycle for cycle.
    fn scope_pattern_scalar(sys: &mut VanillaSystem, pid: Pid) -> f64 {
        let mut c = MemoryClient::new(sys, pid);
        let a = c.alloc_f64(600).unwrap();
        let b = c.alloc_f64(600).unwrap();
        let k = c.alloc_u64(600).unwrap();
        let mut acc = 0.0f64;
        let mut rng = SimRng::new(SCOPE_SEED);
        for i in 0..600 {
            c.st_u64(k, i, rng.gen_range(1000)).unwrap();
            c.work(3).unwrap();
        }
        for i in 0..600 {
            c.st_f64(a, i, i as f64 * 0.25).unwrap();
            c.work(2).unwrap();
        }
        for i in 100..300 {
            c.st_u64(k, i, 9).unwrap();
            c.work(1).unwrap();
        }
        for i in 0..300 {
            let v = c.ld_f64(a, i).unwrap();
            c.st_f64(b, i, v + 1.0).unwrap();
            acc += c.ld_u64(k, i).unwrap() as f64;
            c.work(5).unwrap();
        }
        for i in 150..300 {
            let (x, y) = (c.ld_f64(a, 2 * i).unwrap(), c.ld_f64(a, 2 * i + 1).unwrap());
            c.st_f64(b, 2 * i, x + y).unwrap();
            c.st_f64(b, 2 * i + 1, x - y).unwrap();
            c.work(4).unwrap();
        }
        let mut dot = 0.0;
        for i in 0..600 {
            let x = c.ld_f64(a, i).unwrap();
            let y = c.ld_f64(b, i).unwrap();
            dot += x * y;
            c.work(4).unwrap();
        }
        acc += dot;
        let mut back = vec![0.0f64; 600];
        for (i, v) in back.iter_mut().enumerate() {
            *v = c.ld_f64(b, i as u64).unwrap();
            c.work(3).unwrap();
        }
        acc += back.iter().sum::<f64>();
        c.flush_work().unwrap();
        acc
    }

    /// Data-dependent plan segments: a histogram (value-indexed
    /// read-modify-write), a rank scatter through an index slice, a
    /// rerun of the same segment with moved targets over pages the
    /// session already holds, and three rounds of CG's dense
    /// four-read/two-write update whose write columns alias read
    /// columns.
    fn indexed_pattern(sys: &mut VanillaSystem, pid: Pid) -> u64 {
        let mut c = MemoryClient::new(sys, pid);
        let keys = c.alloc_u64(512).unwrap();
        let hist = c.alloc_u64(64).unwrap();
        let out = c.alloc_u64(512).unwrap();
        let cg = cg_vectors(&mut c);
        let mut acc = 0u64;
        {
            let mut s = c.batch().unwrap();
            let dense = ColSpec::Dense { stride: 1, offset: 0 };
            s.plan_map_indexed(&[], &[PlanCol::u64(keys, dense)], &[], 512, 2, |i, _, wv| {
                wv[0] = (i * 37) % 64;
            })
            .unwrap();
            s.plan_map_indexed(&[], &[PlanCol::u64(hist, dense)], &[], 64, 1, |_, _, wv| wv[0] = 0)
                .unwrap();
            let bucket = ColSpec::Value { col: 0, offset: 0 };
            // hist[keys[i]] += 1 — the IS histogram shape.
            s.plan_map_indexed(
                &[PlanCol::u64(keys, dense), PlanCol::u64(hist, bucket)],
                &[PlanCol::u64(hist, bucket)],
                &[],
                512,
                6,
                |_, rv, wv| wv[0] = rv[1] + 1,
            )
            .unwrap();
            // out[idx[i]] = 3*keys[i] + 1 — an index-slice scatter; two
            // passes with different slices rerun over cached pages.
            for mul in [131u64, 257] {
                let idxs: Vec<u64> = (0..512).map(|i| (i * mul) % 512).collect();
                s.plan_map_indexed(
                    &[PlanCol::u64(keys, dense)],
                    &[PlanCol::u64(out, ColSpec::Index { slice: 0, offset: 0 })],
                    &[&idxs],
                    512,
                    4,
                    |_, rv, wv| wv[0] = rv[0] * 3 + 1,
                )
                .unwrap();
            }
            // x += alpha d; r -= alpha q; rho = r·r — CG's update nest.
            let [x, d, r, q] = cg;
            let dense = |a| PlanCol::f64(a, ColSpec::Dense { stride: 1, offset: 0 });
            for round in 0..3 {
                let alpha = 0.25 + f64::from(round);
                let mut rho = 0.0f64;
                s.plan_map_indexed(
                    &[dense(x), dense(d), dense(r), dense(q)],
                    &[dense(x), dense(r)],
                    &[],
                    CG_N,
                    10,
                    |_, vals, wv| {
                        let [xv, dv, rv, qv] = [0, 1, 2, 3].map(|j| f64::from_bits(vals[j]));
                        let ri = rv - alpha * qv;
                        wv[0] = (xv + alpha * dv).to_bits();
                        wv[1] = ri.to_bits();
                        rho += ri * ri;
                    },
                )
                .unwrap();
                acc = acc.wrapping_mul(1_000_003).wrapping_add(rho.to_bits());
            }
            for i in 0..64 {
                acc = acc.wrapping_mul(1_000_003).wrapping_add(s.ld_u64(hist, i).unwrap());
            }
            for i in 0..512 {
                acc = acc.wrapping_mul(1_000_003).wrapping_add(s.ld_u64(out, i).unwrap());
            }
        }
        c.flush_work().unwrap();
        acc
    }

    /// Length of the CG-shaped vectors (several pages each).
    const CG_N: u64 = 700;

    /// Allocates and fills CG's `x, d, r, q` vectors with scalar ops.
    fn cg_vectors(c: &mut MemoryClient<'_, VanillaSystem>) -> [ArrayF64; 4] {
        let vs = [(); 4].map(|()| c.alloc_f64(CG_N).unwrap());
        for (k, &v) in vs.iter().enumerate() {
            for i in 0..CG_N {
                c.st_f64(v, i, 1.0 + (i * (k as u64 + 1)) as f64 * 0.125).unwrap();
                c.work(2).unwrap();
            }
        }
        vs
    }

    /// [`indexed_pattern`] as the explicit scalar loop each plan
    /// segment stands for: per element, load every read column, store
    /// every write column, then `work`.
    fn indexed_pattern_scalar(sys: &mut VanillaSystem, pid: Pid) -> u64 {
        let mut c = MemoryClient::new(sys, pid);
        let keys = c.alloc_u64(512).unwrap();
        let hist = c.alloc_u64(64).unwrap();
        let out = c.alloc_u64(512).unwrap();
        let [x, d, r, q] = cg_vectors(&mut c);
        let mut acc = 0u64;
        for i in 0..512 {
            c.st_u64(keys, i, (i * 37) % 64).unwrap();
            c.work(2).unwrap();
        }
        for i in 0..64 {
            c.st_u64(hist, i, 0).unwrap();
            c.work(1).unwrap();
        }
        for i in 0..512 {
            let bucket = c.ld_u64(keys, i).unwrap();
            let count = c.ld_u64(hist, bucket).unwrap();
            c.st_u64(hist, bucket, count + 1).unwrap();
            c.work(6).unwrap();
        }
        for mul in [131u64, 257] {
            for i in 0..512 {
                let key = c.ld_u64(keys, i).unwrap();
                c.st_u64(out, (i * mul) % 512, key * 3 + 1).unwrap();
                c.work(4).unwrap();
            }
        }
        for round in 0..3 {
            let alpha = 0.25 + f64::from(round);
            let mut rho = 0.0f64;
            for i in 0..CG_N {
                let (xv, dv) = (c.ld_f64(x, i).unwrap(), c.ld_f64(d, i).unwrap());
                let (rv, qv) = (c.ld_f64(r, i).unwrap(), c.ld_f64(q, i).unwrap());
                let ri = rv - alpha * qv;
                c.st_f64(x, i, xv + alpha * dv).unwrap();
                c.st_f64(r, i, ri).unwrap();
                rho += ri * ri;
                c.work(10).unwrap();
            }
            acc = acc.wrapping_mul(1_000_003).wrapping_add(rho.to_bits());
        }
        for i in 0..64 {
            acc = acc.wrapping_mul(1_000_003).wrapping_add(c.ld_u64(hist, i).unwrap());
        }
        for i in 0..512 {
            acc = acc.wrapping_mul(1_000_003).wrapping_add(c.ld_u64(out, i).unwrap());
        }
        c.flush_work().unwrap();
        acc
    }

    /// Runs `pattern` on a fresh system and captures the value result,
    /// the x86 clock and every x86 stats counter.
    fn observe<T>(
        pattern: impl FnOnce(&mut VanillaSystem, Pid) -> T,
    ) -> (T, stramash_sim::Clock, stramash_sim::DomainStats) {
        let (mut sys, pid) = client_env();
        let acc = pattern(&mut sys, pid);
        (acc, *sys.base().timebase.clock(DomainId::X86), *sys.base().mem.stats(DomainId::X86))
    }

    #[test]
    fn indexed_plan_is_cycle_identical_to_scalar() {
        let (fast_acc, fast_clock, fast_stats) = observe(indexed_pattern);
        let (ref_acc, ref_clock, ref_stats) = observe(indexed_pattern_scalar);
        assert_eq!(fast_acc, ref_acc, "values must match bit-for-bit");
        assert_eq!(fast_clock, ref_clock, "icount and memory cycles must match");
        assert_eq!(fast_stats, ref_stats, "every stats counter must match");
    }

    #[test]
    fn batched_scope_is_cycle_identical_to_scalar() {
        let (fast_acc, fast_clock, fast_stats) = observe(scope_pattern);
        let (ref_acc, ref_clock, ref_stats) = observe(scope_pattern_scalar);
        assert_eq!(fast_acc, ref_acc, "values must match bit-for-bit");
        assert_eq!(fast_clock, ref_clock, "icount and memory cycles must match");
        assert_eq!(fast_stats, ref_stats, "every stats counter must match");
        assert!(fast_stats.tlb_hits > 0, "the pattern must exercise TLB hits");
    }

    /// A CG-shaped plan-mapped pattern: three rounds of one dense
    /// 3-read/2-write segment whose write columns alias two of its read
    /// columns, with a per-round scalar threaded through the closure.
    /// The first round fills the session; the later two run over it.
    fn plan_pattern(sys: &mut VanillaSystem, pid: Pid) -> f64 {
        let mut c = MemoryClient::new(sys, pid);
        let x = c.alloc_f64(700).unwrap();
        let d = c.alloc_f64(700).unwrap();
        let r = c.alloc_f64(700).unwrap();
        let dense = |a| PlanCol::f64(a, ColSpec::Dense { stride: 1, offset: 0 });
        let mut acc = 0.0f64;
        {
            let mut s = c.batch().unwrap();
            let xv: Vec<f64> = (0..700).map(|i| i as f64 * 0.5).collect();
            st_f64s(&mut s, x, &xv, 2);
            let dv: Vec<f64> = (0..700).map(|i| 1.0 + i as f64 * 0.125).collect();
            st_f64s(&mut s, d, &dv, 2);
            let rv: Vec<f64> = (0..700).map(|i| 2.0 - i as f64 * 0.0625).collect();
            st_f64s(&mut s, r, &rv, 2);
            for round in 0..3 {
                let alpha = 0.25 + f64::from(round);
                let mut rho = 0.0f64;
                s.plan_map_indexed(
                    &[dense(x), dense(d), dense(r)],
                    &[dense(x), dense(r)],
                    &[],
                    700,
                    10,
                    |_, vals, wv| {
                        let [xv, dv, rv] = [0, 1, 2].map(|j| f64::from_bits(vals[j]));
                        let nr = rv - alpha * dv;
                        wv[0] = (xv + alpha * dv).to_bits();
                        wv[1] = nr.to_bits();
                        rho += nr * nr;
                    },
                )
                .unwrap();
                acc += rho;
            }
        }
        c.flush_work().unwrap();
        acc
    }

    /// [`plan_pattern`] as the explicit scalar loop: per element,
    /// load `x, d, r`, store `x, r`, then `work`.
    fn plan_pattern_scalar(sys: &mut VanillaSystem, pid: Pid) -> f64 {
        let mut c = MemoryClient::new(sys, pid);
        let x = c.alloc_f64(700).unwrap();
        let d = c.alloc_f64(700).unwrap();
        let r = c.alloc_f64(700).unwrap();
        let mut acc = 0.0f64;
        for i in 0..700 {
            c.st_f64(x, i, i as f64 * 0.5).unwrap();
            c.work(2).unwrap();
        }
        for i in 0..700 {
            c.st_f64(d, i, 1.0 + i as f64 * 0.125).unwrap();
            c.work(2).unwrap();
        }
        for i in 0..700 {
            c.st_f64(r, i, 2.0 - i as f64 * 0.0625).unwrap();
            c.work(2).unwrap();
        }
        for round in 0..3 {
            let alpha = 0.25 + f64::from(round);
            let mut rho = 0.0f64;
            for i in 0..700 {
                let (xv, dv, rv) =
                    (c.ld_f64(x, i).unwrap(), c.ld_f64(d, i).unwrap(), c.ld_f64(r, i).unwrap());
                let (nx, nr) = (xv + alpha * dv, rv - alpha * dv);
                rho += nr * nr;
                c.st_f64(x, i, nx).unwrap();
                c.st_f64(r, i, nr).unwrap();
                c.work(10).unwrap();
            }
            acc += rho;
        }
        c.flush_work().unwrap();
        acc
    }

    #[test]
    fn plan_map_is_cycle_identical_to_scalar() {
        let (fast_acc, fast_clock, fast_stats) = observe(plan_pattern);
        let (ref_acc, ref_clock, ref_stats) = observe(plan_pattern_scalar);
        assert_eq!(fast_acc, ref_acc, "plan segments must be value-exact");
        assert_eq!(fast_clock, ref_clock, "fill + rerun must keep the clock");
        assert_eq!(fast_stats, ref_stats, "every stats counter must match");
    }

    /// Runs `b[i] = g(a[i])` for `i < n` as one dense plan segment.
    fn map_dense(
        s: &mut BatchScope<'_, '_, VanillaSystem>,
        a: ArrayF64,
        b: ArrayF64,
        n: u64,
        g: impl Fn(f64) -> f64,
    ) {
        let dense = |v| PlanCol::f64(v, ColSpec::Dense { stride: 1, offset: 0 });
        s.plan_map_indexed(&[dense(a)], &[dense(b)], &[], n, 2, |_, rv, wv| {
            wv[0] = g(f64::from_bits(rv[0])).to_bits();
        })
        .unwrap();
    }

    #[test]
    fn plan_invalidation_forces_recompile() {
        let (mut sys, pid) = client_env();
        let mut c = MemoryClient::new(&mut sys, pid);
        let a = c.alloc_f64(64).unwrap();
        let b = c.alloc_f64(64).unwrap();
        {
            let mut s = c.batch().unwrap();
            st_f64s(&mut s, a, &[3.0; 64], 1);
            map_dense(&mut s, a, b, 64, |v| v * 2.0);
            // The first segment filled the session for both columns.
            assert!(s.c.session.lookup(a.at(5), false).is_some());
            assert!(s.c.session.lookup(b.at(5), true).is_some());
            // A rerun over the cached translations stays value-exact.
            map_dense(&mut s, a, b, 64, |v| v + 1.0);
            assert_eq!(s.ld_f64(b, 5).unwrap(), 4.0);
            // A shorter segment only touches its own elements.
            map_dense(&mut s, a, b, 32, |v| v - 1.0);
            assert_eq!(s.ld_f64(b, 5).unwrap(), 2.0);
            assert_eq!(s.ld_f64(b, 40).unwrap(), 4.0);
        }
        // Invalidation drops every cached translation: the next segment
        // misses, refills the session and is still value-exact.
        c.session.clear();
        let mut s = c.batch().unwrap();
        assert!(s.c.session.lookup(a.at(5), false).is_none());
        assert!(s.c.session.lookup(b.at(5), true).is_none());
        map_dense(&mut s, a, b, 32, |v| v * 3.0);
        assert!(s.c.session.lookup(b.at(5), true).is_some());
        assert_eq!(s.ld_f64(b, 5).unwrap(), 9.0);
        assert_eq!(s.ld_f64(b, 40).unwrap(), 4.0);
    }

    #[test]
    fn arrays_do_not_alias() {
        let (mut sys, pid) = client_env();
        let mut c = MemoryClient::new(&mut sys, pid);
        let a = c.alloc_u64(16).unwrap();
        let b = c.alloc_u64(16).unwrap();
        c.st_u64(a, 0, 111).unwrap();
        c.st_u64(b, 0, 222).unwrap();
        assert_eq!(c.ld_u64(a, 0).unwrap(), 111);
    }
}
