//! Typed application-side memory access.
//!
//! Workloads are real algorithms whose every load and store travels
//! through the simulated OS and memory system. [`MemoryClient`] wraps an
//! [`OsSystem`] + [`Pid`] with typed array helpers and instruction
//! accounting, playing the role of the compiled NPB binary running on
//! the machine.

use stramash_kernel::addr::{VirtAddr, PAGE_SIZE};
use stramash_kernel::process::Pid;
use stramash_kernel::session::AccessSession;
use stramash_kernel::system::{OsError, OsSystem};
use stramash_kernel::vma::VmaProt;
use stramash_mem::AccessPlan;
use stramash_sim::DomainId;

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

    /// Allocates raw bytes.
    ///
    /// # Errors
    ///
    /// VMA errors.
    pub fn alloc_bytes(&mut self, len: u64) -> Result<VirtAddr, OsError> {
        self.sys.mmap(self.pid, len, VmaProt::rw())
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
/// one-for-one; slice ops issue page/flush-bounded runs whose
/// per-element access order is exactly the scalar loop's.
#[derive(Debug)]
pub struct BatchScope<'c, 'a, S: OsSystem> {
    c: &'c mut MemoryClient<'a, S>,
}

impl<S: OsSystem> BatchScope<'_, '_, S> {
    /// Translates through the session and performs one fused aligned
    /// element read.
    fn ld_word(&mut self, va: VirtAddr) -> Result<u64, OsError> {
        let (pa, _) = self.c.sys.session_translate(&mut self.c.session, va, false)?;
        let domain = self.c.session.domain();
        let base = self.c.sys.base_mut();
        let (v, cyc) = base.mem.read_u64_aligned(domain, pa);
        base.charge(domain, cyc);
        Ok(v)
    }

    /// Translates through the session and performs one fused aligned
    /// element write.
    fn st_word(&mut self, va: VirtAddr, v: u64) -> Result<(), OsError> {
        let (pa, _) = self.c.sys.session_translate(&mut self.c.session, va, true)?;
        let domain = self.c.session.domain();
        let base = self.c.sys.base_mut();
        let cyc = base.mem.write_u64_aligned(domain, pa, v);
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

    /// Loads the adjacent pair `a[i], a[i+1]` (`i` even — a 16-byte
    /// aligned pair always shares one cache line and one page, so the
    /// second element is translated and charged as the L1/TLB hit it
    /// would be on the scalar path).
    ///
    /// # Errors
    ///
    /// Translation errors.
    pub fn ld_f64_pair(&mut self, a: ArrayF64, i: u64) -> Result<(f64, f64), OsError> {
        debug_assert!(i.is_multiple_of(2), "pair base must be even");
        let va = a.at(i);
        let _ = a.at(i + 1); // bounds check
        let (pa, _) = self.c.sys.session_translate(&mut self.c.session, va, false)?;
        let domain = self.c.session.domain();
        let base = self.c.sys.base_mut();
        let mut out = [0u64; 2];
        let cyc = base.mem.read_u64_run(domain, pa, &mut out);
        base.charge(domain, cyc);
        base.mem.note_tlb_hit(domain);
        Ok((f64::from_bits(out[0]), f64::from_bits(out[1])))
    }

    /// Stores the adjacent pair `a[i] = v0, a[i+1] = v1` (`i` even).
    ///
    /// # Errors
    ///
    /// Translation errors.
    pub fn st_f64_pair(&mut self, a: ArrayF64, i: u64, v0: f64, v1: f64) -> Result<(), OsError> {
        debug_assert!(i.is_multiple_of(2), "pair base must be even");
        let va = a.at(i);
        let _ = a.at(i + 1); // bounds check
        let (pa, _) = self.c.sys.session_translate(&mut self.c.session, va, true)?;
        let domain = self.c.session.domain();
        let base = self.c.sys.base_mut();
        let cyc = base.mem.write_u64_run(domain, pa, &[v0.to_bits(), v1.to_bits()]);
        base.charge(domain, cyc);
        base.mem.note_tlb_hit(domain);
        Ok(())
    }

    /// Largest run length whose trailing `work(work_per)` calls cannot
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

    /// One batched store run: at most one page, at most the flush cap.
    /// Returns how many elements were stored.
    fn st_run(
        &mut self,
        va: VirtAddr,
        words: &[u64],
        work_per: u64,
    ) -> Result<usize, OsError> {
        let in_page = ((PAGE_SIZE - va.page_offset()) / 8) as usize;
        let n = words.len().min(in_page).min(self.flush_cap(work_per));
        let (pa, _) = self.c.sys.session_translate(&mut self.c.session, va, true)?;
        let domain = self.c.session.domain();
        let base = self.c.sys.base_mut();
        let cyc = base.mem.write_u64_run(domain, pa, &words[..n]);
        base.charge(domain, cyc);
        // Elements 2..n sit on the freshly-translated page: each would
        // be a zero-cycle TLB hit on the scalar path.
        base.mem.note_tlb_hits(domain, (n - 1) as u64);
        for _ in 0..n {
            self.c.work(work_per)?;
        }
        Ok(n)
    }

    /// One batched load run; see [`BatchScope::st_run`].
    fn ld_run(
        &mut self,
        va: VirtAddr,
        out: &mut [u64],
        work_per: u64,
    ) -> Result<usize, OsError> {
        let in_page = ((PAGE_SIZE - va.page_offset()) / 8) as usize;
        let n = out.len().min(in_page).min(self.flush_cap(work_per));
        let (pa, _) = self.c.sys.session_translate(&mut self.c.session, va, false)?;
        let domain = self.c.session.domain();
        let base = self.c.sys.base_mut();
        let cyc = base.mem.read_u64_run(domain, pa, &mut out[..n]);
        base.charge(domain, cyc);
        base.mem.note_tlb_hits(domain, (n - 1) as u64);
        for _ in 0..n {
            self.c.work(work_per)?;
        }
        Ok(n)
    }

    /// Stores `vals` into `a[start..]`, accounting `work_per`
    /// instructions per element — order-identical to the scalar loop
    /// `for k { st_u64(a, start+k, vals[k]); work(work_per) }`.
    ///
    /// # Errors
    ///
    /// Translation errors.
    pub fn st_u64_slice(
        &mut self,
        a: ArrayU64,
        start: u64,
        vals: &[u64],
        work_per: u64,
    ) -> Result<(), OsError> {
        if !vals.is_empty() {
            let _ = a.at(start + vals.len() as u64 - 1); // bounds check
        }
        let mut k = 0usize;
        while k < vals.len() {
            k += self.st_run(a.at(start + k as u64), &vals[k..], work_per)?;
        }
        Ok(())
    }

    /// Loads `out.len()` elements from `a[start..]` with `work_per`
    /// instructions per element; the scalar-loop equivalent of
    /// [`BatchScope::st_u64_slice`].
    ///
    /// # Errors
    ///
    /// Translation errors.
    pub fn ld_u64_slice(
        &mut self,
        a: ArrayU64,
        start: u64,
        out: &mut [u64],
        work_per: u64,
    ) -> Result<(), OsError> {
        if !out.is_empty() {
            let _ = a.at(start + out.len() as u64 - 1); // bounds check
        }
        let mut k = 0usize;
        while k < out.len() {
            let va = a.at(start + k as u64);
            let n = {
                let rest = &mut out[k..];
                self.ld_run(va, rest, work_per)?
            };
            k += n;
        }
        Ok(())
    }

    /// Stores `vals` into `a[start..]` (bit-for-bit `f64`s).
    ///
    /// # Errors
    ///
    /// Translation errors.
    pub fn st_f64_slice(
        &mut self,
        a: ArrayF64,
        start: u64,
        vals: &[f64],
        work_per: u64,
    ) -> Result<(), OsError> {
        if !vals.is_empty() {
            let _ = a.at(start + vals.len() as u64 - 1); // bounds check
        }
        let bits: Vec<u64> = vals.iter().map(|v| v.to_bits()).collect();
        let mut k = 0usize;
        while k < bits.len() {
            k += self.st_run(a.at(start + k as u64), &bits[k..], work_per)?;
        }
        Ok(())
    }

    /// Loads `out.len()` elements from `a[start..]`.
    ///
    /// # Errors
    ///
    /// Translation errors.
    pub fn ld_f64_slice(
        &mut self,
        a: ArrayF64,
        start: u64,
        out: &mut [f64],
        work_per: u64,
    ) -> Result<(), OsError> {
        if !out.is_empty() {
            let _ = a.at(start + out.len() as u64 - 1); // bounds check
        }
        let mut bits = vec![0u64; out.len()];
        let mut k = 0usize;
        while k < bits.len() {
            let va = a.at(start + k as u64);
            let n = {
                let rest = &mut bits[k..];
                self.ld_run(va, rest, work_per)?
            };
            k += n;
        }
        for (o, b) in out.iter_mut().zip(&bits) {
            *o = f64::from_bits(*b);
        }
        Ok(())
    }

    /// Fills `a[start..start+len]` with `value`, `work_per` instructions
    /// per element — the batched form of a scalar clear loop.
    ///
    /// # Errors
    ///
    /// Translation errors.
    pub fn fill_u64(
        &mut self,
        a: ArrayU64,
        start: u64,
        len: u64,
        value: u64,
        work_per: u64,
    ) -> Result<(), OsError> {
        if len > 0 {
            let _ = a.at(start + len - 1); // bounds check
        }
        let buf = vec![value; (len.min(PAGE_SIZE / 8)) as usize];
        let mut k = 0u64;
        while k < len {
            let n = buf.len().min((len - k) as usize);
            let done = self.st_run(a.at(start + k), &buf[..n], work_per)?;
            k += done as u64;
        }
        Ok(())
    }

    /// Gathers `a[idx[k]]` for every index, `work_per` instructions per
    /// element. Indices are arbitrary, so each element translates
    /// through the session individually (order-identical to the scalar
    /// gather loop).
    ///
    /// # Errors
    ///
    /// Translation errors.
    pub fn gather_f64(
        &mut self,
        a: ArrayF64,
        idx: &[u64],
        out: &mut Vec<f64>,
        work_per: u64,
    ) -> Result<(), OsError> {
        out.clear();
        for &i in idx {
            let v = self.ld_f64(a, i)?;
            out.push(v);
            self.work(work_per)?;
        }
        Ok(())
    }

    /// Fused dot product `Σ x[i]·y[i]`, `work_per` instructions per
    /// element — access order `ld x[i]; ld y[i]; work` exactly like the
    /// CG scalar loop.
    ///
    /// # Errors
    ///
    /// Translation errors.
    pub fn dot_f64(
        &mut self,
        x: ArrayF64,
        y: ArrayF64,
        n: u64,
        work_per: u64,
    ) -> Result<f64, OsError> {
        let mut acc = 0.0;
        for i in 0..n {
            let a = self.ld_f64(x, i)?;
            let b = self.ld_f64(y, i)?;
            acc += a * b;
            self.work(work_per)?;
        }
        Ok(acc)
    }

    /// Fused axpy `y[i] += alpha·x[i]`, access order
    /// `ld y[i]; ld x[i]; st y[i]; work` per element.
    ///
    /// # Errors
    ///
    /// Translation errors.
    pub fn axpy_f64(
        &mut self,
        alpha: f64,
        x: ArrayF64,
        y: ArrayF64,
        n: u64,
        work_per: u64,
    ) -> Result<(), OsError> {
        for i in 0..n {
            let yv = self.ld_f64(y, i)?;
            let xv = self.ld_f64(x, i)?;
            self.st_f64(y, i, yv + alpha * xv)?;
            self.work(work_per)?;
        }
        Ok(())
    }

    // ---- compiled access plans --------------------------------------------

    /// Runs the element map `f` over `reads`/`writes` columns through a
    /// compiled access plan. The canonical per-element order is: load
    /// every read column (in slice order), call `f`, store every write
    /// column (in slice order), account `work_per` instructions.
    ///
    /// The first call (or any call after the plan was invalidated by a
    /// TLB shootdown, a migration, or a shape change) runs that exact
    /// loop element-by-element through the session — translating,
    /// faulting and charging like the scalar path — while recording the
    /// canonical physical address of every access into `plan`.
    /// Subsequent calls replay the recorded sequence in flush-bounded
    /// chunks: timing through [`stramash_mem::MemorySystem::run_plan`]
    /// over the L1D's dense tag arrays, values element-major through
    /// the untimed store, so any dependence pattern (including a write
    /// column also being a read column) stays value-exact.
    ///
    /// # Errors
    ///
    /// Translation errors.
    pub fn plan_map<F>(
        &mut self,
        plan: &mut ScopePlan,
        reads: &[ArrayF64],
        writes: &[ArrayF64],
        n: u64,
        work_per: u64,
        mut f: F,
    ) -> Result<(), OsError>
    where
        F: FnMut(u64, &[f64], &mut [f64]),
    {
        if n == 0 {
            return Ok(());
        }
        if reads.len() + writes.len() == 0 {
            // No accesses to plan: just the closure and the work.
            for i in 0..n {
                f(i, &[], &mut []);
                self.work(work_per)?;
            }
            return Ok(());
        }
        if !plan.matches(&self.c.session, reads, writes, n, work_per) {
            return self.plan_compile(plan, reads, writes, n, work_per, &mut f);
        }
        self.plan_replay(plan, reads.len(), writes.len(), n, work_per, &mut f)
    }

    /// The recording pass behind [`BatchScope::plan_map`]: the exact
    /// canonical loop, element ops via the session, every canonical
    /// physical address appended to the plan.
    fn plan_compile<F>(
        &mut self,
        plan: &mut ScopePlan,
        reads: &[ArrayF64],
        writes: &[ArrayF64],
        n: u64,
        work_per: u64,
        f: &mut F,
    ) -> Result<(), OsError>
    where
        F: FnMut(u64, &[f64], &mut [f64]),
    {
        plan.valid = false;
        plan.plan.clear();
        let start_generation = self.c.session.generation();
        let start_domain = self.c.session.domain();
        let mut rv = vec![0.0f64; reads.len()];
        let mut wv = vec![0.0f64; writes.len()];
        for i in 0..n {
            for (j, a) in reads.iter().enumerate() {
                let va = a.at(i);
                let (pa, _) = self.c.sys.session_translate(&mut self.c.session, va, false)?;
                let domain = self.c.session.domain();
                let base = self.c.sys.base_mut();
                let pa = base.mem.canonicalize(domain, pa);
                let (bits, cyc) = base.mem.read_u64_aligned(domain, pa);
                base.charge(domain, cyc);
                plan.plan.push(pa.raw(), false);
                rv[j] = f64::from_bits(bits);
            }
            wv.fill(0.0);
            f(i, &rv, &mut wv);
            for (j, a) in writes.iter().enumerate() {
                let va = a.at(i);
                let (pa, _) = self.c.sys.session_translate(&mut self.c.session, va, true)?;
                let domain = self.c.session.domain();
                let base = self.c.sys.base_mut();
                let pa = base.mem.canonicalize(domain, pa);
                let cyc = base.mem.write_u64_aligned(domain, pa, wv[j].to_bits());
                base.charge(domain, cyc);
                plan.plan.push(pa.raw(), true);
            }
            self.c.work(work_per)?;
        }
        // Adopt the recording only if no invalidation moved the session
        // mid-compile (a fault that shot down translations would leave
        // early recorded addresses stale).
        if self.c.session.is_valid()
            && self.c.session.generation() == start_generation
            && self.c.session.domain() == start_domain
        {
            plan.valid = true;
            plan.domain = start_domain;
            plan.generation = start_generation;
            plan.n = n;
            plan.work_per = work_per;
            plan.reads = reads.iter().map(|a| a.base().raw()).collect();
            plan.writes = writes.iter().map(|a| a.base().raw()).collect();
        }
        Ok(())
    }

    /// The replay pass behind [`BatchScope::plan_map`]: timing in
    /// flush-bounded chunks over the compiled sequence, values
    /// element-major through the untimed store.
    fn plan_replay<F>(
        &mut self,
        plan: &ScopePlan,
        n_reads: usize,
        n_writes: usize,
        n: u64,
        work_per: u64,
        f: &mut F,
    ) -> Result<(), OsError>
    where
        F: FnMut(u64, &[f64], &mut [f64]),
    {
        let ope = n_reads + n_writes;
        let domain = plan.domain;
        let mut rv = vec![0.0f64; n_reads];
        let mut wv = vec![0.0f64; n_writes];
        let mut i = 0u64;
        while i < n {
            let m = (n - i).min(self.flush_cap(work_per) as u64).max(1);
            let lo = i as usize * ope;
            let hi = lo + m as usize * ope;
            {
                let base = self.c.sys.base_mut();
                // Every op is a session hit at replay (the generation
                // check proved no shootdown since compile): one
                // zero-cycle TLB hit per op, like the recorded loop.
                base.mem.note_tlb_hits(domain, m * ope as u64);
                let cyc = base.mem.run_plan(domain, &plan.plan, lo..hi);
                base.charge(domain, cyc);
                for k in 0..m {
                    let at = lo + k as usize * ope;
                    let addrs = &plan.plan.addrs()[at..at + ope];
                    for (j, v) in rv.iter_mut().enumerate() {
                        *v = f64::from_bits(
                            base.mem.store().read_u64(stramash_mem::PhysAddr::new(addrs[j])),
                        );
                    }
                    wv.fill(0.0);
                    f(i + k, &rv, &mut wv);
                    for (j, v) in wv.iter().enumerate() {
                        base.mem.store_mut().write_u64(
                            stramash_mem::PhysAddr::new(addrs[n_reads + j]),
                            v.to_bits(),
                        );
                    }
                }
            }
            for _ in 0..m {
                self.c.work(work_per)?;
            }
            i += m;
        }
        Ok(())
    }

    /// Maps `f` over `i in 0..n` where each element touches data-
    /// dependent targets: every column is a [`PlanCol`] whose element
    /// index may come from the loop counter ([`ColSpec::Dense`]), a
    /// host-side index slice ([`ColSpec::Index`]), or a value loaded by
    /// an earlier read column of the same element ([`ColSpec::Value`] —
    /// histogram / rank-scatter indirection).
    ///
    /// Unlike [`BatchScope::plan_map`], the op sequence cannot be
    /// recorded once: targets move between calls. What *is* stable is
    /// the translation of each page, so the plan compiles lazily — the
    /// first element to land on a page goes through the session
    /// (recording the canonical frame), and every later landing on that
    /// page replays through [`run_plan`] without re-translating.
    /// Per-element targets are recomputed from `idx` and the loaded
    /// values on every call; the page tables persist across calls while
    /// the session generation and column set are unchanged.
    ///
    /// Timing is identical to the canonical scalar loop: replayed ops
    /// charge exactly what the session-hit element ops would, boundary
    /// (first-touch) elements run the element ops themselves, and
    /// `work(work_per)` retires per element inside flush-bounded
    /// chunks. Values flow element-major through the untimed store, so
    /// read-after-write dependences (a write column aliasing a read
    /// column) stay value-exact.
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
    /// [`run_plan`]: stramash_mem::MemorySystem::run_plan
    #[allow(clippy::too_many_arguments)] // the plan_map signature plus the index slices
    pub fn plan_map_indexed<F>(
        &mut self,
        plan: &mut IndexedPlan,
        reads: &[PlanCol],
        writes: &[PlanCol],
        idx: &[&[u64]],
        n: u64,
        work_per: u64,
        mut f: F,
    ) -> Result<(), OsError>
    where
        F: FnMut(u64, &[u64], &mut [u64]),
    {
        if n == 0 {
            return Ok(());
        }
        if reads.len() + writes.len() == 0 {
            // No accesses to plan: just the closure and the work.
            for i in 0..n {
                f(i, &[], &mut []);
                self.c.work(work_per)?;
            }
            return Ok(());
        }
        let mut rv = vec![0u64; reads.len()];
        let mut wv = vec![0u64; writes.len()];
        if !plan.matches(&self.c.session, reads, writes) {
            plan.reset(&self.c.session, reads, writes);
        }
        let n_reads = reads.len();
        let ope = n_reads + writes.len();
        let mut domain = plan.domain;
        let mut scratch = std::mem::take(&mut plan.scratch);
        scratch.clear();
        let mut pas = vec![0u64; ope];
        let mut pend: usize = 0; // elements batched since the last flush
        let mut window = self.flush_cap(work_per).max(1);
        let mut i = 0u64;
        while i < n {
            // Resolve every op of element i before committing any: one
            // unknown page drops the whole element to the session path.
            let mut ok = plan.valid;
            if ok {
                for j in 0..n_reads {
                    let e = reads[j].resolve(i, idx, &rv[..j]);
                    match plan.lookup(j, reads[j].at(e).raw()) {
                        Some(pa) => {
                            pas[j] = pa;
                            rv[j] = self
                                .c
                                .sys
                                .base()
                                .mem
                                .store()
                                .read_u64(stramash_mem::PhysAddr::new(pa));
                        }
                        None => {
                            ok = false;
                            break;
                        }
                    }
                }
            }
            if ok {
                for j in 0..writes.len() {
                    let e = writes[j].resolve(i, idx, &rv);
                    match plan.lookup(n_reads + j, writes[j].at(e).raw()) {
                        Some(pa) => pas[n_reads + j] = pa,
                        None => {
                            ok = false;
                            break;
                        }
                    }
                }
            }
            if ok {
                for &pa in &pas[..n_reads] {
                    scratch.push(pa, false);
                }
                wv.fill(0);
                f(i, &rv, &mut wv);
                let base = self.c.sys.base_mut();
                for (j, v) in wv.iter().enumerate() {
                    base.mem
                        .store_mut()
                        .write_u64(stramash_mem::PhysAddr::new(pas[n_reads + j]), *v);
                    scratch.push(pas[n_reads + j], true);
                }
                pend += 1;
                if pend >= window {
                    self.indexed_flush(domain, &scratch, pend, ope, work_per)?;
                    scratch.clear();
                    pend = 0;
                    window = self.flush_cap(work_per).max(1);
                }
            } else {
                // Flush batched ops first so the access order matches
                // the scalar loop, then run this element through the
                // session, recording the pages it touches.
                if pend > 0 {
                    self.indexed_flush(domain, &scratch, pend, ope, work_per)?;
                    scratch.clear();
                    pend = 0;
                }
                self.indexed_element_session(
                    plan, reads, writes, idx, i, work_per, &mut rv, &mut wv, &mut f,
                )?;
                domain = plan.domain; // a fault may have re-keyed the plan
                window = self.flush_cap(work_per).max(1);
            }
            i += 1;
        }
        if pend > 0 {
            self.indexed_flush(domain, &scratch, pend, ope, work_per)?;
            scratch.clear();
        }
        plan.scratch = scratch;
        Ok(())
    }

    /// One flush-bounded replay chunk of [`BatchScope::plan_map_indexed`]:
    /// every op is a session TLB hit (its page was recorded under this
    /// generation), timed through `run_plan`, with the elements' `work`
    /// retired behind the accesses exactly like [`BatchScope::plan_replay`].
    fn indexed_flush(
        &mut self,
        domain: DomainId,
        scratch: &AccessPlan,
        m: usize,
        ope: usize,
        work_per: u64,
    ) -> Result<(), OsError> {
        let base = self.c.sys.base_mut();
        base.mem.note_tlb_hits(domain, (m * ope) as u64);
        let cyc = base.mem.run_plan(domain, scratch, 0..scratch.len());
        base.charge(domain, cyc);
        for _ in 0..m {
            self.c.work(work_per)?;
        }
        Ok(())
    }

    /// The boundary path of [`BatchScope::plan_map_indexed`]: one
    /// element through the session element ops (the canonical loop
    /// body), recording each touched page's canonical frame so later
    /// landings replay. A fault mid-element shoots down translations;
    /// the tables re-key to the new generation and refill lazily.
    #[allow(clippy::too_many_arguments)] // internal: the full per-element state
    fn indexed_element_session<F>(
        &mut self,
        plan: &mut IndexedPlan,
        reads: &[PlanCol],
        writes: &[PlanCol],
        idx: &[&[u64]],
        i: u64,
        work_per: u64,
        rv: &mut [u64],
        wv: &mut [u64],
        f: &mut F,
    ) -> Result<(), OsError>
    where
        F: FnMut(u64, &[u64], &mut [u64]),
    {
        for j in 0..reads.len() {
            let e = reads[j].resolve(i, idx, &rv[..j]);
            let va = reads[j].at(e);
            let (pa, _) = self.c.sys.session_translate(&mut self.c.session, va, false)?;
            let domain = self.c.session.domain();
            let base = self.c.sys.base_mut();
            let pa = base.mem.canonicalize(domain, pa);
            let (bits, cyc) = base.mem.read_u64_aligned(domain, pa);
            base.charge(domain, cyc);
            plan.record(j, va.raw(), pa.raw());
            rv[j] = bits;
        }
        wv.fill(0);
        f(i, rv, wv);
        for (j, c) in writes.iter().enumerate() {
            let e = c.resolve(i, idx, rv);
            let va = c.at(e);
            let (pa, _) = self.c.sys.session_translate(&mut self.c.session, va, true)?;
            let domain = self.c.session.domain();
            let base = self.c.sys.base_mut();
            let pa = base.mem.canonicalize(domain, pa);
            let cyc = base.mem.write_u64_aligned(domain, pa, wv[j]);
            base.charge(domain, cyc);
            plan.record(reads.len() + j, va.raw(), pa.raw());
        }
        self.c.work(work_per)?;
        if self.c.session.is_valid() {
            if self.c.session.generation() != plan.generation
                || self.c.session.domain() != plan.domain
            {
                plan.reset(&self.c.session, reads, writes);
            }
        } else {
            plan.invalidate();
        }
        Ok(())
    }
}

/// A compiled [`BatchScope::plan_map`] loop nest: the canonical access
/// sequence recorded once and replayed while it provably still
/// describes the live translations (same session domain, same TLB
/// generation, same shape). Create it outside the iteration loop and
/// pass it to every `plan_map` call; invalidation is automatic.
#[derive(Debug, Clone)]
pub struct ScopePlan {
    valid: bool,
    domain: DomainId,
    generation: u64,
    n: u64,
    work_per: u64,
    reads: Vec<u64>,
    writes: Vec<u64>,
    plan: AccessPlan,
}

impl Default for ScopePlan {
    fn default() -> Self {
        ScopePlan {
            valid: false,
            domain: DomainId::X86,
            generation: 0,
            n: 0,
            work_per: 0,
            reads: Vec::new(),
            writes: Vec::new(),
            plan: AccessPlan::default(),
        }
    }
}

impl ScopePlan {
    /// Creates an empty (uncompiled) plan.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether the plan currently holds a compiled sequence.
    #[must_use]
    pub fn is_compiled(&self) -> bool {
        self.valid
    }

    /// Drops the compiled sequence (the next `plan_map` recompiles).
    pub fn invalidate(&mut self) {
        self.valid = false;
        self.plan.clear();
    }

    /// Whether the compiled sequence still describes this exact loop
    /// over the session's current translations.
    fn matches(
        &self,
        session: &AccessSession,
        reads: &[ArrayF64],
        writes: &[ArrayF64],
        n: u64,
        work_per: u64,
    ) -> bool {
        self.valid
            && session.is_valid()
            && self.domain == session.domain()
            && self.generation == session.generation()
            && self.n == n
            && self.work_per == work_per
            && self.reads.len() == reads.len()
            && self.writes.len() == writes.len()
            && self.reads.iter().zip(reads).all(|(&b, a)| b == a.base().raw())
            && self.writes.iter().zip(writes).all(|(&b, a)| b == a.base().raw())
    }
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

/// The compiled state behind [`BatchScope::plan_map_indexed`]: one lazy
/// page table per column, mapping each virtual page of the array's span
/// to its canonical physical frame. Targets move call to call, but
/// translations do not — so the tables persist across calls (and across
/// different [`ColSpec`]s over the same arrays) while the session
/// domain, TLB generation and column arrays are unchanged. Create it
/// once outside the iteration loop; invalidation is automatic.
#[derive(Debug, Clone)]
pub struct IndexedPlan {
    valid: bool,
    domain: DomainId,
    generation: u64,
    /// `(base, len)` per column, reads then writes — the signature the
    /// tables were built for.
    cols: Vec<(u64, u64)>,
    /// First virtual page of each column's span.
    page0: Vec<u64>,
    /// Per column: virtual page index → canonical physical frame base
    /// (`u64::MAX` = not yet translated this generation).
    tables: Vec<Vec<u64>>,
    /// Reused op buffer for replay chunks.
    scratch: AccessPlan,
}

impl Default for IndexedPlan {
    fn default() -> Self {
        IndexedPlan {
            valid: false,
            domain: DomainId::X86,
            generation: 0,
            cols: Vec::new(),
            page0: Vec::new(),
            tables: Vec::new(),
            scratch: AccessPlan::default(),
        }
    }
}

impl IndexedPlan {
    /// Creates an empty (uncompiled) plan.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether any page translations are currently compiled.
    #[must_use]
    pub fn is_compiled(&self) -> bool {
        self.valid && self.tables.iter().flatten().any(|&p| p != u64::MAX)
    }

    /// Count of compiled (replayable) page translations across columns.
    #[must_use]
    pub fn mapped_pages(&self) -> usize {
        self.tables.iter().flatten().filter(|&&p| p != u64::MAX).count()
    }

    /// Drops every compiled translation (the next call refills lazily).
    pub fn invalidate(&mut self) {
        self.valid = false;
        self.cols.clear();
        self.page0.clear();
        self.tables.clear();
    }

    /// Whether the tables still describe this column set under the
    /// session's current translations.
    fn matches(&self, session: &AccessSession, reads: &[PlanCol], writes: &[PlanCol]) -> bool {
        self.valid
            && session.is_valid()
            && self.domain == session.domain()
            && self.generation == session.generation()
            && self.cols.len() == reads.len() + writes.len()
            && self
                .cols
                .iter()
                .zip(reads.iter().chain(writes))
                .all(|(&(b, l), c)| b == c.base.raw() && l == c.len)
    }

    /// Re-keys the tables to the session's current generation with
    /// every page unknown.
    fn reset(&mut self, session: &AccessSession, reads: &[PlanCol], writes: &[PlanCol]) {
        self.domain = session.domain();
        self.generation = session.generation();
        self.cols.clear();
        self.page0.clear();
        self.tables.clear();
        for c in reads.iter().chain(writes) {
            let p0 = c.base.raw() & !(PAGE_SIZE - 1);
            let end = c.base.raw() + c.len.max(1) * 8 - 1;
            let pages = ((end & !(PAGE_SIZE - 1)) - p0) / PAGE_SIZE + 1;
            self.cols.push((c.base.raw(), c.len));
            self.page0.push(p0);
            self.tables.push(vec![u64::MAX; pages as usize]);
        }
        self.valid = true;
    }

    /// Canonical physical address for `va` in column `col`, if its page
    /// is compiled.
    fn lookup(&self, col: usize, va: u64) -> Option<u64> {
        let pi = ((va - self.page0[col]) / PAGE_SIZE) as usize;
        let frame = self.tables[col][pi];
        (frame != u64::MAX).then_some(frame | (va & (PAGE_SIZE - 1)))
    }

    /// Records a session-translated canonical frame for `va`'s page.
    fn record(&mut self, col: usize, va: u64, pa: u64) {
        if !self.valid {
            return;
        }
        let pi = ((va - self.page0[col]) / PAGE_SIZE) as usize;
        self.tables[col][pi] = pa & !(PAGE_SIZE - 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stramash_kernel::system::VanillaSystem;
    use stramash_sim::SimConfig;

    fn client_env() -> (VanillaSystem, Pid) {
        let mut sys = VanillaSystem::new(SimConfig::big_pair()).unwrap();
        let pid = sys.spawn(DomainId::X86).unwrap();
        (sys, pid)
    }

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

    /// A mixed pattern exercising every scope op: slice stores/loads,
    /// fills, pairs, element ops, the fused helpers, and interleaved
    /// `work` — enough to cross pages, cache lines and exec flushes.
    fn scope_pattern(sys: &mut VanillaSystem, pid: Pid) -> f64 {
        let mut c = MemoryClient::new(sys, pid);
        let a = c.alloc_f64(600).unwrap();
        let b = c.alloc_f64(600).unwrap();
        let k = c.alloc_u64(600).unwrap();
        let mut acc = 0.0f64;
        {
            let mut s = c.batch().unwrap();
            let kv: Vec<u64> = (0..600).map(|i| i * 7).collect();
            s.st_u64_slice(k, 0, &kv, 3).unwrap();
            let av: Vec<f64> = (0..600).map(|i| i as f64 * 0.25).collect();
            s.st_f64_slice(a, 0, &av, 2).unwrap();
            s.fill_u64(k, 100, 200, 9, 1).unwrap();
            for i in 0..300 {
                let v = s.ld_f64(a, i).unwrap();
                s.st_f64(b, i, v + 1.0).unwrap();
                acc += s.ld_u64(k, i).unwrap() as f64;
                s.work(5).unwrap();
            }
            for i in 150..300 {
                let (x, y) = s.ld_f64_pair(a, 2 * i).unwrap();
                s.st_f64_pair(b, 2 * i, x + y, x - y).unwrap();
                s.work(4).unwrap();
            }
            acc += s.dot_f64(a, b, 600, 4).unwrap();
            s.axpy_f64(0.5, a, b, 600, 6).unwrap();
            let idx: Vec<u64> = (0..100).map(|i| (i * 37) % 600).collect();
            let mut out = Vec::new();
            s.gather_f64(a, &idx, &mut out, 2).unwrap();
            acc += out.iter().sum::<f64>();
            let mut back = vec![0.0f64; 600];
            s.ld_f64_slice(b, 0, &mut back, 3).unwrap();
            acc += back.iter().sum::<f64>();
        }
        c.flush_work().unwrap();
        acc
    }

    /// [`scope_pattern`] as the explicit loop of scalar client ops
    /// every scope op stands for — the reference the batched pipeline
    /// must reproduce cycle for cycle.
    fn scope_pattern_scalar(sys: &mut VanillaSystem, pid: Pid) -> f64 {
        let mut c = MemoryClient::new(sys, pid);
        let a = c.alloc_f64(600).unwrap();
        let b = c.alloc_f64(600).unwrap();
        let k = c.alloc_u64(600).unwrap();
        let mut acc = 0.0f64;
        for i in 0..600 {
            c.st_u64(k, i, i * 7).unwrap();
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
        for i in 0..600 {
            let y = c.ld_f64(b, i).unwrap();
            let x = c.ld_f64(a, i).unwrap();
            c.st_f64(b, i, y + 0.5 * x).unwrap();
            c.work(6).unwrap();
        }
        let mut out = Vec::new();
        for i in (0..100).map(|i| (i * 37) % 600) {
            out.push(c.ld_f64(a, i).unwrap());
            c.work(2).unwrap();
        }
        acc += out.iter().sum::<f64>();
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
    /// read-modify-write), a rank scatter through an index slice, and a
    /// replay of the same segment with moved targets over the compiled
    /// pages.
    fn indexed_pattern(sys: &mut VanillaSystem, pid: Pid) -> u64 {
        let mut c = MemoryClient::new(sys, pid);
        let keys = c.alloc_u64(512).unwrap();
        let hist = c.alloc_u64(64).unwrap();
        let out = c.alloc_u64(512).unwrap();
        let mut acc = 0u64;
        {
            let mut s = c.batch().unwrap();
            let kv: Vec<u64> = (0..512).map(|i| (i * 37) % 64).collect();
            s.st_u64_slice(keys, 0, &kv, 2).unwrap();
            s.fill_u64(hist, 0, 64, 0, 1).unwrap();
            let dense = ColSpec::Dense { stride: 1, offset: 0 };
            let bucket = ColSpec::Value { col: 0, offset: 0 };
            let mut plan = IndexedPlan::new();
            // hist[keys[i]] += 1 — the IS histogram shape.
            s.plan_map_indexed(
                &mut plan,
                &[PlanCol::u64(keys, dense), PlanCol::u64(hist, bucket)],
                &[PlanCol::u64(hist, bucket)],
                &[],
                512,
                6,
                |_, rv, wv| wv[0] = rv[1] + 1,
            )
            .unwrap();
            // out[idx[i]] = 3*keys[i] + 1 — an index-slice scatter; two
            // passes with different slices replay over compiled pages.
            let mut plan2 = IndexedPlan::new();
            for mul in [131u64, 257] {
                let idxs: Vec<u64> = (0..512).map(|i| (i * mul) % 512).collect();
                s.plan_map_indexed(
                    &mut plan2,
                    &[PlanCol::u64(keys, dense)],
                    &[PlanCol::u64(out, ColSpec::Index { slice: 0, offset: 0 })],
                    &[&idxs],
                    512,
                    4,
                    |_, rv, wv| wv[0] = rv[0] * 3 + 1,
                )
                .unwrap();
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

    /// [`indexed_pattern`] as the explicit scalar loop each plan
    /// segment stands for: per element, load every read column, store
    /// every write column, then `work`.
    fn indexed_pattern_scalar(sys: &mut VanillaSystem, pid: Pid) -> u64 {
        let mut c = MemoryClient::new(sys, pid);
        let keys = c.alloc_u64(512).unwrap();
        let hist = c.alloc_u64(64).unwrap();
        let out = c.alloc_u64(512).unwrap();
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

    /// A CG-shaped plan-mapped pattern: three rounds over the same
    /// [`ScopePlan`] (one compile, two replays), with a column that is
    /// both read and written and a per-round scalar threaded through
    /// the closure.
    fn plan_pattern(sys: &mut VanillaSystem, pid: Pid) -> f64 {
        let mut c = MemoryClient::new(sys, pid);
        let x = c.alloc_f64(700).unwrap();
        let d = c.alloc_f64(700).unwrap();
        let r = c.alloc_f64(700).unwrap();
        let mut plan = ScopePlan::new();
        let mut acc = 0.0f64;
        {
            let mut s = c.batch().unwrap();
            let xv: Vec<f64> = (0..700).map(|i| i as f64 * 0.5).collect();
            s.st_f64_slice(x, 0, &xv, 2).unwrap();
            let dv: Vec<f64> = (0..700).map(|i| 1.0 + i as f64 * 0.125).collect();
            s.st_f64_slice(d, 0, &dv, 2).unwrap();
            let rv: Vec<f64> = (0..700).map(|i| 2.0 - i as f64 * 0.0625).collect();
            s.st_f64_slice(r, 0, &rv, 2).unwrap();
            for round in 0..3 {
                let alpha = 0.25 + f64::from(round);
                let mut rho = 0.0f64;
                s.plan_map(&mut plan, &[x, d, r], &[x, r], 700, 10, |_i, rv, wv| {
                    wv[0] = rv[0] + alpha * rv[1];
                    wv[1] = rv[2] - alpha * rv[1];
                    rho += wv[1] * wv[1];
                })
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
        assert_eq!(fast_acc, ref_acc, "plan replay must be value-exact");
        assert_eq!(fast_clock, ref_clock, "compile + replay must keep the clock");
        assert_eq!(fast_stats, ref_stats, "every stats counter must match");
    }

    #[test]
    fn plan_invalidation_forces_recompile() {
        let (mut sys, pid) = client_env();
        let mut c = MemoryClient::new(&mut sys, pid);
        let a = c.alloc_f64(64).unwrap();
        let b = c.alloc_f64(64).unwrap();
        let mut plan = ScopePlan::new();
        let mut s = c.batch().unwrap();
        s.st_f64_slice(a, 0, &[3.0; 64], 1).unwrap();
        s.plan_map(&mut plan, &[a], &[b], 64, 2, |_i, rv, wv| wv[0] = rv[0] * 2.0)
            .unwrap();
        assert!(plan.is_compiled());
        // A replay over the compiled sequence stays value-exact.
        s.plan_map(&mut plan, &[a], &[b], 64, 2, |_i, rv, wv| wv[0] = rv[0] + 1.0)
            .unwrap();
        assert_eq!(s.ld_f64(b, 5).unwrap(), 4.0);
        // Shape changes and explicit invalidation both force recompiles.
        assert!(plan.is_compiled());
        s.plan_map(&mut plan, &[a], &[b], 32, 2, |_i, rv, wv| wv[0] = rv[0] - 1.0)
            .unwrap();
        assert_eq!(s.ld_f64(b, 5).unwrap(), 2.0);
        plan.invalidate();
        assert!(!plan.is_compiled());
        s.plan_map(&mut plan, &[a], &[b], 32, 2, |_i, rv, wv| wv[0] = rv[0] * 3.0)
            .unwrap();
        assert!(plan.is_compiled());
        assert_eq!(s.ld_f64(b, 5).unwrap(), 9.0);
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
