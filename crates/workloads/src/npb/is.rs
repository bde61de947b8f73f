//! IS — Integer Sort (bucket ranking).
//!
//! The write-intensive kernel: every iteration histograms the keys,
//! prefix-sums the buckets, and scatters the keys into ranked positions
//! — "integer sorting algorithms … modify the sequence of keys during
//! the procedure stage" (§9.2.1). The scatter phase's random-index
//! writes are what give Stramash its biggest win (Figure 9's 2.1×):
//! every write invalidates peer cache lines rather than replicating
//! pages.

use super::{offload, Class, DataRng, NpbOutcome};
use crate::client::{ArrayU64, ColSpec, MemoryClient, PlanCol};
use stramash_kernel::process::Pid;
use stramash_kernel::system::{OsError, OsSystem};

pub(crate) struct Params {
    pub(crate) keys: u64,
    pub(crate) max_key: u64,
    pub(crate) iterations: u32,
}

pub(crate) fn params(class: Class) -> Params {
    match class {
        Class::Tiny => Params { keys: 1 << 10, max_key: 1 << 7, iterations: 2 },
        // keys + ranked output = 8 MB: past the 4 MB L3, inside 32 MB.
        Class::Small => Params { keys: 1 << 19, max_key: 1 << 11, iterations: 3 },
        // 2 MB working set: between L2 and L3.
        Class::Validation => Params { keys: 1 << 17, max_key: 1 << 11, iterations: 3 },
        // 64 MB working set: exceeds even the 32 MB LLC, the regime
        // where the paper's Figure 10 IS trend lives.
        Class::Large => Params { keys: 1 << 22, max_key: 1 << 11, iterations: 2 },
    }
}

/// The three IS arrays: the keys, the ranked output and the histogram
/// (one bucket per key value).
#[derive(Debug, Clone, Copy)]
pub(crate) struct IsArrays {
    pub(crate) keys: ArrayU64,
    pub(crate) sorted: ArrayU64,
    pub(crate) hist: ArrayU64,
}

/// Allocates the IS arrays and generates the keys on the origin (the
/// NPB driver phase): one zero-read plan segment drawing each key from
/// the RNG as its element is stored.
///
/// # Errors
///
/// VMA and translation errors.
pub(crate) fn setup<S: OsSystem>(
    c: &mut MemoryClient<'_, S>,
    p: &Params,
) -> Result<IsArrays, OsError> {
    let keys = c.alloc_u64(p.keys)?;
    let sorted = c.alloc_u64(p.keys)?;
    let hist = c.alloc_u64(p.max_key)?;
    let mut rng = DataRng::new(0x15_15);
    let dense = PlanCol::u64(keys, ColSpec::Dense { stride: 1, offset: 0 });
    c.batch()?.plan_map_indexed(&[], &[dense], &[], p.keys, 8, |_, _, wv| {
        wv[0] = rng.next_u64() % p.max_key;
    })?;
    Ok(IsArrays { keys, sorted, hist })
}

/// One ranking procedure: clear the histogram, histogram the keys,
/// prefix-sum the buckets and scatter every key to its rank. The loops
/// are data-dependent plan segments: the bucket and rank targets are
/// recomputed from the loaded key every call, while the page
/// translations resolve from the client's session.
///
/// # Errors
///
/// Translation errors.
pub(crate) fn rank<S: OsSystem>(c: &mut MemoryClient<'_, S>, a: IsArrays) -> Result<(), OsError> {
    let IsArrays { keys, sorted, hist } = a;
    let dense = ColSpec::Dense { stride: 1, offset: 0 };
    let bucket = ColSpec::Value { col: 0, offset: 0 };
    let mut s = c.batch()?;
    s.plan_map_indexed(&[], &[PlanCol::u64(hist, dense)], &[], hist.len(), 2, |_, _, wv| {
        wv[0] = 0;
    })?;
    // Histogram the keys (read key, read-modify-write bucket — the
    // bucket index is the key value itself).
    s.plan_map_indexed(
        &[PlanCol::u64(keys, dense), PlanCol::u64(hist, bucket)],
        &[PlanCol::u64(hist, bucket)],
        &[],
        keys.len(),
        6,
        |_, rv, wv| wv[0] = rv[1] + 1,
    )?;
    // Exclusive prefix sum over the buckets.
    let mut acc = 0u64;
    s.plan_map_indexed(
        &[PlanCol::u64(hist, dense)],
        &[PlanCol::u64(hist, dense)],
        &[],
        hist.len(),
        4,
        |_, rv, wv| {
            wv[0] = acc;
            acc += rv[0];
        },
    )?;
    // Scatter: rank every key (write-heavy, random indices — the ranked
    // position is the bucket's running count).
    s.plan_map_indexed(
        &[PlanCol::u64(keys, dense), PlanCol::u64(hist, bucket)],
        &[PlanCol::u64(sorted, ColSpec::Value { col: 1, offset: 0 }), PlanCol::u64(hist, bucket)],
        &[],
        keys.len(),
        8,
        |_, rv, wv| {
            wv[0] = rv[0];
            wv[1] = rv[1] + 1;
        },
    )
}

/// Partial verification on the origin (as NPB does each iteration):
/// spot-checks ordering at a few positions and stops at the first
/// violation, so it stays per-element.
///
/// # Errors
///
/// Translation errors.
pub(crate) fn spot_check<S: OsSystem>(
    c: &mut MemoryClient<'_, S>,
    sorted: ArrayU64,
) -> Result<bool, OsError> {
    let step = (sorted.len() / 7).max(1);
    let mut s = c.batch()?;
    let mut i = step;
    while i < sorted.len() {
        let a = s.ld_u64(sorted, i - step)?;
        let b = s.ld_u64(sorted, i)?;
        if a > b {
            return Ok(false);
        }
        s.work(6)?;
        i += step;
    }
    Ok(true)
}

/// Full verification: whether the output is in order, and the sum of
/// its keys. It reads every element unconditionally: one read-only
/// plan segment.
///
/// # Errors
///
/// Translation errors.
pub(crate) fn verify_sorted<S: OsSystem>(
    c: &mut MemoryClient<'_, S>,
    sorted: ArrayU64,
) -> Result<(bool, f64), OsError> {
    let mut checksum = 0.0f64;
    let mut prev = 0u64;
    let mut ordered = true;
    let dense = PlanCol::u64(sorted, ColSpec::Dense { stride: 1, offset: 0 });
    c.batch()?.plan_map_indexed(&[dense], &[], &[], sorted.len(), 5, |_, rv, _| {
        let k = rv[0];
        if k < prev {
            ordered = false;
        }
        prev = k;
        checksum += k as f64;
    })?;
    Ok((ordered, checksum))
}

/// Runs IS. See [`super::run_npb`].
pub fn run<S: OsSystem>(
    sys: &mut S,
    pid: Pid,
    class: Class,
    migrate: bool,
) -> Result<NpbOutcome, OsError> {
    let p = params(class);
    let mut c = MemoryClient::new(sys, pid);
    let arrays = setup(&mut c, &p)?;
    let mut procedures = 0;
    for iter in 0..p.iterations {
        // One ranking procedure, offloaded per §9.2.
        offload(&mut c, migrate, |c| rank(c, arrays))?;
        procedures += 1;
        if !spot_check(&mut c, arrays.sorted)? {
            return Ok(NpbOutcome { verified: false, checksum: iter as f64, procedures });
        }
    }
    let (verified, checksum) = verify_sorted(&mut c, arrays.sorted)?;
    c.flush_work()?;
    Ok(NpbOutcome { verified, checksum, procedures })
}

#[cfg(test)]
mod tests {
    use super::*;
    use stramash_kernel::system::VanillaSystem;
    use stramash_sim::{DomainId, SimConfig};

    #[test]
    fn is_sorts_correctly_without_migration() {
        let mut sys = VanillaSystem::new(SimConfig::big_pair()).unwrap();
        let pid = sys.spawn(DomainId::X86).unwrap();
        let out = run(&mut sys, pid, Class::Tiny, false).unwrap();
        assert!(out.verified, "IS output must be sorted");
        assert_eq!(out.procedures, 2);
        assert!(out.checksum > 0.0);
    }

    #[test]
    fn is_sorts_correctly_with_migration_on_stramash() {
        let mut sys = stramash::StramashSystem::new(SimConfig::big_pair()).unwrap();
        let pid = sys.spawn(DomainId::X86).unwrap();
        let out = run(&mut sys, pid, Class::Tiny, true).unwrap();
        assert!(out.verified);
        // The process ends back on the origin.
        use stramash_kernel::system::OsSystem as _;
        assert_eq!(sys.current_domain(pid).unwrap(), DomainId::X86);
    }

    #[test]
    fn is_checksum_identical_across_systems() {
        // Functional equivalence: the same sorted result regardless of
        // which OS ran it.
        let mut vanilla = VanillaSystem::new(SimConfig::big_pair()).unwrap();
        let pid = vanilla.spawn(DomainId::X86).unwrap();
        let a = run(&mut vanilla, pid, Class::Tiny, false).unwrap();

        let mut pop = popcorn_os::PopcornSystem::new_shm(SimConfig::big_pair()).unwrap();
        let pid = pop.spawn(DomainId::X86).unwrap();
        let b = run(&mut pop, pid, Class::Tiny, true).unwrap();

        assert!(b.verified);
        assert_eq!(a.checksum, b.checksum);
    }
}
