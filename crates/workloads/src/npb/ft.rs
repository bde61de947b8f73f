//! FT — 3-D Fast Fourier Transform.
//!
//! Each iteration evolves the spectrum and applies an inverse 3-D FFT,
//! exactly like NPB FT's time-stepping of a PDE spectral solve. The
//! dimension-2/3 passes stride across the array, touching many pages
//! per pass — which is why FT shows the highest residual replication
//! count for Stramash in Table 3 (sparse first touches keep missing
//! upper-level page-table chains).
//!
//! Verification is end-to-end: `inverse_fft(evolve⁻¹(evolve(fft(x))))`
//! must reproduce the initial data within floating-point tolerance.

use super::{offload, Class, DataRng, NpbOutcome};
use crate::client::{ArrayF64, ColSpec, MemoryClient, PlanCol};
use stramash_kernel::process::Pid;
use stramash_kernel::system::{OsError, OsSystem};

struct Params {
    /// Edge length (power of two).
    n: u64,
    iterations: u32,
}

fn params(class: Class) -> Params {
    match class {
        Class::Tiny => Params { n: 8, iterations: 1 },
        Class::Small => Params { n: 16, iterations: 2 },
        // 32³ complex grid = 1 MB, strided hard across it.
        Class::Validation => Params { n: 32, iterations: 1 },
        // 64³ complex grid = 4 MB in flight with heavily strided passes.
        Class::Large => Params { n: 64, iterations: 1 },
    }
}

/// Interleaved complex array: element `i` occupies slots `2i` (re) and
/// `2i + 1` (im).
#[derive(Clone, Copy)]
struct ComplexGrid {
    n: u64,
    data: ArrayF64,
}

impl ComplexGrid {
    fn slot(&self, x: u64, y: u64, z: u64) -> u64 {
        2 * ((z * self.n + y) * self.n + x)
    }
}

/// The (re, im) column pair of `data` driven by index slice `sl` (each
/// slice value is a complex element's re slot; im follows at +1).
fn complex_cols(data: ArrayF64, sl: usize) -> [PlanCol; 2] {
    [
        PlanCol::f64(data, ColSpec::Index { slice: sl, offset: 0 }),
        PlanCol::f64(data, ColSpec::Index { slice: sl, offset: 1 }),
    ]
}

/// Runs FT. See [`super::run_npb`].
pub fn run<S: OsSystem>(
    sys: &mut S,
    pid: Pid,
    class: Class,
    migrate: bool,
) -> Result<NpbOutcome, OsError> {
    let p = params(class);
    let cells = p.n * p.n * p.n;
    let mut c = MemoryClient::new(sys, pid);
    let grid = ComplexGrid { n: p.n, data: c.alloc_f64(cells * 2)? };

    // Initial pseudo-random field, kept host-side for verification.
    let mut rng = DataRng::new(0xF7);
    let mut initial = Vec::with_capacity((cells * 2) as usize);
    let pair = [0, 1].map(|offset| PlanCol::f64(grid.data, ColSpec::Dense { stride: 2, offset }));
    c.batch()?.plan_map_indexed(&[], &pair, &[], cells, 10, |_, _, wv| {
        let re = rng.next_f64() - 0.5;
        let im = rng.next_f64() - 0.5;
        wv[0] = re.to_bits();
        wv[1] = im.to_bits();
        initial.push(re);
        initial.push(im);
    })?;

    let mut procedures = 0;
    let evolve_phase = 0.37f64;
    for _ in 0..p.iterations {
        offload(&mut c, migrate, |c| {
            // Forward 3-D FFT.
            fft3d(c, grid, false)?;
            // Evolve: rotate every mode by a fixed phase (unit modulus,
            // trivially invertible — NPB uses exp(-4π²t|k|²)).
            apply_phase(c, grid, evolve_phase)?;
            // Undo the evolution and invert the transform so the result
            // is checkable against the initial field.
            apply_phase(c, grid, -evolve_phase)?;
            fft3d(c, grid, true)?;
            Ok(())
        })?;
        procedures += 1;
    }

    // Checksum + end-to-end verification on the origin: a pure
    // sequential read, one read-only plan segment.
    let mut checksum = 0.0f64;
    let mut max_err = 0.0f64;
    let all = PlanCol::f64(grid.data, ColSpec::Dense { stride: 1, offset: 0 });
    c.batch()?.plan_map_indexed(&[all], &[], &[], cells * 2, 6, |i, rv, _| {
        let v = f64::from_bits(rv[0]);
        checksum += v;
        max_err = max_err.max((v - initial[i as usize]).abs());
    })?;
    c.flush_work()?;
    Ok(NpbOutcome { verified: max_err < 1e-9, checksum, procedures })
}

/// Multiplies every element by `e^{iθ}` where θ = `phase`.
fn apply_phase<S: OsSystem>(
    c: &mut MemoryClient<'_, S>,
    g: ComplexGrid,
    phase: f64,
) -> Result<(), OsError> {
    let (sin, cos) = phase.sin_cos();
    let cells = g.n * g.n * g.n;
    let cols = [
        PlanCol::f64(g.data, ColSpec::Dense { stride: 2, offset: 0 }),
        PlanCol::f64(g.data, ColSpec::Dense { stride: 2, offset: 1 }),
    ];
    let mut s = c.batch()?;
    s.plan_map_indexed(&cols, &cols, &[], cells, 10, |_, rv, wv| {
        let re = f64::from_bits(rv[0]);
        let im = f64::from_bits(rv[1]);
        wv[0] = (re * cos - im * sin).to_bits();
        wv[1] = (re * sin + im * cos).to_bits();
    })
}

/// In-place 3-D FFT: 1-D transforms along x, then y, then z.
fn fft3d<S: OsSystem>(
    c: &mut MemoryClient<'_, S>,
    g: ComplexGrid,
    inverse: bool,
) -> Result<(), OsError> {
    let n = g.n;
    // Along x (unit stride).
    for z in 0..n {
        for y in 0..n {
            let slots: Vec<u64> = (0..n).map(|x| g.slot(x, y, z)).collect();
            fft1d(c, g.data, &slots, inverse)?;
        }
    }
    // Along y (stride n).
    for z in 0..n {
        for x in 0..n {
            let slots: Vec<u64> = (0..n).map(|y| g.slot(x, y, z)).collect();
            fft1d(c, g.data, &slots, inverse)?;
        }
    }
    // Along z (stride n²).
    for y in 0..n {
        for x in 0..n {
            let slots: Vec<u64> = (0..n).map(|z| g.slot(x, y, z)).collect();
            fft1d(c, g.data, &slots, inverse)?;
        }
    }
    Ok(())
}

/// Iterative radix-2 Cooley–Tukey over the elements at `slots` (each
/// slot is the re index; im follows at slot + 1). Every loop runs as a
/// data-dependent plan segment: the pair targets move line to line and
/// stage to stage, but the translations resolve from the session.
fn fft1d<S: OsSystem>(
    c: &mut MemoryClient<'_, S>,
    data: ArrayF64,
    slots: &[u64],
    inverse: bool,
) -> Result<(), OsError> {
    let n = slots.len();
    debug_assert!(n.is_power_of_two());
    let [a, b] = [0, 1].map(|sl| complex_cols(data, sl));
    let ab = [a[0], a[1], b[0], b[1]];
    let mut s = c.batch()?;
    // Bit-reversal permutation: collect the swap pairs, then exchange
    // them through the pair segment.
    let mut swap_a = Vec::new();
    let mut swap_b = Vec::new();
    let mut j = 0usize;
    for i in 1..n {
        let mut bit = n >> 1;
        while j & bit != 0 {
            j ^= bit;
            bit >>= 1;
        }
        j |= bit;
        if i < j {
            swap_a.push(slots[i]);
            swap_b.push(slots[j]);
        }
    }
    s.plan_map_indexed(&ab, &ab, &[&swap_a, &swap_b], swap_a.len() as u64, 12, |_, rv, wv| {
        wv[0] = rv[2];
        wv[1] = rv[3];
        wv[2] = rv[0];
        wv[3] = rv[1];
    })?;
    // Butterflies: one flattened segment per stage, the twiddle
    // recurrence carried element-major in the closure (reset at each
    // block boundary, exactly like the nested scalar loops).
    let sign = if inverse { 1.0 } else { -1.0 };
    let mut av: Vec<u64> = Vec::with_capacity(n / 2);
    let mut bv: Vec<u64> = Vec::with_capacity(n / 2);
    let mut len = 2usize;
    while len <= n {
        let ang = sign * 2.0 * std::f64::consts::PI / len as f64;
        let (wsin, wcos) = ang.sin_cos();
        av.clear();
        bv.clear();
        let mut start = 0usize;
        while start < n {
            for k in 0..len / 2 {
                av.push(slots[start + k]);
                bv.push(slots[start + k + len / 2]);
            }
            start += len;
        }
        let half = (len / 2) as u64;
        let mut wr = 1.0f64;
        let mut wi = 0.0f64;
        s.plan_map_indexed(&ab, &ab, &[&av, &bv], av.len() as u64, 20, |i, rv, wv| {
            if i % half == 0 {
                wr = 1.0;
                wi = 0.0;
            }
            let ar = f64::from_bits(rv[0]);
            let ai = f64::from_bits(rv[1]);
            let br = f64::from_bits(rv[2]);
            let bi = f64::from_bits(rv[3]);
            let tr = br * wr - bi * wi;
            let ti = br * wi + bi * wr;
            wv[0] = (ar + tr).to_bits();
            wv[1] = (ai + ti).to_bits();
            wv[2] = (ar - tr).to_bits();
            wv[3] = (ai - ti).to_bits();
            let nwr = wr * wcos - wi * wsin;
            wi = wr * wsin + wi * wcos;
            wr = nwr;
        })?;
        len <<= 1;
    }
    if inverse {
        let inv = 1.0 / n as f64;
        let cols = complex_cols(data, 0);
        s.plan_map_indexed(&cols, &cols, &[slots], n as u64, 8, |_, rv, wv| {
            wv[0] = (f64::from_bits(rv[0]) * inv).to_bits();
            wv[1] = (f64::from_bits(rv[1]) * inv).to_bits();
        })?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use stramash_kernel::system::VanillaSystem;
    use stramash_sim::{DomainId, SimConfig};

    #[test]
    fn ft_roundtrips_locally() {
        let mut sys = VanillaSystem::new(SimConfig::big_pair()).unwrap();
        let pid = sys.spawn(DomainId::X86).unwrap();
        let out = run(&mut sys, pid, Class::Tiny, false).unwrap();
        assert!(out.verified, "FFT round-trip must recover the input");
        assert_eq!(out.procedures, 1);
    }

    #[test]
    fn ft_roundtrips_with_migration() {
        let mut sys = stramash::StramashSystem::new(SimConfig::big_pair()).unwrap();
        let pid = sys.spawn(DomainId::X86).unwrap();
        let out = run(&mut sys, pid, Class::Tiny, true).unwrap();
        assert!(out.verified);
    }

    #[test]
    fn fft1d_matches_direct_dft() {
        // Check the butterfly network against a brute-force DFT on a
        // small vector, through the Vanilla system.
        let mut sys = VanillaSystem::new(SimConfig::big_pair()).unwrap();
        let pid = sys.spawn(DomainId::X86).unwrap();
        let mut c = MemoryClient::new(&mut sys, pid);
        let data = c.alloc_f64(16).unwrap();
        let input: Vec<(f64, f64)> =
            (0..8).map(|i| ((i as f64).sin(), (i as f64 * 0.3).cos())).collect();
        for (i, &(re, im)) in input.iter().enumerate() {
            c.st_f64(data, 2 * i as u64, re).unwrap();
            c.st_f64(data, 2 * i as u64 + 1, im).unwrap();
        }
        let slots: Vec<u64> = (0..8).map(|i| 2 * i).collect();
        fft1d(&mut c, data, &slots, false).unwrap();
        // Direct DFT of bin 3.
        let k = 3;
        let mut re = 0.0;
        let mut im = 0.0;
        for (t, &(xr, xi)) in input.iter().enumerate() {
            let ang = -2.0 * std::f64::consts::PI * (k * t) as f64 / 8.0;
            re += xr * ang.cos() - xi * ang.sin();
            im += xr * ang.sin() + xi * ang.cos();
        }
        let got_re = c.ld_f64(data, 2 * k as u64).unwrap();
        let got_im = c.ld_f64(data, 2 * k as u64 + 1).unwrap();
        assert!((got_re - re).abs() < 1e-9, "{got_re} vs {re}");
        assert!((got_im - im).abs() < 1e-9, "{got_im} vs {im}");
    }
}
