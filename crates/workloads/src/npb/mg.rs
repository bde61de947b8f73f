//! MG — MultiGrid.
//!
//! V-cycles on a 3-D Poisson problem: residual evaluation with a 7-point
//! stencil, restriction to a coarser grid, smoothing, prolongation and
//! correction. The large strided sweeps over 3-D arrays generate the
//! streaming access pattern (and the huge Popcorn message counts of
//! Table 3 — every remotely-touched page is replicated).

use super::{offload, Class, NpbOutcome};
use crate::client::{ArrayF64, ColSpec, MemoryClient, PlanCol};
use stramash_kernel::process::Pid;
use stramash_kernel::system::{OsError, OsSystem};

struct Params {
    /// Fine-grid edge length (power of two).
    n: u64,
    /// V-cycles to run.
    cycles: u32,
}

fn params(class: Class) -> Params {
    match class {
        Class::Tiny => Params { n: 8, cycles: 2 },
        Class::Small => Params { n: 16, cycles: 3 },
        // 32³ fine grid ≈ 2.2 MB of level data (3 arrays + coarser levels).
        Class::Validation => Params { n: 32, cycles: 2 },
        // 64³ fine grid ≈ 19 MB of level data.
        Class::Large => Params { n: 64, cycles: 2 },
    }
}

/// 3-D index into an `n`³ grid stored x-fastest.
fn idx(n: u64, x: u64, y: u64, z: u64) -> u64 {
    (z * n + y) * n + x
}

/// One grid level: the solution `u`, right-hand side `v` and residual
/// `r` arrays plus the edge length.
#[derive(Clone, Copy)]
struct Level {
    n: u64,
    u: ArrayF64,
    v: ArrayF64,
    r: ArrayF64,
}

/// Host-side loop structure for one level: the cell-index slices that
/// drive the data-dependent plan segments.
struct LevelAux {
    /// Interior cell indices in z,y,x traversal order.
    interior: Vec<u64>,
    /// Boundary cell indices in z,y,x traversal order.
    boundary: Vec<u64>,
    /// Fine-grid source index per coarse cell (restriction injection).
    restrict_src: Vec<u64>,
    /// Coarse-grid source index per interior fine cell (prolongation).
    prolong_src: Vec<u64>,
}

impl LevelAux {
    fn new(n: u64, coarse_n: Option<u64>) -> Self {
        let mut interior = Vec::new();
        let mut boundary = Vec::new();
        for z in 0..n {
            for y in 0..n {
                for x in 0..n {
                    let i = idx(n, x, y, z);
                    if x == 0 || y == 0 || z == 0 || x == n - 1 || y == n - 1 || z == n - 1 {
                        boundary.push(i);
                    } else {
                        interior.push(i);
                    }
                }
            }
        }
        let mut restrict_src = Vec::new();
        let mut prolong_src = Vec::new();
        if let Some(cn) = coarse_n {
            for z in 0..cn {
                for y in 0..cn {
                    for x in 0..cn {
                        restrict_src.push(idx(n, x * 2, y * 2, z * 2));
                    }
                }
            }
            for z in 1..n - 1 {
                for y in 1..n - 1 {
                    for x in 1..n - 1 {
                        prolong_src.push(idx(cn, x / 2, y / 2, z / 2));
                    }
                }
            }
        }
        LevelAux { interior, boundary, restrict_src, prolong_src }
    }
}

/// The 7-point stencil's read columns over `u` followed by the cell's
/// `v`, all driven by the interior-cell index slice: center, ±x, ±y,
/// ±z neighbours, then the right-hand side.
fn stencil_cols(u: ArrayF64, v: ArrayF64, n: u64) -> [PlanCol; 8] {
    let at = |off: i64| PlanCol::f64(u, ColSpec::Index { slice: 0, offset: off });
    let n = n as i64;
    let rhs = PlanCol::f64(v, ColSpec::Index { slice: 0, offset: 0 });
    [at(0), at(-1), at(1), at(-n), at(n), at(-n * n), at(n * n), rhs]
}

/// Runs MG. See [`super::run_npb`].
pub fn run<S: OsSystem>(
    sys: &mut S,
    pid: Pid,
    class: Class,
    migrate: bool,
) -> Result<NpbOutcome, OsError> {
    let p = params(class);
    let mut c = MemoryClient::new(sys, pid);

    // Build the level hierarchy down to 4³.
    let mut levels = Vec::new();
    let mut n = p.n;
    while n >= 4 {
        let cells = n * n * n;
        levels.push(Level {
            n,
            u: c.alloc_f64(cells)?,
            v: c.alloc_f64(cells)?,
            r: c.alloc_f64(cells)?,
        });
        n /= 2;
    }

    // Initial state on the origin: u = 0 everywhere; v has two point
    // charges (the classic MG test problem).
    let fine = levels[0];
    {
        let mut s = c.batch()?;
        for i in 0..fine.n * fine.n * fine.n {
            s.st_f64(fine.u, i, 0.0)?;
            s.st_f64(fine.v, i, 0.0)?;
            s.work(4)?;
        }
        let q = fine.n / 4;
        s.st_f64(fine.v, idx(fine.n, q, q, q), 1.0)?;
        s.st_f64(fine.v, idx(fine.n, 3 * q, 3 * q, 3 * q), -1.0)?;
    }

    // Host-side loop structure per level: the plan segments' index slices.
    let aux: Vec<LevelAux> = (0..levels.len())
        .map(|d| LevelAux::new(levels[d].n, levels.get(d + 1).map(|l| l.n)))
        .collect();

    let initial = residual_norm(&mut c, fine, &aux[0])?;
    let mut procedures = 0;

    for _ in 0..p.cycles {
        let lv = levels.clone();
        offload(&mut c, migrate, |c| v_cycle(c, &lv, &aux, 0))?;
        procedures += 1;
    }
    let final_norm = residual_norm(&mut c, fine, &aux[0])?;
    c.flush_work()?;

    let verified = final_norm.is_finite() && final_norm < initial * 0.6;
    Ok(NpbOutcome { verified, checksum: final_norm, procedures })
}

/// residual r = v − A u with the 7-point Laplacian: a boundary-clear
/// pass, then the interior stencil as an indexed plan segment (the
/// neighbour offsets ride the interior-cell index slice).
fn compute_residual<S: OsSystem>(
    c: &mut MemoryClient<'_, S>,
    l: Level,
    aux: &LevelAux,
) -> Result<(), OsError> {
    let cell = ColSpec::Index { slice: 0, offset: 0 };
    let mut s = c.batch()?;
    s.plan_map_indexed(
        &[],
        &[PlanCol::f64(l.r, cell)],
        &[&aux.boundary],
        aux.boundary.len() as u64,
        0,
        |_, _, wv| wv[0] = 0.0f64.to_bits(),
    )?;
    s.plan_map_indexed(
        &stencil_cols(l.u, l.v, l.n),
        &[PlanCol::f64(l.r, cell)],
        &[&aux.interior],
        aux.interior.len() as u64,
        16,
        |_, rv, wv| {
            let center = f64::from_bits(rv[0]);
            let sum = f64::from_bits(rv[1])
                + f64::from_bits(rv[2])
                + f64::from_bits(rv[3])
                + f64::from_bits(rv[4])
                + f64::from_bits(rv[5])
                + f64::from_bits(rv[6]);
            let au = 6.0 * center - sum;
            let v = f64::from_bits(rv[7]);
            wv[0] = (v - au).to_bits();
        },
    )?;
    Ok(())
}

/// Weighted-Jacobi smoothing sweeps as an indexed plan segment: in-place
/// over `u`, so each element's neighbour reads see earlier elements'
/// writes exactly as the scalar sweep would.
fn smooth<S: OsSystem>(
    c: &mut MemoryClient<'_, S>,
    l: Level,
    aux: &LevelAux,
    sweeps: u32,
) -> Result<(), OsError> {
    let omega = 0.8;
    let reads = stencil_cols(l.u, l.v, l.n);
    let mut s = c.batch()?;
    for _ in 0..sweeps {
        s.plan_map_indexed(
            &reads,
            &[PlanCol::f64(l.u, ColSpec::Index { slice: 0, offset: 0 })],
            &[&aux.interior],
            aux.interior.len() as u64,
            18,
            |_, rv, wv| {
                let old = f64::from_bits(rv[0]);
                let sum = f64::from_bits(rv[1])
                    + f64::from_bits(rv[2])
                    + f64::from_bits(rv[3])
                    + f64::from_bits(rv[4])
                    + f64::from_bits(rv[5])
                    + f64::from_bits(rv[6]);
                let v = f64::from_bits(rv[7]);
                let jac = (v + sum) / 6.0;
                wv[0] = (old + omega * (jac - old)).to_bits();
            },
        )?;
    }
    Ok(())
}

/// One V-cycle at `depth`.
fn v_cycle<S: OsSystem>(
    c: &mut MemoryClient<'_, S>,
    levels: &[Level],
    aux: &[LevelAux],
    depth: usize,
) -> Result<(), OsError> {
    let l = levels[depth];
    if depth + 1 == levels.len() {
        // Coarsest level: solve by heavy smoothing.
        smooth(c, l, &aux[depth], 8)?;
        return Ok(());
    }
    smooth(c, l, &aux[depth], 2)?;
    compute_residual(c, l, &aux[depth])?;
    // Restrict r to the coarser grid's v (injection of even cells): the
    // fine-grid gather indices ride the restriction index slice.
    let coarse = levels[depth + 1];
    {
        let a = &aux[depth];
        let mut s = c.batch()?;
        let dense = ColSpec::Dense { stride: 1, offset: 0 };
        s.plan_map_indexed(
            &[PlanCol::f64(l.r, ColSpec::Index { slice: 0, offset: 0 })],
            &[PlanCol::f64(coarse.v, dense), PlanCol::f64(coarse.u, dense)],
            &[&a.restrict_src],
            a.restrict_src.len() as u64,
            8,
            |_, rv, wv| {
                wv[0] = rv[0];
                wv[1] = 0.0f64.to_bits();
            },
        )?;
    }
    v_cycle(c, levels, aux, depth + 1)?;
    // Prolongate the coarse correction and add it in: the coarse-cell
    // gather indices ride their own slice alongside the interior one.
    {
        let a = &aux[depth];
        let mut s = c.batch()?;
        let cell = ColSpec::Index { slice: 0, offset: 0 };
        s.plan_map_indexed(
            &[
                PlanCol::f64(coarse.u, ColSpec::Index { slice: 1, offset: 0 }),
                PlanCol::f64(l.u, cell),
            ],
            &[PlanCol::f64(l.u, cell)],
            &[&a.interior, &a.prolong_src],
            a.interior.len() as u64,
            8,
            |_, rv, wv| {
                let e = f64::from_bits(rv[0]);
                let u = f64::from_bits(rv[1]);
                wv[0] = (u + e).to_bits();
            },
        )?;
    }
    smooth(c, l, &aux[depth], 2)?;
    Ok(())
}

/// ‖v − A u‖₂ on the fine grid.
fn residual_norm<S: OsSystem>(
    c: &mut MemoryClient<'_, S>,
    l: Level,
    aux: &LevelAux,
) -> Result<f64, OsError> {
    compute_residual(c, l, aux)?;
    // The norm reduction reads r sequentially — a read-only segment.
    let mut acc = 0.0;
    let r = PlanCol::f64(l.r, ColSpec::Dense { stride: 1, offset: 0 });
    c.batch()?.plan_map_indexed(&[r], &[], &[], l.n * l.n * l.n, 4, |_, rv, _| {
        let r = f64::from_bits(rv[0]);
        acc += r * r;
    })?;
    Ok(acc.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;
    use stramash_kernel::system::VanillaSystem;
    use stramash_sim::{DomainId, SimConfig};

    #[test]
    fn mg_reduces_residual_locally() {
        let mut sys = VanillaSystem::new(SimConfig::big_pair()).unwrap();
        let pid = sys.spawn(DomainId::X86).unwrap();
        let out = run(&mut sys, pid, Class::Tiny, false).unwrap();
        assert!(out.verified, "V-cycles must reduce the residual: {}", out.checksum);
        assert_eq!(out.procedures, 2);
    }

    #[test]
    fn mg_reduces_residual_with_migration() {
        let mut sys = popcorn_os::PopcornSystem::new_shm(SimConfig::big_pair()).unwrap();
        let pid = sys.spawn(DomainId::X86).unwrap();
        let out = run(&mut sys, pid, Class::Tiny, true).unwrap();
        assert!(out.verified);
        assert!(sys.replicated_pages(pid) > 0, "Popcorn must have replicated grid pages");
    }

    #[test]
    fn idx_is_x_fastest() {
        assert_eq!(idx(8, 0, 0, 0), 0);
        assert_eq!(idx(8, 1, 0, 0), 1);
        assert_eq!(idx(8, 0, 1, 0), 8);
        assert_eq!(idx(8, 0, 0, 1), 64);
    }
}
