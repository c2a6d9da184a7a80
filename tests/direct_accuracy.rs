//! Accuracy of the direct solver after its residual guard: every forward
//! solve `A·x = b` and adjoint solve `Aᵀ·y = c` of `FdfdSolver` ends with a
//! relative residual of at most 1e-12, on the device systems the workloads
//! solve and on high-contrast and under-resolved stress systems.
//!
//! The direct solver factors the symmetrized operator without pivoting
//! and refines a solution once when its residual exceeds 1e-12, so these
//! bounds hold with that refinement, not only on easy systems.

use maps::core::{ComplexField2d, FieldSolver, Grid2d, RealField2d};
use maps::data::{DeviceKind, DeviceResolution};
use maps::fdfd::{FdfdSolver, PmlConfig};
use maps::invdes::Patch;
use maps::linalg::dense::znorm;
use maps::linalg::Complex64;

/// The guard's bound, checked on `A` itself.
const BOUND: f64 = 1e-12;

/// Uniform numbers in `[0, 1)` from a fixed xorshift stream.
fn uniform(seed: u64) -> impl FnMut() -> f64 {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        (s >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// `‖v − w‖ / ‖w‖`.
fn relative(v: &[Complex64], w: &[Complex64]) -> f64 {
    let d: Vec<Complex64> = v.iter().zip(w).map(|(a, b)| *a - *b).collect();
    znorm(&d) / znorm(w)
}

/// Solves the forward system for `source` and the adjoint system for `c`
/// (or for the forward field when `c` is `None`), and asserts both
/// residuals against the assembled operator.
fn assert_guarded(
    what: &str,
    solver: &FdfdSolver,
    eps: &RealField2d,
    source: &ComplexField2d,
    omega: f64,
    c: Option<&ComplexField2d>,
) {
    let ez = solver.solve_ez(eps, source, omega).unwrap();
    let forward = solver.residual(eps, source, omega, &ez);
    let c = c.cloned().unwrap_or_else(|| ez.clone());
    let y = solver.solve_adjoint_ez(eps, &c, omega).unwrap();
    let at_y = solver
        .operator(eps, omega)
        .to_banded()
        .matvec_transposed(y.as_slice());
    let adjoint = relative(&at_y, c.as_slice());
    assert!(
        forward <= BOUND && adjoint <= BOUND,
        "{what}: forward residual {forward:e}, adjoint residual {adjoint:e}"
    );
}

/// The six devices at 40×40 with a uniform, a random and a random-binary
/// density, and the bend at 80×80, with their own sources and objectives.
#[test]
fn device_systems_meet_the_bound() {
    let low = DeviceKind::all().map(|kind| (kind, DeviceResolution::low()));
    let cases = low
        .into_iter()
        .chain([(DeviceKind::Bending, DeviceResolution::high())]);
    for (kind, res) in cases {
        let problem = kind.build(res).problem;
        let (dx, dy) = problem.design_size;
        let mut next = uniform(dx as u64 * 31 + kind as u64);
        let random: Vec<f64> = (0..dx * dy).map(|_| next()).collect();
        let binary = random.iter().map(|r| r.round()).collect();
        let densities = [
            ("uniform", Patch::constant(dx, dy, 0.5)),
            ("random", Patch::from_vec(dx, dy, random.clone())),
            ("binary", Patch::from_vec(dx, dy, binary)),
        ];
        let solver = FdfdSolver::with_pml(PmlConfig::auto(problem.grid().dl));
        let omega = problem.omega();
        let source = problem.source().unwrap();
        let objective = problem.objective().unwrap();
        for (name, patch) in &densities {
            let eps = problem.eps_for(patch);
            let ez = solver.solve_ez(&eps, &source, omega).unwrap();
            let c = ComplexField2d::from_vec(eps.grid(), objective.adjoint_rhs(&ez));
            let what = format!("{kind:?} {}x{} {name}", eps.grid().nx, eps.grid().ny);
            assert_guarded(&what, &solver, &eps, &source, omega, Some(&c));
        }
    }
}

/// Random binary permittivity over the whole 80×80 grid, ε ∈ {1, 100} and
/// {1, 1e4}, at PML 4 and 12: `ω²·ε_max·dl²` is 4.1 and 410, far from
/// resolved, and the pivots of the unpivoted factorization grow.
#[test]
fn high_contrast_binary_systems_meet_the_bound() {
    let grid = Grid2d::new(80, 80, 0.05);
    let omega = maps::core::omega_for_wavelength(1.55);
    let mut source = ComplexField2d::zeros(grid);
    source.set(40, 40, Complex64::ONE);
    for eps_hi in [100.0, 1e4] {
        let mut next = uniform(eps_hi as u64);
        let mut eps = RealField2d::constant(grid, 1.0);
        for iy in 0..grid.ny {
            for ix in 0..grid.nx {
                if next() < 0.5 {
                    eps.set(ix, iy, eps_hi);
                }
            }
        }
        for thickness in [4, 12] {
            let solver = FdfdSolver::with_pml(PmlConfig {
                thickness,
                ..PmlConfig::default()
            });
            let what = format!("binary 1/{eps_hi:e}, PML {thickness}");
            assert_guarded(&what, &solver, &eps, &source, omega, None);
        }
    }
}

/// Uniform permittivity with `ω²·ε·dl²` of 0.1, 4 and 12: from well
/// resolved to three cells per wavelength and below.
#[test]
fn uniform_media_across_resolutions_meet_the_bound() {
    let grid = Grid2d::new(40, 40, 0.05);
    let omega = maps::core::omega_for_wavelength(1.55);
    let solver = FdfdSolver::with_pml(PmlConfig::auto(grid.dl));
    let mut source = ComplexField2d::zeros(grid);
    source.set(17, 22, Complex64::new(1.0, -0.5));
    for k2 in [0.1, 4.0, 12.0] {
        let eps = RealField2d::constant(grid, k2 / (omega * omega * grid.dl * grid.dl));
        let what = format!("uniform ω²ε·dl² = {k2}");
        assert_guarded(&what, &solver, &eps, &source, omega, None);
    }
}
