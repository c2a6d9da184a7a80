//! Adjoint sensitivity analysis.
//!
//! For the system `A(ε)·e = b` and a real objective
//! `F = Σ_m c_m·|a_m|²` built from linear functionals `a_m = w_mᵀ·e`
//! (modal amplitudes), the gradient with respect to each cell's relative
//! permittivity is
//!
//! ```text
//!   dF/dε_k = −2·ω²·Re( e_adj[k] · e[k] ),
//!   Aᵀ·e_adj = Σ_m c_m·conj(a_m)·w_m .
//! ```
//!
//! One extra transpose solve (reusing the forward LU factorization) yields
//! the full-field gradient — the core of MAPS-InvDes and the "adjoint
//! gradient" rich label of MAPS-Data.

use crate::monitor::LinearFunctional;
use crate::simulation::FdfdSolver;
use maps_core::{ComplexField2d, RealField2d, SolveFieldError};
use maps_linalg::{Complex64, Sweep};

/// A differentiable power objective `F = Σ_m c_m·|a_m(e)|²`.
#[derive(Debug, Clone, Default)]
pub struct PowerObjective {
    terms: Vec<(LinearFunctional, f64)>,
}

impl PowerObjective {
    /// Creates an empty objective.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a term `coefficient · |functional(e)|²`. Positive coefficients
    /// reward power (e.g. transmission), negative ones penalize it
    /// (e.g. reflection or crosstalk).
    pub fn with_term(mut self, functional: LinearFunctional, coefficient: f64) -> Self {
        self.terms.push((functional, coefficient));
        self
    }

    /// Number of terms.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// Returns `true` when the objective has no terms.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Evaluates `F(e)`.
    pub fn eval(&self, ez: &ComplexField2d) -> f64 {
        self.terms
            .iter()
            .map(|(w, c)| c * w.eval(ez).norm_sqr())
            .sum()
    }

    /// The adjoint right-hand side `∂F/∂e = Σ_m c_m·conj(a_m)·w_m`
    /// evaluated at the forward solution.
    pub fn adjoint_rhs(&self, ez: &ComplexField2d) -> Vec<Complex64> {
        let n = ez.grid().len();
        let mut rhs = vec![Complex64::ZERO; n];
        for (w, c) in &self.terms {
            let a = w.eval(ez);
            let factor = a.conj() * *c;
            for &(k, wk) in &w.weights {
                rhs[k] += factor * wk;
            }
        }
        rhs
    }
}

/// Result of a combined forward + adjoint solve.
#[derive(Debug, Clone)]
pub struct AdjointSolution {
    /// Forward field `e`.
    pub forward: ComplexField2d,
    /// Adjoint field `e_adj` (solution of the transposed system).
    pub adjoint: ComplexField2d,
    /// Objective value `F(e)`.
    pub objective: f64,
    /// `dF/dε_r` for every grid cell.
    pub gradient: RealField2d,
}

/// Solves the forward and adjoint systems and assembles the permittivity
/// gradient. The banded LU factorization is computed once and shared by
/// both solves.
///
/// # Errors
///
/// Returns [`SolveFieldError`] when the inputs are inconsistent or the
/// factorization fails.
pub fn solve_with_adjoint(
    solver: &FdfdSolver,
    eps_r: &RealField2d,
    source: &ComplexField2d,
    omega: f64,
    objective: &PowerObjective,
) -> Result<AdjointSolution, SolveFieldError> {
    if eps_r.grid() != source.grid() {
        return Err(SolveFieldError::GridMismatch {
            detail: "eps and source grids differ".into(),
        });
    }
    if !(omega.is_finite() && omega > 0.0) {
        return Err(SolveFieldError::InvalidInput {
            detail: "omega must be positive and finite".into(),
        });
    }
    let _span = maps_obs::span("fdfd.solve_with_adjoint").field("cells", eps_r.grid().len());
    maps_obs::counter("fdfd.forward_solves").inc();
    maps_obs::counter("fdfd.adjoint_solves").inc();
    // Shared via the factorization cache: within this call the forward and
    // transposed solves reuse one LU, and across calls a repeated design
    // (e.g. an S-param sweep after an invdes iteration) skips the
    // factorization entirely.
    let lu = crate::factor_cache::factor(eps_r, omega, solver.pml(), || {
        solver.operator(eps_r, omega).to_banded()
    })
    .map_err(|e| SolveFieldError::Numerical {
        detail: e.to_string(),
    })?;
    let mut b = FdfdSolver::rhs(source, omega);
    let forward = {
        let _s = maps_obs::span("fdfd.backsub");
        lu.solve(Sweep::Forward, std::slice::from_mut(&mut b));
        ComplexField2d::from_vec(eps_r.grid(), b)
    };
    let objective_value = objective.eval(&forward);
    let mut rhs = objective.adjoint_rhs(&forward);
    let adjoint = {
        let _s = maps_obs::span("fdfd.backsub").field("transposed", true);
        lu.solve(Sweep::Transposed, std::slice::from_mut(&mut rhs));
        ComplexField2d::from_vec(eps_r.grid(), rhs)
    };
    let gradient = gradient_from_fields(&forward, &adjoint, omega);
    Ok(AdjointSolution {
        forward,
        adjoint,
        objective: objective_value,
        gradient,
    })
}

/// Assembles `dF/dε_k = −2ω²·Re(e_adj[k]·e[k])` from forward and adjoint
/// fields — also usable with *predicted* fields from a neural solver
/// (the paper's "Fwd & Adj Field" gradient method, Table II).
pub fn gradient_from_fields(
    forward: &ComplexField2d,
    adjoint: &ComplexField2d,
    omega: f64,
) -> RealField2d {
    assert_eq!(forward.grid(), adjoint.grid(), "field grids differ");
    let w2 = omega * omega;
    let data = forward
        .as_slice()
        .iter()
        .zip(adjoint.as_slice())
        .map(|(e, ea)| -2.0 * w2 * (*ea * *e).re)
        .collect();
    RealField2d::from_vec(forward.grid(), data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::ModeMonitor;
    use crate::source::ModeSource;
    use maps_core::{Axis, Direction, Grid2d, Port, Rect, Shape};

    /// Straight waveguide with a tweakable design cell; check the adjoint
    /// gradient against a central finite difference.
    #[test]
    fn adjoint_gradient_matches_finite_difference() {
        let grid = Grid2d::new(60, 44, 0.08);
        let omega = maps_core::omega_for_wavelength(1.55);
        let yc = grid.height() / 2.0;
        let mut eps = RealField2d::constant(grid, 2.07);
        maps_core::paint(
            &mut eps,
            &Shape::Rect(Rect::new(0.0, yc - 0.24, grid.width(), yc + 0.24)),
            12.11,
        );
        let solver = FdfdSolver::new();
        let in_port = Port::new((1.3, yc), 0.48, Axis::X, Direction::Positive);
        let out_port = Port::new((grid.width() - 1.3, yc), 0.48, Axis::X, Direction::Positive);
        let src = ModeSource::new(&eps, &in_port, omega).unwrap();
        let j = src.current_density(grid);
        let monitor = ModeMonitor::new(&eps, &out_port, omega).unwrap();
        let objective = PowerObjective::new().with_term(monitor.outgoing_functional(), 1.0);

        let sol = solve_with_adjoint(&solver, &eps, &j, omega, &objective).unwrap();
        assert!(sol.objective > 0.0, "waveguide should transmit");

        // Central finite difference on three representative cells.
        let test_cells = [(30, 22), (28, 20), (32, 24)];
        let h = 1e-5;
        for &(ix, iy) in &test_cells {
            let mut ep = eps.clone();
            ep.set(ix, iy, ep.get(ix, iy) + h);
            let mut em = eps.clone();
            em.set(ix, iy, em.get(ix, iy) - h);
            use maps_core::FieldSolver;
            let fp = objective.eval(&solver.solve_ez(&ep, &j, omega).unwrap());
            let fm = objective.eval(&solver.solve_ez(&em, &j, omega).unwrap());
            let fd = (fp - fm) / (2.0 * h);
            let adj = sol.gradient.get(ix, iy);
            let denom = fd.abs().max(adj.abs()).max(1e-12);
            assert!(
                (fd - adj).abs() / denom < 1e-4,
                "cell ({ix},{iy}): fd {fd:.6e} vs adjoint {adj:.6e}"
            );
        }
    }

    #[test]
    fn objective_eval_and_rhs_consistency() {
        // For F = |wᵀe|², the adjoint RHS dotted with e must equal F
        // (Euler's identity for the quadratic form).
        let grid = Grid2d::new(8, 8, 0.1);
        let mut ez = ComplexField2d::zeros(grid);
        for iy in 0..8 {
            for ix in 0..8 {
                ez.set(
                    ix,
                    iy,
                    Complex64::new(ix as f64 * 0.2, iy as f64 * 0.1 - 0.3),
                );
            }
        }
        let w = LinearFunctional {
            weights: vec![
                (3, Complex64::new(1.0, 0.5)),
                (17, Complex64::new(-0.5, 0.2)),
            ],
        };
        let obj = PowerObjective::new().with_term(w, 2.0);
        let f = obj.eval(&ez);
        let rhs = obj.adjoint_rhs(&ez);
        let dot: Complex64 = rhs.iter().zip(ez.as_slice()).map(|(r, e)| *r * *e).sum();
        assert!((dot.re - f).abs() < 1e-12, "{} vs {}", dot.re, f);
    }

    #[test]
    fn empty_objective_gives_zero_gradient() {
        let grid = Grid2d::new(40, 36, 0.08);
        let omega = maps_core::omega_for_wavelength(1.55);
        let eps = RealField2d::constant(grid, 1.0);
        let mut j = ComplexField2d::zeros(grid);
        j.set(20, 18, Complex64::ONE);
        let sol = solve_with_adjoint(&FdfdSolver::new(), &eps, &j, omega, &PowerObjective::new())
            .unwrap();
        assert_eq!(sol.objective, 0.0);
        assert!(sol.gradient.as_slice().iter().all(|g| *g == 0.0));
    }
}
