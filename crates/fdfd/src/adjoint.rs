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
//! One extra solve yields the full-field gradient via
//! [`gradient_from_fields`]: [`crate::FdfdSolver`]'s `solve_adjoint_ez`,
//! which answers `Aᵀ·e_adj = c` as `e_adj = D·S⁻¹·c` with the symmetrized
//! `S = D·A` (`Aᵀ = S·D⁻¹`, see [`crate::operator::symmetrizer`]),
//! reusing the forward factorization through the factor cache. Since the
//! right-hand side is linear in the fixed `w_m`, the adjoint field is also
//! `Σ_m c_m·conj(a_m)·(Aᵀ)⁻¹·w_m`, so the `w_m` can be solved in one block
//! with the forward source ([`PowerObjective::terms`]). It is the core of
//! MAPS-InvDes (whose gradient backends compose the solves) and the
//! "adjoint gradient" rich label of MAPS-Data.

use crate::monitor::LinearFunctional;
use maps_core::{ComplexField2d, RealField2d};
use maps_linalg::Complex64;

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

    /// The terms `(w_m, c_m)`, in the order they were added.
    pub fn terms(&self) -> &[(LinearFunctional, f64)] {
        &self.terms
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
    use crate::simulation::FdfdSolver;
    use maps_core::{FieldSolver, Grid2d};

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
        let solver = FdfdSolver::new();
        let forward = solver.solve_ez(&eps, &j, omega).unwrap();
        let objective = PowerObjective::new();
        assert_eq!(objective.eval(&forward), 0.0);
        let rhs = ComplexField2d::from_vec(grid, objective.adjoint_rhs(&forward));
        let adjoint = solver.solve_adjoint_ez(&eps, &rhs, omega).unwrap();
        let gradient = gradient_from_fields(&forward, &adjoint, omega);
        assert!(gradient.as_slice().iter().all(|g| *g == 0.0));
    }
}
