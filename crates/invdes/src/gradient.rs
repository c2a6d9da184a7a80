//! Gradient backends: how `dF/dε` is obtained.
//!
//! Every backend runs one composition: a forward solve, the objective and
//! its adjoint right-hand side, an adjoint solve, and `dF/dε` from the two
//! fields, with both fields checked finite. The exact path runs it over an
//! [`FdfdSolver`], whose solves factorize through the process-wide
//! `maps_fdfd::factor_cache`, so the forward solve and the adjoint solve
//! (a solve against the same symmetrized operator, scaled by its
//! diagonal `D`, since `Aᵀ = D·A·D⁻¹`) share one factorization, and
//! re-evaluations of the same design skip the factorization entirely. The
//! generic path runs it over *any*
//! [`FieldSolver`] — including a trained neural operator, with the
//! reciprocity-based default adjoint, which is how the paper drives inverse
//! design from NN-predicted forward and adjoint fields (§IV-D, Fig. 6).

use maps_core::{ComplexField2d, FieldSolver, RealField2d, SolveFieldError, SolveRequest};
use maps_fdfd::{gradient_from_fields, FdfdSolver, PowerObjective};

/// One excitation of a batched gradient evaluation: a source, its angular
/// frequency, and the objective differentiated under that excitation.
#[derive(Debug, Clone, Copy)]
pub struct GradientRequest<'a> {
    /// Source current density of this excitation.
    pub source: &'a ComplexField2d,
    /// Angular frequency of this excitation.
    pub omega: f64,
    /// Objective evaluated and differentiated under this excitation.
    pub objective: &'a PowerObjective,
}

/// Produces the objective value, its permittivity gradient, and the forward
/// field for a candidate design.
pub trait GradientSolver {
    /// Evaluates `F` and `dF/dε` at a permittivity map.
    ///
    /// # Errors
    ///
    /// Returns [`SolveFieldError`] when the underlying solves fail.
    fn objective_and_gradient(
        &self,
        eps_r: &RealField2d,
        source: &ComplexField2d,
        omega: f64,
        objective: &PowerObjective,
    ) -> Result<GradientEvaluation, SolveFieldError>;

    /// Evaluates a batch of excitations against one permittivity map,
    /// returning one result per request in input order.
    ///
    /// The default implementation calls
    /// [`GradientSolver::objective_and_gradient`] sequentially. Backends
    /// built on a [`FieldSolver`] override this to issue all forward solves
    /// as one `solve_ez_batch` and all adjoint solves as a second batch, so
    /// a K-excitation design iteration factorizes once per distinct ω
    /// instead of once per solve.
    fn objective_and_gradient_batch(
        &self,
        eps_r: &RealField2d,
        requests: &[GradientRequest<'_>],
    ) -> Vec<Result<GradientEvaluation, SolveFieldError>> {
        requests
            .iter()
            .map(|r| self.objective_and_gradient(eps_r, r.source, r.omega, r.objective))
            .collect()
    }

    /// Backend name for logs and tables.
    fn name(&self) -> &str;
}

/// The scalar gradient composition every backend shares: forward solve,
/// finite check, objective and adjoint right-hand side, adjoint solve,
/// finite check, gradient. Over an [`FdfdSolver`] the forward and adjoint
/// solves share one factorization through the factor cache.
fn gradient_via_field_solver(
    solver: &dyn FieldSolver,
    eps_r: &RealField2d,
    source: &ComplexField2d,
    omega: f64,
    objective: &PowerObjective,
) -> Result<GradientEvaluation, SolveFieldError> {
    let forward = solver.solve_ez(eps_r, source, omega)?;
    // Defense in depth: the objective and rhs only sample the field at
    // the port monitors, so a solver returning Ok with poisoned values
    // elsewhere would otherwise corrupt the gradient silently.
    maps_core::ensure_finite(&forward, solver.name())?;
    let objective_value = objective.eval(&forward);
    let rhs = ComplexField2d::from_vec(eps_r.grid(), objective.adjoint_rhs(&forward));
    let adjoint = solver.solve_adjoint_ez(eps_r, &rhs, omega)?;
    maps_core::ensure_finite(&adjoint, solver.name())?;
    let grad_eps = gradient_from_fields(&forward, &adjoint, omega);
    Ok(GradientEvaluation {
        objective: objective_value,
        grad_eps,
        forward,
        adjoint,
    })
}

/// The shared two-phase batch: all forward solves in one
/// [`FieldSolver::solve_ez_batch`], objective evaluation and adjoint RHS
/// assembly in between, then all adjoint solves in a second batch. A failed
/// forward drops only its own request from the adjoint phase.
fn batch_via_field_solver(
    solver: &dyn FieldSolver,
    eps_r: &RealField2d,
    requests: &[GradientRequest<'_>],
) -> Vec<Result<GradientEvaluation, SolveFieldError>> {
    let forward_reqs: Vec<SolveRequest<'_>> = requests
        .iter()
        .map(|r| SolveRequest::forward(r.source, r.omega))
        .collect();
    let forwards = solver.solve_ez_batch(eps_r, &forward_reqs);
    let mut slots: Vec<Option<Result<GradientEvaluation, SolveFieldError>>> =
        requests.iter().map(|_| None).collect();
    // Survivors of the forward phase, with their objective values and
    // adjoint right-hand sides (kept alive for the adjoint batch borrows).
    let mut survivors: Vec<(usize, ComplexField2d, f64)> = Vec::new();
    let mut adjoint_rhs: Vec<ComplexField2d> = Vec::new();
    for (i, result) in forwards.into_iter().enumerate() {
        // Defense in depth: the objective and rhs only sample the field at
        // the port monitors, so a solver returning Ok with poisoned values
        // elsewhere would otherwise corrupt the gradient silently.
        let checked = result.and_then(|f| maps_core::ensure_finite(&f, solver.name()).map(|()| f));
        match checked {
            Ok(forward) => {
                let objective_value = requests[i].objective.eval(&forward);
                adjoint_rhs.push(ComplexField2d::from_vec(
                    eps_r.grid(),
                    requests[i].objective.adjoint_rhs(&forward),
                ));
                survivors.push((i, forward, objective_value));
            }
            Err(e) => slots[i] = Some(Err(e)),
        }
    }
    let adjoint_reqs: Vec<SolveRequest<'_>> = adjoint_rhs
        .iter()
        .zip(&survivors)
        .map(|(rhs, (i, _, _))| SolveRequest::adjoint(rhs, requests[*i].omega))
        .collect();
    let adjoints = solver.solve_ez_batch(eps_r, &adjoint_reqs);
    for ((i, forward, objective_value), result) in survivors.into_iter().zip(adjoints) {
        let evaluated = result
            .and_then(|a| maps_core::ensure_finite(&a, solver.name()).map(|()| a))
            .map(|adjoint| {
                let grad_eps = gradient_from_fields(&forward, &adjoint, requests[i].omega);
                GradientEvaluation {
                    objective: objective_value,
                    grad_eps,
                    forward,
                    adjoint,
                }
            });
        slots[i] = Some(evaluated);
    }
    slots
        .into_iter()
        .map(|s| s.expect("every gradient request must be answered"))
        .collect()
}

/// The output of one gradient evaluation.
#[derive(Debug, Clone)]
pub struct GradientEvaluation {
    /// Objective value `F(e)`.
    pub objective: f64,
    /// Full-grid `dF/dε_r`.
    pub grad_eps: RealField2d,
    /// The forward field (kept for monitors, labels, plots).
    pub forward: ComplexField2d,
    /// The adjoint field.
    pub adjoint: ComplexField2d,
}

/// Exact adjoint via the FDFD direct solver (one factorization, two
/// substitutions).
#[derive(Debug, Clone)]
pub struct ExactAdjoint {
    solver: FdfdSolver,
}

impl ExactAdjoint {
    /// Wraps an FDFD solver.
    pub fn new(solver: FdfdSolver) -> Self {
        ExactAdjoint { solver }
    }

    /// The wrapped solver.
    pub fn solver(&self) -> &FdfdSolver {
        &self.solver
    }
}

impl Default for ExactAdjoint {
    fn default() -> Self {
        ExactAdjoint::new(FdfdSolver::new())
    }
}

impl GradientSolver for ExactAdjoint {
    fn objective_and_gradient(
        &self,
        eps_r: &RealField2d,
        source: &ComplexField2d,
        omega: f64,
        objective: &PowerObjective,
    ) -> Result<GradientEvaluation, SolveFieldError> {
        gradient_via_field_solver(&self.solver, eps_r, source, omega, objective)
    }

    fn objective_and_gradient_batch(
        &self,
        eps_r: &RealField2d,
        requests: &[GradientRequest<'_>],
    ) -> Vec<Result<GradientEvaluation, SolveFieldError>> {
        batch_via_field_solver(&self.solver, eps_r, requests)
    }

    fn name(&self) -> &str {
        "exact-adjoint"
    }
}

/// Gradient through any [`FieldSolver`]: a forward solve plus an adjoint
/// solve (exact when the solver provides it, as [`FdfdSolver`] does; the
/// trait's reciprocity default otherwise — e.g. for neural surrogates).
pub struct FieldGradient<'a> {
    solver: &'a dyn FieldSolver,
}

impl<'a> FieldGradient<'a> {
    /// Wraps a field solver by reference.
    pub fn new(solver: &'a dyn FieldSolver) -> Self {
        FieldGradient { solver }
    }
}

impl std::fmt::Debug for FieldGradient<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "FieldGradient({})", self.solver.name())
    }
}

impl GradientSolver for FieldGradient<'_> {
    fn objective_and_gradient(
        &self,
        eps_r: &RealField2d,
        source: &ComplexField2d,
        omega: f64,
        objective: &PowerObjective,
    ) -> Result<GradientEvaluation, SolveFieldError> {
        gradient_via_field_solver(self.solver, eps_r, source, omega, objective)
    }

    fn objective_and_gradient_batch(
        &self,
        eps_r: &RealField2d,
        requests: &[GradientRequest<'_>],
    ) -> Vec<Result<GradientEvaluation, SolveFieldError>> {
        batch_via_field_solver(self.solver, eps_r, requests)
    }

    fn name(&self) -> &str {
        "field-gradient"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maps_core::{Axis, Direction, Grid2d, Port, Rect, Shape};
    use maps_fdfd::{LinearFunctional, ModeMonitor, ModeSource};
    use maps_linalg::Complex64;

    /// A straight waveguide with a mode source on the left and the
    /// outgoing-mode functional of a monitor on the right:
    /// `(eps, source, omega, functional)`.
    fn waveguide(nx: usize, ny: usize) -> (RealField2d, ComplexField2d, f64, LinearFunctional) {
        let grid = Grid2d::new(nx, ny, 0.08);
        let omega = maps_core::omega_for_wavelength(1.55);
        let yc = grid.height() / 2.0;
        let mut eps = RealField2d::constant(grid, 2.07);
        maps_core::paint(
            &mut eps,
            &Shape::Rect(Rect::new(0.0, yc - 0.24, grid.width(), yc + 0.24)),
            12.11,
        );
        let port = |x: f64| Port::new((x, yc), 0.48, Axis::X, Direction::Positive);
        let j = ModeSource::new(&eps, &port(1.2), omega)
            .unwrap()
            .current_density(grid);
        let monitor = ModeMonitor::new(&eps, &port(grid.width() - 1.2), omega).unwrap();
        (eps, j, omega, monitor.outgoing_functional())
    }

    fn assert_fields_bitwise(a: &ComplexField2d, b: &ComplexField2d, what: &str) {
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert_eq!(x.re.to_bits(), y.re.to_bits(), "{what}");
            assert_eq!(x.im.to_bits(), y.im.to_bits(), "{what}");
        }
    }

    fn assert_gradients_bitwise(a: &GradientEvaluation, b: &GradientEvaluation) {
        assert_eq!(a.objective.to_bits(), b.objective.to_bits());
        for (x, y) in a.grad_eps.as_slice().iter().zip(b.grad_eps.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        assert_fields_bitwise(&a.forward, &b.forward, "forward");
        assert_fields_bitwise(&a.adjoint, &b.adjoint, "adjoint");
    }

    /// Batched evaluation through the FDFD batch plane must reproduce the
    /// scalar trait path bit-for-bit: the same factor answers both, and the
    /// substitution sweeps are the same operations.
    #[test]
    fn batched_gradients_match_scalar_bitwise() {
        let (eps, j, omega, w) = waveguide(56, 40);
        let obj_fwd = PowerObjective::new().with_term(w.clone(), 1.0);
        let obj_neg = PowerObjective::new().with_term(w, -0.5);

        let fdfd = FdfdSolver::new();
        let generic = FieldGradient::new(&fdfd);
        let requests = [
            GradientRequest {
                source: &j,
                omega,
                objective: &obj_fwd,
            },
            GradientRequest {
                source: &j,
                omega,
                objective: &obj_neg,
            },
        ];
        let batch = generic.objective_and_gradient_batch(&eps, &requests);
        assert_eq!(batch.len(), 2);
        for (b, r) in batch.iter().zip(&requests) {
            let s = generic
                .objective_and_gradient(&eps, r.source, r.omega, r.objective)
                .unwrap();
            assert_gradients_bitwise(b.as_ref().unwrap(), &s);
        }
    }

    /// The exact adjoint and the trait-based gradient over the same
    /// `FdfdSolver` run one composition, so they agree bit for bit.
    #[test]
    fn exact_and_trait_gradients_agree() {
        let (eps, j, omega, w) = waveguide(56, 40);
        let obj = PowerObjective::new().with_term(w, 1.0);
        let exact = ExactAdjoint::default();
        let e1 = exact.objective_and_gradient(&eps, &j, omega, &obj).unwrap();
        let fdfd = FdfdSolver::new();
        let e2 = FieldGradient::new(&fdfd)
            .objective_and_gradient(&eps, &j, omega, &obj)
            .unwrap();
        assert_gradients_bitwise(&e1, &e2);
    }

    /// `ExactAdjoint` is pinned to a plain, uncached reference: factorize
    /// the symmetrized operator `S = D·A`, solve `S·x = D·b` for the
    /// forward field, solve `S·z = c` and scale `z` by `D` for the adjoint
    /// (`Aᵀ = S·D⁻¹`), and assemble the gradient from the two fields.
    #[test]
    fn exact_adjoint_matches_uncached_reference_bitwise() {
        let (eps, j, omega, w) = waveguide(48, 36);
        let obj = PowerObjective::new().with_term(w, 1.0);
        let exact = ExactAdjoint::default();
        let got = exact.objective_and_gradient(&eps, &j, omega, &obj).unwrap();

        let pml = exact.solver().pml();
        let factor = maps_fdfd::SymmetricOperator::new(&eps, omega, pml)
            .factorize()
            .unwrap();
        let d = maps_fdfd::operator::symmetrizer(eps.grid(), omega, pml);
        let mut b: Vec<Complex64> = FdfdSolver::rhs(&j, omega)
            .iter()
            .zip(&d)
            .map(|(b, d)| *b * *d)
            .collect();
        factor.solve(std::slice::from_mut(&mut b));
        let forward = ComplexField2d::from_vec(eps.grid(), b);
        let mut z = obj.adjoint_rhs(&forward).as_slice().to_vec();
        factor.solve(std::slice::from_mut(&mut z));
        let y = z.iter().zip(&d).map(|(z, d)| *z * *d).collect();
        let adjoint = ComplexField2d::from_vec(eps.grid(), y);
        let reference = GradientEvaluation {
            objective: obj.eval(&forward),
            grad_eps: gradient_from_fields(&forward, &adjoint, omega),
            forward,
            adjoint,
        };
        assert_gradients_bitwise(&got, &reference);
    }

    /// A NaN in the source poisons the fields; the exact path rejects it
    /// as `NonFinite` instead of returning a NaN objective and gradient.
    #[test]
    fn nan_source_is_non_finite_through_exact_adjoint() {
        let (eps, mut j, omega, w) = waveguide(48, 36);
        let obj = PowerObjective::new().with_term(w, 1.0);
        j.set(24, 18, Complex64::new(f64::NAN, 0.0));
        let err = ExactAdjoint::default()
            .objective_and_gradient(&eps, &j, omega, &obj)
            .unwrap_err();
        assert!(
            matches!(err, SolveFieldError::NonFinite { .. }),
            "NaN must not escape silently: {err:?}"
        );
    }

    /// The exact adjoint gradient matches a central finite difference of
    /// the objective on representative cells.
    #[test]
    fn adjoint_gradient_matches_finite_difference() {
        let (eps, j, omega, w) = waveguide(60, 44);
        let objective = PowerObjective::new().with_term(w, 1.0);
        let exact = ExactAdjoint::default();
        let eval = exact
            .objective_and_gradient(&eps, &j, omega, &objective)
            .unwrap();
        assert!(eval.objective > 0.0, "waveguide should transmit");

        let h = 1e-5;
        for (ix, iy) in [(30, 22), (28, 20), (32, 24)] {
            let mut ep = eps.clone();
            ep.set(ix, iy, ep.get(ix, iy) + h);
            let mut em = eps.clone();
            em.set(ix, iy, em.get(ix, iy) - h);
            let fp = objective.eval(&exact.solver().solve_ez(&ep, &j, omega).unwrap());
            let fm = objective.eval(&exact.solver().solve_ez(&em, &j, omega).unwrap());
            let fd = (fp - fm) / (2.0 * h);
            let adj = eval.grad_eps.get(ix, iy);
            let denom = fd.abs().max(adj.abs()).max(1e-12);
            assert!(
                (fd - adj).abs() / denom < 1e-4,
                "cell ({ix},{iy}): fd {fd:.6e} vs adjoint {adj:.6e}"
            );
        }
    }
}
