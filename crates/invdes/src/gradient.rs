//! Gradient backends: how `dF/dε` is obtained.
//!
//! The objective `F = Σ_m c_m·|a_m|²` of linear functionals `a_m = w_mᵀ·e`
//! has the adjoint right-hand side `Σ_m c_m·conj(a_m)·w_m` over fixed
//! monitor vectors `w_m`, so a linear solver's adjoint field is the same
//! superposition of the solves of the `w_m`, none of which needs the
//! forward field. The backends use that in two compositions:
//!
//! - [`ExactAdjoint`] solves the forward source and every `w_m` as one
//!   block of `1 + terms` right-hand sides through
//!   [`FdfdSolver`]'s `solve_ez_batch`: one factor-cache lookup (one
//!   factorization on a miss, in the process-wide `maps_fdfd::factor_cache`)
//!   and one pass over the factor answer the design step. It takes `F`
//!   from [`PowerObjective::eval`] and forms the adjoint field
//!   `Σ_m c_m·conj(a_m)·y_m` in term order. Its forward field is
//!   `solve_ez`'s bit for bit; its adjoint field differs from a solve of
//!   the summed right-hand side by rounding only.
//! - [`FieldGradient`] runs the sequential composition over *any*
//!   [`FieldSolver`]: the forward solves, each objective and its adjoint
//!   right-hand side, then the adjoint solves of those sums, each phase one
//!   `solve_ez_batch`. A learned solver is not linear in its source, so its
//!   adjoint must see the sum. This is how the paper drives inverse design
//!   from a trained neural operator's forward and adjoint fields, the
//!   adjoint by the trait's reciprocity default (§IV-D, Fig. 6).
//!
//! Both evaluate batches only (a single evaluation is a batch of one),
//! check both fields finite and assemble `dF/dε` with
//! [`gradient_from_fields`].

use maps_core::{ComplexField2d, FieldSolver, Grid2d, RealField2d, SolveFieldError, SolveRequest};
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
    /// Evaluates a batch of excitations against one permittivity map,
    /// returning one result per request in input order. Every evaluation
    /// runs here; [`GradientSolver::objective_and_gradient`] is a batch of
    /// one.
    ///
    /// Both backends make a K-excitation design iteration factorize once
    /// per distinct ω instead of once per solve: [`ExactAdjoint`] sends
    /// every excitation's forward source and monitor vectors as one
    /// `solve_ez_batch`, [`FieldGradient`] all forward solves as one batch
    /// and all adjoint solves as a second. A request that fails fails only
    /// its own slot.
    fn objective_and_gradient_batch(
        &self,
        eps_r: &RealField2d,
        requests: &[GradientRequest<'_>],
    ) -> Vec<Result<GradientEvaluation, SolveFieldError>>;

    /// Evaluates `F` and `dF/dε` at a permittivity map: a batch of one
    /// excitation.
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
    ) -> Result<GradientEvaluation, SolveFieldError> {
        let request = GradientRequest {
            source,
            omega,
            objective,
        };
        self.objective_and_gradient_batch(eps_r, &[request])
            .pop()
            .expect("one answer per request")
    }

    /// Backend name for logs and tables.
    fn name(&self) -> &str;
}

/// A solver's answer, checked finite at the gradient boundary.
///
/// Defense in depth: the objective and the adjoint right-hand side only
/// sample the field at the port monitors, so a solver returning Ok with
/// poisoned values elsewhere would otherwise corrupt the gradient silently.
fn finite(
    field: Result<ComplexField2d, SolveFieldError>,
    solver: &str,
) -> Result<ComplexField2d, SolveFieldError> {
    field.and_then(|f| maps_core::ensure_finite(&f, solver).map(|()| f))
}

/// The objective's monitor vectors `w_m`, dense on the grid, in term order.
/// A cell listed twice in one functional gets the sum of its weights, as
/// in [`PowerObjective::adjoint_rhs`].
fn monitor_vectors(grid: Grid2d, objective: &PowerObjective) -> Vec<ComplexField2d> {
    objective
        .terms()
        .iter()
        .map(|(w, _)| {
            let mut field = ComplexField2d::zeros(grid);
            let data = field.as_mut_slice();
            for &(k, wk) in &w.weights {
                data[k] += wk;
            }
            field
        })
        .collect()
}

/// [`ExactAdjoint`]'s composition from one excitation's solved block: the
/// forward field `e` and the adjoint solutions `y_m` of the monitor
/// vectors, in term order. `F` is [`PowerObjective::eval`]; the adjoint
/// field is `Σ c_m·conj(a_m)·y_m` with `a_m = w_mᵀ·e`.
fn superposed_gradient(
    solver: &str,
    forward: Result<ComplexField2d, SolveFieldError>,
    basis: Vec<Result<ComplexField2d, SolveFieldError>>,
    objective: &PowerObjective,
    omega: f64,
) -> Result<GradientEvaluation, SolveFieldError> {
    let forward = finite(forward, solver)?;
    let objective_value = objective.eval(&forward);
    let mut adjoint = ComplexField2d::zeros(forward.grid());
    for ((w, c), y) in objective.terms().iter().zip(basis) {
        let y = finite(y, solver)?;
        let weight = w.eval(&forward).conj() * *c;
        for (z, y) in adjoint.as_mut_slice().iter_mut().zip(y.as_slice()) {
            *z += weight * *y;
        }
    }
    maps_core::ensure_finite(&adjoint, solver)?;
    let grad_eps = gradient_from_fields(&forward, &adjoint, omega);
    Ok(GradientEvaluation {
        objective: objective_value,
        grad_eps,
        forward,
        adjoint,
    })
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

/// Exact adjoint via the FDFD solver: each excitation is one block of
/// `1 + terms` right-hand sides, its forward source and its objective's
/// monitor vectors, so one factorization and one pass over the factor
/// answer a design step (see the [module docs](self)).
///
/// The block composition assumes the direct backend. On
/// `Backend::Iterative` a batch is one Krylov solve per request, so each
/// monitor vector costs its own solve: `1 + terms` per step where the
/// sequential composition ([`FieldGradient`]) runs two.
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
    /// Every excitation's block goes down one `solve_ez_batch`, which
    /// buckets by ω: one block of forward sources and monitor vectors per
    /// distinct frequency.
    fn objective_and_gradient_batch(
        &self,
        eps_r: &RealField2d,
        requests: &[GradientRequest<'_>],
    ) -> Vec<Result<GradientEvaluation, SolveFieldError>> {
        let monitors: Vec<Vec<ComplexField2d>> = requests
            .iter()
            .map(|r| monitor_vectors(eps_r.grid(), r.objective))
            .collect();
        let solves: Vec<SolveRequest<'_>> = requests
            .iter()
            .zip(&monitors)
            .flat_map(|(r, ws)| {
                std::iter::once(SolveRequest::forward(r.source, r.omega))
                    .chain(ws.iter().map(|w| SolveRequest::adjoint(w, r.omega)))
            })
            .collect();
        let mut fields = self.solver.solve_ez_batch(eps_r, &solves).into_iter();
        requests
            .iter()
            .map(|r| {
                let forward = fields.next().expect("a forward answer per request");
                let basis = fields.by_ref().take(r.objective.len()).collect();
                superposed_gradient(self.name(), forward, basis, r.objective, r.omega)
            })
            .collect()
    }

    fn name(&self) -> &str {
        "exact-adjoint"
    }
}

/// Gradient through any [`FieldSolver`]: a forward solve plus an adjoint
/// solve of the summed right-hand side (exact when the solver provides it,
/// as [`FdfdSolver`] does; the trait's reciprocity default otherwise — e.g.
/// for neural surrogates).
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
    /// Two phases: all forward solves in one
    /// [`FieldSolver::solve_ez_batch`], objective evaluation and adjoint
    /// right-hand side assembly in between, then all adjoint solves in a
    /// second batch. A failed forward drops only its own request from the
    /// adjoint phase, and with none left no adjoint batch is sent.
    fn objective_and_gradient_batch(
        &self,
        eps_r: &RealField2d,
        requests: &[GradientRequest<'_>],
    ) -> Vec<Result<GradientEvaluation, SolveFieldError>> {
        let forward_reqs: Vec<SolveRequest<'_>> = requests
            .iter()
            .map(|r| SolveRequest::forward(r.source, r.omega))
            .collect();
        let forwards = self.solver.solve_ez_batch(eps_r, &forward_reqs);
        let mut slots: Vec<Option<Result<GradientEvaluation, SolveFieldError>>> =
            requests.iter().map(|_| None).collect();
        // Survivors of the forward phase, with their objective values and
        // adjoint right-hand sides (kept alive for the adjoint batch borrows).
        let mut survivors: Vec<(usize, ComplexField2d, f64)> = Vec::new();
        let mut adjoint_rhs: Vec<ComplexField2d> = Vec::new();
        for (i, result) in forwards.into_iter().enumerate() {
            match finite(result, self.solver.name()) {
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
        let adjoints = if survivors.is_empty() {
            Vec::new()
        } else {
            self.solver.solve_ez_batch(eps_r, &adjoint_reqs)
        };
        for ((i, forward, objective_value), result) in survivors.into_iter().zip(adjoints) {
            let evaluated = finite(result, self.solver.name()).map(|adjoint| {
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

    /// Objectives of one, two and three terms over fixed functionals of
    /// [`waveguide`]'s field: the mode leaving on the right, minus half the
    /// mode entering from the right, plus a quarter of the forward mode at
    /// the guide's middle.
    fn objectives(eps: &RealField2d, omega: f64) -> Vec<PowerObjective> {
        let grid = eps.grid();
        let yc = grid.height() / 2.0;
        let monitor = |x: f64| {
            let port = Port::new((x, yc), 0.48, Axis::X, Direction::Positive);
            ModeMonitor::new(eps, &port, omega).unwrap()
        };
        let (right, middle) = (monitor(grid.width() - 1.2), monitor(grid.width() / 2.0));
        let terms = [
            (right.outgoing_functional(), 1.0),
            (right.incoming_functional(), -0.5),
            (middle.outgoing_functional(), 0.25),
        ];
        (1..=terms.len())
            .map(|m| {
                terms[..m].iter().fold(PowerObjective::new(), |o, (w, c)| {
                    o.with_term(w.clone(), *c)
                })
            })
            .collect()
    }

    /// `‖a − b‖/‖b‖` over two equally long sequences of reals.
    fn relative_difference(
        a: impl IntoIterator<Item = f64>,
        b: impl IntoIterator<Item = f64>,
    ) -> f64 {
        let (mut num, mut den) = (0.0, 0.0);
        for (x, y) in a.into_iter().zip(b) {
            num += (x - y) * (x - y);
            den += y * y;
        }
        (num / den).sqrt()
    }

    /// A complex field's values as reals, `re` before `im`.
    fn parts(f: &ComplexField2d) -> impl Iterator<Item = f64> + '_ {
        f.as_slice().iter().flat_map(|z| [z.re, z.im])
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

    /// The exact step's forward field and objective are `solve_ez`'s and
    /// `PowerObjective::eval`'s, bit for bit, whatever the block's width
    /// (K = 2, 3 and 4 here). Its adjoint superposes the solves of the
    /// monitor vectors where the trait-based gradient over the same
    /// `FdfdSolver` solves their weighted sum, so the adjoint fields and
    /// gradients agree to rounding.
    #[test]
    fn exact_and_trait_gradients_agree() {
        let (eps, j, omega, _) = waveguide(56, 40);
        let exact = ExactAdjoint::default();
        let fdfd = FdfdSolver::new();
        let sequential = FieldGradient::new(&fdfd);
        let forward = fdfd.solve_ez(&eps, &j, omega).unwrap();
        for obj in objectives(&eps, omega) {
            let e1 = exact.objective_and_gradient(&eps, &j, omega, &obj).unwrap();
            let e2 = sequential
                .objective_and_gradient(&eps, &j, omega, &obj)
                .unwrap();
            let terms = format!("{} terms", obj.len());
            assert_fields_bitwise(&e1.forward, &forward, &terms);
            assert_eq!(
                e1.objective.to_bits(),
                obj.eval(&forward).to_bits(),
                "{terms}"
            );
            let adjoint = relative_difference(parts(&e1.adjoint), parts(&e2.adjoint));
            let grad = relative_difference(
                e1.grad_eps.as_slice().iter().copied(),
                e2.grad_eps.as_slice().iter().copied(),
            );
            assert!(
                adjoint <= 1e-12 && grad <= 1e-12,
                "{terms}: adjoint {adjoint:e}, grad_eps {grad:e}"
            );
        }
    }

    /// `ExactAdjoint` is pinned to a plain, uncached reference: factorize
    /// the symmetrized operator `S = D·A`, solve `[D·b, w_1, w_2]` in one
    /// `SymmetricFactor::solve` (the forward field `S·x = D·b`, and
    /// `S·z_m = w_m` with `y_m = D·z_m`, since `Aᵀ = S·D⁻¹`), form the
    /// adjoint field `Σ c_m·conj(a_m)·y_m` in term order, and assemble the
    /// gradient from the two fields.
    #[test]
    fn exact_adjoint_matches_uncached_reference_bitwise() {
        let (eps, j, omega, _) = waveguide(48, 36);
        let obj = objectives(&eps, omega).swap_remove(1);
        assert_eq!(obj.len(), 2);
        let exact = ExactAdjoint::default();
        let got = exact.objective_and_gradient(&eps, &j, omega, &obj).unwrap();

        let n = eps.grid().len();
        let pml = exact.solver().pml();
        let factor = maps_fdfd::SymmetricOperator::new(&eps, omega, pml)
            .factorize()
            .unwrap();
        let d = maps_fdfd::operator::symmetrizer(eps.grid(), omega, pml);
        let b = FdfdSolver::rhs(&j, omega)
            .iter()
            .zip(&d)
            .map(|(b, d)| *b * *d)
            .collect();
        let mut xs = vec![b];
        for (w, _) in obj.terms() {
            let mut x = vec![Complex64::ZERO; n];
            for &(k, wk) in &w.weights {
                x[k] += wk;
            }
            xs.push(x);
        }
        factor.solve(&mut xs);
        let forward = ComplexField2d::from_vec(eps.grid(), xs.remove(0));
        let mut y = vec![Complex64::ZERO; n];
        for ((w, c), z) in obj.terms().iter().zip(&xs) {
            let weight = w.eval(&forward).conj() * *c;
            for ((y, z), d) in y.iter_mut().zip(z).zip(&d) {
                *y += weight * (*z * *d);
            }
        }
        let adjoint = ComplexField2d::from_vec(eps.grid(), y);
        let reference = GradientEvaluation {
            objective: obj.eval(&forward),
            grad_eps: gradient_from_fields(&forward, &adjoint, omega),
            forward,
            adjoint,
        };
        assert_gradients_bitwise(&got, &reference);
    }

    /// `ExactAdjoint`'s batch gives each excitation the bits of its scalar
    /// call: two excitations at two frequencies, a one-term and a
    /// three-term objective, go down one `solve_ez_batch` as one block per
    /// ω.
    #[test]
    fn exact_batch_matches_scalar_bitwise() {
        let (eps, j, omega, _) = waveguide(56, 40);
        let objectives = objectives(&eps, omega);
        let exact = ExactAdjoint::default();
        let requests = [
            GradientRequest {
                source: &j,
                omega,
                objective: &objectives[0],
            },
            GradientRequest {
                source: &j,
                omega: omega * 1.03,
                objective: &objectives[2],
            },
        ];
        let batch = exact.objective_and_gradient_batch(&eps, &requests);
        assert_eq!(batch.len(), 2);
        for (b, r) in batch.iter().zip(&requests) {
            let s = exact
                .objective_and_gradient(&eps, r.source, r.omega, r.objective)
                .unwrap();
            assert_gradients_bitwise(b.as_ref().unwrap(), &s);
        }
    }

    /// Fails every solve and counts the batches it is sent.
    #[derive(Default)]
    struct FailingSolver {
        batches: std::cell::Cell<usize>,
    }

    impl FieldSolver for FailingSolver {
        fn solve_ez(
            &self,
            _eps_r: &RealField2d,
            _source: &ComplexField2d,
            _omega: f64,
        ) -> Result<ComplexField2d, SolveFieldError> {
            Err(SolveFieldError::Numerical {
                detail: "injected".into(),
            })
        }

        fn solve_ez_batch(
            &self,
            eps_r: &RealField2d,
            requests: &[SolveRequest<'_>],
        ) -> Vec<Result<ComplexField2d, SolveFieldError>> {
            self.batches.set(self.batches.get() + 1);
            requests
                .iter()
                .map(|r| self.solve_ez(eps_r, r.source, r.omega))
                .collect()
        }
    }

    /// When every forward fails, `FieldGradient` sends no adjoint batch: a
    /// single evaluation and a batch of two each cost one batch call.
    #[test]
    fn failed_forwards_send_no_adjoint_batch() {
        let grid = Grid2d::new(8, 8, 0.1);
        let eps = RealField2d::constant(grid, 1.0);
        let j = ComplexField2d::zeros(grid);
        let obj = PowerObjective::new();
        let solver = FailingSolver::default();
        let gradient = FieldGradient::new(&solver);
        let err = gradient
            .objective_and_gradient(&eps, &j, 4.0, &obj)
            .unwrap_err();
        assert!(matches!(err, SolveFieldError::Numerical { .. }));
        assert_eq!(solver.batches.get(), 1);
        let request = GradientRequest {
            source: &j,
            omega: 4.0,
            objective: &obj,
        };
        let batch = gradient.objective_and_gradient_batch(&eps, &[request, request]);
        assert!(batch.iter().all(Result::is_err));
        assert_eq!(solver.batches.get(), 2);
    }

    /// An excitation whose solves fail fails only its own slot of the
    /// exact batch.
    #[test]
    fn exact_batch_fails_only_the_bad_excitation() {
        let (eps, j, omega, w) = waveguide(48, 36);
        let obj = PowerObjective::new().with_term(w, 1.0);
        let requests = [
            GradientRequest {
                source: &j,
                omega,
                objective: &obj,
            },
            GradientRequest {
                source: &j,
                omega: -omega,
                objective: &obj,
            },
        ];
        let batch = ExactAdjoint::default().objective_and_gradient_batch(&eps, &requests);
        assert!(batch[0].is_ok());
        assert!(matches!(
            batch[1],
            Err(SolveFieldError::InvalidInput { .. })
        ));
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
