//! Variation-aware (robust) inverse design.
//!
//! Optimizes the *expected* figure of merit over a set of lithography/etch
//! process corners: each corner prints a different structure from the same
//! mask, is simulated separately, and contributes its chain-ruled gradient.
//! This is the paper's §III-C3 variation-aware loop.

use crate::gradient::GradientSolver;
use crate::litho::{LithoCorner, LithoModel};
use crate::optimizer::{InverseDesigner, OptimConfig, OptimError, OptimResult, Step};
use crate::patch::Patch;
use crate::problem::DesignProblem;
use crate::reparam::ReparamChain;
use maps_core::{ComplexField2d, SolveFieldError};
use maps_fdfd::PowerObjective;

/// Robust optimization over process corners. A run reports the first
/// corner's density and forward field (see [`RobustDesigner::run`]).
#[derive(Debug)]
pub struct RobustDesigner {
    base: InverseDesigner,
    litho_template: LithoModel,
    corners: Vec<LithoCorner>,
}

impl RobustDesigner {
    /// Creates a robust designer. `config.litho` is ignored — the corner
    /// models are built from `litho_template` at each of `corners`.
    pub fn new(config: OptimConfig, litho_template: LithoModel, corners: Vec<LithoCorner>) -> Self {
        assert!(!corners.is_empty(), "at least one corner required");
        RobustDesigner {
            base: InverseDesigner::new(OptimConfig {
                litho: None,
                ..config
            }),
            litho_template,
            corners,
        }
    }

    /// The corner list being optimized over.
    pub fn corners(&self) -> &[LithoCorner] {
        &self.corners
    }

    /// Evaluates the corner-averaged objective and θ-gradient at given raw
    /// variables, returning per-corner objectives too.
    ///
    /// # Errors
    ///
    /// Returns [`OptimError`] if mode solving or any corner's solve fails.
    #[allow(clippy::type_complexity)]
    pub fn evaluate(
        &self,
        problem: &DesignProblem,
        solver: &dyn GradientSolver,
        theta: &Patch,
        beta: f64,
    ) -> Result<(f64, Patch, Vec<f64>), OptimError> {
        let source = problem.source()?;
        let objective = problem.objective()?;
        let step = self.step(problem, solver, &source, &objective, theta, beta)?;
        Ok((step.objective, step.grad_theta, step.per))
    }

    /// One design step: every corner simulated and chain-ruled, averaged,
    /// with the first corner's density and forward field as the step's.
    fn step(
        &self,
        problem: &DesignProblem,
        solver: &dyn GradientSolver,
        source: &ComplexField2d,
        objective: &PowerObjective,
        theta: &Patch,
        beta: f64,
    ) -> Result<Step, SolveFieldError> {
        let omega = problem.omega();
        let mut mean_grad = Patch::zeros(theta.nx(), theta.ny());
        let mut mean_obj = 0.0;
        let mut per_corner = Vec::with_capacity(self.corners.len());
        let mut first = None;
        let weight = 1.0 / self.corners.len() as f64;
        for corner in &self.corners {
            let chain: ReparamChain = self
                .base
                .chain(beta)
                .then(self.litho_template.at_corner(*corner));
            let mut inter = chain.forward_all(theta);
            let eps = problem.eps_for(inter.last().expect("chain output"));
            let eval = solver.objective_and_gradient(&eps, source, omega, objective)?;
            let grad_patch = problem.gradient_to_patch(&eval.grad_eps);
            let grad_theta = chain.backward(&inter, &grad_patch);
            per_corner.push(eval.objective);
            mean_obj += weight * eval.objective;
            for (m, g) in mean_grad
                .as_mut_slice()
                .iter_mut()
                .zip(grad_theta.as_slice())
            {
                *m += weight * g;
            }
            if first.is_none() {
                first = Some((inter.pop().expect("chain output"), eval.forward));
            }
        }
        let (density, forward) = first.expect("at least one corner");
        Ok(Step {
            objective: mean_obj,
            grad_theta: mean_grad,
            density,
            forward,
            per: per_corner,
        })
    }

    /// Runs the robust optimization loop (Adam ascent on the corner mean).
    ///
    /// The loop is [`InverseDesigner`]'s, so retryable solve failures are
    /// recovered under [`OptimConfig::max_solve_failures`] and the run
    /// emits the `invdes.*` spans, counters and series. The recorded gray
    /// level, the result's `density` and its `final_field` are the *first*
    /// corner's; [`LithoCorner::triple`] puts the nominal corner first.
    ///
    /// # Errors
    ///
    /// Returns [`OptimError`] when mode solving fails, on a non-retryable
    /// solve failure, or once the failure budget is exhausted.
    pub fn run(
        &self,
        problem: &DesignProblem,
        solver: &dyn GradientSolver,
    ) -> Result<OptimResult, OptimError> {
        let source = problem.source()?;
        let objective = problem.objective()?;
        self.base.drive(
            problem,
            None,
            |theta, beta| self.step(problem, solver, &source, &objective, theta, beta),
            |_, _| {},
            |_| {},
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradient::{ExactAdjoint, FieldGradient};
    use crate::init::InitStrategy;
    use maps_core::{
        Axis, Direction, FaultInjectingSolver, FaultPlan, Grid2d, InjectedFault, Port, RealField2d,
    };
    use maps_fdfd::FdfdSolver;

    fn bridge_problem() -> DesignProblem {
        let grid = Grid2d::new(48, 36, 0.08);
        let yc = grid.height() / 2.0;
        let mut base = RealField2d::constant(grid, 2.07);
        maps_core::paint(
            &mut base,
            &maps_core::Shape::Rect(maps_core::Rect::new(0.0, yc - 0.24, 1.6, yc + 0.24)),
            12.11,
        );
        maps_core::paint(
            &mut base,
            &maps_core::Shape::Rect(maps_core::Rect::new(
                grid.width() - 1.6,
                yc - 0.24,
                grid.width(),
                yc + 0.24,
            )),
            12.11,
        );
        DesignProblem {
            base_eps: base,
            design_origin: (21, 13),
            design_size: (7, 10),
            eps_min: 2.07,
            eps_max: 12.11,
            wavelength: 1.55,
            input_port: Port::new((1.0, yc), 0.48, Axis::X, Direction::Positive),
            terms: vec![crate::problem::ObjectiveTerm {
                port: Port::new((grid.width() - 1.0, yc), 0.48, Axis::X, Direction::Positive),
                weight: 1.0,
            }],
            normalization: 1.0,
        }
    }

    #[test]
    fn corner_mean_and_per_corner_values() {
        let problem = bridge_problem();
        let exact = ExactAdjoint::default();
        let designer = RobustDesigner::new(
            OptimConfig {
                iterations: 1,
                init: InitStrategy::Uniform(0.6),
                ..OptimConfig::default()
            },
            LithoModel::new(problem.grid().dl),
            LithoCorner::triple(0.05, 0.2, 0.008).to_vec(),
        );
        let theta = InitStrategy::Uniform(0.6).build(7, 10);
        let (mean, grad, per_corner) = designer.evaluate(&problem, &exact, &theta, 2.0).unwrap();
        assert_eq!(per_corner.len(), 3);
        let expect: f64 = per_corner.iter().sum::<f64>() / 3.0;
        assert!((mean - expect).abs() < 1e-12);
        assert_eq!((grad.nx(), grad.ny()), (7, 10));
        assert!(grad.as_slice().iter().any(|g| *g != 0.0));
    }

    fn triple_designer(problem: &DesignProblem, iterations: usize) -> RobustDesigner {
        RobustDesigner::new(
            OptimConfig {
                iterations,
                learning_rate: 0.15,
                init: InitStrategy::Uniform(0.5),
                ..OptimConfig::default()
            },
            LithoModel::new(problem.grid().dl),
            LithoCorner::triple(0.03, 0.15, 0.005).to_vec(),
        )
    }

    /// With `LithoCorner::triple` the first corner is the nominal one, so
    /// the result's density is the nominal corner's and its field is the
    /// forward field at that density, the same bits a trailing re-solve
    /// gives. One iteration, so the final density is the one at θ₀.
    #[test]
    fn final_field_is_the_nominal_corner_at_the_final_density() {
        let problem = bridge_problem();
        let exact = ExactAdjoint::default();
        let designer = triple_designer(&problem, 1);
        let result = designer.run(&problem, &exact).unwrap();
        let config = designer.base.config();
        let nominal = designer
            .base
            .chain(config.beta_start)
            .then(designer.litho_template.at_corner(LithoCorner::nominal()))
            .forward(
                &config
                    .init
                    .build(problem.design_size.0, problem.design_size.1),
            );
        for (r, n) in result.density.as_slice().iter().zip(nominal.as_slice()) {
            assert_eq!(r.to_bits(), n.to_bits());
        }
        let resolved = exact
            .objective_and_gradient(
                &problem.eps_for(&result.density),
                &problem.source().unwrap(),
                problem.omega(),
                &problem.objective().unwrap(),
            )
            .unwrap()
            .forward;
        for (r, s) in result
            .final_field
            .as_slice()
            .iter()
            .zip(resolved.as_slice())
        {
            assert_eq!(
                (r.re.to_bits(), r.im.to_bits()),
                (s.re.to_bits(), s.im.to_bits())
            );
        }
    }

    /// A retryable solve failure is recovered by the shared loop instead of
    /// ending the run.
    #[test]
    fn recovers_a_retryable_failure() {
        let problem = bridge_problem();
        // Three corners × (forward + adjoint): calls 0–5 are iteration 0;
        // call 6 is iteration 1's first forward solve.
        let faulty = FaultInjectingSolver::new(
            FdfdSolver::new(),
            FaultPlan::new().fail_at(6, InjectedFault::NonFinite),
        );
        let result = triple_designer(&problem, 3)
            .run(&problem, &FieldGradient::new(&faulty))
            .unwrap();
        assert_eq!(result.recoveries.len(), 1, "{:?}", result.recoveries);
        assert_eq!(result.recoveries[0].iteration, 1);
        assert!(result.recoveries[0].error.contains("non-finite"));
        assert_eq!(result.history.len(), 3);
        assert!(result.history[1].recovered);
    }

    #[test]
    fn robust_run_improves_mean_objective() {
        let mut problem = bridge_problem();
        let exact = ExactAdjoint::default();
        problem.calibrate(exact.solver()).unwrap();
        let result = triple_designer(&problem, 8).run(&problem, &exact).unwrap();
        let first = result.history.first().unwrap().objective;
        let best = result.best_objective().unwrap();
        assert!(
            best > first,
            "robust optimization should improve: {first} -> {best}"
        );
    }
}
