//! Multi-excitation inverse design.
//!
//! Multiplexing devices (WDM, MDM, switches) are specified by *several*
//! excitations at once — e.g. "λ₁ from the input routes to port A **and**
//! λ₂ routes to port B". Each excitation is a (frequency, source, objective)
//! triple; the design maximizes the weighted sum (or the soft minimum) of
//! the per-excitation figures of merit, with adjoint gradients accumulated
//! across excitations.

use crate::gradient::{GradientRequest, GradientSolver};
use crate::optimizer::{
    InverseDesigner, IterationRecord, OptimConfig, OptimError, OptimResult, Step,
};
use crate::patch::Patch;
use crate::problem::DesignProblem;
use maps_core::{ComplexField2d, SolveFieldError};
use maps_fdfd::PowerObjective;

/// One excitation of a multi-objective design.
pub struct Excitation {
    /// Human-readable label (printed in logs).
    pub label: String,
    /// Angular frequency of this excitation.
    pub omega: f64,
    /// Source current density.
    pub source: ComplexField2d,
    /// Differentiable power objective evaluated under this excitation.
    pub objective: PowerObjective,
    /// Weight in the combined figure of merit.
    pub weight: f64,
}

impl std::fmt::Debug for Excitation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Excitation({}, omega={:.3}, weight={})",
            self.label, self.omega, self.weight
        )
    }
}

/// How per-excitation objectives combine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Combine {
    /// Weighted sum `Σ wᵢ·Fᵢ` — maximizes average performance.
    WeightedSum,
    /// Soft minimum `−(1/τ)·ln Σ wᵢ·e^{−τ·Fᵢ}` — pushes up the worst
    /// excitation (balanced multiplexers).
    SoftMin {
        /// Sharpness τ; larger values approximate `min` more closely.
        tau: f64,
    },
}

/// A multi-excitation topology optimizer sharing the reparametrization
/// pipeline and the ascent loop of [`InverseDesigner`].
#[derive(Debug)]
pub struct MultiExcitationDesigner {
    base: InverseDesigner,
    combine: Combine,
}

impl MultiExcitationDesigner {
    /// Creates a designer with the given per-iteration configuration and
    /// combination rule.
    pub fn new(config: OptimConfig, combine: Combine) -> Self {
        MultiExcitationDesigner {
            base: InverseDesigner::new(config),
            combine,
        }
    }

    /// Evaluates the combined objective and θ-gradient at raw variables.
    ///
    /// Returns `(combined, grad_theta, per_excitation)`.
    ///
    /// # Errors
    ///
    /// Returns [`OptimError`] if any excitation's solve fails.
    #[allow(clippy::type_complexity)]
    pub fn evaluate(
        &self,
        problem: &DesignProblem,
        excitations: &[Excitation],
        solver: &dyn GradientSolver,
        theta: &Patch,
        beta: f64,
    ) -> Result<(f64, Patch, Vec<f64>), OptimError> {
        let step = self.step(problem, excitations, solver, theta, beta)?;
        Ok((step.objective, step.grad_theta, step.per))
    }

    /// One design step: every excitation's gradient from one batch,
    /// combined, with excitation 0's forward field as the step's field.
    fn step(
        &self,
        problem: &DesignProblem,
        excitations: &[Excitation],
        solver: &dyn GradientSolver,
        theta: &Patch,
        beta: f64,
    ) -> Result<Step, SolveFieldError> {
        assert!(!excitations.is_empty(), "at least one excitation required");
        let chain = self.base.chain(beta);
        let mut inter = chain.forward_all(theta);
        let density = inter.last().expect("chain output");
        let eps = problem.eps_for(density);
        // All excitations go down as one batch: a backend on the FDFD batch
        // plane issues every forward solve together and every adjoint solve
        // together, factorizing once per distinct ω for the whole iteration.
        let requests: Vec<GradientRequest<'_>> = excitations
            .iter()
            .map(|exc| GradientRequest {
                source: &exc.source,
                omega: exc.omega,
                objective: &exc.objective,
            })
            .collect();
        let mut evals = Vec::with_capacity(excitations.len());
        {
            // Flow root for the whole gradient batch: the FDFD batch plane
            // fans the ω-buckets across workers under this span, so the
            // exported trace shows one stitched tree per iteration.
            let _span =
                maps_obs::span("invdes.gradient_batch").field("excitations", excitations.len());
            for result in solver.objective_and_gradient_batch(&eps, &requests) {
                evals.push(result?);
            }
        }
        let per: Vec<f64> = evals.iter().map(|e| e.objective).collect();
        // Combined value and per-excitation chain weights dC/dFᵢ.
        let (combined, dc_df): (f64, Vec<f64>) = match self.combine {
            Combine::WeightedSum => {
                let c = per.iter().zip(excitations).map(|(f, e)| e.weight * f).sum();
                (c, excitations.iter().map(|e| e.weight).collect())
            }
            Combine::SoftMin { tau } => {
                let z: f64 = per
                    .iter()
                    .zip(excitations)
                    .map(|(f, e)| e.weight * (-tau * f).exp())
                    .sum();
                let c = -z.ln() / tau;
                let d = per
                    .iter()
                    .zip(excitations)
                    .map(|(f, e)| e.weight * (-tau * f).exp() / z)
                    .collect();
                (c, d)
            }
        };
        // Accumulate the weighted density gradient into one scratch patch
        // (no per-excitation patch allocation), then pull back.
        let mut grad_density = Patch::zeros(density.nx(), density.ny());
        for (eval, w) in evals.iter().zip(&dc_df) {
            problem.accumulate_gradient_patch(&eval.grad_eps, *w, &mut grad_density);
        }
        let grad_theta = chain.backward(&inter, &grad_density);
        Ok(Step {
            objective: combined,
            grad_theta,
            density: inter.pop().expect("chain output"),
            forward: evals.swap_remove(0).forward,
            per,
        })
    }

    /// Runs the multi-excitation optimization (Adam ascent on the combined
    /// figure of merit) with a per-iteration callback receiving the
    /// per-excitation objectives.
    ///
    /// The loop is [`InverseDesigner`]'s, so retryable solve failures are
    /// recovered under [`OptimConfig::max_solve_failures`] and the run
    /// emits the `invdes.*` spans, counters and series. The result's
    /// `final_field` is excitation 0's forward field at the final density.
    ///
    /// # Errors
    ///
    /// Returns [`OptimError`] on a non-retryable solve failure or once the
    /// failure budget is exhausted.
    pub fn run_with_callback(
        &self,
        problem: &DesignProblem,
        excitations: &[Excitation],
        solver: &dyn GradientSolver,
        mut on_iteration: impl FnMut(&IterationRecord, &[f64]),
    ) -> Result<OptimResult, OptimError> {
        self.base.drive(
            problem,
            None,
            |theta, beta| self.step(problem, excitations, solver, theta, beta),
            |record, step| on_iteration(record, &step.per),
            |_| {},
        )
    }

    /// Runs without a callback.
    ///
    /// # Errors
    ///
    /// As [`MultiExcitationDesigner::run_with_callback`].
    pub fn run(
        &self,
        problem: &DesignProblem,
        excitations: &[Excitation],
        solver: &dyn GradientSolver,
    ) -> Result<OptimResult, OptimError> {
        self.run_with_callback(problem, excitations, solver, |_, _| {})
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
    use maps_fdfd::{FdfdSolver, ModeMonitor, ModeSource, PmlConfig};

    /// A splitter-style problem: input left, two outputs right (top and
    /// bottom); two objectives reward power in each arm respectively.
    fn splitter() -> (DesignProblem, Vec<Excitation>) {
        let grid = Grid2d::new(50, 44, 0.08);
        let mut base = RealField2d::constant(grid, 2.07);
        let yc = grid.height() / 2.0;
        let (y_hi, y_lo) = (yc + 0.8, yc - 0.8);
        maps_core::paint(
            &mut base,
            &maps_core::Shape::Rect(maps_core::Rect::new(0.0, yc - 0.24, 1.7, yc + 0.24)),
            12.11,
        );
        for y in [y_hi, y_lo] {
            maps_core::paint(
                &mut base,
                &maps_core::Shape::Rect(maps_core::Rect::new(
                    grid.width() - 1.5,
                    y - 0.24,
                    grid.width(),
                    y + 0.24,
                )),
                12.11,
            );
        }
        let input = Port::new((1.1, yc), 0.48, Axis::X, Direction::Positive);
        let out_hi = Port::new(
            (grid.width() - 0.9, y_hi),
            0.48,
            Axis::X,
            Direction::Positive,
        );
        let out_lo = Port::new(
            (grid.width() - 0.9, y_lo),
            0.48,
            Axis::X,
            Direction::Positive,
        );
        let problem = DesignProblem {
            base_eps: base.clone(),
            design_origin: (21, 12),
            design_size: (10, 20),
            eps_min: 2.07,
            eps_max: 12.11,
            wavelength: 1.55,
            input_port: input,
            terms: vec![],
            normalization: 1.0,
        };
        let omega = problem.omega();
        let source = ModeSource::new(&base, &input, omega)
            .unwrap()
            .current_density(grid);
        let make_obj = |port: &Port| {
            PowerObjective::new().with_term(
                ModeMonitor::new(&base, port, omega)
                    .unwrap()
                    .outgoing_functional(),
                1.0,
            )
        };
        let excitations = vec![
            Excitation {
                label: "to-top".into(),
                omega,
                source: source.clone(),
                objective: make_obj(&out_hi),
                weight: 1.0,
            },
            Excitation {
                label: "to-bottom".into(),
                omega,
                source,
                objective: make_obj(&out_lo),
                weight: 1.0,
            },
        ];
        (problem, excitations)
    }

    #[test]
    fn weighted_sum_improves_both_arms() {
        let (problem, excitations) = splitter();
        let solver = ExactAdjoint::new(FdfdSolver::with_pml(PmlConfig::auto(problem.grid().dl)));
        let designer = MultiExcitationDesigner::new(
            OptimConfig {
                iterations: 10,
                learning_rate: 0.15,
                beta_start: 1.5,
                beta_growth: 1.15,
                filter_radius: 1.2,
                symmetry: Some(crate::reparam::Symmetry::MirrorY),
                litho: None,
                init: InitStrategy::Uniform(0.5),
                ..OptimConfig::default()
            },
            Combine::WeightedSum,
        );
        let mut first_per = Vec::new();
        let mut last_per = Vec::new();
        designer
            .run_with_callback(&problem, &excitations, &solver, |rec, per| {
                if rec.iteration == 0 {
                    first_per = per.to_vec();
                }
                last_per = per.to_vec();
            })
            .unwrap();
        let first: f64 = first_per.iter().sum();
        let last: f64 = last_per.iter().sum();
        assert!(
            last > first,
            "combined objective should improve: {first} -> {last}"
        );
        // With mirror symmetry, both arms receive comparable power.
        let ratio = last_per[0] / last_per[1].max(1e-30);
        assert!((0.5..2.0).contains(&ratio), "arm balance {ratio}");
    }

    #[test]
    fn softmin_tracks_worst_excitation() {
        let (problem, excitations) = splitter();
        let solver = ExactAdjoint::new(FdfdSolver::with_pml(PmlConfig::auto(problem.grid().dl)));
        let designer = MultiExcitationDesigner::new(
            OptimConfig {
                iterations: 1,
                ..OptimConfig::default()
            },
            Combine::SoftMin { tau: 50.0 },
        );
        let theta = InitStrategy::Uniform(0.5).build(10, 20);
        let (combined, _, per) = designer
            .evaluate(&problem, &excitations, &solver, &theta, 2.0)
            .unwrap();
        let worst = per.iter().cloned().fold(f64::INFINITY, f64::min);
        // The log-sum-exp softmin underestimates the true minimum by at
        // most ln(Σ wᵢ)/τ.
        let bound = (2.0f64).ln() / 50.0 + 1e-9;
        assert!(
            combined <= worst + 1e-12 && combined >= worst - bound,
            "soft-min {combined} should lie within [{}, {worst}]",
            worst - bound
        );
    }

    fn short_run() -> MultiExcitationDesigner {
        MultiExcitationDesigner::new(
            OptimConfig {
                iterations: 4,
                learning_rate: 0.15,
                filter_radius: 1.2,
                ..OptimConfig::default()
            },
            Combine::WeightedSum,
        )
    }

    /// The result's field is excitation 0's batched forward field at the
    /// final density, the same bits a trailing scalar re-solve gives.
    /// Excitation 1 runs at another frequency, so its field differs.
    #[test]
    fn final_field_is_excitation_zero_at_the_final_density() {
        let (problem, mut excitations) = splitter();
        excitations[1].omega *= 1.03;
        let solver = ExactAdjoint::new(FdfdSolver::with_pml(PmlConfig::auto(problem.grid().dl)));
        let result = short_run().run(&problem, &excitations, &solver).unwrap();
        assert_eq!(result.history.len(), 4);
        let eps = problem.eps_for(&result.density);
        let requests: Vec<GradientRequest<'_>> = excitations
            .iter()
            .map(|e| GradientRequest {
                source: &e.source,
                omega: e.omega,
                objective: &e.objective,
            })
            .collect();
        let batched = solver
            .objective_and_gradient_batch(&eps, &requests)
            .swap_remove(0)
            .unwrap()
            .forward;
        let scalar = solver
            .objective_and_gradient(
                &eps,
                &excitations[0].source,
                excitations[0].omega,
                &excitations[0].objective,
            )
            .unwrap()
            .forward;
        for ((r, b), s) in result
            .final_field
            .as_slice()
            .iter()
            .zip(batched.as_slice())
            .zip(scalar.as_slice())
        {
            assert_eq!(
                (r.re.to_bits(), r.im.to_bits()),
                (b.re.to_bits(), b.im.to_bits())
            );
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
        let (problem, excitations) = splitter();
        // Each iteration issues one forward batch and one adjoint batch of
        // two requests (calls 0–3 for iteration 0); call 4 is iteration 1's
        // first forward solve.
        let faulty = FaultInjectingSolver::new(
            FdfdSolver::with_pml(PmlConfig::auto(problem.grid().dl)),
            FaultPlan::new().fail_at(4, InjectedFault::Error),
        );
        let result = short_run()
            .run(&problem, &excitations, &FieldGradient::new(&faulty))
            .unwrap();
        assert_eq!(result.recoveries.len(), 1, "{:?}", result.recoveries);
        assert_eq!(result.recoveries[0].iteration, 1);
        assert_eq!(result.history.len(), 4);
        assert!(result.history[1].recovered);
        assert_eq!(faulty.injected(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one excitation")]
    fn rejects_empty_excitations() {
        let (problem, _) = splitter();
        let solver = ExactAdjoint::default();
        let designer = MultiExcitationDesigner::new(OptimConfig::default(), Combine::WeightedSum);
        let theta = InitStrategy::Uniform(0.5).build(10, 20);
        let _ = designer.evaluate(&problem, &[], &solver, &theta, 2.0);
    }
}
