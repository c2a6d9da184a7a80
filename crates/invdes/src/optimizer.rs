//! The adjoint topology-optimization loop.
//!
//! Per iteration: θ → (symmetry → filter → projection [→ lithography]) →
//! ρ̄ → ε → forward+adjoint solve → dF/dε → chain-rule back to θ → Adam
//! ascent. The projection sharpness β follows a growth schedule so designs
//! binarize as the optimization converges, exactly the soft-to-hard
//! trajectory MAPS-Data samples from. The multi-excitation and robust
//! designers run this same loop; only the step they evaluate at each θ
//! differs.

use crate::checkpoint::{OptimCheckpoint, RecoveryRecord};
use crate::gradient::GradientSolver;
use crate::init::InitStrategy;
use crate::litho::LithoModel;
use crate::patch::Patch;
use crate::problem::DesignProblem;
use crate::reparam::{ConeFilter, ReparamChain, Symmetry, TanhProjection};
use maps_core::{ComplexField2d, SolveFieldError};
use maps_fdfd::ModeError;
use serde::{Deserialize, Serialize};

/// Configuration of the optimization loop.
#[derive(Debug, Clone)]
pub struct OptimConfig {
    /// Number of iterations.
    pub iterations: usize,
    /// Adam learning rate on θ.
    pub learning_rate: f64,
    /// Initial projection sharpness.
    pub beta_start: f64,
    /// Multiplicative β growth per iteration.
    pub beta_growth: f64,
    /// Density-filter radius in cells (minimum-feature-size control);
    /// zero disables filtering.
    pub filter_radius: f64,
    /// Optional mirror/diagonal symmetry constraint.
    pub symmetry: Option<Symmetry>,
    /// Optional lithography model applied after projection (the printed
    /// pattern is what gets simulated).
    pub litho: Option<LithoModel>,
    /// θ initialization.
    pub init: InitStrategy,
    /// Solve failures tolerated per run before aborting. Each failure is
    /// recovered by reverting to the last feasible θ and halving the
    /// learning rate (see [`InverseDesigner::run_resumable`]).
    pub max_solve_failures: usize,
    /// Emit a checkpoint every N iterations through the `on_checkpoint`
    /// callback of [`InverseDesigner::run_resumable`]; 0 disables.
    pub checkpoint_every: usize,
}

impl Default for OptimConfig {
    fn default() -> Self {
        OptimConfig {
            iterations: 40,
            learning_rate: 0.08,
            beta_start: 1.5,
            beta_growth: 1.08,
            filter_radius: 1.5,
            symmetry: None,
            litho: None,
            init: InitStrategy::Uniform(0.5),
            max_solve_failures: 3,
            checkpoint_every: 0,
        }
    }
}

/// One recorded optimization step.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IterationRecord {
    /// Iteration index (0-based).
    pub iteration: usize,
    /// Objective (normalized transmission) at this step's design.
    pub objective: f64,
    /// Gray level of the projected density (0 = binary).
    pub gray_level: f64,
    /// Projection β used this step.
    pub beta: f64,
    /// True when this iteration's solve failed and the loop recovered by
    /// reverting to the last feasible design (the recorded objective and
    /// gray level are carried forward from that design).
    pub recovered: bool,
}

/// The result of an optimization run.
#[derive(Debug, Clone)]
pub struct OptimResult {
    /// Final raw design variables.
    pub theta: Patch,
    /// Final projected density ρ̄.
    pub density: Patch,
    /// Per-iteration history (recovered iterations carry
    /// [`IterationRecord::recovered`]).
    pub history: Vec<IterationRecord>,
    /// Solve failures that were recovered during the run.
    pub recoveries: Vec<RecoveryRecord>,
    /// Forward field of the final design.
    pub final_field: ComplexField2d,
}

impl OptimResult {
    /// Best finite objective reached over the run, or `None` when the
    /// history is empty (or holds no finite objective).
    pub fn best_objective(&self) -> Option<f64> {
        self.history
            .iter()
            .map(|r| r.objective)
            .filter(|o| o.is_finite())
            .fold(None, |acc, o| Some(acc.map_or(o, |a: f64| a.max(o))))
    }
}

/// Errors from the optimization loop.
#[derive(Debug)]
#[non_exhaustive]
pub enum OptimError {
    /// A port guided no eigenmode.
    Mode(ModeError),
    /// A field solve failed (carries any [`SolveFieldError`] variant,
    /// including `NonFinite` output-validation rejections).
    Solve(SolveFieldError),
    /// The per-run failure budget ([`OptimConfig::max_solve_failures`]) was
    /// exhausted.
    TooManyFailures {
        /// Total failed solves in the run.
        failures: usize,
        /// The failure that broke the budget.
        last: SolveFieldError,
    },
    /// A resume checkpoint is inconsistent with the problem/configuration.
    Checkpoint {
        /// Description of the inconsistency.
        detail: String,
    },
}

impl std::fmt::Display for OptimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OptimError::Mode(e) => write!(f, "mode solver: {e}"),
            OptimError::Solve(e) => write!(f, "field solver: {e}"),
            OptimError::TooManyFailures { failures, last } => {
                write!(f, "aborted after {failures} solve failures (last: {last})")
            }
            OptimError::Checkpoint { detail } => write!(f, "bad checkpoint: {detail}"),
        }
    }
}

impl std::error::Error for OptimError {}

impl From<ModeError> for OptimError {
    fn from(e: ModeError) -> Self {
        OptimError::Mode(e)
    }
}

impl From<SolveFieldError> for OptimError {
    fn from(e: SolveFieldError) -> Self {
        OptimError::Solve(e)
    }
}

/// One design step evaluated at θ: what [`InverseDesigner`]'s loop records
/// and ascends along. Every designer in this crate supplies its own step
/// (one excitation, a batch of excitations, a set of process corners) and
/// shares the loop.
pub(crate) struct Step {
    /// The figure of merit the loop ascends.
    pub(crate) objective: f64,
    /// Its gradient with respect to θ.
    pub(crate) grad_theta: Patch,
    /// The simulated density ρ̄ (its gray level is recorded).
    pub(crate) density: Patch,
    /// A forward field at that density (the result's `final_field`).
    pub(crate) forward: ComplexField2d,
    /// Per-excitation or per-corner objectives (empty for a single one).
    pub(crate) per: Vec<f64>,
}

/// A simple Adam state over a flat θ vector.
#[derive(Debug, Clone)]
struct PatchAdam {
    m: Vec<f64>,
    v: Vec<f64>,
    t: u64,
    lr: f64,
}

impl PatchAdam {
    fn new(n: usize, lr: f64) -> Self {
        PatchAdam {
            m: vec![0.0; n],
            v: vec![0.0; n],
            t: 0,
            lr,
        }
    }

    /// Restores optimizer state from a checkpoint.
    fn from_checkpoint(cp: &OptimCheckpoint) -> Self {
        PatchAdam {
            m: cp.adam_m.clone(),
            v: cp.adam_v.clone(),
            t: cp.adam_t,
            lr: cp.adam_lr,
        }
    }

    /// Halves the learning rate after a recovered solve failure, so the
    /// retried step from the reverted θ explores a smaller move.
    fn backoff(&mut self) {
        self.lr *= 0.5;
    }

    /// Ascent step (we maximize the FoM).
    fn ascend(&mut self, theta: &mut Patch, grad: &Patch) {
        const B1: f64 = 0.9;
        const B2: f64 = 0.999;
        const EPS: f64 = 1e-8;
        self.t += 1;
        let bc1 = 1.0 - B1.powi(self.t as i32);
        let bc2 = 1.0 - B2.powi(self.t as i32);
        for (k, g) in grad.as_slice().iter().enumerate() {
            self.m[k] = B1 * self.m[k] + (1.0 - B1) * g;
            self.v[k] = B2 * self.v[k] + (1.0 - B2) * g * g;
            let mhat = self.m[k] / bc1;
            let vhat = self.v[k] / bc2;
            theta.as_mut_slice()[k] += self.lr * mhat / (vhat.sqrt() + EPS);
        }
        theta.clamp01();
    }
}

/// The inverse-design driver.
#[derive(Debug)]
pub struct InverseDesigner {
    config: OptimConfig,
}

impl InverseDesigner {
    /// Creates a driver with the given configuration.
    pub fn new(config: OptimConfig) -> Self {
        InverseDesigner { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &OptimConfig {
        &self.config
    }

    /// Builds the reparametrization chain for a given β.
    pub fn chain(&self, beta: f64) -> ReparamChain {
        let mut chain = ReparamChain::new();
        if let Some(sym) = self.config.symmetry {
            chain = chain.then(sym);
        }
        if self.config.filter_radius > 0.0 {
            chain = chain.then(ConeFilter::new(self.config.filter_radius));
        }
        chain = chain.then(TanhProjection::new(beta));
        if let Some(litho) = self.config.litho {
            chain = chain.then(litho);
        }
        chain
    }

    /// Runs the optimization with a callback invoked after every iteration
    /// (used by MAPS-Data's trajectory sampler).
    ///
    /// # Errors
    ///
    /// Returns [`OptimError`] when mode solving fails or the solve-failure
    /// budget is exhausted.
    pub fn run_with_callback(
        &self,
        problem: &DesignProblem,
        solver: &dyn GradientSolver,
        on_iteration: impl FnMut(&IterationRecord, &Patch, &ComplexField2d),
    ) -> Result<OptimResult, OptimError> {
        self.run_resumable(problem, solver, None, on_iteration, |_| {})
    }

    /// Builds a checkpoint capturing the loop state before `iteration`.
    #[allow(clippy::too_many_arguments)]
    fn checkpoint_at(
        iteration: usize,
        theta: &Patch,
        beta: f64,
        adam: &PatchAdam,
        history: &[IterationRecord],
        recoveries: &[RecoveryRecord],
    ) -> OptimCheckpoint {
        OptimCheckpoint {
            iteration,
            theta: theta.clone(),
            beta,
            adam_m: adam.m.clone(),
            adam_v: adam.v.clone(),
            adam_t: adam.t,
            adam_lr: adam.lr,
            history: history.to_vec(),
            recoveries: recoveries.to_vec(),
        }
    }

    /// Runs the optimization with fault tolerance and checkpoint/resume.
    ///
    /// Per-iteration solve failures are *recovered*, not fatal: the failure
    /// is recorded in [`OptimResult::recoveries`] (and as a
    /// `recovered: true` history entry), θ reverts to the last design whose
    /// solve succeeded, the learning rate is halved, and the loop continues.
    /// The run aborts with [`OptimError::TooManyFailures`] once more than
    /// [`OptimConfig::max_solve_failures`] failures accumulate.
    ///
    /// When `resume` is given, the loop continues from that checkpoint and —
    /// with a deterministic solver — reproduces the uninterrupted run's
    /// remaining iterations exactly. When
    /// [`OptimConfig::checkpoint_every`] is nonzero, `on_checkpoint` is
    /// invoked at every N-th iteration boundary with the state needed to
    /// resume there.
    ///
    /// # Errors
    ///
    /// Returns [`OptimError`] when mode solving fails or the failure budget
    /// is exhausted. A run in which every iteration failed inside the budget
    /// returns [`OptimError::TooManyFailures`] carrying the last failure.
    /// A `resume` inconsistent with the problem, or one that leaves no
    /// iteration to run, returns [`OptimError::Checkpoint`]; a fresh run with
    /// `config.iterations == 0` returns [`OptimError::Solve`] with
    /// [`SolveFieldError::InvalidInput`].
    pub fn run_resumable(
        &self,
        problem: &DesignProblem,
        solver: &dyn GradientSolver,
        resume: Option<&OptimCheckpoint>,
        mut on_iteration: impl FnMut(&IterationRecord, &Patch, &ComplexField2d),
        on_checkpoint: impl FnMut(&OptimCheckpoint),
    ) -> Result<OptimResult, OptimError> {
        let omega = problem.omega();
        let source = problem.source()?;
        let objective = problem.objective()?;
        self.drive(
            problem,
            resume,
            |theta, beta| {
                let chain = self.chain(beta);
                let inter = chain.forward_all(theta);
                let density = inter.last().expect("chain output").clone();
                let eps = problem.eps_for(&density);
                let eval = solver.objective_and_gradient(&eps, &source, omega, &objective)?;
                let grad_patch = problem.gradient_to_patch(&eval.grad_eps);
                Ok(Step {
                    objective: eval.objective,
                    grad_theta: chain.backward(&inter, &grad_patch),
                    density,
                    forward: eval.forward,
                    per: Vec::new(),
                })
            },
            |record, step| on_iteration(record, &step.density, &step.forward),
            on_checkpoint,
        )
    }

    /// The ascent loop every designer runs: `evaluate`s the design step at
    /// (θ, β) each iteration, records it, takes the Adam step and grows β,
    /// recovering retryable failures and emitting checkpoints as documented
    /// on [`InverseDesigner::run_resumable`].
    pub(crate) fn drive(
        &self,
        problem: &DesignProblem,
        resume: Option<&OptimCheckpoint>,
        mut evaluate: impl FnMut(&Patch, f64) -> Result<Step, SolveFieldError>,
        mut on_iteration: impl FnMut(&IterationRecord, &Step),
        mut on_checkpoint: impl FnMut(&OptimCheckpoint),
    ) -> Result<OptimResult, OptimError> {
        let (nx, ny) = problem.design_size;
        let _span = maps_obs::span("invdes.run")
            .field("design", format!("{nx}x{ny}"))
            .field("iterations", self.config.iterations);
        let (mut theta, mut adam, mut beta, start, mut history, mut recoveries) = match resume {
            Some(cp) => {
                if (cp.theta.nx(), cp.theta.ny()) != (nx, ny) {
                    return Err(OptimError::Checkpoint {
                        detail: format!(
                            "checkpoint design is {}x{}, problem wants {nx}x{ny}",
                            cp.theta.nx(),
                            cp.theta.ny()
                        ),
                    });
                }
                if cp.iteration >= self.config.iterations {
                    return Err(OptimError::Checkpoint {
                        detail: format!(
                            "checkpoint is at iteration {} of {}: no iteration left to run",
                            cp.iteration, self.config.iterations
                        ),
                    });
                }
                if cp.adam_m.len() != cp.theta.len() || cp.adam_v.len() != cp.theta.len() {
                    return Err(OptimError::Checkpoint {
                        detail: "Adam state inconsistent with design size".into(),
                    });
                }
                maps_obs::info!(
                    "resuming inverse design at iteration {} of {}",
                    cp.iteration,
                    self.config.iterations
                );
                (
                    cp.theta.clone(),
                    PatchAdam::from_checkpoint(cp),
                    cp.beta,
                    cp.iteration,
                    cp.history.clone(),
                    cp.recoveries.clone(),
                )
            }
            None if self.config.iterations == 0 => {
                return Err(OptimError::Solve(SolveFieldError::InvalidInput {
                    detail: "OptimConfig::iterations is 0: no design step to run".into(),
                }));
            }
            None => {
                let theta = self.config.init.build(nx, ny);
                let adam = PatchAdam::new(theta.len(), self.config.learning_rate);
                (
                    theta,
                    adam,
                    self.config.beta_start,
                    0,
                    Vec::with_capacity(self.config.iterations),
                    Vec::new(),
                )
            }
        };
        // Convergence trajectories: one row per iteration (recovered
        // iterations repeat the last feasible values so rows stay dense).
        let objective_series = maps_obs::series("invdes.objective");
        let gray_series = maps_obs::series("invdes.gray_level");
        let lr_series = maps_obs::series("invdes.lr");
        let recovery_series = maps_obs::series("invdes.recoveries");
        // The last successful step's density and field, and the last
        // recovered failure (what a run without a success reports).
        let mut last_success: Option<(Patch, ComplexField2d)> = None;
        let mut last_failure = None;
        // The last θ whose solve succeeded — the revert target on failure.
        let mut feasible_theta: Option<Patch> = None;
        for iteration in start..self.config.iterations {
            let iter_span = maps_obs::span("invdes.iteration").field("iteration", iteration);
            match evaluate(&theta, beta) {
                Ok(eval) => {
                    let grad_norm = eval
                        .grad_theta
                        .as_slice()
                        .iter()
                        .map(|g| g * g)
                        .sum::<f64>()
                        .sqrt();
                    let record = IterationRecord {
                        iteration,
                        objective: eval.objective,
                        gray_level: eval.density.gray_level(),
                        beta,
                        recovered: false,
                    };
                    maps_obs::counter("invdes.iterations").inc();
                    maps_obs::gauge("invdes.objective").set(record.objective);
                    maps_obs::gauge("invdes.gray_level").set(record.gray_level);
                    maps_obs::histogram("invdes.grad_norm").record(grad_norm);
                    let step = iteration as u64;
                    objective_series.push(step, record.objective);
                    gray_series.push(step, record.gray_level);
                    lr_series.push(step, adam.lr);
                    maps_obs::info!(
                        "invdes iter {iteration}: objective {:.4} gray {:.3} |grad| {grad_norm:.3e} \
                         beta {beta:.2} ({:.2}s)",
                        record.objective,
                        record.gray_level,
                        iter_span.elapsed().as_secs_f64()
                    );
                    on_iteration(&record, &eval);
                    history.push(record);
                    feasible_theta = Some(theta.clone());
                    adam.ascend(&mut theta, &eval.grad_theta);
                    beta *= self.config.beta_growth;
                    last_success = Some((eval.density, eval.forward));
                }
                Err(e) if e.is_retryable() => {
                    maps_obs::counter("invdes.solve_failures").inc();
                    maps_obs::error!(
                        "invdes iter {iteration}: solve failed ({e}); reverting to last \
                         feasible design"
                    );
                    recoveries.push(RecoveryRecord {
                        iteration,
                        error: e.to_string(),
                    });
                    if recoveries.len() > self.config.max_solve_failures {
                        return Err(OptimError::TooManyFailures {
                            failures: recoveries.len(),
                            last: e,
                        });
                    }
                    // Fall back to the previous feasible design and take a
                    // smaller step from there; β does not advance (the
                    // design made no progress this iteration).
                    if let Some(prev) = &feasible_theta {
                        theta = prev.clone();
                    }
                    adam.backoff();
                    if let Some(prev_rec) = history.last().copied() {
                        let record = IterationRecord {
                            iteration,
                            objective: prev_rec.objective,
                            gray_level: prev_rec.gray_level,
                            beta,
                            recovered: true,
                        };
                        history.push(record);
                        let step = iteration as u64;
                        objective_series.push(step, prev_rec.objective);
                        gray_series.push(step, prev_rec.gray_level);
                        lr_series.push(step, adam.lr);
                    }
                    recovery_series.push(iteration as u64, recoveries.len() as f64);
                    maps_obs::counter("invdes.recoveries").inc();
                    last_failure = Some(e);
                }
                Err(other) => return Err(other.into()),
            }
            if self.config.checkpoint_every > 0
                && (iteration + 1) % self.config.checkpoint_every == 0
                && iteration + 1 < self.config.iterations
            {
                on_checkpoint(&Self::checkpoint_at(
                    iteration + 1,
                    &theta,
                    beta,
                    &adam,
                    &history,
                    &recoveries,
                ));
            }
        }
        let Some((density, final_field)) = last_success else {
            // Every iteration of the schedule failed, each inside the budget.
            return Err(OptimError::TooManyFailures {
                failures: recoveries.len(),
                last: last_failure.expect("a non-empty schedule ran an iteration"),
            });
        };
        Ok(OptimResult {
            theta,
            density,
            history,
            recoveries,
            final_field,
        })
    }

    /// Runs the optimization without a callback.
    ///
    /// # Errors
    ///
    /// Returns [`OptimError`] when mode solving or a field solve fails.
    pub fn run(
        &self,
        problem: &DesignProblem,
        solver: &dyn GradientSolver,
    ) -> Result<OptimResult, OptimError> {
        self.run_with_callback(problem, solver, |_, _, _| {})
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradient::{ExactAdjoint, FieldGradient};
    use maps_core::{
        Axis, Direction, FaultInjectingSolver, FaultPlan, Grid2d, InjectedFault, Port, RealField2d,
    };
    use maps_fdfd::FdfdSolver;

    /// A tiny straight-through coupler: the design region interrupts a
    /// waveguide; optimization must learn to bridge it.
    fn bridge_problem() -> DesignProblem {
        let grid = Grid2d::new(56, 40, 0.08);
        let yc = grid.height() / 2.0;
        let mut base = RealField2d::constant(grid, 2.07);
        maps_core::paint(
            &mut base,
            &maps_core::Shape::Rect(maps_core::Rect::new(0.0, yc - 0.24, 1.9, yc + 0.24)),
            12.11,
        );
        maps_core::paint(
            &mut base,
            &maps_core::Shape::Rect(maps_core::Rect::new(
                grid.width() - 1.9,
                yc - 0.24,
                grid.width(),
                yc + 0.24,
            )),
            12.11,
        );
        DesignProblem {
            base_eps: base,
            design_origin: (24, 14),
            design_size: (9, 12),
            eps_min: 2.07,
            eps_max: 12.11,
            wavelength: 1.55,
            input_port: Port::new((1.1, yc), 0.48, Axis::X, Direction::Positive),
            terms: vec![crate::problem::ObjectiveTerm {
                port: Port::new((grid.width() - 1.1, yc), 0.48, Axis::X, Direction::Positive),
                weight: 1.0,
            }],
            normalization: 1.0,
        }
    }

    #[test]
    fn optimization_improves_transmission() {
        let mut problem = bridge_problem();
        let exact = ExactAdjoint::default();
        problem.calibrate(exact.solver()).unwrap();
        let designer = InverseDesigner::new(OptimConfig {
            iterations: 12,
            learning_rate: 0.12,
            beta_start: 1.5,
            beta_growth: 1.15,
            filter_radius: 1.0,
            symmetry: Some(Symmetry::MirrorY),
            litho: None,
            init: InitStrategy::Uniform(0.5),
            ..OptimConfig::default()
        });
        let result = designer.run(&problem, &exact).unwrap();
        let first = result.history.first().unwrap().objective;
        let best = result.best_objective().unwrap();
        assert!(
            best > first * 1.2,
            "optimization should improve transmission: {first:.4} -> {best:.4}"
        );
        assert_eq!(result.history.len(), 12);
        // β grew along the schedule.
        assert!(result.history.last().unwrap().beta > result.history[0].beta);
    }

    #[test]
    fn callback_sees_every_iteration() {
        let mut problem = bridge_problem();
        let exact = ExactAdjoint::default();
        problem.calibrate(exact.solver()).unwrap();
        let designer = InverseDesigner::new(OptimConfig {
            iterations: 3,
            ..OptimConfig::default()
        });
        let mut seen = Vec::new();
        designer
            .run_with_callback(&problem, &exact, |rec, density, field| {
                seen.push(rec.iteration);
                assert_eq!((density.nx(), density.ny()), problem.design_size);
                assert_eq!(field.grid(), problem.grid());
            })
            .unwrap();
        assert_eq!(seen, vec![0, 1, 2]);
    }

    /// A run whose every iteration fails inside the budget has no design
    /// to report: it returns `TooManyFailures` with the last failure.
    #[test]
    fn run_without_a_successful_iteration_is_an_error() {
        let problem = bridge_problem();
        let faulty = FaultInjectingSolver::new(
            FdfdSolver::new(),
            FaultPlan::new().always(InjectedFault::Error),
        );
        let designer = InverseDesigner::new(OptimConfig {
            iterations: 2,
            max_solve_failures: 3,
            ..OptimConfig::default()
        });
        match designer.run(&problem, &FieldGradient::new(&faulty)) {
            Err(OptimError::TooManyFailures { failures: 2, last }) => {
                assert!(last.to_string().contains("injected failure"), "{last}");
            }
            other => panic!("expected TooManyFailures after 2 failures, got {other:?}"),
        }
    }

    /// A schedule with no iteration left to run is refused up front.
    #[test]
    fn empty_schedules_are_errors() {
        let problem = bridge_problem();
        let exact = ExactAdjoint::default();
        let designer = InverseDesigner::new(OptimConfig {
            iterations: 2,
            checkpoint_every: 1,
            ..OptimConfig::default()
        });
        let mut checkpoints = Vec::new();
        designer
            .run_resumable(
                &problem,
                &exact,
                None,
                |_, _, _| {},
                |cp| checkpoints.push(cp.clone()),
            )
            .unwrap();
        let mut at_end = checkpoints.pop().expect("a checkpoint after iteration 0");
        at_end.iteration = designer.config().iterations;
        let resumed = designer.run_resumable(&problem, &exact, Some(&at_end), |_, _, _| {}, |_| {});
        assert!(
            matches!(resumed, Err(OptimError::Checkpoint { .. })),
            "{resumed:?}"
        );

        let none = InverseDesigner::new(OptimConfig {
            iterations: 0,
            ..OptimConfig::default()
        })
        .run(&problem, &exact);
        assert!(
            matches!(
                none,
                Err(OptimError::Solve(SolveFieldError::InvalidInput { .. }))
            ),
            "{none:?}"
        );
    }
}
