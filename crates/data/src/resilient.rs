//! Fault-tolerant label generation: quarantine instead of abort.
//!
//! [`label_batch`](crate::generate::label_batch) fails the whole batch on
//! the first bad solve — correct for debugging, wasteful for overnight
//! dataset sweeps where one pathological density (or one transient solver
//! failure) should not discard thousands of good samples. The resilient
//! path runs every job, keeps the successes, and quarantines the failures
//! with enough metadata to retry them later.
//!
//! Each (density, variant) is labelled from one shared stage: the painted
//! permittivity, the input mode source, its forward field and the device
//! objective are built once, and both the label job and the
//! adjoint-excitation job read them. The solves of one (density, variant)
//! run in this order, which is the order a call-indexed fault plan sees:
//!
//! 1. the forward solve (shared);
//! 2. the adjoint solve, when `with_adjoint` (label job);
//! 3. the adjoint-excitation forward solve, when
//!    `with_adjoint_source_samples` (adjoint-excitation job).
//!
//! A failed shared stage quarantines both jobs with the same error; a
//! failed adjoint or adjoint-excitation solve quarantines only its own job.
//!
//! Jobs run **sequentially** in [`label_batch_resilient_with`]: a
//! deterministic solve order is what makes call-indexed fault-injection
//! tests and retry-by-index reproducible. The parallel variant
//! [`label_batch_resilient_par_with`] stripes densities across worker
//! threads and reassembles outcomes in input order, so its
//! [`GenerateReport`] is identical to the sequential one whenever the
//! injected solver's behavior is a deterministic function of the job's
//! *inputs* (rather than of global call order).

use crate::device::{DeviceSpec, SourceVariant};
use crate::generate::{build_objective, paint_density, GenerateConfig, GenerateError};
use maps_core::{
    ComplexField2d, FieldSolver, PortRecord, RealField2d, RichLabels, Sample, SolveRequest,
};
use maps_fdfd::{
    derive_h_fields, gradient_from_fields, FdfdSolver, ModeMonitor, ModeSource, PowerObjective,
};
use rayon::prelude::*;

/// Unwraps a single-request batch. Rich-label solves flow through
/// [`FieldSolver::solve_ez_batch`] so direct solvers answer them from the
/// grouped substitution path; the stages of one (density, variant) depend
/// on each other (the adjoint RHS needs the forward field), so each solve
/// is its own one-request batch, in the order the module doc lists.
fn solve_one(
    solver: &dyn FieldSolver,
    eps: &RealField2d,
    request: SolveRequest<'_>,
) -> Result<ComplexField2d, maps_core::SolveFieldError> {
    solver
        .solve_ez_batch(eps, &[request])
        .pop()
        .expect("a batch of one request returns one result")
}

/// One generation job that failed, with what's needed to retry it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantinedSample {
    /// Index into the density batch.
    pub density_index: usize,
    /// Index into the device's source-variant list.
    pub variant_index: usize,
    /// Whether the job was the adjoint-excitation companion sample.
    pub adjoint_excitation: bool,
    /// The failure, stringified.
    pub error: String,
}

/// Outcome of a resilient batch: successes plus quarantined failures.
#[derive(Debug, Default)]
pub struct GenerateReport {
    /// Successfully labeled samples, in deterministic job order.
    pub ok: Vec<Sample>,
    /// Failed jobs, in deterministic job order.
    pub quarantined: Vec<QuarantinedSample>,
}

impl GenerateReport {
    /// Total jobs attempted.
    pub fn total_jobs(&self) -> usize {
        self.ok.len() + self.quarantined.len()
    }

    /// Fraction of jobs quarantined (0.0 for an empty report).
    pub fn quarantine_rate(&self) -> f64 {
        if self.total_jobs() == 0 {
            0.0
        } else {
            self.quarantined.len() as f64 / self.total_jobs() as f64
        }
    }
}

/// The work one (density, variant) shares between its label sample and
/// its adjoint-excitation sample: the painted (and heated) permittivity,
/// the input mode source, its forward field and the device objective.
struct ForwardStage<'a> {
    device: &'a DeviceSpec,
    density: &'a maps_invdes::Patch,
    variant: &'a SourceVariant,
    omega: f64,
    eps: RealField2d,
    source: ComplexField2d,
    ez: ComplexField2d,
    objective: PowerObjective,
}

impl<'a> ForwardStage<'a> {
    /// Paints the density, builds the input mode source, runs the forward
    /// solve and builds the objective.
    fn solve(
        solver: &dyn FieldSolver,
        device: &'a DeviceSpec,
        density: &'a maps_invdes::Patch,
        variant: &'a SourceVariant,
    ) -> Result<Self, GenerateError> {
        let omega = maps_core::omega_for_wavelength(variant.wavelength);
        let mut eps = device.problem.base_eps.clone();
        paint_density(&mut eps, device, density);
        if variant.heater_on {
            device.apply_heater(&mut eps);
        }
        let in_port = device.ports[variant.input_port].with_mode(variant.mode_index);
        let source = ModeSource::new(&eps, &in_port, omega)?.current_density(eps.grid());
        let ez = solve_one(solver, &eps, SolveRequest::forward(&source, omega))?;
        let objective = build_objective(device, &eps, omega)?;
        Ok(ForwardStage {
            device,
            density,
            variant,
            omega,
            eps,
            source,
            ez,
            objective,
        })
    }

    /// The label sample: per-port powers of the forward field and, when
    /// configured, the adjoint gradient from one adjoint solve.
    fn label_sample(
        &self,
        solver: &dyn FieldSolver,
        config: &GenerateConfig,
        sample_index: usize,
    ) -> Result<Sample, GenerateError> {
        let (device, eps, omega) = (self.device, &self.eps, self.omega);
        let adjoint_gradient = if config.with_adjoint {
            let rhs = ComplexField2d::from_vec(eps.grid(), self.objective.adjoint_rhs(&self.ez));
            let adjoint = solve_one(solver, eps, SolveRequest::adjoint(&rhs, omega))?;
            let grad = gradient_from_fields(&self.ez, &adjoint, omega);
            let patch = device.problem.gradient_to_patch(&grad);
            Some(RealField2d::from_vec(
                maps_core::Grid2d::new(patch.nx(), patch.ny(), eps.grid().dl),
                patch.as_slice().to_vec(),
            ))
        } else {
            None
        };

        let injected = device.problem.normalization.max(1e-30);
        let mut transmissions = Vec::new();
        let mut reflection = 0.0;
        let mut total_out = 0.0;
        for (pi, port) in device.ports.iter().enumerate() {
            let monitor = ModeMonitor::new(eps, port, omega)?;
            if pi == self.variant.input_port {
                let amp = monitor.incoming_functional().eval(&self.ez);
                reflection = amp.norm_sqr() / injected;
            } else {
                let amp = monitor.outgoing_functional().eval(&self.ez);
                let power = amp.norm_sqr() / injected;
                total_out += power;
                let scale = 1.0 / injected.sqrt();
                transmissions.push(PortRecord {
                    port: pi,
                    amplitude_re: amp.re * scale,
                    amplitude_im: amp.im * scale,
                    power,
                });
            }
        }
        let mut sample = self.sample(config, sample_index, self.source.clone(), self.ez.clone());
        let labels = &mut sample.labels;
        labels.transmissions = transmissions;
        labels.reflection = reflection;
        labels.radiation = (1.0 - total_out - reflection).max(0.0);
        labels.adjoint_gradient = adjoint_gradient;
        Ok(sample)
    }

    /// The adjoint-excitation sample: the objective's adjoint right-hand
    /// side, as the current `J = i·rhs/ω`, and its forward field.
    fn adjoint_source_sample(
        &self,
        solver: &dyn FieldSolver,
        config: &GenerateConfig,
        sample_index: usize,
    ) -> Result<Sample, GenerateError> {
        let rhs = self.objective.adjoint_rhs(&self.ez);
        let scale = maps_linalg::Complex64::new(0.0, 1.0 / self.omega);
        let j_adj =
            ComplexField2d::from_vec(self.eps.grid(), rhs.iter().map(|r| *r * scale).collect());
        let ez = solve_one(solver, &self.eps, SolveRequest::forward(&j_adj, self.omega))?;
        Ok(self.sample(config, sample_index, j_adj, ez))
    }

    /// A sample of this stage's density whose field `ez` answers `source`,
    /// with no port or gradient labels.
    fn sample(
        &self,
        config: &GenerateConfig,
        sample_index: usize,
        source: ComplexField2d,
        ez: ComplexField2d,
    ) -> Sample {
        let (device, density, eps) = (self.device, self.density, &self.eps);
        let maxwell_residual = if config.with_residual {
            reference_solver(eps).residual(eps, &source, self.omega, &ez)
        } else {
            0.0
        };
        let (hx, hy) = derive_h_fields(&ez, self.omega);
        let density_field = RealField2d::from_vec(
            maps_core::Grid2d::new(density.nx(), density.ny(), eps.grid().dl),
            density.as_slice().to_vec(),
        );
        Sample {
            device_id: format!("{}-{:04}", device.kind.name(), sample_index),
            device_kind: device.kind.name().to_string(),
            eps_r: eps.clone(),
            density: Some(density_field),
            source,
            labels: RichLabels {
                fidelity: config.fidelity,
                wavelength: self.variant.wavelength,
                input_port: self.variant.input_port,
                input_mode: self.variant.mode_index,
                transmissions: Vec::new(),
                reflection: 0.0,
                radiation: 0.0,
                fields: maps_core::EmFields { ez, hx, hy },
                adjoint_gradient: None,
                maxwell_residual,
            },
        }
    }
}

/// [`label_sample`](crate::generate::label_sample) generalized over any
/// [`FieldSolver`] — the adjoint gradient uses the trait adjoint solve and
/// the fields-product rule instead of the shared-factorization fast path,
/// and the Maxwell-residual self-check is evaluated against a reference
/// FDFD operator (the residual is a property of the *field*, so it stays
/// meaningful even when a surrogate produced it).
///
/// # Errors
///
/// Returns [`GenerateError`] when mode solving or a field solve fails.
pub fn label_sample_with(
    solver: &dyn FieldSolver,
    device: &DeviceSpec,
    density: &maps_invdes::Patch,
    variant: &SourceVariant,
    config: &GenerateConfig,
    sample_index: usize,
) -> Result<Sample, GenerateError> {
    ForwardStage::solve(solver, device, density, variant)?.label_sample(
        solver,
        config,
        sample_index,
    )
}

/// [`adjoint_source_sample`](crate::generate::adjoint_source_sample)
/// generalized over any [`FieldSolver`].
///
/// # Errors
///
/// Returns [`GenerateError`] when mode solving or a field solve fails.
pub fn adjoint_source_sample_with(
    solver: &dyn FieldSolver,
    device: &DeviceSpec,
    density: &maps_invdes::Patch,
    variant: &SourceVariant,
    config: &GenerateConfig,
    sample_index: usize,
) -> Result<Sample, GenerateError> {
    ForwardStage::solve(solver, device, density, variant)?.adjoint_source_sample(
        solver,
        config,
        sample_index,
    )
}

fn reference_solver(eps: &RealField2d) -> FdfdSolver {
    FdfdSolver::with_pml(maps_fdfd::PmlConfig::auto(eps.grid().dl))
}

/// Labels a batch through an injected solver, quarantining failed jobs
/// instead of aborting the batch.
///
/// Jobs run sequentially in the same deterministic order as
/// [`label_batch`](crate::generate::label_batch) reports them
/// (densities × variants, label then adjoint-excitation), and the solves
/// of each (density, variant) follow the order in the module doc, so a
/// call-indexed [`maps_core::FaultInjectingSolver`] maps faults onto
/// specific jobs reproducibly.
pub fn label_batch_resilient_with(
    solver: &dyn FieldSolver,
    device: &DeviceSpec,
    densities: &[maps_invdes::Patch],
    config: &GenerateConfig,
) -> GenerateReport {
    let span = maps_obs::span("data.label_batch_resilient")
        .field("densities", densities.len())
        .field("solver", solver.name());
    let mut report = GenerateReport::default();
    for (di, density) in densities.iter().enumerate() {
        for outcome in density_jobs(solver, device, density, config, di) {
            absorb_outcome(&mut report, outcome);
        }
    }
    log_report(&report, span.elapsed().as_secs_f64());
    report
}

/// Outcome of one labeling job, tagged for deterministic reassembly.
/// The sample is boxed: it carries full fields, so the Ok variant dwarfs
/// the failure record.
pub(crate) enum JobOutcome {
    Ok(Box<Sample>),
    Failed {
        density_index: usize,
        variant_index: usize,
        adjoint_excitation: bool,
        error: GenerateError,
    },
}

impl JobOutcome {
    /// The sample, or the typed error of the failed job.
    pub(crate) fn into_result(self) -> Result<Sample, GenerateError> {
        match self {
            JobOutcome::Ok(sample) => Ok(*sample),
            JobOutcome::Failed { error, .. } => Err(error),
        }
    }
}

/// Runs every job of one density (variants × label/adjoint-excitation) in
/// the canonical sequential order, one shared [`ForwardStage`] per
/// variant, capturing failures instead of aborting.
fn density_jobs(
    solver: &dyn FieldSolver,
    device: &DeviceSpec,
    density: &maps_invdes::Patch,
    config: &GenerateConfig,
    di: usize,
) -> Vec<JobOutcome> {
    // Per-density worker span: on the parallel path this opens on a scoped
    // worker thread, and because the vendored rayon adopts the spawner's
    // TaskContext it carries the batch span's flow/parent ids — the
    // exported trace stitches every worker lane back to the batch.
    let _span = maps_obs::span("data.label_density").field("di", di);
    let kinds: &[bool] = if config.with_adjoint_source_samples {
        &[false, true]
    } else {
        &[false]
    };
    let mut outcomes = Vec::new();
    for (vi, variant) in device.variants.iter().enumerate() {
        let stage = ForwardStage::solve(solver, device, density, variant);
        for &adjoint_excitation in kinds {
            let result = match &stage {
                Ok(stage) if adjoint_excitation => stage.adjoint_source_sample(solver, config, di),
                Ok(stage) => stage.label_sample(solver, config, di),
                Err(e) => Err(e.clone()),
            };
            outcomes.push(match result {
                Ok(sample) => JobOutcome::Ok(Box::new(sample)),
                Err(error) => JobOutcome::Failed {
                    density_index: di,
                    variant_index: vi,
                    adjoint_excitation,
                    error,
                },
            });
        }
    }
    outcomes
}

/// Runs [`density_jobs`] for every density, striped across worker
/// threads, and returns the outcomes in job order.
pub(crate) fn density_jobs_par(
    solver: &(dyn FieldSolver + Sync),
    device: &DeviceSpec,
    densities: &[maps_invdes::Patch],
    config: &GenerateConfig,
) -> Vec<JobOutcome> {
    let per_density: Vec<Vec<JobOutcome>> = densities
        .par_iter()
        .map_indexed(|di, density| density_jobs(solver, device, density, config, di))
        .collect();
    per_density.into_iter().flatten().collect()
}

fn absorb_outcome(report: &mut GenerateReport, outcome: JobOutcome) {
    match outcome {
        JobOutcome::Ok(sample) => report.ok.push(*sample),
        JobOutcome::Failed {
            density_index,
            variant_index,
            adjoint_excitation,
            error,
        } => {
            let q = QuarantinedSample {
                density_index,
                variant_index,
                adjoint_excitation,
                error: error.to_string(),
            };
            maps_obs::counter("samples.quarantined").inc();
            maps_obs::error!(
                "quarantined density {} variant {} (adjoint_excitation={}): {}",
                q.density_index,
                q.variant_index,
                q.adjoint_excitation,
                q.error
            );
            report.quarantined.push(q);
        }
    }
}

fn log_report(report: &GenerateReport, elapsed: f64) {
    // Per-batch quarantine trajectory: one point per labeled batch, indexed
    // by a process-wide batch sequence number.
    static BATCH_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let batch = BATCH_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    maps_obs::series("data.quarantine").push(batch, report.quarantined.len() as f64);
    maps_obs::info!(
        "resilient batch: {} ok, {} quarantined ({:.0}%) in {elapsed:.2}s",
        report.ok.len(),
        report.quarantined.len(),
        report.quarantine_rate() * 100.0,
    );
}

/// Parallel [`label_batch_resilient_with`]: densities are striped across
/// worker threads (each worker runs one density's jobs in canonical order)
/// and outcomes are reassembled in input order, so the returned
/// [`GenerateReport`] lists `ok` samples and `quarantined` jobs in exactly
/// the order the sequential path produces.
///
/// Determinism contract: with a solver whose success/failure and output
/// bits depend only on the job inputs (true for the exact FDFD solver and
/// for content-keyed fault injection), the parallel report is
/// **byte-identical** to the sequential one. A *call-indexed* fault plan
/// ([`maps_core::FaultPlan`]) is scheduled by arrival order and therefore
/// maps onto different jobs under parallel execution — use the sequential
/// path to reproduce those schedules exactly.
pub fn label_batch_resilient_par_with(
    solver: &(dyn FieldSolver + Sync),
    device: &DeviceSpec,
    densities: &[maps_invdes::Patch],
    config: &GenerateConfig,
) -> GenerateReport {
    let span = maps_obs::span("data.label_batch_resilient_par")
        .field("densities", densities.len())
        .field("solver", solver.name());
    let mut report = GenerateReport::default();
    for outcome in density_jobs_par(solver, device, densities, config) {
        absorb_outcome(&mut report, outcome);
    }
    log_report(&report, span.elapsed().as_secs_f64());
    report
}

/// [`label_batch_resilient_par_with`] using the exact FDFD solver.
pub fn label_batch_resilient_par(
    device: &DeviceSpec,
    densities: &[maps_invdes::Patch],
    config: &GenerateConfig,
) -> GenerateReport {
    let solver = FdfdSolver::with_pml(maps_fdfd::PmlConfig::auto(device.grid().dl));
    label_batch_resilient_par_with(&solver, device, densities, config)
}

/// [`label_batch_resilient_with`] using the exact FDFD solver.
pub fn label_batch_resilient(
    device: &DeviceSpec,
    densities: &[maps_invdes::Patch],
    config: &GenerateConfig,
) -> GenerateReport {
    let solver = FdfdSolver::with_pml(maps_fdfd::PmlConfig::auto(device.grid().dl));
    label_batch_resilient_with(&solver, device, densities, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{DeviceKind, DeviceResolution};
    use maps_core::{FaultInjectingSolver, FaultPlan, InjectedFault};

    #[test]
    fn fault_free_resilient_batch_matches_parallel_path_sample_count() {
        let dev = DeviceKind::Bending.build(DeviceResolution::low());
        let densities = vec![
            maps_invdes::Patch::constant(
                dev.problem.design_size.0,
                dev.problem.design_size.1,
                0.5,
            );
            2
        ];
        let cfg = GenerateConfig {
            with_adjoint: false,
            with_residual: true,
            ..Default::default()
        };
        let report = label_batch_resilient(&dev, &densities, &cfg);
        assert!(report.quarantined.is_empty(), "{:?}", report.quarantined);
        assert_eq!(
            report.ok.len(),
            crate::generate::label_batch(&dev, &densities, &cfg)
                .unwrap()
                .len()
        );
        for s in &report.ok {
            assert!(s.labels.maxwell_residual < 1e-9);
        }
    }

    /// Fails deterministically as a function of the *job inputs* (eps,
    /// source, omega), so sequential and parallel schedules fault the same
    /// jobs — the property a call-indexed [`FaultPlan`] cannot provide
    /// under parallel execution.
    struct ContentKeyedFaultSolver {
        inner: FdfdSolver,
        modulus: u64,
    }

    impl ContentKeyedFaultSolver {
        fn job_hash(eps: &RealField2d, source: &ComplexField2d, omega: f64) -> u64 {
            let mut h: u64 = 0xCBF2_9CE4_8422_2325;
            let mut mix = |bits: u64| {
                h = (h ^ bits).wrapping_mul(0x0000_0100_0000_01B3);
            };
            for v in eps.as_slice() {
                mix(v.to_bits());
            }
            for z in source.as_slice() {
                mix(z.re.to_bits());
                mix(z.im.to_bits());
            }
            mix(omega.to_bits());
            h
        }

        fn should_fail(&self, eps: &RealField2d, source: &ComplexField2d, omega: f64) -> bool {
            Self::job_hash(eps, source, omega).is_multiple_of(self.modulus)
        }
    }

    impl FieldSolver for ContentKeyedFaultSolver {
        fn solve_ez(
            &self,
            eps_r: &RealField2d,
            source: &ComplexField2d,
            omega: f64,
        ) -> Result<ComplexField2d, maps_core::SolveFieldError> {
            if self.should_fail(eps_r, source, omega) {
                return Err(maps_core::SolveFieldError::Numerical {
                    detail: "content-keyed injected fault".into(),
                });
            }
            self.inner.solve_ez(eps_r, source, omega)
        }

        fn solve_adjoint_ez(
            &self,
            eps_r: &RealField2d,
            rhs: &ComplexField2d,
            omega: f64,
        ) -> Result<ComplexField2d, maps_core::SolveFieldError> {
            self.inner.solve_adjoint_ez(eps_r, rhs, omega)
        }

        fn name(&self) -> &str {
            "content-keyed-fault"
        }
    }

    #[test]
    fn parallel_report_is_byte_identical_to_sequential_under_fault_injection() {
        let dev = DeviceKind::Bending.build(DeviceResolution::low());
        // Distinct densities so jobs have distinct fingerprints and the
        // fault hash spreads.
        let densities: Vec<maps_invdes::Patch> = (0..8)
            .map(|i| {
                maps_invdes::Patch::constant(
                    dev.problem.design_size.0,
                    dev.problem.design_size.1,
                    0.2 + 0.08 * i as f64,
                )
            })
            .collect();
        let cfg = GenerateConfig {
            with_adjoint: false,
            with_residual: false,
            with_adjoint_source_samples: true,
            ..Default::default()
        };
        let solver = ContentKeyedFaultSolver {
            inner: FdfdSolver::with_pml(maps_fdfd::PmlConfig::auto(dev.grid().dl)),
            modulus: 5, // ≈20% of jobs fault
        };
        let sequential = label_batch_resilient_with(&solver, &dev, &densities, &cfg);
        let parallel = label_batch_resilient_par_with(&solver, &dev, &densities, &cfg);
        assert!(
            !sequential.quarantined.is_empty(),
            "fault plan must actually fire for the test to mean anything"
        );
        assert!(!sequential.ok.is_empty());
        // Byte-identity: every sample and every quarantine record matches
        // field-for-field, in the same deterministic job order.
        assert_eq!(sequential.ok, parallel.ok);
        assert_eq!(sequential.quarantined, parallel.quarantined);
    }

    /// Three distinct smooth densities on the device's design window.
    fn ripple_densities(dev: &DeviceSpec) -> Vec<maps_invdes::Patch> {
        let (nx, ny) = dev.problem.design_size;
        (0..3)
            .map(|i| {
                let k = 1.0 + i as f64;
                let data = (0..nx * ny)
                    .map(|c| {
                        let (x, y) = ((c % nx) as f64, (c / nx) as f64);
                        0.5 + 0.45 * (k * 0.4 * x).sin() * (0.3 * y + i as f64).cos()
                    })
                    .collect();
                maps_invdes::Patch::from_vec(nx, ny, data)
            })
            .collect()
    }

    fn assert_same_samples(got: &[Sample], want: &[Sample]) {
        assert_eq!(got, want);
        for (g, w) in got.iter().zip(want) {
            let bits = |s: &Sample| -> Vec<(u64, u64)> {
                let ez = s.labels.fields.ez.as_slice();
                ez.iter()
                    .map(|z| (z.re.to_bits(), z.im.to_bits()))
                    .collect()
            };
            assert_eq!(bits(g), bits(w), "{}", g.device_id);
        }
    }

    #[test]
    fn batch_reports_equal_the_per_sample_functions_bit_for_bit() {
        let cfg = GenerateConfig {
            with_adjoint_source_samples: true,
            ..Default::default()
        };
        for kind in [DeviceKind::Mdm, DeviceKind::Wdm, DeviceKind::Tos] {
            let dev = kind.build(DeviceResolution::low());
            let solver = FdfdSolver::with_pml(maps_fdfd::PmlConfig::auto(dev.grid().dl));
            let densities = ripple_densities(&dev);
            let mut want = Vec::new();
            for (di, density) in densities.iter().enumerate() {
                for variant in &dev.variants {
                    want.push(
                        label_sample_with(&solver, &dev, density, variant, &cfg, di).unwrap(),
                    );
                    want.push(
                        adjoint_source_sample_with(&solver, &dev, density, variant, &cfg, di)
                            .unwrap(),
                    );
                }
            }
            let parallel = label_batch_resilient_par_with(&solver, &dev, &densities, &cfg);
            let sequential = label_batch_resilient_with(&solver, &dev, &densities, &cfg);
            assert!(
                parallel.quarantined.is_empty(),
                "{:?}",
                parallel.quarantined
            );
            assert!(
                sequential.quarantined.is_empty(),
                "{:?}",
                sequential.quarantined
            );
            assert_same_samples(&parallel.ok, &want);
            assert_same_samples(&sequential.ok, &want);
        }
    }

    #[test]
    fn call_indexed_faults_quarantine_the_jobs_that_own_the_solve() {
        let dev = DeviceKind::Bending.build(DeviceResolution::low());
        assert_eq!(dev.variants.len(), 1);
        let densities = ripple_densities(&dev)[..2].to_vec();
        let cfg = GenerateConfig {
            with_adjoint_source_samples: true,
            ..Default::default()
        };
        let fdfd = || FdfdSolver::with_pml(maps_fdfd::PmlConfig::auto(dev.grid().dl));
        let clean = label_batch_resilient_with(&fdfd(), &dev, &densities, &cfg);
        assert!(clean.quarantined.is_empty(), "{:?}", clean.quarantined);
        // Jobs: [d0 label, d0 adjoint-excitation, d1 label, d1 ...]. Each
        // (density, variant) solves forward, adjoint, adjoint-excitation, so
        // density 1 owns calls 3, 4 and 5.
        for (call, failed_jobs) in [(3, &[2, 3][..]), (4, &[2]), (5, &[3])] {
            let faulty = FaultInjectingSolver::new(
                fdfd(),
                FaultPlan::new().fail_at(call, InjectedFault::Error),
            );
            let report = label_batch_resilient_with(&faulty, &dev, &densities, &cfg);
            let quarantined: Vec<(usize, bool)> = report
                .quarantined
                .iter()
                .map(|q| (q.density_index, q.adjoint_excitation))
                .collect();
            let expected: Vec<(usize, bool)> = failed_jobs.iter().map(|&j| (1, j == 3)).collect();
            assert_eq!(quarantined, expected, "fault at call {call}");
            assert!(report
                .quarantined
                .iter()
                .all(|q| q.error == report.quarantined[0].error));
            let survivors: Vec<Sample> = (0..4)
                .filter(|j| !failed_jobs.contains(j))
                .map(|j| clean.ok[j].clone())
                .collect();
            assert_same_samples(&report.ok, &survivors);
        }
    }

    #[test]
    fn injected_failures_are_quarantined_not_fatal() {
        let dev = DeviceKind::Bending.build(DeviceResolution::low());
        let densities = vec![
            maps_invdes::Patch::constant(
                dev.problem.design_size.0,
                dev.problem.design_size.1,
                0.5,
            );
            3
        ];
        let cfg = GenerateConfig {
            with_adjoint: false,
            with_residual: false,
            ..Default::default()
        };
        // One solve per job (no adjoint) → call index == job index.
        let faulty = FaultInjectingSolver::new(
            FdfdSolver::with_pml(maps_fdfd::PmlConfig::auto(dev.grid().dl)),
            FaultPlan::new().fail_at(1, InjectedFault::Error),
        );
        let report = label_batch_resilient_with(&faulty, &dev, &densities, &cfg);
        assert_eq!(report.quarantined.len(), 1);
        assert_eq!(report.quarantined[0].density_index, 1);
        assert!(!report.quarantined[0].adjoint_excitation);
        assert_eq!(report.ok.len(), report.total_jobs() - 1);
        assert!(report.quarantine_rate() > 0.0);
    }
}
