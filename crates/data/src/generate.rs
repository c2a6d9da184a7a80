//! Rich-label generation: turning sampled densities into dataset samples.
//!
//! Every density is simulated with the exact FDFD solver at the requested
//! fidelity; the sample records the permittivity, source, full fields,
//! per-port transmissions, reflection, radiation, the adjoint gradient
//! under the device objective, and the Maxwell residual self-check.
//!
//! Every solve against the same permittivity map and frequency reuses a
//! single banded LU through the `maps_fdfd::factor_cache` — one
//! factorization per distinct (ε, ω) rather than per solve. The label and
//! adjoint-excitation samples of one (density, variant) also share one
//! forward solve, and port modes come from the `maps_fdfd` mode memo.

use crate::device::{DeviceSpec, SourceVariant};
use crate::resilient::JobOutcome;
use maps_core::{Fidelity, RealField2d, Sample};
use maps_fdfd::{FdfdSolver, ModeError, ModeMonitor, PowerObjective};
use maps_invdes::Patch;

/// Configuration of label generation.
#[derive(Debug, Clone)]
pub struct GenerateConfig {
    /// Fidelity level recorded on the samples (the caller picks the device
    /// resolution to match).
    pub fidelity: Fidelity,
    /// Compute and attach the adjoint gradient label.
    pub with_adjoint: bool,
    /// Compute and attach the Maxwell residual self-check.
    pub with_residual: bool,
    /// Additionally emit one sample per density whose source is the
    /// *adjoint* excitation of the device objective (a line source at the
    /// output ports). Neural solvers that must answer adjoint queries
    /// during inverse design (§IV-D) need these in their training
    /// distribution — a forward-only dataset leaves the adjoint solve
    /// out of distribution.
    pub with_adjoint_source_samples: bool,
}

impl Default for GenerateConfig {
    fn default() -> Self {
        GenerateConfig {
            fidelity: Fidelity::High,
            with_adjoint: true,
            with_residual: true,
            with_adjoint_source_samples: false,
        }
    }
}

/// Errors from label generation.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum GenerateError {
    /// A port guided no eigenmode.
    Mode(ModeError),
    /// A field solve failed.
    Solve(maps_core::SolveFieldError),
}

impl std::fmt::Display for GenerateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GenerateError::Mode(e) => write!(f, "mode solver: {e}"),
            GenerateError::Solve(e) => write!(f, "field solver: {e}"),
        }
    }
}

impl std::error::Error for GenerateError {}

impl From<ModeError> for GenerateError {
    fn from(e: ModeError) -> Self {
        GenerateError::Mode(e)
    }
}

impl From<maps_core::SolveFieldError> for GenerateError {
    fn from(e: maps_core::SolveFieldError) -> Self {
        GenerateError::Solve(e)
    }
}

/// Simulates one density under one source variant and extracts rich labels.
///
/// Delegates to [`crate::resilient::label_sample_with`] with the exact FDFD
/// solver, so the sample's forward and adjoint solves flow through the
/// batched solve plane (grouped substitution sweeps against one cached
/// factorization per density and frequency).
///
/// # Errors
///
/// Returns [`GenerateError`] when mode solving or the field solve fails.
pub fn label_sample(
    device: &DeviceSpec,
    density: &Patch,
    variant: &SourceVariant,
    config: &GenerateConfig,
    sample_index: usize,
) -> Result<Sample, GenerateError> {
    let solver = FdfdSolver::with_pml(maps_fdfd::PmlConfig::auto(device.grid().dl));
    crate::resilient::label_sample_with(&solver, device, density, variant, config, sample_index)
}

/// Paints a design density into the device's design window.
pub fn paint_density(eps: &mut RealField2d, device: &DeviceSpec, density: &Patch) {
    let (ox, oy) = device.problem.design_origin;
    let p = &device.problem;
    for py in 0..density.ny() {
        for px in 0..density.nx() {
            let v = p.eps_min + (p.eps_max - p.eps_min) * density.get(px, py);
            eps.set(ox + px, oy + py, v);
        }
    }
}

pub(crate) fn build_objective(
    device: &DeviceSpec,
    eps: &RealField2d,
    omega: f64,
) -> Result<PowerObjective, ModeError> {
    let mut obj = PowerObjective::new();
    for term in &device.problem.terms {
        let monitor = ModeMonitor::new(eps, &term.port, omega)?;
        obj = obj.with_term(
            monitor.outgoing_functional(),
            term.weight / device.problem.normalization,
        );
    }
    Ok(obj)
}

/// Simulates the *adjoint excitation* of a density: the source is the
/// device objective's adjoint right-hand side (converted to an equivalent
/// current via `J = i·rhs/ω`), and the recorded field is its forward
/// solution — which, by the interior reciprocity of the SC-PML operator,
/// equals the true adjoint field where gradients are consumed.
///
/// The emitted sample shares the `device_id` of the corresponding forward
/// sample so device-level splits keep the pair together.
///
/// # Errors
///
/// Returns [`GenerateError`] when mode solving or a field solve fails.
pub fn adjoint_source_sample(
    device: &DeviceSpec,
    density: &Patch,
    variant: &SourceVariant,
    config: &GenerateConfig,
    sample_index: usize,
) -> Result<Sample, GenerateError> {
    let solver = FdfdSolver::with_pml(maps_fdfd::PmlConfig::auto(device.grid().dl));
    crate::resilient::adjoint_source_sample_with(
        &solver,
        device,
        density,
        variant,
        config,
        sample_index,
    )
}

/// Labels a batch of densities in parallel (every source variant of the
/// device is applied to every density; adjoint-source samples are appended
/// when configured).
///
/// Densities are striped across worker threads, each labelling its
/// density's jobs through the same per-density runner as
/// [`label_batch_resilient_par`](crate::resilient::label_batch_resilient_par),
/// so the label and adjoint-source sample of one (density, variant) share
/// one forward solve.
///
/// # Errors
///
/// Returns the first [`GenerateError`] in job order.
pub fn label_batch(
    device: &DeviceSpec,
    densities: &[Patch],
    config: &GenerateConfig,
) -> Result<Vec<Sample>, GenerateError> {
    let kinds = 1 + usize::from(config.with_adjoint_source_samples);
    let fidelity = match config.fidelity {
        Fidelity::Low => "low",
        Fidelity::High => "high",
    };
    let span = maps_obs::span("data.label_batch")
        .field("jobs", densities.len() * device.variants.len() * kinds)
        .field("fidelity", fidelity);
    let solver = FdfdSolver::with_pml(maps_fdfd::PmlConfig::auto(device.grid().dl));
    let samples = crate::resilient::density_jobs_par(&solver, device, densities, config)
        .into_iter()
        .map(JobOutcome::into_result)
        .collect::<Result<Vec<Sample>, GenerateError>>()?;
    let elapsed = span.elapsed().as_secs_f64();
    maps_obs::counter(&format!("data.samples.{fidelity}")).add(samples.len() as u64);
    if elapsed > 0.0 {
        maps_obs::histogram(&format!("data.samples_per_sec.{fidelity}"))
            .record(samples.len() as f64 / elapsed);
    }
    maps_obs::info!(
        "labeled {} {fidelity}-fidelity samples in {elapsed:.2}s",
        samples.len()
    );
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{DeviceKind, DeviceResolution};
    use maps_invdes::InitStrategy;

    #[test]
    fn labels_are_physically_consistent() {
        let mut dev = DeviceKind::Bending.build(DeviceResolution::low());
        dev.problem.calibrate(&FdfdSolver::new()).unwrap();
        let density = InitStrategy::TransmissionStrip {
            background: 0.0,
            strip: 1.0,
            half_height_frac: 0.25,
        }
        .build(dev.problem.design_size.0, dev.problem.design_size.1);
        let sample = label_sample(
            &dev,
            &density,
            &dev.variants[0],
            &GenerateConfig::default(),
            0,
        )
        .unwrap();
        // The solve satisfies Maxwell.
        assert!(sample.labels.maxwell_residual < 1e-9);
        // Powers are non-negative and bounded (normalized by injection).
        assert!(sample.labels.reflection >= 0.0);
        for t in &sample.labels.transmissions {
            assert!(t.power >= 0.0);
        }
        // Adjoint gradient attached and sized like the design window.
        let g = sample.labels.adjoint_gradient.as_ref().unwrap();
        assert_eq!(
            (g.grid().nx, g.grid().ny),
            (dev.problem.design_size.0, dev.problem.design_size.1)
        );
        assert!(g.as_slice().iter().any(|v| *v != 0.0));
    }

    #[test]
    fn batch_covers_all_variants() {
        let dev = DeviceKind::Wdm.build(DeviceResolution::low());
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
            with_residual: false,
            ..Default::default()
        };
        let samples = label_batch(&dev, &densities, &cfg).unwrap();
        // 2 densities × 2 wavelengths.
        assert_eq!(samples.len(), 4);
        let wavelengths: std::collections::HashSet<u64> = samples
            .iter()
            .map(|s| (s.labels.wavelength * 1000.0) as u64)
            .collect();
        assert_eq!(wavelengths.len(), 2);
    }

    #[test]
    fn adjoint_source_samples_are_valid_forward_problems() {
        let dev = DeviceKind::Bending.build(DeviceResolution::low());
        let density =
            maps_invdes::Patch::constant(dev.problem.design_size.0, dev.problem.design_size.1, 0.6);
        let cfg = GenerateConfig {
            with_adjoint: false,
            with_residual: true,
            with_adjoint_source_samples: true,
            ..Default::default()
        };
        let samples = label_batch(&dev, &[density], &cfg).unwrap();
        // One forward + one adjoint-excitation sample.
        assert_eq!(samples.len(), 2);
        let fwd = &samples[0];
        let adj = &samples[1];
        assert_eq!(fwd.device_id, adj.device_id, "pair shares the device id");
        // The adjoint sample's field satisfies Maxwell for its own source.
        assert!(
            adj.labels.maxwell_residual < 1e-9,
            "residual {}",
            adj.labels.maxwell_residual
        );
        // Its source is a line excitation at the objective port, not the
        // input mode source.
        assert!(fwd.source != adj.source);
        assert!(adj.source.norm() > 0.0);
    }

    #[test]
    fn tos_states_change_fields() {
        let dev = DeviceKind::Tos.build(DeviceResolution::low());
        let density =
            maps_invdes::Patch::constant(dev.problem.design_size.0, dev.problem.design_size.1, 1.0);
        let cfg = GenerateConfig {
            with_adjoint: false,
            with_residual: false,
            ..Default::default()
        };
        let cold = label_sample(&dev, &density, &dev.variants[0], &cfg, 0).unwrap();
        let hot = label_sample(&dev, &density, &dev.variants[1], &cfg, 0).unwrap();
        let dist = cold
            .labels
            .fields
            .ez
            .normalized_l2_distance(&hot.labels.fields.ez);
        assert!(dist > 0.01, "heater state should alter the field: {dist}");
    }
}
