//! Shared harness utilities for the table/figure reproduction benches.
//!
//! Every table and figure of the MAPS paper's evaluation section has a
//! `[[bench]]` target in this crate; the helpers here build datasets, train
//! the reference models, and compute the paper's standardized metrics so
//! each bench prints rows in the same format as the paper.

use maps_core::{RealField2d, Sample};
use maps_data::{
    label_batch, sample_densities, DeviceKind, DeviceResolution, DeviceSpec, GenerateConfig,
    SamplerConfig, SamplingStrategy,
};
use maps_fdfd::{FdfdSolver, PmlConfig};
use maps_nn::{
    Ffno, FfnoConfig, Fno, FnoConfig, Model, NeurOLight, NeurOLightConfig, UNet, UNetConfig,
};
use maps_tensor::Params;
use maps_train::{
    evaluate_n_l2, fwd_adj_field_gradient, gradient_similarity, train_field_model, FieldNormalizer,
    LoaderConfig, NeuralFieldSolver, TrainConfig,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The four field-predicting reference baselines of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Baseline {
    /// Fourier Neural Operator.
    Fno,
    /// Factorized FNO.
    Ffno,
    /// UNet.
    UNet,
    /// NeurOLight.
    NeurOLight,
}

impl Baseline {
    /// All baselines in the paper's row order.
    pub fn all() -> [Baseline; 4] {
        [
            Baseline::Fno,
            Baseline::Ffno,
            Baseline::UNet,
            Baseline::NeurOLight,
        ]
    }

    /// Paper-style row label.
    pub fn label(&self) -> &'static str {
        match self {
            Baseline::Fno => "FNO [6]",
            Baseline::Ffno => "F-FNO [7]",
            Baseline::UNet => "UNet [8]",
            Baseline::NeurOLight => "NeurOLight [10]",
        }
    }

    /// Builds the model with a standard small benchmark configuration.
    pub fn build(&self, params: &mut Params, seed: u64, width: usize) -> Box<dyn Model> {
        let mut rng = StdRng::seed_from_u64(seed);
        match self {
            Baseline::Fno => Box::new(Fno::new(
                params,
                &mut rng,
                FnoConfig {
                    in_channels: 4,
                    out_channels: 2,
                    width,
                    modes: 6,
                    depth: 3,
                },
            )),
            Baseline::Ffno => Box::new(Ffno::new(
                params,
                &mut rng,
                FfnoConfig {
                    in_channels: 4,
                    out_channels: 2,
                    width,
                    modes: 6,
                    depth: 3,
                },
            )),
            Baseline::UNet => Box::new(UNet::new(
                params,
                &mut rng,
                UNetConfig {
                    in_channels: 4,
                    out_channels: 2,
                    width,
                },
            )),
            Baseline::NeurOLight => Box::new(NeurOLight::new(
                params,
                &mut rng,
                NeurOLightConfig {
                    in_channels: 6,
                    out_channels: 2,
                    width,
                    modes: 6,
                    depth: 3,
                },
            )),
        }
    }
}

/// A calibrated benchmark device plus its train/test sample sets.
pub struct BenchDataset {
    /// The device (calibrated).
    pub device: DeviceSpec,
    /// Training samples.
    pub train: Vec<Sample>,
    /// Held-out samples drawn from the realistic (trajectory) distribution.
    pub test: Vec<Sample>,
}

/// Builds a calibrated low-fidelity device.
pub fn calibrated_device(kind: DeviceKind) -> DeviceSpec {
    let mut device = kind.build(DeviceResolution::low());
    let solver = FdfdSolver::with_pml(PmlConfig::auto(device.grid().dl));
    device
        .problem
        .calibrate(&solver)
        .expect("device calibration");
    device
}

/// Generates a train/test dataset pair for a device.
///
/// Training densities come from `strategy`; test densities always come from
/// the *perturbed trajectory* distribution (a different seed), matching the
/// paper's premise that an inverse designer queries trajectory-like
/// structures at test time.
pub fn build_dataset(
    device: &DeviceSpec,
    strategy: SamplingStrategy,
    train_count: usize,
    test_count: usize,
    seed: u64,
) -> BenchDataset {
    let train_densities = sample_densities(
        strategy,
        device,
        &SamplerConfig {
            count: train_count,
            seed,
            trajectory_iterations: 18,
            perturbation: 0.25,
        },
    )
    .expect("train sampling");
    let test_densities = sample_densities(
        SamplingStrategy::PerturbedOptTraj,
        device,
        &SamplerConfig {
            count: test_count,
            seed: seed.wrapping_add(1000),
            trajectory_iterations: 18,
            perturbation: 0.25,
        },
    )
    .expect("test sampling");
    // Training data includes adjoint-excitation samples so neural solvers
    // can answer the adjoint queries of inverse design; the test set stays
    // forward-only (evaluation matches the paper's field-prediction task).
    let train_cfg = GenerateConfig {
        with_adjoint_source_samples: true,
        ..Default::default()
    };
    let test_cfg = GenerateConfig::default();
    let train = label_batch(device, &train_densities, &train_cfg).expect("train labels");
    let test = label_batch(device, &test_densities, &test_cfg).expect("test labels");
    BenchDataset {
        device: device.clone(),
        train,
        test,
    }
}

/// One trained model with everything needed for evaluation.
pub struct TrainedModel {
    /// The model.
    pub model: Box<dyn Model>,
    /// Its trained parameters.
    pub params: Params,
    /// Field normalizer fitted on the training set.
    pub normalizer: FieldNormalizer,
    /// Final training loss.
    pub final_loss: f64,
}

/// Trains a baseline on a dataset with standard benchmark settings.
pub fn train_baseline(
    baseline: Baseline,
    dataset: &BenchDataset,
    epochs: usize,
    width: usize,
    seed: u64,
) -> TrainedModel {
    let mut params = Params::new();
    let model = baseline.build(&mut params, seed, width);
    let report = train_field_model(
        model.as_ref(),
        &mut params,
        &dataset.train,
        &TrainConfig {
            epochs,
            learning_rate: 3e-3,
            loader: LoaderConfig {
                batch_size: 4,
                seed,
                wave_prior: false, // overridden by the trainer per model
                mixup: 0,
            },
            ..Default::default()
        },
    );
    TrainedModel {
        model,
        params,
        normalizer: report.normalizer,
        final_loss: report.final_loss(),
    }
}

/// The paper's three headline numbers for a trained model:
/// `(train N-L2, test N-L2, test gradient similarity)`.
pub struct EvalRow {
    /// Mean N-L2 field error on the training samples.
    pub train_nl2: f64,
    /// Mean N-L2 field error on the test samples.
    pub test_nl2: f64,
    /// Mean gradient cosine similarity (Fwd&Adj-Field method vs exact
    /// FDFD adjoint) on test samples carrying adjoint labels.
    pub grad_similarity: f64,
}

/// Evaluates a trained model on a dataset with the standardized metrics.
pub fn evaluate(trained: &TrainedModel, dataset: &BenchDataset) -> EvalRow {
    let train_nl2 = evaluate_n_l2(
        trained.model.as_ref(),
        &trained.params,
        &dataset.train,
        trained.normalizer,
    );
    let test_nl2 = evaluate_n_l2(
        trained.model.as_ref(),
        &trained.params,
        &dataset.test,
        trained.normalizer,
    );
    let grad_similarity = mean_grad_similarity(trained, dataset);
    EvalRow {
        train_nl2,
        test_nl2,
        grad_similarity,
    }
}

/// Mean gradient similarity of the Fwd&Adj-Field method over the test set.
pub fn mean_grad_similarity(trained: &TrainedModel, dataset: &BenchDataset) -> f64 {
    // Wrap the already-trained model in a solver without retraining.
    let solver =
        NeuralFieldSolver::new(&*trained.model, trained.params.clone(), trained.normalizer);
    let device = &dataset.device;
    let objective = device.problem.objective().expect("objective");
    let mut sims = Vec::new();
    for sample in &dataset.test {
        let Some(exact) = sample.labels.adjoint_gradient.as_ref() else {
            continue;
        };
        let omega = maps_core::omega_for_wavelength(sample.labels.wavelength);
        let Ok(grad) =
            fwd_adj_field_gradient(&solver, &sample.eps_r, &sample.source, omega, &objective)
        else {
            continue;
        };
        let patch = device.problem.gradient_to_patch(&grad);
        let grad_field = RealField2d::from_vec(exact.grid(), patch.as_slice().to_vec());
        sims.push(gradient_similarity(&grad_field, exact));
    }
    maps_train::mean(&sims)
}

/// ASCII histogram of values in `[0, 1]`.
pub fn ascii_histogram(values: &[f64], bins: usize) -> Vec<(String, usize)> {
    let mut counts = vec![0usize; bins];
    for &v in values {
        let b = ((v * bins as f64) as usize).min(bins - 1);
        counts[b] += 1;
    }
    counts
        .into_iter()
        .enumerate()
        .map(|(b, c)| {
            (
                format!(
                    "{:.2}-{:.2}",
                    b as f64 / bins as f64,
                    (b + 1) as f64 / bins as f64
                ),
                c,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_bins_cover_unit_interval() {
        let h = ascii_histogram(&[0.0, 0.05, 0.5, 0.99, 1.0], 10);
        assert_eq!(h.len(), 10);
        assert_eq!(h[0].1, 2);
        assert_eq!(h[5].1, 1);
        assert_eq!(h[9].1, 2); // 0.99 and the clamped 1.0
    }

    #[test]
    fn baselines_have_distinct_labels() {
        let labels: std::collections::HashSet<_> =
            Baseline::all().iter().map(|b| b.label()).collect();
        assert_eq!(labels.len(), 4);
    }
}
