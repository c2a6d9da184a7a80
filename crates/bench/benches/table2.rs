//! Table II reproduction: gradient-computation method comparison.
//!
//! For FNO and UNet field predictors trained on the perturbed-trajectory
//! bending dataset, compares three ways of obtaining the design gradient:
//!
//! * **AD-Black Box** — autodiff through a scalar-response CNN,
//! * **AD-Pred Field** — autodiff through field predictor + objective,
//! * **Fwd & Adj Field** — analytic gradient from NN forward + adjoint
//!   fields,
//!
//! each scored by cosine similarity against the exact FDFD adjoint
//! gradient. Expected shape (paper Table II): Fwd & Adj Field wins by a
//! wide margin.

use maps_bench::{build_dataset, calibrated_device, train_baseline, Baseline, TrainedModel};
use maps_core::{FieldSolver, RealField2d};
use maps_data::{DeviceKind, SamplingStrategy};
use maps_nn::{Adam, BlackBoxConfig, BlackBoxNet, Model};
use maps_tensor::{Params, Tensor};
use maps_train::{
    ad_black_box_gradient, ad_pred_field_gradient, encode_input, fwd_adj_field_gradient,
    gradient_similarity, mean, NeuralFieldSolver,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Trains a black-box transmission regressor on the dataset's samples.
fn train_black_box(
    dataset: &maps_bench::BenchDataset,
    epochs: usize,
    seed: u64,
) -> (BlackBoxNet, Params) {
    let mut params = Params::new();
    let mut rng = StdRng::seed_from_u64(seed);
    let model = BlackBoxNet::new(
        &mut params,
        &mut rng,
        BlackBoxConfig {
            in_channels: 4,
            width: 8,
            stages: 2,
        },
    );
    let mut adam = Adam::new(2e-3);
    for _ in 0..epochs {
        for sample in &dataset.train {
            let omega = maps_core::omega_for_wavelength(sample.labels.wavelength);
            let input = encode_input(&sample.eps_r, &sample.source, omega, false);
            let target = sample.labels.total_transmission();
            let y = model.forward(&params, input.trace());
            let loss = y.mse(Tensor::from_vec(&[1, 1], vec![target]));
            let grads = loss.backward();
            adam.step(&mut params, &grads);
        }
    }
    (model, params)
}

struct MethodScores {
    black_box: f64,
    pred_field: f64,
    fwd_adj: f64,
}

fn score_methods(
    trained: &TrainedModel,
    blackbox: &(BlackBoxNet, Params),
    dataset: &maps_bench::BenchDataset,
) -> MethodScores {
    let device = &dataset.device;
    let objective = device.problem.objective().expect("objective");
    // Use the first objective term's functional for the AD-Pred-Field path.
    let monitor = maps_fdfd::ModeMonitor::new(
        &device.problem.base_eps,
        &device.problem.terms[0].port,
        device.problem.omega(),
    )
    .expect("monitor");
    let functional = monitor.outgoing_functional();

    let solver =
        NeuralFieldSolver::new(&*trained.model, trained.params.clone(), trained.normalizer);

    let (mut s_bb, mut s_pf, mut s_fa) = (Vec::new(), Vec::new(), Vec::new());
    for sample in &dataset.test {
        let Some(exact) = sample.labels.adjoint_gradient.as_ref() else {
            continue;
        };
        let omega = maps_core::omega_for_wavelength(sample.labels.wavelength);
        let to_patch = |g: &RealField2d| -> RealField2d {
            let p = device.problem.gradient_to_patch(g);
            RealField2d::from_vec(exact.grid(), p.as_slice().to_vec())
        };
        let g_bb = ad_black_box_gradient(
            &blackbox.0,
            &blackbox.1,
            &sample.eps_r,
            &sample.source,
            omega,
        );
        s_bb.push(gradient_similarity(&to_patch(&g_bb), exact));
        let g_pf = ad_pred_field_gradient(
            trained.model.as_ref(),
            &trained.params,
            &sample.eps_r,
            &sample.source,
            omega,
            &functional,
        );
        s_pf.push(gradient_similarity(&to_patch(&g_pf), exact));
        if let Ok(g_fa) =
            fwd_adj_field_gradient(&solver, &sample.eps_r, &sample.source, omega, &objective)
        {
            s_fa.push(gradient_similarity(&to_patch(&g_fa), exact));
        }
    }
    // Sanity: the neural solver trait path still works (not used further).
    let _ = solver.name();
    MethodScores {
        black_box: mean(&s_bb),
        pred_field: mean(&s_pf),
        fwd_adj: mean(&s_fa),
    }
}

fn main() {
    let t0 = Instant::now();
    println!("=== Table II: gradient calculation methods (bending device) ===\n");
    let device = calibrated_device(DeviceKind::Bending);
    let dataset = build_dataset(&device, SamplingStrategy::PerturbedOptTraj, 32, 12, 21);
    println!(
        "{:>10} | {:>16} | {:>15}",
        "models", "Grad Method", "Grad Similarity"
    );
    println!("{}", "-".repeat(49));
    let mut summary = Vec::new();
    for baseline in [Baseline::Fno, Baseline::UNet] {
        let trained = train_baseline(baseline, &dataset, 14, 10, 3);
        let blackbox = train_black_box(&dataset, 15, 7);
        let scores = score_methods(&trained, &blackbox, &dataset);
        for (method, value) in [
            ("AD-Black Box", scores.black_box),
            ("AD-Pred Field", scores.pred_field),
            ("Fwd & Adj Field", scores.fwd_adj),
        ] {
            println!(
                "{:>10} | {:>16} | {:>15.4}",
                trained.model.name(),
                method,
                value
            );
        }
        summary.push((baseline, scores));
    }
    println!();
    for (baseline, scores) in &summary {
        let wins = scores.fwd_adj > scores.black_box && scores.fwd_adj > scores.pred_field;
        println!(
            "{:>10}: Fwd & Adj Field most accurate? {}",
            baseline.label(),
            if wins { "YES" } else { "no" }
        );
    }
    println!("\n[table2 completed in {:.1?}]", t0.elapsed());
}
