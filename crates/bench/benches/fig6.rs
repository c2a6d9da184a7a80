//! Figure 6 reproduction: neural-solver-driven inverse design.
//!
//! (a) Optimization trajectory driven purely by adjoint gradients computed
//!     from NN-predicted forward and adjoint fields, with FDFD-verified
//!     transmission at every iteration.
//! (b) Field of the final design: NN prediction vs FDFD ground truth.
//!
//! Expected shape: the NN-driven trajectory converges to a high-transmission
//! structure confirmed by FDFD, and the NN/FDFD curves track each other.

use maps_bench::{build_dataset, calibrated_device, train_baseline, Baseline};
use maps_core::FieldSolver;
use maps_data::{DeviceKind, SamplingStrategy};
use maps_fdfd::{FdfdSolver, PmlConfig};
use maps_invdes::{FieldGradient, InitStrategy, InverseDesigner, OptimConfig};
use maps_train::NeuralFieldSolver;
use std::time::Instant;

fn main() {
    let t0 = Instant::now();
    println!("=== Figure 6: NN-driven inverse design with FDFD verification ===\n");
    let device = calibrated_device(DeviceKind::Bending);
    let fdfd = FdfdSolver::with_pml(PmlConfig::auto(device.grid().dl));

    // Train the surrogate on trajectory data.
    let dataset = build_dataset(&device, SamplingStrategy::PerturbedOptTraj, 32, 6, 41);
    let trained = train_baseline(Baseline::Fno, &dataset, 24, 12, 3);
    println!("surrogate trained (final loss {:.4})\n", trained.final_loss);
    let neural =
        NeuralFieldSolver::new(&*trained.model, trained.params.clone(), trained.normalizer);

    let problem = device.problem.clone();
    let source = problem.source().expect("source");
    let objective = problem.objective().expect("objective");
    let omega = problem.omega();

    let designer = InverseDesigner::new(OptimConfig {
        iterations: 20,
        learning_rate: 0.12,
        beta_start: 1.5,
        beta_growth: 1.12,
        filter_radius: 1.5,
        symmetry: None,
        litho: None,
        init: InitStrategy::Uniform(0.5),
        ..OptimConfig::default()
    });
    let neural_grad = FieldGradient::new(&neural);

    println!("--- (a) optimization trajectory ---");
    println!("iter | NN-predicted T | FDFD-verified T");
    let mut pairs = Vec::new();
    let result = designer
        .run_with_callback(&problem, &neural_grad, |rec, density, _| {
            let eps = problem.eps_for(density);
            let true_field = fdfd.solve_ez(&eps, &source, omega).expect("fdfd verify");
            let true_t = objective.eval(&true_field);
            println!(
                "{:4} |         {:.4} |          {:.4}",
                rec.iteration, rec.objective, true_t
            );
            pairs.push((rec.objective, true_t));
        })
        .expect("optimization");

    println!("\n--- (b) final design field fidelity ---");
    let eps = problem.eps_for(&result.density);
    let nn_field = neural.solve_ez(&eps, &source, omega).expect("nn field");
    let fdfd_field = fdfd.solve_ez(&eps, &source, omega).expect("fdfd field");
    let nl2 = nn_field.normalized_l2_distance(&fdfd_field);
    println!("final-design field N-L2 (NN vs FDFD): {nl2:.4}");

    let first_true = pairs.first().expect("history").1;
    let best_true = pairs.iter().map(|p| p.1).fold(f64::NEG_INFINITY, f64::max);
    println!("FDFD-verified transmission: {first_true:.4} -> {best_true:.4}");
    println!(
        "NN-driven optimization reached a high-transmission design? {}",
        if best_true > first_true * 2.0 && best_true > 0.3 {
            "YES"
        } else {
            "no"
        }
    );
    // Trajectory correlation between NN-predicted and verified curves.
    let corr = {
        let xs: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        let ys: Vec<f64> = pairs.iter().map(|p| p.1).collect();
        let mx = xs.iter().sum::<f64>() / xs.len() as f64;
        let my = ys.iter().sum::<f64>() / ys.len() as f64;
        let cov: f64 = xs.iter().zip(&ys).map(|(x, y)| (x - mx) * (y - my)).sum();
        let vx: f64 = xs.iter().map(|x| (x - mx) * (x - mx)).sum();
        let vy: f64 = ys.iter().map(|y| (y - my) * (y - my)).sum();
        cov / (vx.sqrt() * vy.sqrt()).max(1e-30)
    };
    println!("NN-predicted vs FDFD-verified trajectory correlation: {corr:.3}");
    println!("\n[fig6 completed in {:.1?}]", t0.elapsed());
}
