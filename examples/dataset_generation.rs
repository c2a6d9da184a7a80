//! MAPS-Data walkthrough: draw design densities with the three sampling
//! strategies, simulate them with rich labels at two fidelity levels, split
//! at the device level, and write the dataset to JSON.
//!
//! ```text
//! cargo run --release --example dataset_generation
//! ```

use maps::core::Fidelity;
use maps::data::{
    label_batch, paired_devices, richardson, sample_densities, Dataset, DeviceKind, GenerateConfig,
    SamplerConfig, SamplingStrategy,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (low_dev, mut high_dev) = paired_devices(DeviceKind::Bending);
    let mut low_dev = low_dev;
    for (dev, label) in [(&mut low_dev, "low"), (&mut high_dev, "high")] {
        let solver = maps::fdfd::FdfdSolver::with_pml(maps::fdfd::PmlConfig::auto(dev.grid().dl));
        let p = dev.problem.calibrate(&solver)?;
        println!("{label}-fidelity injected power: {p:.3e}");
    }

    let config = SamplerConfig {
        count: 6,
        seed: 11,
        trajectory_iterations: 10,
        perturbation: 0.25,
    };

    let mut dataset = Dataset::new();
    for strategy in [
        SamplingStrategy::Random,
        SamplingStrategy::OptTraj,
        SamplingStrategy::PerturbedOptTraj,
    ] {
        let densities = sample_densities(strategy, &low_dev, &config)?;
        let samples = label_batch(
            &low_dev,
            &densities,
            &GenerateConfig {
                fidelity: Fidelity::Low,
                ..Default::default()
            },
        )?;
        let mean_t: f64 = samples
            .iter()
            .map(|s| s.labels.total_transmission())
            .sum::<f64>()
            / samples.len() as f64;
        println!(
            "{:18} {} samples, mean transmission {:.4}",
            strategy.name(),
            samples.len(),
            mean_t
        );
        dataset.extend(samples);
    }

    // Multi-fidelity pairing on one structure.
    let densities = sample_densities(SamplingStrategy::Random, &low_dev, &config)?;
    let low = label_batch(&low_dev, &densities[..1], &GenerateConfig::default())?;
    let high_densities = sample_densities(SamplingStrategy::Random, &high_dev, &config)?;
    let high = label_batch(&high_dev, &high_densities[..1], &GenerateConfig::default())?;
    let t_low = low[0].labels.total_transmission();
    let t_high = high[0].labels.total_transmission();
    println!(
        "fidelity pair: low {:.4}, high {:.4}, Richardson estimate {:.4}",
        t_low,
        t_high,
        richardson(t_low, t_high, 2.0)
    );

    // Device-level split and persistence.
    let (train, test) = dataset.split_by_device(0.75, 3);
    println!("split: {} train / {} test samples", train.len(), test.len());
    let path = std::env::temp_dir().join("maps_bending_dataset.json");
    dataset.save_json(&path)?;
    let reloaded = Dataset::load_json(&path)?;
    println!(
        "saved + reloaded {} samples at {}",
        reloaded.len(),
        path.display()
    );

    // Every sample's forward/adjoint solves went through the batched solve
    // plane; the factor cache amortizes one factorization per (density,
    // frequency).
    let metrics = maps::obs::global();
    let counter = |name: &str| metrics.counter_value(name).unwrap_or(0);
    println!(
        "batched plane: {} batches / {} requests; factor cache {} hits / {} misses",
        counter("fdfd.solve_batch.calls"),
        counter("fdfd.solve_batch.requests"),
        counter("fdfd.factor_cache.hit"),
        counter("fdfd.factor_cache.miss"),
    );
    Ok(())
}
