//! Property-based tests of the model zoo.

use maps_nn::{
    BlackBoxConfig, BlackBoxNet, Ffno, FfnoConfig, Fno, FnoConfig, Model, NeurOLight,
    NeurOLightConfig, UNet, UNetConfig,
};
use maps_tensor::{tape_nodes_recorded, Params, Tensor};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Every baseline maps [N, Cin, H, W] → [N, 2, H, W] for sizes the UNet
    /// supports (multiples of 4).
    #[test]
    fn models_preserve_spatial_shape(
        n in 1usize..3,
        h4 in 2usize..5,
        w4 in 2usize..5,
        seed in 0u64..50,
    ) {
        let (h, w) = (h4 * 4, w4 * 4);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut params = Params::new();
        let models: Vec<Box<dyn Model>> = vec![
            Box::new(Fno::new(&mut params, &mut rng, FnoConfig {
                in_channels: 4, out_channels: 2, width: 4, modes: 2, depth: 1,
            })),
            Box::new(Ffno::new(&mut params, &mut rng, FfnoConfig {
                in_channels: 4, out_channels: 2, width: 4, modes: 2, depth: 1,
            })),
            Box::new(UNet::new(&mut params, &mut rng, UNetConfig {
                in_channels: 4, out_channels: 2, width: 2,
            })),
            Box::new(NeurOLight::new(&mut params, &mut rng, NeurOLightConfig {
                in_channels: 6, out_channels: 2, width: 4, modes: 2, depth: 1,
            })),
        ];
        for model in &models {
            let x = Tensor::zeros(&[n, model.in_channels(), h, w]);
            let y = model.infer(&params, x);
            prop_assert_eq!(y.shape(), &[n, 2, h, w], "{}", model.name());
        }
    }

    /// Model outputs are deterministic functions of input and parameters.
    #[test]
    fn forward_is_deterministic(seed in 0u64..100) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut params = Params::new();
        let model = Fno::new(&mut params, &mut rng, FnoConfig {
            in_channels: 2, out_channels: 1, width: 4, modes: 2, depth: 2,
        });
        let x = Tensor::from_vec(
            &[1, 2, 8, 8],
            (0..128).map(|k| ((k * 31 % 23) as f64 - 11.0) * 0.1).collect(),
        );
        let y1 = model.infer(&params, x.clone());
        let y2 = model.infer(&params, x);
        prop_assert_eq!(y1.as_slice(), y2.as_slice());
    }

    /// Batch independence: processing two samples in a batch equals
    /// processing them separately (no cross-batch leakage).
    #[test]
    fn batch_independence(seed in 0u64..50) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut params = Params::new();
        let model = Fno::new(&mut params, &mut rng, FnoConfig {
            in_channels: 1, out_channels: 1, width: 4, modes: 2, depth: 1,
        });
        let a = Tensor::from_vec(&[1, 1, 8, 8], (0..64).map(|k| (k as f64 * 0.1).sin()).collect());
        let b = Tensor::from_vec(&[1, 1, 8, 8], (0..64).map(|k| (k as f64 * 0.2).cos()).collect());
        let mut batch = Tensor::zeros(&[2, 1, 8, 8]);
        batch.as_mut_slice()[..64].copy_from_slice(a.as_slice());
        batch.as_mut_slice()[64..].copy_from_slice(b.as_slice());
        let y_batch = model.infer(&params, batch);
        let ya = model.infer(&params, a);
        let yb = model.infer(&params, b);
        for (k, v) in ya.as_slice().iter().enumerate() {
            prop_assert!((y_batch.as_slice()[k] - v).abs() < 1e-10);
        }
        for (k, v) in yb.as_slice().iter().enumerate() {
            prop_assert!((y_batch.as_slice()[64 + k] - v).abs() < 1e-10);
        }
    }

    /// Model inference through the `Model` trait records zero tape nodes
    /// and returns exactly the taped forward's values, bit for bit, for
    /// every model in the zoo.
    #[test]
    fn model_inference_is_tape_free(seed in 0u64..20) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut params = Params::new();
        let models: Vec<Box<dyn Model>> = vec![
            Box::new(Fno::new(&mut params, &mut rng, FnoConfig {
                in_channels: 4, out_channels: 2, width: 4, modes: 2, depth: 2,
            })),
            Box::new(Ffno::new(&mut params, &mut rng, FfnoConfig {
                in_channels: 4, out_channels: 2, width: 4, modes: 2, depth: 2,
            })),
            Box::new(UNet::new(&mut params, &mut rng, UNetConfig {
                in_channels: 4, out_channels: 2, width: 2,
            })),
            Box::new(NeurOLight::new(&mut params, &mut rng, NeurOLightConfig {
                in_channels: 6, out_channels: 2, width: 4, modes: 2, depth: 2,
            })),
            Box::new(BlackBoxNet::new(&mut params, &mut rng, BlackBoxConfig {
                in_channels: 4, width: 4, stages: 2,
            })),
        ];
        for model in &models {
            let shape = [2, model.in_channels(), 16, 12];
            let len = shape.iter().product::<usize>();
            let x = Tensor::from_vec(
                &shape,
                (0..len).map(|k| (k as f64 * 0.07 + seed as f64).sin()).collect(),
            );
            let taped = model.forward(&params, x.trace()).no_tape();
            let before = tape_nodes_recorded();
            let plain = model.infer(&params, x);
            prop_assert_eq!(tape_nodes_recorded(), before, "{}", model.name());
            prop_assert_eq!(plain.shape(), taped.shape(), "{}", model.name());
            let mismatched = plain
                .as_slice()
                .iter()
                .zip(taped.as_slice())
                .filter(|(a, b)| a.to_bits() != b.to_bits())
                .count();
            prop_assert_eq!(mismatched, 0, "{}: infer differs from forward", model.name());
        }
    }
}
