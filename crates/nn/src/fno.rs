//! Fourier Neural Operator (Li et al., ICLR 2021).

use crate::layers::{Conv2d, SpectralConv2d};
use crate::model::Model;
use maps_tensor::{Conv2dSpec, Params, Tape, Tensor};
use rand::Rng;

/// Configuration of the [`Fno`] baseline.
#[derive(Debug, Clone, Copy)]
pub struct FnoConfig {
    /// Input feature channels.
    pub in_channels: usize,
    /// Output channels (2 for an `Ez` phasor).
    pub out_channels: usize,
    /// Hidden width.
    pub width: usize,
    /// Retained Fourier modes per spatial dimension.
    pub modes: usize,
    /// Number of spectral layers.
    pub depth: usize,
}

impl Default for FnoConfig {
    fn default() -> Self {
        FnoConfig {
            in_channels: 4,
            out_channels: 2,
            width: 12,
            modes: 6,
            depth: 4,
        }
    }
}

/// The FNO baseline: pointwise lifting, `depth` spectral blocks with 1×1
/// convolution bypasses, and a two-layer pointwise projection head.
#[derive(Debug, Clone)]
pub struct Fno {
    config: FnoConfig,
    lift: Conv2d,
    blocks: Vec<(SpectralConv2d, Conv2d)>,
    proj1: Conv2d,
    proj2: Conv2d,
}

impl Fno {
    /// Allocates the model's parameters.
    pub fn new(params: &mut Params, rng: &mut impl Rng, config: FnoConfig) -> Self {
        let pw = Conv2dSpec {
            padding: 0,
            stride: 1,
        };
        let lift = Conv2d::new(params, rng, config.in_channels, config.width, 1, pw);
        let blocks = (0..config.depth)
            .map(|_| {
                (
                    SpectralConv2d::new(
                        params,
                        rng,
                        config.width,
                        config.width,
                        config.modes,
                        config.modes,
                    ),
                    Conv2d::new(params, rng, config.width, config.width, 1, pw),
                )
            })
            .collect();
        let proj1 = Conv2d::new(params, rng, config.width, config.width, 1, pw);
        let proj2 = Conv2d::new(params, rng, config.width, config.out_channels, 1, pw);
        Fno {
            config,
            lift,
            blocks,
            proj1,
            proj2,
        }
    }

    /// The configuration used at construction.
    pub fn config(&self) -> FnoConfig {
        self.config
    }

    fn fwd<T: Tape>(&self, params: &Params, x: Tensor<f64, T>) -> Tensor<f64, T> {
        let mut h = self.lift.forward(params, x);
        let depth = self.blocks.len();
        for (i, (spec, bypass)) in self.blocks.iter().enumerate() {
            // One branch takes an empty tape; the merge in `add` splices
            // both sub-graphs back together in sequence order.
            let s = spec.forward(params, h.with_empty_tape());
            let b = bypass.forward(params, h);
            let sum = b.add(s);
            h = if i + 1 < depth { sum.gelu() } else { sum };
        }
        let p = self.proj1.forward(params, h).gelu();
        self.proj2.forward(params, p)
    }
}

impl Model for Fno {
    crate::impl_model_forward!();

    fn in_channels(&self) -> usize {
        self.config.in_channels
    }

    fn name(&self) -> &str {
        "FNO"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn forward_shape() {
        let mut params = Params::new();
        let mut rng = StdRng::seed_from_u64(0);
        let model = Fno::new(
            &mut params,
            &mut rng,
            FnoConfig {
                in_channels: 4,
                out_channels: 2,
                width: 6,
                modes: 3,
                depth: 2,
            },
        );
        let y = model.infer(&params, Tensor::zeros(&[2, 4, 16, 16]));
        assert_eq!(y.shape(), &[2, 2, 16, 16]);
    }

    #[test]
    fn infer_matches_forward() {
        let mut params = Params::new();
        let mut rng = StdRng::seed_from_u64(7);
        let model = Fno::new(
            &mut params,
            &mut rng,
            FnoConfig {
                in_channels: 2,
                out_channels: 1,
                width: 4,
                modes: 2,
                depth: 2,
            },
        );
        let x = Tensor::from_vec(
            &[1, 2, 8, 8],
            (0..128).map(|k| (k as f64 * 0.13).sin()).collect(),
        );
        let taped = model.forward(&params, x.trace()).no_tape();
        let plain = model.infer(&params, x);
        assert_eq!(taped.as_slice(), plain.as_slice());
    }

    #[test]
    fn one_training_step_reduces_loss() {
        let mut params = Params::new();
        let mut rng = StdRng::seed_from_u64(1);
        let model = Fno::new(
            &mut params,
            &mut rng,
            FnoConfig {
                in_channels: 2,
                out_channels: 1,
                width: 4,
                modes: 2,
                depth: 2,
            },
        );
        let x_data = Tensor::from_vec(
            &[1, 2, 8, 8],
            (0..128)
                .map(|k| ((k * 13 % 7) as f64 - 3.0) * 0.1)
                .collect(),
        );
        let target = Tensor::from_vec(
            &[1, 1, 8, 8],
            (0..64).map(|k| (k as f64 * 0.1).sin()).collect(),
        );
        let eval = |params: &Params| -> (f64, Vec<(maps_tensor::ParamId, Tensor)>) {
            let loss = model.forward(params, x_data.trace()).mse(target.clone());
            let value = loss.item();
            let grads = loss.backward();
            (
                value,
                grads
                    .param_grads(params)
                    .map(|(i, g)| (i, g.clone()))
                    .collect(),
            )
        };
        let (l0, grads) = eval(&params);
        for (id, g) in grads {
            let p = params.get_mut(id);
            for (pv, gv) in p.as_mut_slice().iter_mut().zip(g.as_slice()) {
                *pv -= 0.05 * gv;
            }
        }
        let (l1, _) = eval(&params);
        assert!(l1 < l0, "FNO step should reduce loss: {l0} -> {l1}");
    }
}
