//! Factorized Fourier Neural Operator (Tran et al., ICLR 2023).
//!
//! Each block applies two axis-factorized spectral convolutions (one
//! retaining only row modes, one retaining only column modes), sums them,
//! and feeds the result through a pointwise two-layer MLP with a residual
//! connection — far fewer spectral parameters than a full 2-D FNO block.

use crate::layers::{Conv2d, SpectralConv2d};
use crate::model::Model;
use maps_tensor::{Conv2dSpec, Params, Tape, Tensor};
use rand::Rng;

/// Configuration of the [`Ffno`] baseline.
#[derive(Debug, Clone, Copy)]
pub struct FfnoConfig {
    /// Input feature channels.
    pub in_channels: usize,
    /// Output channels.
    pub out_channels: usize,
    /// Hidden width.
    pub width: usize,
    /// Retained Fourier modes along the factorized axis.
    pub modes: usize,
    /// Number of factorized blocks.
    pub depth: usize,
}

impl Default for FfnoConfig {
    fn default() -> Self {
        FfnoConfig {
            in_channels: 4,
            out_channels: 2,
            width: 12,
            modes: 6,
            depth: 4,
        }
    }
}

struct FfnoBlock {
    spec_h: SpectralConv2d,
    spec_w: SpectralConv2d,
    mlp1: Conv2d,
    mlp2: Conv2d,
}

/// The Factorized-FNO baseline.
pub struct Ffno {
    config: FfnoConfig,
    lift: Conv2d,
    blocks: Vec<FfnoBlock>,
    proj: Conv2d,
}

impl Ffno {
    /// Allocates the model's parameters.
    pub fn new(params: &mut Params, rng: &mut impl Rng, config: FfnoConfig) -> Self {
        let pw = Conv2dSpec {
            padding: 0,
            stride: 1,
        };
        let lift = Conv2d::new(params, rng, config.in_channels, config.width, 1, pw);
        let blocks = (0..config.depth)
            .map(|_| FfnoBlock {
                // Row-factorized: full mode budget along H, minimal along W.
                spec_h: SpectralConv2d::new(
                    params,
                    rng,
                    config.width,
                    config.width,
                    config.modes,
                    1,
                ),
                // Column-factorized: minimal along H, full along W.
                spec_w: SpectralConv2d::new(
                    params,
                    rng,
                    config.width,
                    config.width,
                    1,
                    config.modes,
                ),
                mlp1: Conv2d::new(params, rng, config.width, config.width, 1, pw),
                mlp2: Conv2d::new(params, rng, config.width, config.width, 1, pw),
            })
            .collect();
        let proj = Conv2d::new(params, rng, config.width, config.out_channels, 1, pw);
        Ffno {
            config,
            lift,
            blocks,
            proj,
        }
    }

    fn fwd<T: Tape>(&self, params: &Params, x: Tensor<f64, T>) -> Tensor<f64, T> {
        let mut h = self.lift.forward(params, x);
        for block in &self.blocks {
            let sh = block.spec_h.forward(params, h.with_empty_tape());
            let sw = block.spec_w.forward(params, h.with_empty_tape());
            let s = sh.add(sw);
            let m = block.mlp1.forward(params, s).gelu();
            let m = block.mlp2.forward(params, m);
            h = h.add(m); // residual
        }
        self.proj.forward(params, h)
    }
}

impl Model for Ffno {
    crate::impl_model_forward!();

    fn in_channels(&self) -> usize {
        self.config.in_channels
    }

    fn name(&self) -> &str {
        "F-FNO"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maps_tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn forward_shape() {
        let mut params = Params::new();
        let mut rng = StdRng::seed_from_u64(0);
        let model = Ffno::new(
            &mut params,
            &mut rng,
            FfnoConfig {
                in_channels: 4,
                out_channels: 2,
                width: 6,
                modes: 3,
                depth: 2,
            },
        );
        let y = model.infer(&params, Tensor::zeros(&[1, 4, 16, 16]));
        assert_eq!(y.shape(), &[1, 2, 16, 16]);
    }

    #[test]
    fn factorized_has_fewer_params_than_full_fno() {
        let mut p1 = Params::new();
        let mut rng = StdRng::seed_from_u64(1);
        let cfg = FfnoConfig {
            in_channels: 4,
            out_channels: 2,
            width: 8,
            modes: 4,
            depth: 3,
        };
        let _ = Ffno::new(&mut p1, &mut rng, cfg);
        let mut p2 = Params::new();
        let _ = crate::fno::Fno::new(
            &mut p2,
            &mut rng,
            crate::fno::FnoConfig {
                in_channels: 4,
                out_channels: 2,
                width: 8,
                modes: 4,
                depth: 3,
            },
        );
        assert!(
            p1.total_elements() < p2.total_elements(),
            "F-FNO {} should be smaller than FNO {}",
            p1.total_elements(),
            p2.total_elements()
        );
    }
}
