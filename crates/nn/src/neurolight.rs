//! NeurOLight (Gu et al., NeurIPS 2022): a physics-aware neural operator.
//!
//! Two ingredients distinguish it from a vanilla FNO here, following the
//! paper's description: (1) the input encoding carries a *wave prior* —
//! cos/sin of the accumulated optical path `ω·∫√ε·dx` — computed by the
//! MAPS-Train featurizer when [`Model::wants_wave_prior`] is set, and
//! (2) each block pairs the global spectral path with a local 3×3
//! convolution branch that restores high-frequency detail the mode-truncated
//! spectral kernel discards.

use crate::layers::{Conv2d, SpectralConv2d};
use crate::model::Model;
use maps_tensor::{Conv2dSpec, Params, Tape, Tensor};
use rand::Rng;

/// Configuration of the [`NeurOLight`] baseline.
#[derive(Debug, Clone, Copy)]
pub struct NeurOLightConfig {
    /// Input feature channels **including** the two wave-prior channels.
    pub in_channels: usize,
    /// Output channels.
    pub out_channels: usize,
    /// Hidden width.
    pub width: usize,
    /// Retained Fourier modes per dimension.
    pub modes: usize,
    /// Number of blocks.
    pub depth: usize,
}

impl Default for NeurOLightConfig {
    fn default() -> Self {
        NeurOLightConfig {
            in_channels: 6, // 4 standard + 2 wave-prior channels
            out_channels: 2,
            width: 12,
            modes: 6,
            depth: 4,
        }
    }
}

struct NolBlock {
    spectral: SpectralConv2d,
    local: Conv2d,
    bypass: Conv2d,
}

/// The NeurOLight baseline.
pub struct NeurOLight {
    config: NeurOLightConfig,
    lift: Conv2d,
    blocks: Vec<NolBlock>,
    proj1: Conv2d,
    proj2: Conv2d,
}

impl NeurOLight {
    /// Allocates the model's parameters.
    pub fn new(params: &mut Params, rng: &mut impl Rng, config: NeurOLightConfig) -> Self {
        let pw = Conv2dSpec {
            padding: 0,
            stride: 1,
        };
        let local_spec = Conv2dSpec {
            padding: 1,
            stride: 1,
        };
        let lift = Conv2d::new(params, rng, config.in_channels, config.width, 1, pw);
        let blocks = (0..config.depth)
            .map(|_| NolBlock {
                spectral: SpectralConv2d::new(
                    params,
                    rng,
                    config.width,
                    config.width,
                    config.modes,
                    config.modes,
                ),
                local: Conv2d::new(params, rng, config.width, config.width, 3, local_spec),
                bypass: Conv2d::new(params, rng, config.width, config.width, 1, pw),
            })
            .collect();
        let proj1 = Conv2d::new(params, rng, config.width, config.width, 1, pw);
        let proj2 = Conv2d::new(params, rng, config.width, config.out_channels, 1, pw);
        NeurOLight {
            config,
            lift,
            blocks,
            proj1,
            proj2,
        }
    }

    fn fwd<T: Tape>(&self, params: &Params, x: Tensor<f64, T>) -> Tensor<f64, T> {
        let mut h = self.lift.forward(params, x);
        for block in &self.blocks {
            let s = block.spectral.forward(params, h.with_empty_tape());
            let l = block.local.forward(params, h.with_empty_tape());
            let b = block.bypass.forward(params, h.with_empty_tape());
            let act = s.add(l).add(b).gelu();
            h = h.add(act); // residual keeps the wave prior flowing
        }
        let p = self.proj1.forward(params, h).gelu();
        self.proj2.forward(params, p)
    }
}

impl Model for NeurOLight {
    crate::impl_model_forward!();

    fn in_channels(&self) -> usize {
        self.config.in_channels
    }

    fn name(&self) -> &str {
        "NeurOLight"
    }

    fn wants_wave_prior(&self) -> bool {
        true
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
        let model = NeurOLight::new(
            &mut params,
            &mut rng,
            NeurOLightConfig {
                in_channels: 6,
                out_channels: 2,
                width: 4,
                modes: 2,
                depth: 2,
            },
        );
        let y = model.infer(&params, Tensor::zeros(&[1, 6, 16, 16]));
        assert_eq!(y.shape(), &[1, 2, 16, 16]);
        assert!(model.wants_wave_prior());
    }
}
