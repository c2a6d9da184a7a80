//! UNet (Ronneberger et al., MICCAI 2015) adapted to field regression.

use crate::layers::Conv2d;
use crate::model::Model;
use maps_tensor::{Conv2dSpec, Params, Tape, Tensor};
use rand::Rng;

/// Configuration of the [`UNet`] baseline.
#[derive(Debug, Clone, Copy)]
pub struct UNetConfig {
    /// Input feature channels.
    pub in_channels: usize,
    /// Output channels.
    pub out_channels: usize,
    /// Base width (doubled per encoder level).
    pub width: usize,
}

impl Default for UNetConfig {
    fn default() -> Self {
        UNetConfig {
            in_channels: 4,
            out_channels: 2,
            width: 8,
        }
    }
}

struct ConvBlock {
    c1: Conv2d,
    c2: Conv2d,
}

impl ConvBlock {
    fn new(params: &mut Params, rng: &mut impl Rng, cin: usize, cout: usize) -> Self {
        let spec = Conv2dSpec {
            padding: 1,
            stride: 1,
        };
        ConvBlock {
            c1: Conv2d::new(params, rng, cin, cout, 3, spec),
            c2: Conv2d::new(params, rng, cout, cout, 3, spec),
        }
    }

    fn forward<T: Tape>(&self, params: &Params, x: Tensor<f64, T>) -> Tensor<f64, T> {
        let h = self.c1.forward(params, x).gelu();
        self.c2.forward(params, h).gelu()
    }
}

/// A two-level encoder/decoder UNet with skip connections.
///
/// Input spatial extents must be divisible by 4.
pub struct UNet {
    config: UNetConfig,
    enc1: ConvBlock,
    enc2: ConvBlock,
    bottleneck: ConvBlock,
    dec2: ConvBlock,
    dec1: ConvBlock,
    head: Conv2d,
}

impl UNet {
    /// Allocates the model's parameters.
    pub fn new(params: &mut Params, rng: &mut impl Rng, config: UNetConfig) -> Self {
        let w = config.width;
        let enc1 = ConvBlock::new(params, rng, config.in_channels, w);
        let enc2 = ConvBlock::new(params, rng, w, 2 * w);
        let bottleneck = ConvBlock::new(params, rng, 2 * w, 4 * w);
        let dec2 = ConvBlock::new(params, rng, 4 * w + 2 * w, 2 * w);
        let dec1 = ConvBlock::new(params, rng, 2 * w + w, w);
        let head = Conv2d::new(
            params,
            rng,
            w,
            config.out_channels,
            1,
            Conv2dSpec {
                padding: 0,
                stride: 1,
            },
        );
        UNet {
            config,
            enc1,
            enc2,
            bottleneck,
            dec2,
            dec1,
            head,
        }
    }

    fn fwd<T: Tape>(&self, params: &Params, x: Tensor<f64, T>) -> Tensor<f64, T> {
        // Skip tensors keep empty tapes; the downstream concat merges each
        // encoder sub-graph back into the main tape exactly once.
        let e1 = self.enc1.forward(params, x);
        let p1 = e1.with_empty_tape().avg_pool2();
        let e2 = self.enc2.forward(params, p1);
        let b = self
            .bottleneck
            .forward(params, e2.with_empty_tape().avg_pool2());
        let d2 = self.dec2.forward(params, b.upsample2().concat_channels(e2));
        let d1 = self
            .dec1
            .forward(params, d2.upsample2().concat_channels(e1));
        self.head.forward(params, d1)
    }
}

impl Model for UNet {
    crate::impl_model_forward!();

    fn in_channels(&self) -> usize {
        self.config.in_channels
    }

    fn name(&self) -> &str {
        "UNet"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maps_tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn forward_shape_preserved() {
        let mut params = Params::new();
        let mut rng = StdRng::seed_from_u64(0);
        let model = UNet::new(
            &mut params,
            &mut rng,
            UNetConfig {
                in_channels: 4,
                out_channels: 2,
                width: 4,
            },
        );
        let y = model.infer(&params, Tensor::zeros(&[1, 4, 16, 24]));
        assert_eq!(y.shape(), &[1, 2, 16, 24]);
    }

    #[test]
    fn gradients_reach_every_parameter() {
        let mut params = Params::new();
        let mut rng = StdRng::seed_from_u64(3);
        let model = UNet::new(
            &mut params,
            &mut rng,
            UNetConfig {
                in_channels: 1,
                out_channels: 1,
                width: 2,
            },
        );
        let x = Tensor::from_vec(
            &[1, 1, 8, 8],
            (0..64).map(|k| (k as f64 * 0.2).sin()).collect(),
        );
        let loss = model.forward(&params, x.trace()).mean();
        let grads = loss.backward();
        let reached: std::collections::HashSet<_> =
            grads.param_grads(&params).map(|(id, _)| id).collect();
        assert_eq!(reached.len(), params.len(), "all parameters must get grads");
    }
}
