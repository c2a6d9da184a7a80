//! A black-box response regressor: design in, scalar figure-of-merit out.
//!
//! This is the "AD-Black Box" baseline of the paper's Table II — gradients
//! for inverse design are obtained by differentiating *through* the network
//! with respect to its input, with no field information at all.

use crate::layers::Conv2d;
use crate::model::Model;
use maps_tensor::{Conv2dSpec, Params, Tape, Tensor};
use rand::Rng;

/// Configuration of the [`BlackBoxNet`].
#[derive(Debug, Clone, Copy)]
pub struct BlackBoxConfig {
    /// Input feature channels.
    pub in_channels: usize,
    /// Base width.
    pub width: usize,
    /// Number of stride-free conv + pool stages (each halves H and W).
    pub stages: usize,
}

impl Default for BlackBoxConfig {
    fn default() -> Self {
        BlackBoxConfig {
            in_channels: 4,
            width: 8,
            stages: 2,
        }
    }
}

/// CNN encoder with global pooling and a sigmoid-free scalar head.
/// Output shape is `[N, 1]`.
pub struct BlackBoxNet {
    config: BlackBoxConfig,
    convs: Vec<Conv2d>,
    head: Conv2d,
}

impl BlackBoxNet {
    /// Allocates the model's parameters.
    pub fn new(params: &mut Params, rng: &mut impl Rng, config: BlackBoxConfig) -> Self {
        let spec = Conv2dSpec {
            padding: 1,
            stride: 1,
        };
        let mut convs = Vec::new();
        let mut cin = config.in_channels;
        let mut cout = config.width;
        for _ in 0..config.stages {
            convs.push(Conv2d::new(params, rng, cin, cout, 3, spec));
            cin = cout;
            cout *= 2;
        }
        let head = Conv2d::new(
            params,
            rng,
            cin,
            1,
            1,
            Conv2dSpec {
                padding: 0,
                stride: 1,
            },
        );
        BlackBoxNet {
            config,
            convs,
            head,
        }
    }

    fn fwd<T: Tape>(&self, params: &Params, x: Tensor<f64, T>) -> Tensor<f64, T> {
        let mut h = x;
        for conv in &self.convs {
            h = conv.forward(params, h).gelu().avg_pool2();
        }
        self.head.forward(params, h).global_avg_pool() // [N, 1]
    }
}

impl Model for BlackBoxNet {
    crate::impl_model_forward!();

    fn in_channels(&self) -> usize {
        self.config.in_channels
    }

    fn name(&self) -> &str {
        "BlackBox"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maps_tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn scalar_output_and_input_gradients() {
        let mut params = Params::new();
        let mut rng = StdRng::seed_from_u64(0);
        let model = BlackBoxNet::new(
            &mut params,
            &mut rng,
            BlackBoxConfig {
                in_channels: 1,
                width: 4,
                stages: 2,
            },
        );
        let x = Tensor::from_vec(
            &[1, 1, 16, 16],
            (0..256).map(|k| (k as f64 * 0.05).cos()).collect(),
        );
        let y = model.forward(&params, x.trace());
        assert_eq!(y.shape(), &[1, 1]);
        // The whole point of the black-box baseline: d(output)/d(input).
        let grads = y.sum().backward();
        let gx = grads.wrt(&x).expect("input gradient must exist");
        assert_eq!(gx.shape(), &[1, 1, 16, 16]);
        assert!(gx.norm_sqr() > 0.0);
    }
}
