//! Reusable layers, generic over tape.
//!
//! A layer's `forward` takes the parameter store and an input on any tape:
//! on `OwnedTape` each op records its backward closure, on `NoneTape` the
//! same code compiles down to pure value arithmetic.

use crate::init::{kaiming_uniform, spectral_uniform};
use maps_tensor::{Conv2dSpec, ParamId, Params, Tape, Tensor};
use rand::Rng;

/// A 2-D convolution layer with bias.
#[derive(Debug, Clone)]
pub struct Conv2d {
    weight: ParamId,
    bias: ParamId,
    spec: Conv2dSpec,
}

impl Conv2d {
    /// Allocates a `cin → cout` convolution with a `k × k` kernel.
    pub fn new(
        params: &mut Params,
        rng: &mut impl Rng,
        cin: usize,
        cout: usize,
        k: usize,
        spec: Conv2dSpec,
    ) -> Self {
        let weight = params.alloc(kaiming_uniform(rng, &[cout, cin, k, k], cin * k * k));
        let bias = params.alloc(Tensor::zeros(&[cout]));
        Conv2d { weight, bias, spec }
    }

    /// Applies the layer.
    pub fn forward<T: Tape>(&self, params: &Params, x: Tensor<f64, T>) -> Tensor<f64, T> {
        let w = params.get(self.weight).clone();
        let b = params.get(self.bias).clone();
        x.conv2d(w, self.spec).add_bias_channel(b)
    }
}

/// A fully connected layer with bias, acting on `[N, K]` matrices.
#[derive(Debug, Clone)]
pub struct Linear {
    weight: ParamId,
    bias: ParamId,
}

impl Linear {
    /// Allocates a `k_in → k_out` dense layer.
    pub fn new(params: &mut Params, rng: &mut impl Rng, k_in: usize, k_out: usize) -> Self {
        let weight = params.alloc(kaiming_uniform(rng, &[k_in, k_out], k_in));
        let bias = params.alloc(Tensor::zeros(&[k_out]));
        Linear { weight, bias }
    }

    /// Applies the layer.
    pub fn forward<T: Tape>(&self, params: &Params, x: Tensor<f64, T>) -> Tensor<f64, T> {
        let w = params.get(self.weight).clone();
        let b = params.get(self.bias).clone();
        x.matmul(w).add_bias_cols(b)
    }
}

/// A Fourier-space convolution layer (FNO building block).
#[derive(Debug, Clone)]
pub struct SpectralConv2d {
    w_re: ParamId,
    w_im: ParamId,
    /// Retained modes along H.
    pub modes_h: usize,
    /// Retained modes along W.
    pub modes_w: usize,
}

impl SpectralConv2d {
    /// Allocates a spectral layer keeping `2·mh × 2·mw` corner modes.
    pub fn new(
        params: &mut Params,
        rng: &mut impl Rng,
        cin: usize,
        cout: usize,
        mh: usize,
        mw: usize,
    ) -> Self {
        let shape = [cin, cout, 2 * mh, 2 * mw];
        SpectralConv2d {
            w_re: params.alloc(spectral_uniform(rng, &shape, cin, cout)),
            w_im: params.alloc(spectral_uniform(rng, &shape, cin, cout)),
            modes_h: mh,
            modes_w: mw,
        }
    }

    /// Applies the layer.
    pub fn forward<T: Tape>(&self, params: &Params, x: Tensor<f64, T>) -> Tensor<f64, T> {
        let wr = params.get(self.w_re).clone();
        let wi = params.get(self.w_im).clone();
        x.spectral_conv(wr, wi, self.modes_h, self.modes_w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn conv_layer_shapes() {
        let mut params = Params::new();
        let mut rng = StdRng::seed_from_u64(1);
        let layer = Conv2d::new(&mut params, &mut rng, 3, 8, 3, Conv2dSpec::default());
        let y = layer.forward(&params, Tensor::zeros(&[2, 3, 16, 16]));
        assert_eq!(y.shape(), &[2, 8, 16, 16]);
    }

    #[test]
    fn linear_layer_shapes() {
        let mut params = Params::new();
        let mut rng = StdRng::seed_from_u64(2);
        let layer = Linear::new(&mut params, &mut rng, 10, 4);
        let y = layer.forward(&params, Tensor::zeros(&[5, 10]));
        assert_eq!(y.shape(), &[5, 4]);
    }

    #[test]
    fn spectral_layer_shapes() {
        let mut params = Params::new();
        let mut rng = StdRng::seed_from_u64(3);
        let layer = SpectralConv2d::new(&mut params, &mut rng, 4, 6, 3, 3);
        let y = layer.forward(&params, Tensor::zeros(&[1, 4, 16, 16]));
        assert_eq!(y.shape(), &[1, 6, 16, 16]);
    }

    #[test]
    fn layers_are_trainable_end_to_end() {
        // One SGD step on a conv layer must reduce a simple loss.
        let mut params = Params::new();
        let mut rng = StdRng::seed_from_u64(4);
        let layer = Conv2d::new(&mut params, &mut rng, 1, 1, 3, Conv2dSpec::default());
        let x_data = Tensor::from_vec(&[1, 1, 4, 4], (0..16).map(|k| k as f64 * 0.1).collect());
        let target = Tensor::full(&[1, 1, 4, 4], 1.0);
        let loss_of = |params: &Params| -> (f64, Vec<(ParamId, Tensor)>) {
            let loss = layer.forward(params, x_data.trace()).mse(target.clone());
            let value = loss.item();
            let grads = loss.backward();
            let pg = grads
                .param_grads(params)
                .map(|(id, g)| (id, g.clone()))
                .collect();
            (value, pg)
        };
        let (l0, grads) = loss_of(&params);
        for (id, g) in grads {
            let p = params.get_mut(id);
            for (pv, gv) in p.as_mut_slice().iter_mut().zip(g.as_slice()) {
                *pv -= 0.1 * gv;
            }
        }
        let (l1, _) = loss_of(&params);
        assert!(l1 < l0, "loss should drop: {l0} -> {l1}");
    }
}
