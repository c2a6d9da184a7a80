//! The model abstraction shared by all predictive baselines.

use maps_tensor::{OwnedTape, Params, Tensor};

/// A neural field/response predictor usable by MAPS-Train.
///
/// Inputs are `[N, in_channels, H, W]` feature maps (permittivity, source,
/// wavelength encoding, optional physics priors); outputs are either
/// `[N, 2, H, W]` field phasors (re/im of `Ez`) or `[N, 1]` scalar responses
/// for black-box models.
///
/// The trait is object-safe, so it exposes two concrete entry points
/// instead of one generic method:
///
/// * [`Model::forward`] — training: `f64` values on an [`OwnedTape`],
///   every op recording its backward closure.
/// * [`Model::infer`] — inference: the same `f64` arithmetic with no tape
///   and zero autodiff overhead, so its output equals `forward`'s bit for
///   bit.
///
/// Implementors write a single tape-generic inherent method `fwd` and
/// derive both entry points with [`impl_model_forward!`]. A borrowed model
/// (`&M`, including `&dyn Model`) is itself a `Model`.
///
/// [`impl_model_forward!`]: crate::impl_model_forward
pub trait Model {
    /// Runs the forward pass recording on an autodiff tape (training).
    fn forward(&self, params: &Params, x: Tensor<f64, OwnedTape>) -> Tensor<f64, OwnedTape>;
    /// Runs the forward pass tape-free (inference).
    fn infer(&self, params: &Params, x: Tensor<f64>) -> Tensor<f64>;
    /// Number of expected input channels.
    fn in_channels(&self) -> usize;
    /// Short name used in benchmark tables (e.g. `"FNO"`).
    fn name(&self) -> &str;
    /// Whether the model consumes the physics wave-prior channels
    /// (NeurOLight does; the others use the plain encoding).
    fn wants_wave_prior(&self) -> bool {
        false
    }
}

/// Expands to the two [`Model`] entry points (`forward`, `infer`), each
/// delegating to an inherent generic method on the implementing type:
///
/// ```ignore
/// fn fwd<T: Tape>(&self, params: &Params, x: Tensor<f64, T>) -> Tensor<f64, T>
/// ```
///
/// Invoke inside the `impl Model for …` block.
#[macro_export]
macro_rules! impl_model_forward {
    () => {
        fn forward(
            &self,
            params: &::maps_tensor::Params,
            x: ::maps_tensor::Tensor<f64, ::maps_tensor::OwnedTape>,
        ) -> ::maps_tensor::Tensor<f64, ::maps_tensor::OwnedTape> {
            self.fwd(params, x)
        }

        fn infer(
            &self,
            params: &::maps_tensor::Params,
            x: ::maps_tensor::Tensor<f64>,
        ) -> ::maps_tensor::Tensor<f64> {
            self.fwd(params, x)
        }
    };
}

impl<M: Model + ?Sized> Model for &M {
    fn forward(&self, params: &Params, x: Tensor<f64, OwnedTape>) -> Tensor<f64, OwnedTape> {
        (**self).forward(params, x)
    }
    fn infer(&self, params: &Params, x: Tensor<f64>) -> Tensor<f64> {
        (**self).infer(params, x)
    }
    fn in_channels(&self) -> usize {
        (**self).in_channels()
    }
    fn name(&self) -> &str {
        (**self).name()
    }
    fn wants_wave_prior(&self) -> bool {
        (**self).wants_wave_prior()
    }
}
