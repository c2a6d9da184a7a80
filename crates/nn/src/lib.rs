//! # maps-nn
//!
//! The neural-operator model zoo of MAPS-Train: FNO, Factorized-FNO, UNet,
//! and NeurOLight field predictors, a black-box response regressor, weight
//! initializers, and SGD/Adam optimizers — all built on the `maps-tensor`
//! typestate autodiff tensors.
//!
//! Every model exposes two entry points via the [`Model`] trait:
//! `forward` (training, `f64` on an `OwnedTape`) and `infer` (the same
//! arithmetic with no tape):
//!
//! ```
//! use maps_nn::{Fno, FnoConfig, Model};
//! use maps_tensor::{Params, Tensor};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut params = Params::new();
//! let mut rng = StdRng::seed_from_u64(0);
//! let model = Fno::new(&mut params, &mut rng, FnoConfig::default());
//!
//! // Training: traced input, gradients via backward().
//! let x = Tensor::zeros(&[1, 4, 16, 16]);
//! let field = model.forward(&params, x.trace());
//! assert_eq!(field.shape(), &[1, 2, 16, 16]);
//!
//! // Inference: no tape, the same values bit for bit.
//! let plain = model.infer(&params, x);
//! assert_eq!(plain.as_slice(), field.no_tape().as_slice());
//! ```

pub mod blackbox;
pub mod ffno;
pub mod fno;
pub mod init;
pub mod layers;
pub mod model;
pub mod neurolight;
pub mod optim;
pub mod schedule;
pub mod tandem;
pub mod unet;

pub use blackbox::{BlackBoxConfig, BlackBoxNet};
pub use ffno::{Ffno, FfnoConfig};
pub use fno::{Fno, FnoConfig};
pub use layers::{Conv2d, Linear, SpectralConv2d};
pub use model::Model;
pub use neurolight::{NeurOLight, NeurOLightConfig};
pub use optim::{collect_param_grads, Adam, Sgd};
pub use schedule::LrSchedule;
pub use tandem::{Generator, GeneratorConfig, Tandem};
pub use unet::{UNet, UNetConfig};
