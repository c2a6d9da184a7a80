//! # maps-tensor
//!
//! Minimal n-dimensional tensors with *typestate* reverse-mode autodiff —
//! the training and inference substrate of MAPS-Train. Supports the ops
//! needed by the FNO / F-FNO / UNet / NeurOLight reference models: dense
//! and convolutional layers, activations, pooling/upsampling, channel
//! plumbing, spectral (Fourier) convolutions with analytic backward, and
//! data/physics loss heads.
//!
//! Tape presence lives in the tensor's type: `Tensor<f64, NoneTape>` (the
//! default) computes values only, while [`Tensor::trace`] yields a
//! `Tensor<f64, OwnedTape>` that records one backward closure per op.
//! Every tensor holds `f64`.
//!
//! Training — trace, run ops, differentiate:
//!
//! ```
//! use maps_tensor::Tensor;
//!
//! let x = Tensor::from_vec(&[2], vec![1.0, 2.0]);
//! let traced = x.trace();
//! let loss = traced.with_empty_tape().mul(traced).sum();
//! let grads = loss.backward();
//! assert_eq!(grads.wrt(&x).unwrap().as_slice(), &[2.0, 4.0]); // d(x²)/dx
//! ```
//!
//! Inference — same ops, no tape:
//!
//! ```
//! use maps_tensor::{tape_nodes_recorded, Tensor};
//!
//! let x = Tensor::from_vec(&[3], vec![-1.0, 0.5, 2.0]);
//! let before = tape_nodes_recorded();
//! let y = x.relu().scale(2.0);               // NoneTape
//! assert_eq!(tape_nodes_recorded(), before); // nothing was recorded
//! assert_eq!(y.as_slice(), &[0.0, 1.0, 4.0]);
//! ```
//!
//! Parameters live in a [`Params`] store; gradients are keyed by tensor
//! identity, so the store hands the optimizer exactly the leaves that
//! participated:
//!
//! ```
//! use maps_tensor::{Params, Tensor};
//!
//! let mut params = Params::new();
//! let w = params.alloc(Tensor::from_vec(&[2], vec![3.0, -2.0]));
//! let loss = params.get(w).trace().square().sum();
//! let grads = loss.backward();
//! let g = grads.wrt(params.get(w)).unwrap();
//! assert_eq!(g.as_slice(), &[6.0, -4.0]); // 2w
//! ```

pub mod ops;
pub mod spectral;
pub mod tape;
pub mod tensor;

pub use tape::{tape_nodes_recorded, Gradients, Merge, NoneTape, OwnedTape, ParamId, Params, Tape};
pub use tensor::{Conv2dSpec, Tensor};
