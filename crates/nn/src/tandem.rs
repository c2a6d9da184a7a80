//! Tandem networks (paper §III-B feature 2: "multi-model setups, e.g.
//! Tandem neural networks, for both forward prediction and inverse
//! generation").
//!
//! A tandem couples an *inverse generator* (target response → design
//! density) with a **frozen** pretrained forward model (design → response):
//! training minimizes the response error through the forward model, which
//! sidesteps the one-to-many ambiguity of direct inverse regression.

use crate::layers::Conv2d;
use crate::model::Model;
use maps_tensor::{Conv2dSpec, OwnedTape, Params, Tape, Tensor};
use rand::Rng;

/// Configuration of the inverse generator head.
#[derive(Debug, Clone, Copy)]
pub struct GeneratorConfig {
    /// Channels of the target-specification map fed to the generator.
    pub in_channels: usize,
    /// Design-density output channels (usually 1).
    pub out_channels: usize,
    /// Hidden width.
    pub width: usize,
    /// Number of hidden conv layers.
    pub depth: usize,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        GeneratorConfig {
            in_channels: 2,
            out_channels: 1,
            width: 8,
            depth: 3,
        }
    }
}

/// A convolutional inverse generator with a sigmoid-bounded density output.
pub struct Generator {
    config: GeneratorConfig,
    layers: Vec<Conv2d>,
    head: Conv2d,
}

impl Generator {
    /// Allocates the generator's parameters.
    pub fn new(params: &mut Params, rng: &mut impl Rng, config: GeneratorConfig) -> Self {
        let spec = Conv2dSpec {
            padding: 1,
            stride: 1,
        };
        let mut layers = Vec::new();
        let mut cin = config.in_channels;
        for _ in 0..config.depth {
            layers.push(Conv2d::new(params, rng, cin, config.width, 3, spec));
            cin = config.width;
        }
        let head = Conv2d::new(
            params,
            rng,
            cin,
            config.out_channels,
            1,
            Conv2dSpec {
                padding: 0,
                stride: 1,
            },
        );
        Generator {
            config,
            layers,
            head,
        }
    }

    /// Produces a density in `(0, 1)` via `0.5·(tanh + 1)`.
    pub fn forward<T: Tape>(&self, params: &Params, x: Tensor<f64, T>) -> Tensor<f64, T> {
        let mut h = x;
        for layer in &self.layers {
            h = layer.forward(params, h).gelu();
        }
        self.head
            .forward(params, h)
            .tanh()
            .add_scalar(1.0)
            .scale(0.5)
    }

    /// The configuration used at construction.
    pub fn config(&self) -> GeneratorConfig {
        self.config
    }
}

/// A tandem: generator (trainable) chained into a frozen forward model.
///
/// The generator's parameters live in *its own* store so the optimizer can
/// step them without touching the pretrained forward weights.
pub struct Tandem<F: Model> {
    /// The trainable inverse generator.
    pub generator: Generator,
    /// The frozen pretrained forward model.
    pub forward_model: F,
}

impl<F: Model> Tandem<F> {
    /// Couples a generator with a pretrained forward model.
    pub fn new(generator: Generator, forward_model: F) -> Self {
        Tandem {
            generator,
            forward_model,
        }
    }

    /// Runs target-spec → generated density → predicted response, with the
    /// target spec traced as the graph root.
    ///
    /// `assemble` maps the generated (taped) density plus the target spec
    /// into the forward model's input encoding (e.g. painting the density
    /// into a permittivity channel); it must be built from tensor ops so
    /// gradients keep flowing.
    ///
    /// Returns `(density value, taped response)`.
    pub fn forward(
        &self,
        gen_params: &Params,
        fwd_params: &Params,
        target_spec: &Tensor,
        assemble: impl FnOnce(Tensor<f64, OwnedTape>, &Tensor) -> Tensor<f64, OwnedTape>,
    ) -> (Tensor, Tensor<f64, OwnedTape>) {
        let density = self.generator.forward(gen_params, target_spec.trace());
        let density_value = density.no_tape();
        let fwd_input = assemble(density, target_spec);
        let response = self.forward_model.forward(fwd_params, fwd_input);
        (density_value, response)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fno::{Fno, FnoConfig};
    use crate::optim::Adam;
    use maps_tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn generator_output_is_a_density() {
        let mut params = Params::new();
        let mut rng = StdRng::seed_from_u64(0);
        let gen = Generator::new(&mut params, &mut rng, GeneratorConfig::default());
        let x = Tensor::from_vec(
            &[1, 2, 8, 8],
            (0..128).map(|k| ((k % 9) as f64 - 4.0) * 0.3).collect(),
        );
        let d = gen.forward(&params, x);
        assert_eq!(d.shape(), &[1, 1, 8, 8]);
        for v in d.as_slice() {
            assert!((0.0..=1.0).contains(v), "density out of range: {v}");
        }
    }

    /// Training the tandem updates only the generator: the frozen forward
    /// model's parameters receive no gradients because they live in a
    /// separate store that is never stepped.
    #[test]
    fn tandem_trains_generator_against_frozen_forward() {
        let mut gen_params = Params::new();
        let mut fwd_params = Params::new();
        let mut rng = StdRng::seed_from_u64(1);
        let gen = Generator::new(
            &mut gen_params,
            &mut rng,
            GeneratorConfig {
                in_channels: 1,
                out_channels: 1,
                width: 4,
                depth: 2,
            },
        );
        let fwd = Fno::new(
            &mut fwd_params,
            &mut rng,
            FnoConfig {
                in_channels: 1,
                out_channels: 1,
                width: 4,
                modes: 2,
                depth: 1,
            },
        );
        // Target the frozen model's response to a known reference density:
        // that target is achievable by construction (the reference density
        // attains it exactly), so the loss floor is zero regardless of how
        // the random forward weights fall for a given RNG stream.
        let reference_density = Tensor::from_vec(
            &[1, 1, 8, 8],
            (0..64)
                .map(|k| 0.5 + 0.4 * (k as f64 * 0.7).sin())
                .collect(),
        );
        let target_response = fwd.infer(&fwd_params, reference_density);
        let tandem = Tandem::new(gen, fwd);
        let fwd_snapshot: Vec<Vec<f64>> = fwd_params
            .ids()
            .map(|id| fwd_params.get(id).as_slice().to_vec())
            .collect();

        let spec = Tensor::from_vec(
            &[1, 1, 8, 8],
            (0..64).map(|k| (k as f64 * 0.3).sin() * 0.5).collect(),
        );
        let mut adam = Adam::new(2e-2);
        let mut losses = Vec::new();
        for _ in 0..40 {
            let (_density, response) =
                tandem.forward(&gen_params, &fwd_params, &spec, |density, _spec| density);
            let loss = response.mse(target_response.clone());
            losses.push(loss.item());
            let grads = loss.backward();
            adam.step(&mut gen_params, &grads);
        }
        assert!(
            losses.last().unwrap() < &(losses[0] * 0.9),
            "tandem loss should drop: {:?}",
            (losses[0], losses.last().unwrap())
        );
        // Forward model untouched.
        for (id, snap) in fwd_params.ids().zip(&fwd_snapshot) {
            assert_eq!(fwd_params.get(id).as_slice(), snap.as_slice());
        }
    }
}
