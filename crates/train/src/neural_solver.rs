//! A trained neural operator wrapped as a [`FieldSolver`].
//!
//! This is the paper's capstone integration (§IV-D): MAPS-InvDes runs its
//! adjoint loop against this solver instead of the FDFD backend, getting
//! NN-predicted forward *and* adjoint fields (the adjoint solve uses the
//! reciprocity default of [`FieldSolver::solve_adjoint_ez`]).
//!
//! Inference runs tape-free through [`Model::infer`], in the same `f64`
//! arithmetic as training, so a prediction equals the taped forward pass
//! bit for bit.

use crate::featurize::{decode_field, encode_input, FieldNormalizer};
use maps_core::{ComplexField2d, FieldSolver, RealField2d, SolveFieldError};
use maps_nn::Model;
use maps_tensor::Params;

/// A neural [`FieldSolver`].
pub struct NeuralFieldSolver<M: Model> {
    model: M,
    params: Params,
    normalizer: FieldNormalizer,
    name: String,
}

impl<M: Model> NeuralFieldSolver<M> {
    /// Wraps a trained model with its parameters and the field normalizer
    /// fitted during training. Inference runs in `f64`.
    pub fn new(model: M, params: Params, normalizer: FieldNormalizer) -> Self {
        let name = format!("neural-{}", model.name());
        NeuralFieldSolver {
            model,
            params,
            normalizer,
            name,
        }
    }

    /// The wrapped model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// The trained parameters.
    pub fn params(&self) -> &Params {
        &self.params
    }

    /// The training-time field normalizer.
    pub fn normalizer(&self) -> FieldNormalizer {
        self.normalizer
    }
}

impl<M: Model> FieldSolver for NeuralFieldSolver<M> {
    fn solve_ez(
        &self,
        eps_r: &RealField2d,
        source: &ComplexField2d,
        omega: f64,
    ) -> Result<ComplexField2d, SolveFieldError> {
        if eps_r.grid() != source.grid() {
            return Err(SolveFieldError::GridMismatch {
                detail: "eps and source grids differ".into(),
            });
        }
        let input = encode_input(eps_r, source, omega, self.model.wants_wave_prior());
        let pred = self.model.infer(&self.params, input);
        // The model was trained on unit-peak sources; rescale its output
        // back to the physical source amplitude.
        let jmax = source
            .as_slice()
            .iter()
            .map(|z| z.abs())
            .fold(0.0f64, f64::max);
        let field = decode_field(&pred, eps_r.grid(), self.normalizer);
        let out = ComplexField2d::from_vec(
            eps_r.grid(),
            field.as_slice().iter().map(|z| *z * jmax).collect(),
        );
        // A poisoned weight tensor silently predicts NaN everywhere; surface
        // that as a solver error instead of feeding it to the adjoint loop.
        maps_core::ensure_finite(&out, &self.name)?;
        Ok(out)
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maps_core::Grid2d;
    use maps_linalg::Complex64;
    use maps_nn::{Fno, FnoConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_fno(params: &mut Params) -> Fno {
        let mut rng = StdRng::seed_from_u64(0);
        Fno::new(
            params,
            &mut rng,
            FnoConfig {
                in_channels: 4,
                out_channels: 2,
                width: 4,
                modes: 2,
                depth: 1,
            },
        )
    }

    #[test]
    fn neural_solver_implements_field_solver() {
        let mut params = Params::new();
        let model = small_fno(&mut params);
        let solver = NeuralFieldSolver::new(model, params, FieldNormalizer::identity());
        let grid = Grid2d::new(16, 16, 0.1);
        let eps = RealField2d::constant(grid, 2.0);
        let mut j = ComplexField2d::zeros(grid);
        j.set(8, 8, Complex64::ONE);
        let omega = maps_core::omega_for_wavelength(1.55);
        let ez = solver.solve_ez(&eps, &j, omega).unwrap();
        assert_eq!(ez.grid(), grid);
        // Linear scaling with the source amplitude (by construction).
        let mut j2 = ComplexField2d::zeros(grid);
        j2.set(8, 8, Complex64::from_re(2.0));
        let ez2 = solver.solve_ez(&eps, &j2, omega).unwrap();
        let ratio = ez2.norm() / ez.norm().max(1e-30);
        assert!((ratio - 2.0).abs() < 1e-9, "ratio {ratio}");
        // Adjoint path (reciprocity default) also runs.
        let adj = solver.solve_adjoint_ez(&eps, &j, omega).unwrap();
        assert_eq!(adj.grid(), grid);
        assert!(solver.name().starts_with("neural-"));
    }

    #[test]
    fn poisoned_weights_surface_as_nonfinite_error() {
        let mut params = Params::new();
        let model = small_fno(&mut params);
        // Poison every parameter tensor.
        let ids: Vec<_> = params.ids().collect();
        for id in ids {
            for v in params.get_mut(id).as_mut_slice() {
                *v = f64::NAN;
            }
        }
        let solver = NeuralFieldSolver::new(model, params, FieldNormalizer::identity());
        let grid = Grid2d::new(16, 16, 0.1);
        let eps = RealField2d::constant(grid, 2.0);
        let mut j = ComplexField2d::zeros(grid);
        j.set(8, 8, Complex64::ONE);
        let err = solver
            .solve_ez(&eps, &j, maps_core::omega_for_wavelength(1.55))
            .unwrap_err();
        assert!(matches!(err, SolveFieldError::NonFinite { .. }), "{err:?}");
    }
}
