//! The three gradient-computation methods compared in the paper's Table II.
//!
//! 1. **AD-Black-Box** — differentiate a scalar-response network with
//!    respect to its permittivity input.
//! 2. **AD-Pred-Field** — compute the objective from a field-predictor's
//!    output differentiably, then differentiate through network + objective
//!    with respect to the permittivity input.
//! 3. **Fwd & Adj Field** — query the field predictor twice (forward source
//!    and adjoint source) and assemble the gradient analytically as
//!    `−2ω²·Re(e_adj ⊙ e)`; no differentiation through the network at all.

use crate::featurize::encode_input;
use crate::neural_solver::NeuralFieldSolver;
use maps_core::{ComplexField2d, FieldSolver, RealField2d, SolveFieldError, SolveRequest};
use maps_fdfd::{gradient_from_fields, LinearFunctional, PowerObjective};
use maps_nn::Model;
use maps_tensor::{Params, Tape, Tensor};

/// Gradient of a black-box scalar-response model with respect to the
/// permittivity map (method "AD-Black Box").
pub fn ad_black_box_gradient(
    model: &dyn Model,
    params: &Params,
    eps_r: &RealField2d,
    source: &ComplexField2d,
    omega: f64,
) -> RealField2d {
    let input = encode_input(eps_r, source, omega, model.wants_wave_prior());
    let response = model.forward(params, input.trace()); // [1, 1]
    let grads = response.sum().backward();
    input_gradient_to_eps(grads.wrt(&input).expect("input gradient"), eps_r)
}

/// Gradient by differentiating through a field predictor *and* a
/// differentiable modal-power objective (method "AD-Pred Field").
pub fn ad_pred_field_gradient(
    model: &dyn Model,
    params: &Params,
    eps_r: &RealField2d,
    source: &ComplexField2d,
    omega: f64,
    functional: &LinearFunctional,
) -> RealField2d {
    let grid = eps_r.grid();
    let input = encode_input(eps_r, source, omega, model.wants_wave_prior());
    let pred = model.forward(params, input.trace()); // [1, 2, H, W]
    let t = differentiable_modal_power(pred, functional, grid);
    let grads = t.backward();
    input_gradient_to_eps(grads.wrt(&input).expect("input gradient"), eps_r)
}

/// `|w·e|²` as a differentiable graph over a `[1, 2, H, W]` field
/// prediction (any tape; on `NoneTape` this is a plain evaluation).
pub fn differentiable_modal_power<T: Tape>(
    pred: Tensor<f64, T>,
    functional: &LinearFunctional,
    grid: maps_core::Grid2d,
) -> Tensor<f64, T> {
    let (h, w) = (grid.ny, grid.nx);
    let mut wre = Tensor::zeros(&[1, 1, h, w]);
    let mut wim = Tensor::zeros(&[1, 1, h, w]);
    for &(k, c) in &functional.weights {
        wre.as_mut_slice()[k] += c.re;
        wim.as_mut_slice()[k] += c.im;
    }
    let ere = pred.with_empty_tape().slice_channels(0, 1);
    let eim = pred.slice_channels(1, 2);
    // a = Σ w·e (complex): a_re = Σ (w_re·e_re − w_im·e_im), etc.
    let rr = ere.with_empty_tape().mul(wre.clone());
    let ir = ere.mul(wim.clone());
    let ii = eim.with_empty_tape().mul(wim);
    let ri = eim.mul(wre);
    let are = rr.add(ii.neg()).sum();
    let aim = ri.add(ir).sum();
    are.square().add(aim.square())
}

/// Gradient from NN-predicted forward and adjoint fields (method
/// "Fwd & Adj Field").
///
/// Both probe solves flow through [`FieldSolver::solve_ez_batch`] so a
/// batching-aware solver can group them; the adjoint stays a second phase
/// because its right-hand side depends on the forward field.
///
/// # Errors
///
/// Returns [`SolveFieldError`] if a neural solve fails.
pub fn fwd_adj_field_gradient<M: Model>(
    solver: &NeuralFieldSolver<M>,
    eps_r: &RealField2d,
    source: &ComplexField2d,
    omega: f64,
    objective: &PowerObjective,
) -> Result<RealField2d, SolveFieldError> {
    let forward = solver
        .solve_ez_batch(eps_r, &[SolveRequest::forward(source, omega)])
        .pop()
        .expect("a batch of one request returns one result")?;
    let rhs = ComplexField2d::from_vec(eps_r.grid(), objective.adjoint_rhs(&forward));
    let adjoint = solver
        .solve_ez_batch(eps_r, &[SolveRequest::adjoint(&rhs, omega)])
        .pop()
        .expect("a batch of one request returns one result")?;
    Ok(gradient_from_fields(&forward, &adjoint, omega))
}

/// Maps a gradient on the encoded input back to `dF/dε`: channel 0 of the
/// encoding is `(ε − 1)/11`, so the chain rule multiplies by `1/11`.
fn input_gradient_to_eps(grad_input: &Tensor, eps_r: &RealField2d) -> RealField2d {
    let grid = eps_r.grid();
    let (h, w) = (grid.ny, grid.nx);
    let hw = h * w;
    let d = grad_input.as_slice();
    let mut out = RealField2d::zeros(grid);
    for iy in 0..h {
        for ix in 0..w {
            out.set(ix, iy, d[iy * w + ix] / 11.0);
        }
    }
    debug_assert!(grad_input.len().is_multiple_of(hw));
    out
}

/// The per-method labels used in benchmark tables.
pub const GRAD_METHOD_NAMES: [&str; 3] = ["AD-Black Box", "AD-Pred Field", "Fwd & Adj Field"];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::featurize::FieldNormalizer;
    use maps_core::Grid2d;
    use maps_linalg::Complex64;
    use maps_nn::{BlackBoxConfig, BlackBoxNet, Fno, FnoConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (RealField2d, ComplexField2d, f64) {
        let grid = Grid2d::new(16, 16, 0.1);
        let eps = RealField2d::constant(grid, 4.0);
        let mut j = ComplexField2d::zeros(grid);
        j.set(4, 8, Complex64::ONE);
        (eps, j, maps_core::omega_for_wavelength(1.55))
    }

    #[test]
    fn black_box_gradient_has_grid_shape() {
        let (eps, j, omega) = setup();
        let mut params = Params::new();
        let mut rng = StdRng::seed_from_u64(0);
        let model = BlackBoxNet::new(
            &mut params,
            &mut rng,
            BlackBoxConfig {
                in_channels: 4,
                width: 4,
                stages: 2,
            },
        );
        let g = ad_black_box_gradient(&model, &params, &eps, &j, omega);
        assert_eq!(g.grid(), eps.grid());
        assert!(g.as_slice().iter().any(|v| *v != 0.0));
    }

    #[test]
    fn pred_field_gradient_flows_through_objective() {
        let (eps, j, omega) = setup();
        let mut params = Params::new();
        let mut rng = StdRng::seed_from_u64(1);
        let model = Fno::new(
            &mut params,
            &mut rng,
            FnoConfig {
                in_channels: 4,
                out_channels: 2,
                width: 4,
                modes: 2,
                depth: 1,
            },
        );
        let functional = LinearFunctional {
            weights: vec![
                (200, Complex64::new(0.5, 0.1)),
                (201, Complex64::new(0.5, -0.1)),
            ],
        };
        let g = ad_pred_field_gradient(&model, &params, &eps, &j, omega, &functional);
        assert_eq!(g.grid(), eps.grid());
        assert!(g.as_slice().iter().any(|v| *v != 0.0));
    }

    #[test]
    fn differentiable_modal_power_matches_direct_evaluation() {
        let grid = Grid2d::new(4, 4, 0.1);
        // A fixed "prediction".
        let mut pred = Tensor::zeros(&[1, 2, 4, 4]);
        for (k, v) in pred.as_mut_slice().iter_mut().enumerate() {
            *v = ((k * 13 % 7) as f64 - 3.0) * 0.2;
        }
        let functional = LinearFunctional {
            weights: vec![
                (5, Complex64::new(1.0, 0.5)),
                (10, Complex64::new(-0.3, 0.2)),
            ],
        };
        let t = differentiable_modal_power(pred.clone(), &functional, grid);
        // Direct: decode and evaluate.
        let field = crate::featurize::decode_field(&pred, grid, FieldNormalizer::identity());
        let a = functional.eval(&field);
        assert!(
            (t.item() - a.norm_sqr()).abs() < 1e-12,
            "{} vs {}",
            t.item(),
            a.norm_sqr()
        );
    }
}
