//! Data-driven and physics-driven loss construction (paper §III-B).

use maps_core::RealField2d;
use maps_tensor::{Conv2dSpec, Tape, Tensor};

/// Which loss drives training.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LossKind {
    /// Normalized MSE against the labeled field.
    Nmse,
    /// NMSE plus `weight ×` the Maxwell-residual physics loss.
    NmsePlusPhysics {
        /// Relative weight of the physics term.
        weight: f64,
    },
}

/// Physics loss: squared residual of the interior Helmholtz equation
/// applied to the *predicted* field (self-supervision; needs no labels).
///
/// For the scaled field `u = s·Ez` the residual reads
/// `∇²u + ω²·ε·u + s·iω·J` and is evaluated away from the PML, where the
/// plain 5-point Laplacian is exact.
///
/// * `pred`: `[N, 2, H, W]` predicted field (re, im), carrying the tape.
/// * `eps`: `[N, 1, H, W]` relative permittivity (constant).
/// * `source_term`: `[N, 2, H, W]` precomputed `s·iω·J` channels (constant).
/// * `mask`: `[N, 1, H, W]` interior mask, 1 inside / 0 near boundaries.
pub fn physics_residual_loss<T: Tape>(
    pred: Tensor<f64, T>,
    eps: Tensor,
    source_term: Tensor,
    mask: Tensor,
    omega: f64,
    dl: f64,
) -> Tensor<f64, T> {
    // 5-point Laplacian as a fixed depthwise kernel applied per channel.
    let inv_dl2 = 1.0 / (dl * dl);
    let lap_kernel = Tensor::from_vec(
        &[1, 1, 3, 3],
        vec![
            0.0,
            inv_dl2,
            0.0,
            inv_dl2,
            -4.0 * inv_dl2,
            inv_dl2,
            0.0,
            inv_dl2,
            0.0,
        ],
    );
    let spec = Conv2dSpec {
        padding: 1,
        stride: 1,
    };
    let re = pred.with_empty_tape().slice_channels(0, 1);
    let im = pred.slice_channels(1, 2);
    let w2 = omega * omega;
    let src_re = source_term.clone().slice_channels(0, 1);
    let src_im = source_term.slice_channels(1, 2);
    // Residual per channel: ∇²u + ω²·ε·u + s·iω·J.
    let lap_re = re.with_empty_tape().conv2d(lap_kernel.clone(), spec);
    let face_re = re.mul(eps.clone()).scale(w2);
    let res_re = lap_re.add(face_re).add(src_re);
    let lap_im = im.with_empty_tape().conv2d(lap_kernel, spec);
    let face_im = im.mul(eps).scale(w2);
    let res_im = lap_im.add(face_im).add(src_im);
    // Masked mean square.
    let mre = res_re.mul(mask.clone());
    let mim = res_im.mul(mask);
    let sre = mre.with_empty_tape().mul(mre);
    let sim = mim.with_empty_tape().mul(mim);
    sre.add(sim).mean()
}

/// Builds the `s·iω·J` source-term channels for [`physics_residual_loss`]
/// from a batch of complex source fields (already scaled by the field
/// normalizer `s`).
pub fn source_term_tensor(
    sources: &[&maps_core::ComplexField2d],
    omega: f64,
    field_scale: f64,
) -> Tensor {
    let grid = sources[0].grid();
    let (h, w) = (grid.ny, grid.nx);
    let hw = h * w;
    let mut t = Tensor::zeros(&[sources.len(), 2, h, w]);
    {
        let d = t.as_mut_slice();
        for (n, src) in sources.iter().enumerate() {
            for iy in 0..h {
                for ix in 0..w {
                    let k = iy * w + ix;
                    let j = src.get(ix, iy);
                    // The assembled RHS is −iω·J, so the residual form
                    // A·u − s·b uses +s·iω·J on the left side.
                    d[n * 2 * hw + k] = -field_scale * omega * j.im;
                    d[n * 2 * hw + hw + k] = field_scale * omega * j.re;
                }
            }
        }
    }
    t
}

/// Interior mask that zeroes a margin of `margin` cells (PML + stencil
/// boundary) for a batch of size `n`.
pub fn interior_mask(n: usize, eps: &RealField2d, margin: usize) -> Tensor {
    let grid = eps.grid();
    let (h, w) = (grid.ny, grid.nx);
    let mut t = Tensor::zeros(&[n, 1, h, w]);
    {
        let d = t.as_mut_slice();
        for b in 0..n {
            for iy in margin..h.saturating_sub(margin) {
                for ix in margin..w.saturating_sub(margin) {
                    d[b * h * w + iy * w + ix] = 1.0;
                }
            }
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use maps_core::{ComplexField2d, FieldSolver, Grid2d};
    use maps_fdfd::{FdfdSolver, PmlConfig};
    use maps_linalg::Complex64;

    /// The exact FDFD solution must have (near-)zero physics loss, and a
    /// corrupted field a much larger one.
    #[test]
    fn physics_loss_vanishes_on_exact_solution() {
        let grid = Grid2d::new(40, 40, 0.1);
        let eps = maps_core::RealField2d::constant(grid, 2.0);
        let omega = maps_core::omega_for_wavelength(1.55);
        let mut j = ComplexField2d::zeros(grid);
        j.set(20, 20, Complex64::ONE);
        let pml = PmlConfig::auto(grid.dl);
        let solver = FdfdSolver::with_pml(pml);
        let ez = solver.solve_ez(&eps, &j, omega).unwrap();

        let encode = |field: &ComplexField2d| -> Tensor {
            crate::featurize::encode_target(field, crate::featurize::FieldNormalizer::identity())
        };
        let margin = pml.thickness + 2;
        let eval = |field: &ComplexField2d| -> f64 {
            let eps_t = {
                let mut t = Tensor::zeros(&[1, 1, 40, 40]);
                for iy in 0..40 {
                    for ix in 0..40 {
                        t.as_mut_slice()[iy * 40 + ix] = eps.get(ix, iy);
                    }
                }
                t
            };
            let src = source_term_tensor(&[&j], omega, 1.0);
            let mask = interior_mask(1, &eps, margin);
            // NoneTape: the physics loss is pure value code here.
            physics_residual_loss(encode(field), eps_t, src, mask, omega, grid.dl).item()
        };
        let exact_loss = eval(&ez);
        // Corrupt the field.
        let mut bad = ez.clone();
        for (k, z) in bad.as_mut_slice().iter_mut().enumerate() {
            if k % 3 == 0 {
                *z = *z * 1.3 + Complex64::new(0.01, -0.02);
            }
        }
        let bad_loss = eval(&bad);
        assert!(
            exact_loss < 1e-3 * bad_loss,
            "exact {exact_loss:.3e} should be ≪ corrupted {bad_loss:.3e}"
        );
    }

    #[test]
    fn interior_mask_margins() {
        let eps = maps_core::RealField2d::constant(Grid2d::new(8, 8, 0.1), 1.0);
        let m = interior_mask(1, &eps, 2);
        let d = m.as_slice();
        assert_eq!(d[0], 0.0); // corner
        assert_eq!(d[2 * 8 + 2], 1.0); // interior
        assert_eq!(d[7 * 8 + 7], 0.0);
    }
}
