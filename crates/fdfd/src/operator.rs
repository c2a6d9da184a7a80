//! Assembly of the 2-D `Ez`-polarization Helmholtz operator.
//!
//! With normalized units (`ε₀ = μ₀ = c = 1`) and the `e^{−iωt}` convention,
//! the governing equation for the out-of-plane electric phasor is
//!
//! ```text
//!   (∂x (1/sx̄) ∂x (1/sx) + ∂y (1/sȳ) ∂y (1/sy) + ω² εr) Ez = −i ω Jz
//! ```
//!
//! where `s` are the PML stretch factors. The operator is assembled as a
//! banded matrix with bandwidth `nx` (fields stored row-major by `iy`), or
//! as a CSR matrix for the iterative backend and the dataset's rich
//! "Maxwell matrix" labels.
//!
//! Row `k = (ix, iy)` of the assembled operator `A` carries the factor
//! `1/(sx[ix+½]·sy[iy+½])`, so scaling it by [`symmetrizer`]'s
//! `D = diag(sx[ix+½]·sy[iy+½])` makes `D·A` complex symmetric (the standard
//! SC-PML symmetrization). Hence `Aᵀ = D·A·D⁻¹`, and the adjoint system
//! `Aᵀ·y = c` is the forward system `A·z = D⁻¹·c` with `y = D·z`.

use crate::pml::PmlConfig;
use maps_core::{Grid2d, RealField2d};
use maps_linalg::{BandedMatrix, Complex64, CooMatrix, CsrMatrix};

/// Bytes of the banded LU factor of the operator on an `nx × ny` grid.
///
/// [`HelmholtzOperator::to_banded`] gives the band `kl = ku = nx`, and LAPACK
/// band storage keeps `2·kl + ku + 1 = 3·nx + 1` complex doubles per cell:
/// 24.7 MB at 80×80. Saturates instead of overflowing, so it can size a grid
/// from untrusted input before anything is allocated.
pub fn factor_bytes(nx: usize, ny: usize) -> usize {
    nx.saturating_mul(3)
        .saturating_add(1)
        .saturating_mul(nx)
        .saturating_mul(ny)
        .saturating_mul(std::mem::size_of::<Complex64>())
}

/// The diagonal `D` that symmetrizes the operator at (grid, ω, PML): entry
/// `k = iy·nx + ix` is `sx[ix+½]·sy[iy+½]`, the staggered stretch factors
/// [`HelmholtzOperator::new`] divides row `k` by. `D·A` is complex
/// symmetric, so `Aᵀ = D·A·D⁻¹`, and `D = 1` outside the PML. It needs no
/// permittivity and no assembled operator, so an adjoint solve that hits
/// the factor cache assembles nothing.
pub fn symmetrizer(grid: Grid2d, omega: f64, pml: &PmlConfig) -> Vec<Complex64> {
    let sxf = pml.stretch_factors(grid.nx, grid.dl, omega, 0.5);
    let syf = pml.stretch_factors(grid.ny, grid.dl, omega, 0.5);
    syf.iter()
        .flat_map(|sy| sxf.iter().map(move |sx| *sx * *sy))
        .collect()
}

/// The 5-point stencil of one grid row of the Helmholtz operator.
#[derive(Debug, Clone, Copy)]
struct Stencil {
    center: Complex64,
    west: Complex64,
    east: Complex64,
    south: Complex64,
    north: Complex64,
}

/// Precomputed stencil data for the whole grid.
#[derive(Debug, Clone)]
pub struct HelmholtzOperator {
    grid: Grid2d,
    omega: f64,
    stencils: Vec<Stencil>,
}

impl HelmholtzOperator {
    /// Assembles the operator for a permittivity map at angular frequency
    /// `omega` with the given PML.
    ///
    /// # Panics
    ///
    /// Panics if `omega` is not positive or the PML is thicker than half the
    /// grid in either direction.
    pub fn new(eps_r: &RealField2d, omega: f64, pml: &PmlConfig) -> Self {
        assert!(omega > 0.0, "omega must be positive");
        let grid = eps_r.grid();
        assert!(
            2 * pml.thickness < grid.nx && 2 * pml.thickness < grid.ny,
            "pml thicker than grid"
        );
        let dl = grid.dl;
        let inv_dl2 = 1.0 / (dl * dl);
        // sx̄/sȳ on integer points, sx/sy on half-integer (staggered) points.
        let sxb = pml.stretch_factors(grid.nx, dl, omega, 0.0);
        let sxf = pml.stretch_factors(grid.nx, dl, omega, 0.5);
        let syb = pml.stretch_factors(grid.ny, dl, omega, 0.0);
        let syf = pml.stretch_factors(grid.ny, dl, omega, 0.5);
        let inv_sxb: Vec<Complex64> = sxb.iter().map(|s| s.recip()).collect();
        let inv_sxf: Vec<Complex64> = sxf.iter().map(|s| s.recip()).collect();
        let inv_syb: Vec<Complex64> = syb.iter().map(|s| s.recip()).collect();
        let inv_syf: Vec<Complex64> = syf.iter().map(|s| s.recip()).collect();

        let w2 = omega * omega;
        let mut stencils = Vec::with_capacity(grid.len());
        for iy in 0..grid.ny {
            for ix in 0..grid.nx {
                // (Dxf Dxb E)[i] = cᵢ [ (E[i+1]−E[i])/s̄[i+1] − (E[i]−E[i−1])/s̄[i] ]
                // with cᵢ = 1/(dl²·s[i+½]); Dirichlet walls drop the
                // out-of-range neighbours.
                let cx = inv_sxf[ix] * inv_dl2;
                let cy = inv_syf[iy] * inv_dl2;
                let east = if ix + 1 < grid.nx {
                    cx * inv_sxb[ix + 1]
                } else {
                    Complex64::ZERO
                };
                let west = if ix > 0 {
                    cx * inv_sxb[ix]
                } else {
                    Complex64::ZERO
                };
                let north = if iy + 1 < grid.ny {
                    cy * inv_syb[iy + 1]
                } else {
                    Complex64::ZERO
                };
                let south = if iy > 0 {
                    cy * inv_syb[iy]
                } else {
                    Complex64::ZERO
                };
                // Diagonal keeps the full stencil weight even at walls
                // (Dirichlet: the neighbour field is zero, not the coupling).
                let mut center = Complex64::ZERO;
                if ix + 1 < grid.nx {
                    center -= cx * inv_sxb[ix + 1];
                }
                center -= cx * inv_sxb[ix];
                if iy + 1 < grid.ny {
                    center -= cy * inv_syb[iy + 1];
                }
                center -= cy * inv_syb[iy];
                center += Complex64::from_re(w2 * eps_r.get(ix, iy));
                stencils.push(Stencil {
                    center,
                    west,
                    east,
                    south,
                    north,
                });
            }
        }
        HelmholtzOperator {
            grid,
            omega,
            stencils,
        }
    }

    /// The grid the operator acts on.
    pub fn grid(&self) -> Grid2d {
        self.grid
    }

    /// Angular frequency the operator was assembled at.
    pub fn omega(&self) -> f64 {
        self.omega
    }

    /// Assembles the banded-matrix form (bandwidth `nx`).
    pub fn to_banded(&self) -> BandedMatrix {
        let n = self.grid.len();
        let nx = self.grid.nx;
        let mut a = BandedMatrix::zeros(n, nx, nx);
        for iy in 0..self.grid.ny {
            for ix in 0..nx {
                let k = self.grid.idx(ix, iy);
                let s = &self.stencils[k];
                a.set(k, k, s.center);
                if ix > 0 {
                    a.set(k, k - 1, s.west);
                }
                if ix + 1 < nx {
                    a.set(k, k + 1, s.east);
                }
                if iy > 0 {
                    a.set(k, k - nx, s.south);
                }
                if iy + 1 < self.grid.ny {
                    a.set(k, k + nx, s.north);
                }
            }
        }
        a
    }

    /// Assembles the sparse CSR form (used by BiCGSTAB and exported as the
    /// "Maxwell equation matrix" rich label).
    pub fn to_csr(&self) -> CsrMatrix {
        let n = self.grid.len();
        let nx = self.grid.nx;
        let mut coo = CooMatrix::new(n, n);
        for iy in 0..self.grid.ny {
            for ix in 0..nx {
                let k = self.grid.idx(ix, iy);
                let s = &self.stencils[k];
                coo.push(k, k, s.center);
                if ix > 0 {
                    coo.push(k, k - 1, s.west);
                }
                if ix + 1 < nx {
                    coo.push(k, k + 1, s.east);
                }
                if iy > 0 {
                    coo.push(k, k - nx, s.south);
                }
                if iy + 1 < self.grid.ny {
                    coo.push(k, k + nx, s.north);
                }
            }
        }
        coo.to_csr()
    }

    /// Applies the operator to a field vector without materializing a
    /// matrix: `y = A x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != grid.len()`.
    pub fn apply(&self, x: &[Complex64]) -> Vec<Complex64> {
        assert_eq!(x.len(), self.grid.len(), "operator apply size mismatch");
        let nx = self.grid.nx;
        let ny = self.grid.ny;
        let mut y = vec![Complex64::ZERO; x.len()];
        for iy in 0..ny {
            for ix in 0..nx {
                let k = iy * nx + ix;
                let s = &self.stencils[k];
                let mut acc = s.center * x[k];
                if ix > 0 {
                    acc += s.west * x[k - 1];
                }
                if ix + 1 < nx {
                    acc += s.east * x[k + 1];
                }
                if iy > 0 {
                    acc += s.south * x[k - nx];
                }
                if iy + 1 < ny {
                    acc += s.north * x[k + nx];
                }
                y[k] = acc;
            }
        }
        y
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maps_linalg::dense::znorm;

    fn setup() -> HelmholtzOperator {
        let grid = Grid2d::new(32, 28, 0.05);
        let mut eps = RealField2d::constant(grid, 1.0);
        eps.set(16, 14, 12.0);
        HelmholtzOperator::new(
            &eps,
            maps_core::omega_for_wavelength(1.55),
            &PmlConfig::default(),
        )
    }

    #[test]
    fn factor_bytes_matches_the_assembled_band() {
        let op = setup();
        let a = op.to_banded();
        let (kl, ku) = (a.lower_bandwidth(), a.upper_bandwidth());
        let band_bytes = (2 * kl + ku + 1) * a.dim() * std::mem::size_of::<Complex64>();
        assert_eq!(factor_bytes(32, 28), band_bytes);
        assert_eq!(factor_bytes(80, 80), 24_678_400);
        assert_eq!(factor_bytes(usize::MAX / 2, 3), usize::MAX);
    }

    #[test]
    fn banded_csr_and_apply_agree() {
        let op = setup();
        let n = op.grid().len();
        let x: Vec<Complex64> = (0..n)
            .map(|k| Complex64::new((k as f64 * 0.01).sin(), (k as f64 * 0.013).cos()))
            .collect();
        let via_apply = op.apply(&x);
        let via_banded = op.to_banded().matvec(&x);
        let via_csr = op.to_csr().matvec(&x);
        let d1: Vec<Complex64> = via_apply
            .iter()
            .zip(&via_banded)
            .map(|(a, b)| *a - *b)
            .collect();
        let d2: Vec<Complex64> = via_apply
            .iter()
            .zip(&via_csr)
            .map(|(a, b)| *a - *b)
            .collect();
        assert!(znorm(&d1) < 1e-10);
        assert!(znorm(&d2) < 1e-10);
    }

    #[test]
    fn interior_stencil_is_discrete_laplacian_plus_eps() {
        // Away from the PML, applying the operator to a constant field must
        // give ω²ε (the Laplacian of a constant vanishes for interior cells).
        let grid = Grid2d::new(40, 40, 0.1);
        let eps = RealField2d::constant(grid, 4.0);
        let omega = 2.0;
        let op = HelmholtzOperator::new(&eps, omega, &PmlConfig::default());
        let x = vec![Complex64::ONE; grid.len()];
        let y = op.apply(&x);
        let k = grid.idx(20, 20);
        let expect = omega * omega * 4.0;
        assert!((y[k] - Complex64::from_re(expect)).abs() < 1e-9, "{}", y[k]);
    }

    /// `D·A` is complex symmetric entry by entry, with `D` from
    /// [`symmetrizer`], while `A` alone is not: the identity
    /// `Aᵀ = D·A·D⁻¹` every adjoint solve relies on.
    #[test]
    fn operator_is_complex_symmetric() {
        let grid = Grid2d::new(40, 36, 0.05);
        let mut eps = RealField2d::constant(grid, 2.25);
        eps.set(20, 18, 12.0);
        eps.set(3, 30, 7.0);
        let omega = maps_core::omega_for_wavelength(1.55);
        for thickness in [12, 16] {
            let pml = PmlConfig {
                thickness,
                ..PmlConfig::default()
            };
            let a = HelmholtzOperator::new(&eps, omega, &pml).to_csr();
            let d = symmetrizer(grid, omega, &pml);
            let (mut raw, mut scaled): (f64, f64) = (0.0, 0.0);
            for (i, j, v) in a.iter() {
                let w = a.get(j, i);
                raw = raw.max((v - w).abs() / v.abs().max(w.abs()));
                let (s, t) = (d[i] * v, d[j] * w);
                scaled = scaled.max((s - t).abs() / s.abs().max(t.abs()));
            }
            assert!(scaled <= 1e-14, "PML {thickness}: D·A asymmetry {scaled:e}");
            assert!(
                raw > 0.1,
                "PML {thickness}: A alone should be asymmetric, {raw:e}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "pml thicker")]
    fn rejects_oversized_pml() {
        let grid = Grid2d::new(10, 10, 0.05);
        let eps = RealField2d::constant(grid, 1.0);
        HelmholtzOperator::new(&eps, 4.0, &PmlConfig::default());
    }
}
