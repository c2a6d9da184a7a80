//! Assembly of the 2-D `Ez`-polarization Helmholtz operator.
//!
//! With normalized units (`ε₀ = μ₀ = c = 1`) and the `e^{−iωt}` convention,
//! the governing equation for the out-of-plane electric phasor is
//!
//! ```text
//!   (∂x (1/sx̄) ∂x (1/sx) + ∂y (1/sȳ) ∂y (1/sy) + ω² εr) Ez = −i ω Jz
//! ```
//!
//! where `s` are the PML stretch factors. [`HelmholtzOperator`] assembles
//! this operator `A` as a CSR matrix for the iterative backend and the
//! dataset's rich "Maxwell matrix" labels, as a general banded matrix
//! (bandwidth `nx`, fields stored row-major by `iy`), or applies it as a
//! stencil.
//!
//! Row `k = (ix, iy)` of `A` carries the factor `1/(sx[ix+½]·sy[iy+½])`, so
//! scaling it by [`symmetrizer`]'s `D = diag(sx[ix+½]·sy[iy+½])` makes
//! `S = D·A` complex symmetric (the standard SC-PML symmetrization). Hence
//! `Aᵀ = D·A·D⁻¹ = S·D⁻¹`. The direct solver factors `S` itself:
//! [`SymmetricOperator`] assembles it straight from the stencil, with `ε`
//! only on its diagonal, and [`SymmetricFactor`] holds its pivot-free
//! `L·Δ·Lᵀ`. The forward system `A·x = b` is `S·x = D·b`, and the adjoint
//! system `Aᵀ·y = c` is `y = D·S⁻¹·c`.

use crate::pml::PmlConfig;
use maps_core::{Grid2d, RealField2d};
use maps_linalg::{
    BandedLdlt, BandedMatrix, Complex64, CooMatrix, CsrMatrix, LinalgError, SymBandedMatrix,
};

/// Bytes one factor-cache entry holds for an `nx × ny` grid: the
/// `L·Δ·Lᵀ` factor of the symmetrized operator, whose lower band keeps
/// `nx + 1` complex doubles per cell, plus the operator's lower stencil,
/// 3 per cell, which the residual guard applies. 8.6 MB at 80×80.
/// Saturates instead of overflowing, so it can size a grid from untrusted
/// input before anything is allocated.
pub fn factor_bytes(nx: usize, ny: usize) -> usize {
    nx.saturating_add(4)
        .saturating_mul(nx)
        .saturating_mul(ny)
        .saturating_mul(std::mem::size_of::<Complex64>())
}

/// The diagonal `D` that symmetrizes the operator at (grid, ω, PML): entry
/// `k = iy·nx + ix` is `sx[ix+½]·sy[iy+½]`, the staggered stretch factors
/// [`HelmholtzOperator::new`] divides row `k` by. `D·A` is complex
/// symmetric, so `Aᵀ = D·A·D⁻¹`, and `D = 1` outside the PML. It needs no
/// permittivity and no assembled operator, so a solve that hits the factor
/// cache assembles nothing.
pub fn symmetrizer(grid: Grid2d, omega: f64, pml: &PmlConfig) -> Vec<Complex64> {
    let sxf = pml.stretch_factors(grid.nx, grid.dl, omega, 0.5);
    let syf = pml.stretch_factors(grid.ny, grid.dl, omega, 0.5);
    syf.iter()
        .flat_map(|sy| sxf.iter().map(move |sx| *sx * *sy))
        .collect()
}

/// Checks the operator inputs every assembly shares.
///
/// # Panics
///
/// Panics if `omega` is not positive or the PML is thicker than half the
/// grid in either direction.
fn check_assembly(grid: Grid2d, omega: f64, pml: &PmlConfig) {
    assert!(omega > 0.0, "omega must be positive");
    assert!(
        2 * pml.thickness < grid.nx && 2 * pml.thickness < grid.ny,
        "pml thicker than grid"
    );
}

/// The symmetrized operator `S = D·A` at (ε, ω, PML), held as its lower
/// stencil: per cell `k`, `S[k][k]`, `S[k][k−1]` and `S[k][k−nx]` (zero
/// where the neighbour is a wall). The entries above the diagonal follow
/// by symmetry.
#[derive(Debug, Clone)]
pub struct SymmetricOperator {
    grid: Grid2d,
    lower: Vec<[Complex64; 3]>,
}

impl SymmetricOperator {
    /// Assembles `S = D·A` from the stencil for a permittivity map at
    /// angular frequency `omega` with the given PML. With `D_k = sx[ix+½]·
    /// sy[iy+½]` the row factor of `A` cancels: the x couplings of row `k`
    /// are `sy[iy+½]/(dl²·sx̄)`, the y couplings `sx[ix+½]/(dl²·sȳ)`, and
    /// the permittivity enters the diagonal only, as `D_k·ω²·ε_k`.
    ///
    /// # Panics
    ///
    /// Panics if `omega` is not positive or the PML is thicker than half the
    /// grid in either direction.
    pub fn new(eps_r: &RealField2d, omega: f64, pml: &PmlConfig) -> Self {
        let grid = eps_r.grid();
        check_assembly(grid, omega, pml);
        let (nx, ny, dl) = (grid.nx, grid.ny, grid.dl);
        let inv_dl2 = 1.0 / (dl * dl);
        let recips = |s: Vec<Complex64>| s.iter().map(|s| s.recip()).collect::<Vec<_>>();
        let inv_sxb = recips(pml.stretch_factors(nx, dl, omega, 0.0));
        let inv_syb = recips(pml.stretch_factors(ny, dl, omega, 0.0));
        let sxf = pml.stretch_factors(nx, dl, omega, 0.5);
        let syf = pml.stretch_factors(ny, dl, omega, 0.5);
        // The diagonal's coupling sums along each axis; like `A`, a wall
        // drops the outward coupling at the far end only.
        let sums = |inv: &[Complex64]| {
            (0..inv.len())
                .map(|i| -(inv.get(i + 1).copied().unwrap_or(Complex64::ZERO) + inv[i]) * inv_dl2)
                .collect::<Vec<_>>()
        };
        let (cx, cy) = (sums(&inv_sxb), sums(&inv_syb));
        let w2 = omega * omega;
        let mut lower = Vec::with_capacity(grid.len());
        for iy in 0..ny {
            for ix in 0..nx {
                let d = sxf[ix] * syf[iy];
                let center = syf[iy] * cx[ix] + sxf[ix] * cy[iy] + d * (w2 * eps_r.get(ix, iy));
                let west = if ix > 0 {
                    syf[iy] * inv_sxb[ix] * inv_dl2
                } else {
                    Complex64::ZERO
                };
                let south = if iy > 0 {
                    sxf[ix] * inv_syb[iy] * inv_dl2
                } else {
                    Complex64::ZERO
                };
                lower.push([center, west, south]);
            }
        }
        SymmetricOperator { grid, lower }
    }

    /// The grid the operator acts on.
    pub fn grid(&self) -> Grid2d {
        self.grid
    }

    /// `y = S·x` from the stencil, without materializing a matrix.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != grid.len()`.
    pub fn apply(&self, x: &[Complex64]) -> Vec<Complex64> {
        let mut y = vec![Complex64::ZERO; x.len()];
        self.apply_into(x, &mut y);
        y
    }

    /// Overwrites `y` with `S·x`. Row `k` takes its lower entries and, by
    /// symmetry, the west and south entries of cells `k + 1` and `k + nx`;
    /// a wall's coupling is stored as zero, so only the first and last grid
    /// rows need bounds.
    ///
    /// # Panics
    ///
    /// Panics if `x` or `y` is not `grid.len()` long.
    pub fn apply_into(&self, x: &[Complex64], y: &mut [Complex64]) {
        let (n, nx) = (self.lower.len(), self.grid.nx);
        assert!(x.len() == n && y.len() == n, "operator apply size mismatch");
        let s = &self.lower;
        let edge = |k: usize| {
            let mut acc = s[k][0] * x[k];
            if k >= 1 {
                acc += s[k][1] * x[k - 1];
            }
            if k + 1 < n {
                acc += s[k + 1][1] * x[k + 1];
            }
            if k >= nx {
                acc += s[k][2] * x[k - nx];
            }
            if k + nx < n {
                acc += s[k + nx][2] * x[k + nx];
            }
            acc
        };
        let inner = nx.min(n)..n.saturating_sub(nx).max(nx);
        for k in (0..inner.start).chain(inner.end..n) {
            y[k] = edge(k);
        }
        for k in inner {
            y[k] = s[k][0] * x[k]
                + s[k][1] * x[k - 1]
                + s[k + 1][1] * x[k + 1]
                + s[k][2] * x[k - nx]
                + s[k + nx][2] * x[k + nx];
        }
    }

    /// The lower band of `S` (bandwidth `nx`).
    fn to_band(&self) -> SymBandedMatrix {
        let nx = self.grid.nx;
        let mut band = SymBandedMatrix::zeros(self.lower.len(), nx);
        for (k, &[center, west, south]) in self.lower.iter().enumerate() {
            band.set(k, k, center);
            if k % nx > 0 {
                band.set(k, k - 1, west);
            }
            if k >= nx {
                band.set(k, k - nx, south);
            }
        }
        band
    }

    /// Factors `S` as `L·Δ·Lᵀ`, keeping the stencil for the residual guard.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Singular`] at an exactly zero pivot.
    pub fn factorize(self) -> Result<SymmetricFactor, LinalgError> {
        let ldlt = self.to_band().factorize()?;
        Ok(SymmetricFactor { op: self, ldlt })
    }
}

/// The factorization every direct solve uses: the `L·Δ·Lᵀ` of the
/// symmetrized operator `S`, and `S`'s stencil beside it for the residual
/// guard. One factor answers forward and adjoint solves alike.
#[derive(Debug)]
pub struct SymmetricFactor {
    op: SymmetricOperator,
    ldlt: BandedLdlt,
}

impl SymmetricFactor {
    /// Solves `S·x = r` for every right-hand side in `xs`, in place, as one
    /// block, then checks each solution's relative residual against the
    /// kept stencil (one stencil matvec) and refines it once when it
    /// exceeds [`maps_linalg::REFINE_ABOVE`]
    /// ([`BandedLdlt::solve_refined`]). Each residual goes to the
    /// `fdfd.solve.rel_residual` histogram and each refinement to the
    /// `fdfd.solve.refined` counter.
    pub fn solve(&self, xs: &mut [Vec<Complex64>]) {
        let residuals = self.ldlt.solve_refined(xs, |x, y| self.op.apply_into(x, y));
        let histogram = maps_obs::histogram("fdfd.solve.rel_residual");
        for r in &residuals {
            histogram.record(r.relative);
            if r.refined {
                maps_obs::counter("fdfd.solve.refined").inc();
            }
        }
    }
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
        let grid = eps_r.grid();
        check_assembly(grid, omega, pml);
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

    /// Assembles the general banded-matrix form (bandwidth `nx`), for the
    /// pivoted LU and `matvec_transposed`; the direct solver factors
    /// [`SymmetricOperator`] instead.
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

    /// One cache entry is the factor's band plus the kept stencil.
    #[test]
    fn factor_bytes_matches_the_assembled_factor() {
        let grid = Grid2d::new(32, 28, 0.05);
        let op = SymmetricOperator::new(
            &RealField2d::constant(grid, 2.25),
            maps_core::omega_for_wavelength(1.55),
            &PmlConfig::default(),
        );
        let band = op.to_band();
        let entries = (band.bandwidth() + 1) * band.dim() + 3 * op.lower.len();
        assert_eq!(
            factor_bytes(32, 28),
            entries * std::mem::size_of::<Complex64>()
        );
        assert_eq!(factor_bytes(80, 80), 8_601_600);
        assert_eq!(factor_bytes(usize::MAX / 2, 3), usize::MAX);
    }

    /// The symmetrized stencil is `D·A`: applying it equals scaling `A·x`
    /// by `D`, to rounding, at PML 12 and 16.
    #[test]
    fn symmetric_operator_is_d_times_a() {
        let grid = Grid2d::new(40, 36, 0.05);
        let mut eps = RealField2d::constant(grid, 2.25);
        eps.set(20, 18, 12.0);
        let omega = maps_core::omega_for_wavelength(1.55);
        let x: Vec<Complex64> = (0..grid.len())
            .map(|k| Complex64::new((k as f64 * 0.01).sin(), (k as f64 * 0.013).cos()))
            .collect();
        for thickness in [12, 16] {
            let pml = PmlConfig {
                thickness,
                ..PmlConfig::default()
            };
            let d = symmetrizer(grid, omega, &pml);
            let dax: Vec<Complex64> = HelmholtzOperator::new(&eps, omega, &pml)
                .apply(&x)
                .iter()
                .zip(&d)
                .map(|(ax, d)| *ax * *d)
                .collect();
            let sx = SymmetricOperator::new(&eps, omega, &pml).apply(&x);
            let diff: Vec<Complex64> = sx.iter().zip(&dax).map(|(a, b)| *a - *b).collect();
            assert!(znorm(&diff) <= 1e-14 * znorm(&dax), "PML {thickness}");
        }
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
