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
//! this operator `A` as a general banded matrix (bandwidth `nx`, fields
//! stored row-major by `iy`) or applies it as a stencil. No solve uses it:
//! it is the independently assembled `A` that the `maxwell_residual` rich
//! label and the tests check solutions against.
//!
//! Row `k = (ix, iy)` of `A` carries the factor `1/(sx[ix+½]·sy[iy+½])`, so
//! scaling it by [`symmetrizer`]'s `D = diag(sx[ix+½]·sy[iy+½])` makes
//! `S = D·A` complex symmetric (the standard SC-PML symmetrization). Hence
//! `Aᵀ = D·A·D⁻¹ = S·D⁻¹`. Both solver backends solve `S`:
//! [`SymmetricOperator`] assembles it straight from the stencil, with `ε`
//! only on its diagonal; the direct backend factors it ([`SymmetricFactor`]
//! holds its pivot-free `L·Δ·Lᵀ`) and the iterative one runs BiCGSTAB on
//! its stencil. The forward system `A·x = b` is `S·x = D·b`, and the
//! adjoint system `Aᵀ·y = c` is `S·z = c` with `y = D·z`.
//!
//! The factorization is twisted: it meets in the middle grid row,
//! `b = ⌊ny/2⌋·nx`. The top half eliminates cells `0..b` in natural order;
//! the bottom half factors the Schur complement on cells `b..n` in reversed
//! order, so cell `n − 1` is its first pivot. Without pivoting, a half's
//! first `c` factor columns depend only on the cells up to `c + nx` counted
//! from its own end. An inverse-design step changes only a window of cells,
//! so a factor of a design that agrees with a cached one outside the
//! window takes both halves' exterior columns from it
//! (`SymmetricOperator::factorize_from`) and eliminates only the rows
//! around the window, bit-identical to factoring from scratch.

use crate::pml::PmlConfig;
use maps_core::{Grid2d, RealField2d};
use maps_linalg::{BandedLdlt, BandedMatrix, Complex64, LinalgError, Seam, SymBandedMatrix};
use std::ops::Range;
use std::sync::Arc;

/// Bytes one factor-cache entry holds for an `nx × ny` grid: the two
/// halves of the twisted `L·Δ·Lᵀ`, whose lower bands keep `nx + 1` complex
/// doubles for each of the `n + nx` columns (the top overlaps the bottom by
/// one grid row), the operator's lower stencil, 3 per cell, which the
/// residual guard applies, and the two seams, `nx·(nx + 1)` each. 8.9 MB
/// at 80×80. Saturates instead of overflowing, so it can size a grid from
/// untrusted input before anything is allocated.
pub fn factor_bytes(nx: usize, ny: usize) -> usize {
    let n = nx.saturating_mul(ny);
    let bands = nx.saturating_add(1).saturating_mul(n.saturating_add(nx));
    let seams = nx.saturating_mul(nx.saturating_add(1)).saturating_mul(2);
    bands
        .saturating_add(n.saturating_mul(3))
        .saturating_add(seams)
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

    /// The diagonal of `S`, which the iterative backend's Jacobi
    /// preconditioner inverts.
    pub(crate) fn diagonal(&self) -> Vec<Complex64> {
        self.lower.iter().map(|[center, ..]| *center).collect()
    }

    /// The first and last cells whose stencil differs, bit for bit, from
    /// `other`'s, or `None` when none does.
    fn differing(&self, other: &SymmetricOperator) -> Option<(usize, usize)> {
        let bits = |s: &[Complex64; 3]| s.map(|z| (z.re.to_bits(), z.im.to_bits()));
        let differs = |k: &usize| bits(&self.lower[*k]) != bits(&other.lower[*k]);
        let n = self.lower.len();
        let first = (0..n).find(differs)?;
        Some((first, (0..n).rev().find(differs).unwrap_or(first)))
    }

    /// Writes the lower stencil of `cells` into the top half's natural
    /// band: cell `k` puts its diagonal in column `k`, its west coupling in
    /// column `k − 1` and its south coupling in column `k − nx`.
    fn assemble_top(&self, band: &mut SymBandedMatrix, cells: Range<usize>) {
        let nx = self.grid.nx;
        for k in cells {
            let [center, west, south] = self.lower[k];
            band.set(k, k, center);
            if k % nx > 0 {
                band.set(k, k - 1, west);
            }
            if k >= nx {
                band.set(k, k - nx, south);
            }
        }
    }

    /// Writes `columns` of the bottom half's reversed band: column
    /// `m = n − 1 − k` holds cell `k`'s lower stencil, `[center, west,
    /// south]` at offsets 0, 1 and `nx`.
    fn assemble_bottom(&self, band: &mut SymBandedMatrix, columns: Range<usize>) {
        let (nx, n) = (self.grid.nx, self.lower.len());
        for m in columns {
            let k = n - 1 - m;
            let [center, west, south] = self.lower[k];
            band.set(m, m, center);
            if k % nx > 0 {
                band.set(m + 1, m, west);
            }
            band.set(m + nx, m, south);
        }
    }

    /// Factors `S` as a twisted `L·Δ·Lᵀ`, keeping the stencil for the
    /// residual guard.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Singular`] at an exactly zero pivot, with the
    /// index of its cell.
    pub fn factorize(self) -> Result<SymmetricFactor, LinalgError> {
        self.factorize_from(None, None).map(|(factor, _)| factor)
    }

    /// [`SymmetricOperator::factorize`], resuming each half from a factor
    /// of another design where the two stencils agree. Returns the factor
    /// and the number of columns it took from that factor instead of
    /// eliminating them.
    ///
    /// `donor` is a factor to read from; `spare` a spent factor whose
    /// storage the new one is built in, and, without a `donor`, the factor
    /// read from as well. Comparing stencil bits gives the first and last
    /// differing cells `p` and `q`. Each half resumes from the donor's
    /// seam on its side when the seam ends before the first difference
    /// counted from that half's end (and, for the bottom, before the block
    /// the top hands over): it takes the donor's factor columns before the
    /// seam, unless the spare was built on the same seam and holds them
    /// already, restores the seam, assembles the rest from the stencil and
    /// eliminates from the seam. When the comparison allows a seam further
    /// along, one is copied on the way. A resumed factor is bit-identical
    /// to a fresh one, and so is its error.
    ///
    /// # Errors
    ///
    /// As [`SymmetricOperator::factorize`].
    pub(crate) fn factorize_from(
        self,
        donor: Option<&SymmetricFactor>,
        spare: Option<SymmetricFactor>,
    ) -> Result<(SymmetricFactor, usize), LinalgError> {
        let (grid, n) = (self.grid, self.lower.len());
        let nx = grid.nx;
        let fits = |f: &SymmetricFactor| (f.op.grid.nx, f.op.grid.ny) == (nx, grid.ny);
        let donor = donor.filter(|f| fits(f));
        let spare = spare.filter(fits);
        // The meeting row: the top eliminates cells `..b`, the bottom the
        // other `nb` in reversed order, its last `nx` columns the block the
        // top hands over.
        let b = (grid.ny / 2) * nx;
        let nb = n - b;
        let reference = donor.or(spare.as_ref());
        // The columns each half's seam must end within.
        let limits = reference.map_or([0, 0], |f| match self.differing(&f.op) {
            Some((p, q)) => [p.min(b), (n - 1 - q).min(nb - nx)],
            None => [b, nb - nx],
        });
        let [top_seam, bottom_seam] = reference.map_or([None, None], |f| f.seams.clone());
        let (spare_top, spare_bottom, [spare_top_seam, spare_bottom_seam]) = match spare {
            Some(f) => (Some(f.top), Some(f.bottom), f.seams),
            None => (None, None, [None, None]),
        };

        let top_plan = Resume::new(nx, limits[0], top_seam);
        let mut top = top_plan.band(
            b + nx,
            nx,
            donor.map(|f| &f.top),
            spare_top.map(|f| (f, spare_top_seam)),
        );
        self.assemble_top(&mut top, top_plan.assembled_from(nx)..b + nx);
        let (top, top_snapshot) = top.eliminate(top_plan.column, b, top_plan.snapshot)?;

        let bottom_plan = Resume::new(nx, limits[1], bottom_seam);
        let mut bottom = bottom_plan.band(
            nb,
            nx,
            donor.map(|f| &f.bottom),
            spare_bottom.map(|f| (f, spare_bottom_seam)),
        );
        self.assemble_bottom(&mut bottom, bottom_plan.assembled_from(nx)..nb - nx);
        // What the top's elimination left in cells `b..b + nx` is the
        // bottom's last `nx` reversed columns.
        for i in b..b + nx {
            for j in b..=i {
                bottom.set(n - 1 - i, n - 1 - j, top.get(i, j));
            }
        }
        let (bottom, bottom_snapshot) = bottom
            .eliminate(bottom_plan.column, nb, bottom_plan.snapshot)
            .map_err(|e| match e {
                LinalgError::Singular { index } => LinalgError::Singular {
                    index: n - 1 - index,
                },
                e => e,
            })?;
        let reused = top_plan.column + bottom_plan.column;
        let seams = [
            top_plan.keep(top_snapshot),
            bottom_plan.keep(bottom_snapshot),
        ];
        Ok((
            SymmetricFactor {
                op: self,
                top,
                bottom,
                seams,
            },
            reused,
        ))
    }
}

/// Where one half of a factorization starts: behind a seam of the factor
/// it reads from, or at column 0, and where it takes a seam of its own.
struct Resume {
    /// The first column eliminated: the seam's column when resuming.
    column: usize,
    /// The column to take a new seam at, further along than `seam`.
    snapshot: Option<usize>,
    /// The seam resumed from.
    seam: Option<Arc<Seam>>,
}

impl Resume {
    /// Resumes from `seam` when it ends within the first `limit` columns,
    /// and plans a new seam at the last column that does, `limit − nx`,
    /// when that lies further along.
    fn new(nx: usize, limit: usize, seam: Option<Arc<Seam>>) -> Self {
        let seam = seam.filter(|s| s.column() + nx <= limit);
        let column = seam.as_ref().map_or(0, |s| s.column());
        Resume {
            column,
            snapshot: limit.checked_sub(nx).filter(|&c| c > column),
            seam,
        }
    }

    /// The first column (in the top also the first cell) the stencil is
    /// assembled from.
    fn assembled_from(&self, nx: usize) -> usize {
        if self.seam.is_some() {
            self.column + nx
        } else {
            0
        }
    }

    /// The half's band, ready to assemble from [`Resume::assembled_from`]:
    /// the factor columns before the seam and the seam itself in place, the
    /// columns after it zero. It is built in `spare`'s storage when there
    /// is one. A spare that is itself the factor read from (no `donor`), or
    /// was built on the same seam, already holds the factor columns; they
    /// are otherwise copied from `donor`.
    fn band(
        &self,
        dim: usize,
        nx: usize,
        donor: Option<&BandedLdlt>,
        spare: Option<(BandedLdlt, Option<Arc<Seam>>)>,
    ) -> SymBandedMatrix {
        let (mut band, holds_columns) = match spare {
            Some((f, seam)) => {
                let same_seam =
                    matches!((&seam, &self.seam), (Some(a), Some(b)) if Arc::ptr_eq(a, b));
                (f.into_band(), donor.is_none() || same_seam)
            }
            None => (SymBandedMatrix::zeros(dim, nx), false),
        };
        if let Some(seam) = &self.seam {
            if !holds_columns {
                let donor = donor.expect("a seam comes from the donor or the spare");
                band.copy_columns(donor, 0..self.column);
            }
            band.restore(seam);
        }
        band.clear_columns(self.assembled_from(nx)..dim);
        band
    }

    /// The seam the new half keeps: its own snapshot, else the one it
    /// resumed from.
    fn keep(self, snapshot: Option<Seam>) -> Option<Arc<Seam>> {
        snapshot.map(Arc::new).or(self.seam)
    }
}

/// The factorization every direct solve uses: the twisted `L·Δ·Lᵀ` of the
/// symmetrized operator `S`, and `S`'s stencil beside it for the residual
/// guard. One factor answers forward and adjoint solves alike.
#[derive(Debug)]
pub struct SymmetricFactor {
    op: SymmetricOperator,
    /// Cells `..b` eliminated in natural order, over the leading `b + nx`
    /// rows and columns.
    top: BandedLdlt,
    /// The Schur complement on cells `b..`, factored in reversed order.
    bottom: BandedLdlt,
    /// The top's and the bottom's seams, shared with the factors resumed
    /// from them.
    seams: [Option<Arc<Seam>>; 2],
}

impl SymmetricFactor {
    /// Asserts both halves of two factors agree entry by entry, down to the
    /// sign of zero.
    #[cfg(test)]
    pub(crate) fn assert_same_bits(&self, other: &SymmetricFactor, what: &str) {
        for (a, b, half) in [
            (&self.top, &other.top, "top"),
            (&self.bottom, &other.bottom, "bottom"),
        ] {
            let (n, kd) = (a.dim(), a.bandwidth());
            assert_eq!((n, kd, a.pivots()), (b.dim(), b.bandwidth(), b.pivots()));
            for j in 0..n {
                for i in j..(j + kd + 1).min(n) {
                    let (x, y) = (a.get(i, j), b.get(i, j));
                    assert!(
                        x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits(),
                        "{what}: {half} ({i},{j}): {x:?} vs {y:?}"
                    );
                }
            }
        }
    }

    /// The columns of the top's and the bottom's seams.
    #[cfg(test)]
    pub(crate) fn seam_columns(&self) -> [Option<usize>; 2] {
        self.seams
            .each_ref()
            .map(|s| s.as_ref().map(|s| s.column()))
    }

    /// Solves `S·x = r` for every right-hand side in `xs`, in place, as one
    /// block through both halves ([`BandedLdlt::solve_twisted`]), then
    /// checks each solution's relative residual against the kept stencil
    /// (one stencil matvec) and refines it once when it exceeds
    /// [`maps_linalg::REFINE_ABOVE`] ([`maps_linalg::solve_refined`]). Each
    /// residual goes to the `fdfd.solve.rel_residual` histogram and each
    /// refinement to the `fdfd.solve.refined` counter.
    pub fn solve(&self, xs: &mut [Vec<Complex64>]) {
        let residuals = maps_linalg::solve_refined(
            xs,
            |xs| self.top.solve_twisted(&self.bottom, xs),
            |x, y| self.op.apply_into(x, y),
        );
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

/// The Helmholtz operator `A` as precomputed stencil data for the whole
/// grid. No solve runs on it: both backends solve the symmetrized
/// [`SymmetricOperator`], and `A` is what their solutions are checked
/// against.
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

    /// One cache entry is both halves of the twisted factor, the kept
    /// stencil and the two seams, here of a factor that snapshotted both.
    #[test]
    fn factor_bytes_matches_the_assembled_factor() {
        let grid = Grid2d::new(32, 28, 0.05);
        let (omega, pml) = (maps_core::omega_for_wavelength(1.55), PmlConfig::default());
        let base = RealField2d::constant(grid, 2.25);
        let mut design = base.clone();
        design.set(16, 14, 12.0);
        let donor = SymmetricOperator::new(&base, omega, &pml)
            .factorize()
            .unwrap();
        let (f, _) = SymmetricOperator::new(&design, omega, &pml)
            .factorize_from(Some(&donor), None)
            .unwrap();
        let band = |h: &BandedLdlt| (h.bandwidth() + 1) * h.dim();
        let seams: Vec<usize> = f.seams.iter().flatten().map(|s| s.entries()).collect();
        assert_eq!(seams.len(), 2, "both halves took a seam");
        let entries =
            band(&f.top) + band(&f.bottom) + 3 * f.op.lower.len() + seams.iter().sum::<usize>();
        assert_eq!(
            factor_bytes(32, 28),
            entries * std::mem::size_of::<Complex64>()
        );
        assert_eq!(factor_bytes(80, 80), 8_912_640);
        assert_eq!(factor_bytes(usize::MAX / 2, 3), usize::MAX);
    }

    /// `‖S·x − b‖/‖b‖` of every solution of a guarded solve with `f`.
    fn guarded_residuals(op: &SymmetricOperator, f: &SymmetricFactor) -> Vec<f64> {
        let n = op.grid().len();
        let rhs: Vec<Vec<Complex64>> = (0..2)
            .map(|r| {
                (0..n)
                    .map(|k| Complex64::new(((k + r) as f64 * 0.7).sin(), (k as f64 * 0.3).cos()))
                    .collect()
            })
            .collect();
        let mut xs = rhs.clone();
        f.solve(&mut xs);
        xs.iter()
            .zip(&rhs)
            .map(|(x, b)| {
                let r: Vec<Complex64> = op.apply(x).iter().zip(b).map(|(p, q)| *p - *q).collect();
                znorm(&r) / znorm(b)
            })
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(48))]

        /// Random grids (`ny` 1, 2, 3 or odd, PML up to 2 cells where it
        /// fits) and a chain of designs that re-randomize one random window
        /// of a random ε, then a second window: row 0, the last row, the
        /// meeting row, or another random one. Every
        /// factor resumed from its predecessor equals the fresh one bit
        /// for bit: in fresh storage, in the storage of an unrelated
        /// design's factor (whose exterior must be overwritten), in the
        /// donor's own, and in a spent factor built on the donor's seams
        /// (which holds the exterior already). Each meets 1e-12 after the
        /// guard.
        #[test]
        fn resumed_twisted_factor_is_bit_identical_to_fresh(
            nx in 1usize..12,
            ny_pick in 0usize..7,
            seed in 0u64..u64::MAX,
            pml_pick in 0usize..3,
        ) {
            let ny = [1, 2, 3, 5, 7, 9, 13][ny_pick];
            let grid = Grid2d::new(nx, ny, 0.1);
            let thickness = pml_pick.min((nx.min(ny) - 1) / 2);
            let pml = PmlConfig { thickness, ..PmlConfig::default() };
            let omega = maps_core::omega_for_wavelength(1.55);
            let mut state = seed | 1;
            let mut next = move |m: usize| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state % m as u64) as usize
            };
            let window = |next: &mut dyn FnMut(usize) -> usize| {
                let (x0, y0) = (next(nx), next(ny));
                (x0..x0 + 1 + next(nx - x0), y0..y0 + 1 + next(ny - y0))
            };
            // The second window is row 0, the last row or the meeting row
            // (each in the PML when there is one) as often as a random one.
            let first = window(&mut next);
            let second = match next(4) {
                0 => (0..nx, 0..1),
                1 => (0..nx, ny - 1..ny),
                2 => (0..nx, ny / 2..ny / 2 + 1),
                _ => window(&mut next),
            };
            let what = format!("{nx}x{ny} PML {thickness} seed {seed} {first:?} {second:?}");
            let mut paint = |eps: &mut RealField2d, (xs, ys): &(Range<usize>, Range<usize>)| {
                for iy in ys.clone() {
                    for ix in xs.clone() {
                        eps.set(ix, iy, 1.0 + next(1100) as f64 / 100.0);
                    }
                }
            };
            let whole = (0..nx, 0..ny);
            let mut unrelated = RealField2d::constant(grid, 1.0);
            paint(&mut unrelated, &whole);
            let mut eps = RealField2d::constant(grid, 1.0);
            paint(&mut eps, &whole);
            let mut built: Vec<Option<SymmetricFactor>> = Vec::new();
            for step in 0..7 {
                paint(&mut eps, if step < 5 { &first } else { &second });
                let op = SymmetricOperator::new(&eps, omega, &pml);
                let fresh = op.clone().factorize().unwrap();
                let (donor, spare) = match step {
                    0 => (None, None),
                    3 => {
                        let op = SymmetricOperator::new(&unrelated, omega, &pml);
                        (Some(2), Some(op.factorize().unwrap()))
                    }
                    4 => (None, built[3].take()),
                    // Built in the donor's storage, so on the same seams.
                    5 => (Some(4), built[1].take()),
                    _ => (Some(step - 1), None),
                };
                let donor = donor.and_then(|i: usize| built[i].as_ref());
                let (f, _) = op.factorize_from(donor, spare).unwrap();
                f.assert_same_bits(&fresh, &format!("{what} step {step}"));
                let op = SymmetricOperator::new(&eps, omega, &pml);
                for r in guarded_residuals(&op, &f) {
                    assert!(r <= 1e-12, "{what} step {step}: residual {r:e}");
                }
                built.push(Some(f));
            }
        }
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
    fn banded_and_apply_agree() {
        let op = setup();
        let n = op.grid().len();
        let x: Vec<Complex64> = (0..n)
            .map(|k| Complex64::new((k as f64 * 0.01).sin(), (k as f64 * 0.013).cos()))
            .collect();
        let via_apply = op.apply(&x);
        let via_banded = op.to_banded().matvec(&x);
        let d: Vec<Complex64> = via_apply
            .iter()
            .zip(&via_banded)
            .map(|(a, b)| *a - *b)
            .collect();
        assert!(znorm(&d) < 1e-10);
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
            let a = HelmholtzOperator::new(&eps, omega, &pml).to_banded();
            let d = symmetrizer(grid, omega, &pml);
            let (mut raw, mut scaled): (f64, f64) = (0.0, 0.0);
            let (n, nx) = (grid.len(), grid.nx);
            for i in 0..n {
                for j in i.saturating_sub(nx)..(i + nx + 1).min(n) {
                    let (v, w) = (a.get(i, j), a.get(j, i));
                    if v == Complex64::ZERO && w == Complex64::ZERO {
                        continue;
                    }
                    raw = raw.max((v - w).abs() / v.abs().max(w.abs()));
                    let (s, t) = (d[i] * v, d[j] * w);
                    scaled = scaled.max((s - t).abs() / s.abs().max(t.abs()));
                }
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
