//! Complex banded matrices with LU factorization.
//!
//! The 2-D FDFD operator is a banded matrix whose bandwidth equals the grid
//! width, so an LAPACK-style banded LU (`zgbtrf`/`zgbtrs`) gives an exact
//! direct solve in `O(n·b²)` time. [`BandedLu::solve`] sweeps one
//! direction, `A x = b`; one factorization serves any number of right-hand
//! sides. The FDFD adjoint `Aᵀ y = c` needs no second sweep: `maps-fdfd`
//! answers it as a diagonally scaled forward solve.
//!
//! Both halves are cache-blocked without changing a bit of the result.
//! [`BandedMatrix::factorize`] eliminates panels of columns and defers each
//! panel's updates to the columns right of it, so a trailing column is
//! loaded once per panel instead of once per pivot. The blocked solve sweeps
//! up to [`RHS_BLOCK`] right-hand sides per pass over the factors. Each
//! element still sees the same operations in the same order as in the
//! unblocked loops, so the factors, pivots and solutions are bit-identical
//! to them. The tests keep the unblocked loops as the references and pin
//! both kernels against them.

use crate::{Complex64, LinalgError};

/// Right-hand sides [`BandedLu::solve`] sweeps per pass over the L/U factors
/// when handed a block of two or more systems.
///
/// The blocked substitution kernel traverses the band data once per *chunk*
/// of right-hand sides instead of once per RHS. Eight lanes of `f64` fill one
/// AVX-512 vector (two AVX2 vectors) per split plane, and the per-row lane
/// strips stay within a cache line, so this width captures most of the
/// bandwidth win without bloating the interleaved scratch planes.
pub const RHS_BLOCK: usize = 8;

/// A complex banded matrix in LAPACK band storage (column-major).
///
/// `kl` sub-diagonals and `ku` super-diagonals are stored; factorization with
/// partial pivoting needs `kl` additional rows of fill-in, so the leading
/// dimension is `2·kl + ku + 1`. Element `A[i][j]` lives at row offset
/// `kl + ku + i − j` of column `j`.
#[derive(Debug, Clone)]
pub struct BandedMatrix {
    n: usize,
    kl: usize,
    ku: usize,
    ldab: usize,
    data: Vec<Complex64>,
}

impl BandedMatrix {
    /// Creates an `n × n` banded matrix of zeros with the given bandwidths.
    pub fn zeros(n: usize, kl: usize, ku: usize) -> Self {
        let ldab = 2 * kl + ku + 1;
        BandedMatrix {
            n,
            kl,
            ku,
            ldab,
            data: vec![Complex64::ZERO; ldab * n],
        }
    }

    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Number of sub-diagonals.
    pub fn lower_bandwidth(&self) -> usize {
        self.kl
    }

    /// Number of super-diagonals.
    pub fn upper_bandwidth(&self) -> usize {
        self.ku
    }

    #[inline]
    fn offset(&self, i: usize, j: usize) -> usize {
        j * self.ldab + (self.kl + self.ku + i - j)
    }

    /// Returns `A[i][j]`, or zero outside the band.
    ///
    /// # Panics
    ///
    /// Panics if `i` or `j` is out of range.
    pub fn get(&self, i: usize, j: usize) -> Complex64 {
        assert!(i < self.n && j < self.n, "banded index out of range");
        if i + self.ku < j || j + self.kl < i {
            Complex64::ZERO
        } else {
            self.data[self.offset(i, j)]
        }
    }

    /// Sets `A[i][j] = v`.
    ///
    /// # Panics
    ///
    /// Panics if `(i, j)` lies outside the band or out of range.
    pub fn set(&mut self, i: usize, j: usize, v: Complex64) {
        assert!(i < self.n && j < self.n, "banded index out of range");
        assert!(
            i + self.ku >= j && j + self.kl >= i,
            "entry ({i},{j}) outside band (kl={}, ku={})",
            self.kl,
            self.ku
        );
        let o = self.offset(i, j);
        self.data[o] = v;
    }

    /// Adds `v` to `A[i][j]`.
    ///
    /// # Panics
    ///
    /// Panics if `(i, j)` lies outside the band or out of range.
    pub fn add(&mut self, i: usize, j: usize, v: Complex64) {
        assert!(i < self.n && j < self.n, "banded index out of range");
        assert!(
            i + self.ku >= j && j + self.kl >= i,
            "entry ({i},{j}) outside band"
        );
        let o = self.offset(i, j);
        self.data[o] += v;
    }

    /// Matrix–vector product `A x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.dim()`.
    pub fn matvec(&self, x: &[Complex64]) -> Vec<Complex64> {
        assert_eq!(x.len(), self.n, "banded matvec dimension mismatch");
        let mut y = vec![Complex64::ZERO; self.n];
        for j in 0..self.n {
            let xj = x[j];
            if xj == Complex64::ZERO {
                continue;
            }
            let ilo = j.saturating_sub(self.ku);
            let ihi = (j + self.kl).min(self.n - 1);
            for i in ilo..=ihi {
                y[i] += self.data[self.offset(i, j)] * xj;
            }
        }
        y
    }

    /// Transposed matrix–vector product `Aᵀ x` (unconjugated).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.dim()`.
    pub fn matvec_transposed(&self, x: &[Complex64]) -> Vec<Complex64> {
        assert_eq!(x.len(), self.n, "banded matvec dimension mismatch");
        let mut y = vec![Complex64::ZERO; self.n];
        for j in 0..self.n {
            let ilo = j.saturating_sub(self.ku);
            let ihi = (j + self.kl).min(self.n - 1);
            let mut acc = Complex64::ZERO;
            for i in ilo..=ihi {
                acc += self.data[self.offset(i, j)] * x[i];
            }
            y[j] = acc;
        }
        y
    }

    /// Factors the matrix as `P·L·U` with partial pivoting, consuming it.
    ///
    /// The elimination is LAPACK's unblocked `zgbtf2` reordered into panels
    /// of [`FACTOR_PANEL`] columns. Inside a panel each column is eliminated
    /// eagerly: pivot search, row swap, scaling, and the update of the
    /// panel's own later columns. Updates to columns right of the panel are
    /// deferred, then applied column by column: each trailing column is
    /// loaded once and receives every pending pivot column's update while it
    /// sits in L1, instead of the whole trailing window streaming through
    /// the cache once per pivot. A row swap needs both of its rows current,
    /// so a pivot column that swaps first flushes the pending updates.
    ///
    /// Every element still receives its updates in ascending pivot order,
    /// as `a -= f·m` (complex multiply, then subtract; no fused ops), and a
    /// zero `f` skips its update exactly as the unblocked loop does. The
    /// pivot search picks the same index as the plain `hypot` arg-max (see
    /// [`pivot_index`]). The factors and pivots are therefore bit-identical
    /// to the unblocked elimination, which the tests keep as the reference.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Singular`] when a zero pivot is encountered.
    pub fn factorize(mut self) -> Result<BandedLu, LinalgError> {
        let n = self.n;
        let (kl, ku, ldab) = (self.kl, self.ku, self.ldab);
        let kv = kl + ku; // row offset of the diagonal in band storage
        let mut ipiv = vec![0usize; n];
        // `ju` tracks the rightmost column touched by row interchanges so far.
        let mut ju = 0usize;
        // Pivot columns of the current panel whose updates right of the
        // panel are pending: (column, sub-diagonal count, last column its
        // update reaches). `ju` never shrinks, so the last entry reaches
        // furthest.
        let mut pending: Vec<(usize, usize, usize)> = Vec::with_capacity(FACTOR_PANEL);
        for p0 in (0..n).step_by(FACTOR_PANEL) {
            let p1 = (p0 + FACTOR_PANEL).min(n);
            for j in p0..p1 {
                // Zero the fill-in area of the column that enters the band
                // window.
                if j + kv < n {
                    self.data[(j + kv) * ldab..][..kl].fill(Complex64::ZERO);
                }
                let km = kl.min(n - 1 - j); // sub-diagonal count in column j
                let colj = j * ldab;
                let jp = pivot_index(&self.data[colj + kv..=colj + kv + km]);
                ipiv[j] = j + jp;
                if self.data[colj + kv + jp] == Complex64::ZERO {
                    return Err(LinalgError::Singular { index: j });
                }
                ju = ju.max((j + ku + jp).min(n - 1));
                if jp != 0 {
                    self.flush(&pending, p1);
                    pending.clear();
                    // Swap rows j and j+jp across columns j..=ju.
                    for k in j..=ju {
                        let a = k * ldab + kv + j - k;
                        let b = k * ldab + kv + j + jp - k;
                        self.data.swap(a, b);
                    }
                }
                if km > 0 {
                    let inv = self.data[colj + kv].recip();
                    for m in &mut self.data[colj + kv + 1..=colj + kv + km] {
                        *m = *m * inv;
                    }
                    for k in (j + 1)..=ju.min(p1 - 1) {
                        self.eliminate(j, km, k);
                    }
                    if ju >= p1 {
                        pending.push((j, km, ju));
                    }
                }
            }
            self.flush(&pending, p1);
            pending.clear();
        }
        Ok(BandedLu {
            n,
            kl,
            ku,
            ldab,
            data: self.data,
            ipiv,
        })
    }

    /// Applies pivot column `j`'s update to column `k > j`: rows
    /// `j+1 ..= j+km` lose `f·m`, where `f = A[j][k]` and `m` are column
    /// `j`'s multipliers. A zero `f` skips the update, as in the unblocked
    /// elimination, so the signs of zeros match it.
    #[inline(always)]
    fn eliminate(&mut self, j: usize, km: usize, k: usize) {
        let (ldab, kv) = (self.ldab, self.kl + self.ku);
        let (left, right) = self.data.split_at_mut(k * ldab);
        let col = &mut right[..ldab];
        let f = col[kv + j - k];
        if f == Complex64::ZERO {
            return;
        }
        let m = &left[j * ldab + kv + 1..][..km];
        for (a, &m) in col[kv + j + 1 - k..][..km].iter_mut().zip(m) {
            *a -= f * m;
        }
    }

    /// Applies the `pending` updates of a panel that ends before column
    /// `p1` to the columns right of it, one column at a time in ascending
    /// pivot order.
    fn flush(&mut self, pending: &[(usize, usize, usize)], p1: usize) {
        let Some(&(_, _, last)) = pending.last() else {
            return;
        };
        for k in p1..=last {
            for &(j, km, ju) in pending {
                if k <= ju {
                    self.eliminate(j, km, k);
                }
            }
        }
    }

    /// The unblocked `zgbtf2` elimination that [`BandedMatrix::factorize`]
    /// reorders: the reference its factors are pinned against bit for bit.
    #[cfg(test)]
    fn factorize_unblocked(mut self) -> Result<BandedLu, LinalgError> {
        let n = self.n;
        let (kl, ku, ldab) = (self.kl, self.ku, self.ldab);
        let kv = kl + ku;
        let mut ipiv = vec![0usize; n];
        let mut ju = 0usize;
        for j in 0..n {
            // Zero the fill-in area of the column that enters the band window.
            if j + kv < n {
                let col = (j + kv) * ldab;
                for r in 0..kl {
                    self.data[col + r] = Complex64::ZERO;
                }
            }
            let km = kl.min(n - 1 - j); // sub-diagonal count in column j
            let colj = j * ldab;
            let jp = pivot_index_hypot(&self.data[colj + kv..=colj + kv + km]);
            ipiv[j] = j + jp;
            let pivot = self.data[colj + kv + jp];
            if pivot == Complex64::ZERO {
                return Err(LinalgError::Singular { index: j });
            }
            ju = ju.max((j + ku + jp).min(n - 1));
            if jp != 0 {
                // Swap rows j and j+jp across columns j..=ju.
                for k in j..=ju {
                    let a = k * ldab + kv + j - k;
                    let b = k * ldab + kv + j + jp - k;
                    self.data.swap(a, b);
                }
            }
            if km > 0 {
                let inv = self.data[colj + kv].recip();
                for i in 1..=km {
                    let m = self.data[colj + kv + i] * inv;
                    self.data[colj + kv + i] = m;
                }
                // Rank-1 update of the trailing submatrix.
                for k in (j + 1)..=ju {
                    let colk = k * ldab;
                    let f = self.data[colk + kv + j - k];
                    if f == Complex64::ZERO {
                        continue;
                    }
                    for i in 1..=km {
                        let m = self.data[colj + kv + i];
                        self.data[colk + kv + j + i - k] -= f * m;
                    }
                }
            }
        }
        Ok(BandedLu {
            n,
            kl,
            ku,
            ldab,
            data: self.data,
            ipiv,
        })
    }
}

/// Columns eliminated per panel by [`BandedMatrix::factorize`]. Panels of
/// 4, 16 and 32 columns measured no faster on the 40×40 and 80×80 bending
/// device bands.
const FACTOR_PANEL: usize = 8;

/// Squared moduli outside `[SCREEN_LO, SCREEN_HI]` may have underflowed or
/// overflowed, so [`pivot_index`] compares them with `hypot`.
const SCREEN_LO: f64 = 1e-290;
const SCREEN_HI: f64 = 1e290;

/// Relative gap between two squared moduli below which [`pivot_index`]
/// compares them with `hypot`. `norm_sqr` is within ~1.5 ulp of `|z|²`
/// and `hypot` within 1 ulp of `|z|`, so a gap of 1e-13 (hundreds of ulps)
/// decides every comparison `hypot` would.
const SCREEN_TIE: f64 = 1e-13;

/// The partial pivot of a column segment: the index of its largest-modulus
/// entry, the first one on ties.
///
/// This is the index the plain arg-max over `hypot` moduli returns, with
/// `hypot` run only where it can matter. Each candidate is screened against
/// the current best by `norm_sqr`; when both squares lie in
/// `[SCREEN_LO, SCREEN_HI]` and differ by more than [`SCREEN_TIE`]
/// relative, their order is the order of their `hypot` moduli. Otherwise
/// (near ties, zeros, extreme magnitudes, infinities and NaN) the
/// comparison falls back to `hypot` itself, so it gives the same answer.
#[inline]
fn pivot_index(col: &[Complex64]) -> usize {
    let mut jp = 0;
    let mut best_sq = col[0].norm_sqr();
    // `hypot` modulus of `col[jp]`, computed only if a fallback needs it.
    let mut best_abs = None;
    for (i, z) in col.iter().enumerate().skip(1) {
        let s = z.norm_sqr();
        let screened = (SCREEN_LO..=SCREEN_HI).contains(&s)
            && (SCREEN_LO..=SCREEN_HI).contains(&best_sq)
            && (s - best_sq).abs() > SCREEN_TIE * s.max(best_sq);
        if screened {
            if s > best_sq {
                (jp, best_sq, best_abs) = (i, s, None);
            }
        } else {
            let a = z.abs();
            if a > *best_abs.get_or_insert_with(|| col[jp].abs()) {
                (jp, best_sq, best_abs) = (i, s, Some(a));
            }
        }
    }
    jp
}

/// The plain partial pivot: the first index of the largest `hypot`
/// modulus. The reference [`pivot_index`] is pinned against.
#[cfg(test)]
fn pivot_index_hypot(col: &[Complex64]) -> usize {
    let mut jp = 0;
    let mut best = col[0].abs();
    for (i, z) in col.iter().enumerate().skip(1) {
        let a = z.abs();
        if a > best {
            best = a;
            jp = i;
        }
    }
    jp
}

/// Columns fused per deferred-update flush in the blocked forward sweeps.
///
/// The forward substitutions defer each column's updates to rows below the
/// current panel and flush them as one multi-column gather pass: every row
/// in the flush range is loaded into registers once, receives up to `PANEL`
/// column contributions, and is stored once — instead of one read-modify-
/// write round trip per column. L panels are additionally bounded by pivot
/// swaps (a swap needs its rows current, which only holds at panel edges).
const PANEL: usize = 8;

/// Columns fused per flush in the pivot-free U sweep. Narrower panels than
/// `PANEL` win here: each U column eagerly scatters into every in-panel row
/// above it (an O(`PANEL_U`²) read-modify-write triangle per panel), and on
/// this band profile the triangle cost overtakes the flush amortization
/// before the L-side panel width does.
const PANEL_U: usize = 8;

/// Capacity of the per-panel scratch arrays shared by both sweeps: wide
/// enough for whichever panel width is larger.
const PANEL_MAX: usize = if PANEL > PANEL_U { PANEL } else { PANEL_U };

/// `x − a·b` with a single rounding: the fused-negate-multiply-add primitive
/// every substitution kernel (scalar and blocked) is built from. Sharing one
/// op sequence between the scalar and blocked paths is what keeps the
/// blocked sweeps bit-identical; on targets with hardware FMA
/// (`-C target-cpu=native`, see `.cargo/config.toml`) it also halves the
/// arithmetic per complex update.
#[inline(always)]
fn fnma(a: f64, b: f64, x: f64) -> f64 {
    (-a).mul_add(b, x)
}

/// `x − m·z` for complex operands, as two fused ops per component.
#[inline(always)]
fn cmul_sub(x: Complex64, m: Complex64, z: Complex64) -> Complex64 {
    Complex64::new(
        m.im.mul_add(z.im, fnma(m.re, z.re, x.re)),
        fnma(m.im, z.re, fnma(m.re, z.im, x.im)),
    )
}

/// `x · inv` where `inv` is a precomputed reciprocal — the division step of
/// the substitution sweeps, in the same fused form on both paths.
#[inline(always)]
fn cmul_recip(x: Complex64, inv: Complex64) -> Complex64 {
    Complex64::new(
        fnma(x.im, inv.im, x.re * inv.re),
        x.im.mul_add(inv.re, x.re * inv.im),
    )
}

/// The LU factorization of a [`BandedMatrix`] with partial pivoting.
#[derive(Debug, Clone)]
pub struct BandedLu {
    n: usize,
    kl: usize,
    ku: usize,
    ldab: usize,
    data: Vec<Complex64>,
    ipiv: Vec<usize>,
}

impl BandedLu {
    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Solves `A x = b` for every right-hand side in `xs`, overwriting each
    /// with its solution: forward (`P·L`) then backward (`U`) substitution.
    /// One system is a block of one:
    /// `lu.solve(std::slice::from_mut(&mut b))`.
    ///
    /// Takes `&self`: one factorization serves any number of right-hand
    /// sides (forward + adjoint + multi-source sweeps), which is the
    /// amortization the factorization cache in `maps-fdfd` is built on.
    ///
    /// A block of one runs the scalar sweeps. Larger blocks run the blocked
    /// kernel in chunks of [`RHS_BLOCK`]: each chunk is carried through
    /// **one** pass over the band data, so the ~`n·ldab` factors are read
    /// once per chunk instead of once per right-hand side. Each right-hand
    /// side is an independent system and every lane replays the scalar op
    /// sequence, so each solution is **bit-identical** to solving its
    /// system alone.
    ///
    /// # Panics
    ///
    /// Panics if any right-hand side's length differs from `self.dim()`.
    pub fn solve(&self, xs: &mut [impl AsMut<[Complex64]>]) {
        if let [x] = xs {
            self.solve_scalar(x.as_mut());
            return;
        }
        let n = self.n;
        let mut rows: Vec<&mut [Complex64]> = xs.iter_mut().map(AsMut::as_mut).collect();
        for x in &rows {
            assert_eq!(x.len(), n, "solve dimension mismatch");
        }
        // One scratch pair serves every chunk, sliced to each chunk's
        // physical width.
        let wmax = phys_width(rows.len().min(RHS_BLOCK));
        let mut xr = vec![0.0f64; n * wmax];
        let mut xi = vec![0.0f64; n * wmax];
        for chunk in rows.chunks_mut(RHS_BLOCK) {
            let wp = phys_width(chunk.len());
            let (xr, xi) = (&mut xr[..n * wp], &mut xi[..n * wp]);
            match chunk.len() {
                1 => self.solve_scalar(chunk[0]),
                2 => self.solve_chunk::<2>(chunk, xr, xi),
                3..=4 => self.solve_chunk::<4>(chunk, xr, xi),
                _ => self.solve_chunk::<RHS_BLOCK>(chunk, xr, xi),
            }
        }
    }

    /// One chunk of the blocked kernel at physical lane width
    /// `W ≥ chunk.len() ≥ 2`: gather the right-hand sides into split re/im
    /// planes with lane-major rows (lane `r` of row `i` lives at
    /// `plane[i·W + r]`, so the per-row inner loops touch `W` contiguous
    /// `f64` per plane), sweep, and scatter the solutions back in place.
    /// `xr`/`xi` are caller-owned scratch of length `n·W`.
    ///
    /// The width is monomorphized so the strip kernels compile with
    /// compile-time trip counts — fully unrolled SIMD with no per-row slice
    /// bookkeeping — and [`phys_width`] picks the narrowest that covers the
    /// chunk, so a tail chunk never pays for lanes it does not fill. Padding
    /// lanes start at zero and are computed and discarded; lanes never mix,
    /// so padding cannot perturb real lanes.
    fn solve_chunk<const W: usize>(
        &self,
        chunk: &mut [&mut [Complex64]],
        xr: &mut [f64],
        xi: &mut [f64],
    ) {
        const SCATTER_TILE: usize = 512;
        let n = self.n;
        let w = chunk.len();
        debug_assert!(w >= 2 && w <= W);
        // Re-slice to the exact `n·W` length so the optimizer sees the
        // same compile-time size relation it had when the planes were
        // allocated, keeping the sweep loops free of bounds checks.
        let xr = &mut xr[..n * W];
        let xi = &mut xi[..n * W];
        if w < W {
            // Padding lanes must start at zero; a full chunk overwrites
            // every lane below, so only padded chunks pay this clear.
            xr.fill(0.0);
            xi.fill(0.0);
        }
        // Gather: row-outer order keeps the plane writes contiguous (one
        // cache line per row per plane, written once) while the per-lane
        // reads advance as `w` independent sequential streams the
        // prefetcher tracks.
        let bs: [&[Complex64]; W] = core::array::from_fn(|r| &*chunk[r.min(w - 1)]);
        for i in 0..n {
            let (row_r, row_i) = (&mut xr[i * W..(i + 1) * W], &mut xi[i * W..(i + 1) * W]);
            for r in 0..w {
                let z = bs[r][i];
                row_r[r] = z.re;
                row_i[r] = z.im;
            }
        }
        self.blocked_solve_planes::<W>(xr, xi, w);
        // Scatter back in place, tiled so the strided plane reads stay
        // inside a cache-resident window while each solution is written
        // sequentially.
        for t0 in (0..n).step_by(SCATTER_TILE) {
            let t1 = (t0 + SCATTER_TILE).min(n);
            for (r, x) in chunk.iter_mut().enumerate() {
                for (i, z) in (t0..t1).zip(&mut x[t0..t1]) {
                    *z = Complex64::new(xr[i * W + r], xi[i * W + r]);
                }
            }
        }
    }

    /// Blocked `P·L·U x = b`: the split-plane counterpart of
    /// [`BandedLu::solve_scalar`], sweeping `w` live lanes (padded to `W`)
    /// per pass.
    ///
    /// Both substitutions run in column panels (≤ [`PANEL`] wide). Updates
    /// to rows *inside* a panel stay eager — later panel columns read them —
    /// while updates to rows beyond it are deferred and flushed as one
    /// [`fused_update_rows`] gather pass, so each flushed row makes one
    /// register round trip per panel instead of one per column. Per-element
    /// update order is unchanged: the fused pass applies panel columns in
    /// exactly the order the scalar path visits them, with the shared
    /// [`cmul_sub`]/[`cmul_recip`] op sequences, so results stay
    /// bit-identical. L panels end early at pivot-swap columns (a swap needs
    /// both its rows current, which only the inter-panel flush guarantees).
    ///
    /// Zero-skip replication: the scalar path skips a column's update loop
    /// when its `x[j]` is zero, and computing the update anyway could flip
    /// IEEE zero signs (e.g. `−0.0 − 0·m = +0.0`). The fused flush therefore
    /// requires every lane of every panel column to be live; otherwise the
    /// flush falls back to per-column strips — vectorized when a column's
    /// live lanes fill the block, per-lane scalar when mixed, skipped when
    /// none (element updates are independent, so lane order is irrelevant).
    fn blocked_solve_planes<const W: usize>(&self, xr: &mut [f64], xi: &mut [f64], w: usize) {
        let (n, kl, ldab) = (self.n, self.kl, self.ldab);
        let kv = self.kl + self.ku;
        // Per-panel state: interleaved b values, liveness, the column's
        // multiplier base offset (`data[offs + i]` is its factor for row
        // `i`), and the far end of its update range.
        let mut b_r = [[0.0f64; W]; PANEL_MAX];
        let mut b_i = [[0.0f64; W]; PANEL_MAX];
        let mut lives = [0usize; PANEL_MAX];
        let mut offs = [0usize; PANEL_MAX];
        let mut ends = [0usize; PANEL_MAX];
        // Forward: apply L⁻¹ with the recorded pivots, in swap-bounded
        // panels of ascending columns.
        if kl > 0 && n > 1 {
            let nm1 = n - 1;
            let mut p0 = 0usize;
            while p0 < nm1 {
                // Extend the panel while columns carry no swap; a swap
                // column starts the next panel so its rows are current.
                let mut p1 = p0 + 1;
                while p1 < nm1 && p1 - p0 < PANEL && self.ipiv[p1] == p1 {
                    p1 += 1;
                }
                let pw = p1 - p0;
                for idx in 0..pw {
                    let c = p0 + idx;
                    let p = self.ipiv[c];
                    if p != c {
                        let (co, po) = (c * W, p * W);
                        for r in 0..W {
                            xr.swap(co + r, po + r);
                            xi.swap(co + r, po + r);
                        }
                    }
                    let co = c * W;
                    b_r[idx].copy_from_slice(&xr[co..co + W]);
                    b_i[idx].copy_from_slice(&xi[co..co + W]);
                    lives[idx] = live_lanes(&b_r[idx], &b_i[idx], w);
                    offs[idx] = c * ldab + kv - c;
                    ends[idx] = c + kl.min(n - 1 - c);
                    // Eager narrow update of the rows still inside the panel.
                    let t_end = ends[idx].min(p1 - 1);
                    if lives[idx] > 0 && t_end > c {
                        let cnt = t_end - c;
                        let col = &self.data[offs[idx] + c + 1..offs[idx] + c + 1 + cnt];
                        let ds = (c + 1) * W;
                        let de = ds + cnt * W;
                        if lives[idx] == w {
                            update_strip::<W>(
                                col,
                                &mut xr[ds..de],
                                &mut xi[ds..de],
                                &b_r[idx],
                                &b_i[idx],
                            );
                        } else {
                            update_strip_lanes::<W>(
                                col,
                                &mut xr[ds..de],
                                &mut xi[ds..de],
                                &b_r[idx],
                                &b_i[idx],
                                w,
                            );
                        }
                    }
                }
                // Flush rows ≥ p1. `ends` is nondecreasing over the panel,
                // so rows [p1, ends[0]] receive every column.
                let e0 = ends[0];
                if lives[..pw].iter().all(|&l| l == w) && e0 >= p1 {
                    fused_update_rows::<W>(
                        &self.data,
                        &offs[..pw],
                        &b_r[..pw],
                        &b_i[..pw],
                        xr,
                        xi,
                        p1,
                        e0,
                    );
                    // Tail rows past the common range, per column ascending
                    // (each row still sees its columns in ascending order).
                    for idx in 1..pw {
                        if ends[idx] > e0 {
                            let cnt = ends[idx] - e0;
                            let col = &self.data[offs[idx] + e0 + 1..offs[idx] + e0 + 1 + cnt];
                            let ds = (e0 + 1) * W;
                            let de = ds + cnt * W;
                            update_strip::<W>(
                                col,
                                &mut xr[ds..de],
                                &mut xi[ds..de],
                                &b_r[idx],
                                &b_i[idx],
                            );
                        }
                    }
                } else {
                    for idx in 0..pw {
                        if lives[idx] == 0 || ends[idx] < p1 {
                            continue;
                        }
                        let cnt = ends[idx] + 1 - p1;
                        let col = &self.data[offs[idx] + p1..offs[idx] + p1 + cnt];
                        let ds = p1 * W;
                        let de = ds + cnt * W;
                        if lives[idx] == w {
                            update_strip::<W>(
                                col,
                                &mut xr[ds..de],
                                &mut xi[ds..de],
                                &b_r[idx],
                                &b_i[idx],
                            );
                        } else {
                            update_strip_lanes::<W>(
                                col,
                                &mut xr[ds..de],
                                &mut xi[ds..de],
                                &b_r[idx],
                                &b_i[idx],
                                w,
                            );
                        }
                    }
                }
                p0 = p1;
            }
        }
        // Backward: apply U⁻¹ (bandwidth kv, no pivots) in panels of
        // descending columns. The scalar path divides via `diag.recip()`;
        // the reciprocal is a pure function of the diagonal, so computing it
        // once per column and sharing it across lanes is bit-identical.
        let mut p0 = n;
        while p0 > 0 {
            let top = p0 - 1;
            let pend = p0.saturating_sub(PANEL_U);
            let pw = p0 - pend;
            for idx in 0..pw {
                let c = top - idx;
                let inv = self.data[c * ldab + kv].recip();
                let co = c * W;
                for r in 0..W {
                    let (bre, bim) = (xr[co + r], xi[co + r]);
                    xr[co + r] = fnma(bim, inv.im, bre * inv.re);
                    xi[co + r] = bim.mul_add(inv.re, bre * inv.im);
                }
                b_r[idx].copy_from_slice(&xr[co..co + W]);
                b_i[idx].copy_from_slice(&xi[co..co + W]);
                lives[idx] = live_lanes(&b_r[idx], &b_i[idx], w);
                offs[idx] = c * ldab + kv - c;
                ends[idx] = c.saturating_sub(kv);
                // Eager narrow update of the panel rows below the diagonal.
                let t_lo = pend.max(ends[idx]);
                if lives[idx] > 0 && c > t_lo {
                    let cnt = c - t_lo;
                    let col = &self.data[offs[idx] + t_lo..offs[idx] + t_lo + cnt];
                    let ds = t_lo * W;
                    let de = ds + cnt * W;
                    if lives[idx] == w {
                        update_strip::<W>(
                            col,
                            &mut xr[ds..de],
                            &mut xi[ds..de],
                            &b_r[idx],
                            &b_i[idx],
                        );
                    } else {
                        update_strip_lanes::<W>(
                            col,
                            &mut xr[ds..de],
                            &mut xi[ds..de],
                            &b_r[idx],
                            &b_i[idx],
                            w,
                        );
                    }
                }
            }
            // Flush rows < pend. `ends` is nonincreasing over the panel
            // (descending columns), so rows [ends[0], pend−1] receive every
            // column; `offs` is already in descending-column order, which is
            // the scalar application order for the backward sweep.
            if pend > 0 {
                let e0 = ends[0];
                if lives[..pw].iter().all(|&l| l == w) && e0 < pend {
                    fused_update_rows::<W>(
                        &self.data,
                        &offs[..pw],
                        &b_r[..pw],
                        &b_i[..pw],
                        xr,
                        xi,
                        e0,
                        pend - 1,
                    );
                    for idx in 1..pw {
                        if ends[idx] < e0 {
                            let cnt = e0 - ends[idx];
                            let col =
                                &self.data[offs[idx] + ends[idx]..offs[idx] + ends[idx] + cnt];
                            let ds = ends[idx] * W;
                            let de = ds + cnt * W;
                            update_strip::<W>(
                                col,
                                &mut xr[ds..de],
                                &mut xi[ds..de],
                                &b_r[idx],
                                &b_i[idx],
                            );
                        }
                    }
                } else {
                    for idx in 0..pw {
                        if lives[idx] == 0 || ends[idx] >= pend {
                            continue;
                        }
                        let cnt = pend - ends[idx];
                        let col = &self.data[offs[idx] + ends[idx]..offs[idx] + ends[idx] + cnt];
                        let ds = ends[idx] * W;
                        let de = ds + cnt * W;
                        if lives[idx] == w {
                            update_strip::<W>(
                                col,
                                &mut xr[ds..de],
                                &mut xi[ds..de],
                                &b_r[idx],
                                &b_i[idx],
                            );
                        } else {
                            update_strip_lanes::<W>(
                                col,
                                &mut xr[ds..de],
                                &mut xi[ds..de],
                                &b_r[idx],
                                &b_i[idx],
                                w,
                            );
                        }
                    }
                }
            }
            p0 = pend;
        }
    }

    /// The scalar sweeps: one system, in place. They are the reference the
    /// blocked kernel is pinned against bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.dim()`.
    fn solve_scalar(&self, x: &mut [Complex64]) {
        assert_eq!(x.len(), self.n, "solve dimension mismatch");
        let (n, kl, ldab) = (self.n, self.kl, self.ldab);
        let kv = self.kl + self.ku;
        // Forward: apply L⁻¹ with the recorded pivots.
        if kl > 0 {
            for j in 0..n.saturating_sub(1) {
                let p = self.ipiv[j];
                if p != j {
                    x.swap(j, p);
                }
                let km = kl.min(n - 1 - j);
                let xj = x[j];
                if xj == Complex64::ZERO {
                    continue;
                }
                let colj = j * ldab;
                for i in 1..=km {
                    let m = self.data[colj + kv + i];
                    x[j + i] = cmul_sub(x[j + i], m, xj);
                }
            }
        }
        // Backward: apply U⁻¹. U has bandwidth kv.
        for j in (0..n).rev() {
            let inv = self.data[j * ldab + kv].recip();
            let xj = cmul_recip(x[j], inv);
            x[j] = xj;
            if xj == Complex64::ZERO {
                continue;
            }
            let ilo = j.saturating_sub(kv);
            for i in ilo..j {
                let u = self.data[j * ldab + kv + i - j];
                x[i] = cmul_sub(x[i], u, xj);
            }
        }
    }
}

/// The physical lane width a chunk of `len ≤ RHS_BLOCK` right-hand sides is
/// monomorphized at: the narrowest of 2, 4 and [`RHS_BLOCK`] that covers
/// it. A single RHS takes the scalar path (width 0: no plane scratch
/// needed).
#[inline(always)]
fn phys_width(len: usize) -> usize {
    match len {
        0 | 1 => 0,
        2 => 2,
        3..=4 => 4,
        _ => RHS_BLOCK,
    }
}

/// Counts lanes among the first `w` whose complex value is nonzero
/// (`-0.0` counts as zero, matching `Complex64::ZERO` equality).
#[inline(always)]
fn live_lanes(br: &[f64], bi: &[f64], w: usize) -> usize {
    br[..w]
        .iter()
        .zip(&bi[..w])
        .filter(|(re, im)| **re != 0.0 || **im != 0.0)
        .count()
}

/// Rank-1 band-strip update `dst[k][r] -= col[k] · b[r]` in split planes:
/// row `k` of the strip is `dst_?[k·W .. (k+1)·W]`. Each lane runs the exact
/// [`cmul_sub`] op sequence of the scalar path.
#[inline(always)]
fn update_strip<const W: usize>(
    col: &[Complex64],
    dst_r: &mut [f64],
    dst_i: &mut [f64],
    b_r: &[f64; W],
    b_i: &[f64; W],
) {
    assert_eq!(dst_r.len(), col.len() * W, "strip length mismatch");
    assert_eq!(dst_i.len(), col.len() * W, "strip length mismatch");
    for (k, m) in col.iter().enumerate() {
        let o = k * W;
        for r in 0..W {
            dst_r[o + r] = m.im.mul_add(b_i[r], fnma(m.re, b_r[r], dst_r[o + r]));
            dst_i[o + r] = fnma(m.im, b_r[r], fnma(m.re, b_i[r], dst_i[o + r]));
        }
    }
}

/// The fused flush of a deferred panel: every row in `lo..=hi` is loaded
/// into registers once, receives the contributions of all panel columns in
/// `offs` order (the caller passes them in scalar application order —
/// ascending for the L sweep, descending for U), and is stored once. This
/// is the gather form that replaces `panel-width` read-modify-write passes
/// over the same rows with one.
///
/// Column `idx` must cover the whole range (`data[offs[idx] + i]` is its
/// multiplier for row `i`) and every lane of every panel column must be
/// live: the caller checks both, falling back to per-column strips
/// otherwise so the scalar zero-skips stay replicated.
#[inline(always)]
fn fused_update_rows<const W: usize>(
    data: &[Complex64],
    offs: &[usize],
    b_r: &[[f64; W]],
    b_i: &[[f64; W]],
    xr: &mut [f64],
    xi: &mut [f64],
    lo: usize,
    hi: usize,
) {
    // Rows are independent, but within one row the column applications
    // form a serial FMA chain (each depends on the previous accumulator).
    // Processing four rows side by side interleaves four independent
    // chains per plane, hiding the FMA latency a lone chain stalls on.
    // The per-row column order — and therefore bit-identity — is
    // untouched; only *which rows* run concurrently changes, and rows
    // never read each other.
    let mut i = lo;
    while i < hi {
        let mut a0r = [0.0f64; W];
        let mut a0i = [0.0f64; W];
        let mut a1r = [0.0f64; W];
        let mut a1i = [0.0f64; W];
        let ro = i * W;
        a0r.copy_from_slice(&xr[ro..ro + W]);
        a0i.copy_from_slice(&xi[ro..ro + W]);
        a1r.copy_from_slice(&xr[ro + W..ro + 2 * W]);
        a1i.copy_from_slice(&xi[ro + W..ro + 2 * W]);
        for (idx, &off) in offs.iter().enumerate() {
            let m0 = data[off + i];
            let m1 = data[off + i + 1];
            let br = &b_r[idx];
            let bi = &b_i[idx];
            for r in 0..W {
                a0r[r] = m0.im.mul_add(bi[r], fnma(m0.re, br[r], a0r[r]));
                a0i[r] = fnma(m0.im, br[r], fnma(m0.re, bi[r], a0i[r]));
                a1r[r] = m1.im.mul_add(bi[r], fnma(m1.re, br[r], a1r[r]));
                a1i[r] = fnma(m1.im, br[r], fnma(m1.re, bi[r], a1i[r]));
            }
        }
        xr[ro..ro + W].copy_from_slice(&a0r);
        xi[ro..ro + W].copy_from_slice(&a0i);
        xr[ro + W..ro + 2 * W].copy_from_slice(&a1r);
        xi[ro + W..ro + 2 * W].copy_from_slice(&a1i);
        i += 2;
    }
    let mut ar = [0.0f64; W];
    let mut ai = [0.0f64; W];
    while i <= hi {
        let ro = i * W;
        ar.copy_from_slice(&xr[ro..ro + W]);
        ai.copy_from_slice(&xi[ro..ro + W]);
        for (idx, &off) in offs.iter().enumerate() {
            let m = data[off + i];
            let br = &b_r[idx];
            let bi = &b_i[idx];
            for r in 0..W {
                ar[r] = m.im.mul_add(bi[r], fnma(m.re, br[r], ar[r]));
                ai[r] = fnma(m.im, br[r], fnma(m.re, bi[r], ai[r]));
            }
        }
        xr[ro..ro + W].copy_from_slice(&ar);
        xi[ro..ro + W].copy_from_slice(&ai);
        i += 1;
    }
}

/// Per-lane variant of [`update_strip`] for columns where only some lanes
/// are live: each zero lane is skipped exactly like the scalar path, and
/// live lanes run the identical op sequence (elementwise updates are
/// independent, so lane order is irrelevant).
#[inline(always)]
fn update_strip_lanes<const W: usize>(
    col: &[Complex64],
    dst_r: &mut [f64],
    dst_i: &mut [f64],
    b_r: &[f64; W],
    b_i: &[f64; W],
    w: usize,
) {
    assert_eq!(dst_r.len(), col.len() * W, "strip length mismatch");
    assert_eq!(dst_i.len(), col.len() * W, "strip length mismatch");
    for r in 0..w {
        let (bre, bim) = (b_r[r], b_i[r]);
        if bre == 0.0 && bim == 0.0 {
            continue;
        }
        for (k, m) in col.iter().enumerate() {
            let o = k * W + r;
            dst_r[o] = m.im.mul_add(bim, fnma(m.re, bre, dst_r[o]));
            dst_i[o] = fnma(m.im, bre, fnma(m.re, bim, dst_i[o]));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::znorm;

    fn dense_solve(a: &[Vec<Complex64>], b: &[Complex64]) -> Vec<Complex64> {
        let n = b.len();
        let mut m: Vec<Vec<Complex64>> = a.to_vec();
        let mut x = b.to_vec();
        for j in 0..n {
            let p = (j..n)
                .max_by(|&r, &s| m[r][j].abs().partial_cmp(&m[s][j].abs()).unwrap())
                .unwrap();
            m.swap(j, p);
            x.swap(j, p);
            let piv = m[j][j];
            for i in (j + 1)..n {
                let f = m[i][j] / piv;
                for k in j..n {
                    let v = m[j][k];
                    m[i][k] -= f * v;
                }
                let xj = x[j];
                x[i] -= f * xj;
            }
        }
        for j in (0..n).rev() {
            let mut acc = x[j];
            for k in (j + 1)..n {
                acc -= m[j][k] * x[k];
            }
            x[j] = acc / m[j][j];
        }
        x
    }

    /// A band of uniform entries in the unit square, with `boost` added to
    /// the diagonal. A boost of 4 keeps it diagonally dominant (no swaps);
    /// without one, partial pivoting swaps often.
    fn random_band(n: usize, kl: usize, ku: usize, seed: u64, boost: f64) -> BandedMatrix {
        // Tiny deterministic LCG so the test needs no external RNG.
        let mut state = seed
            .wrapping_mul(2862933555777941757)
            .wrapping_add(3037000493);
        let mut next = move || {
            state = state
                .wrapping_mul(2862933555777941757)
                .wrapping_add(3037000493);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        };
        let mut band = BandedMatrix::zeros(n, kl, ku);
        for i in 0..n {
            for j in 0..n {
                if i + ku >= j && j + kl >= i {
                    let mut v = Complex64::new(next(), next());
                    if i == j {
                        v += Complex64::from_re(boost);
                    }
                    band.set(i, j, v);
                }
            }
        }
        band
    }

    /// A well-conditioned random band and its dense twin.
    fn random_banded(
        n: usize,
        kl: usize,
        ku: usize,
        seed: u64,
    ) -> (BandedMatrix, Vec<Vec<Complex64>>) {
        let band = random_band(n, kl, ku, seed, 4.0);
        let dense = (0..n)
            .map(|i| (0..n).map(|j| band.get(i, j)).collect())
            .collect();
        (band, dense)
    }

    /// One system through [`BandedLu::solve`], on a copy of `b`: the K=1
    /// scalar reference every blocked pin compares against.
    fn solve1(lu: &BandedLu, b: &[Complex64]) -> Vec<Complex64> {
        let mut x = b.to_vec();
        lu.solve(std::slice::from_mut(&mut x));
        x
    }

    /// A whole block through one [`BandedLu::solve`] call, on copies.
    fn solve_block(lu: &BandedLu, rhs: &[Vec<Complex64>]) -> Vec<Vec<Complex64>> {
        let mut xs = rhs.to_vec();
        lu.solve(&mut xs);
        xs
    }

    /// Asserts every lane of a block solve equals its K=1 solve, down to
    /// the sign of zero.
    fn assert_block_matches_scalar(lu: &BandedLu, rhs: &[Vec<Complex64>], what: &str) {
        let block = solve_block(lu, rhs);
        assert_eq!(block.len(), rhs.len(), "{what}: block size");
        for (r, (x, b)) in block.iter().zip(rhs).enumerate() {
            assert_bits_eq(x, &solve1(lu, b), &format!("{what} lane {r}"));
        }
    }

    #[test]
    fn solve_matches_dense_elimination() {
        let n = 24;
        let (band, dense) = random_banded(n, 3, 2, 7);
        let b: Vec<Complex64> = (0..n)
            .map(|k| Complex64::new(k as f64, -(k as f64) / 3.0))
            .collect();
        let lu = band.clone().factorize().unwrap();
        let x = solve1(&lu, &b);
        let x_ref = dense_solve(&dense, &b);
        let diff: Vec<Complex64> = x.iter().zip(&x_ref).map(|(a, b)| *a - *b).collect();
        assert!(
            znorm(&diff) < 1e-10,
            "direct solve mismatch: {}",
            znorm(&diff)
        );
        // Residual check against the original matrix.
        let r: Vec<Complex64> = band
            .matvec(&x)
            .iter()
            .zip(&b)
            .map(|(a, b)| *a - *b)
            .collect();
        assert!(znorm(&r) < 1e-10);
    }

    #[test]
    fn batched_solves_match_individual_solves_bitwise() {
        let n = 20;
        let (band, _) = random_banded(n, 3, 3, 42);
        let lu = band.factorize().unwrap();
        let rhs: Vec<Vec<Complex64>> = (0..3)
            .map(|r| {
                (0..n)
                    .map(|k| Complex64::new((k + r) as f64, (k * r) as f64 * 0.1))
                    .collect()
            })
            .collect();
        assert_block_matches_scalar(&lu, &rhs, "K=3");
    }

    /// Asserts two complex slices are equal down to the sign of zero.
    fn assert_bits_eq(a: &[Complex64], b: &[Complex64], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: length");
        for (k, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.re.to_bits(), y.re.to_bits(), "{what}: re at {k}");
            assert_eq!(x.im.to_bits(), y.im.to_bits(), "{what}: im at {k}");
        }
    }

    /// A batch of `count` right-hand sides with mixed sparsity: dense lanes,
    /// mostly-zero lanes (mode-source-like), and lanes carrying negative
    /// zeros, so the blocked kernel's zero-skip replication is exercised on
    /// all-live, all-dead, and mixed columns.
    fn mixed_rhs(n: usize, count: usize) -> Vec<Vec<Complex64>> {
        (0..count)
            .map(|r| {
                (0..n)
                    .map(|k| match r % 3 {
                        0 => Complex64::new(
                            ((k + r) as f64 * 0.7).sin(),
                            ((k * 3 + r) as f64 * 0.3).cos(),
                        ),
                        1 if k % 5 == r % 5 => Complex64::new(1.0 + k as f64 * 0.1, -0.25),
                        1 => Complex64::ZERO,
                        _ if k % 4 == 0 => Complex64::new(-0.0, 0.0),
                        _ => Complex64::new(0.5 - k as f64 * 0.05, (r as f64) * 0.125),
                    })
                    .collect()
            })
            .collect()
    }

    /// Bitwise pin: a block solve must reproduce the scalar path exactly
    /// for every block size K = 1..9 and K = 33 (odd tails across the
    /// [`RHS_BLOCK`] chunk boundary: 8+1, 8+8+8+8+1).
    #[test]
    fn blocked_sweep_is_bit_identical_to_scalar_path() {
        let n = 41;
        let (band, _) = random_banded(n, 5, 3, 2024);
        let lu = band.factorize().unwrap();
        for k in (1..=9).chain([33]) {
            assert_block_matches_scalar(&lu, &mixed_rhs(n, k), &format!("K={k}"));
        }
    }

    /// Sign-of-zero stress: right-hand sides built entirely from ±0.0 must
    /// come out of the blocked sweep with the exact zero signs the scalar
    /// path produces (the zero-skip is what preserves them).
    #[test]
    fn blocked_sweep_preserves_zero_signs() {
        let n = 17;
        let (band, _) = random_banded(n, 3, 2, 77);
        let lu = band.factorize().unwrap();
        let rhs: Vec<Vec<Complex64>> = (0..5)
            .map(|r| {
                (0..n)
                    .map(|k| match (k + r) % 4 {
                        0 => Complex64::new(-0.0, 0.0),
                        1 => Complex64::new(0.0, -0.0),
                        2 => Complex64::new(-0.0, -0.0),
                        _ => Complex64::ZERO,
                    })
                    .collect()
            })
            .collect();
        assert_block_matches_scalar(&lu, &rhs, "zero-sign");
    }

    #[test]
    fn blocked_sweep_handles_empty_batch_and_diagonal_only() {
        let (band, _) = random_banded(9, 0, 0, 6);
        let lu = band.factorize().unwrap();
        let empty: Vec<Vec<Complex64>> = Vec::new();
        assert!(solve_block(&lu, &empty).is_empty());
        assert_block_matches_scalar(&lu, &mixed_rhs(9, 3), "diagonal-only");
    }

    #[test]
    #[should_panic(expected = "solve dimension mismatch")]
    fn solve_rejects_a_short_rhs_in_a_block() {
        let (band, _) = random_banded(8, 1, 1, 3);
        let lu = band.factorize().unwrap();
        let mut rhs = vec![vec![Complex64::ONE; 8]; 3];
        rhs[2].pop();
        lu.solve(&mut rhs);
    }

    #[test]
    fn pivoting_handles_zero_diagonal() {
        let mut band = BandedMatrix::zeros(2, 1, 1);
        band.set(0, 0, Complex64::ZERO);
        band.set(0, 1, Complex64::ONE);
        band.set(1, 0, Complex64::ONE);
        band.set(1, 1, Complex64::ZERO);
        let lu = band.factorize().expect("permutation matrix is nonsingular");
        let b = [Complex64::from_re(3.0), Complex64::from_re(5.0)];
        let x = solve1(&lu, &b);
        assert!((x[0] - Complex64::from_re(5.0)).abs() < 1e-14);
        assert!((x[1] - Complex64::from_re(3.0)).abs() < 1e-14);
    }

    #[test]
    fn singular_matrix_reports_error() {
        let band = BandedMatrix::zeros(3, 1, 1);
        match band.factorize() {
            Err(LinalgError::Singular { .. }) => {}
            other => panic!("expected singular error, got {other:?}"),
        }
    }

    #[test]
    fn out_of_band_get_is_zero() {
        let band = BandedMatrix::zeros(5, 1, 1);
        assert_eq!(band.get(0, 4), Complex64::ZERO);
        assert_eq!(band.get(4, 0), Complex64::ZERO);
    }

    #[test]
    fn diagonal_matrix_roundtrip() {
        let n = 6;
        let mut band = BandedMatrix::zeros(n, 0, 0);
        for i in 0..n {
            band.set(i, i, Complex64::new(i as f64 + 1.0, 0.5));
        }
        let b: Vec<Complex64> = (0..n).map(|k| Complex64::from_re(k as f64 + 1.0)).collect();
        let lu = band.factorize().unwrap();
        let x = solve1(&lu, &b);
        for (i, xi) in x.iter().enumerate() {
            let expect = b[i] / Complex64::new(i as f64 + 1.0, 0.5);
            assert!((*xi - expect).abs() < 1e-14);
        }
    }

    /// Factors `band` with the panel kernel and the unblocked reference and
    /// asserts the two agree bit for bit: every stored factor entry (fill
    /// rows included), every pivot, or the same singular column. Returns
    /// the pivot columns that swapped rows.
    fn assert_factors_match_reference(band: &BandedMatrix, what: &str) -> Vec<usize> {
        match (band.clone().factorize(), band.clone().factorize_unblocked()) {
            (Ok(lu), Ok(reference)) => {
                assert_eq!(lu.ipiv, reference.ipiv, "{what}: pivots");
                assert_bits_eq(&lu.data, &reference.data, &format!("{what}: factors"));
                (0..lu.n).filter(|&j| lu.ipiv[j] != j).collect()
            }
            (Err(e), Err(reference)) => {
                assert_eq!(e, reference, "{what}: error");
                Vec::new()
            }
            (got, reference) => panic!(
                "{what}: panel {:?} vs unblocked {:?}",
                got.map(|_| ()),
                reference.map(|_| ())
            ),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(96))]

        /// Random bands with no diagonal boost, so partial pivoting swaps,
        /// over sizes below one panel and not a multiple of it. The
        /// off-diagonal entries with `(3i + j) % zeros == 0` are `-0 − 0i`,
        /// so updates whose `f` is zero must be skipped exactly where the
        /// reference skips them, or the signs of zeros differ.
        #[test]
        fn panel_factorization_is_bit_identical_to_unblocked(
            n in 1usize..101,
            kl in 0usize..13,
            ku in 0usize..13,
            seed in 0u64..u64::MAX,
            zeros in 2usize..6,
        ) {
            let mut band = random_band(n, kl, ku, seed, 0.0);
            for i in 0..n {
                for j in i.saturating_sub(kl)..(i + ku + 1).min(n) {
                    if i != j && (3 * i + j) % zeros == 0 {
                        band.set(i, j, Complex64::new(-0.0, -0.0));
                    }
                }
            }
            assert_factors_match_reference(
                &band,
                &format!("n={n} kl={kl} ku={ku} seed={seed} zeros={zeros}"),
            );
        }
    }

    /// Swaps on the first and last columns of panels: the flush-then-swap
    /// path at both panel edges, and at column 0.
    #[test]
    fn swaps_at_panel_edges_stay_bit_identical() {
        let (n, kl, ku) = (40, 3, 2);
        let mut band = random_band(n, kl, ku, 11, 4.0);
        let edges = [
            0,
            FACTOR_PANEL - 1,
            FACTOR_PANEL,
            3 * FACTOR_PANEL - 1,
            3 * FACTOR_PANEL,
        ];
        for &c in &edges {
            band.set(c, c, Complex64::new(1e-3, 0.0));
            band.set(c + kl, c, Complex64::new(8.0, -1.0));
        }
        let swapped = assert_factors_match_reference(&band, "panel edges");
        for c in edges {
            assert!(swapped.contains(&c), "column {c} must swap: {swapped:?}");
        }
    }

    /// A 5-point Helmholtz-shaped band on an 18×14 grid (bandwidth 18):
    /// an indefinite real diagonal `k²ε − 4` with a complex, PML-like loss
    /// that grows toward the grid edges, and unit neighbour couplings.
    #[test]
    fn helmholtz_band_with_pml_diagonal_is_bit_identical() {
        let (nx, ny) = (18, 14);
        let n = nx * ny;
        let mut band = BandedMatrix::zeros(n, nx, nx);
        for iy in 0..ny {
            for ix in 0..nx {
                let k = iy * nx + ix;
                let edge = ix.min(nx - 1 - ix).min(iy).min(ny - 1 - iy);
                let sigma = if edge < 3 {
                    0.6 * (3 - edge) as f64
                } else {
                    0.0
                };
                let eps = if (4..14).contains(&ix) && (5..9).contains(&iy) {
                    12.1
                } else {
                    2.1
                };
                band.set(k, k, Complex64::new(0.35 * eps - 4.0, sigma));
                if ix > 0 {
                    band.set(k, k - 1, Complex64::ONE);
                }
                if ix + 1 < nx {
                    band.set(k, k + 1, Complex64::ONE);
                }
                if iy > 0 {
                    band.set(k, k - nx, Complex64::ONE);
                }
                if iy + 1 < ny {
                    band.set(k, k + nx, Complex64::ONE);
                }
            }
        }
        let swapped = assert_factors_match_reference(&band, "helmholtz");
        assert!(!swapped.is_empty(), "the indefinite band must pivot");
    }

    /// Singular bands fail at the same column as the reference: an
    /// all-zero band at column 0, and a band whose column 13 is zero, which
    /// the panel kernel reaches with updates pending.
    #[test]
    fn singular_bands_report_the_reference_column() {
        assert_eq!(
            BandedMatrix::zeros(3, 1, 1).factorize().unwrap_err(),
            LinalgError::Singular { index: 0 }
        );
        let (n, kl, ku) = (30, 2, 2);
        let mut band = random_band(n, kl, ku, 5, 0.0);
        for i in 13 - ku..=13 + kl {
            band.set(i, 13, Complex64::ZERO);
        }
        assert_factors_match_reference(&band, "zero column");
        assert_eq!(
            band.factorize().unwrap_err(),
            LinalgError::Singular { index: 13 }
        );
    }

    /// The screened pivot search against the plain `hypot` arg-max where
    /// the screen must defer to `hypot`: near ties, equal moduli with re/im
    /// swapped, magnitudes near the screen bounds, zeros, infinities, NaN.
    #[test]
    fn screened_pivot_matches_hypot_argmax() {
        let c = Complex64::new;
        let up = |x: f64, ulps: u64| f64::from_bits(x.to_bits() + ulps);
        let nan = f64::NAN;
        let cases: Vec<Vec<Complex64>> = vec![
            // |z|² within 1e-13, both orders, and exact ties (first wins).
            vec![c(1.0, 0.0), c(up(1.0, 1), 0.0)],
            vec![c(up(1.0, 1), 0.0), c(1.0, 0.0)],
            vec![c(0.6, 0.8), c(0.8, 0.6), c(1.0, 0.0), c(0.0, -1.0)],
            vec![c(3.0, 4.0), c(4.0, 3.0), c(-4.0, 3.0), c(up(3.0, 2), 4.0)],
            vec![c(1.0, 1.0), c(1.0 + 2e-14, 1.0), c(1.0, 1.0 - 3e-14)],
            // Squares near and past the screen bounds.
            vec![c(1e145, 0.0), c(0.0, 1.0000001e145), c(1e146, 1e144)],
            vec![c(1e160, 0.0), c(2e160, 0.0), c(1e155, 1e155)],
            vec![c(1e-145, 0.0), c(1e-146, 0.0), c(0.0, 2e-145)],
            vec![c(1e-160, 0.0), c(1e-150, 0.0), c(-1e-150, 1e-170)],
            vec![c(1e-300, 0.0), c(1.0, 0.0), c(5e-324, 0.0)],
            // Zeros and signed zeros.
            vec![c(0.0, 0.0), c(-0.0, 0.0), c(0.0, -0.0), c(1e-200, 0.0)],
            vec![c(0.0, 0.0), c(0.0, 0.0)],
            // Infinities and NaN, first and later.
            vec![c(1.0, 0.0), c(f64::INFINITY, 0.0), c(f64::INFINITY, nan)],
            vec![c(nan, 0.0), c(1.0, 0.0), c(2.0, 0.0)],
            vec![c(1.0, 0.0), c(nan, 2.0), c(3.0, 0.0), c(nan, nan)],
            vec![c(f64::MAX, f64::MAX), c(f64::MAX, 0.0)],
        ];
        for col in &cases {
            assert_eq!(pivot_index(col), pivot_index_hypot(col), "{col:?}");
        }
        // Random near-ties: every candidate within a few 1e-13 of |z|.
        let mut rng = proptest::TestRng::deterministic("screened_pivot_near_ties");
        for _ in 0..2000 {
            let scale = 10f64.powi((rng.next_u64() % 600) as i32 - 300);
            let theta = rng.unit_f64() * std::f64::consts::TAU;
            let col: Vec<Complex64> = (0..9)
                .map(|_| {
                    let r = scale * (1.0 + (rng.unit_f64() - 0.5) * 6e-13);
                    let phi = theta + (rng.unit_f64() - 0.5) * 1e-3;
                    c(r * phi.cos(), r * phi.sin())
                })
                .collect();
            assert_eq!(pivot_index(&col), pivot_index_hypot(&col), "{col:?}");
        }
    }
}
