//! Complex-symmetric banded matrices and their pivot-free `L·Δ·Lᵀ`
//! factorization: the direct solver behind every FDFD solve.
//!
//! `maps-fdfd` scales each row of the SC-PML operator by its stretch
//! factors, which makes it complex symmetric (`S = Sᵀ`, no conjugate). Such
//! an `S` factors as `L·Δ·Lᵀ` with `L` unit lower triangular in the band of
//! `S` and `Δ` diagonal, and needs no pivoting in practice. Only the lower
//! band is stored, `(kd + 1)·n` entries against the `(3·kd + 1)·n` of a
//! pivoted banded LU, and the elimination does about a quarter of the LU's
//! multiply-adds.
//!
//! Without pivoting nothing bounds the growth of `L` for an arbitrary
//! complex symmetric matrix, so [`solve_refined`] checks every solution's
//! relative residual and refines it once when it exceeds [`REFINE_ABOVE`].
//! The pivoted LU in [`crate::banded`] is the reference the tests compare
//! against.
//!
//! Both halves are cache-blocked without changing a bit of the result.
//! [`SymBandedMatrix::factorize`] eliminates panels of columns and defers
//! each panel's updates to the columns right of it, so a trailing column is
//! loaded once per panel instead of once per pivot. [`BandedLdlt::solve`]
//! carries up to [`RHS_BLOCK`] right-hand sides through one pass over the
//! factor. Each element still sees the same operations in the same order
//! as in the unblocked loops, so the factor and the solutions are
//! bit-identical to them; the tests keep the unblocked factorization and
//! the one-system solve as the references and pin both kernels against
//! them.
//!
//! The elimination stops and resumes at any column
//! ([`SymBandedMatrix::eliminate`]). Without pivoting, the factor's first
//! `c` columns and the `kd` partially updated columns after them depend
//! only on the band's leading `c + kd` rows and columns. A [`Seam`] copies
//! those `kd` columns, so a band that agrees with an earlier one on that
//! leading block can take the earlier factor's first `c` columns and the
//! seam and eliminate only from `c`, bit-identical to eliminating from 0.
//! A factorization may also stop short of `n` pivots and leave the rest of
//! the band as the Schur complement; [`BandedLdlt::solve_twisted`] solves
//! with such a partial factor joined to a factor of its Schur complement
//! in reversed order, the twisted factorization `maps-fdfd` builds.

use crate::{Complex64, LinalgError};
use std::ops::Range;

/// Right-hand sides [`BandedLdlt::solve`] sweeps per pass over the factor
/// when handed a block of two or more systems.
///
/// The blocked substitution kernel traverses the band data once per *chunk*
/// of right-hand sides instead of once per RHS. Eight lanes of `f64` fill one
/// AVX-512 vector (two AVX2 vectors) per split plane, and the per-row lane
/// strips stay within a cache line, so this width captures most of the
/// bandwidth win without bloating the interleaved scratch planes.
pub const RHS_BLOCK: usize = 8;

/// Relative residual `‖S·x − b‖/‖b‖` above which [`solve_refined`] refines
/// a solution once.
pub const REFINE_ABOVE: f64 = 1e-12;

/// Columns eliminated per panel by [`SymBandedMatrix::factorize`]. Panels
/// of 16 measured ~8% faster than 8 on the 80×80 bending band and the
/// same at 40×40.
const FACTOR_PANEL: usize = 16;

/// Columns fused per deferred-update flush in the blocked `L` sweep: every
/// row in the flush range is loaded into registers once, receives up to
/// `PANEL` column contributions, and is stored once, instead of one
/// read-modify-write round trip per column.
const PANEL: usize = 8;

/// Partial sums of the `Lᵀ` sweep's dot products. Entry `o` of a column
/// (row `j + 1 + o`) adds into partial `o % DOT_SUMS`, each partial in
/// descending `o`, and the partials combine in one fixed tree
/// ([`reduce`]), so a dot product is not one serial chain of dependent adds.
const DOT_SUMS: usize = 8;

/// `x − a·b` with a single rounding: the fused-negate-multiply-add primitive
/// every kernel here is built from. Sharing one op sequence between the
/// unblocked and blocked paths is what keeps them bit-identical; on targets
/// with hardware FMA (`-C target-cpu=native`, see `.cargo/config.toml`) it
/// also halves the arithmetic per complex update.
#[inline(always)]
pub(crate) fn fnma(a: f64, b: f64, x: f64) -> f64 {
    (-a).mul_add(b, x)
}

/// `x − m·z` for complex operands, as two fused ops per component.
#[inline(always)]
pub(crate) fn cmul_sub(x: Complex64, m: Complex64, z: Complex64) -> Complex64 {
    Complex64::new(
        m.im.mul_add(z.im, fnma(m.re, z.re, x.re)),
        fnma(m.im, z.re, fnma(m.re, z.im, x.im)),
    )
}

/// `x · inv` where `inv` is a precomputed reciprocal, in the same fused form
/// on every path.
#[inline(always)]
pub(crate) fn cmul_recip(x: Complex64, inv: Complex64) -> Complex64 {
    Complex64::new(
        fnma(x.im, inv.im, x.re * inv.re),
        x.im.mul_add(inv.re, x.re * inv.im),
    )
}

/// `s + l·y`, the step of the `Lᵀ` dot products, in split form.
#[inline(always)]
fn dot_step(sr: &mut f64, si: &mut f64, lr: f64, li: f64, yr: f64, yi: f64) {
    *sr = fnma(li, yi, lr.mul_add(yr, *sr));
    *si = li.mul_add(yr, lr.mul_add(yi, *si));
}

/// The fixed combination order of the [`DOT_SUMS`] partial sums.
#[inline(always)]
fn reduce(s: [f64; DOT_SUMS]) -> f64 {
    ((s[0] + s[1]) + (s[2] + s[3])) + ((s[4] + s[5]) + (s[6] + s[7]))
}

/// A complex symmetric band matrix (`S = Sᵀ`, unconjugated) with `kd`
/// sub-diagonals and as many super-diagonals, storing the lower band only.
///
/// Column `j` holds `S[j+r][j]` for `r = 0..=kd` at `j·(kd+1) + r`, in
/// split real and imaginary planes.
#[derive(Debug, Clone)]
pub struct SymBandedMatrix {
    n: usize,
    kd: usize,
    re: Vec<f64>,
    im: Vec<f64>,
}

impl SymBandedMatrix {
    /// Creates an `n × n` symmetric band of zeros with `kd` sub-diagonals.
    pub fn zeros(n: usize, kd: usize) -> Self {
        let len = (kd + 1) * n;
        SymBandedMatrix {
            n,
            kd,
            re: vec![0.0; len],
            im: vec![0.0; len],
        }
    }

    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Number of sub-diagonals (equal to the number of super-diagonals).
    pub fn bandwidth(&self) -> usize {
        self.kd
    }

    /// Plane index of `S[i][j] = S[j][i]`, or `None` outside the band.
    fn offset(&self, i: usize, j: usize) -> Option<usize> {
        assert!(i < self.n && j < self.n, "banded index out of range");
        let (i, j) = (i.max(j), i.min(j));
        (i - j <= self.kd).then(|| j * (self.kd + 1) + i - j)
    }

    /// Returns `S[i][j]`, or zero outside the band.
    ///
    /// # Panics
    ///
    /// Panics if `i` or `j` is out of range.
    pub fn get(&self, i: usize, j: usize) -> Complex64 {
        self.offset(i, j)
            .map_or(Complex64::ZERO, |o| Complex64::new(self.re[o], self.im[o]))
    }

    /// Sets `S[i][j]` and `S[j][i]` to `v`.
    ///
    /// # Panics
    ///
    /// Panics if `(i, j)` lies outside the band or out of range.
    pub fn set(&mut self, i: usize, j: usize, v: Complex64) {
        let Some(o) = self.offset(i, j) else {
            panic!("entry ({i},{j}) outside band (kd={})", self.kd);
        };
        self.re[o] = v.re;
        self.im[o] = v.im;
    }

    /// Matrix–vector product `S x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.dim()`.
    pub fn matvec(&self, x: &[Complex64]) -> Vec<Complex64> {
        assert_eq!(x.len(), self.n, "banded matvec dimension mismatch");
        let ld = self.kd + 1;
        let mut y = vec![Complex64::ZERO; self.n];
        for j in 0..self.n {
            let s = |r: usize| Complex64::new(self.re[j * ld + r], self.im[j * ld + r]);
            y[j] += s(0) * x[j];
            for r in 1..=self.kd.min(self.n - 1 - j) {
                y[j + r] += s(r) * x[j];
                y[j] += s(r) * x[j + r];
            }
        }
        y
    }

    /// Zeroes every stored entry of `columns`.
    pub fn clear_columns(&mut self, columns: Range<usize>) {
        let ld = self.kd + 1;
        let planes = columns.start * ld..columns.end * ld;
        self.re[planes.clone()].fill(0.0);
        self.im[planes].fill(0.0);
    }

    /// Copies `columns` of `factor`, a factorization of the same bandwidth,
    /// into this band: the finished factor columns a resumed elimination
    /// starts behind.
    ///
    /// # Panics
    ///
    /// Panics if the bandwidths differ or `columns` is out of range.
    pub fn copy_columns(&mut self, factor: &BandedLdlt, columns: Range<usize>) {
        assert_eq!(self.kd, factor.kd, "copy between bands of different width");
        let ld = self.kd + 1;
        let planes = columns.start * ld..columns.end * ld;
        self.re[planes.clone()].copy_from_slice(&factor.re[planes.clone()]);
        self.im[planes.clone()].copy_from_slice(&factor.im[planes]);
    }

    /// Writes a [`Seam`] back into its `kd` columns, whole.
    ///
    /// Rows from `seam.column() + kd` on are entries no pivot before the
    /// seam reaches: the snapshotted band's own. A caller whose band
    /// differs there re-sets them afterwards.
    ///
    /// # Panics
    ///
    /// Panics if the seam's columns do not fit this band.
    pub fn restore(&mut self, seam: &Seam) {
        let ld = self.kd + 1;
        let planes = seam.column * ld..seam.column * ld + seam.re.len();
        self.re[planes.clone()].copy_from_slice(&seam.re);
        self.im[planes].copy_from_slice(&seam.im);
    }

    /// Factors the matrix as `L·Δ·Lᵀ` without pivoting, consuming it.
    ///
    /// This is the right-looking elimination of the unblocked reference,
    /// reordered into panels of `FACTOR_PANEL` (16) columns. Inside a panel
    /// each pivot column is scaled and updates the panel's own later columns
    /// eagerly. Its updates to columns right of the panel are deferred, then
    /// applied column by column: each trailing column is loaded once and
    /// receives the pending update of every pivot of the panel while it sits
    /// in registers, a strip of rows per pass, instead of the whole trailing
    /// window streaming through the cache once per pivot.
    ///
    /// Every element still receives its updates in ascending pivot order,
    /// each as `a − l·v` in one fused op sequence (`l` the scaled
    /// multiplier of its row, `v` the unscaled entry of its column), and a
    /// zero `v` skips its column exactly as the reference does. The factor
    /// is therefore bit-identical to the unblocked elimination.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Singular`] at the first exactly zero pivot.
    pub fn factorize(self) -> Result<BandedLdlt, LinalgError> {
        let n = self.n;
        self.eliminate(0, n, None).map(|(factor, _)| factor)
    }

    /// Eliminates pivots `from..pivots`, consuming the band: the
    /// elimination [`SymBandedMatrix::factorize`] runs, over a column range.
    ///
    /// Columns before `from` must already hold factor columns and the `kd`
    /// columns from `from` the state eliminating them left: the band itself
    /// when `from` is 0, or a restored [`Seam`] behind copied factor
    /// columns. With `pivots < n` the last panel's updates are applied too,
    /// so the columns from `pivots` on hold the Schur complement of the
    /// eliminated block. With `snapshot = Some(c)`, the seam at column `c`
    /// is copied when the elimination reaches it. Every element ends as it
    /// would from one uninterrupted elimination, whatever `from` and `c`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Singular`] at the first exactly zero pivot.
    ///
    /// # Panics
    ///
    /// Panics unless `from ≤ pivots ≤ n`, and, with a snapshot at `c`,
    /// `from ≤ c ≤ pivots` and `c + kd ≤ n`.
    pub fn eliminate(
        self,
        from: usize,
        pivots: usize,
        snapshot: Option<usize>,
    ) -> Result<(BandedLdlt, Option<Seam>), LinalgError> {
        let SymBandedMatrix {
            n,
            kd,
            mut re,
            mut im,
        } = self;
        assert!(from <= pivots && pivots <= n, "pivot range out of band");
        let ld = kd + 1;
        let seam = match snapshot {
            Some(column) => {
                assert!(
                    from <= column && column <= pivots && column + kd <= n,
                    "seam outside the eliminated range"
                );
                eliminate_panels(&mut re, &mut im, n, kd, from..column)?;
                let planes = column * ld..(column + kd) * ld;
                Some(Seam {
                    column,
                    re: re[planes.clone()].to_vec(),
                    im: im[planes].to_vec(),
                })
            }
            None => None,
        };
        let start = seam.as_ref().map_or(from, |s| s.column);
        eliminate_panels(&mut re, &mut im, n, kd, start..pivots)?;
        Ok((
            BandedLdlt {
                n,
                kd,
                pivots,
                re,
                im,
            },
            seam,
        ))
    }

    /// The unblocked right-looking elimination that
    /// [`SymBandedMatrix::eliminate`] reorders: the reference its factor
    /// is pinned against bit for bit, here also stopping after `pivots`.
    #[cfg(test)]
    fn factorize_unblocked(self, pivots: usize) -> Result<BandedLdlt, LinalgError> {
        let SymBandedMatrix {
            n,
            kd,
            mut re,
            mut im,
        } = self;
        let ld = kd + 1;
        let at = |re: &[f64], im: &[f64], o: usize| Complex64::new(re[o], im[o]);
        let mut v = vec![Complex64::ZERO; ld];
        for j in 0..pivots {
            let c = j * ld;
            let d = at(&re, &im, c);
            if d == Complex64::ZERO {
                return Err(LinalgError::Singular { index: j });
            }
            let inv = d.recip();
            (re[c], im[c]) = (inv.re, inv.im);
            let km = kd.min(n - 1 - j);
            for t in 1..=km {
                v[t] = at(&re, &im, c + t);
                let l = cmul_recip(v[t], inv);
                (re[c + t], im[c + t]) = (l.re, l.im);
            }
            // Rank-1 update of the trailing lower triangle.
            for t in 1..=km {
                if v[t] == Complex64::ZERO {
                    continue;
                }
                let k = (j + t) * ld;
                for r in t..=km {
                    let a = cmul_sub(at(&re, &im, k + r - t), at(&re, &im, c + r), v[t]);
                    (re[k + r - t], im[k + r - t]) = (a.re, a.im);
                }
            }
        }
        Ok(BandedLdlt {
            n,
            kd,
            pivots,
            re,
            im,
        })
    }
}

/// Eliminates the pivots of `range` in panels of [`FACTOR_PANEL`], the last
/// panel's deferred updates included unless it ends the band.
fn eliminate_panels(
    re: &mut [f64],
    im: &mut [f64],
    n: usize,
    kd: usize,
    range: Range<usize>,
) -> Result<(), LinalgError> {
    let ld = kd + 1;
    // The unscaled pivot columns of the current panel: entry `t` of
    // pivot `p0 + idx` is at `idx·ld + t`, the `v` its updates use.
    let mut vr = vec![0.0f64; FACTOR_PANEL * ld];
    let mut vi = vec![0.0f64; FACTOR_PANEL * ld];
    let mut active = [Pending::default(); FACTOR_PANEL];
    for p0 in range.clone().step_by(FACTOR_PANEL) {
        let p1 = (p0 + FACTOR_PANEL).min(range.end);
        for j in p0..p1 {
            let c = j * ld;
            let q = (j - p0) * ld;
            let km = kd.min(n - 1 - j);
            scale_pivot_column(
                &mut re[c..=c + km],
                &mut im[c..=c + km],
                &mut vr[q..=q + km],
                &mut vi[q..=q + km],
            )
            .map_err(|()| LinalgError::Singular { index: j })?;
            // Eager updates of the panel's own later columns.
            let (col_r, rest_r) = re[c..].split_at_mut(ld);
            let (col_i, rest_i) = im[c..].split_at_mut(ld);
            for t in 1..=km.min(p1 - 1 - j) {
                let (fr, fi) = (vr[q + t], vi[q + t]);
                if fr == 0.0 && fi == 0.0 {
                    continue;
                }
                let k0 = (t - 1) * ld;
                let len = km + 1 - t;
                update_column(
                    &mut rest_r[k0..k0 + len],
                    &mut rest_i[k0..k0 + len],
                    &col_r[t..=km],
                    &col_i[t..=km],
                    fr,
                    fi,
                );
            }
        }
        if p1 == n {
            break;
        }
        // Deferred updates of the columns right of the panel.
        let (panel_r, trail_r) = re.split_at_mut(p1 * ld);
        let (panel_i, trail_i) = im.split_at_mut(p1 * ld);
        for k in p1..=(p1 - 1 + kd).min(n - 1) {
            let mut m = 0;
            for j in p0..p1 {
                let t = k - j;
                let km = kd.min(n - 1 - j);
                let q = (j - p0) * ld + t;
                if t > km || (vr[q] == 0.0 && vi[q] == 0.0) {
                    continue;
                }
                active[m] = Pending {
                    off: j * ld + t,
                    fr: vr[q],
                    fi: vi[q],
                    rows: km + 1 - t,
                };
                m += 1;
            }
            let k0 = (k - p1) * ld;
            flush_column(
                &mut trail_r[k0..k0 + ld],
                &mut trail_i[k0..k0 + ld],
                panel_r,
                panel_i,
                &active[..m],
            );
        }
    }
    Ok(())
}

/// The `kd` partially updated columns a factorization holds at column `c`
/// after eliminating the pivots before it, copied whole: with the first `c`
/// factor columns, everything an elimination resuming at `c` needs
/// ([`SymBandedMatrix::restore`], [`SymBandedMatrix::eliminate`]).
#[derive(Debug, Clone)]
pub struct Seam {
    column: usize,
    re: Vec<f64>,
    im: Vec<f64>,
}

impl Seam {
    /// The column the seam starts at: the pivots eliminated before it.
    pub fn column(&self) -> usize {
        self.column
    }

    /// Complex entries the seam holds, `kd·(kd + 1)`.
    pub fn entries(&self) -> usize {
        self.re.len()
    }
}

/// Turns a pivot column into its factor column in place: the pivot into its
/// reciprocal and every entry below it into its multiplier `l = v / Δ`,
/// saving the unscaled entries in `vr`/`vi`. Fails on an exactly zero
/// pivot.
#[inline(always)]
fn scale_pivot_column(
    col_r: &mut [f64],
    col_i: &mut [f64],
    vr: &mut [f64],
    vi: &mut [f64],
) -> Result<(), ()> {
    let d = Complex64::new(col_r[0], col_i[0]);
    if d == Complex64::ZERO {
        return Err(());
    }
    let inv = d.recip();
    (col_r[0], col_i[0]) = (inv.re, inv.im);
    vr.copy_from_slice(col_r);
    vi.copy_from_slice(col_i);
    for t in 1..col_r.len() {
        let l = cmul_recip(Complex64::new(vr[t], vi[t]), inv);
        (col_r[t], col_i[t]) = (l.re, l.im);
    }
    Ok(())
}

/// One pivot's update of one column strip: `dst[r] −= l[r]·f`.
#[inline(always)]
fn update_column(dst_r: &mut [f64], dst_i: &mut [f64], lr: &[f64], li: &[f64], fr: f64, fi: f64) {
    let n = dst_r.len();
    let (dst_i, lr, li) = (&mut dst_i[..n], &lr[..n], &li[..n]);
    for q in 0..n {
        dst_r[q] = li[q].mul_add(fi, fnma(lr[q], fr, dst_r[q]));
        dst_i[q] = fnma(li[q], fr, fnma(lr[q], fi, dst_i[q]));
    }
}

/// A panel pivot's pending update of one trailing column `k`: its
/// multipliers for rows `k..k + rows` start at plane index `off`, and `f` is
/// its unscaled entry in row `k`.
#[derive(Debug, Clone, Copy, Default)]
struct Pending {
    off: usize,
    fr: f64,
    fi: f64,
    rows: usize,
}

/// Applies the pending updates of one panel to the trailing column `dst`.
/// `active` is in ascending pivot order, so its `rows` never decrease: the
/// first entry's rows receive every update and are swept in register
/// strips of 32, 16 and 8 rows. The rest, including the rows only the later
/// pivots reach, take one pivot's strip at a time, still in ascending pivot
/// order.
#[inline(always)]
fn flush_column(
    dst_r: &mut [f64],
    dst_i: &mut [f64],
    src_r: &[f64],
    src_i: &[f64],
    active: &[Pending],
) {
    let Some(first) = active.first() else {
        return;
    };
    let mut r = 0;
    while r + 32 <= first.rows {
        flush_rows::<32>(dst_r, dst_i, src_r, src_i, active, r);
        r += 32;
    }
    if r + 16 <= first.rows {
        flush_rows::<16>(dst_r, dst_i, src_r, src_i, active, r);
        r += 16;
    }
    if r + 8 <= first.rows {
        flush_rows::<8>(dst_r, dst_i, src_r, src_i, active, r);
        r += 8;
    }
    for p in active {
        update_column(
            &mut dst_r[r..p.rows],
            &mut dst_i[r..p.rows],
            &src_r[p.off + r..p.off + p.rows],
            &src_i[p.off + r..p.off + p.rows],
            p.fr,
            p.fi,
        );
    }
}

/// Rows `r..r + R` of a trailing column take every pending update while
/// they sit in registers.
#[inline(always)]
fn flush_rows<const R: usize>(
    dst_r: &mut [f64],
    dst_i: &mut [f64],
    src_r: &[f64],
    src_i: &[f64],
    active: &[Pending],
    r: usize,
) {
    let dr: &mut [f64; R] = (&mut dst_r[r..r + R]).try_into().expect("strip");
    let di: &mut [f64; R] = (&mut dst_i[r..r + R]).try_into().expect("strip");
    let (mut ar, mut ai) = (*dr, *di);
    for p in active {
        let lr: &[f64; R] = src_r[p.off + r..][..R].try_into().expect("strip");
        let li: &[f64; R] = src_i[p.off + r..][..R].try_into().expect("strip");
        for q in 0..R {
            ar[q] = li[q].mul_add(p.fi, fnma(lr[q], p.fr, ar[q]));
            ai[q] = fnma(li[q], p.fr, fnma(lr[q], p.fi, ai[q]));
        }
    }
    (*dr, *di) = (ar, ai);
}

/// What [`solve_refined`] found for one right-hand side.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Residual {
    /// The relative residual `‖S·x − b‖/‖b‖` of the returned solution
    /// (`‖S·x‖` when `b = 0`).
    pub relative: f64,
    /// Whether the first solve's residual exceeded [`REFINE_ABOVE`], so the
    /// solution was refined once.
    pub refined: bool,
}

/// Solves every right-hand side in `xs` in place with `solve`, guarded:
/// `apply(x, y)` must overwrite `y` with `S·x`. Each solution's relative
/// residual is computed from it, and a solution whose residual exceeds
/// [`REFINE_ABOVE`] is refined once, `x += S⁻¹·(b − S·x)`, the corrections
/// of a block solved as one block. Returns each solution's final residual,
/// in input order.
///
/// `solve` is any direct solve of `S` over a block, such as
/// [`BandedLdlt::solve`] or [`BandedLdlt::solve_twisted`]: the one guard
/// every direct solve shares.
///
/// A non-finite residual is not refined: refinement cannot repair a
/// non-finite right-hand side, and the caller's finiteness check reports
/// it.
pub fn solve_refined(
    xs: &mut [impl AsMut<[Complex64]>],
    solve: impl Fn(&mut [&mut [Complex64]]),
    apply: impl Fn(&[Complex64], &mut [Complex64]),
) -> Vec<Residual> {
    let rhs: Vec<Vec<Complex64>> = xs.iter_mut().map(|x| x.as_mut().to_vec()).collect();
    solve(&mut xs.iter_mut().map(AsMut::as_mut).collect::<Vec<_>>());
    // Overwrites `r` with `b − S·x` and returns its norm relative to
    // `b`'s.
    let n = rhs.first().map_or(0, Vec::len);
    let mut r = vec![Complex64::ZERO; n];
    let residual = |x: &[Complex64], b: &[Complex64], r: &mut [Complex64]| {
        apply(x, r);
        let (mut num, mut den) = (0.0, 0.0);
        for (r, b) in r.iter_mut().zip(b) {
            *r = *b - *r;
            num += r.norm_sqr();
            den += b.norm_sqr();
        }
        (if den == 0.0 { num } else { num / den }).sqrt()
    };
    let mut out = Vec::with_capacity(xs.len());
    let mut corrections = Vec::new();
    let mut lanes = Vec::new();
    for (i, (x, b)) in xs.iter_mut().zip(&rhs).enumerate() {
        let relative = residual(x.as_mut(), b, &mut r);
        out.push(Residual {
            relative,
            refined: false,
        });
        if relative > REFINE_ABOVE && relative.is_finite() {
            corrections.push(r.clone());
            lanes.push(i);
        }
    }
    if lanes.is_empty() {
        return out;
    }
    solve(
        &mut corrections
            .iter_mut()
            .map(Vec::as_mut_slice)
            .collect::<Vec<_>>(),
    );
    for (dx, i) in corrections.iter().zip(lanes) {
        let x = xs[i].as_mut();
        for (x, dx) in x.iter_mut().zip(dx) {
            *x += *dx;
        }
        out[i] = Residual {
            relative: residual(x, &rhs[i], &mut r),
            refined: true,
        };
    }
    out
}

/// The `L·Δ·Lᵀ` factorization of a [`SymBandedMatrix`], complete or
/// stopped after its first `pivots` columns.
///
/// Column `j < pivots` holds `1/Δ[j]` at `j·(kd+1)` and `L[j+r][j]` for
/// `r = 1..=kd` after it, in split planes; the columns from `pivots` on
/// hold the Schur complement of the eliminated block.
#[derive(Debug, Clone)]
pub struct BandedLdlt {
    n: usize,
    kd: usize,
    pivots: usize,
    re: Vec<f64>,
    im: Vec<f64>,
}

impl BandedLdlt {
    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Number of sub-diagonals of the band.
    pub fn bandwidth(&self) -> usize {
        self.kd
    }

    /// Columns eliminated: `dim()` for a complete factorization.
    pub fn pivots(&self) -> usize {
        self.pivots
    }

    /// The stored entry `(i, j)`, `i ≥ j`: `1/Δ[j]` or `L[i][j]` for
    /// `j < pivots`, the Schur complement's entry from there on, zero
    /// outside the band.
    ///
    /// # Panics
    ///
    /// Panics if `j > i` or `i` is out of range.
    pub fn get(&self, i: usize, j: usize) -> Complex64 {
        assert!(j <= i && i < self.n, "factor index out of range");
        if i - j > self.kd {
            return Complex64::ZERO;
        }
        let o = j * (self.kd + 1) + i - j;
        Complex64::new(self.re[o], self.im[o])
    }

    /// Gives the factor's storage back as a band of the same shape, to be
    /// overwritten: every entry is stale until set.
    pub fn into_band(self) -> SymBandedMatrix {
        let BandedLdlt { n, kd, re, im, .. } = self;
        SymBandedMatrix { n, kd, re, im }
    }

    /// Solves `S x = b` for every right-hand side in `xs`, overwriting each
    /// with its solution: the `L` sweep, then `Δ⁻¹`, then the `Lᵀ` sweep.
    /// One system is a block of one:
    /// `ldlt.solve(std::slice::from_mut(&mut b))`.
    ///
    /// Takes `&self`: one factorization serves any number of right-hand
    /// sides (forward + adjoint + multi-source sweeps), which is the
    /// amortization the factorization cache in `maps-fdfd` is built on.
    ///
    /// Right-hand sides go in chunks of [`RHS_BLOCK`], each carried through
    /// **one** pass over the band data, so the factor is read once per chunk
    /// instead of once per right-hand side. A chunk of one or two runs the
    /// one-system sweeps, two systems side by side; a wider chunk runs the
    /// lane-major blocked kernel. Every lane replays the one-system op
    /// sequence, zero-skips included, so each solution is **bit-identical**
    /// to solving its system alone.
    ///
    /// # Panics
    ///
    /// Panics if the factorization is partial or any right-hand side's
    /// length differs from `self.dim()`.
    pub fn solve(&self, xs: &mut [impl AsMut<[Complex64]>]) {
        assert_eq!(self.pivots, self.n, "solve needs a complete factorization");
        solve_split(self, None, xs);
    }

    /// Solves with the twisted factorization whose top is `self`, a partial
    /// factor of the leading rows of `S` stopped at `b = self.pivots()`,
    /// and whose bottom is `bottom`, the complete factor of the Schur
    /// complement on rows `b..`, rows in reversed order. `S` has
    /// `b + bottom.dim()` rows, and `self` holds its leading
    /// `self.dim() ≤ b + bottom.dim()` rows and columns.
    ///
    /// Both halves run in one scratch block: the top's `L` sweep bounded at
    /// `b` pivots, the rows from `b` reversed, the bottom's full solve,
    /// the rows reversed back, and the top's `Δ⁻¹`/`Lᵀ` sweep bounded at `b`.
    /// Lanes are blocked as in [`BandedLdlt::solve`] and stay bit-identical
    /// to solving their systems alone.
    ///
    /// # Panics
    ///
    /// Panics if the halves do not fit together or a right-hand side's
    /// length differs from `b + bottom.dim()`.
    pub fn solve_twisted(&self, bottom: &BandedLdlt, xs: &mut [impl AsMut<[Complex64]>]) {
        assert!(
            bottom.pivots == bottom.n && self.n <= self.pivots + bottom.n,
            "twisted halves do not fit together"
        );
        solve_split(self, Some(bottom), xs);
    }

    /// The `L` sweep over the pivots, for `L` systems side by side: each
    /// system in split planes of its own, vectorized along the rows of the
    /// factor, and the `L` systems in the same loops so each column of the
    /// factor is loaded once for all of them. `L = 1` is the reference the
    /// blocked kernel is pinned against bit for bit; every system runs the
    /// same ops at any `L`. A system whose entry is zero skips its column's
    /// update.
    fn sweep_l_lanes<const L: usize>(&self, mut zr: [&mut [f64]; L], mut zi: [&mut [f64]; L]) {
        let (n, kd, ld) = (self.n, self.kd, self.kd + 1);
        for j in 0..self.pivots.min(n.saturating_sub(1)) {
            let km = kd.min(n - 1 - j);
            let c = j * ld + 1;
            let (lr, li) = (&self.re[c..c + km], &self.im[c..c + km]);
            let b: [(f64, f64); L] = core::array::from_fn(|r| (zr[r][j], zi[r][j]));
            let live = b.map(|(br, bi)| br != 0.0 || bi != 0.0);
            if live.iter().all(|&l| l) {
                let dr = zr.each_mut().map(|z| &mut z[j + 1..j + 1 + km]);
                let di = zi.each_mut().map(|z| &mut z[j + 1..j + 1 + km]);
                for q in 0..km {
                    for r in 0..L {
                        let (br, bi) = b[r];
                        dr[r][q] = li[q].mul_add(bi, fnma(lr[q], br, dr[r][q]));
                        di[r][q] = fnma(li[q], br, fnma(lr[q], bi, di[r][q]));
                    }
                }
            } else {
                for r in (0..L).filter(|&r| live[r]) {
                    let (br, bi) = b[r];
                    let rows = j + 1..j + 1 + km;
                    update_column(&mut zr[r][rows.clone()], &mut zi[r][rows], lr, li, br, bi);
                }
            }
        }
    }

    /// The `Δ⁻¹` and `Lᵀ` sweep over the pivots, row-oriented, for `L`
    /// systems side by side: row `j` is `Δ⁻¹` of its entry minus the dot
    /// product of column `j` of `L` with the rows below, entry `o` of the
    /// column adding into partial `o % DOT_SUMS`, each partial in
    /// descending `o`. The entry next to the diagonal, the row solved last,
    /// comes last, so the chain from one row to the next is one update and
    /// the [`reduce`] tree.
    fn sweep_lt_lanes<const L: usize>(&self, zr: [&mut [f64]; L], zi: [&mut [f64]; L]) {
        let (n, kd, ld) = (self.n, self.kd, self.kd + 1);
        for j in (0..self.pivots).rev() {
            let km = kd.min(n - 1 - j);
            let c = j * ld;
            let (lr, li) = (&self.re[c + 1..c + 1 + km], &self.im[c + 1..c + 1 + km]);
            let yr = zr.each_ref().map(|z| &z[j + 1..j + 1 + km]);
            let yi = zi.each_ref().map(|z| &z[j + 1..j + 1 + km]);
            let mut sr = [[0.0f64; DOT_SUMS]; L];
            let mut si = [[0.0f64; DOT_SUMS]; L];
            let mut o = km - km % DOT_SUMS;
            for p in 0..DOT_SUMS {
                if o + p < km {
                    for r in 0..L {
                        let (y_r, y_i) = (yr[r][o + p], yi[r][o + p]);
                        dot_step(&mut sr[r][p], &mut si[r][p], lr[o + p], li[o + p], y_r, y_i);
                    }
                }
            }
            while o > 0 {
                o -= DOT_SUMS;
                for p in 0..DOT_SUMS {
                    for r in 0..L {
                        let (y_r, y_i) = (yr[r][o + p], yi[r][o + p]);
                        dot_step(&mut sr[r][p], &mut si[r][p], lr[o + p], li[o + p], y_r, y_i);
                    }
                }
            }
            let inv = Complex64::new(self.re[c], self.im[c]);
            for r in 0..L {
                let y = cmul_recip(Complex64::new(zr[r][j], zi[r][j]), inv);
                zr[r][j] = y.re - reduce(sr[r]);
                zi[r][j] = y.im - reduce(si[r]);
            }
        }
    }

    /// Blocked `L` sweep over the pivots, `w` live lanes (padded to `W`)
    /// in lane-major planes: the counterpart of
    /// [`BandedLdlt::sweep_l_lanes`].
    ///
    /// It runs in column panels of [`PANEL`]. Updates to rows *inside* a
    /// panel stay eager, since later panel columns read them, while updates
    /// to rows beyond it are deferred and flushed as one
    /// [`fused_update_rows`] gather pass, so each flushed row makes one
    /// register round trip per panel instead of one per column. The fused
    /// pass applies the panel's columns in ascending order with the shared
    /// [`cmul_sub`] op sequence, so each element sees the one-system order.
    ///
    /// Zero-skip replication: the one-system sweep skips a column whose
    /// entry is zero, and computing the update anyway could flip IEEE zero
    /// signs (`−0.0 − 0·m = +0.0`). The fused flush therefore requires every
    /// lane of every panel column to be live; otherwise the flush falls
    /// back to per-column strips, vectorized when a column's live lanes
    /// fill the block, per-lane when mixed, skipped when none.
    fn sweep_l_blocked<const W: usize>(&self, xr: &mut [f64], xi: &mut [f64], w: usize) {
        let (n, kd) = (self.n, self.kd);
        if kd == 0 || n < 2 {
            return;
        }
        // Re-slice to the exact `n·W` length so the optimizer sees the
        // compile-time size relation, keeping the loops free of bounds
        // checks.
        let (xr, xi) = (&mut xr[..n * W], &mut xi[..n * W]);
        // Per-panel state: the lane values of each column, its liveness,
        // the plane offset of its multipliers (`plane[offs + i]` is its
        // multiplier for row `i`), and the last row it updates.
        let mut b_r = [[0.0f64; W]; PANEL];
        let mut b_i = [[0.0f64; W]; PANEL];
        let mut lives = [0usize; PANEL];
        let mut offs = [0usize; PANEL];
        let mut ends = [0usize; PANEL];
        let end = self.pivots.min(n - 1);
        let mut p0 = 0usize;
        while p0 < end {
            let p1 = (p0 + PANEL).min(end);
            let pw = p1 - p0;
            for idx in 0..pw {
                let c = p0 + idx;
                let co = c * W;
                b_r[idx].copy_from_slice(&xr[co..co + W]);
                b_i[idx].copy_from_slice(&xi[co..co + W]);
                lives[idx] = live_lanes(&b_r[idx], &b_i[idx], w);
                offs[idx] = c * kd;
                ends[idx] = c + kd.min(n - 1 - c);
                // Eager narrow update of the rows still inside the panel.
                let t_end = ends[idx].min(p1 - 1);
                if lives[idx] > 0 && t_end > c {
                    self.column_strip::<W>(
                        xr,
                        xi,
                        offs[idx],
                        c + 1,
                        t_end + 1,
                        (&b_r[idx], &b_i[idx]),
                        lives[idx],
                        w,
                    );
                }
            }
            // Flush rows ≥ p1. `ends` is nondecreasing over the panel, so
            // rows [p1, ends[0]] receive every column.
            let e0 = ends[0];
            if lives[..pw].iter().all(|&l| l == w) && e0 >= p1 {
                fused_update_rows::<W>(
                    &self.re,
                    &self.im,
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
                        self.column_strip::<W>(
                            xr,
                            xi,
                            offs[idx],
                            e0 + 1,
                            ends[idx] + 1,
                            (&b_r[idx], &b_i[idx]),
                            w,
                            w,
                        );
                    }
                }
            } else {
                for idx in 0..pw {
                    if lives[idx] > 0 && ends[idx] >= p1 {
                        self.column_strip::<W>(
                            xr,
                            xi,
                            offs[idx],
                            p1,
                            ends[idx] + 1,
                            (&b_r[idx], &b_i[idx]),
                            lives[idx],
                            w,
                        );
                    }
                }
            }
            p0 = p1;
        }
    }

    /// One column's update of rows `lo..hi` in the blocked `L` sweep: its
    /// multipliers start at plane index `off + lo`. All lanes at once when
    /// all `w` are live, else per live lane.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn column_strip<const W: usize>(
        &self,
        xr: &mut [f64],
        xi: &mut [f64],
        off: usize,
        lo: usize,
        hi: usize,
        b: (&[f64; W], &[f64; W]),
        live: usize,
        w: usize,
    ) {
        let (cr, ci) = (&self.re[off + lo..off + hi], &self.im[off + lo..off + hi]);
        let (dr, di) = (&mut xr[lo * W..hi * W], &mut xi[lo * W..hi * W]);
        if live == w {
            update_strip::<W>(cr, ci, dr, di, b.0, b.1);
        } else {
            update_strip_lanes::<W>(cr, ci, dr, di, b.0, b.1, w);
        }
    }

    /// Blocked `Δ⁻¹` and `Lᵀ` sweep over the pivots: the one-system
    /// backward sweep with every lane keeping its own [`DOT_SUMS`] partial
    /// sums, filled in the same row order and combined by the same
    /// [`reduce`] tree.
    fn sweep_lt_blocked<const W: usize>(&self, xr: &mut [f64], xi: &mut [f64]) {
        let (n, kd, ld) = (self.n, self.kd, self.kd + 1);
        let (xr, xi) = (&mut xr[..n * W], &mut xi[..n * W]);
        for j in (0..self.pivots).rev() {
            let km = kd.min(n - 1 - j);
            let c = j * ld;
            let (lr, li) = (&self.re[c + 1..c + 1 + km], &self.im[c + 1..c + 1 + km]);
            let (head_r, rows_r) = xr.split_at_mut((j + 1) * W);
            let (head_i, rows_i) = xi.split_at_mut((j + 1) * W);
            let (rows_r, rows_i) = (&rows_r[..km * W], &rows_i[..km * W]);
            let mut sr = [[0.0f64; W]; DOT_SUMS];
            let mut si = [[0.0f64; W]; DOT_SUMS];
            let mut o = km - km % DOT_SUMS;
            for p in 0..DOT_SUMS {
                if o + p < km {
                    let (yr, yi) = (&rows_r[(o + p) * W..][..W], &rows_i[(o + p) * W..][..W]);
                    for r in 0..W {
                        dot_step(
                            &mut sr[p][r],
                            &mut si[p][r],
                            lr[o + p],
                            li[o + p],
                            yr[r],
                            yi[r],
                        );
                    }
                }
            }
            while o > 0 {
                o -= DOT_SUMS;
                for p in 0..DOT_SUMS {
                    let (yr, yi) = (&rows_r[(o + p) * W..][..W], &rows_i[(o + p) * W..][..W]);
                    for r in 0..W {
                        dot_step(
                            &mut sr[p][r],
                            &mut si[p][r],
                            lr[o + p],
                            li[o + p],
                            yr[r],
                            yi[r],
                        );
                    }
                }
            }
            let inv = Complex64::new(self.re[c], self.im[c]);
            let (xr_j, xi_j) = (&mut head_r[j * W..], &mut head_i[j * W..]);
            for r in 0..W {
                let y = cmul_recip(Complex64::new(xr_j[r], xi_j[r]), inv);
                xr_j[r] = y.re - reduce(core::array::from_fn(|p| sr[p][r]));
                xi_j[r] = y.im - reduce(core::array::from_fn(|p| si[p][r]));
            }
        }
    }
}

/// The solve behind [`BandedLdlt::solve`] (no `bottom`: `top` is complete)
/// and [`BandedLdlt::solve_twisted`]. One scratch block serves every chunk
/// and both halves, sliced to each chunk's physical width.
fn solve_split(top: &BandedLdlt, bottom: Option<&BandedLdlt>, xs: &mut [impl AsMut<[Complex64]>]) {
    let n = bottom.map_or(top.n, |f| top.pivots + f.n);
    let mut rows: Vec<&mut [Complex64]> = xs.iter_mut().map(AsMut::as_mut).collect();
    for x in &rows {
        assert_eq!(x.len(), n, "solve dimension mismatch");
    }
    let wmax = phys_width(rows.len().min(RHS_BLOCK));
    let mut xr = vec![0.0f64; n * wmax];
    let mut xi = vec![0.0f64; n * wmax];
    let halves = Halves { top, bottom };
    for chunk in rows.chunks_mut(RHS_BLOCK) {
        let wp = phys_width(chunk.len());
        let (xr, xi) = (&mut xr[..n * wp], &mut xi[..n * wp]);
        match wp {
            1 => halves.solve_lanes::<1>(chunk, xr, xi),
            2 => halves.solve_lanes::<2>(chunk, xr, xi),
            4 => halves.solve_chunk::<4>(chunk, xr, xi),
            _ => halves.solve_chunk::<RHS_BLOCK>(chunk, xr, xi),
        }
    }
}

/// A complete factor (`bottom` none) or the two halves of a twisted one.
#[derive(Clone, Copy)]
struct Halves<'a> {
    top: &'a BandedLdlt,
    bottom: Option<&'a BandedLdlt>,
}

impl Halves<'_> {
    /// One or two systems in the one-system sweeps: `xr`/`xi` hold one
    /// `n`-long plane per system.
    fn solve_lanes<const L: usize>(
        self,
        chunk: &mut [&mut [Complex64]],
        xr: &mut [f64],
        xi: &mut [f64],
    ) {
        let n = xr.len() / L;
        let (mut pr, mut pi) = (xr.chunks_exact_mut(n), xi.chunks_exact_mut(n));
        let mut zr: [&mut [f64]; L] = core::array::from_fn(|_| pr.next().expect("plane"));
        let mut zi: [&mut [f64]; L] = core::array::from_fn(|_| pi.next().expect("plane"));
        for (r, x) in chunk.iter().enumerate() {
            for (i, z) in x.iter().enumerate() {
                (zr[r][i], zi[r][i]) = (z.re, z.im);
            }
        }
        let (top, m) = (self.top, self.top.n);
        top.sweep_l_lanes(
            zr.each_mut().map(|z| &mut z[..m]),
            zi.each_mut().map(|z| &mut z[..m]),
        );
        if let Some(bottom) = self.bottom {
            let b = top.pivots;
            for z in zr.iter_mut().chain(zi.iter_mut()) {
                z[b..].reverse();
            }
            let (br, bi) = (
                zr.each_mut().map(|z| &mut z[b..]),
                zi.each_mut().map(|z| &mut z[b..]),
            );
            bottom.sweep_l_lanes(br, bi);
            let (br, bi) = (
                zr.each_mut().map(|z| &mut z[b..]),
                zi.each_mut().map(|z| &mut z[b..]),
            );
            bottom.sweep_lt_lanes(br, bi);
            for z in zr.iter_mut().chain(zi.iter_mut()) {
                z[b..].reverse();
            }
        }
        top.sweep_lt_lanes(
            zr.each_mut().map(|z| &mut z[..m]),
            zi.each_mut().map(|z| &mut z[..m]),
        );
        for (r, x) in chunk.iter_mut().enumerate() {
            for (i, z) in x.iter_mut().enumerate() {
                *z = Complex64::new(zr[r][i], zi[r][i]);
            }
        }
    }

    /// One chunk of the blocked kernel at physical lane width
    /// `W ≥ chunk.len() ≥ 3`: gather the right-hand sides into split re/im
    /// planes with lane-major rows (lane `r` of row `i` lives at
    /// `plane[i·W + r]`, so the per-row inner loops touch `W` contiguous
    /// `f64` per plane), sweep, and scatter the solutions back in place.
    /// `xr`/`xi` are caller-owned scratch of length `n·W`.
    ///
    /// The width is monomorphized so the strip kernels compile with
    /// compile-time trip counts, and [`phys_width`] picks the narrowest that
    /// covers the chunk, so a tail chunk never pays for lanes it does not
    /// fill. Padding lanes start at zero and are computed and discarded;
    /// lanes never mix, so padding cannot perturb real lanes.
    fn solve_chunk<const W: usize>(
        self,
        chunk: &mut [&mut [Complex64]],
        xr: &mut [f64],
        xi: &mut [f64],
    ) {
        const SCATTER_TILE: usize = 512;
        let n = xr.len() / W;
        let w = chunk.len();
        debug_assert!(w >= 3 && w <= W);
        if w < W {
            // Padding lanes must start at zero; a full chunk overwrites
            // every lane below, so only padded chunks pay this clear.
            xr.fill(0.0);
            xi.fill(0.0);
        }
        // Gather: row-outer order keeps the plane writes contiguous while
        // the per-lane reads advance as `w` sequential streams.
        let bs: [&[Complex64]; W] = core::array::from_fn(|r| &*chunk[r.min(w - 1)]);
        for i in 0..n {
            let (row_r, row_i) = (&mut xr[i * W..(i + 1) * W], &mut xi[i * W..(i + 1) * W]);
            for r in 0..w {
                let z = bs[r][i];
                row_r[r] = z.re;
                row_i[r] = z.im;
            }
        }
        let top = self.top;
        top.sweep_l_blocked::<W>(xr, xi, w);
        if let Some(bottom) = self.bottom {
            let b = top.pivots * W;
            reverse_rows::<W>(&mut xr[b..]);
            reverse_rows::<W>(&mut xi[b..]);
            bottom.sweep_l_blocked::<W>(&mut xr[b..], &mut xi[b..], w);
            bottom.sweep_lt_blocked::<W>(&mut xr[b..], &mut xi[b..]);
            reverse_rows::<W>(&mut xr[b..]);
            reverse_rows::<W>(&mut xi[b..]);
        }
        top.sweep_lt_blocked::<W>(xr, xi);
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
}

/// Reverses the order of the `W`-wide rows of a lane-major plane.
fn reverse_rows<const W: usize>(plane: &mut [f64]) {
    let rows = plane.len() / W;
    for i in 0..rows / 2 {
        let (head, tail) = plane.split_at_mut((rows - 1 - i) * W);
        head[i * W..(i + 1) * W].swap_with_slice(&mut tail[..W]);
    }
}

/// The physical lane width a chunk of `len ≤ RHS_BLOCK` right-hand sides is
/// solved at: one or two systems take the one-system loops, a plane each;
/// wider chunks the blocked kernel, monomorphized at the narrower of 4 and
/// [`RHS_BLOCK`] that covers them.
#[inline(always)]
fn phys_width(len: usize) -> usize {
    match len {
        0..=2 => len,
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

/// Rank-1 band-strip update `dst[k][r] −= col[k] · b[r]` in split planes:
/// row `k` of the strip is `dst_?[k·W .. (k+1)·W]`. Each lane runs the exact
/// [`cmul_sub`] op sequence of the one-system sweep.
#[inline(always)]
fn update_strip<const W: usize>(
    col_r: &[f64],
    col_i: &[f64],
    dst_r: &mut [f64],
    dst_i: &mut [f64],
    b_r: &[f64; W],
    b_i: &[f64; W],
) {
    assert_eq!(dst_r.len(), col_r.len() * W, "strip length mismatch");
    assert_eq!(dst_i.len(), col_r.len() * W, "strip length mismatch");
    for (k, (&mr, &mi)) in col_r.iter().zip(col_i).enumerate() {
        let o = k * W;
        for r in 0..W {
            dst_r[o + r] = mi.mul_add(b_i[r], fnma(mr, b_r[r], dst_r[o + r]));
            dst_i[o + r] = fnma(mi, b_r[r], fnma(mr, b_i[r], dst_i[o + r]));
        }
    }
}

/// Per-lane variant of [`update_strip`] for columns where only some lanes
/// are live: each zero lane is skipped exactly like the one-system sweep,
/// and live lanes run the identical op sequence.
#[inline(always)]
fn update_strip_lanes<const W: usize>(
    col_r: &[f64],
    col_i: &[f64],
    dst_r: &mut [f64],
    dst_i: &mut [f64],
    b_r: &[f64; W],
    b_i: &[f64; W],
    w: usize,
) {
    assert_eq!(dst_r.len(), col_r.len() * W, "strip length mismatch");
    assert_eq!(dst_i.len(), col_r.len() * W, "strip length mismatch");
    for r in 0..w {
        let (bre, bim) = (b_r[r], b_i[r]);
        if bre == 0.0 && bim == 0.0 {
            continue;
        }
        for (k, (&mr, &mi)) in col_r.iter().zip(col_i).enumerate() {
            let o = k * W + r;
            dst_r[o] = mi.mul_add(bim, fnma(mr, bre, dst_r[o]));
            dst_i[o] = fnma(mi, bre, fnma(mr, bim, dst_i[o]));
        }
    }
}

/// The fused flush of a deferred `L` panel: every row in `lo..=hi` is loaded
/// into registers once, receives the contributions of all panel columns in
/// `offs` order (ascending), and is stored once. Rows go two per pass, so
/// each plane carries two independent FMA chains.
///
/// Column `idx` must cover the whole range (`plane[offs[idx] + i]` is its
/// multiplier for row `i`) and every lane of every panel column must be
/// live: the caller checks both, falling back to per-column strips
/// otherwise so the one-system zero-skips stay replicated.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn fused_update_rows<const W: usize>(
    lr: &[f64],
    li: &[f64],
    offs: &[usize],
    b_r: &[[f64; W]],
    b_i: &[[f64; W]],
    xr: &mut [f64],
    xi: &mut [f64],
    lo: usize,
    hi: usize,
) {
    let mut i = lo;
    while i < hi {
        let ro = i * W;
        let mut a0r: [f64; W] = xr[ro..ro + W].try_into().expect("row");
        let mut a0i: [f64; W] = xi[ro..ro + W].try_into().expect("row");
        let mut a1r: [f64; W] = xr[ro + W..ro + 2 * W].try_into().expect("row");
        let mut a1i: [f64; W] = xi[ro + W..ro + 2 * W].try_into().expect("row");
        for (idx, &off) in offs.iter().enumerate() {
            let (m0r, m0i) = (lr[off + i], li[off + i]);
            let (m1r, m1i) = (lr[off + i + 1], li[off + i + 1]);
            let (br, bi) = (&b_r[idx], &b_i[idx]);
            for r in 0..W {
                a0r[r] = m0i.mul_add(bi[r], fnma(m0r, br[r], a0r[r]));
                a0i[r] = fnma(m0i, br[r], fnma(m0r, bi[r], a0i[r]));
                a1r[r] = m1i.mul_add(bi[r], fnma(m1r, br[r], a1r[r]));
                a1i[r] = fnma(m1i, br[r], fnma(m1r, bi[r], a1i[r]));
            }
        }
        xr[ro..ro + W].copy_from_slice(&a0r);
        xi[ro..ro + W].copy_from_slice(&a0i);
        xr[ro + W..ro + 2 * W].copy_from_slice(&a1r);
        xi[ro + W..ro + 2 * W].copy_from_slice(&a1i);
        i += 2;
    }
    if i == hi {
        let ro = i * W;
        let mut ar: [f64; W] = xr[ro..ro + W].try_into().expect("row");
        let mut ai: [f64; W] = xi[ro..ro + W].try_into().expect("row");
        for (idx, &off) in offs.iter().enumerate() {
            let (mr, mi) = (lr[off + i], li[off + i]);
            let (br, bi) = (&b_r[idx], &b_i[idx]);
            for r in 0..W {
                ar[r] = mi.mul_add(bi[r], fnma(mr, br[r], ar[r]));
                ai[r] = fnma(mi, br[r], fnma(mr, bi[r], ai[r]));
            }
        }
        xr[ro..ro + W].copy_from_slice(&ar);
        xi[ro..ro + W].copy_from_slice(&ai);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::znorm;
    use crate::BandedMatrix;

    /// A complex symmetric band of uniform entries in the unit square, with
    /// `boost` added to the diagonal.
    fn random_sym_band(n: usize, kd: usize, seed: u64, boost: f64) -> SymBandedMatrix {
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
        let mut band = SymBandedMatrix::zeros(n, kd);
        for j in 0..n {
            for i in j..(j + kd + 1).min(n) {
                let mut v = Complex64::new(next(), next());
                if i == j {
                    v += Complex64::from_re(boost);
                }
                band.set(i, j, v);
            }
        }
        band
    }

    /// The same matrix in general band storage, for the pivoted LU.
    fn to_general(s: &SymBandedMatrix) -> BandedMatrix {
        let (n, kd) = (s.dim(), s.bandwidth());
        let mut a = BandedMatrix::zeros(n, kd, kd);
        for i in 0..n {
            for j in i.saturating_sub(kd)..(i + kd + 1).min(n) {
                a.set(i, j, s.get(i, j));
            }
        }
        a
    }

    fn solve1(f: &BandedLdlt, b: &[Complex64]) -> Vec<Complex64> {
        let mut x = b.to_vec();
        f.solve(std::slice::from_mut(&mut x));
        x
    }

    fn rel_residual(s: &SymBandedMatrix, x: &[Complex64], b: &[Complex64]) -> f64 {
        let r: Vec<Complex64> = s.matvec(x).iter().zip(b).map(|(p, q)| *p - *q).collect();
        znorm(&r) / znorm(b)
    }

    /// Asserts two complex slices are equal down to the sign of zero.
    fn assert_bits_eq(a: &[Complex64], b: &[Complex64], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: length");
        for (k, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.re.to_bits(), y.re.to_bits(), "{what}: re at {k}");
            assert_eq!(x.im.to_bits(), y.im.to_bits(), "{what}: im at {k}");
        }
    }

    /// Asserts every lane of a block solve equals its K=1 solve, down to
    /// the sign of zero.
    fn assert_block_matches_scalar(f: &BandedLdlt, rhs: &[Vec<Complex64>], what: &str) {
        assert_lanes_match(|xs| f.solve(xs), rhs, what);
    }

    /// [`assert_block_matches_scalar`] for any block solve.
    fn assert_lanes_match(
        solve: impl Fn(&mut [Vec<Complex64>]),
        rhs: &[Vec<Complex64>],
        what: &str,
    ) {
        let mut block = rhs.to_vec();
        solve(&mut block);
        for (r, (x, b)) in block.iter().zip(rhs).enumerate() {
            let mut one = vec![b.clone()];
            solve(&mut one);
            assert_bits_eq(x, &one[0], &format!("{what} lane {r}"));
        }
    }

    /// The split planes of a factor, as complex entries.
    fn planes(f: &BandedLdlt) -> Vec<Complex64> {
        f.re.iter()
            .zip(&f.im)
            .map(|(re, im)| Complex64::new(*re, *im))
            .collect()
    }

    /// Asserts two eliminations agree bit for bit, or fail at the same
    /// column.
    fn assert_same_elimination(
        got: Result<BandedLdlt, LinalgError>,
        want: &Result<BandedLdlt, LinalgError>,
        what: &str,
    ) {
        match (got, want) {
            (Ok(f), Ok(g)) => {
                assert_eq!(f.pivots, g.pivots, "{what}: pivots");
                assert_bits_eq(&planes(&f), &planes(g), what);
            }
            (Err(e), Err(g)) => assert_eq!(&e, g, "{what}: error"),
            (got, want) => panic!(
                "{what}: {:?} vs {:?}",
                got.map(|_| ()),
                want.as_ref().map(|_| ())
            ),
        }
    }

    /// A random band whose off-diagonal entries with `(3i + j) % zeros == 0`
    /// are `-0 − 0i`.
    fn band_with_negative_zeros(n: usize, kd: usize, seed: u64, zeros: usize) -> SymBandedMatrix {
        let mut band = random_sym_band(n, kd, seed, 0.0);
        for j in 0..n {
            for i in j + 1..(j + kd + 1).min(n) {
                if (3 * i + j) % zeros == 0 {
                    band.set(i, j, Complex64::new(-0.0, -0.0));
                }
            }
        }
        band
    }

    /// The twisted factorization of `band` split at `split`: the top
    /// eliminates the leading `split` pivots of the leading `split + kd`
    /// rows, and the bottom factors the Schur complement on the rows from
    /// `split`, reversed, its leading entries taken from the top's
    /// remainder.
    fn twisted(band: &SymBandedMatrix, split: usize) -> (BandedLdlt, BandedLdlt) {
        let (n, kd) = (band.dim(), band.bandwidth());
        let m = (split + kd).min(n);
        let mut top = SymBandedMatrix::zeros(m, kd);
        for j in 0..m {
            for i in j..(j + kd + 1).min(m) {
                top.set(i, j, band.get(i, j));
            }
        }
        let (top, _) = top.eliminate(0, split, None).unwrap();
        let nb = n - split;
        let mut bottom = SymBandedMatrix::zeros(nb, kd);
        for j in 0..nb {
            for i in j..(j + kd + 1).min(nb) {
                let (lo, hi) = (n - 1 - i, n - 1 - j);
                let v = if hi < m {
                    top.get(hi, lo)
                } else {
                    band.get(lo, hi)
                };
                bottom.set(i, j, v);
            }
        }
        (top, bottom.factorize().unwrap())
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

    /// Factors `band` with the panel kernel and the unblocked reference and
    /// asserts the two agree bit for bit, or fail at the same column.
    fn assert_factor_matches_reference(band: &SymBandedMatrix, what: &str) {
        match (
            band.clone().factorize(),
            band.clone().factorize_unblocked(band.dim()),
        ) {
            (Ok(f), Ok(reference)) => {
                assert_bits_eq(&planes(&f), &planes(&reference), what);
            }
            (Err(e), Err(reference)) => assert_eq!(e, reference, "{what}: error"),
            (got, reference) => panic!(
                "{what}: panel {:?} vs unblocked {:?}",
                got.map(|_| ()),
                reference.map(|_| ())
            ),
        }
    }

    #[test]
    fn solve_matches_the_pivoted_lu() {
        let n = 40;
        let band = random_sym_band(n, 5, 7, 4.0);
        let b: Vec<Complex64> = (0..n)
            .map(|k| Complex64::new(k as f64, -(k as f64) / 3.0))
            .collect();
        let x = solve1(&band.clone().factorize().unwrap(), &b);
        let mut x_lu = b.clone();
        to_general(&band)
            .factorize()
            .unwrap()
            .solve(std::slice::from_mut(&mut x_lu));
        let diff: Vec<Complex64> = x.iter().zip(&x_lu).map(|(a, b)| *a - *b).collect();
        assert!(znorm(&diff) < 1e-12 * znorm(&x_lu), "{}", znorm(&diff));
        assert!(rel_residual(&band, &x, &b) < 1e-14);
    }

    #[test]
    fn symmetric_storage_reads_both_triangles() {
        let mut band = SymBandedMatrix::zeros(5, 2);
        band.set(0, 2, Complex64::new(1.0, -2.0));
        assert_eq!(band.get(2, 0), Complex64::new(1.0, -2.0));
        assert_eq!(band.get(0, 2), Complex64::new(1.0, -2.0));
        assert_eq!(band.get(0, 3), Complex64::ZERO);
        assert_eq!(band.get(4, 1), Complex64::ZERO);
    }

    #[test]
    #[should_panic(expected = "outside band")]
    fn set_outside_the_band_panics() {
        SymBandedMatrix::zeros(5, 1).set(3, 0, Complex64::ONE);
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(96))]

        /// Random complex symmetric bands with no diagonal boost, over sizes
        /// below one panel and not a multiple of it. The off-diagonal entries
        /// with `(3i + j) % zeros == 0` are `-0 − 0i`, so updates whose `v`
        /// is zero must be skipped exactly where the reference skips them,
        /// or the signs of zeros differ.
        #[test]
        fn panel_factorization_is_bit_identical_to_unblocked(
            n in 1usize..101,
            kd in 0usize..13,
            seed in 0u64..u64::MAX,
            zeros in 2usize..6,
        ) {
            let mut band = random_sym_band(n, kd, seed, 0.0);
            for j in 0..n {
                for i in j + 1..(j + kd + 1).min(n) {
                    if (3 * i + j) % zeros == 0 {
                        band.set(i, j, Complex64::new(-0.0, -0.0));
                    }
                }
            }
            assert_factor_matches_reference(
                &band,
                &format!("n={n} kd={kd} seed={seed} zeros={zeros}"),
            );
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(96))]

        /// An elimination stopped at `pivots` (every pivot, or fewer, the
        /// rest left as the Schur complement) matches the unblocked
        /// reference stopped there. Taking a seam changes no bits, and
        /// resuming from it, behind the factor's first `c` columns copied
        /// into stale storage and the rest of the band set afresh, gives
        /// the same factor, or fails at the same column.
        #[test]
        fn resumed_elimination_is_bit_identical_to_straight(
            n in 1usize..101,
            kd in 0usize..13,
            seed in 0u64..u64::MAX,
            zeros in 2usize..6,
            cut in 0usize..1000,
            at in 0usize..1000,
        ) {
            let band = band_with_negative_zeros(n, kd, seed, zeros);
            let pivots = if cut % 3 == 0 { n } else { cut % (n + 1) };
            let what = format!("n={n} kd={kd} seed={seed} pivots={pivots}");
            let straight = band.clone().eliminate(0, pivots, None).map(|(f, _)| f);
            assert_same_elimination(
                band.clone().factorize_unblocked(pivots),
                &straight,
                &format!("{what} unblocked"),
            );
            proptest::prop_assume!(kd <= n);
            let c = at % (pivots.min(n - kd) + 1);
            let what = format!("{what} seam={c}");
            let snapped = band.clone().eliminate(0, pivots, Some(c)).map(|(f, _)| f);
            assert_same_elimination(snapped, &straight, &format!("{what} snapshot"));
            let head = band.clone().eliminate(0, c, Some(c));
            if let Err(e) = &head {
                assert_eq!(Err(e), straight.as_ref().map(|_| ()), "{what}: before the seam");
            }
            let Ok((head, Some(seam))) = head else {
                continue;
            };
            assert_eq!((seam.column(), seam.entries()), (c, kd * (kd + 1)));
            let mut resumed = band_with_negative_zeros(n, kd, seed ^ 1, zeros)
                .factorize()
                .map_or_else(|_| SymBandedMatrix::zeros(n, kd), BandedLdlt::into_band);
            resumed.copy_columns(&head, 0..c);
            resumed.restore(&seam);
            resumed.clear_columns(c + kd..n);
            for j in c..n {
                for i in (j.max(c + kd))..(j + kd + 1).min(n) {
                    resumed.set(i, j, band.get(i, j));
                }
            }
            let resumed = resumed.eliminate(c, pivots, None).map(|(f, _)| f);
            assert_same_elimination(resumed, &straight, &format!("{what} resumed"));
        }
    }

    /// The twisted solve, top and bottom of one band joined at the split,
    /// solves the band: at a split inside it, at 0 (no top pivots) and at
    /// `n − kd` (the top holds the whole band), on a band wider than
    /// [`DOT_SUMS`] with a remainder row count. Every blocked lane
    /// (K = 1..9 and 33, ±0 lanes included) equals its K=1 solve.
    #[test]
    fn twisted_solve_matches_the_band_and_blocks_match_k1() {
        let (n, kd) = (61, 11);
        let band = random_sym_band(n, kd, 2024, 4.0);
        for split in [30, 0, n - kd] {
            let (top, bottom) = twisted(&band, split);
            let solve = |xs: &mut [Vec<Complex64>]| top.solve_twisted(&bottom, xs);
            for b in mixed_rhs(n, 3) {
                let mut x = vec![b.clone()];
                solve(&mut x);
                let r = rel_residual(&band, &x[0], &b);
                assert!(r < 1e-13, "split {split}: residual {r:e}");
            }
            for k in (1..=9).chain([33]) {
                assert_lanes_match(solve, &mixed_rhs(n, k), &format!("split {split} K={k}"));
            }
            let signed: Vec<Vec<Complex64>> = (0..5)
                .map(|r| {
                    (0..n)
                        .map(|k| match (k + r) % 3 {
                            0 => Complex64::new(-0.0, 0.0),
                            1 => Complex64::new(0.0, -0.0),
                            _ => Complex64::new(-0.0, -0.0),
                        })
                        .collect()
                })
                .collect();
            assert_lanes_match(solve, &signed, &format!("split {split} zero signs"));
        }
    }

    /// A 5-point Helmholtz-shaped symmetric band on an 18×14 grid
    /// (bandwidth 18): an indefinite real diagonal `k²ε − 4` with a complex,
    /// PML-like loss that grows toward the grid edges, and unit neighbour
    /// couplings, so most of the band fills in.
    #[test]
    fn helmholtz_band_is_bit_identical() {
        let (nx, ny) = (18, 14);
        let mut band = SymBandedMatrix::zeros(nx * ny, nx);
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
                if iy > 0 {
                    band.set(k, k - nx, Complex64::ONE);
                }
            }
        }
        assert_factor_matches_reference(&band, "helmholtz");
        let b = mixed_rhs(nx * ny, 1).remove(0);
        let x = solve1(&band.clone().factorize().unwrap(), &b);
        assert!(rel_residual(&band, &x, &b) < 1e-13);
    }

    /// Singular bands fail at the same column as the reference: an
    /// all-zero band at column 0, and a band whose row and column 13 are
    /// zero, which the panel kernel reaches with updates pending.
    #[test]
    fn singular_bands_report_the_reference_column() {
        assert_eq!(
            SymBandedMatrix::zeros(3, 1).factorize().unwrap_err(),
            LinalgError::Singular { index: 0 }
        );
        let (n, kd) = (30, 3);
        let mut band = random_sym_band(n, kd, 5, 0.0);
        for i in 13 - kd..=13 + kd {
            band.set(i, 13, Complex64::ZERO);
        }
        assert_factor_matches_reference(&band, "zero column");
        assert_eq!(
            band.factorize().unwrap_err(),
            LinalgError::Singular { index: 13 }
        );
    }

    /// Bitwise pin: a block solve must reproduce the one-system path exactly
    /// for every block size K = 1..9 and K = 33 (odd tails across the
    /// [`RHS_BLOCK`] chunk boundary: 8+1, 8+8+8+8+1), on a band wider than
    /// [`DOT_SUMS`] with a remainder row count.
    #[test]
    fn blocked_sweep_is_bit_identical_to_scalar_path() {
        let n = 61;
        let f = random_sym_band(n, 11, 2024, 4.0).factorize().unwrap();
        for k in (1..=9).chain([33]) {
            assert_block_matches_scalar(&f, &mixed_rhs(n, k), &format!("K={k}"));
        }
    }

    /// Sign-of-zero stress: right-hand sides built entirely from ±0.0 must
    /// come out of the blocked sweep with the exact zero signs the
    /// one-system path produces (the zero-skip is what preserves them).
    #[test]
    fn blocked_sweep_preserves_zero_signs() {
        let n = 17;
        let f = random_sym_band(n, 3, 77, 4.0).factorize().unwrap();
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
        assert_block_matches_scalar(&f, &rhs, "zero-sign");
    }

    #[test]
    fn blocked_sweep_handles_empty_batch_and_diagonal_only() {
        let f = random_sym_band(9, 0, 6, 4.0).factorize().unwrap();
        let mut empty: Vec<Vec<Complex64>> = Vec::new();
        f.solve(&mut empty);
        assert!(empty.is_empty());
        assert_block_matches_scalar(&f, &mixed_rhs(9, 3), "diagonal-only");
    }

    #[test]
    #[should_panic(expected = "solve dimension mismatch")]
    fn solve_rejects_a_short_rhs_in_a_block() {
        let f = random_sym_band(8, 1, 3, 4.0).factorize().unwrap();
        let mut rhs = vec![vec![Complex64::ONE; 8]; 3];
        rhs[2].pop();
        f.solve(&mut rhs);
    }

    /// A leading pivot of 1e-8 next to unit couplings: eliminating it puts
    /// multipliers of 1e8 into `L`, so the unguarded solve loses about
    /// eight digits. One refinement against `S` recovers them, and a
    /// well-conditioned lane in the same block is left alone.
    #[test]
    fn refinement_repairs_a_tiny_leading_pivot() {
        let n = 12;
        let mut band = random_sym_band(n, 2, 11, 3.0);
        band.set(0, 0, Complex64::new(1e-8, 0.0));
        band.set(1, 0, Complex64::new(1.0, 0.5));
        band.set(2, 0, Complex64::new(-0.75, 1.0));
        let f = band.clone().factorize().unwrap();
        let b: Vec<Complex64> = (0..n)
            .map(|k| Complex64::new(1.0 + k as f64, 0.5 - k as f64))
            .collect();
        let unguarded = rel_residual(&band, &solve1(&f, &b), &b);
        assert!(unguarded > REFINE_ABOVE, "unguarded residual {unguarded:e}");
        let easy = random_sym_band(n, 2, 12, 4.0);
        let mut xs = vec![b.clone(), vec![Complex64::ZERO; n]];
        let report = solve_refined(
            &mut xs,
            |xs| f.solve(xs),
            |x, y| y.copy_from_slice(&band.matvec(x)),
        );
        assert!(report[0].refined, "{report:?}");
        assert!(report[0].relative <= 1e-15, "{report:?}");
        let recomputed = rel_residual(&band, &xs[0], &b);
        assert!((report[0].relative - recomputed).abs() <= 1e-3 * recomputed);
        eprintln!(
            "tiny pivot: unguarded {unguarded:e}, refined {:e}",
            report[0].relative
        );
        // A zero right-hand side solves to zero with a zero residual.
        assert_eq!(
            report[1],
            Residual {
                relative: 0.0,
                refined: false
            }
        );
        let fe = easy.clone().factorize().unwrap();
        let mut x = b.clone();
        let report = solve_refined(
            std::slice::from_mut(&mut x),
            |xs| fe.solve(xs),
            |x, y| y.copy_from_slice(&easy.matvec(x)),
        );
        assert!(!report[0].refined && report[0].relative <= REFINE_ABOVE);
        assert_bits_eq(&x, &solve1(&fe, &b), "unrefined lane");
    }
}
