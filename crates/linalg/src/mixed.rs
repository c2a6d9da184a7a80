//! Mixed-precision direct solves: `f32` factorization + `f64` refinement.
//!
//! The banded LU factorization is memory-bound — `O(n·b²)` complex values
//! stream through the rank-1 update — so factoring in single precision
//! moves half the bytes and roughly halves the dominant cost. A bare `f32`
//! factor only carries ~7 decimal digits, far short of what the adjoint
//! gradient checks need, so [`MixedBandedLu`] wraps the cheap factor in
//! **iterative refinement**: every solve iterates
//!
//! ```text
//! r = b − A·x      (f64 residual against the exact operator)
//! d = LU₃₂⁻¹ r     (f32 substitution sweeps)
//! x ← x + d        (f64 accumulation)
//! ```
//!
//! until the relative residual reaches [`REFINE_TOL`] (`1e-12`,
//! tighter than the `1e-10` acceptance gates; its doc says why).
//! Refinement converges when the operator is well-enough conditioned that
//! the `f32` factor contracts the error each pass; when it stagnates
//! instead, the solve transparently falls back to a full `f64`
//! factorization (computed once, then cached), so a mixed-precision solve
//! is never *less* accurate than the plain path — only cheaper when single
//! precision suffices.
//!
//! [`Factor`] packages the two factorization strategies behind one solve
//! surface so the factorization cache in `maps-fdfd` can hold either.

use crate::{BandedLu, BandedMatrix, Complex64, LinalgError, Sweep};
use std::ops::{Add, AddAssign, Mul, Neg, Sub};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Relative-residual target of the refinement loop (matched to the
/// accuracy the full-`f64` direct solve delivers on FDFD systems).
///
/// This is deliberately tighter than the `1e-10` the acceptance gates
/// check: the adjoint gradient tests difference objectives at the
/// `1e-13` level, so the refined solve must sit well below the gate for
/// those differences to survive. Refinement passes are `O(n·b)` against
/// an `O(n·b²)` factorization — the extra pass or two costs ~nothing.
pub const REFINE_TOL: f64 = 1e-12;

/// Refinement passes before the solve declares stagnation and falls back
/// to the full-`f64` factor. Converging systems finish in a handful of
/// passes (each contracts the error by ~`κ·2⁻²⁴`); a loop still above
/// tolerance after this many is not going to make it.
pub const MAX_REFINE_ITERS: usize = 16;

/// A complex number with `f32` parts — the storage type of the
/// single-precision factor. Deliberately minimal: just the arithmetic the
/// banded LU kernels need.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex32 {
    /// Real part.
    pub re: f32,
    /// Imaginary part.
    pub im: f32,
}

impl Complex32 {
    /// The additive identity, `0 + 0i`.
    pub const ZERO: Complex32 = Complex32 { re: 0.0, im: 0.0 };

    /// Creates a complex number from real and imaginary parts.
    #[inline]
    pub const fn new(re: f32, im: f32) -> Self {
        Complex32 { re, im }
    }

    /// Rounds a double-precision value to single precision.
    #[inline]
    pub fn from_c64(z: Complex64) -> Self {
        Complex32 {
            re: z.re as f32,
            im: z.im as f32,
        }
    }

    /// Widens back to double precision (exact).
    #[inline]
    pub fn to_c64(self) -> Complex64 {
        Complex64::new(self.re as f64, self.im as f64)
    }

    /// Squared magnitude `|z|²`.
    #[inline]
    pub fn norm_sqr(self) -> f32 {
        self.re * self.re + self.im * self.im
    }

    /// Magnitude `|z|`.
    #[inline]
    pub fn abs(self) -> f32 {
        self.re.hypot(self.im)
    }

    /// Multiplicative inverse `1/z` (NaNs when `z == 0`, matching IEEE).
    #[inline]
    pub fn recip(self) -> Self {
        let d = self.norm_sqr();
        Complex32::new(self.re / d, -self.im / d)
    }
}

impl Add for Complex32 {
    type Output = Complex32;
    #[inline]
    fn add(self, rhs: Complex32) -> Complex32 {
        Complex32::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl Sub for Complex32 {
    type Output = Complex32;
    #[inline]
    fn sub(self, rhs: Complex32) -> Complex32 {
        Complex32::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for Complex32 {
    type Output = Complex32;
    #[inline]
    fn mul(self, rhs: Complex32) -> Complex32 {
        Complex32::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl Neg for Complex32 {
    type Output = Complex32;
    #[inline]
    fn neg(self) -> Complex32 {
        Complex32::new(-self.re, -self.im)
    }
}

impl AddAssign for Complex32 {
    #[inline]
    fn add_assign(&mut self, rhs: Complex32) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

/// The single-precision banded LU: LAPACK band storage and elimination
/// order like [`BandedMatrix::factorize`], in `f32`. It pivots on
/// `|re| + |im|` where the `f64` path pivots on the modulus (`hypot`), so
/// the two factorizations of one matrix can choose different pivots. Only
/// the scalar substitution sweeps are provided — refinement solves one
/// corrector per pass, so the blocked multi-RHS kernels stay `f64`-only.
///
/// The band is stored as **split real/imaginary planes** (structure of
/// arrays) rather than interleaved complex values: the rank-1 update that
/// dominates the factorization then compiles to four independent
/// stride-1 `f32` FMA streams, which LLVM auto-vectorizes 8 lanes wide.
/// Interleaved complex storage defeats that (the shuffles cost more than
/// the math), which is why the plain `f64` factor — same op count, same
/// scalar code — runs at the same speed despite moving twice the bytes.
#[derive(Debug, Clone)]
struct BandedLuF32 {
    n: usize,
    kl: usize,
    ldab: usize,
    re: Vec<f32>,
    im: Vec<f32>,
    ipiv: Vec<usize>,
    kv: usize,
}

impl BandedLuF32 {
    /// Factors the single-precision image of `a` with partial pivoting.
    fn factorize(a: &BandedMatrix) -> Result<Self, LinalgError> {
        let n = a.dim();
        let (kl, ku) = (a.lower_bandwidth(), a.upper_bandwidth());
        let ldab = 2 * kl + ku + 1;
        let kv = kl + ku;
        let mut re = vec![0.0f32; ldab * n];
        let mut im = vec![0.0f32; ldab * n];
        // Round the band image down to f32. Only the stored band is copied;
        // the kl fill-in rows start at zero exactly like the f64 path.
        for j in 0..n {
            let ilo = j.saturating_sub(ku);
            let ihi = (j + kl).min(n.saturating_sub(1));
            for i in ilo..=ihi {
                let z = a.get(i, j);
                re[j * ldab + kv + i - j] = z.re as f32;
                im[j * ldab + kv + i - j] = z.im as f32;
            }
        }
        let mut ipiv = vec![0usize; n];
        let mut ju = 0usize;
        for j in 0..n {
            if j + kv < n {
                let col = (j + kv) * ldab;
                re[col..col + kl].fill(0.0);
                im[col..col + kl].fill(0.0);
            }
            let km = kl.min(n - 1 - j);
            let colj = j * ldab + kv;
            // Pivot on LAPACK's cabs1 (|re| + |im|), the cheap magnitude
            // proxy zgbtrf uses.
            let mut jp = 0usize;
            let mut best = re[colj].abs() + im[colj].abs();
            for i in 1..=km {
                let v = re[colj + i].abs() + im[colj + i].abs();
                if v > best {
                    best = v;
                    jp = i;
                }
            }
            ipiv[j] = j + jp;
            if re[colj + jp] == 0.0 && im[colj + jp] == 0.0 {
                return Err(LinalgError::Singular { index: j });
            }
            ju = ju.max((j + ku + jp).min(n - 1));
            if jp != 0 {
                for k in j..=ju {
                    let a = k * ldab + kv + j - k;
                    let b = a + jp;
                    re.swap(a, b);
                    im.swap(a, b);
                }
            }
            if km > 0 {
                let (pr, pi) = (re[colj], im[colj]);
                let d = pr * pr + pi * pi;
                let (ir, ii) = (pr / d, -pi / d);
                for i in 1..=km {
                    let (vr, vi) = (re[colj + i], im[colj + i]);
                    re[colj + i] = vr * ir - vi * ii;
                    im[colj + i] = vr * ii + vi * ir;
                }
                // Rank-1 update of the trailing submatrix. Splitting each
                // plane at column k's start proves the multiplier column
                // (left) and destination column (right) disjoint, so the
                // inner loop borrows cleanly and vectorizes.
                for k in (j + 1)..=ju {
                    let row_j = k * ldab + kv + j - k;
                    let (f_r, f_i) = (re[row_j], im[row_j]);
                    if f_r == 0.0 && f_i == 0.0 {
                        continue;
                    }
                    let (m_re, d_re) = re.split_at_mut(k * ldab);
                    let (m_im, d_im) = im.split_at_mut(k * ldab);
                    let m_re = &m_re[colj + 1..colj + 1 + km];
                    let m_im = &m_im[colj + 1..colj + 1 + km];
                    let off = kv + j + 1 - k;
                    let d_re = &mut d_re[off..off + km];
                    let d_im = &mut d_im[off..off + km];
                    for i in 0..km {
                        let (mr, mi) = (m_re[i], m_im[i]);
                        d_re[i] -= f_r * mr - f_i * mi;
                        d_im[i] -= f_r * mi + f_i * mr;
                    }
                }
            }
        }
        Ok(BandedLuF32 {
            n,
            kl,
            ldab,
            re,
            im,
            ipiv,
            kv,
        })
    }

    #[inline]
    fn entry(&self, idx: usize) -> Complex32 {
        Complex32::new(self.re[idx], self.im[idx])
    }

    /// `P·L·U x = b` or `Aᵀ x = b` (per `op`) in place, single precision.
    fn solve_in_place(&self, op: Sweep, x: &mut [Complex32]) {
        let (n, kl, ldab, kv) = (self.n, self.kl, self.ldab, self.kv);
        match op {
            Sweep::Forward => {
                if kl > 0 {
                    for j in 0..n.saturating_sub(1) {
                        let p = self.ipiv[j];
                        if p != j {
                            x.swap(j, p);
                        }
                        let km = kl.min(n - 1 - j);
                        let xj = x[j];
                        if xj == Complex32::ZERO {
                            continue;
                        }
                        let colj = j * ldab;
                        for i in 1..=km {
                            let m = self.entry(colj + kv + i);
                            x[j + i] = x[j + i] - m * xj;
                        }
                    }
                }
                for j in (0..n).rev() {
                    let inv = self.entry(j * ldab + kv).recip();
                    let xj = x[j] * inv;
                    x[j] = xj;
                    if xj == Complex32::ZERO {
                        continue;
                    }
                    let ilo = j.saturating_sub(kv);
                    for i in ilo..j {
                        let u = self.entry(j * ldab + kv + i - j);
                        x[i] = x[i] - u * xj;
                    }
                }
            }
            Sweep::Transposed => {
                for j in 0..n {
                    let ilo = j.saturating_sub(kv);
                    let mut acc = x[j];
                    for i in ilo..j {
                        let u = self.entry(j * ldab + kv + i - j);
                        acc = acc - u * x[i];
                    }
                    x[j] = acc * self.entry(j * ldab + kv).recip();
                }
                if kl > 0 {
                    for j in (0..n.saturating_sub(1)).rev() {
                        let km = kl.min(n - 1 - j);
                        let colj = j * ldab;
                        let mut acc = x[j];
                        for i in 1..=km {
                            let m = self.entry(colj + kv + i);
                            acc = acc - m * x[j + i];
                        }
                        x[j] = acc;
                        let p = self.ipiv[j];
                        if p != j {
                            x.swap(j, p);
                        }
                    }
                }
            }
        }
    }
}

/// What one refined solve did: how many corrector passes it took, where
/// the relative residual landed, and whether it had to abandon the `f32`
/// factor for the full-`f64` fallback.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RefineReport {
    /// Corrector passes applied (0 when the first `f32` solve was already
    /// inside tolerance, or when the solve went straight to the fallback).
    pub iterations: usize,
    /// Final relative residual `‖b − A·x‖ / ‖b‖`.
    pub rel_residual: f64,
    /// `true` when refinement stagnated (or the `f32` factorization was
    /// singular) and the solution came from the full-`f64` factor instead.
    pub fell_back: bool,
}

/// A mixed-precision banded factorization: an `f32` LU plus the exact
/// `f64` operator for residuals, refined to `f64`-grade accuracy per solve
/// (see the module docs for the loop and the fallback contract).
#[derive(Debug)]
pub struct MixedBandedLu {
    /// The exact operator, kept for residual matvecs and the fallback.
    a: BandedMatrix,
    /// The cheap factor; `None` when the matrix was singular in `f32`
    /// (every solve then uses the fallback directly).
    lu32: Option<BandedLuF32>,
    /// Full-`f64` factor, materialized at most once on first stagnation.
    fallback: OnceLock<BandedLu>,
    /// Solves that abandoned refinement for the `f64` factor (diagnostic).
    fallbacks: AtomicU64,
}

impl MixedBandedLu {
    /// Factors `a` in single precision, keeping the exact operator for
    /// residual refinement.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Singular`] only when the matrix is singular
    /// in *double* precision too — a zero pivot that appears only in `f32`
    /// just routes every solve through the `f64` fallback.
    pub fn new(a: BandedMatrix) -> Result<Self, LinalgError> {
        let (lu32, fallback) = match BandedLuF32::factorize(&a) {
            Ok(lu) => (Some(lu), OnceLock::new()),
            Err(_) => {
                // Singular at f32 resolution: prove the operator is usable
                // at all by factoring in f64 now, and serve solves from it.
                let full = a.clone().factorize()?;
                let cell = OnceLock::new();
                let _ = cell.set(full);
                (None, cell)
            }
        };
        Ok(MixedBandedLu {
            a,
            lu32,
            fallback,
            fallbacks: AtomicU64::new(0),
        })
    }

    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        self.a.dim()
    }

    /// How many solves so far abandoned refinement for the `f64` factor.
    pub fn fallback_solves(&self) -> u64 {
        self.fallbacks.load(Ordering::Relaxed)
    }

    /// The full-`f64` factor, computing it on first use.
    fn full(&self) -> &BandedLu {
        self.fallback.get_or_init(|| {
            self.a
                .clone()
                .factorize()
                .expect("f64 fallback factorization failed for a matrix that factorized in f32")
        })
    }

    /// Solves `A x = b` or `Aᵀ x = b` (per `op`, reusing both factors) to
    /// [`REFINE_TOL`]: `x` holds the right-hand side on entry and
    /// the solution on exit. The report says how the solve got there.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.dim()`.
    pub fn solve(&self, op: Sweep, x: &mut [Complex64]) -> RefineReport {
        assert_eq!(x.len(), self.a.dim(), "solve dimension mismatch");
        let b = x.to_vec();
        let bnorm = norm(&b);
        if bnorm == 0.0 {
            x.fill(Complex64::ZERO);
            return RefineReport {
                iterations: 0,
                rel_residual: 0.0,
                fell_back: false,
            };
        }
        let Some(lu32) = &self.lu32 else {
            return self.fall_back(op, &b, x, 0);
        };
        let sweep = |r: &[Complex64]| -> Vec<Complex64> {
            let mut d: Vec<Complex32> = r.iter().map(|&z| Complex32::from_c64(z)).collect();
            lu32.solve_in_place(op, &mut d);
            d.into_iter().map(Complex32::to_c64).collect()
        };
        x.copy_from_slice(&sweep(&b));
        let mut prev_rel = f64::INFINITY;
        for iter in 0..=MAX_REFINE_ITERS {
            let r = residual(&self.a, op, &b, x);
            let rel = norm(&r) / bnorm;
            if rel <= REFINE_TOL {
                return RefineReport {
                    iterations: iter,
                    rel_residual: rel,
                    fell_back: false,
                };
            }
            // Stagnation: a healthy refinement contracts the residual by
            // orders of magnitude per pass; less than 2× (or a non-finite
            // iterate) means the f32 factor cannot carry this system.
            if iter == MAX_REFINE_ITERS || !rel.is_finite() || rel > 0.5 * prev_rel {
                return self.fall_back(op, &b, x, iter);
            }
            prev_rel = rel;
            let d = sweep(&r);
            for (xi, di) in x.iter_mut().zip(&d) {
                *xi += *di;
            }
        }
        unreachable!("refinement loop exits via tolerance, stagnation, or iteration cap");
    }

    /// Answers `b` from the full-`f64` factor into `x`.
    fn fall_back(
        &self,
        op: Sweep,
        b: &[Complex64],
        x: &mut [Complex64],
        iterations: usize,
    ) -> RefineReport {
        self.fallbacks.fetch_add(1, Ordering::Relaxed);
        x.copy_from_slice(b);
        self.full().solve(op, &mut [&mut *x]);
        RefineReport {
            iterations,
            rel_residual: norm(&residual(&self.a, op, b, x)) / norm(b).max(f64::MIN_POSITIVE),
            fell_back: true,
        }
    }
}

/// `b − A·x` (or `b − Aᵀ·x`), against the exact operator.
fn residual(a: &BandedMatrix, op: Sweep, b: &[Complex64], x: &[Complex64]) -> Vec<Complex64> {
    let ax = match op {
        Sweep::Forward => a.matvec(x),
        Sweep::Transposed => a.matvec_transposed(x),
    };
    b.iter().zip(&ax).map(|(&bi, &ai)| bi - ai).collect()
}

fn norm(v: &[Complex64]) -> f64 {
    v.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt()
}

/// A banded factorization of either precision strategy behind one solve
/// surface — what the factorization cache in `maps-fdfd` stores, so every
/// downstream solve path (forward, adjoint, blocked multi-RHS) is agnostic
/// to how the factor was computed.
#[derive(Debug)]
pub enum Factor {
    /// The plain full-`f64` banded LU.
    Full(BandedLu),
    /// The `f32`-factor + `f64`-refinement pair.
    Mixed(MixedBandedLu),
}

impl Factor {
    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        match self {
            Factor::Full(lu) => lu.dim(),
            Factor::Mixed(m) => m.dim(),
        }
    }

    /// Solves `A x = b` or `Aᵀ x = b` (per `op`) for every right-hand side
    /// in `xs`, in place (see [`BandedLu::solve`]). The full factor sweeps
    /// the block through its blocked kernel; the mixed factor refines each
    /// system on its own, since refinement is inherently per system.
    ///
    /// # Panics
    ///
    /// Panics if any right-hand side's length differs from `self.dim()`.
    pub fn solve(&self, op: Sweep, xs: &mut [impl AsMut<[Complex64]>]) {
        match self {
            Factor::Full(lu) => lu.solve(op, xs),
            Factor::Mixed(m) => {
                for x in xs {
                    m.solve(op, x.as_mut());
                }
            }
        }
    }
}

impl From<BandedLu> for Factor {
    fn from(lu: BandedLu) -> Self {
        Factor::Full(lu)
    }
}

impl From<MixedBandedLu> for Factor {
    fn from(m: MixedBandedLu) -> Self {
        Factor::Mixed(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A Helmholtz-shaped banded test system (same profile as the FDFD
    /// operator: diagonal dominance from the mass term, ±1 and ±bw
    /// couplings from the 5-point stencil, complex shift from the PML).
    fn helmholtz_like(n: usize, bw: usize) -> BandedMatrix {
        let mut a = BandedMatrix::zeros(n, bw, bw);
        for i in 0..n {
            a.set(i, i, Complex64::new(4.0 + 0.1 * ((i % 7) as f64), 0.4));
            if i >= 1 {
                a.set(i, i - 1, Complex64::from_re(-1.0));
            }
            if i >= bw {
                a.set(i, i - bw, Complex64::from_re(-1.0));
            }
            if i + 1 < n {
                a.set(i, i + 1, Complex64::from_re(-1.0));
            }
            if i + bw < n {
                a.set(i, i + bw, Complex64::from_re(-1.0));
            }
        }
        a
    }

    fn rhs(n: usize) -> Vec<Complex64> {
        (0..n)
            .map(|k| Complex64::new((k as f64 * 0.37).sin(), (k as f64 * 0.11).cos()))
            .collect()
    }

    fn rel_residual(a: &BandedMatrix, op: Sweep, x: &[Complex64], b: &[Complex64]) -> f64 {
        norm(&residual(a, op, b, x)) / norm(b)
    }

    #[test]
    fn refined_solve_reaches_f64_accuracy() {
        let a = helmholtz_like(400, 20);
        let b = rhs(400);
        let mixed = MixedBandedLu::new(a.clone()).unwrap();
        let mut x = b.clone();
        let report = mixed.solve(Sweep::Forward, &mut x);
        assert!(!report.fell_back, "well-conditioned system must refine");
        assert!(
            report.rel_residual <= REFINE_TOL,
            "residual {} above tolerance",
            report.rel_residual
        );
        assert!(report.iterations <= 6, "took {} passes", report.iterations);
        assert!(rel_residual(&a, Sweep::Forward, &x, &b) <= 1e-9);
        // And it matches the plain f64 solve to refinement accuracy.
        let full = a.clone().factorize().unwrap();
        let mut y = b.clone();
        full.solve(Sweep::Forward, std::slice::from_mut(&mut y));
        let diff: f64 = x
            .iter()
            .zip(&y)
            .map(|(p, q)| (*p - *q).norm_sqr())
            .sum::<f64>()
            .sqrt();
        assert!(diff / norm(&y) < 1e-8, "mixed vs full drift {diff}");
    }

    #[test]
    fn transposed_refined_solve_reaches_tolerance() {
        let a = helmholtz_like(300, 15);
        let b = rhs(300);
        let mixed = MixedBandedLu::new(a.clone()).unwrap();
        let mut x = b.clone();
        let report = mixed.solve(Sweep::Transposed, &mut x);
        assert!(!report.fell_back);
        assert!(report.rel_residual <= REFINE_TOL);
        assert!(rel_residual(&a, Sweep::Transposed, &x, &b) <= 1e-9);
    }

    #[test]
    fn f32_singular_matrix_routes_through_f64_fallback() {
        // Diagonal entries below the f32 subnormal range round to zero in
        // single precision but are perfectly regular in f64.
        let n = 8;
        let mut a = BandedMatrix::zeros(n, 1, 1);
        for i in 0..n {
            a.set(i, i, Complex64::from_re(1e-50));
        }
        let b = rhs(n);
        let mixed = MixedBandedLu::new(a.clone()).unwrap();
        let mut x = b.clone();
        let report = mixed.solve(Sweep::Forward, &mut x);
        assert!(report.fell_back, "f32-singular must use the f64 factor");
        assert!(report.rel_residual <= 1e-10);
        assert!(rel_residual(&a, Sweep::Forward, &x, &b) <= 1e-10);
        assert_eq!(mixed.fallback_solves(), 1);
    }

    #[test]
    fn singular_in_both_precisions_errors() {
        let a = BandedMatrix::zeros(4, 1, 1);
        assert!(matches!(
            MixedBandedLu::new(a),
            Err(LinalgError::Singular { .. })
        ));
    }

    #[test]
    fn zero_rhs_short_circuits() {
        let a = helmholtz_like(50, 5);
        let mixed = MixedBandedLu::new(a).unwrap();
        let mut x = [Complex64::ZERO; 50];
        let report = mixed.solve(Sweep::Forward, &mut x);
        assert!(x.iter().all(|z| *z == Complex64::ZERO));
        assert_eq!(report.iterations, 0);
        assert!(!report.fell_back);
    }

    #[test]
    fn factor_enum_delegates_both_strategies() {
        let a = helmholtz_like(200, 10);
        let full = Factor::Full(a.clone().factorize().unwrap());
        let mixed = Factor::Mixed(MixedBandedLu::new(a.clone()).unwrap());
        assert_eq!(full.dim(), 200);
        assert_eq!(mixed.dim(), 200);
        // Blocks of one and two, both ops, through either strategy.
        let batch: Vec<Vec<Complex64>> = vec![rhs(200), rhs(200).into_iter().rev().collect()];
        for f in [&full, &mixed] {
            for op in [Sweep::Forward, Sweep::Transposed] {
                for k in [1, 2] {
                    let mut xs = batch[..k].to_vec();
                    f.solve(op, &mut xs);
                    for (b, x) in batch.iter().zip(&xs) {
                        assert!(rel_residual(&a, op, x, b) <= 1e-9);
                    }
                }
            }
        }
    }

    #[test]
    fn complex32_arithmetic_round_trips() {
        let z = Complex32::new(3.0, -4.0);
        assert_eq!(z.abs(), 5.0);
        assert_eq!(z.norm_sqr(), 25.0);
        let w = z * z.recip();
        assert!((w.re - 1.0).abs() < 1e-6 && w.im.abs() < 1e-6);
        let c = Complex64::new(0.123456789, -9.87654321);
        let back = Complex32::from_c64(c).to_c64();
        assert!((back.re - c.re).abs() < 1e-7 && (back.im - c.im).abs() < 1e-6);
    }
}
