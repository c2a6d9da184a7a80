//! General complex banded matrices with a pivoted LU factorization.
//!
//! The 2-D FDFD operator is a banded matrix whose bandwidth equals the grid
//! width. An LAPACK-style banded LU (`zgbtf2`/`zgbtrs`) gives an exact
//! direct solve of any such band in `O(n·b²)` time. The FDFD solver itself
//! factors the symmetrized operator with the pivot-free `L·Δ·Lᵀ` of
//! [`crate::ldlt`]; this LU stays as the general-purpose reference that
//! kernel is compared against in the tests, and as the band format of
//! [`BandedMatrix::matvec_transposed`].

use crate::ldlt::{cmul_recip, cmul_sub};
use crate::{Complex64, LinalgError};

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

    /// Factors the matrix as `P·L·U` with partial pivoting, consuming it:
    /// LAPACK's unblocked `zgbtf2` elimination, each pivot the first entry
    /// of largest `hypot` modulus in its column.
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
        for j in 0..n {
            // Zero the fill-in area of the column that enters the band window.
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

/// The partial pivot of a column segment: the first index of the largest
/// `hypot` modulus.
fn pivot_index(col: &[Complex64]) -> usize {
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
    /// with its solution: forward (`P·L`) then backward (`U`) substitution,
    /// one system at a time. One system is a block of one:
    /// `lu.solve(std::slice::from_mut(&mut b))`.
    ///
    /// # Panics
    ///
    /// Panics if any right-hand side's length differs from `self.dim()`.
    pub fn solve(&self, xs: &mut [impl AsMut<[Complex64]>]) {
        for x in xs {
            self.solve_one(x.as_mut());
        }
    }

    /// The substitution sweeps of one system, in place.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.dim()`.
    fn solve_one(&self, x: &mut [Complex64]) {
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

    /// One system through [`BandedLu::solve`], on a copy of `b`.
    fn solve1(lu: &BandedLu, b: &[Complex64]) -> Vec<Complex64> {
        let mut x = b.to_vec();
        lu.solve(std::slice::from_mut(&mut x));
        x
    }

    /// Pivoted (no diagonal boost) and unpivoted bands against dense
    /// Gaussian elimination, and the residual against the band itself.
    #[test]
    fn solve_matches_dense_elimination() {
        let n = 24;
        for boost in [4.0, 0.0] {
            let band = random_band(n, 3, 2, 7, boost);
            let dense: Vec<Vec<Complex64>> = (0..n)
                .map(|i| (0..n).map(|j| band.get(i, j)).collect())
                .collect();
            let b: Vec<Complex64> = (0..n)
                .map(|k| Complex64::new(k as f64, -(k as f64) / 3.0))
                .collect();
            let lu = band.clone().factorize().unwrap();
            let x = solve1(&lu, &b);
            let x_ref = dense_solve(&dense, &b);
            let diff: Vec<Complex64> = x.iter().zip(&x_ref).map(|(a, b)| *a - *b).collect();
            assert!(znorm(&diff) < 1e-10, "boost {boost}: {}", znorm(&diff));
            let r: Vec<Complex64> = band
                .matvec(&x)
                .iter()
                .zip(&b)
                .map(|(a, b)| *a - *b)
                .collect();
            assert!(znorm(&r) < 1e-10);
        }
    }

    #[test]
    fn block_solve_solves_every_system() {
        let n = 20;
        let lu = random_band(n, 3, 3, 42, 4.0).factorize().unwrap();
        let rhs: Vec<Vec<Complex64>> = (0..3)
            .map(|r| {
                (0..n)
                    .map(|k| Complex64::new((k + r) as f64, (k * r) as f64 * 0.1))
                    .collect()
            })
            .collect();
        let mut block = rhs.clone();
        lu.solve(&mut block);
        for (x, b) in block.iter().zip(&rhs) {
            assert_eq!(*x, solve1(&lu, b));
        }
    }

    #[test]
    #[should_panic(expected = "solve dimension mismatch")]
    fn solve_rejects_a_short_rhs_in_a_block() {
        let lu = random_band(8, 1, 1, 3, 4.0).factorize().unwrap();
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

    /// Singular bands fail at their zero column: an all-zero band at
    /// column 0, and a band whose column 13 is zero.
    #[test]
    fn singular_bands_report_the_zero_column() {
        assert_eq!(
            BandedMatrix::zeros(3, 1, 1).factorize().unwrap_err(),
            LinalgError::Singular { index: 0 }
        );
        let (n, kl, ku) = (30, 2, 2);
        let mut band = random_band(n, kl, ku, 5, 0.0);
        for i in 13 - ku..=13 + kl {
            band.set(i, 13, Complex64::ZERO);
        }
        assert_eq!(
            band.factorize().unwrap_err(),
            LinalgError::Singular { index: 13 }
        );
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
}
