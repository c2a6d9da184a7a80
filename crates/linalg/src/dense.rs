//! Dense real and complex matrices.
//!
//! These are small, row-major matrices used for mode solving, metric
//! computation, and tests. Heavy lifting in the FDFD solver uses the banded
//! storage in [`crate::banded`] instead.

use crate::Complex64;

/// A dense row-major matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct DMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DMatrix {
    /// Creates a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        DMatrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = DMatrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "dense matrix data length mismatch");
        DMatrix { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrow of the underlying row-major data.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable borrow of the underlying row-major data.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Matrix–vector product `A x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "matvec dimension mismatch");
        let mut y = vec![0.0; self.rows];
        for i in 0..self.rows {
            let row = &self.data[i * self.cols..(i + 1) * self.cols];
            let mut acc = 0.0;
            for (a, b) in row.iter().zip(x) {
                acc += a * b;
            }
            y[i] = acc;
        }
        y
    }

    /// Matrix product `A B`.
    ///
    /// # Panics
    ///
    /// Panics if inner dimensions disagree.
    pub fn matmul(&self, other: &DMatrix) -> DMatrix {
        assert_eq!(self.cols, other.rows, "matmul dimension mismatch");
        let mut out = DMatrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.data[i * self.cols + k];
                if a == 0.0 {
                    continue;
                }
                let brow = &other.data[k * other.cols..(k + 1) * other.cols];
                let orow = &mut out.data[i * other.cols..(i + 1) * other.cols];
                for (o, b) in orow.iter_mut().zip(brow) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// Transposed copy.
    pub fn transpose(&self) -> DMatrix {
        let mut out = DMatrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[(j, i)] = self[(i, j)];
            }
        }
        out
    }
}

impl std::ops::Index<(usize, usize)> for DMatrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for DMatrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.cols + j]
    }
}

/// A dense row-major matrix of [`Complex64`].
#[derive(Debug, Clone, PartialEq)]
pub struct ZMatrix {
    rows: usize,
    cols: usize,
    data: Vec<Complex64>,
}

impl ZMatrix {
    /// Creates a `rows × cols` matrix of complex zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        ZMatrix {
            rows,
            cols,
            data: vec![Complex64::ZERO; rows * cols],
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrow of the underlying row-major data.
    pub fn as_slice(&self) -> &[Complex64] {
        &self.data
    }

    /// Mutable borrow of the underlying row-major data.
    pub fn as_mut_slice(&mut self) -> &mut [Complex64] {
        &mut self.data
    }

    /// Matrix–vector product `A x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    pub fn matvec(&self, x: &[Complex64]) -> Vec<Complex64> {
        assert_eq!(x.len(), self.cols, "matvec dimension mismatch");
        let mut y = vec![Complex64::ZERO; self.rows];
        for i in 0..self.rows {
            let row = &self.data[i * self.cols..(i + 1) * self.cols];
            let mut acc = Complex64::ZERO;
            for (a, b) in row.iter().zip(x) {
                acc += *a * *b;
            }
            y[i] = acc;
        }
        y
    }
}

impl std::ops::Index<(usize, usize)> for ZMatrix {
    type Output = Complex64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &Complex64 {
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for ZMatrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut Complex64 {
        &mut self.data[i * self.cols + j]
    }
}

/// Conjugated dot product `Σ conj(aᵢ) bᵢ` of two complex vectors.
///
/// # Panics
///
/// Panics if lengths disagree.
pub fn zdotc(a: &[Complex64], b: &[Complex64]) -> Complex64 {
    assert_eq!(a.len(), b.len(), "zdotc length mismatch");
    a.iter().zip(b).map(|(x, y)| x.conj() * *y).sum()
}

/// Euclidean norm of a complex vector.
pub fn znorm(a: &[Complex64]) -> f64 {
    a.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_matvec_is_identity() {
        let eye = DMatrix::identity(4);
        let x = vec![1.0, -2.0, 3.0, 0.5];
        assert_eq!(eye.matvec(&x), x);
    }

    #[test]
    fn matmul_against_hand_computed() {
        let a = DMatrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = DMatrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn transpose_roundtrip() {
        let a = DMatrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn complex_dot_products() {
        let a = vec![Complex64::new(1.0, 1.0), Complex64::new(0.0, 2.0)];
        let b = vec![Complex64::new(2.0, 0.0), Complex64::new(1.0, -1.0)];
        // conj(1+i)(2) + conj(2i)(1-i) = (2-2i) + (-2i)(1-i) = 2-2i -2i+2i² = -4i
        assert_eq!(zdotc(&a, &b), Complex64::new(0.0, -4.0));
    }

    #[test]
    fn znorm_matches_abs() {
        let a = vec![Complex64::new(3.0, 4.0)];
        assert!((znorm(&a) - 5.0).abs() < 1e-15);
    }
}
