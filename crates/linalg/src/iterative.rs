//! Jacobi-preconditioned BiCGSTAB, the Krylov solver of the FDFD iterative
//! backend.
//!
//! [`bicgstab`] never sees a matrix: it takes the operator as a closure
//! that writes `A·x` into a preallocated `y`, and the diagonal its Jacobi
//! preconditioner inverts. `maps-fdfd` passes the stencil of the
//! symmetrized operator `S` that its direct backend factors, so both
//! backends solve one system.

use crate::dense::{zdotc, znorm};
use crate::{Complex64, LinalgError};

/// Convergence report for an iterative solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterativeStats {
    /// Number of iterations performed.
    pub iterations: usize,
    /// Final relative residual `‖b − A x‖ / ‖b‖`.
    pub residual: f64,
}

/// Options controlling [`bicgstab`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterativeOptions {
    /// Relative residual tolerance.
    pub tolerance: f64,
    /// Maximum number of iterations.
    pub max_iterations: usize,
}

impl Default for IterativeOptions {
    fn default() -> Self {
        IterativeOptions {
            tolerance: 1e-8,
            max_iterations: 10_000,
        }
    }
}

/// Solves `A x = b` with Jacobi-preconditioned BiCGSTAB.
///
/// `apply(x, y)` overwrites `y` with `A·x`, both `b.len()` long, and
/// `diagonal` is `A`'s diagonal; the preconditioner multiplies by its
/// inverse (by one where an entry is zero). Each iteration applies `A`
/// twice and allocates nothing.
///
/// While the flight recorder is on, every iteration appends its relative
/// residual to the `bicgstab.residual` series, stepped by the iteration
/// within its solve (from 1). All solves share that one series, so the
/// rows of concurrent solves interleave.
///
/// ```
/// use maps_linalg::{bicgstab, Complex64, IterativeOptions};
///
/// # fn main() -> Result<(), maps_linalg::LinalgError> {
/// // The tridiagonal A = tridiag(−1, 3, −1), applied without a matrix.
/// let apply = |x: &[Complex64], y: &mut [Complex64]| {
///     for k in 0..x.len() {
///         let west = if k > 0 { x[k - 1] } else { Complex64::ZERO };
///         let east = x.get(k + 1).copied().unwrap_or(Complex64::ZERO);
///         y[k] = x[k] * 3.0 - west - east;
///     }
/// };
/// let diagonal = vec![Complex64::from_re(3.0); 8];
/// let b = vec![Complex64::ONE; 8];
/// let (x, stats) = bicgstab(apply, &diagonal, &b, IterativeOptions::default())?;
/// assert!(stats.residual < 1e-8);
/// let mut ax = vec![Complex64::ZERO; 8];
/// apply(&x, &mut ax);
/// assert!((ax[3] - Complex64::ONE).abs() < 1e-7);
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// Returns [`LinalgError::NoConvergence`] when the relative residual does not
/// drop below `options.tolerance` within `options.max_iterations`, or when
/// the recurrence breaks down.
///
/// # Panics
///
/// Panics if `diagonal.len() != b.len()`.
pub fn bicgstab(
    apply: impl Fn(&[Complex64], &mut [Complex64]),
    diagonal: &[Complex64],
    b: &[Complex64],
    options: IterativeOptions,
) -> Result<(Vec<Complex64>, IterativeStats), LinalgError> {
    let _span = maps_obs::span("linalg.bicgstab").field("n", b.len());
    // Per-inner-iteration residual trajectories are hot, so they are only
    // captured while the flight recorder is on (explicitly or via an export
    // knob).
    let trajectory =
        maps_obs::recorder::is_enabled().then(|| maps_obs::series("bicgstab.residual"));
    let result = bicgstab_inner(apply, diagonal, b, options, trajectory.as_ref());
    match &result {
        Ok((_, stats)) => {
            maps_obs::counter("bicgstab.solves").inc();
            maps_obs::histogram("bicgstab.iterations").record(stats.iterations as f64);
            maps_obs::histogram("bicgstab.residual").record(stats.residual);
        }
        Err(LinalgError::NoConvergence {
            iterations,
            residual,
        }) => {
            maps_obs::counter("bicgstab.failures").inc();
            maps_obs::histogram("bicgstab.iterations").record(*iterations as f64);
            maps_obs::histogram("bicgstab.residual").record(*residual);
        }
        Err(_) => {
            maps_obs::counter("bicgstab.failures").inc();
        }
    }
    result
}

fn bicgstab_inner(
    apply: impl Fn(&[Complex64], &mut [Complex64]),
    diagonal: &[Complex64],
    b: &[Complex64],
    options: IterativeOptions,
    trajectory: Option<&maps_obs::Series>,
) -> Result<(Vec<Complex64>, IterativeStats), LinalgError> {
    let record = |it: usize, rel: f64| {
        if let Some(series) = trajectory {
            series.push(it as u64, rel);
        }
    };
    assert_eq!(diagonal.len(), b.len(), "bicgstab dimension mismatch");
    let n = b.len();
    let bnorm = znorm(b);
    if bnorm == 0.0 {
        return Ok((
            vec![Complex64::ZERO; n],
            IterativeStats {
                iterations: 0,
                residual: 0.0,
            },
        ));
    }
    // Jacobi preconditioner: M⁻¹ = diag(A)⁻¹ (identity for zero diagonals).
    let minv: Vec<Complex64> = diagonal
        .iter()
        .map(|d| {
            if d.abs() > 0.0 {
                d.recip()
            } else {
                Complex64::ONE
            }
        })
        .collect();
    let precond = |v: &[Complex64], out: &mut [Complex64]| {
        for ((o, x), m) in out.iter_mut().zip(v).zip(&minv) {
            *o = *x * *m;
        }
    };

    let mut x = vec![Complex64::ZERO; n];
    let mut r: Vec<Complex64> = b.to_vec();
    let r0 = r.clone();
    let mut rho = Complex64::ONE;
    let mut alpha = Complex64::ONE;
    let mut omega = Complex64::ONE;
    let mut v = vec![Complex64::ZERO; n];
    let mut p = vec![Complex64::ZERO; n];
    let mut phat = vec![Complex64::ZERO; n];
    let mut s = vec![Complex64::ZERO; n];
    let mut shat = vec![Complex64::ZERO; n];
    let mut t = vec![Complex64::ZERO; n];

    for it in 1..=options.max_iterations {
        let rho_next = zdotc(&r0, &r);
        if rho_next.abs() < 1e-300 {
            let residual = znorm(&r) / bnorm;
            record(it, residual);
            return Err(LinalgError::NoConvergence {
                iterations: it,
                residual,
            });
        }
        let beta = (rho_next / rho) * (alpha / omega);
        rho = rho_next;
        for i in 0..n {
            p[i] = r[i] + beta * (p[i] - omega * v[i]);
        }
        precond(&p, &mut phat);
        apply(&phat, &mut v);
        alpha = rho / zdotc(&r0, &v);
        for i in 0..n {
            s[i] = r[i] - alpha * v[i];
        }
        let s_rel = znorm(&s) / bnorm;
        if s_rel < options.tolerance {
            for i in 0..n {
                x[i] += alpha * phat[i];
            }
            record(it, s_rel);
            return Ok((
                x,
                IterativeStats {
                    iterations: it,
                    residual: s_rel,
                },
            ));
        }
        precond(&s, &mut shat);
        apply(&shat, &mut t);
        let tt = zdotc(&t, &t);
        if tt.abs() < 1e-300 {
            record(it, s_rel);
            return Err(LinalgError::NoConvergence {
                iterations: it,
                residual: s_rel,
            });
        }
        omega = zdotc(&t, &s) / tt;
        for i in 0..n {
            x[i] += alpha * phat[i] + omega * shat[i];
            r[i] = s[i] - omega * t[i];
        }
        let rel = znorm(&r) / bnorm;
        record(it, rel);
        if rel < options.tolerance {
            return Ok((
                x,
                IterativeStats {
                    iterations: it,
                    residual: rel,
                },
            ));
        }
    }
    Err(LinalgError::NoConvergence {
        iterations: options.max_iterations,
        residual: znorm(&r) / bnorm,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SymBandedMatrix;

    /// The complex shifted 1-D Laplacian `tridiag(−1, 2 + shift, −1)`.
    fn laplacian_plus_shift(n: usize, shift: Complex64) -> SymBandedMatrix {
        let mut a = SymBandedMatrix::zeros(n, 1);
        for i in 0..n {
            a.set(i, i, Complex64::from_re(2.0) + shift);
            if i > 0 {
                a.set(i, i - 1, Complex64::from_re(-1.0));
            }
        }
        a
    }

    /// [`bicgstab`] with `a`'s matvec as the operator and its diagonal as
    /// the preconditioner's.
    fn solve(
        a: &SymBandedMatrix,
        b: &[Complex64],
        options: IterativeOptions,
    ) -> Result<(Vec<Complex64>, IterativeStats), LinalgError> {
        let diagonal: Vec<Complex64> = (0..a.dim()).map(|i| a.get(i, i)).collect();
        let apply = |x: &[Complex64], y: &mut [Complex64]| y.copy_from_slice(&a.matvec(x));
        bicgstab(apply, &diagonal, b, options)
    }

    #[test]
    fn converges_on_complex_shifted_laplacian() {
        let n = 120;
        let a = laplacian_plus_shift(n, Complex64::new(0.3, 0.4));
        let b: Vec<Complex64> = (0..n)
            .map(|k| Complex64::new((k as f64 * 0.1).sin(), (k as f64 * 0.07).cos()))
            .collect();
        let (x, stats) = solve(&a, &b, IterativeOptions::default()).unwrap();
        let r: Vec<Complex64> = a.matvec(&x).iter().zip(&b).map(|(p, q)| *p - *q).collect();
        assert!(znorm(&r) / znorm(&b) < 1e-7, "residual {}", stats.residual);
    }

    #[test]
    fn zero_rhs_returns_zero() {
        let a = laplacian_plus_shift(8, Complex64::ZERO);
        let b = vec![Complex64::ZERO; 8];
        let (x, stats) = solve(&a, &b, IterativeOptions::default()).unwrap();
        assert!(x.iter().all(|z| *z == Complex64::ZERO));
        assert_eq!(stats.iterations, 0);
    }

    #[test]
    fn relaxed_tolerance_rescues_a_capped_solve() {
        // Under a tight iteration budget the tight tolerance fails but a
        // looser one converges within the same budget.
        let a = laplacian_plus_shift(64, Complex64::new(0.3, 0.4));
        let b = vec![Complex64::ONE; 64];
        let tight = IterativeOptions {
            tolerance: 1e-12,
            max_iterations: 8,
        };
        assert!(solve(&a, &b, tight).is_err());
        let relaxed = IterativeOptions {
            tolerance: 1e-3,
            ..tight
        };
        let (_, stats) = solve(&a, &b, relaxed).unwrap();
        assert!(stats.residual <= relaxed.tolerance);
    }

    #[test]
    fn iteration_cap_is_enforced() {
        let a = laplacian_plus_shift(64, Complex64::new(0.0, 0.01));
        let b = vec![Complex64::ONE; 64];
        let res = solve(
            &a,
            &b,
            IterativeOptions {
                tolerance: 1e-16,
                max_iterations: 1,
            },
        );
        assert!(matches!(res, Err(LinalgError::NoConvergence { .. })));
    }
}
