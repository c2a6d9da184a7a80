//! Iterative Krylov solvers for large FDFD systems.
//!
//! The direct banded LU in [`crate::banded`] is exact but its cost grows as
//! `O(n·b²)`; for very large grids MAPS falls back to BiCGSTAB with Jacobi
//! preconditioning. The ablation bench compares both.

use crate::dense::{zdotc, znorm};
use crate::sparse::CsrMatrix;
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
/// While the flight recorder is on, every iteration appends its relative
/// residual to the `bicgstab.residual` series, stepped by the iteration
/// within its solve (from 1). All solves share that one series, so the
/// rows of concurrent solves interleave.
///
/// # Errors
///
/// Returns [`LinalgError::NoConvergence`] when the relative residual does not
/// drop below `options.tolerance` within `options.max_iterations`, or when
/// the recurrence breaks down.
///
/// # Panics
///
/// Panics if `b.len() != a.rows()` or `a` is not square.
pub fn bicgstab(
    a: &CsrMatrix,
    b: &[Complex64],
    options: IterativeOptions,
) -> Result<(Vec<Complex64>, IterativeStats), LinalgError> {
    let _span = maps_obs::span("linalg.bicgstab").field("n", b.len());
    // Per-inner-iteration residual trajectories are hot, so they are only
    // captured while the flight recorder is on (explicitly or via an export
    // knob).
    let trajectory =
        maps_obs::recorder::is_enabled().then(|| maps_obs::series("bicgstab.residual"));
    let result = bicgstab_inner(a, b, options, trajectory.as_ref());
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
    a: &CsrMatrix,
    b: &[Complex64],
    options: IterativeOptions,
    trajectory: Option<&maps_obs::Series>,
) -> Result<(Vec<Complex64>, IterativeStats), LinalgError> {
    let record = |it: usize, rel: f64| {
        if let Some(series) = trajectory {
            series.push(it as u64, rel);
        }
    };
    assert_eq!(a.rows(), a.cols(), "bicgstab requires a square matrix");
    assert_eq!(b.len(), a.rows(), "bicgstab dimension mismatch");
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
    let minv: Vec<Complex64> = a
        .diagonal()
        .iter()
        .map(|d| {
            if d.abs() > 0.0 {
                d.recip()
            } else {
                Complex64::ONE
            }
        })
        .collect();
    let precond =
        |v: &[Complex64]| -> Vec<Complex64> { v.iter().zip(&minv).map(|(x, m)| *x * *m).collect() };

    let mut x = vec![Complex64::ZERO; n];
    let mut r: Vec<Complex64> = b.to_vec();
    let r0 = r.clone();
    let mut rho = Complex64::ONE;
    let mut alpha = Complex64::ONE;
    let mut omega = Complex64::ONE;
    let mut v = vec![Complex64::ZERO; n];
    let mut p = vec![Complex64::ZERO; n];

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
        let phat = precond(&p);
        v = a.matvec(&phat);
        alpha = rho / zdotc(&r0, &v);
        let s: Vec<Complex64> = (0..n).map(|i| r[i] - alpha * v[i]).collect();
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
        let shat = precond(&s);
        let t = a.matvec(&shat);
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
    use crate::sparse::CooMatrix;

    fn laplacian_plus_shift(n: usize, shift: Complex64) -> CsrMatrix {
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, Complex64::from_re(2.0) + shift);
            if i > 0 {
                coo.push(i, i - 1, Complex64::from_re(-1.0));
            }
            if i + 1 < n {
                coo.push(i, i + 1, Complex64::from_re(-1.0));
            }
        }
        coo.to_csr()
    }

    #[test]
    fn converges_on_complex_shifted_laplacian() {
        let n = 120;
        let a = laplacian_plus_shift(n, Complex64::new(0.3, 0.4));
        let b: Vec<Complex64> = (0..n)
            .map(|k| Complex64::new((k as f64 * 0.1).sin(), (k as f64 * 0.07).cos()))
            .collect();
        let (x, stats) = bicgstab(&a, &b, IterativeOptions::default()).unwrap();
        let r: Vec<Complex64> = a.matvec(&x).iter().zip(&b).map(|(p, q)| *p - *q).collect();
        assert!(znorm(&r) / znorm(&b) < 1e-7, "residual {}", stats.residual);
    }

    #[test]
    fn zero_rhs_returns_zero() {
        let a = laplacian_plus_shift(8, Complex64::ZERO);
        let b = vec![Complex64::ZERO; 8];
        let (x, stats) = bicgstab(&a, &b, IterativeOptions::default()).unwrap();
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
        assert!(bicgstab(&a, &b, tight).is_err());
        let relaxed = IterativeOptions {
            tolerance: 1e-3,
            ..tight
        };
        let (_, stats) = bicgstab(&a, &b, relaxed).unwrap();
        assert!(stats.residual <= relaxed.tolerance);
    }

    #[test]
    fn iteration_cap_is_enforced() {
        let a = laplacian_plus_shift(64, Complex64::new(0.0, 0.01));
        let b = vec![Complex64::ONE; 64];
        let res = bicgstab(
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
