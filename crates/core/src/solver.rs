//! The solver abstraction shared by numerical and neural field solvers.
//!
//! MAPS-InvDes drives inverse design through this trait, so swapping the
//! exact FDFD solver for a trained neural operator (the paper's final case
//! study, Fig. 6) is a one-line change at the call site.

use crate::field::{ComplexField2d, RealField2d};
use std::fmt;

/// Which linear system a [`SolveRequest`] targets.
///
/// Forward requests solve `A·e = −iω·J` for a current density `J`; adjoint
/// requests solve `Aᵀ·e_adj = rhs` for an objective sensitivity `∂F/∂e`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveKind {
    /// Forward solve: the request's field is the current density `Jz`.
    Forward,
    /// Adjoint solve: the request's field is the adjoint right-hand side.
    Adjoint,
}

/// One excitation in a batched solve: a source (or adjoint RHS), its angular
/// frequency, and the direction of the solve.
///
/// Requests borrow their source fields so batching N excitations costs no
/// clones; batches are short-lived views assembled at the call site.
#[derive(Debug, Clone, Copy)]
pub struct SolveRequest<'a> {
    /// Current density `Jz` ([`SolveKind::Forward`]) or adjoint right-hand
    /// side `∂F/∂e` ([`SolveKind::Adjoint`]).
    pub source: &'a ComplexField2d,
    /// Angular frequency of the excitation.
    pub omega: f64,
    /// Forward or adjoint system.
    pub kind: SolveKind,
}

impl<'a> SolveRequest<'a> {
    /// A forward request for the current density `source` at `omega`.
    pub fn forward(source: &'a ComplexField2d, omega: f64) -> Self {
        SolveRequest {
            source,
            omega,
            kind: SolveKind::Forward,
        }
    }

    /// An adjoint request for the right-hand side `rhs` at `omega`.
    pub fn adjoint(rhs: &'a ComplexField2d, omega: f64) -> Self {
        SolveRequest {
            source: rhs,
            omega,
            kind: SolveKind::Adjoint,
        }
    }
}

/// A frequency-domain field solver for the 2-D `Ez` polarization.
///
/// Given a relative-permittivity map, a current-density source `Jz`, and the
/// angular frequency, the solver returns the complex `Ez` phasor on the same
/// grid. Implementors include the exact FDFD solver (`maps-fdfd`) and the
/// neural surrogate (`maps-train::NeuralFieldSolver`).
pub trait FieldSolver {
    /// Solves for the `Ez` field phasor.
    ///
    /// # Errors
    ///
    /// Returns [`SolveFieldError`] when the underlying linear system cannot
    /// be solved or the inputs are inconsistent.
    fn solve_ez(
        &self,
        eps_r: &RealField2d,
        source: &ComplexField2d,
        omega: f64,
    ) -> Result<ComplexField2d, SolveFieldError>;

    /// Solves the adjoint system `Aᵀ·e_adj = rhs` for a given adjoint
    /// right-hand side (`∂F/∂e` of a power objective).
    ///
    /// The default implementation exploits electromagnetic reciprocity:
    /// away from the PML the FDFD operator is complex symmetric, so the
    /// adjoint field is obtained by a *forward* solve with the equivalent
    /// current `J_adj = i·rhs/ω` (since the forward RHS is `−iω·J`). Exact
    /// solvers override this with a true transpose solve.
    ///
    /// # Errors
    ///
    /// Returns [`SolveFieldError`] under the same conditions as
    /// [`FieldSolver::solve_ez`].
    fn solve_adjoint_ez(
        &self,
        eps_r: &RealField2d,
        rhs: &ComplexField2d,
        omega: f64,
    ) -> Result<ComplexField2d, SolveFieldError> {
        let grid = rhs.grid();
        let scale = maps_linalg::Complex64::new(0.0, 1.0 / omega);
        let j = ComplexField2d::from_vec(grid, rhs.as_slice().iter().map(|r| *r * scale).collect());
        self.solve_ez(eps_r, &j, omega)
    }

    /// Short human-readable name used in logs and benchmark tables.
    fn name(&self) -> &str {
        "field-solver"
    }

    /// Solves a batch of forward/adjoint excitations against one
    /// permittivity map, returning one result per request in input order.
    ///
    /// The default implementation dispatches each request sequentially
    /// through [`FieldSolver::solve_ez`] / [`FieldSolver::solve_adjoint_ez`],
    /// so every existing implementor (neural surrogates, third-party
    /// solvers) batches correctly with no changes. Direct solvers override
    /// this to group requests by frequency and amortize one factorization
    /// over all of a group's substitution sweeps; overrides must stay
    /// bit-identical to this sequential reference.
    ///
    /// Unlike the scalar entry points, a failed request does not abort the
    /// batch: each request carries its own `Result`, which is what gives
    /// callers per-request quarantine granularity.
    fn solve_ez_batch(
        &self,
        eps_r: &RealField2d,
        requests: &[SolveRequest<'_>],
    ) -> Vec<Result<ComplexField2d, SolveFieldError>> {
        requests
            .iter()
            .map(|req| match req.kind {
                SolveKind::Forward => self.solve_ez(eps_r, req.source, req.omega),
                SolveKind::Adjoint => self.solve_adjoint_ez(eps_r, req.source, req.omega),
            })
            .collect()
    }

    /// Solves one excitation across a spectrum of frequencies — the
    /// wideband workload (WDM transmission spectra, S-parameter sweeps):
    /// the same current density driven at every `omega`, one result per
    /// frequency in input order.
    ///
    /// The default implementation assembles forward [`SolveRequest`]s and
    /// routes them through [`FieldSolver::solve_ez_batch`], so direct
    /// solvers amortize factorization reuse and blocked substitution
    /// through their batch plane while implementors that only define
    /// `solve_ez` still sweep correctly. Like the batch entry point, a
    /// failed frequency fails only its own slot.
    fn solve_ez_spectrum(
        &self,
        eps_r: &RealField2d,
        source: &ComplexField2d,
        omegas: &[f64],
    ) -> Vec<Result<ComplexField2d, SolveFieldError>> {
        let requests: Vec<SolveRequest<'_>> = omegas
            .iter()
            .map(|&omega| SolveRequest::forward(source, omega))
            .collect();
        self.solve_ez_batch(eps_r, &requests)
    }

    /// Solves `solve_ez` with the backend's convergence tolerance relaxed by
    /// `tol_factor` (> 1 loosens). Retry policies use this to rescue
    /// slow-converging iterative solves; the relaxation applies to this one
    /// call only and is never sticky.
    ///
    /// The default implementation ignores the factor — direct solvers and
    /// neural surrogates have no tolerance to relax.
    ///
    /// # Errors
    ///
    /// Returns [`SolveFieldError`] under the same conditions as
    /// [`FieldSolver::solve_ez`].
    fn solve_ez_relaxed(
        &self,
        eps_r: &RealField2d,
        source: &ComplexField2d,
        omega: f64,
        tol_factor: f64,
    ) -> Result<ComplexField2d, SolveFieldError> {
        let _ = tol_factor;
        self.solve_ez(eps_r, source, omega)
    }

    /// Solves `solve_adjoint_ez` with a relaxed tolerance (see
    /// [`FieldSolver::solve_ez_relaxed`]).
    ///
    /// # Errors
    ///
    /// Returns [`SolveFieldError`] under the same conditions as
    /// [`FieldSolver::solve_adjoint_ez`].
    fn solve_adjoint_ez_relaxed(
        &self,
        eps_r: &RealField2d,
        rhs: &ComplexField2d,
        omega: f64,
        tol_factor: f64,
    ) -> Result<ComplexField2d, SolveFieldError> {
        let _ = tol_factor;
        self.solve_adjoint_ez(eps_r, rhs, omega)
    }
}

/// Checks every component of a solved field for NaN/∞ and converts a silent
/// numerical breakdown into [`SolveFieldError::NonFinite`].
///
/// `context` names the producing solver in the error detail.
///
/// # Errors
///
/// Returns [`SolveFieldError::NonFinite`] when any real or imaginary part is
/// not finite.
pub fn ensure_finite(field: &ComplexField2d, context: &str) -> Result<(), SolveFieldError> {
    for (idx, z) in field.as_slice().iter().enumerate() {
        if !(z.re.is_finite() && z.im.is_finite()) {
            let grid = field.grid();
            let (ix, iy) = (idx % grid.nx, idx / grid.nx);
            return Err(SolveFieldError::NonFinite {
                detail: format!(
                    "{context} produced a non-finite field value {:?} at cell ({ix}, {iy})",
                    (z.re, z.im)
                ),
            });
        }
    }
    Ok(())
}

/// Error raised by a [`FieldSolver`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SolveFieldError {
    /// The permittivity and source grids disagree.
    GridMismatch {
        /// Description of the mismatch.
        detail: String,
    },
    /// The linear system could not be solved.
    Numerical {
        /// Description from the numerical backend.
        detail: String,
    },
    /// An input parameter is invalid (e.g. non-positive frequency).
    InvalidInput {
        /// Description of the invalid parameter.
        detail: String,
    },
    /// The solver returned a field containing NaN or ∞ components — a
    /// numerically silent failure mode that output validation converts
    /// into a hard error.
    NonFinite {
        /// Where the non-finite value appeared.
        detail: String,
    },
    /// The caller's deadline passed before a result could be produced.
    /// Raised between attempts by `RobustSolver::solve_by` and
    /// `solve_batch_by`; the solve is abandoned, never answered late.
    DeadlineExceeded {
        /// Which stage of the solve the deadline interrupted.
        detail: String,
    },
}

impl SolveFieldError {
    /// True when a retry (possibly with relaxed tolerance) or a fallback
    /// solver could plausibly succeed. Input inconsistencies
    /// ([`SolveFieldError::GridMismatch`], [`SolveFieldError::InvalidInput`])
    /// are permanent, and a passed deadline
    /// ([`SolveFieldError::DeadlineExceeded`]) only gets *more* passed;
    /// numerical breakdowns are worth another attempt.
    pub fn is_retryable(&self) -> bool {
        !matches!(
            self,
            SolveFieldError::GridMismatch { .. }
                | SolveFieldError::InvalidInput { .. }
                | SolveFieldError::DeadlineExceeded { .. }
        )
    }
}

impl fmt::Display for SolveFieldError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveFieldError::GridMismatch { detail } => write!(f, "grid mismatch: {detail}"),
            SolveFieldError::Numerical { detail } => write!(f, "numerical failure: {detail}"),
            SolveFieldError::InvalidInput { detail } => write!(f, "invalid input: {detail}"),
            SolveFieldError::NonFinite { detail } => write!(f, "non-finite output: {detail}"),
            SolveFieldError::DeadlineExceeded { detail } => {
                write!(f, "deadline exceeded: {detail}")
            }
        }
    }
}

impl std::error::Error for SolveFieldError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::Grid2d;
    use maps_linalg::Complex64;

    /// A trivial solver used to prove the trait is object safe.
    struct ZeroSolver;

    impl FieldSolver for ZeroSolver {
        fn solve_ez(
            &self,
            eps_r: &RealField2d,
            _source: &ComplexField2d,
            _omega: f64,
        ) -> Result<ComplexField2d, SolveFieldError> {
            Ok(ComplexField2d::zeros(eps_r.grid()))
        }
    }

    #[test]
    fn trait_is_object_safe() {
        let s: Box<dyn FieldSolver> = Box::new(ZeroSolver);
        let g = Grid2d::new(2, 2, 0.1);
        let eps = RealField2d::constant(g, 1.0);
        let j = ComplexField2d::zeros(g);
        let e = s.solve_ez(&eps, &j, 1.0).unwrap();
        assert_eq!(e.get(0, 0), Complex64::ZERO);
        assert_eq!(s.name(), "field-solver");
        // The batched entry point must also be callable through the object.
        let batch = s.solve_ez_batch(&eps, &[SolveRequest::forward(&j, 1.0)]);
        assert_eq!(batch.len(), 1);
        assert!(batch[0].is_ok());
    }

    /// The default batch implementation is the sequential reference: each
    /// request routes to the matching scalar entry point in input order.
    #[test]
    fn default_batch_matches_scalar_calls() {
        let g = Grid2d::new(3, 3, 0.1);
        let eps = RealField2d::constant(g, 1.0);
        let mut j = ComplexField2d::zeros(g);
        j.set(1, 1, Complex64::ONE);
        let omega = 2.0;
        let requests = [
            SolveRequest::forward(&j, omega),
            SolveRequest::adjoint(&j, omega),
        ];
        let batch = ZeroSolver.solve_ez_batch(&eps, &requests);
        assert_eq!(batch.len(), 2);
        let fwd = ZeroSolver.solve_ez(&eps, &j, omega).unwrap();
        let adj = ZeroSolver.solve_adjoint_ez(&eps, &j, omega).unwrap();
        assert_eq!(batch[0].as_ref().unwrap().as_slice(), fwd.as_slice());
        assert_eq!(batch[1].as_ref().unwrap().as_slice(), adj.as_slice());
    }

    /// The default spectrum sweep is one forward solve per frequency, in
    /// input order, routed through the batch plane.
    #[test]
    fn default_spectrum_routes_through_batch() {
        let g = Grid2d::new(3, 3, 0.1);
        let eps = RealField2d::constant(g, 1.0);
        let mut j = ComplexField2d::zeros(g);
        j.set(1, 1, Complex64::ONE);
        let omegas = [1.0, 1.5, 2.0, 2.5];
        let sweep = ZeroSolver.solve_ez_spectrum(&eps, &j, &omegas);
        assert_eq!(sweep.len(), omegas.len());
        for (omega, result) in omegas.iter().zip(&sweep) {
            let direct = ZeroSolver.solve_ez(&eps, &j, *omega).unwrap();
            assert_eq!(result.as_ref().unwrap().as_slice(), direct.as_slice());
        }
        // An empty sweep is a no-op, not an error.
        assert!(ZeroSolver.solve_ez_spectrum(&eps, &j, &[]).is_empty());
    }

    #[test]
    fn error_display() {
        let e = SolveFieldError::InvalidInput {
            detail: "omega must be positive".into(),
        };
        assert!(e.to_string().contains("omega"));
    }

    #[test]
    fn ensure_finite_localizes_the_bad_cell() {
        let g = Grid2d::new(4, 3, 0.1);
        let mut f = ComplexField2d::zeros(g);
        assert!(ensure_finite(&f, "test").is_ok());
        f.set(2, 1, Complex64::new(f64::NAN, 0.0));
        let err = ensure_finite(&f, "test-solver").unwrap_err();
        match &err {
            SolveFieldError::NonFinite { detail } => {
                assert!(detail.contains("test-solver"), "{detail}");
                assert!(detail.contains("(2, 1)"), "{detail}");
            }
            other => panic!("expected NonFinite, got {other:?}"),
        }
        assert!(err.is_retryable());
    }

    #[test]
    fn retryability_classification() {
        assert!(!SolveFieldError::GridMismatch {
            detail: String::new()
        }
        .is_retryable());
        assert!(!SolveFieldError::InvalidInput {
            detail: String::new()
        }
        .is_retryable());
        assert!(SolveFieldError::Numerical {
            detail: String::new()
        }
        .is_retryable());
        assert!(SolveFieldError::NonFinite {
            detail: String::new()
        }
        .is_retryable());
        assert!(!SolveFieldError::DeadlineExceeded {
            detail: String::new()
        }
        .is_retryable());
    }

    #[test]
    fn relaxed_default_ignores_factor() {
        let g = Grid2d::new(2, 2, 0.1);
        let eps = RealField2d::constant(g, 1.0);
        let j = ComplexField2d::zeros(g);
        let e = ZeroSolver.solve_ez_relaxed(&eps, &j, 1.0, 100.0).unwrap();
        assert_eq!(e.get(0, 0), Complex64::ZERO);
    }
}
