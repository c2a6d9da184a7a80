//! The harness-owned `FieldSolver` wrapper: forwards every trait method to
//! the wrapped solver unchanged (so the program takes exactly the path it
//! takes without the wrapper) and opens one span per call, named after the
//! layer it enters. The span is the layer boundary the ledger measures.

use maps_core::{ComplexField2d, FieldSolver, RealField2d, SolveFieldError, SolveRequest};

pub struct Spanned<S> {
    inner: S,
    span: &'static str,
}

impl<S: FieldSolver> Spanned<S> {
    /// Wraps `inner`; every call opens a span named `span`.
    pub fn new(inner: S, span: &'static str) -> Self {
        Spanned { inner, span }
    }

    pub fn inner(&self) -> &S {
        &self.inner
    }
}

impl<S: FieldSolver> FieldSolver for Spanned<S> {
    fn solve_ez(
        &self,
        eps_r: &RealField2d,
        source: &ComplexField2d,
        omega: f64,
    ) -> Result<ComplexField2d, SolveFieldError> {
        let _s = maps_obs::span(self.span).field("call", "solve_ez");
        self.inner.solve_ez(eps_r, source, omega)
    }

    fn solve_adjoint_ez(
        &self,
        eps_r: &RealField2d,
        rhs: &ComplexField2d,
        omega: f64,
    ) -> Result<ComplexField2d, SolveFieldError> {
        let _s = maps_obs::span(self.span).field("call", "solve_adjoint_ez");
        self.inner.solve_adjoint_ez(eps_r, rhs, omega)
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn solve_ez_batch(
        &self,
        eps_r: &RealField2d,
        requests: &[SolveRequest<'_>],
    ) -> Vec<Result<ComplexField2d, SolveFieldError>> {
        let _s = maps_obs::span(self.span)
            .field("call", "solve_ez_batch")
            .field("requests", requests.len());
        self.inner.solve_ez_batch(eps_r, requests)
    }

    fn solve_ez_spectrum(
        &self,
        eps_r: &RealField2d,
        source: &ComplexField2d,
        omegas: &[f64],
    ) -> Vec<Result<ComplexField2d, SolveFieldError>> {
        let _s = maps_obs::span(self.span).field("call", "solve_ez_spectrum");
        self.inner.solve_ez_spectrum(eps_r, source, omegas)
    }

    fn solve_ez_relaxed(
        &self,
        eps_r: &RealField2d,
        source: &ComplexField2d,
        omega: f64,
        tol_factor: f64,
    ) -> Result<ComplexField2d, SolveFieldError> {
        let _s = maps_obs::span(self.span).field("call", "solve_ez_relaxed");
        self.inner
            .solve_ez_relaxed(eps_r, source, omega, tol_factor)
    }

    fn solve_adjoint_ez_relaxed(
        &self,
        eps_r: &RealField2d,
        rhs: &ComplexField2d,
        omega: f64,
        tol_factor: f64,
    ) -> Result<ComplexField2d, SolveFieldError> {
        let _s = maps_obs::span(self.span).field("call", "solve_adjoint_ez_relaxed");
        self.inner
            .solve_adjoint_ez_relaxed(eps_r, rhs, omega, tol_factor)
    }
}
