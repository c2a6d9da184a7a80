//! Telemetry wrapper for any [`FieldSolver`].
//!
//! [`InstrumentedSolver`] is field-transparent — it forwards `solve_ez` /
//! `solve_adjoint_ez` untouched, so wrapped and unwrapped solvers return
//! bit-identical fields — while publishing per-solver metrics to the
//! [`maps_obs::global`] registry:
//!
//! - `solver.<name>.solves` / `solver.<name>.adjoint_solves` — call counters
//! - `solver.<name>.failures` — error counter (both directions)
//! - `solver.<name>.solve_seconds` / `solver.<name>.adjoint_seconds` —
//!   latency histograms with p50/p90/p99
//!
//! where `<name>` is the wrapped solver's [`FieldSolver::name`]. Each call
//! also opens a `solver.solve` span, so `MAPS_LOG=debug` shows solve timings
//! nested inside whatever pipeline invoked them.

use crate::field::{ComplexField2d, RealField2d};
use crate::solver::{FieldSolver, SolveFieldError, SolveKind, SolveRequest};

/// Wraps a [`FieldSolver`], counting calls and timing solves.
pub struct InstrumentedSolver<S: FieldSolver> {
    inner: S,
    label: String,
    solves: maps_obs::Counter,
    adjoint_solves: maps_obs::Counter,
    failures: maps_obs::Counter,
    solve_seconds: maps_obs::Histogram,
    adjoint_seconds: maps_obs::Histogram,
}

impl<S: FieldSolver> InstrumentedSolver<S> {
    /// Wraps `inner`, registering its instruments in the global registry.
    pub fn new(inner: S) -> Self {
        let name = inner.name().to_string();
        let label = format!("instrumented({name})");
        InstrumentedSolver {
            solves: maps_obs::counter(&format!("solver.{name}.solves")),
            adjoint_solves: maps_obs::counter(&format!("solver.{name}.adjoint_solves")),
            failures: maps_obs::counter(&format!("solver.{name}.failures")),
            solve_seconds: maps_obs::histogram(&format!("solver.{name}.solve_seconds")),
            adjoint_seconds: maps_obs::histogram(&format!("solver.{name}.adjoint_seconds")),
            inner,
            label,
        }
    }

    /// The wrapped solver.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Unwraps, returning the inner solver.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: FieldSolver> FieldSolver for InstrumentedSolver<S> {
    fn solve_ez(
        &self,
        eps_r: &RealField2d,
        source: &ComplexField2d,
        omega: f64,
    ) -> Result<ComplexField2d, SolveFieldError> {
        let span = maps_obs::span("solver.solve")
            .field("solver", self.inner.name())
            .field("cells", eps_r.grid().len());
        let result = self.inner.solve_ez(eps_r, source, omega);
        self.solve_seconds.record(span.elapsed().as_secs_f64());
        match &result {
            Ok(_) => self.solves.inc(),
            Err(_) => self.failures.inc(),
        }
        result
    }

    fn solve_adjoint_ez(
        &self,
        eps_r: &RealField2d,
        rhs: &ComplexField2d,
        omega: f64,
    ) -> Result<ComplexField2d, SolveFieldError> {
        let span = maps_obs::span("solver.adjoint_solve")
            .field("solver", self.inner.name())
            .field("cells", eps_r.grid().len());
        let result = self.inner.solve_adjoint_ez(eps_r, rhs, omega);
        self.adjoint_seconds.record(span.elapsed().as_secs_f64());
        match &result {
            Ok(_) => self.adjoint_solves.inc(),
            Err(_) => self.failures.inc(),
        }
        result
    }

    fn solve_ez_relaxed(
        &self,
        eps_r: &RealField2d,
        source: &ComplexField2d,
        omega: f64,
        tol_factor: f64,
    ) -> Result<ComplexField2d, SolveFieldError> {
        let span = maps_obs::span("solver.solve")
            .field("solver", self.inner.name())
            .field("cells", eps_r.grid().len())
            .field("tol_factor", format!("{tol_factor:.0}"));
        let result = self
            .inner
            .solve_ez_relaxed(eps_r, source, omega, tol_factor);
        self.solve_seconds.record(span.elapsed().as_secs_f64());
        match &result {
            Ok(_) => self.solves.inc(),
            Err(_) => self.failures.inc(),
        }
        result
    }

    fn solve_adjoint_ez_relaxed(
        &self,
        eps_r: &RealField2d,
        rhs: &ComplexField2d,
        omega: f64,
        tol_factor: f64,
    ) -> Result<ComplexField2d, SolveFieldError> {
        let span = maps_obs::span("solver.adjoint_solve")
            .field("solver", self.inner.name())
            .field("cells", eps_r.grid().len())
            .field("tol_factor", format!("{tol_factor:.0}"));
        let result = self
            .inner
            .solve_adjoint_ez_relaxed(eps_r, rhs, omega, tol_factor);
        self.adjoint_seconds.record(span.elapsed().as_secs_f64());
        match &result {
            Ok(_) => self.adjoint_solves.inc(),
            Err(_) => self.failures.inc(),
        }
        result
    }

    /// Forwards the whole batch to the inner solver (keeping its grouping
    /// and factorization amortization intact) under a `solver.solve_batch`
    /// span, then books each request into the same per-direction counters
    /// the scalar paths use.
    fn solve_ez_batch(
        &self,
        eps_r: &RealField2d,
        requests: &[SolveRequest<'_>],
    ) -> Vec<Result<ComplexField2d, SolveFieldError>> {
        let forward_count = requests
            .iter()
            .filter(|r| r.kind == SolveKind::Forward)
            .count();
        // Batches may run concurrently from worker threads; the thread id and
        // a process-wide batch sequence number make interleaved batches
        // distinguishable in an exported trace.
        static BATCH_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let span = maps_obs::span("solver.solve_batch")
            .field("solver", self.inner.name())
            .field("cells", eps_r.grid().len())
            .field("requests", requests.len())
            .field("forward", forward_count)
            .field("adjoint", requests.len() - forward_count)
            .field("thread", maps_obs::current_thread_id())
            .field(
                "batch",
                BATCH_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
            );
        let results = self.inner.solve_ez_batch(eps_r, requests);
        let elapsed = span.elapsed().as_secs_f64();
        if !requests.is_empty() {
            let per_request = elapsed / requests.len() as f64;
            for (req, result) in requests.iter().zip(&results) {
                match req.kind {
                    SolveKind::Forward => self.solve_seconds.record(per_request),
                    SolveKind::Adjoint => self.adjoint_seconds.record(per_request),
                }
                match (result, req.kind) {
                    (Ok(_), SolveKind::Forward) => self.solves.inc(),
                    (Ok(_), SolveKind::Adjoint) => self.adjoint_solves.inc(),
                    (Err(_), _) => self.failures.inc(),
                }
            }
        }
        results
    }

    fn name(&self) -> &str {
        &self.label
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::Grid2d;
    use maps_linalg::Complex64;

    /// Returns the source as the field. Each test names its own instance:
    /// the wrapper's counters are global, keyed by the inner name, and
    /// tests run in parallel.
    struct EchoSolver(&'static str);

    impl FieldSolver for EchoSolver {
        fn solve_ez(
            &self,
            _eps_r: &RealField2d,
            source: &ComplexField2d,
            _omega: f64,
        ) -> Result<ComplexField2d, SolveFieldError> {
            Ok(source.clone())
        }

        fn name(&self) -> &str {
            self.0
        }
    }

    #[test]
    fn wrapper_is_field_transparent_and_counts() {
        let g = Grid2d::new(4, 4, 0.1);
        let eps = RealField2d::constant(g, 1.0);
        let mut j = ComplexField2d::zeros(g);
        j.set(1, 2, Complex64::new(0.3, -0.7));
        let plain = EchoSolver("echo").solve_ez(&eps, &j, 1.0).unwrap();

        let wrapped = InstrumentedSolver::new(EchoSolver("echo"));
        let before = wrapped.solves.get();
        let observed = wrapped.solve_ez(&eps, &j, 1.0).unwrap();
        assert_eq!(
            observed.as_slice(),
            plain.as_slice(),
            "fields must be bit-identical"
        );
        assert_eq!(wrapped.solves.get(), before + 1);
        assert_eq!(wrapped.name(), "instrumented(echo)");
    }

    #[test]
    fn batch_counts_each_request_by_direction() {
        let g = Grid2d::new(4, 4, 0.1);
        let eps = RealField2d::constant(g, 1.0);
        let mut j = ComplexField2d::zeros(g);
        j.set(2, 2, Complex64::ONE);
        let wrapped = InstrumentedSolver::new(EchoSolver("echo-batch"));
        let (solves0, adjoint0) = (wrapped.solves.get(), wrapped.adjoint_solves.get());
        let requests = [
            SolveRequest::forward(&j, 1.0),
            SolveRequest::forward(&j, 1.0),
            SolveRequest::adjoint(&j, 1.0),
        ];
        let out = wrapped.solve_ez_batch(&eps, &requests);
        assert!(out.iter().all(Result::is_ok));
        assert_eq!(wrapped.solves.get(), solves0 + 2);
        assert_eq!(wrapped.adjoint_solves.get(), adjoint0 + 1);
    }
}
