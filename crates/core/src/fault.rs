//! Deterministic fault injection for testing recovery paths.
//!
//! [`FaultInjectingSolver`] wraps any [`FieldSolver`] and fails on a
//! [`FaultPlan`] schedule keyed by *call index* (every forward or adjoint
//! attempt consumes one index, retries included), so every recovery path —
//! retry, fallback, quarantine, optimizer-level revert — is testable without
//! contriving ill-conditioned physics.
//!
//! The double is deliberately part of the library (not `#[cfg(test)]`): the
//! integration suites of `maps-invdes` and `maps-data` and the CI smoke run
//! drive whole pipelines through it.

use crate::field::{ComplexField2d, RealField2d};
use crate::solver::{FieldSolver, SolveFieldError};
use maps_linalg::Complex64;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};

/// What an injected failure looks like to the caller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum InjectedFault {
    /// A hard [`SolveFieldError::Numerical`] error.
    Error,
    /// A successfully-returned field containing one NaN cell — the silent
    /// failure mode that output validation must catch.
    NonFinite,
}

/// A deterministic failure schedule keyed by call index (0-based).
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    at: BTreeMap<usize, InjectedFault>,
    every: Option<(usize, InjectedFault)>,
    always: Option<InjectedFault>,
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Injects `fault` on call `index`.
    pub fn fail_at(mut self, index: usize, fault: InjectedFault) -> Self {
        self.at.insert(index, fault);
        self
    }

    /// Injects `fault` on every call whose index is a multiple of `period`
    /// (a 1-in-`period` failure rate starting at call 0).
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub fn fail_every(mut self, period: usize, fault: InjectedFault) -> Self {
        assert!(period > 0, "period must be positive");
        self.every = Some((period, fault));
        self
    }

    /// Injects `fault` on every call (explicit `fail_at` entries win).
    pub fn always(mut self, fault: InjectedFault) -> Self {
        self.always = Some(fault);
        self
    }

    /// The fault scheduled for a call index, if any.
    pub fn fault_for(&self, index: usize) -> Option<InjectedFault> {
        if let Some(f) = self.at.get(&index) {
            return Some(*f);
        }
        if let Some((period, f)) = self.every {
            if index.is_multiple_of(period) {
                return Some(f);
            }
        }
        self.always
    }
}

/// A [`FieldSolver`] test double that fails on schedule.
pub struct FaultInjectingSolver<S: FieldSolver> {
    inner: S,
    plan: FaultPlan,
    label: String,
    calls: AtomicUsize,
    injected: AtomicUsize,
}

impl<S: FieldSolver> FaultInjectingSolver<S> {
    /// Wraps `inner` with a failure plan.
    pub fn new(inner: S, plan: FaultPlan) -> Self {
        let label = format!("fault({})", inner.name());
        FaultInjectingSolver {
            inner,
            plan,
            label,
            calls: AtomicUsize::new(0),
            injected: AtomicUsize::new(0),
        }
    }

    /// Overrides the solver name (useful to isolate per-test metric names).
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.label = name.into();
        self
    }

    /// Total solve attempts seen (forward + adjoint, retries included).
    pub fn calls(&self) -> usize {
        self.calls.load(Ordering::Relaxed)
    }

    /// Faults actually injected so far.
    pub fn injected(&self) -> usize {
        self.injected.load(Ordering::Relaxed)
    }

    /// The wrapped solver.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Consumes a call index; returns the fault to apply, if scheduled.
    fn next_fault(&self) -> Option<InjectedFault> {
        let idx = self.calls.fetch_add(1, Ordering::Relaxed);
        let fault = self.plan.fault_for(idx)?;
        self.injected.fetch_add(1, Ordering::Relaxed);
        Some(fault)
    }

    fn apply(
        &self,
        fault: InjectedFault,
        grid: crate::grid::Grid2d,
    ) -> Result<ComplexField2d, SolveFieldError> {
        match fault {
            InjectedFault::Error => Err(SolveFieldError::Numerical {
                detail: format!("injected failure (call {})", self.calls() - 1),
            }),
            InjectedFault::NonFinite => {
                let mut f = ComplexField2d::zeros(grid);
                f.set(0, 0, Complex64::new(f64::NAN, 0.0));
                Ok(f)
            }
        }
    }
}

impl<S: FieldSolver> FieldSolver for FaultInjectingSolver<S> {
    fn solve_ez(
        &self,
        eps_r: &RealField2d,
        source: &ComplexField2d,
        omega: f64,
    ) -> Result<ComplexField2d, SolveFieldError> {
        match self.next_fault() {
            Some(fault) => self.apply(fault, eps_r.grid()),
            None => self.inner.solve_ez(eps_r, source, omega),
        }
    }

    fn solve_adjoint_ez(
        &self,
        eps_r: &RealField2d,
        rhs: &ComplexField2d,
        omega: f64,
    ) -> Result<ComplexField2d, SolveFieldError> {
        match self.next_fault() {
            Some(fault) => self.apply(fault, eps_r.grid()),
            None => self.inner.solve_adjoint_ez(eps_r, rhs, omega),
        }
    }

    fn name(&self) -> &str {
        &self.label
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::Grid2d;

    struct EchoSolver;

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
            "echo"
        }
    }

    #[test]
    fn schedule_is_deterministic_by_call_index() {
        let g = Grid2d::new(3, 3, 0.1);
        let eps = RealField2d::constant(g, 1.0);
        let j = ComplexField2d::zeros(g);
        let s = FaultInjectingSolver::new(
            EchoSolver,
            FaultPlan::new()
                .fail_at(1, InjectedFault::Error)
                .fail_at(3, InjectedFault::NonFinite),
        );
        assert!(s.solve_ez(&eps, &j, 1.0).is_ok()); // call 0
        assert!(s.solve_ez(&eps, &j, 1.0).is_err()); // call 1: Error
        assert!(s.solve_adjoint_ez(&eps, &j, 1.0).is_ok()); // call 2
        let f = s.solve_ez(&eps, &j, 1.0).unwrap(); // call 3: NaN field
        assert!(f.get(0, 0).re.is_nan());
        assert_eq!(s.calls(), 4);
        assert_eq!(s.injected(), 2);
    }

    #[test]
    fn periodic_plan_hits_every_nth_call() {
        let g = Grid2d::new(2, 2, 0.1);
        let eps = RealField2d::constant(g, 1.0);
        let j = ComplexField2d::zeros(g);
        let s = FaultInjectingSolver::new(
            EchoSolver,
            FaultPlan::new().fail_every(5, InjectedFault::Error),
        );
        let failures = (0..20)
            .filter(|_| s.solve_ez(&eps, &j, 1.0).is_err())
            .count();
        assert_eq!(failures, 4, "calls 0, 5, 10, 15");
        assert_eq!(s.injected(), 4);
    }
}
