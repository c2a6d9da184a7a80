//! Fault-tolerant solving: bounded retries, solver fallback chains, and
//! mandatory output validation.
//!
//! A production inverse-design or dataset-generation run performs thousands
//! of solves; a single stalled BiCGSTAB or silent NaN field must degrade the
//! run, not abort it. [`RobustSolver`] wraps any [`FieldSolver`] with a
//! [`RetryPolicy`]:
//!
//! 1. **Validate** — every returned field is scanned for NaN/∞; a
//!    non-finite field becomes [`SolveFieldError::NonFinite`] and is treated
//!    like any other retryable failure.
//! 2. **Retry** — retryable failures are re-attempted up to `max_retries`
//!    times. A retry is the same call again: it rescues a transient failure
//!    and changes nothing about how the primary solves.
//! 3. **Fall back** — if the primary is exhausted, an optional secondary
//!    solver (the exact direct backend behind an iterative primary, an
//!    iterative one behind the direct solve, or the FDFD solver behind a
//!    neural surrogate) gets one attempt. An iterative primary that stalls
//!    stalls again on a retry; its remedy is the direct fallback.
//!
//! [`RobustSolver::solve_by`] and [`RobustSolver::solve_batch_by`] report
//! the [`Rung`] that answered and honour a deadline; the [`FieldSolver`]
//! impl drops the rung. Every recovery event increments the global
//! `solve.retries` / `solve.fallbacks` / `solve.nonfinite` counters and a
//! per-instance [`RobustStats`] snapshot, so telemetry shows *degradation*,
//! not just success or crash.

use crate::field::{ComplexField2d, RealField2d};
use crate::solver::{ensure_finite, FieldSolver, SolveFieldError, SolveKind, SolveRequest};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Retry/fallback configuration for a [`RobustSolver`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Additional attempts on the primary solver after the first failure.
    pub max_retries: usize,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_retries: 2 }
    }
}

impl RetryPolicy {
    /// Builds a policy from `MAPS_SOLVE_RETRIES` (`max_retries`, a usize),
    /// falling back to the default. A malformed value warns once via
    /// [`maps_obs::warn_invalid_env`] and falls back to the default instead
    /// of being silently ignored.
    pub fn from_env() -> Self {
        let default = RetryPolicy::default().max_retries;
        RetryPolicy {
            max_retries: maps_obs::parse_env_or("MAPS_SOLVE_RETRIES", default),
        }
    }
}

/// The rung of a [`RobustSolver`]'s ladder that produced an answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rung {
    /// The primary's first attempt.
    Primary,
    /// The primary, on a retry.
    Retry,
    /// The fallback solver.
    Fallback,
}

/// Per-instance recovery counters of a [`RobustSolver`].
///
/// These mirror the global `solve.*` metrics but are scoped to one wrapper,
/// so tests and pipelines can attribute recoveries to a specific solver
/// without races against other instrumentation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RobustStats {
    /// Primary re-attempts after a retryable failure.
    pub retries: u64,
    /// Solves answered by the fallback solver.
    pub fallbacks: u64,
    /// Fields rejected by non-finite output validation.
    pub nonfinite: u64,
    /// Solves that failed even after retries and fallback.
    pub unrecovered: u64,
    /// Solves that ultimately succeeded after at least one failure.
    pub recovered: u64,
    /// Recovery sequences abandoned because the caller's deadline passed.
    pub deadlined: u64,
}

#[derive(Debug, Default)]
struct StatCells {
    retries: AtomicU64,
    fallbacks: AtomicU64,
    nonfinite: AtomicU64,
    unrecovered: AtomicU64,
    recovered: AtomicU64,
    deadlined: AtomicU64,
}

/// A [`FieldSolver`] wrapper that retries, falls back, and validates
/// according to a [`RetryPolicy`]. See the module docs for the
/// recovery sequence.
///
/// The primary is the last field, so `S` may be unsized:
/// `Box<RobustSolver<dyn FieldSolver>>` holds a ladder over any primary.
pub struct RobustSolver<S: FieldSolver + ?Sized> {
    fallback: Option<Box<dyn FieldSolver>>,
    policy: RetryPolicy,
    label: String,
    stats: StatCells,
    primary: S,
}

impl<S: FieldSolver> RobustSolver<S> {
    /// Wraps `primary` with the given policy and no fallback.
    pub fn new(primary: S, policy: RetryPolicy) -> Self {
        let label = format!("robust({})", primary.name());
        RobustSolver {
            fallback: None,
            policy,
            label,
            stats: StatCells::default(),
            primary,
        }
    }

    /// Adds a secondary solver tried once after the primary is exhausted.
    pub fn with_fallback(mut self, fallback: Box<dyn FieldSolver>) -> Self {
        self.label = format!("robust({}->{})", self.primary.name(), fallback.name());
        self.fallback = Some(fallback);
        self
    }
}

/// One attempt of `solver` at `req`.
fn attempt<T: FieldSolver + ?Sized>(
    solver: &T,
    eps_r: &RealField2d,
    req: &SolveRequest<'_>,
) -> Result<ComplexField2d, SolveFieldError> {
    match req.kind {
        SolveKind::Forward => solver.solve_ez(eps_r, req.source, req.omega),
        SolveKind::Adjoint => solver.solve_adjoint_ez(eps_r, req.source, req.omega),
    }
}

impl<S: FieldSolver + ?Sized> RobustSolver<S> {
    /// The wrapped primary solver.
    pub fn primary(&self) -> &S {
        &self.primary
    }

    /// The name of the solver that answers on `rung`: the fallback's for
    /// [`Rung::Fallback`], the primary's otherwise.
    pub fn solver_name(&self, rung: Rung) -> &str {
        match (rung, &self.fallback) {
            (Rung::Fallback, Some(fb)) => fb.name(),
            _ => self.primary.name(),
        }
    }

    /// A snapshot of this instance's recovery counters.
    pub fn stats(&self) -> RobustStats {
        RobustStats {
            retries: self.stats.retries.load(Ordering::Relaxed),
            fallbacks: self.stats.fallbacks.load(Ordering::Relaxed),
            nonfinite: self.stats.nonfinite.load(Ordering::Relaxed),
            unrecovered: self.stats.unrecovered.load(Ordering::Relaxed),
            recovered: self.stats.recovered.load(Ordering::Relaxed),
            deadlined: self.stats.deadlined.load(Ordering::Relaxed),
        }
    }

    /// Raises [`SolveFieldError::DeadlineExceeded`] when `deadline` has
    /// passed, counting the abandonment.
    fn check_deadline(
        &self,
        deadline: Option<Instant>,
        stage: &str,
    ) -> Result<(), SolveFieldError> {
        let Some(d) = deadline else { return Ok(()) };
        if Instant::now() < d {
            return Ok(());
        }
        self.stats.deadlined.fetch_add(1, Ordering::Relaxed);
        maps_obs::counter("solve.deadline_exceeded").inc();
        Err(SolveFieldError::DeadlineExceeded {
            detail: format!("deadline passed before {stage}"),
        })
    }

    /// Scans a primary/fallback result for NaN/∞, counting non-finite
    /// rejections.
    fn check(
        &self,
        result: Result<ComplexField2d, SolveFieldError>,
        producer: &str,
    ) -> Result<ComplexField2d, SolveFieldError> {
        let field = result?;
        if let Err(e) = ensure_finite(&field, producer) {
            self.stats.nonfinite.fetch_add(1, Ordering::Relaxed);
            maps_obs::counter("solve.nonfinite").inc();
            return Err(e);
        }
        Ok(field)
    }

    /// The retry→fallback sequence for `req`, seeded with the
    /// primary's first-attempt result. The batch path obtains its first
    /// attempts from the primary's `solve_ez_batch` (amortizing one
    /// factorization per frequency group), so only the requests that
    /// failed re-enter the sequence.
    fn drive_from(
        &self,
        first: Result<ComplexField2d, SolveFieldError>,
        eps_r: &RealField2d,
        req: &SolveRequest<'_>,
        deadline: Option<Instant>,
    ) -> Result<(ComplexField2d, Rung), SolveFieldError> {
        let mut last_err = match self.check(first, self.primary.name()) {
            Ok(field) => return Ok((field, Rung::Primary)),
            Err(e) if !e.is_retryable() => {
                self.stats.unrecovered.fetch_add(1, Ordering::Relaxed);
                return Err(e);
            }
            Err(e) => e,
        };
        let direction = match req.kind {
            SolveKind::Forward => "forward",
            SolveKind::Adjoint => "adjoint",
        };
        let _span = maps_obs::span("solve.recover")
            .field("solver", self.primary.name())
            .field("direction", direction);
        for k in 1..=self.policy.max_retries {
            self.check_deadline(deadline, "a retry")?;
            self.stats.retries.fetch_add(1, Ordering::Relaxed);
            maps_obs::counter("solve.retries").inc();
            maps_obs::error!(
                "{} {direction} solve failed ({last_err}); retry {k}/{}",
                self.primary.name(),
                self.policy.max_retries
            );
            match self.check(attempt(&self.primary, eps_r, req), self.primary.name()) {
                Ok(field) => {
                    self.stats.recovered.fetch_add(1, Ordering::Relaxed);
                    maps_obs::counter("solve.recovered").inc();
                    return Ok((field, Rung::Retry));
                }
                Err(e) if !e.is_retryable() => {
                    self.stats.unrecovered.fetch_add(1, Ordering::Relaxed);
                    return Err(e);
                }
                Err(e) => last_err = e,
            }
        }
        if let Some(fb) = &self.fallback {
            self.check_deadline(deadline, "the fallback attempt")?;
            self.stats.fallbacks.fetch_add(1, Ordering::Relaxed);
            maps_obs::counter("solve.fallbacks").inc();
            maps_obs::error!(
                "{} exhausted ({last_err}); falling back to {}",
                self.primary.name(),
                fb.name()
            );
            match self.check(attempt(fb.as_ref(), eps_r, req), fb.name()) {
                Ok(field) => {
                    self.stats.recovered.fetch_add(1, Ordering::Relaxed);
                    maps_obs::counter("solve.recovered").inc();
                    return Ok((field, Rung::Fallback));
                }
                Err(e) => last_err = e,
            }
        }
        self.stats.unrecovered.fetch_add(1, Ordering::Relaxed);
        maps_obs::counter("solve.unrecovered").inc();
        Err(last_err)
    }

    /// Solves one request down the ladder with an optional wall-clock
    /// deadline, returning the field and the [`Rung`] that produced it.
    ///
    /// The deadline is checked before the first attempt, before every
    /// retry, and before the fallback attempt — a recovery sequence
    /// never outlives the caller's patience. An attempt already in flight
    /// is not interrupted (the solvers are synchronous), so one attempt's
    /// worth of overshoot is possible; what the deadline guarantees is that
    /// no *new* work starts past it.
    ///
    /// # Errors
    ///
    /// [`SolveFieldError::DeadlineExceeded`] when the deadline passes
    /// mid-recovery, otherwise the last rung's error.
    pub fn solve_by(
        &self,
        eps_r: &RealField2d,
        req: SolveRequest<'_>,
        deadline: Option<Instant>,
    ) -> Result<(ComplexField2d, Rung), SolveFieldError> {
        self.check_deadline(deadline, "the first attempt")?;
        let first = attempt(&self.primary, eps_r, &req);
        self.drive_from(first, eps_r, &req, deadline)
    }

    /// Solves a batch down the ladder, one result per request in input
    /// order (see [`RobustSolver::solve_by`] for the deadline contract).
    ///
    /// The first attempts run together through the primary's
    /// [`FieldSolver::solve_ez_batch`], keeping its batch amortization (one
    /// factorization per frequency group); each failed request then
    /// recovers on its own. One poisoned excitation therefore costs only
    /// its own recovery — the rest of the batch is untouched.
    pub fn solve_batch_by(
        &self,
        eps_r: &RealField2d,
        requests: &[SolveRequest<'_>],
        deadline: Option<Instant>,
    ) -> Vec<Result<(ComplexField2d, Rung), SolveFieldError>> {
        if let Err(e) = self.check_deadline(deadline, "the first attempt") {
            return requests.iter().map(|_| Err(e.clone())).collect();
        }
        let firsts = self.primary.solve_ez_batch(eps_r, requests);
        debug_assert_eq!(firsts.len(), requests.len());
        firsts
            .into_iter()
            .zip(requests)
            .map(|(first, req)| self.drive_from(first, eps_r, req, deadline))
            .collect()
    }
}

impl<S: FieldSolver + ?Sized> FieldSolver for RobustSolver<S> {
    fn solve_ez(
        &self,
        eps_r: &RealField2d,
        source: &ComplexField2d,
        omega: f64,
    ) -> Result<ComplexField2d, SolveFieldError> {
        self.solve_by(eps_r, SolveRequest::forward(source, omega), None)
            .map(|(field, _)| field)
    }

    fn solve_adjoint_ez(
        &self,
        eps_r: &RealField2d,
        rhs: &ComplexField2d,
        omega: f64,
    ) -> Result<ComplexField2d, SolveFieldError> {
        self.solve_by(eps_r, SolveRequest::adjoint(rhs, omega), None)
            .map(|(field, _)| field)
    }

    /// See [`RobustSolver::solve_batch_by`].
    fn solve_ez_batch(
        &self,
        eps_r: &RealField2d,
        requests: &[SolveRequest<'_>],
    ) -> Vec<Result<ComplexField2d, SolveFieldError>> {
        self.solve_batch_by(eps_r, requests, None)
            .into_iter()
            .map(|r| r.map(|(field, _)| field))
            .collect()
    }

    fn name(&self) -> &str {
        &self.label
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultInjectingSolver, FaultPlan, InjectedFault};
    use crate::grid::Grid2d;
    use crate::solver::tests::RelaxedFails;
    use maps_linalg::Complex64;

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

    fn fixtures() -> (Grid2d, RealField2d, ComplexField2d) {
        let g = Grid2d::new(4, 4, 0.1);
        let eps = RealField2d::constant(g, 1.0);
        let mut j = ComplexField2d::zeros(g);
        j.set(1, 2, Complex64::new(0.5, -0.25));
        (g, eps, j)
    }

    #[test]
    fn clean_solves_pass_through_untouched() {
        let (_, eps, j) = fixtures();
        let robust = RobustSolver::new(EchoSolver, RetryPolicy::default());
        let (out, rung) = robust
            .solve_by(&eps, SolveRequest::forward(&j, 1.0), None)
            .unwrap();
        assert_eq!(out.as_slice(), j.as_slice());
        assert_eq!(rung, Rung::Primary);
        assert_eq!(robust.stats(), RobustStats::default());
        assert_eq!(robust.name(), "robust(echo)");
    }

    #[test]
    fn transient_error_is_retried() {
        let (_, eps, j) = fixtures();
        let faulty = FaultInjectingSolver::new(
            EchoSolver,
            FaultPlan::new().fail_at(0, InjectedFault::Error),
        );
        let robust = RobustSolver::new(faulty, RetryPolicy::default());
        let (out, rung) = robust
            .solve_by(&eps, SolveRequest::forward(&j, 1.0), None)
            .unwrap();
        assert_eq!(out.as_slice(), j.as_slice());
        assert_eq!(rung, Rung::Retry);
        let stats = robust.stats();
        assert_eq!(stats.retries, 1);
        assert_eq!(stats.recovered, 1);
        assert_eq!(stats.fallbacks, 0);
    }

    #[test]
    fn nan_field_is_caught_and_retried() {
        let (_, eps, j) = fixtures();
        let faulty = FaultInjectingSolver::new(
            EchoSolver,
            FaultPlan::new().fail_at(0, InjectedFault::NonFinite),
        );
        let robust = RobustSolver::new(faulty, RetryPolicy::default());
        let out = robust.solve_ez(&eps, &j, 1.0).unwrap();
        assert_eq!(out.as_slice(), j.as_slice());
        let stats = robust.stats();
        assert_eq!(stats.nonfinite, 1);
        assert_eq!(stats.retries, 1);
        assert_eq!(stats.recovered, 1);
    }

    #[test]
    fn fallback_rescues_exhausted_primary() {
        let (_, eps, j) = fixtures();
        let faulty =
            FaultInjectingSolver::new(EchoSolver, FaultPlan::new().always(InjectedFault::Error));
        let robust =
            RobustSolver::new(faulty, RetryPolicy::default()).with_fallback(Box::new(EchoSolver));
        let (out, rung) = robust
            .solve_by(&eps, SolveRequest::forward(&j, 1.0), None)
            .unwrap();
        assert_eq!(out.as_slice(), j.as_slice());
        assert_eq!(rung, Rung::Fallback);
        assert_eq!(robust.solver_name(rung), "echo");
        assert_eq!(robust.solver_name(Rung::Retry), "fault(echo)");
        let stats = robust.stats();
        assert_eq!(stats.retries, 2);
        assert_eq!(stats.fallbacks, 1);
        assert_eq!(stats.recovered, 1);
        assert_eq!(stats.unrecovered, 0);
        assert_eq!(robust.name(), "robust(fault(echo)->echo)");
    }

    #[test]
    fn permanent_errors_are_not_retried() {
        let (_, eps, _) = fixtures();
        let j_bad = ComplexField2d::zeros(Grid2d::new(3, 3, 0.1));
        struct Mismatch;
        impl FieldSolver for Mismatch {
            fn solve_ez(
                &self,
                eps_r: &RealField2d,
                source: &ComplexField2d,
                _omega: f64,
            ) -> Result<ComplexField2d, SolveFieldError> {
                if eps_r.grid() != source.grid() {
                    return Err(SolveFieldError::GridMismatch {
                        detail: "test".into(),
                    });
                }
                Ok(source.clone())
            }
        }
        let robust =
            RobustSolver::new(Mismatch, RetryPolicy::default()).with_fallback(Box::new(EchoSolver));
        let err = robust.solve_ez(&eps, &j_bad, 1.0).unwrap_err();
        assert!(matches!(err, SolveFieldError::GridMismatch { .. }));
        let stats = robust.stats();
        assert_eq!(stats.retries, 0, "GridMismatch must not be retried");
        assert_eq!(stats.fallbacks, 0);
        assert_eq!(stats.unrecovered, 1);
    }

    #[test]
    fn everything_failing_reports_last_error() {
        let (_, eps, j) = fixtures();
        let faulty =
            FaultInjectingSolver::new(EchoSolver, FaultPlan::new().always(InjectedFault::Error));
        let fallback =
            FaultInjectingSolver::new(EchoSolver, FaultPlan::new().always(InjectedFault::Error));
        let robust =
            RobustSolver::new(faulty, RetryPolicy::default()).with_fallback(Box::new(fallback));
        let err = robust.solve_ez(&eps, &j, 1.0).unwrap_err();
        assert!(matches!(err, SolveFieldError::Numerical { .. }));
        let stats = robust.stats();
        assert_eq!(stats.unrecovered, 1);
        assert_eq!(stats.recovered, 0);
    }

    #[test]
    fn batch_recovers_only_the_failed_request() {
        let (_, eps, j) = fixtures();
        // Call 1 (the second request's first attempt) fails; the retry
        // (call 2) succeeds. Requests 0 and 2 never see a failure.
        let faulty = FaultInjectingSolver::new(
            EchoSolver,
            FaultPlan::new().fail_at(1, InjectedFault::Error),
        );
        let robust = RobustSolver::new(faulty, RetryPolicy::default());
        let requests = [
            SolveRequest::forward(&j, 1.0),
            SolveRequest::forward(&j, 1.0),
            SolveRequest::adjoint(&j, 1.0),
        ];
        let out = robust.solve_batch_by(&eps, &requests, None);
        let rungs: Vec<Rung> = out.into_iter().map(|r| r.unwrap().1).collect();
        assert_eq!(rungs, [Rung::Primary, Rung::Retry, Rung::Primary]);
        let stats = robust.stats();
        assert_eq!(stats.retries, 1, "only the injected failure retries");
        assert_eq!(stats.recovered, 1);
    }

    #[test]
    fn batch_quarantines_an_unrecoverable_request() {
        let (_, eps, j) = fixtures();
        // The batch's first attempts are calls 0..=2; the second request's
        // retries run after the whole batch, as calls 3 and 4. Failing 1, 3
        // and 4 keeps it failed while its neighbors pass untouched.
        let faulty = FaultInjectingSolver::new(
            EchoSolver,
            FaultPlan::new()
                .fail_at(1, InjectedFault::Error)
                .fail_at(3, InjectedFault::Error)
                .fail_at(4, InjectedFault::Error),
        );
        let robust = RobustSolver::new(faulty, RetryPolicy::default());
        let requests = [
            SolveRequest::forward(&j, 1.0),
            SolveRequest::forward(&j, 1.0),
            SolveRequest::forward(&j, 1.0),
        ];
        let out = robust.solve_ez_batch(&eps, &requests);
        assert!(out[0].is_ok());
        assert!(out[1].is_err(), "the poisoned request stays quarantined");
        assert!(out[2].is_ok());
        let stats = robust.stats();
        assert_eq!(stats.retries, 2);
        assert_eq!(stats.unrecovered, 1);
    }

    #[test]
    fn expired_deadline_short_circuits_before_the_first_attempt() {
        let (_, eps, j) = fixtures();
        let counted = FaultInjectingSolver::new(EchoSolver, FaultPlan::new());
        let robust = RobustSolver::new(counted, RetryPolicy::default());
        let err = robust
            .solve_by(&eps, SolveRequest::forward(&j, 1.0), Some(Instant::now()))
            .unwrap_err();
        assert!(matches!(err, SolveFieldError::DeadlineExceeded { .. }));
        assert_eq!(robust.stats().deadlined, 1);
        assert_eq!(robust.stats().retries, 0);

        // A batch is abandoned whole: every slot reports the deadline.
        let requests = [
            SolveRequest::forward(&j, 1.0),
            SolveRequest::adjoint(&j, 1.0),
        ];
        let out = robust.solve_batch_by(&eps, &requests, Some(Instant::now()));
        assert_eq!(out.len(), 2);
        assert!(out
            .iter()
            .all(|r| matches!(r, Err(SolveFieldError::DeadlineExceeded { .. }))));
        assert_eq!(robust.stats().deadlined, 2);
        assert_eq!(robust.primary().calls(), 0, "no attempt starts past it");
    }

    #[test]
    fn deadline_cuts_a_retry_sequence_short() {
        let (_, eps, j) = fixtures();
        /// Fails after sleeping long enough to guarantee the deadline has
        /// passed by the time the retry loop re-checks it.
        struct SleepyFail;
        impl FieldSolver for SleepyFail {
            fn solve_ez(
                &self,
                _eps_r: &RealField2d,
                _source: &ComplexField2d,
                _omega: f64,
            ) -> Result<ComplexField2d, SolveFieldError> {
                std::thread::sleep(std::time::Duration::from_millis(20));
                Err(SolveFieldError::Numerical {
                    detail: "injected".into(),
                })
            }
        }
        let robust = RobustSolver::new(SleepyFail, RetryPolicy::default())
            .with_fallback(Box::new(EchoSolver));
        let deadline = Instant::now() + std::time::Duration::from_millis(5);
        let err = robust
            .solve_by(&eps, SolveRequest::forward(&j, 1.0), Some(deadline))
            .unwrap_err();
        assert!(matches!(err, SolveFieldError::DeadlineExceeded { .. }));
        let stats = robust.stats();
        assert_eq!(stats.deadlined, 1);
        assert_eq!(stats.retries, 0, "no retry may start past the deadline");
        assert_eq!(stats.fallbacks, 0, "the fallback is past-deadline too");
    }

    #[test]
    fn no_deadline_means_no_deadline_accounting() {
        let (_, eps, j) = fixtures();
        let robust = RobustSolver::new(EchoSolver, RetryPolicy::default());
        robust
            .solve_by(&eps, SolveRequest::forward(&j, 1.0), None)
            .unwrap();
        robust
            .solve_by(&eps, SolveRequest::adjoint(&j, 1.0), None)
            .unwrap();
        assert_eq!(robust.stats().deadlined, 0);
    }

    /// A retry repeats the plain call: the primary's relaxed entry points
    /// always fail, so each direction answers on the retry rung only if its
    /// retry calls `solve_ez` / `solve_adjoint_ez` again.
    #[test]
    fn retry_repeats_the_plain_call_in_both_directions() {
        let (_, eps, j) = fixtures();
        // Calls 0 and 2 are the forward's and the adjoint's first attempts.
        let faulty = FaultInjectingSolver::new(
            RelaxedFails,
            FaultPlan::new()
                .fail_at(0, InjectedFault::Error)
                .fail_at(2, InjectedFault::Error),
        );
        let robust = RobustSolver::new(faulty, RetryPolicy::default());
        for req in [
            SolveRequest::forward(&j, 1.0),
            SolveRequest::adjoint(&j, 1.0),
        ] {
            let (_, rung) = robust.solve_by(&eps, req, None).unwrap();
            assert_eq!(rung, Rung::Retry, "{:?}", req.kind);
        }
        assert_eq!(robust.stats().retries, 2);
    }

    #[test]
    fn from_env_reads_the_retry_count() {
        // No other test in this crate reads MAPS_SOLVE_RETRIES.
        std::env::remove_var("MAPS_SOLVE_RETRIES");
        assert_eq!(RetryPolicy::from_env().max_retries, 2);
        std::env::set_var("MAPS_SOLVE_RETRIES", "5");
        assert_eq!(RetryPolicy::from_env().max_retries, 5);
        std::env::set_var("MAPS_SOLVE_RETRIES", "banana");
        assert_eq!(RetryPolicy::from_env().max_retries, 2);
        std::env::remove_var("MAPS_SOLVE_RETRIES");
    }
}
