//! The per-worker solve service: coalesced pre-warm, then one
//! degradation ladder.
//!
//! Each worker thread owns one [`SolveService`] (built by a
//! [`ServiceFactory`]). Its ladder is a `RobustSolver`: the exact direct
//! LU as the primary, retried per `MAPS_SOLVE_RETRIES`, then one BiCGSTAB
//! attempt as the fallback. The [`Rung`] that answered becomes the
//! response's `fidelity` (`direct`, `relaxed` or `fallback`), and the
//! solver behind it its `served_by`. The ladder keeps no state between
//! requests, so a request that fails changes nothing about how the next
//! one is served.
//!
//! The request path of one job:
//!
//! 1. **Refusals**: a grid the PML cannot fit in is answered 400 and an
//!    expired deadline 408, before any solving.
//! 2. **Pre-warm** (one-spec jobs): the factorization goes through the
//!    single-flight cache ([`maps_fdfd::factor_coalesced`]). Concurrent
//!    requests for the same (ε, ω) fingerprint elect one leader; the rest
//!    share its result. The outcome is surfaced per-response (`coalesce`)
//!    and in the `mapsd.coalesce.*` counters. A failed pre-warm is counted
//!    (`mapsd.prewarm.failed`) and the request still goes down the ladder.
//! 3. **Ladder**: one-spec jobs call `RobustSolver::solve_by`; multi-spec
//!    jobs (`/batch`, `/label` sweeps) call `RobustSolver::solve_batch_by`,
//!    which keeps the batch plane. Both honour the request deadline, so
//!    recovery never outlives the caller's patience.

use crate::protocol::{Envelope, ErrorKind, JobResult, SolveResult, SolveSpec, Timings};
use maps_core::{
    ComplexField2d, FieldSolver, Grid2d, RealField2d, RetryPolicy, RobustSolver, Rung,
    SolveFieldError, SolveRequest,
};
use maps_fdfd::{factor_coalesced, Backend, FactorOutcome, FdfdSolver, PmlConfig};
use maps_linalg::IterativeOptions;
use std::sync::Arc;
use std::time::Instant;

/// Builds one [`SolveService`] per worker thread. The factory is invoked
/// on the worker's own thread, so the solvers it builds never need to be
/// `Send` themselves — only the factory does.
pub type ServiceFactory = Arc<dyn Fn() -> SolveService + Send + Sync>;

/// One worker's solving machinery: pre-warm plus the degradation ladder.
pub struct SolveService {
    pml: PmlConfig,
    /// Pre-warm the factor cache through the single-flight gate before
    /// solving (off for ladders whose primary is not the FDFD LU).
    prewarm: bool,
    ladder: Box<RobustSolver<dyn FieldSolver>>,
}

impl SolveService {
    /// The production service: the FDFD direct LU as the primary, retry
    /// policy from the `MAPS_SOLVE_*` env knobs, one BiCGSTAB attempt as
    /// the fallback.
    ///
    /// Any other [`FieldSolver`] — a trained surrogate such as
    /// `maps_train::NeuralFieldSolver` — can take either rung through
    /// [`SolveService::with_parts`].
    pub fn from_env() -> Self {
        let ladder = RobustSolver::new(FdfdSolver::new(), RetryPolicy::from_env()).with_fallback(
            Box::new(FdfdSolver::new().backend(Backend::Iterative(IterativeOptions::default()))),
        );
        SolveService::with_parts(Box::new(ladder), true)
    }

    /// A service over a custom ladder — the hook chaos tests use to inject
    /// faults. `prewarm` pre-factors through the single-flight cache before
    /// each one-spec solve.
    pub fn with_parts(ladder: Box<RobustSolver<dyn FieldSolver>>, prewarm: bool) -> Self {
        SolveService {
            pml: PmlConfig::default(),
            prewarm,
            ladder,
        }
    }

    /// Runs every spec in `envelope`, producing the job's results.
    ///
    /// Multi-spec jobs (`/batch`, `/label` frequency sweeps) ride the
    /// batched solve plane in one `solve_batch_by` call: same-ω specs share
    /// a factorization *and* a blocked substitution pass, distinct-ω specs
    /// coalesce through the factor cache. Specs the batch cannot serve
    /// recover on their own, so one sick frequency never fails its
    /// neighbours.
    ///
    /// `queue_ms` is the time the job spent queued (accounted by the
    /// worker); `deadline` is the absolute per-request deadline.
    pub fn execute(
        &self,
        envelope: &Envelope,
        queue_ms: f64,
        deadline: Option<Instant>,
    ) -> JobResult {
        // Each worker owns its service, so the stats delta across this
        // execute is attributable to exactly this request.
        let retries_before = self.ladder.stats().retries;
        let results = match self.refusal(envelope.eps.grid(), deadline) {
            Some((kind, msg)) => envelope
                .specs
                .iter()
                .map(|_| SolveResult::failed(kind, msg.clone(), 0.0))
                .collect(),
            None => match envelope.specs.as_slice() {
                [spec] => {
                    vec![self.solve_one(&envelope.eps, spec, deadline, envelope.return_field)]
                }
                _ => self.solve_batched(envelope, deadline),
            },
        };
        let status = results
            .iter()
            .find_map(|r| r.error_kind.map(|k| k.http_status()))
            .unwrap_or(200);
        let retries = self.ladder.stats().retries.saturating_sub(retries_before);
        let factorize_us: f64 = results.iter().map(|r| r.factorize_ms).sum::<f64>() * 1e3;
        // Per-excitation solve_ms windows include the factor pre-warm;
        // subtract it so the breakdown's parts are disjoint.
        let solve_us =
            (results.iter().map(|r| r.solve_ms).sum::<f64>() * 1e3 - factorize_us).max(0.0);
        JobResult {
            id: envelope.id.clone(),
            status,
            queue_ms,
            results,
            error: None,
            trace_id: envelope.trace_id.clone(),
            timings: Timings {
                queue_us: queue_ms * 1e3,
                factorize_us,
                solve_us,
                // The connection handler owns the admission-to-write
                // window and fills total_us before rendering.
                total_us: 0.0,
            },
            retries,
        }
    }

    /// Why a job on `grid` is refused before any solving, if it is.
    fn refusal(&self, grid: Grid2d, deadline: Option<Instant>) -> Option<(ErrorKind, String)> {
        // The operator assembly panics on grids the PML cannot fit in; a
        // daemon answers 400 instead.
        let pml = self.pml.thickness;
        if 2 * pml >= grid.nx || 2 * pml >= grid.ny {
            return Some((
                ErrorKind::Invalid,
                format!(
                    "grid {}x{} too small for pml thickness {pml} (needs > {} cells per axis)",
                    grid.nx,
                    grid.ny,
                    2 * pml
                ),
            ));
        }
        if deadline.is_some_and(|d| Instant::now() >= d) {
            maps_obs::counter("mapsd.deadline.dropped_mid_job").inc();
            return Some((
                ErrorKind::Deadline,
                "deadline passed before the solve started".to_string(),
            ));
        }
        None
    }

    /// A multi-spec job: one `solve_batch_by` call over all specs. The
    /// batch plane coalesces factorizations through the same single-flight
    /// cache internally, so there is no explicit pre-warm.
    fn solve_batched(&self, envelope: &Envelope, deadline: Option<Instant>) -> Vec<SolveResult> {
        maps_obs::counter("mapsd.batch.jobs").inc();
        let started = Instant::now();
        let grid = envelope.eps.grid();
        let sources: Vec<ComplexField2d> = envelope
            .specs
            .iter()
            .map(|s| s.source_field(grid))
            .collect();
        let requests: Vec<SolveRequest<'_>> = envelope
            .specs
            .iter()
            .zip(&sources)
            .map(|(spec, source)| request(spec, source))
            .collect();
        let solved = self
            .ladder
            .solve_batch_by(&envelope.eps, &requests, deadline);
        // One traversal served the whole job; the per-slot cost is the
        // shared batch time.
        let batch_ms = ms_since(started);
        solved
            .into_iter()
            .map(|s| self.result(s, envelope.return_field, None, 0.0, batch_ms))
            .collect()
    }

    /// A one-spec job: pre-warm, then the ladder.
    fn solve_one(
        &self,
        eps: &RealField2d,
        spec: &SolveSpec,
        deadline: Option<Instant>,
        return_field: bool,
    ) -> SolveResult {
        let started = Instant::now();
        let (coalesce, factorize_ms) = if self.prewarm {
            self.prewarm(eps, spec.omega)
        } else {
            (None, 0.0)
        };
        let source = spec.source_field(eps.grid());
        let solved = self.ladder.solve_by(eps, request(spec, &source), deadline);
        self.result(
            solved,
            return_field,
            coalesce,
            factorize_ms,
            ms_since(started),
        )
    }

    /// Pre-warms the factor through the single-flight gate so concurrent
    /// requests for the same design share one factorization instead of
    /// racing. Returns the coalesce outcome and the time it took, ms.
    fn prewarm(&self, eps: &RealField2d, omega: f64) -> (Option<&'static str>, f64) {
        let started = Instant::now();
        let warmed = factor_coalesced(eps, omega, &self.pml, || {
            FdfdSolver::with_pml(self.pml)
                .operator(eps, omega)
                .to_banded()
        });
        let tag = match warmed {
            Ok((_, FactorOutcome::Hit)) => {
                maps_obs::counter("mapsd.coalesce.hit").inc();
                "hit"
            }
            Ok((_, FactorOutcome::Leader)) => {
                maps_obs::counter("mapsd.coalesce.leader").inc();
                "leader"
            }
            Ok((_, FactorOutcome::Follower)) => {
                maps_obs::counter("mapsd.coalesce.follower").inc();
                "follower"
            }
            // Not fatal: the ladder's own attempts (and its fallback)
            // still get their turn.
            Err(_) => {
                maps_obs::counter("mapsd.prewarm.failed").inc();
                return (None, 0.0);
            }
        };
        (Some(tag), ms_since(started))
    }

    /// The [`SolveResult`] of one ladder outcome, tagged with the rung
    /// that answered.
    fn result(
        &self,
        solved: Result<(ComplexField2d, Rung), SolveFieldError>,
        return_field: bool,
        coalesce: Option<&'static str>,
        factorize_ms: f64,
        solve_ms: f64,
    ) -> SolveResult {
        match solved {
            Ok((field, rung)) => {
                let fidelity = match rung {
                    Rung::Primary => "direct",
                    Rung::Retry => {
                        maps_obs::counter("mapsd.degraded.relaxed").inc();
                        "relaxed"
                    }
                    Rung::Fallback => {
                        maps_obs::counter("mapsd.degraded.fallback").inc();
                        "fallback"
                    }
                };
                SolveResult {
                    field_norm: Some(field.norm()),
                    field: return_field.then(|| interleave(&field)),
                    fidelity: Some(fidelity),
                    served_by: Some(self.ladder.solver_name(rung).to_string()),
                    coalesce,
                    factorize_ms,
                    solve_ms,
                    error_kind: None,
                    error: None,
                }
            }
            Err(SolveFieldError::DeadlineExceeded { detail }) => {
                SolveResult::failed(ErrorKind::Deadline, detail, solve_ms)
            }
            Err(e) if !e.is_retryable() => {
                SolveResult::failed(ErrorKind::Invalid, e.to_string(), solve_ms)
            }
            Err(e) => SolveResult::failed(ErrorKind::Numerical, e.to_string(), solve_ms),
        }
    }
}

/// The ladder request for `spec` driven by the dense `source`.
fn request<'a>(spec: &SolveSpec, source: &'a ComplexField2d) -> SolveRequest<'a> {
    SolveRequest {
        source,
        omega: spec.omega,
        kind: spec.kind,
    }
}

fn interleave(field: &ComplexField2d) -> Vec<f64> {
    let mut out = Vec::with_capacity(field.as_slice().len() * 2);
    for z in field.as_slice() {
        out.push(z.re);
        out.push(z.im);
    }
    out
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{parse_envelope, JobKind};
    use maps_core::fault::{FaultInjectingSolver, FaultPlan, InjectedFault};

    fn envelope(body: &str) -> Envelope {
        parse_envelope(JobKind::Solve, body).expect("envelope")
    }

    fn healthy_service() -> SolveService {
        SolveService::from_env()
    }

    #[test]
    fn healthy_request_is_served_direct() {
        let svc = healthy_service();
        let env = envelope(r#"{"nx":30,"ny":26,"dx":0.05,"eps":1.0,"omega":4.0}"#);
        let job = svc.execute(&env, 0.0, None);
        assert_eq!(job.status, 200);
        assert_eq!(job.results.len(), 1);
        let r = &job.results[0];
        assert!(r.is_ok(), "unexpected error: {:?}", r.error);
        assert_eq!(r.fidelity, Some("direct"));
        assert_eq!(r.served_by.as_deref(), Some("fdfd-direct"));
        assert!(r.field_norm.unwrap() > 0.0);
        assert!(r.coalesce.is_some(), "prewarm outcome is surfaced");
    }

    #[test]
    fn return_field_interleaves_re_im() {
        let svc = healthy_service();
        let env =
            envelope(r#"{"nx":30,"ny":26,"dx":0.05,"eps":1.0,"omega":4.0,"return_field":true}"#);
        let job = svc.execute(&env, 0.0, None);
        let r = &job.results[0];
        let field = r.field.as_ref().expect("field returned");
        assert_eq!(field.len(), 30 * 26 * 2);
        let norm: f64 = field
            .chunks_exact(2)
            .map(|z| z[0] * z[0] + z[1] * z[1])
            .sum::<f64>()
            .sqrt();
        assert!((norm - r.field_norm.unwrap()).abs() < 1e-9 * norm.max(1.0));
    }

    /// A primary that always faults exhausts its retries, and the
    /// production fallback (BiCGSTAB) answers.
    #[test]
    fn sick_primary_degrades_to_the_fallback() {
        let primary = FaultInjectingSolver::new(
            FdfdSolver::new(),
            FaultPlan::new().always(InjectedFault::Error),
        )
        .with_name("chaos-direct");
        let ladder = RobustSolver::new(primary, RetryPolicy::default()).with_fallback(Box::new(
            FdfdSolver::new().backend(Backend::Iterative(IterativeOptions::default())),
        ));
        let svc = SolveService::with_parts(Box::new(ladder), true);
        let env = envelope(r#"{"nx":30,"ny":26,"dx":0.05,"eps":1.0,"omega":4.0}"#);

        let job = svc.execute(&env, 0.0, None);
        assert_eq!(job.status, 200);
        let r = &job.results[0];
        assert!(r.is_ok(), "the fallback rescues the request: {:?}", r.error);
        assert!(r.field_norm.unwrap() > 0.0);
        assert_eq!(r.fidelity, Some("fallback"));
        assert_eq!(r.served_by.as_deref(), Some("fdfd-bicgstab"));
        assert_eq!(job.retries, 2);
    }

    /// The exact solver, failing every request above the given ω.
    struct FailsAbove(f64);

    impl FieldSolver for FailsAbove {
        fn solve_ez(
            &self,
            eps_r: &RealField2d,
            source: &ComplexField2d,
            omega: f64,
        ) -> Result<ComplexField2d, SolveFieldError> {
            if omega > self.0 {
                return Err(SolveFieldError::Numerical {
                    detail: format!("injected failure above omega {}", self.0),
                });
            }
            FdfdSolver::new().solve_ez(eps_r, source, omega)
        }

        fn name(&self) -> &str {
            "gated-direct"
        }
    }

    /// The ladder keeps no state between requests: a run of failed
    /// requests leaves the next healthy one on the primary's first
    /// attempt.
    #[test]
    fn failed_requests_do_not_degrade_healthy_ones() {
        let ladder = RobustSolver::new(FailsAbove(4.5), RetryPolicy::default()).with_fallback(
            Box::new(FaultInjectingSolver::new(
                FdfdSolver::new(),
                FaultPlan::new().always(InjectedFault::Error),
            )),
        );
        let svc = SolveService::with_parts(Box::new(ladder), true);

        let failing = envelope(r#"{"nx":30,"ny":26,"dx":0.05,"eps":1.0,"omega":5.0}"#);
        for i in 0..8 {
            let job = svc.execute(&failing, 0.0, None);
            assert_eq!(job.status, 500, "request {i}");
            assert_eq!(job.results[0].error_kind, Some(ErrorKind::Numerical));
        }

        let healthy = envelope(r#"{"nx":30,"ny":26,"dx":0.05,"eps":1.0,"omega":4.0}"#);
        let job = svc.execute(&healthy, 0.0, None);
        assert_eq!(job.status, 200);
        let r = &job.results[0];
        assert_eq!(r.fidelity, Some("direct"));
        assert_eq!(r.served_by.as_deref(), Some("gated-direct"));
        assert_eq!(job.retries, 0);
    }

    /// A frequency-sweep job rides the batched plane and answers every
    /// slot with the same numbers as solving each spec on its own.
    #[test]
    fn label_sweep_is_served_by_the_batch_plane() {
        let svc = healthy_service();
        let sweep = parse_envelope(
            JobKind::Label,
            r#"{"nx":30,"ny":26,"dx":0.05,"eps":1.0,"omegas":[4.0,4.1,4.2,4.3]}"#,
        )
        .expect("label envelope");
        let before = maps_obs::counter("mapsd.batch.jobs").get();
        let job = svc.execute(&sweep, 0.0, None);
        assert_eq!(job.status, 200);
        assert_eq!(job.results.len(), 4);
        assert!(maps_obs::counter("mapsd.batch.jobs").get() > before);
        for (i, r) in job.results.iter().enumerate() {
            assert!(r.is_ok(), "slot {i}: {:?}", r.error);
            assert_eq!(r.fidelity, Some("direct"));
            // Batched answers are bit-identical to the per-spec path.
            let single = svc.solve_one(&sweep.eps, &sweep.specs[i], None, false);
            assert_eq!(
                r.field_norm.unwrap().to_bits(),
                single.field_norm.unwrap().to_bits(),
                "slot {i} diverges from the scalar path"
            );
        }
    }

    /// An expired deadline fails a sweep before any batch work starts.
    #[test]
    fn expired_deadline_fails_whole_sweep() {
        let svc = healthy_service();
        let sweep = parse_envelope(
            JobKind::Label,
            r#"{"nx":30,"ny":26,"dx":0.05,"eps":1.0,"omegas":[4.0,4.1]}"#,
        )
        .expect("label envelope");
        let job = svc.execute(&sweep, 0.0, Some(Instant::now()));
        assert_eq!(job.status, 408);
        assert!(job
            .results
            .iter()
            .all(|r| r.error_kind == Some(ErrorKind::Deadline)));
    }

    #[test]
    fn expired_deadline_is_answered_without_solving() {
        let svc = healthy_service();
        let env = envelope(r#"{"nx":30,"ny":26,"dx":0.05,"eps":1.0,"omega":4.0}"#);
        let job = svc.execute(&env, 0.0, Some(Instant::now()));
        assert_eq!(job.status, 408);
        let r = &job.results[0];
        assert_eq!(r.error_kind, Some(ErrorKind::Deadline));
        assert!(!r.is_ok());
    }
}
