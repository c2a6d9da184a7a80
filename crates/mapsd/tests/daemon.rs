//! End-to-end daemon tests: every request admitted gets an answer — a
//! result, a degraded result, a shed, or a deadline rejection — and the
//! daemon survives bursts, faults, and shutdown without a panic.

use maps_core::fault::{FaultInjectingSolver, FaultPlan, InjectedFault};
use maps_core::{
    ComplexField2d, FieldSolver, RealField2d, RetryPolicy, RobustSolver, SolveFieldError,
};
use maps_fdfd::{Backend, FdfdSolver};
use maps_linalg::IterativeOptions;
use maps_mapsd::{http_get, http_post, serve, serve_with, DaemonConfig, QueueConfig, SolveService};
use std::sync::Arc;
use std::time::Duration;

fn ephemeral(queue: QueueConfig, workers: usize) -> DaemonConfig {
    DaemonConfig {
        addr: "127.0.0.1:0".to_string(),
        workers,
        max_body: 4 << 20,
        queue,
        tail: maps_mapsd::TailConfig::default(),
    }
}

const SOLVE_BODY: &str = r#"{"nx":30,"ny":26,"dx":0.05,"eps":1.0,"omega":4.0}"#;

#[test]
fn solve_round_trips_and_matches_a_local_solve() {
    let daemon = serve(ephemeral(QueueConfig::default(), 2)).expect("serve");
    let addr = daemon.local_addr().to_string();

    let body =
        r#"{"nx":30,"ny":26,"dx":0.05,"eps":1.0,"omega":4.0,"return_field":true,"id":"rt-1"}"#;
    let (status, resp) = http_post(&addr, "/solve", body).expect("post");
    assert_eq!(status, 200, "body: {resp}");
    assert!(resp.contains("\"id\":\"rt-1\""));
    assert!(resp.contains("\"status\":\"ok\""));
    assert!(resp.contains("\"fidelity\":\"direct\""));

    // The served field matches a local direct solve bit-for-bit modulo
    // JSON float round-tripping.
    let grid = maps_core::Grid2d::new(30, 26, 0.05);
    let eps = RealField2d::constant(grid, 1.0);
    let mut j = ComplexField2d::zeros(grid);
    j.set(15, 13, maps_linalg::Complex64::ONE);
    let local = FdfdSolver::new().solve_ez(&eps, &j, 4.0).expect("local");
    let norm_tag = "\"field_norm\":";
    let idx = resp.find(norm_tag).expect("field_norm present") + norm_tag.len();
    let norm: f64 = resp[idx..]
        .split([',', '}'])
        .next()
        .unwrap()
        .parse()
        .expect("norm parses");
    assert!(
        (norm - local.norm()).abs() < 1e-9 * local.norm(),
        "daemon norm {norm} vs local {}",
        local.norm()
    );

    daemon.stop();
}

#[test]
fn malformed_and_unknown_requests_are_answered() {
    let daemon = serve(ephemeral(QueueConfig::default(), 1)).expect("serve");
    let addr = daemon.local_addr().to_string();

    let (status, body) = http_post(&addr, "/solve", "{\"nx\":").expect("post");
    assert_eq!(status, 400);
    assert!(body.contains("invalid request"));

    let (status, _) = http_post(&addr, "/solve", r#"{"nx":4,"ny":4,"dx":0.1}"#).expect("post");
    assert_eq!(status, 400, "missing omega");

    // A grid the PML cannot fit in is a 400, not a worker panic.
    let (status, body) = http_post(
        &addr,
        "/solve",
        r#"{"nx":8,"ny":8,"dx":0.1,"eps":1.0,"omega":4.0}"#,
    )
    .expect("post");
    assert_eq!(status, 400, "body: {body}");
    assert!(body.contains("pml"));

    let (status, _) = http_get(&addr, "/nope").expect("get");
    assert_eq!(status, 404);

    let (status, _) = http_post(&addr, "/metrics", "").expect("post to GET route");
    assert_eq!(status, 405);

    daemon.stop();
}

/// A solver that sleeps before answering — the tool for filling the queue.
struct SlowSolver(Duration);

impl FieldSolver for SlowSolver {
    fn solve_ez(
        &self,
        _eps_r: &RealField2d,
        source: &ComplexField2d,
        _omega: f64,
    ) -> Result<ComplexField2d, SolveFieldError> {
        std::thread::sleep(self.0);
        Ok(source.clone())
    }

    fn name(&self) -> &str {
        "slow-echo"
    }
}

fn slow_factory(delay: Duration) -> maps_mapsd::ServiceFactory {
    Arc::new(move || {
        let ladder = RobustSolver::new(SlowSolver(delay), RetryPolicy::default());
        SolveService::with_parts(Box::new(ladder), false)
    })
}

#[test]
fn oversubscribed_queue_sheds_with_429_and_draining_with_503() {
    let daemon = serve_with(
        ephemeral(
            QueueConfig {
                depth: 1,
                client_quota: 64,
            },
            1,
        ),
        slow_factory(Duration::from_millis(150)),
    )
    .expect("serve");
    let addr = daemon.local_addr().to_string();

    // Burst: 1 worker busy + 1 queued; the rest of the burst must shed.
    let handles: Vec<_> = (0..6)
        .map(|_| {
            let addr = addr.clone();
            std::thread::spawn(move || http_post(&addr, "/solve", SOLVE_BODY).expect("post"))
        })
        .collect();
    let mut ok = 0;
    let mut shed = 0;
    for h in handles {
        let (status, body) = h.join().expect("join");
        match status {
            200 => ok += 1,
            429 => {
                shed += 1;
                assert!(body.contains("\"status\":\"shed\""), "body: {body}");
            }
            other => panic!("unexpected status {other}: {body}"),
        }
    }
    assert!(ok >= 1, "at least the in-flight request succeeds");
    assert!(shed >= 1, "the burst overflows depth 1 and sheds");

    // Shed accounting is visible on /metrics.
    let (_, metrics) = http_get(&addr, "/metrics").expect("metrics");
    assert!(metrics.contains("mapsd_shed"), "metrics: {metrics}");

    daemon.stop();
}

#[test]
fn client_quota_bounds_one_clients_concurrency() {
    let daemon = serve_with(
        ephemeral(
            QueueConfig {
                depth: 64,
                client_quota: 1,
            },
            1,
        ),
        slow_factory(Duration::from_millis(150)),
    )
    .expect("serve");
    let addr = daemon.local_addr().to_string();

    let handles: Vec<_> = (0..4)
        .map(|_| {
            let addr = addr.clone();
            std::thread::spawn(move || http_post(&addr, "/solve", SOLVE_BODY).expect("post"))
        })
        .collect();
    let statuses: Vec<u16> = handles
        .into_iter()
        .map(|h| h.join().expect("join").0)
        .collect();
    assert!(statuses.contains(&200));
    assert!(
        statuses.contains(&429),
        "all requests share one client IP, so quota 1 sheds: {statuses:?}"
    );

    daemon.stop();
}

#[test]
fn expired_deadline_is_rejected_not_solved() {
    let daemon = serve(ephemeral(QueueConfig::default(), 1)).expect("serve");
    let addr = daemon.local_addr().to_string();

    let body = r#"{"nx":30,"ny":26,"dx":0.05,"eps":1.0,"omega":4.0,"deadline_ms":0}"#;
    let (status, resp) = http_post(&addr, "/solve", body).expect("post");
    assert_eq!(status, 408, "body: {resp}");
    assert!(resp.contains("deadline"), "body: {resp}");

    daemon.stop();
}

#[test]
fn sick_direct_rung_serves_degraded_results() {
    // The direct primary always faults, so the ladder exhausts its retries
    // and BiCGSTAB answers — the response says which rung answered.
    let factory: maps_mapsd::ServiceFactory = Arc::new(|| {
        let direct = FaultInjectingSolver::new(
            FdfdSolver::new(),
            FaultPlan::new().always(InjectedFault::Error),
        )
        .with_name("chaos-direct");
        let ladder = RobustSolver::new(direct, RetryPolicy::default()).with_fallback(Box::new(
            FdfdSolver::new().backend(Backend::Iterative(IterativeOptions::default())),
        ));
        SolveService::with_parts(Box::new(ladder), true)
    });
    let daemon = serve_with(ephemeral(QueueConfig::default(), 2), factory).expect("serve");
    let addr = daemon.local_addr().to_string();

    let (status, resp) = http_post(&addr, "/solve", SOLVE_BODY).expect("post");
    assert_eq!(status, 200, "degraded but served: {resp}");
    assert!(
        resp.contains("\"fidelity\":\"fallback\""),
        "response tags the degraded fidelity: {resp}"
    );
    assert!(
        resp.contains("\"served_by\":\"fdfd-bicgstab\""),
        "response names the fallback: {resp}"
    );

    daemon.stop();
}

#[test]
fn batch_and_label_routes_answer_per_spec() {
    let daemon = serve(ephemeral(QueueConfig::default(), 2)).expect("serve");
    let addr = daemon.local_addr().to_string();

    let batch = r#"{"nx":30,"ny":26,"dx":0.05,"eps":1.0,
        "requests":[{"omega":4.0},{"omega":4.2,"kind":"adjoint"}]}"#;
    let (status, resp) = http_post(&addr, "/batch", batch).expect("post");
    assert_eq!(status, 200, "body: {resp}");
    assert_eq!(resp.matches("\"ok\":true").count(), 2, "body: {resp}");

    let label = r#"{"nx":30,"ny":26,"dx":0.05,"eps":1.0,"omegas":[4.0,4.1,4.2]}"#;
    let (status, resp) = http_post(&addr, "/label", label).expect("post");
    assert_eq!(status, 200, "body: {resp}");
    assert_eq!(resp.matches("\"ok\":true").count(), 3, "body: {resp}");

    daemon.stop();
}

#[test]
fn readyz_reflects_lifecycle_and_shutdown_drains() {
    let daemon = serve(ephemeral(QueueConfig::default(), 1)).expect("serve");
    let addr = daemon.local_addr().to_string();

    let (status, body) = http_get(&addr, "/readyz").expect("readyz");
    assert_eq!(status, 200, "fresh daemon is ready: {body}");

    let (status, body) = http_post(&addr, "/shutdown", "").expect("shutdown");
    assert_eq!(status, 202);
    assert!(body.contains("draining"));

    // wait_for_shutdown must have been signaled.
    daemon.wait_for_shutdown();
    daemon.queue().drain();

    let (status, body) = http_get(&addr, "/readyz").expect("readyz while draining");
    assert_eq!(status, 503, "draining daemon is not ready: {body}");
    assert!(body.contains("draining"), "body: {body}");

    // New work is refused while draining.
    let (status, _) = http_post(&addr, "/solve", SOLVE_BODY).expect("post");
    assert_eq!(status, 503);

    daemon.stop();
}
