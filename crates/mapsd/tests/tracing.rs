//! Per-request distributed tracing end to end: trace ids round-trip
//! through `/solve` into the exported Chrome trace, tail sampling keeps
//! slow trees and discards fast unsampled ones, and `GET /requests` never
//! tears under a concurrent hammer.
//!
//! These tests own the global flight recorder and the wide-event ring, so
//! they serialize on a lock.

use maps_core::{
    ComplexField2d, FieldSolver, RealField2d, RetryPolicy, RobustSolver, SolveFieldError,
};
use maps_mapsd::{
    http_get, http_post, serve_with, DaemonConfig, QueueConfig, ServiceFactory, SolveService,
    TailConfig,
};
use maps_obs::recorder;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

static OBS_LOCK: Mutex<()> = Mutex::new(());

/// A solver whose latency is the request's ω in milliseconds — the tool
/// for making one request slow and another fast through the same daemon.
struct OmegaDelaySolver;

impl FieldSolver for OmegaDelaySolver {
    fn solve_ez(
        &self,
        _eps_r: &RealField2d,
        source: &ComplexField2d,
        omega: f64,
    ) -> Result<ComplexField2d, SolveFieldError> {
        std::thread::sleep(Duration::from_millis(omega as u64));
        Ok(source.clone())
    }

    fn name(&self) -> &str {
        "omega-delay"
    }
}

fn delay_factory() -> ServiceFactory {
    Arc::new(|| {
        let ladder = RobustSolver::new(OmegaDelaySolver, RetryPolicy::default());
        SolveService::with_parts(Box::new(ladder), false)
    })
}

fn config(tail: TailConfig) -> DaemonConfig {
    DaemonConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        max_body: 4 << 20,
        queue: QueueConfig::default(),
        tail,
    }
}

fn body(omega: f64, trace_id: &str) -> String {
    format!(
        r#"{{"nx":30,"ny":26,"dx":0.05,"eps":1.0,"omega":{omega},"trace_id":"{trace_id}","deadline_ms":60000}}"#
    )
}

#[test]
fn trace_id_round_trips_into_the_exported_chrome_trace() {
    let _guard = OBS_LOCK.lock().unwrap();
    recorder::enable();

    // slow_ms 0: every request is "slow", so its span tree is retained.
    let daemon = serve_with(
        config(TailConfig {
            slow_ms: 0.0,
            per_endpoint: Vec::new(),
            sample: 0,
        }),
        delay_factory(),
    )
    .expect("serve");
    let addr = daemon.local_addr().to_string();

    let (status, resp) = http_post(&addr, "/solve", &body(1.0, "cli-trace-77")).expect("post");
    assert_eq!(status, 200, "body: {resp}");
    // The response echoes the caller's trace id and a timing breakdown.
    assert!(resp.contains("\"trace_id\":\"cli-trace-77\""), "{resp}");
    assert!(resp.contains("\"timings\""), "{resp}");
    assert!(resp.contains("\"total_us\":"), "{resp}");

    daemon.stop();

    // The retained tree is in the recorder ring: the root span carries the
    // trace id, and the worker-side spans share its flow.
    let spans = recorder::snapshot();
    let root = spans
        .iter()
        .find(|s| s.name == "mapsd.request" && s.field("trace") == Some("cli-trace-77"))
        .expect("root span retained with the trace id");
    assert_ne!(root.flow, 0);
    assert!(
        spans
            .iter()
            .any(|s| s.flow == root.flow && s.name != "mapsd.request"),
        "worker spans joined the request flow: {:?}",
        spans.iter().map(|s| &s.name).collect::<Vec<_>>()
    );

    // And the Chrome trace export carries the id, so chrome://tracing can
    // find the request by searching for it.
    let trace = maps_obs::chrome_trace(&spans);
    assert!(trace.contains("cli-trace-77"), "chrome trace has the id");

    recorder::disable();
}

#[test]
fn tail_sampling_keeps_the_slow_tree_and_drops_the_fast_one() {
    let _guard = OBS_LOCK.lock().unwrap();
    recorder::enable();

    // Threshold 100 ms; ω is the solver delay in ms, so ω=1 is far under
    // and ω=250 far over.
    let daemon = serve_with(
        config(TailConfig {
            slow_ms: 100.0,
            per_endpoint: Vec::new(),
            sample: 0,
        }),
        delay_factory(),
    )
    .expect("serve");
    let addr = daemon.local_addr().to_string();

    let (status, _) = http_post(&addr, "/solve", &body(1.0, "fast-req")).expect("post");
    assert_eq!(status, 200);
    let (status, _) = http_post(&addr, "/solve", &body(250.0, "slow-req")).expect("post");
    assert_eq!(status, 200);

    daemon.stop();

    let spans = recorder::snapshot();
    assert!(
        spans.iter().any(|s| s.field("trace") == Some("slow-req")),
        "slow request's tree is retained"
    );
    assert!(
        !spans.iter().any(|s| s.field("trace") == Some("fast-req")),
        "fast unsampled request's tree is discarded"
    );
    // No flow leaks: every begin_flow met its close_flow.
    assert_eq!(recorder::pending_flows(), 0, "pending flow set drained");
    assert_eq!(recorder::pending_spans(), 0);

    recorder::disable();
}

#[test]
fn requests_endpoint_never_tears_under_a_concurrent_hammer() {
    let _guard = OBS_LOCK.lock().unwrap();
    maps_obs::reqlog::reset();

    let daemon = serve_with(config(TailConfig::default()), delay_factory()).expect("serve");
    let addr = daemon.local_addr().to_string();

    let stop = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..3)
        .map(|_| {
            let addr = addr.clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut polls = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let (status, body) = http_get(&addr, "/requests?last=50").expect("get");
                    assert_eq!(status, 200);
                    // Every observed body is complete, parseable JSON —
                    // half-written events would fail here.
                    let parsed: serde::Value =
                        serde_json::from_str(&body).expect("requests body parses");
                    let events = parsed.as_arr().expect("array body");
                    for ev in events {
                        assert!(ev.field("endpoint").is_ok(), "event has an endpoint");
                    }
                    polls += 1;
                }
                polls
            })
        })
        .collect();

    let writers: Vec<_> = (0..4)
        .map(|c| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                for i in 0..10 {
                    let _ = http_post(&addr, "/solve", &body(1.0, &format!("hammer-{c}-{i}")));
                }
            })
        })
        .collect();
    for w in writers {
        w.join().expect("writer");
    }
    stop.store(true, Ordering::Relaxed);
    for r in readers {
        assert!(r.join().expect("reader") > 0, "readers actually polled");
    }

    // Reconciliation: 40 solves → exactly 40 wide events, all live.
    let (status, resp) = http_get(&addr, "/requests?last=100").expect("get");
    assert_eq!(status, 200);
    let parsed: serde::Value = serde_json::from_str(&resp).expect("parses");
    assert_eq!(parsed.as_arr().expect("array").len(), 40, "{resp}");

    daemon.stop();
    maps_obs::reqlog::reset();
}
