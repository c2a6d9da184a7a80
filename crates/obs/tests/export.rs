//! Integration tests of the flight recorder and its exporters: the Chrome
//! trace JSON must parse with the workspace JSON parser and respect the
//! timing/nesting invariants Perfetto relies on, the ring must drop oldest
//! first, profiles must agree with the span histograms, and series CSVs
//! must round-trip exactly.

use maps_obs::recorder;
use serde::Value;
use std::sync::Mutex;
use std::time::Duration;

/// The recorder and series registry are process-wide; tests that use them
/// serialize on this lock so captures don't interleave.
static RECORDER_LOCK: Mutex<()> = Mutex::new(());

fn nested_workload() {
    let _run = maps_obs::span("test.run").field("grid", "8x8");
    for k in 0..3 {
        let _iter = maps_obs::span("test.iteration").field("k", k);
        let _solve = maps_obs::span("test.solve");
        std::hint::black_box((0..500).map(|i| f64::from(i).sqrt()).sum::<f64>());
    }
}

#[test]
fn chrome_trace_parses_and_nests() {
    let _guard = RECORDER_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    recorder::enable();
    nested_workload();
    std::thread::spawn(nested_workload).join().unwrap();
    let spans = recorder::take();
    recorder::disable();

    let json = maps_obs::chrome_trace(&spans);
    let value: Value = serde_json::from_str(&json).expect("trace JSON parses");
    let events = value
        .field("traceEvents")
        .and_then(Value::as_arr)
        .expect("traceEvents array");
    assert_eq!(events.len(), spans.len());
    // 2 workloads x (1 run + 3 iterations + 3 solves)
    assert_eq!(events.len(), 14);

    // (tid, ts, end, depth-ish) triples for nesting checks below.
    let mut parsed = Vec::new();
    for ev in events {
        assert_eq!(ev.field("ph").unwrap().as_str().unwrap(), "X");
        let ts = ev.field("ts").unwrap().as_f64().unwrap();
        let dur = ev.field("dur").unwrap().as_f64().unwrap();
        let tid = ev.field("tid").unwrap().as_f64().unwrap();
        assert!(ts >= 0.0, "ts must be non-negative, got {ts}");
        assert!(dur >= 0.0, "dur must be non-negative, got {dur}");
        parsed.push((tid as u64, ts, ts + dur));
    }

    // Same-tid complete events must be disjoint or strictly nested —
    // Perfetto renders overlapping siblings as garbage.
    for (i, &(tid_a, s_a, e_a)) in parsed.iter().enumerate() {
        for &(tid_b, s_b, e_b) in &parsed[i + 1..] {
            if tid_a != tid_b {
                continue;
            }
            let disjoint = e_a <= s_b || e_b <= s_a;
            let nested = (s_a <= s_b && e_b <= e_a) || (s_b <= s_a && e_a <= e_b);
            assert!(
                disjoint || nested,
                "events overlap without nesting: [{s_a},{e_a}] vs [{s_b},{e_b}] on tid {tid_a}"
            );
        }
    }

    // Both the main thread and the spawned thread appear.
    let mut tids: Vec<u64> = parsed.iter().map(|p| p.0).collect();
    tids.sort_unstable();
    tids.dedup();
    assert_eq!(tids.len(), 2, "expected two distinct tids, got {tids:?}");

    // Span fields ride along as args, after the stitching coordinates.
    assert!(json.contains("\"grid\":\"8x8\""), "{json}");
    assert!(json.contains("\"span_id\":"), "{json}");
    assert!(json.contains("\"flow\":"), "{json}");
    assert_eq!(
        value
            .field("otherData")
            .and_then(|o| o.field("dropped_spans"))
            .unwrap()
            .as_f64()
            .unwrap(),
        0.0
    );
}

#[test]
fn children_nest_inside_parents_on_same_tid() {
    let _guard = RECORDER_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    recorder::enable();
    nested_workload();
    let spans = recorder::take();
    recorder::disable();

    // Completion order is children-first; reconstruct parentage from depth
    // and check interval containment in the exported timebase.
    for (i, span) in spans.iter().enumerate() {
        if span.depth == 0 {
            continue;
        }
        let parent = spans[i..]
            .iter()
            .find(|p| p.thread_id == span.thread_id && p.depth == span.depth - 1)
            .expect("parent completes after child");
        assert!(
            parent.begin <= span.begin && span.end() <= parent.end(),
            "child [{:?},{:?}] escapes parent [{:?},{:?}]",
            span.begin,
            span.end(),
            parent.begin,
            parent.end()
        );
    }
}

/// The ring drops oldest first; a capacity of 0 is floored at 1, so it
/// keeps the newest span instead of growing without bound.
#[test]
fn ring_drops_oldest_first() {
    let _guard = RECORDER_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    for (capacity, kept) in [
        (4, vec!["ring.6", "ring.7", "ring.8", "ring.9"]),
        (0, vec!["ring.9"]),
    ] {
        recorder::set_capacity(capacity);
        recorder::enable();
        for k in 0..10 {
            let _s = maps_obs::span(format!("ring.{k}"));
        }
        let dropped = recorder::dropped();
        let spans = recorder::take();
        recorder::disable();
        recorder::set_capacity(recorder::DEFAULT_CAPACITY);

        let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, kept, "capacity {capacity}");
        assert_eq!(dropped, 10 - kept.len() as u64, "capacity {capacity}");
    }
}

/// `/trace?last=N` serves exactly the newest `N` spans, oldest first, and
/// leaves the ring as it was.
#[test]
fn trace_last_n_serves_the_newest_spans_in_order() {
    let _guard = RECORDER_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    recorder::enable();
    for k in 0..10 {
        let _s = maps_obs::span(format!("last.{k}"));
    }
    let get = |query: &str| {
        let req = maps_obs::http::Request {
            method: "GET".into(),
            path: "/trace".into(),
            query: query.into(),
            body: Vec::new(),
        };
        let (status, _, body) = maps_obs::http::telemetry_response(&req).expect("routed");
        assert_eq!(status, 200);
        let trace: Value = serde_json::from_str(&body).expect("trace JSON parses");
        let events = trace.field("traceEvents").and_then(Value::as_arr);
        let events = events.expect("traceEvents array");
        let field = |e: &Value, key| e.field(key).and_then(Value::as_str).map(String::from);
        events
            .iter()
            .filter(|e| field(e, "ph").is_ok_and(|ph| ph == "X"))
            .map(|e| field(e, "name").expect("span name"))
            .collect::<Vec<_>>()
    };
    assert_eq!(get("last=3"), ["last.7", "last.8", "last.9"]);
    assert_eq!(get("last=0"), Vec::<String>::new());
    assert_eq!(get("last=50").len(), 10);
    assert_eq!(get("").len(), 10);
    assert_eq!(recorder::take().len(), 10, "/trace must not drain the ring");
    recorder::disable();
}

#[test]
fn profile_totals_agree_with_span_histograms() {
    let _guard = RECORDER_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    recorder::enable();
    {
        let _a = maps_obs::span("agree.outer");
        let _b = maps_obs::span("agree.inner");
        std::thread::sleep(Duration::from_millis(2));
    }
    let spans = recorder::take();
    recorder::disable();

    let entries = maps_obs::profile(&spans);
    for entry in entries.iter().filter(|e| e.name.starts_with("agree.")) {
        let snap = maps_obs::global()
            .histogram_snapshot(&format!("span.{}.seconds", entry.name))
            .expect("span histogram exists");
        // The histogram accumulates across the whole test process; the
        // capture window saw `entry.count` of those calls and the profile
        // total must stay within the histogram's observed envelope.
        assert!(snap.count >= entry.count);
        let total = entry.total.as_secs_f64();
        assert!(
            total <= snap.max * snap.count as f64 + 1e-9,
            "profile total {total} exceeds histogram envelope"
        );
        assert!(
            total >= snap.min * entry.count as f64 - 1e-9,
            "profile total {total} below histogram envelope"
        );
        // Self time never exceeds inclusive time.
        assert!(entry.self_time <= entry.total);
    }
    // The inner span's time is subtracted from the outer's self time.
    let outer = entries.iter().find(|e| e.name == "agree.outer").unwrap();
    let inner = entries.iter().find(|e| e.name == "agree.inner").unwrap();
    assert!(outer.self_time <= outer.total - inner.total + Duration::from_micros(1));
}

#[test]
fn series_csv_roundtrips_through_files() {
    let _guard = RECORDER_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    maps_obs::series_reset();
    let s = maps_obs::series("roundtrip.objective");
    let values = [0.1, 0.30000000000000004, -1.5e-17, 2.2250738585072014e-308];
    for (step, v) in values.iter().enumerate() {
        s.push(step as u64, *v);
    }
    let dir = std::env::temp_dir().join(format!("maps-series-{}", std::process::id()));
    let written = maps_obs::write_series_csv(&dir).expect("series export");
    assert_eq!(written.len(), 1);
    let body = std::fs::read_to_string(&written[0]).unwrap();
    let mut lines = body.lines();
    assert_eq!(lines.next(), Some("step,value"));
    for (k, line) in lines.enumerate() {
        let (step, value) = line.split_once(',').unwrap();
        assert_eq!(step.parse::<u64>().unwrap(), k as u64);
        let parsed: f64 = value.parse().unwrap();
        assert_eq!(parsed.to_bits(), values[k].to_bits(), "row {k}: {line}");
    }
    std::fs::remove_dir_all(&dir).ok();
    maps_obs::series_reset();
}

#[test]
fn collapsed_stacks_cover_all_self_time() {
    let _guard = RECORDER_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    recorder::enable();
    nested_workload();
    let spans = recorder::take();
    recorder::disable();

    let folded = maps_obs::collapsed_stacks(&spans);
    // Every line is `path self_us` with a semicolon-joined path rooted at
    // the outermost span.
    let mut total_us = 0u128;
    for line in folded.lines() {
        let (path, weight) = line.rsplit_once(' ').expect("path and weight");
        assert!(path.starts_with("test.run"), "unrooted stack: {line}");
        total_us += weight.parse::<u128>().expect("numeric weight");
    }
    // Self times partition inclusive time: their sum can't exceed the
    // total duration of root spans (truncation to whole µs loses <1µs/span).
    let root_total: u128 = spans
        .iter()
        .filter(|s| s.depth == 0)
        .map(|s| s.duration.as_micros())
        .sum();
    assert!(
        total_us <= root_total + spans.len() as u128,
        "folded self time {total_us}µs exceeds root total {root_total}µs"
    );
}
