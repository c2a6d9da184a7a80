//! Load/robustness harness for the `mapsd` daemon (PR 7).
//!
//! Not a criterion bench: emits machine-readable JSON (`BENCH_pr7.json`
//! by default) so CI can diff runs.
//!
//! Usage (via `scripts/bench.sh` or directly):
//!
//! ```text
//! cargo bench --bench mapsd_load -- [--smoke] [--out-pr7 PATH]
//! ```
//!
//! Two experiments against an in-process daemon on an ephemeral port:
//!
//! - **Load**: request latency (p50/p99) and throughput at 1, 4, and 16
//!   concurrent clients, separately for a **cold** cache (every request a
//!   distinct (ε, ω) fingerprint — each pays a factorization) and a
//!   **warm** cache (all requests share one fingerprint — the single-
//!   flight gate and LRU collapse the work). The headline invariant:
//!   warm p50 must beat cold p50 at every concurrency level.
//! - **Chaos**: a fault-injected direct primary, an oversubscribed queue,
//!   and a mix of tight and generous deadlines. The invariants: the
//!   daemon never panics (clean stop), the queue depth never exceeds its
//!   bound, and *every* request is answered — result, degraded result,
//!   shed, or deadline rejection.

use maps_core::fault::{FaultInjectingSolver, FaultPlan, InjectedFault};
use maps_core::{RetryPolicy, RobustSolver};
use maps_fdfd::{Backend, FdfdSolver};
use maps_linalg::IterativeOptions;
use maps_mapsd::{
    http_post, serve, serve_with, DaemonConfig, QueueConfig, ServiceFactory, SolveService,
};
use std::io::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

struct Mode {
    smoke: bool,
    out: String,
}

fn parse_args() -> Mode {
    let mut mode = Mode {
        smoke: false,
        out: "BENCH_pr7.json".to_string(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => mode.smoke = true,
            "--out-pr7" | "--out" => {
                mode.out = args.next().expect("--out-pr7 needs a path");
            }
            // cargo bench passes `--bench`; ignore it and anything unknown.
            _ => {}
        }
    }
    mode
}

fn percentile_ms(samples: &mut [f64], p: f64) -> f64 {
    assert!(!samples.is_empty());
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let idx = ((samples.len() - 1) as f64 * p).round() as usize;
    samples[idx]
}

struct LoadCell {
    clients: usize,
    p50_ms: f64,
    p99_ms: f64,
    throughput_rps: f64,
}

/// Drives `clients` threads, each posting `per_client` solves; `warm`
/// shares one (ε, ω) fingerprint across all requests, cold gives every
/// request its own.
fn run_load(
    addr: &str,
    grid: (usize, usize),
    clients: usize,
    per_client: usize,
    warm: bool,
) -> LoadCell {
    let (nx, ny) = grid;
    let wall = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let addr = addr.to_string();
            std::thread::spawn(move || {
                let mut latencies = Vec::with_capacity(per_client);
                for i in 0..per_client {
                    // Distinct permittivity per request on the cold path
                    // → distinct factorization fingerprint.
                    let eps = if warm {
                        2.25
                    } else {
                        2.25 + 0.001 * (c * per_client + i + 1) as f64
                    };
                    let body = format!(
                        r#"{{"nx":{nx},"ny":{ny},"dx":0.05,"eps":{eps},"omega":4.05,"deadline_ms":60000}}"#
                    );
                    let started = Instant::now();
                    let (status, resp) =
                        http_post(&addr, "/solve", &body).expect("daemon reachable");
                    assert_eq!(status, 200, "load request failed: {resp}");
                    latencies.push(started.elapsed().as_secs_f64() * 1e3);
                }
                latencies
            })
        })
        .collect();
    let mut latencies: Vec<f64> = handles
        .into_iter()
        .flat_map(|h| h.join().expect("client thread"))
        .collect();
    let elapsed = wall.elapsed().as_secs_f64();
    let total = (clients * per_client) as f64;
    LoadCell {
        clients,
        p50_ms: percentile_ms(&mut latencies, 0.50),
        p99_ms: percentile_ms(&mut latencies, 0.99),
        throughput_rps: total / elapsed,
    }
}

struct ChaosOutcome {
    requests: usize,
    ok_direct: usize,
    ok_degraded: usize,
    shed: usize,
    deadline_rejected: usize,
    max_depth_seen: usize,
    queue_bound: usize,
}

/// Fault-injected solver + tiny queue + mixed deadlines. Every request
/// must be answered with a classifiable status; the queue must stay
/// within its bound; the daemon must stop cleanly.
fn run_chaos(grid: (usize, usize), clients: usize, per_client: usize) -> ChaosOutcome {
    let (nx, ny) = grid;
    let queue_bound = 4;
    let factory: ServiceFactory = Arc::new(|| {
        // Every third direct solve faults and its retry answers, so those
        // responses are visibly tagged `relaxed` instead of being a silent
        // second full-fidelity solve. BiCGSTAB stands behind the retries,
        // as in production.
        let direct = FaultInjectingSolver::new(
            FdfdSolver::new(),
            FaultPlan::new().fail_every(3, InjectedFault::Error),
        )
        .with_name("chaos-direct");
        let ladder = RobustSolver::new(direct, RetryPolicy::default()).with_fallback(Box::new(
            FdfdSolver::new().backend(Backend::Iterative(IterativeOptions::default())),
        ));
        SolveService::with_parts(Box::new(ladder), true)
    });
    let daemon = serve_with(
        DaemonConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            max_body: 4 << 20,
            queue: QueueConfig {
                depth: queue_bound,
                client_quota: 64,
            },
            tail: maps_mapsd::TailConfig::default(),
        },
        factory,
    )
    .expect("chaos daemon");
    let addr = daemon.local_addr().to_string();

    let max_depth = Arc::new(AtomicUsize::new(0));
    let sampler_stop = Arc::new(AtomicUsize::new(0));
    let sampler = {
        let queue = Arc::clone(daemon.queue());
        let max_depth = Arc::clone(&max_depth);
        let stop = Arc::clone(&sampler_stop);
        std::thread::spawn(move || {
            while stop.load(Ordering::Relaxed) == 0 {
                max_depth.fetch_max(queue.depth(), Ordering::Relaxed);
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        })
    };

    let counters = [
        Arc::new(AtomicUsize::new(0)), // ok_direct
        Arc::new(AtomicUsize::new(0)), // ok_degraded
        Arc::new(AtomicUsize::new(0)), // shed
        Arc::new(AtomicUsize::new(0)), // deadline_rejected
    ];
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let addr = addr.clone();
            let counters: Vec<_> = counters.iter().map(Arc::clone).collect();
            std::thread::spawn(move || {
                for i in 0..per_client {
                    // Every fourth request carries an unmeetable deadline.
                    let deadline_ms = if i % 4 == 3 { 1 } else { 60000 };
                    let eps = 2.25 + 0.01 * (c + 1) as f64;
                    let body = format!(
                        r#"{{"nx":{nx},"ny":{ny},"dx":0.05,"eps":{eps},"omega":4.05,"deadline_ms":{deadline_ms}}}"#
                    );
                    let (status, resp) =
                        http_post(&addr, "/solve", &body).expect("daemon reachable");
                    match status {
                        200 => {
                            if resp.contains("\"fidelity\":\"direct\"") {
                                counters[0].fetch_add(1, Ordering::Relaxed);
                            } else {
                                counters[1].fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        429 | 503 => {
                            counters[2].fetch_add(1, Ordering::Relaxed);
                        }
                        408 => {
                            counters[3].fetch_add(1, Ordering::Relaxed);
                        }
                        other => panic!("unclassified chaos response {other}: {resp}"),
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("chaos client never panics");
    }
    sampler_stop.store(1, Ordering::Relaxed);
    sampler.join().expect("sampler");
    // Clean stop with zero panics is itself an assertion: a worker that
    // panicked would leave stop() joining a poisoned thread.
    daemon.stop();

    let outcome = ChaosOutcome {
        requests: clients * per_client,
        ok_direct: counters[0].load(Ordering::Relaxed),
        ok_degraded: counters[1].load(Ordering::Relaxed),
        shed: counters[2].load(Ordering::Relaxed),
        deadline_rejected: counters[3].load(Ordering::Relaxed),
        max_depth_seen: max_depth.load(Ordering::Relaxed),
        queue_bound,
    };
    assert_eq!(
        outcome.ok_direct + outcome.ok_degraded + outcome.shed + outcome.deadline_rejected,
        outcome.requests,
        "every chaos request is answered and classified"
    );
    assert!(
        outcome.max_depth_seen <= outcome.queue_bound,
        "queue depth {} exceeded its bound {}",
        outcome.max_depth_seen,
        outcome.queue_bound
    );
    outcome
}

fn main() {
    let mode = parse_args();
    let (grid, per_client, chaos_per_client) = if mode.smoke {
        ((30, 26), 4, 4)
    } else {
        ((80, 80), 12, 8)
    };

    // One daemon serves both cache regimes; the cold pass runs first so
    // the warm pass cannot pre-seed it.
    let daemon = serve(DaemonConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 4,
        max_body: 4 << 20,
        queue: QueueConfig {
            depth: 256,
            client_quota: 64,
        },
        tail: maps_mapsd::TailConfig::default(),
    })
    .expect("load daemon");
    let addr = daemon.local_addr().to_string();

    let concurrencies = [1usize, 4, 16];
    let mut cold = Vec::new();
    let mut warm = Vec::new();
    for &c in &concurrencies {
        cold.push(run_load(&addr, grid, c, per_client, false));
    }
    // Seed the warm fingerprint once, then measure.
    let _ = run_load(&addr, grid, 1, 1, true);
    for &c in &concurrencies {
        warm.push(run_load(&addr, grid, c, per_client, true));
    }
    daemon.stop();

    for (c, w) in cold.iter().zip(&warm) {
        println!(
            "mapsd load: {:>2} clients  cold p50 {:>8.2} ms p99 {:>8.2} ms {:>7.1} rps   warm p50 {:>7.2} ms p99 {:>7.2} ms {:>7.1} rps",
            c.clients, c.p50_ms, c.p99_ms, c.throughput_rps, w.p50_ms, w.p99_ms, w.throughput_rps
        );
        assert!(
            w.p50_ms < c.p50_ms,
            "warm cache must beat cold at {} clients ({:.2} vs {:.2} ms)",
            c.clients,
            w.p50_ms,
            c.p50_ms
        );
    }

    let chaos = run_chaos(grid, 8, chaos_per_client);
    println!(
        "mapsd chaos: {} requests → {} direct, {} degraded, {} shed, {} deadline-rejected; max queue depth {}/{}",
        chaos.requests,
        chaos.ok_direct,
        chaos.ok_degraded,
        chaos.shed,
        chaos.deadline_rejected,
        chaos.max_depth_seen,
        chaos.queue_bound
    );

    let render_cells = |cells: &[LoadCell]| {
        cells
            .iter()
            .map(|c| {
                format!(
                    "    {{ \"clients\": {}, \"p50_ms\": {:.3}, \"p99_ms\": {:.3}, \"throughput_rps\": {:.2} }}",
                    c.clients, c.p50_ms, c.p99_ms, c.throughput_rps
                )
            })
            .collect::<Vec<_>>()
            .join(",\n")
    };
    let json = format!(
        "{{\n  \"bench\": \"mapsd_load\",\n  \"mode\": \"{}\",\n  \"grid\": {{ \"nx\": {}, \"ny\": {} }},\n  \"per_client\": {},\n  \"cold\": [\n{}\n  ],\n  \"warm\": [\n{}\n  ],\n  \"chaos\": {{\n    \"requests\": {},\n    \"ok_direct\": {},\n    \"ok_degraded\": {},\n    \"shed\": {},\n    \"deadline_rejected\": {},\n    \"max_depth_seen\": {},\n    \"queue_bound\": {},\n    \"panics\": 0\n  }}\n}}\n",
        if mode.smoke { "smoke" } else { "full" },
        grid.0,
        grid.1,
        per_client,
        render_cells(&cold),
        render_cells(&warm),
        chaos.requests,
        chaos.ok_direct,
        chaos.ok_degraded,
        chaos.shed,
        chaos.deadline_rejected,
        chaos.max_depth_seen,
        chaos.queue_bound,
    );
    let mut f = std::fs::File::create(&mode.out).expect("create output");
    f.write_all(json.as_bytes()).expect("write output");
    println!("mapsd load: wrote {}", mode.out);
}
