//! `serve`: the shipped `mapsd` binary in its own process at its defaults,
//! driven open loop by one generator with two sender threads (so at most two
//! connections).
//!
//! A session starts a fresh daemon and warms a fresh pool of [`POOL`] 80×80
//! bending-device designs with one cold forward request each (its set-up:
//! process start, readiness, four factorizations). It then offers
//! `POST /solve` requests, alternating forward and adjoint over seeded picks
//! from the pool, at a fixed [`RATE`] in [`BLOCKS`] blocks of [`BLOCK_S`]
//! seconds, and finally asks for every pool design's full field once, untimed,
//! for the residual check. Ops leave the field out (`return_field: false`):
//! rendering and moving the 300 KB field made the op median follow host
//! effects that no calibration kernel tracked. Arrivals are evenly paced:
//! Poisson bursts put queueing into the tail, which then spread by a factor of
//! three between runs on a 2-core host. Latency is timed from each request's
//! due time; how late the generator sent is reported as `gen.late_p99_ms`.
//! Every request is a factor-cache hit, so no op factorizes.

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use maps_core::{ComplexField2d, FieldSolver, SolveKind};
use maps_data::{DeviceKind, DeviceResolution};
use maps_fdfd::FdfdSolver;
use maps_linalg::Complex64;
use maps_mapsd::protocol::{
    parse_envelope, render_job_result, JobKind, JobResult, SolveResult, Timings,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::ledger::Ledger;
use crate::{ms, stats, Args, Outcome};

/// Designs per pool: the default factor-cache capacity.
const POOL: usize = 4;
/// Offered load, requests per second (about half the two-connection
/// capacity of the default daemon on a 2-core host).
const RATE: f64 = 20.0;
/// A session offers its load in blocks of this many seconds; between blocks
/// the generator lets in-flight requests finish and times the calibration
/// kernel, so host phases are tracked at one-second resolution without the
/// kernel ever competing with the daemon.
const BLOCK_S: f64 = 1.0;
const BLOCKS: usize = 5;
/// Seconds of a run one session stands for on the reference host.
const SESSION_SHARE_S: f64 = 5.0;
/// Every this many responses is kept for the traced run's render replay.
const RENDER_SAMPLE: usize = 25;
/// Relative agreement of a served `field_norm` with the in-process reference.
const NORM_TOL: f64 = 1e-9;

/// One request as the generator saw it.
#[derive(Default)]
struct Record {
    design: usize,
    kind: usize,
    latency_ms: f64,
    late_ms: f64,
    status: u16,
    bytes_out: usize,
    ok: bool,
    field_norm: f64,
    queue_us: f64,
    factorize_us: f64,
    solve_us: f64,
    total_us: f64,
    coalesce: String,
    retries: f64,
    error: String,
    /// The whole body, kept for sampled requests only.
    body: Option<String>,
}

/// The number after `"key":` in a flat JSON body (first occurrence).
fn number_after(body: &str, key: &str) -> Option<f64> {
    let at = body.find(&format!("\"{key}\""))? + key.len() + 2;
    let rest = body[at..].trim_start().strip_prefix(':')?.trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The string after `"key":` in a flat JSON body (first occurrence).
fn string_after<'a>(body: &'a str, key: &str) -> Option<&'a str> {
    let at = body.find(&format!("\"{key}\""))? + key.len() + 2;
    let rest = body[at..]
        .trim_start()
        .strip_prefix(':')?
        .trim_start()
        .strip_prefix('"')?;
    rest.split('"').next()
}

fn record_from(design: usize, kind: usize, status: u16, body: &str, keep: bool) -> Record {
    Record {
        design,
        kind,
        status,
        bytes_out: body.len(),
        ok: status == 200 && string_after(body, "status") == Some("ok"),
        field_norm: number_after(body, "field_norm").unwrap_or(f64::NAN),
        queue_us: number_after(body, "queue_us").unwrap_or(0.0),
        factorize_us: number_after(body, "factorize_us").unwrap_or(0.0),
        solve_us: number_after(body, "solve_us").unwrap_or(0.0),
        total_us: number_after(body, "total_us").unwrap_or(0.0),
        coalesce: string_after(body, "coalesce").unwrap_or("").to_string(),
        retries: number_after(body, "retries").unwrap_or(0.0),
        error: if status == 200 {
            String::new()
        } else {
            body.chars().take(200).collect()
        },
        body: keep.then(|| body.to_string()),
        ..Record::default()
    }
}

/// The request bodies of one pool: `[design][0 = forward, 1 = adjoint]`.
fn pool_bodies(rng: &mut StdRng) -> Vec<[String; 2]> {
    let device = DeviceKind::Bending.build(DeviceResolution::high());
    let problem = &device.problem;
    let grid = problem.grid();
    let source = problem.source().expect("bending device has an input mode");
    let mut points = String::new();
    for iy in 0..grid.ny {
        for ix in 0..grid.nx {
            let v = source.get(ix, iy);
            if v.re != 0.0 || v.im != 0.0 {
                if !points.is_empty() {
                    points.push(',');
                }
                points.push_str(&format!("[{ix},{iy},{},{}]", v.re, v.im));
            }
        }
    }
    let (dnx, dny) = problem.design_size;
    (0..POOL)
        .map(|_| {
            let eps = problem.eps_for(&crate::label::random_density(rng, dnx, dny));
            let eps_json: Vec<String> = eps.as_slice().iter().map(|e| format!("{e}")).collect();
            let body = |kind: &str| {
                format!(
                    "{{\"nx\":{},\"ny\":{},\"dx\":{},\"eps\":[{}],\"omega\":{},\"kind\":\"{kind}\",\"source\":[{points}],\"return_field\":false}}",
                    grid.nx,
                    grid.ny,
                    grid.dl,
                    eps_json.join(","),
                    problem.omega()
                )
            };
            [body("forward"), body("adjoint")]
        })
        .collect()
}

/// ‖Ax−b‖/‖b‖ of a served field for the request `body` (forward: the
/// operator's `apply`; adjoint: the transposed band product).
fn residual(body: &str, field: &ComplexField2d) -> f64 {
    let env = parse_envelope(JobKind::Solve, body).expect("the harness's own body parses");
    let spec = &env.specs[0];
    let solver = FdfdSolver::new();
    let op = solver.operator(&env.eps, spec.omega);
    let source = spec.source_field(env.eps.grid());
    let (ax, b) = match spec.kind {
        SolveKind::Forward => (
            op.apply(field.as_slice()),
            FdfdSolver::rhs(&source, spec.omega),
        ),
        SolveKind::Adjoint => (
            op.to_banded().matvec_transposed(field.as_slice()),
            source.as_slice().to_vec(),
        ),
    };
    let num: f64 = ax.iter().zip(&b).map(|(r, bb)| (*r - *bb).norm_sqr()).sum();
    let den: f64 = b.iter().map(|bb| bb.norm_sqr()).sum();
    (num / den).sqrt()
}

/// The in-process reference norms of a pool, each residual-checked.
fn references(bodies: &[[String; 2]], out: &mut Outcome) -> Vec<[f64; 2]> {
    let solver = FdfdSolver::new();
    bodies
        .iter()
        .enumerate()
        .map(|(d, pair)| {
            let mut norms = [f64::NAN; 2];
            for (k, body) in pair.iter().enumerate() {
                let env =
                    parse_envelope(JobKind::Solve, body).expect("the harness's own body parses");
                let spec = &env.specs[0];
                let source = spec.source_field(env.eps.grid());
                let field = match spec.kind {
                    SolveKind::Forward => solver.solve_ez(&env.eps, &source, spec.omega),
                    SolveKind::Adjoint => solver.solve_adjoint_ez(&env.eps, &source, spec.omega),
                };
                match field {
                    Ok(f) => {
                        let r = residual(body, &f);
                        if !(r < crate::invdes::RESIDUAL_TOL) {
                            out.fail(format!("reference design {d} kind {k}: residual {r:.3e}"));
                        }
                        norms[k] = f.norm();
                    }
                    Err(e) => out.fail(format!("reference design {d} kind {k}: {e}")),
                }
            }
            norms
        })
        .collect()
}

/// The served field of a response body.
fn served_field(body: &str, grid: maps_core::Grid2d) -> Option<ComplexField2d> {
    let root: serde::Value = serde_json::from_str(body).ok()?;
    let results = root.field("results").ok()?.as_arr().ok()?;
    let field = results.first()?.field("field").ok()?.as_arr().ok()?;
    let data: Vec<Complex64> = field
        .chunks(2)
        .map(|c| {
            Complex64::new(
                c[0].as_f64().unwrap_or(f64::NAN),
                c[1].as_f64().unwrap_or(f64::NAN),
            )
        })
        .collect();
    (data.len() == grid.len()).then(|| ComplexField2d::from_vec(grid, data))
}

struct Daemon {
    child: Child,
    addr: String,
    _stdout: BufReader<std::process::ChildStdout>,
}

fn start_daemon(args: &Args, trace: Option<String>) -> Result<Daemon, String> {
    let path = args.mapsd.as_ref().ok_or("serve needs --mapsd <path>")?;
    let mut cmd = Command::new(path);
    cmd.env("MAPS_D_ADDR", "127.0.0.1:0")
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null());
    if let Some(t) = trace {
        cmd.env("MAPS_TRACE", t);
    }
    let mut child = cmd
        .spawn()
        .map_err(|e| format!("{}: {e}", path.display()))?;
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut line = String::new();
    let addr = match stdout.read_line(&mut line) {
        Ok(n) if n > 0 => line
            .trim()
            .strip_prefix("mapsd listening on ")
            .map(str::to_string),
        _ => None,
    };
    match addr {
        Some(addr) => Ok(Daemon {
            child,
            addr,
            _stdout: stdout,
        }),
        None => {
            let _ = child.kill();
            let _ = child.wait();
            Err(format!("mapsd did not report its address (got {line:?})"))
        }
    }
}

impl Daemon {
    /// Drains the daemon through `POST /shutdown`, killing it if it does not
    /// exit in time, and returns its peak RSS (MB) read just before.
    fn stop(mut self) -> f64 {
        let rss = crate::proc_mb(&self.child.id().to_string(), "VmHWM");
        let _ = maps_mapsd::http_post(&self.addr, "/shutdown", "");
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return rss;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
        rss
    }

    /// A counter from the daemon's `/metrics` exposition.
    fn counter(&self, name: &str) -> f64 {
        maps_mapsd::http_get(&self.addr, "/metrics")
            .ok()
            .and_then(|(_, text)| {
                text.lines().find_map(|l| {
                    l.strip_prefix(&format!("{name} "))
                        .and_then(|v| v.trim().parse().ok())
                })
            })
            .unwrap_or(0.0)
    }
}

/// Offers one block's schedule from two sender threads; `first` is the
/// block's index in the session (alternation and field sampling).
fn open_loop(
    addr: &str,
    bodies: &[[String; 2]],
    schedule: &[(f64, usize)],
    first: usize,
) -> (Vec<Record>, f64) {
    let next = AtomicUsize::new(0);
    let records: Mutex<Vec<(usize, Record)>> = Mutex::new(Vec::with_capacity(schedule.len()));
    let start = Instant::now();
    let last_done = Mutex::new(start);
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| loop {
                let k = next.fetch_add(1, Ordering::SeqCst);
                let Some(&(at, design)) = schedule.get(k) else {
                    break;
                };
                let due = start + Duration::from_secs_f64(at);
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let sent = Instant::now();
                let kind = (first + k) % 2;
                let reply = maps_mapsd::http_post(addr, "/solve", &bodies[design][kind]);
                let done = Instant::now();
                let mut rec = match reply {
                    Ok((status, body)) => record_from(
                        design,
                        kind,
                        status,
                        &body,
                        (first + k).is_multiple_of(RENDER_SAMPLE),
                    ),
                    Err(e) => Record {
                        design,
                        kind,
                        error: e.to_string(),
                        ..Record::default()
                    },
                };
                rec.latency_ms = ms(done.saturating_duration_since(due));
                rec.late_ms = ms(sent.saturating_duration_since(due));
                let mut last = last_done.lock().expect("no sender panics holding the lock");
                *last = (*last).max(done);
                drop(last);
                records
                    .lock()
                    .expect("no sender panics holding the lock")
                    .push((k, rec));
            });
        }
    });
    let mut records = records.into_inner().expect("senders joined");
    records.sort_by_key(|(k, _)| *k);
    let span = last_done
        .into_inner()
        .expect("senders joined")
        .duration_since(start);
    (
        records.into_iter().map(|(_, r)| r).collect(),
        span.as_secs_f64(),
    )
}

/// Median of `reps` timings of `f`, ms.
fn timed(reps: usize, mut f: impl FnMut()) -> f64 {
    let v: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            ms(t.elapsed())
        })
        .collect();
    stats::percentile(&v, 50.0)
}

/// A `JobResult` equivalent to a served response, for replaying the render.
fn job_result(body: &str, grid: maps_core::Grid2d) -> JobResult {
    let field =
        served_field(body, grid).map(|f| f.as_slice().iter().flat_map(|z| [z.re, z.im]).collect());
    JobResult {
        id: None,
        status: 200,
        queue_ms: number_after(body, "queue_ms").unwrap_or(0.0),
        results: vec![SolveResult {
            field_norm: number_after(body, "field_norm"),
            field,
            fidelity: Some("direct"),
            served_by: string_after(body, "served_by").map(str::to_string),
            coalesce: Some("hit"),
            factorize_ms: 0.0,
            solve_ms: number_after(body, "solve_ms").unwrap_or(0.0),
            error_kind: None,
            error: None,
        }],
        error: None,
        trace_id: string_after(body, "trace_id").map(str::to_string),
        timings: Timings {
            queue_us: number_after(body, "queue_us").unwrap_or(0.0),
            factorize_us: 0.0,
            solve_us: number_after(body, "solve_us").unwrap_or(0.0),
            total_us: number_after(body, "total_us").unwrap_or(0.0),
        },
        retries: 0,
    }
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut ledger = Ledger::default();
    let mut rng = StdRng::seed_from_u64(args.seed);
    // The daemon and its clients share every core, so the kernel runs on
    // every core too: contention on either shows.
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut calibrator = crate::calib::ParallelCalibrator::new(nproc);
    let grid = DeviceKind::Bending.build(DeviceResolution::high()).grid();
    let per_block = (RATE * BLOCK_S).round() as usize;
    let n = per_block * BLOCKS;
    let mut lateness = Vec::new();
    let mut sent = 0usize;
    let (mut warm, mut leaders) = (0usize, 0usize);
    // The faster of two kernel runs: one run can catch a preemption.
    let mut kernel2 = || calibrator.measure().min(calibrator.measure());
    for session in 0..crate::sessions(args.seconds, SESSION_SHARE_S, 1) {
        let traced = args.trace && session % 2 == 0;
        let bodies = pool_bodies(&mut rng);
        let blocks: Vec<Vec<(f64, usize)>> = (0..BLOCKS)
            .map(|_| {
                (0..per_block)
                    .map(|i| ((i as f64 + 0.5) / RATE, rng.gen_range(0..POOL)))
                    .collect()
            })
            .collect();

        let before_setup = kernel2();
        let t0 = Instant::now();
        let trace_file = traced.then(|| {
            args.out
                .join(format!("serve.mapsd-session{session}.trace.json"))
        });
        let daemon = match start_daemon(args, trace_file.map(|p| p.display().to_string())) {
            Ok(d) => d,
            Err(e) => {
                out.attempted += n as u64;
                out.failed += n as u64 - 1;
                out.fail(format!("session {session}: {e}"));
                continue;
            }
        };
        let mut warm_ok = true;
        for (d, pair) in bodies.iter().enumerate() {
            match maps_mapsd::http_post(&daemon.addr, "/solve", &pair[0]) {
                Ok((200, body)) => {
                    warm += 1;
                    leaders += usize::from(string_after(&body, "coalesce") != Some("hit"));
                }
                other => {
                    warm_ok = false;
                    out.fail(format!(
                        "session {session}: warm-up of design {d} failed: {other:?}"
                    ));
                }
            }
        }
        let setup_s = t0.elapsed().as_secs_f64();
        let evictions0 = if traced {
            daemon.counter("fdfd_factor_cache_evict_total")
        } else {
            0.0
        };

        // Kernel times at the block boundaries: `kernels[0]` and
        // `kernels[1]` bracket the set-up, `kernels[b + 1]` and
        // `kernels[b + 2]` block `b`.
        let mut kernels = vec![before_setup, kernel2()];
        let mut records = Vec::with_capacity(n);
        let mut span_s = 0.0;
        for (b, block) in blocks.iter().enumerate() {
            if !warm_ok {
                break;
            }
            let (recs, span) = open_loop(&daemon.addr, &bodies, block, b * per_block);
            kernels.push(kernel2());
            records.extend(recs);
            span_s += span;
        }
        // Untimed verification: every pool design and kind once more, with
        // the full field, for the residual check below.
        let verified: Vec<[Option<(u16, String)>; 2]> = bodies
            .iter()
            .map(|pair| {
                pair.clone().map(|b| {
                    let full = b.replace("\"return_field\":false", "\"return_field\":true");
                    maps_mapsd::http_post(&daemon.addr, "/solve", &full).ok()
                })
            })
            .collect();
        let evictions1 = if traced {
            daemon.counter("fdfd_factor_cache_evict_total")
        } else {
            0.0
        };
        out.session_rss_mb.push(daemon.stop());
        // The set-up and each block of ops are scaled by the mean of the
        // kernel runs on either side of them: host phases last seconds, and
        // the nearest runs track them best.
        let around = |i: usize| (kernels[i] + kernels[(i + 1).min(kernels.len() - 1)]) / 2.0;
        let op_kernel = |k: usize| around(1 + k / per_block);
        out.setup(setup_s, around(0));

        // Output checks, outside every timed window.
        let reference = references(&bodies, &mut out);
        out.attempted += n as u64;
        out.offered_s += span_s;
        sent += records.len();
        if records.len() < n {
            out.failed += (n - records.len()) as u64;
        }
        for (k, r) in records.iter().enumerate() {
            let want = reference[r.design][r.kind];
            let norm_ok = ((r.field_norm - want) / want).abs() <= NORM_TOL;
            if !r.ok || !norm_ok {
                out.fail(format!(
                    "session {session} request {k}: status {} field_norm {} (reference {want}) {}",
                    r.status, r.field_norm, r.error
                ));
                continue;
            }
            out.op(r.latency_ms, op_kernel(k));
        }
        lateness.extend(records.iter().map(|r| r.late_ms));
        for (d, pair) in verified.iter().enumerate() {
            for (k, reply) in pair.iter().enumerate() {
                let field = match reply {
                    Some((200, body)) => served_field(body, grid),
                    _ => None,
                };
                let want = reference[d][k];
                let ok = field.as_ref().is_some_and(|f| {
                    ((f.norm() - want) / want).abs() <= NORM_TOL
                        && residual(&bodies[d][k], f) < crate::invdes::RESIDUAL_TOL
                });
                if !ok {
                    out.fail(format!(
                        "session {session}: full field of design {d} kind {k} failed its norm or residual check"
                    ));
                }
            }
        }

        if args.trace {
            if traced {
                let parse: Vec<[f64; 2]> = bodies
                    .iter()
                    .map(|pair| {
                        let t = |b: &String| {
                            timed(5, || {
                                std::hint::black_box(parse_envelope(JobKind::Solve, b).ok());
                            })
                        };
                        [t(&pair[0]), t(&pair[1])]
                    })
                    .collect();
                let render: Vec<f64> = records
                    .iter()
                    .filter_map(|r| r.body.as_deref().map(|b| job_result(b, grid)))
                    .map(|jr| timed(5, || drop(std::hint::black_box(render_job_result(&jr)))))
                    .collect();
                let render_ms = stats::mean(&render);
                ledger.ops += records.len() as u64;
                ledger.op_ms += records.iter().map(|r| r.latency_ms).sum::<f64>();
                for r in &records {
                    ledger.add("mapsd.parse_ms", parse[r.design][r.kind]);
                    ledger.add("mapsd.queue_ms", r.queue_us / 1e3);
                    // On a hit, `factorize_us` is the fingerprint and cache
                    // lookup: fdfd's own time, not a factorization.
                    let lookup = if r.coalesce == "hit" {
                        "fdfd.self_ms"
                    } else {
                        "linalg.factorize.ms"
                    };
                    ledger.add(lookup, r.factorize_us / 1e3);
                    ledger.add("linalg.backsub.ms", r.solve_us / 1e3);
                    ledger.add("mapsd.solve_ms", r.solve_us / 1e3);
                    ledger.add("mapsd.server_ms", r.total_us / 1e3);
                    ledger.add("mapsd.render_ms", render_ms);
                    ledger.add(
                        "mapsd.transport_ms",
                        r.latency_ms - r.total_us / 1e3 - render_ms,
                    );
                    ledger.add("mapsd.bytes_in", bodies[r.design][r.kind].len() as f64);
                    ledger.add("mapsd.bytes_out", r.bytes_out as f64);
                    ledger.add("linalg.backsub.rhs", 1.0);
                    ledger.add("core.retries", r.retries);
                    let hit = r.coalesce == "hit";
                    ledger.add("cache_hits", f64::from(u8::from(hit)));
                    ledger.add("cache_misses", f64::from(u8::from(!hit)));
                    ledger.add("factorize_count", f64::from(u8::from(!hit)));
                }
                ledger.add("fdfd.cache.evictions", (evictions1 - evictions0).max(0.0));
                ledger.traced_ops_ms.extend(
                    records
                        .iter()
                        .enumerate()
                        .map(|(k, r)| crate::calib::scaled(r.latency_ms, op_kernel(k))),
                );
            } else {
                ledger.untraced_ops_ms.extend(
                    records
                        .iter()
                        .enumerate()
                        .map(|(k, r)| crate::calib::scaled(r.latency_ms, op_kernel(k))),
                );
            }
        }
    }
    if args.trace {
        let hits = ledger.sums.get("cache_hits").copied().unwrap_or(0.0);
        let total = hits + ledger.sums.get("cache_misses").copied().unwrap_or(0.0);
        ledger.fixed.insert(
            "mapsd.hit_ratio",
            if total > 0.0 { hits / total } else { 0.0 },
        );
        ledger.fixed.insert("gen.sent", sent as f64);
        ledger
            .fixed
            .insert("gen.late_p99_ms", stats::percentile(&lateness, 99.0));
        ledger.fixed.insert(
            "fdfd.rhs_per_factor",
            (sent + warm) as f64 / leaders.max(1) as f64,
        );
        out.layers = ledger.finish(grid.len(), grid.nx, &args.out, "serve");
    }
    out
}
