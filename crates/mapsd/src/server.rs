//! The daemon: accept loop, worker pool, routing, and lifecycle.
//!
//! ```text
//!   client ──POST /solve──▶ connection thread ──submit──▶ WorkQueue
//!                                │    ▲                      │ pop
//!                                │    └──JobResult── worker thread
//!                                ▼                     (SolveService)
//!                           HTTP response
//! ```
//!
//! Connection threads do admission and I/O only; workers own the solving
//! machinery (one [`SolveService`] each, built on the worker's thread by
//! the [`ServiceFactory`]). The handoff is a bounded channel per request,
//! so a worker never blocks on a slow client for longer than one send.
//!
//! Lifecycle: [`Daemon::stop`] (or a `POST /shutdown`) stops admissions,
//! drains the queue — every admitted job is answered — then joins the
//! accept loop, the workers, and waits out in-flight connections.
//! `GET /readyz` extends the PR 6 watchdog readiness with daemon state:
//! draining or a saturated queue reports 503 before clients pile on.
//!
//! # Per-request observability
//!
//! Every admission to a job route opens a root `mapsd.request` span whose
//! flow id follows the job across the queue, the worker, and the rayon
//! ω-buckets (workers adopt the admission-time [`TaskContext`] stored on
//! the job). The response echoes a `trace_id` — the client's, or one the
//! daemon mints — plus a `timings` breakdown, and the handler emits exactly
//! **one** canonical wide event per admission ([`maps_obs::reqlog`]),
//! including sheds, deadline drops, and malformed bodies, so
//! `GET /requests` reconciles exactly with `mapsd.requests` counters.
//!
//! Span trees are *tail-sampled* ([`TailConfig`]): buffered per flow while
//! the request runs, then retained only when the request was slow
//! (`MAPS_TAIL_SLOW_MS`, per-endpoint overrides), errored or degraded, a
//! p99 latency outlier, or head-sampled (`MAPS_TRACE_SAMPLE` = keep 1 in
//! N). Retained requests stamp an OpenMetrics exemplar with their trace id
//! onto the `mapsd.request.total_ms` histogram, linking `/metrics` latency
//! spikes back to `/trace`.

use crate::protocol::{parse_envelope, render_job_result, render_shed, JobKind, JobResult};
use crate::queue::{QueueConfig, WorkQueue};
use crate::service::{ServiceFactory, SolveService};
use maps_obs::{
    read_request, readiness_response, recorder, reqlog, telemetry_response, write_response,
    Request, TaskContext,
};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Tail-based trace sampling policy: which requests keep their span trees.
///
/// The decision runs at request *close*, when the outcome is known — that
/// is what "tail-based" means. While a request runs its spans are parked in
/// the recorder's pending buffer ([`recorder::begin_flow`]); at close the
/// tree is flushed into the ring or discarded wholesale:
///
/// - **slow**: total latency ≥ the endpoint's threshold (`MAPS_TAIL_SLOW_MS`,
///   either one number for all endpoints or a `solve=100,batch=250` list);
/// - **errored/degraded**: non-200 status or any excitation served below
///   `direct` fidelity;
/// - **outlier**: above the live p99 of `mapsd.request.total_ms` (so the
///   tail of the distribution is always explorable even when every request
///   beats the static threshold);
/// - **head-sampled**: every Nth admission (`MAPS_TRACE_SAMPLE=N`), keeping
///   a trickle of healthy-request traces for baseline comparison.
#[derive(Debug, Clone)]
pub struct TailConfig {
    /// Slow threshold applied to endpoints without an override,
    /// milliseconds; infinity disables slow-based retention.
    pub slow_ms: f64,
    /// Per-endpoint overrides as `(name, ms)`, names without the slash.
    pub per_endpoint: Vec<(String, f64)>,
    /// Head-sampling rate: retain every Nth admission (0 = off).
    pub sample: u64,
}

impl Default for TailConfig {
    fn default() -> Self {
        TailConfig {
            slow_ms: f64::INFINITY,
            per_endpoint: Vec::new(),
            sample: 0,
        }
    }
}

impl TailConfig {
    /// Reads `MAPS_TAIL_SLOW_MS` (a number, or a `solve=100,batch=250`
    /// list with an optional bare number as the default) and
    /// `MAPS_TRACE_SAMPLE`, warning once per malformed value.
    pub fn from_env() -> Self {
        let mut cfg = TailConfig::default();
        if let Ok(raw) = std::env::var("MAPS_TAIL_SLOW_MS") {
            match parse_slow_spec(&raw) {
                Some((slow_ms, per_endpoint)) => {
                    cfg.slow_ms = slow_ms;
                    cfg.per_endpoint = per_endpoint;
                }
                None => maps_obs::warn_invalid_env(
                    "MAPS_TAIL_SLOW_MS",
                    &raw,
                    "a nonnegative number or a name=ms list",
                ),
            }
        }
        cfg.sample = maps_obs::parse_env_or("MAPS_TRACE_SAMPLE", 0u64);
        cfg
    }

    /// The slow threshold for `endpoint` (a path like `/solve`), ms.
    pub fn slow_threshold_ms(&self, endpoint: &str) -> f64 {
        let name = endpoint.trim_start_matches('/');
        self.per_endpoint
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, ms)| *ms)
            .unwrap_or(self.slow_ms)
    }

    /// Whether any retention rule is active (if not, flows are never
    /// buffered and spans stream straight to the ring as before).
    pub fn enabled(&self) -> bool {
        self.slow_ms.is_finite() || self.sample > 0 || !self.per_endpoint.is_empty()
    }

    /// The head-sampling decision for one admission (process-wide counter,
    /// so "1 in N" holds across connection threads).
    fn head_sample(&self) -> bool {
        if self.sample == 0 {
            return false;
        }
        static ADMITTED: AtomicU64 = AtomicU64::new(0);
        ADMITTED
            .fetch_add(1, Ordering::Relaxed)
            .is_multiple_of(self.sample)
    }
}

/// Parses `MAPS_TAIL_SLOW_MS`: `"250"`, `"solve=100,batch=250"`, or a mix
/// where a bare number sets the default (`"500,solve=100"`).
fn parse_slow_spec(raw: &str) -> Option<(f64, Vec<(String, f64)>)> {
    let raw = raw.trim();
    if raw.is_empty() {
        return None;
    }
    if !raw.contains('=') {
        let ms: f64 = raw.parse().ok()?;
        return (ms >= 0.0).then_some((ms, Vec::new()));
    }
    let mut slow_ms = f64::INFINITY;
    let mut per = Vec::new();
    for part in raw.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        match part.split_once('=') {
            Some((name, ms)) => {
                let ms: f64 = ms.trim().parse().ok()?;
                if ms < 0.0 {
                    return None;
                }
                per.push((name.trim().trim_start_matches('/').to_string(), ms));
            }
            None => {
                slow_ms = part.parse().ok()?;
                if slow_ms < 0.0 {
                    return None;
                }
            }
        }
    }
    Some((slow_ms, per))
}

/// Daemon sizing and bind address.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Bind address; port 0 picks an ephemeral port (the bound address is
    /// reported by [`Daemon::local_addr`]).
    pub addr: String,
    /// Worker (solver) threads.
    pub workers: usize,
    /// Maximum accepted request body, bytes.
    pub max_body: usize,
    /// Admission-control sizing.
    pub queue: QueueConfig,
    /// Tail-based trace sampling policy.
    pub tail: TailConfig,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            addr: "127.0.0.1:9103".to_string(),
            workers: 4,
            max_body: 4 << 20,
            queue: QueueConfig::default(),
            tail: TailConfig::default(),
        }
    }
}

impl DaemonConfig {
    /// Reads `MAPS_D_ADDR`, `MAPS_D_WORKERS`, `MAPS_D_MAX_BODY`,
    /// `MAPS_D_QUEUE`, `MAPS_D_CLIENT_QUOTA`, `MAPS_TAIL_SLOW_MS`, and
    /// `MAPS_TRACE_SAMPLE`, warning once per malformed value and keeping
    /// the defaults.
    pub fn from_env() -> Self {
        let d = DaemonConfig::default();
        DaemonConfig {
            addr: std::env::var("MAPS_D_ADDR").unwrap_or(d.addr),
            workers: maps_obs::parse_env_or("MAPS_D_WORKERS", d.workers).max(1),
            max_body: maps_obs::parse_env_or("MAPS_D_MAX_BODY", d.max_body).max(1024),
            queue: QueueConfig::from_env(),
            tail: TailConfig::from_env(),
        }
    }
}

/// A running daemon; dropping it without [`Daemon::stop`] detaches the
/// threads (they exit with the process).
pub struct Daemon {
    addr: SocketAddr,
    queue: Arc<WorkQueue>,
    accepting: Arc<AtomicBool>,
    shutdown: Arc<(Mutex<bool>, Condvar)>,
    conn_count: Arc<AtomicUsize>,
    accept_handle: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

/// Starts a daemon with the production [`SolveService`].
///
/// # Errors
///
/// I/O errors from binding the listen address.
pub fn serve(config: DaemonConfig) -> io::Result<Daemon> {
    serve_with(config, Arc::new(SolveService::from_env))
}

/// Starts a daemon whose workers build their service from `factory` —
/// the hook tests and chaos harnesses use to inject faulty solvers.
///
/// # Errors
///
/// I/O errors from binding the listen address.
pub fn serve_with(config: DaemonConfig, factory: ServiceFactory) -> io::Result<Daemon> {
    register_counters();
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let queue = WorkQueue::new(config.queue);
    let accepting = Arc::new(AtomicBool::new(true));
    let shutdown = Arc::new((Mutex::new(false), Condvar::new()));
    let conn_count = Arc::new(AtomicUsize::new(0));
    let tail = Arc::new(config.tail);

    let workers = (0..config.workers)
        .map(|i| {
            let queue = Arc::clone(&queue);
            let factory = Arc::clone(&factory);
            std::thread::Builder::new()
                .name(format!("mapsd-worker-{i}"))
                .spawn(move || worker_loop(&queue, &factory()))
                .expect("spawn worker")
        })
        .collect();

    let accept_handle = {
        let queue = Arc::clone(&queue);
        let accepting = Arc::clone(&accepting);
        let shutdown = Arc::clone(&shutdown);
        let conn_count = Arc::clone(&conn_count);
        let max_body = config.max_body;
        std::thread::Builder::new()
            .name("mapsd-accept".to_string())
            .spawn(move || {
                for stream in listener.incoming() {
                    if !accepting.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    let queue = Arc::clone(&queue);
                    let accepting = Arc::clone(&accepting);
                    let shutdown = Arc::clone(&shutdown);
                    let tail = Arc::clone(&tail);
                    conn_count.fetch_add(1, Ordering::SeqCst);
                    let conn_counter = Arc::clone(&conn_count);
                    let spawned = std::thread::Builder::new()
                        .name("mapsd-conn".to_string())
                        .spawn(move || {
                            handle_connection(
                                stream, &queue, &accepting, &shutdown, &tail, max_body,
                            );
                            conn_counter.fetch_sub(1, Ordering::SeqCst);
                        });
                    if spawned.is_err() {
                        conn_count.fetch_sub(1, Ordering::SeqCst);
                    }
                }
            })
            .expect("spawn accept loop")
    };

    Ok(Daemon {
        addr,
        queue,
        accepting,
        shutdown,
        conn_count,
        accept_handle: Some(accept_handle),
        workers,
    })
}

impl Daemon {
    /// The actually-bound listen address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The daemon's admission queue (for introspection in tests).
    pub fn queue(&self) -> &Arc<WorkQueue> {
        &self.queue
    }

    /// Blocks until a client POSTs `/shutdown` (or `notify_shutdown` is
    /// called from another thread).
    pub fn wait_for_shutdown(&self) {
        let (lock, cvar) = &*self.shutdown;
        let mut requested = lock.lock().expect("shutdown flag");
        while !*requested {
            requested = cvar.wait(requested).expect("shutdown flag");
        }
    }

    /// Requests shutdown programmatically (same effect as `POST /shutdown`).
    pub fn notify_shutdown(&self) {
        notify(&self.shutdown);
    }

    /// Graceful stop: refuse new work, answer everything already admitted,
    /// then join every thread.
    pub fn stop(mut self) {
        self.accepting.store(false, Ordering::SeqCst);
        self.queue.drain();
        // Unblock the accept loop with a self-connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept_handle.take() {
            let _ = h.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        self.queue.wait_idle(Duration::from_secs(10));
        // Let in-flight connection threads finish writing their responses.
        let deadline = Instant::now() + Duration::from_secs(5);
        while self.conn_count.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

fn notify(shutdown: &Arc<(Mutex<bool>, Condvar)>) {
    let (lock, cvar) = &**shutdown;
    *lock.lock().expect("shutdown flag") = true;
    cvar.notify_all();
}

/// One worker: pop, enforce the deadline at dequeue, solve, respond.
///
/// The worker adopts the job's admission-time [`TaskContext`] for the
/// whole execution, so every span it (and the rayon pool under it) opens
/// joins the request's flow and parents under the root `mapsd.request`
/// span on the connection thread.
fn worker_loop(queue: &Arc<WorkQueue>, service: &SolveService) {
    while let Some(active) = queue.pop() {
        let job = &active.job;
        let _ctx = maps_obs::adopt_context(job.ctx);
        let queue_ms = job.accepted.elapsed().as_secs_f64() * 1e3;
        maps_obs::histogram("mapsd.queue_ms").record(queue_ms);
        // A request whose deadline passed while queued is answered (408)
        // without solving: late results are work nobody will read.
        if job.deadline.is_some_and(|d| Instant::now() >= d) {
            maps_obs::counter("mapsd.deadline.dropped_at_dequeue").inc();
            let rejected = JobResult::rejected(
                job.envelope.id.clone(),
                408,
                queue_ms,
                "deadline passed while queued".to_string(),
            );
            send_result(job.respond.send(rejected));
            continue;
        }
        let result = {
            let mut s = maps_obs::span("mapsd.execute");
            s.add_field("endpoint", job.envelope.job.path());
            service.execute(&job.envelope, queue_ms, job.deadline)
        };
        maps_obs::counter("mapsd.jobs.done").inc();
        send_result(job.respond.send(result));
    }
}

fn send_result(sent: Result<(), std::sync::mpsc::SendError<JobResult>>) {
    if sent.is_err() {
        // The connection handler is gone (client hung up); the computed
        // result is dropped, and counted so operators can see waste.
        maps_obs::counter("mapsd.response.dropped").inc();
    }
}

fn handle_connection(
    mut stream: TcpStream,
    queue: &Arc<WorkQueue>,
    accepting: &Arc<AtomicBool>,
    shutdown: &Arc<(Mutex<bool>, Condvar)>,
    tail: &TailConfig,
    max_body: usize,
) {
    let client = stream
        .peer_addr()
        .map(|a| a.ip().to_string())
        .unwrap_or_else(|_| "unknown".to_string());
    // read_request answers malformed/oversized requests itself.
    let Ok(Some(req)) = read_request(&mut stream, max_body) else {
        return;
    };
    maps_obs::counter("mapsd.requests").inc();

    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/solve") => handle_job(&mut stream, queue, tail, &client, JobKind::Solve, &req),
        ("POST", "/batch") => handle_job(&mut stream, queue, tail, &client, JobKind::Batch, &req),
        ("POST", "/label") => handle_job(&mut stream, queue, tail, &client, JobKind::Label, &req),
        ("POST", "/shutdown") => {
            notify(shutdown);
            let _ = write_response(&mut stream, 202, "text/plain", "draining\n");
        }
        ("GET", "/readyz") => {
            let mut extras = Vec::new();
            if queue.is_draining() || !accepting.load(Ordering::SeqCst) {
                extras.push("daemon is draining".to_string());
            } else if queue.is_saturated() {
                extras.push(format!(
                    "queue saturated (depth {}/{})",
                    queue.depth(),
                    queue.config().depth
                ));
            }
            let (status, ctype, body) = readiness_response(&extras);
            let _ = write_response(&mut stream, status, ctype, &body);
        }
        ("GET", _) => match telemetry_response(&req) {
            Some((status, ctype, body)) => {
                let _ = write_response(&mut stream, status, ctype, &body);
            }
            None => {
                let _ = write_response(&mut stream, 404, "text/plain", "not found\n");
            }
        },
        _ => {
            let _ = write_response(&mut stream, 405, "text/plain", "method not allowed\n");
        }
    }
}

/// Mints a process-unique trace id for requests that did not bring one.
fn mint_trace_id() -> String {
    static SEQ: AtomicU64 = AtomicU64::new(1);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let clock = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| (d.as_secs() << 30) ^ u64::from(d.subsec_nanos()))
        .unwrap_or(0);
    // A splitmix-style mix keeps ids visually distinct even at high rates.
    format!("{:016x}", clock ^ seq.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// Admission + response for the three job routes.
///
/// This is the single choke point of per-request observability: every
/// admission — parsed or malformed, solved, shed, or deadline-dropped —
/// leaves through exactly one `write_response`, one wide event, one
/// `mapsd.request.total_ms` sample, and (when tail sampling is active)
/// one retain-or-discard flow decision.
fn handle_job(
    stream: &mut TcpStream,
    queue: &Arc<WorkQueue>,
    tail: &TailConfig,
    client: &str,
    kind: JobKind,
    req: &Request,
) {
    let started = Instant::now();
    let endpoint = kind.path();
    let mut ev = reqlog::WideEvent::new();
    ev.set_f64("ts", reqlog::unix_seconds());
    ev.set_str("endpoint", endpoint);
    ev.set_str("client", client);

    let mut envelope = match parse_envelope(kind, &req.body_str()) {
        Ok(env) => env,
        Err(reason) => {
            // Malformed bodies never reach the queue, but they were still
            // admissions: answer 400 with a minted trace id and emit the
            // request's one wide event here.
            maps_obs::counter("mapsd.requests.malformed").inc();
            let trace_id = mint_trace_id();
            let body = render_shed(&format!("invalid request: {reason}"), Some(&trace_id));
            let _ = write_response(stream, 400, "application/json", &body);
            ev.set_str("trace_id", &trace_id);
            ev.set_u64("status", 400);
            ev.set_str("disposition", "malformed");
            ev.set_str("error", reason);
            ev.set_f64("total_us", started.elapsed().as_secs_f64() * 1e6);
            reqlog::record(&ev);
            return;
        }
    };

    let trace_id = envelope.trace_id.clone().unwrap_or_else(mint_trace_id);
    envelope.trace_id = Some(trace_id.clone());
    ev.set_str("trace_id", &trace_id);
    if let Some(id) = &envelope.id {
        ev.set_str("id", id);
    }
    ev.set_u64("omegas", envelope.specs.len() as u64);
    let head_sampled = tail.head_sample();

    // The adoption guard is declared before the root span so drop order is
    // span first, guard second: the root closes inside the caller's
    // context, then the thread's prior context is restored.
    let _parent = envelope
        .parent_span
        .map(|p| maps_obs::adopt_context(TaskContext { flow: 0, parent: p }));
    let mut root = maps_obs::span("mapsd.request");
    root.add_field("endpoint", endpoint);
    root.add_field("trace", &trace_id);
    root.add_field("client", client);
    let flow = root.flow();
    let tail_active = tail.enabled() && recorder::is_enabled() && flow != 0;
    if tail_active {
        recorder::begin_flow(flow);
    }
    // Captured inside the root span: workers adopting this context parent
    // their spans under `mapsd.request` and join its flow.
    let ctx = maps_obs::current_context();

    // The deadline clock starts at admission: queue time spends it too.
    let deadline = envelope
        .deadline_ms
        .map(|ms| Instant::now() + Duration::from_millis(ms));

    let mut degraded = false;
    let status = match queue.submit_job(client, envelope, deadline, ctx) {
        Err(shed) => {
            ev.set_str("disposition", "shed");
            ev.set_str("error", shed.reason());
            let _ = write_response(
                stream,
                shed.http_status(),
                "application/json",
                &render_shed(shed.reason(), Some(&trace_id)),
            );
            shed.http_status()
        }
        Ok((rx, _permit)) => {
            // The worker sends exactly one result; if it panics the sender
            // drops and recv errors out — answer 500, never hang.
            match rx.recv() {
                Ok(mut result) => {
                    // The handler sees the full admission-to-write window;
                    // the 408 dequeue-drop path also lands here, so its
                    // response and wide event carry the trace id too.
                    result.trace_id = Some(trace_id.clone());
                    result.timings.total_us = started.elapsed().as_secs_f64() * 1e6;
                    degraded = result
                        .results
                        .iter()
                        .any(|r| matches!(r.fidelity, Some("relaxed") | Some("fallback")));
                    fill_event_from_result(&mut ev, &result, degraded);
                    let _ = write_response(
                        stream,
                        result.status,
                        "application/json",
                        &render_job_result(&result),
                    );
                    result.status
                }
                Err(_) => {
                    ev.set_str("disposition", "error");
                    ev.set_str("error", "worker failed");
                    let _ = write_response(
                        stream,
                        500,
                        "application/json",
                        &render_shed("worker failed", Some(&trace_id)),
                    );
                    500
                }
            }
            // _permit drops here: the client's quota slot covers queueing,
            // solving, and the response write.
        }
    };

    // Close the root span *before* the flow decision so it lands in the
    // pending buffer (or the ring) like every other span of the request.
    drop(root);
    let total_ms = started.elapsed().as_secs_f64() * 1e3;
    let hist = maps_obs::histogram("mapsd.request.total_ms");
    let snapshot = hist.snapshot();
    // An outlier check against the live p99 keeps the tail explorable even
    // when every request beats the static threshold; it needs some history
    // before the estimate means anything.
    let outlier = snapshot.count >= 100 && total_ms >= snapshot.p99;
    let retain = head_sampled
        || status != 200
        || degraded
        || outlier
        || total_ms >= tail.slow_threshold_ms(endpoint);
    if tail_active {
        recorder::close_flow(flow, retain);
    }
    if retain && tail_active {
        hist.record_with_exemplar(total_ms, "trace_id", &trace_id);
    } else {
        hist.record(total_ms);
    }
    ev.set_u64("status", u64::from(status));
    ev.set_bool("sampled", retain && tail_active);
    ev.set_f64("total_us", total_ms * 1e3);
    reqlog::record(&ev);
}

/// Copies the forensically interesting facts of a [`JobResult`] into the
/// request's wide event.
fn fill_event_from_result(ev: &mut reqlog::WideEvent, result: &JobResult, degraded: bool) {
    ev.set_str(
        "disposition",
        if result.status == 408 {
            "deadline"
        } else if result.status != 200 {
            "error"
        } else if degraded {
            "degraded"
        } else {
            "ok"
        },
    );
    if let Some(err) = &result.error {
        ev.set_str("error", err);
    }
    match result.results.iter().find_map(|r| r.coalesce) {
        Some(c) => ev.set_str("coalesce", c),
        None => ev.set_null("coalesce"),
    }
    ev.set_bool(
        "cache_hit",
        result.results.iter().any(|r| r.coalesce == Some("hit")),
    );
    // Worst fidelity across excitations: fallback > relaxed > direct.
    let rank = |f: Option<&str>| match f {
        Some("fallback") => 2,
        Some("relaxed") => 1,
        Some("direct") => 0,
        _ => -1,
    };
    let fidelity = result.results.iter().fold(None, |worst, r| {
        if rank(r.fidelity) > rank(worst) {
            r.fidelity
        } else {
            worst
        }
    });
    match fidelity {
        Some(f) => ev.set_str("fidelity", f),
        None => ev.set_null("fidelity"),
    }
    ev.set_u64("retries", result.retries);
    match result.results.iter().find_map(|r| r.field_norm) {
        Some(n) => ev.set_f64("field_norm", n),
        None => ev.set_null("field_norm"),
    }
    ev.set_f64("queue_us", result.timings.queue_us);
    ev.set_f64("factorize_us", result.timings.factorize_us);
    ev.set_f64("solve_us", result.timings.solve_us);
}

/// Registers every `mapsd.*` metric at zero so `/metrics` exposes the
/// full set from the first scrape — scrapers and the check.sh smoke can
/// assert on presence, not just on eventual increments.
fn register_counters() {
    for name in [
        "mapsd.requests",
        "mapsd.requests.malformed",
        "mapsd.jobs.done",
        "mapsd.shed",
        "mapsd.shed.queue_full",
        "mapsd.shed.client_quota",
        "mapsd.shed.draining",
        "mapsd.coalesce.hit",
        "mapsd.coalesce.leader",
        "mapsd.coalesce.follower",
        "mapsd.degraded.relaxed",
        "mapsd.degraded.fallback",
        "mapsd.deadline.dropped_at_dequeue",
        "mapsd.deadline.dropped_mid_job",
        "mapsd.prewarm.failed",
        "mapsd.response.dropped",
    ] {
        maps_obs::counter(name).add(0);
    }
    maps_obs::gauge("mapsd.queue.depth").set(0.0);
    // Pre-create the request-latency histogram so its (empty) summary and
    // exemplar slot are scrapeable from the first request on.
    let _ = maps_obs::histogram("mapsd.request.total_ms");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_config_parses_plain_and_per_endpoint_specs() {
        let (ms, per) = parse_slow_spec("250").unwrap();
        assert_eq!(ms, 250.0);
        assert!(per.is_empty());

        let (ms, per) = parse_slow_spec(" solve=100 , batch=250 ").unwrap();
        assert!(ms.is_infinite());
        assert_eq!(per, vec![("solve".into(), 100.0), ("batch".into(), 250.0)]);

        let (ms, per) = parse_slow_spec("500,/label=50").unwrap();
        assert_eq!(ms, 500.0);
        assert_eq!(per, vec![("label".into(), 50.0)]);

        assert!(parse_slow_spec("").is_none());
        assert!(parse_slow_spec("fast").is_none());
        assert!(parse_slow_spec("solve=-1").is_none());
    }

    #[test]
    fn slow_threshold_prefers_the_endpoint_override() {
        let tail = TailConfig {
            slow_ms: 500.0,
            per_endpoint: vec![("solve".into(), 100.0)],
            sample: 0,
        };
        assert_eq!(tail.slow_threshold_ms("/solve"), 100.0);
        assert_eq!(tail.slow_threshold_ms("/batch"), 500.0);
        assert!(tail.enabled());
        assert!(!TailConfig::default().enabled());
        assert!(TailConfig {
            sample: 8,
            ..TailConfig::default()
        }
        .enabled());
    }

    #[test]
    fn minted_trace_ids_are_distinct_hex() {
        let a = mint_trace_id();
        let b = mint_trace_id();
        assert_ne!(a, b);
        assert_eq!(a.len(), 16);
        assert!(a.chars().all(|c| c.is_ascii_hexdigit()));
    }
}
