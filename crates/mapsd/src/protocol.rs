//! The `mapsd` wire protocol: JSON request envelopes and response bodies.
//!
//! Requests are `POST` bodies parsed through the vendored `serde` [`Value`]
//! tree; responses are rendered back the same way. The envelope is shared
//! by all three job kinds — only the excitation list differs:
//!
//! ```json
//! {
//!   "id": "job-42",                 // optional echo-back tag
//!   "nx": 32, "ny": 24, "dx": 0.05, // grid
//!   "eps": 2.25,                    // uniform, or a row-major nx*ny array
//!   "deadline_ms": 250,             // optional per-request deadline
//!   "return_field": false,          // include the full complex field?
//!
//!   // POST /solve — one excitation:
//!   "omega": 4.05,
//!   "kind": "forward",              // or "adjoint" (default forward)
//!   "source": [[16, 12, 1.0, 0.0]], // sparse [x, y, re, im] points
//!
//!   // POST /batch — many excitations against one design:
//!   "requests": [{"omega": 4.05, "source": [[16,12,1,0]]}, ...],
//!
//!   // POST /label — a frequency sweep for dataset labeling:
//!   "omegas": [4.0, 4.05, 4.1],
//!   "source": [[16, 12, 1.0, 0.0]]  // shared; defaults to a center point
//! }
//! ```
//!
//! Responses carry one entry per excitation, each tagged with the fidelity
//! actually served (`"direct"`, `"relaxed"`, `"fallback"`) and how its
//! factorization was obtained (`"hit"`, `"leader"`, `"follower"`) — the
//! observable face of graceful degradation and single-flight coalescing.

use maps_core::{ComplexField2d, Grid2d, RealField2d, SolveKind};
use maps_linalg::Complex64;
use serde::Value;

/// Which endpoint a parsed envelope came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobKind {
    /// `POST /solve`: one excitation.
    Solve,
    /// `POST /batch`: many excitations against one design.
    Batch,
    /// `POST /label`: a frequency sweep with a shared source.
    Label,
}

impl JobKind {
    /// Endpoint path for this job kind.
    pub fn path(&self) -> &'static str {
        match self {
            JobKind::Solve => "/solve",
            JobKind::Batch => "/batch",
            JobKind::Label => "/label",
        }
    }
}

/// One excitation: frequency, direction, and sparse source points.
#[derive(Debug, Clone)]
pub struct SolveSpec {
    /// Angular frequency.
    pub omega: f64,
    /// Forward or adjoint solve.
    pub kind: SolveKind,
    /// Sparse current-density points `(ix, iy, value)`.
    pub source: Vec<(usize, usize, Complex64)>,
}

impl SolveSpec {
    /// Materializes the sparse points into a dense source field on `grid`.
    pub fn source_field(&self, grid: Grid2d) -> ComplexField2d {
        let mut j = ComplexField2d::zeros(grid);
        for &(ix, iy, v) in &self.source {
            j.set(ix, iy, v);
        }
        j
    }
}

/// A fully parsed and validated request envelope.
#[derive(Debug, Clone)]
pub struct Envelope {
    /// Caller-supplied tag echoed back in the response.
    pub id: Option<String>,
    /// Which endpoint produced this envelope.
    pub job: JobKind,
    /// The permittivity map all excitations share.
    pub eps: RealField2d,
    /// The excitations (exactly one for [`JobKind::Solve`]).
    pub specs: Vec<SolveSpec>,
    /// Relative deadline from request arrival, if any.
    pub deadline_ms: Option<u64>,
    /// Whether responses include the full complex field.
    pub return_field: bool,
    /// Caller-supplied distributed-trace id, echoed back verbatim; the
    /// daemon mints one when absent so every response carries a trace id.
    pub trace_id: Option<String>,
    /// Caller-side span id the daemon's root `mapsd.request` span should
    /// parent under, stitching daemon spans into the caller's trace.
    pub parent_span: Option<u64>,
}

/// Hard cap on cells per request: keeps a single envelope from pinning the
/// daemon's memory (the body-size cap bounds bytes, this bounds solve cost).
pub const MAX_CELLS: usize = 1 << 20;

/// Hard cap on the factor-cache entry one request may need, in bytes
/// ([`maps_fdfd::operator::factor_bytes`]: both halves of the twisted
/// `L·Δ·Lᵀ`, the kept stencil and the two seams). The entry grows as
/// `nx²·ny`, so the cell cap alone still admits a 1024×1024 grid whose
/// factor is ~17 GB. 1 GiB admits square grids up to 404×404; the default
/// 80×80 device grid needs 8.9 MB.
pub const MAX_FACTOR_BYTES: usize = 1 << 30;

/// Hard cap on excitations per batch/label request.
pub const MAX_SPECS: usize = 256;

fn as_usize(v: &Value, what: &str) -> Result<usize, String> {
    let x = v.as_f64().map_err(|e| format!("{what}: {e}"))?;
    if !(x.is_finite() && x >= 0.0 && x.fract() == 0.0) {
        return Err(format!("{what}: expected a non-negative integer"));
    }
    Ok(x as usize)
}

fn opt_field<'a>(v: &'a Value, name: &str) -> Option<&'a Value> {
    match v.field(name) {
        Ok(Value::Null) => None,
        Ok(x) => Some(x),
        Err(_) => None,
    }
}

fn parse_kind(v: Option<&Value>) -> Result<SolveKind, String> {
    match v {
        None => Ok(SolveKind::Forward),
        Some(x) => match x.as_str().map_err(|e| format!("kind: {e}"))? {
            "forward" => Ok(SolveKind::Forward),
            "adjoint" => Ok(SolveKind::Adjoint),
            other => Err(format!(
                "kind: expected \"forward\" or \"adjoint\", got {other:?}"
            )),
        },
    }
}

fn parse_source(v: Option<&Value>, grid: Grid2d) -> Result<Vec<(usize, usize, Complex64)>, String> {
    let Some(v) = v else {
        // Default excitation: a unit point source at the grid center.
        return Ok(vec![(grid.nx / 2, grid.ny / 2, Complex64::ONE)]);
    };
    let items = v.as_arr().map_err(|e| format!("source: {e}"))?;
    if items.is_empty() {
        return Err("source: at least one [x, y, re, im] point required".into());
    }
    let mut points = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        let parts = item.as_arr().map_err(|e| format!("source[{i}]: {e}"))?;
        if parts.len() != 4 {
            return Err(format!(
                "source[{i}]: expected [x, y, re, im], got {} elements",
                parts.len()
            ));
        }
        let ix = as_usize(&parts[0], &format!("source[{i}].x"))?;
        let iy = as_usize(&parts[1], &format!("source[{i}].y"))?;
        if ix >= grid.nx || iy >= grid.ny {
            return Err(format!(
                "source[{i}]: point ({ix}, {iy}) outside {}x{} grid",
                grid.nx, grid.ny
            ));
        }
        let re = parts[2]
            .as_f64()
            .map_err(|e| format!("source[{i}].re: {e}"))?;
        let im = parts[3]
            .as_f64()
            .map_err(|e| format!("source[{i}].im: {e}"))?;
        // JSON reads an overflowing literal such as 1e999 as ±∞; a
        // non-finite source can only produce a non-finite field.
        if !re.is_finite() {
            return Err(format!("source[{i}].re: must be finite"));
        }
        if !im.is_finite() {
            return Err(format!("source[{i}].im: must be finite"));
        }
        points.push((ix, iy, Complex64::new(re, im)));
    }
    Ok(points)
}

fn parse_omega(v: &Value) -> Result<f64, String> {
    let omega = v.as_f64().map_err(|e| format!("omega: {e}"))?;
    if !(omega.is_finite() && omega > 0.0) {
        return Err("omega: must be positive and finite".into());
    }
    Ok(omega)
}

/// Parses a request body for the given endpoint into an [`Envelope`].
///
/// # Errors
///
/// Returns a human-readable description of the first problem found — the
/// daemon sends it back verbatim in a 400 response.
pub fn parse_envelope(job: JobKind, body: &str) -> Result<Envelope, String> {
    let root: Value = serde_json::from_str(body).map_err(|e| format!("invalid JSON: {e}"))?;
    let nx = as_usize(root.field("nx").map_err(|e| e.to_string())?, "nx")?;
    let ny = as_usize(root.field("ny").map_err(|e| e.to_string())?, "ny")?;
    let dx = root
        .field("dx")
        .map_err(|e| e.to_string())?
        .as_f64()
        .map_err(|e| format!("dx: {e}"))?;
    if nx < 4 || ny < 4 {
        return Err("grid: nx and ny must both be at least 4".into());
    }
    if nx.saturating_mul(ny) > MAX_CELLS {
        return Err(format!("grid: {nx}x{ny} exceeds the {MAX_CELLS}-cell cap"));
    }
    let factor_bytes = maps_fdfd::operator::factor_bytes(nx, ny);
    if factor_bytes > MAX_FACTOR_BYTES {
        return Err(format!(
            "grid: {nx}x{ny} needs a {} MiB factor, over the {} MiB cap",
            factor_bytes >> 20,
            MAX_FACTOR_BYTES >> 20
        ));
    }
    if !(dx.is_finite() && dx > 0.0) {
        return Err("dx: must be positive and finite".into());
    }
    let grid = Grid2d::new(nx, ny, dx);

    let eps = match root.field("eps").map_err(|e| e.to_string())? {
        Value::Num(x) => {
            if !(x.is_finite() && *x > 0.0) {
                return Err("eps: must be positive and finite".into());
            }
            RealField2d::constant(grid, *x)
        }
        Value::Arr(items) => {
            if items.len() != grid.len() {
                return Err(format!(
                    "eps: expected {} values for a {nx}x{ny} grid, got {}",
                    grid.len(),
                    items.len()
                ));
            }
            let mut values = Vec::with_capacity(items.len());
            for (i, item) in items.iter().enumerate() {
                let x = item.as_f64().map_err(|e| format!("eps[{i}]: {e}"))?;
                if !(x.is_finite() && x > 0.0) {
                    return Err(format!("eps[{i}]: must be positive and finite"));
                }
                values.push(x);
            }
            RealField2d::from_vec(grid, values)
        }
        _ => return Err("eps: expected a number or an array of numbers".into()),
    };

    let id = opt_field(&root, "id")
        .map(|v| {
            v.as_str()
                .map(str::to_string)
                .map_err(|e| format!("id: {e}"))
        })
        .transpose()?;
    let deadline_ms = opt_field(&root, "deadline_ms")
        .map(|v| as_usize(v, "deadline_ms").map(|x| x as u64))
        .transpose()?;
    let return_field = match opt_field(&root, "return_field") {
        None => false,
        Some(v) => v.as_bool().map_err(|e| format!("return_field: {e}"))?,
    };
    let trace_id = opt_field(&root, "trace_id")
        .map(|v| {
            v.as_str()
                .map(str::to_string)
                .map_err(|e| format!("trace_id: {e}"))
        })
        .transpose()?;
    let parent_span = opt_field(&root, "parent_span")
        .map(|v| as_usize(v, "parent_span").map(|x| x as u64))
        .transpose()?;

    let specs = match job {
        JobKind::Solve => {
            let omega = parse_omega(root.field("omega").map_err(|e| e.to_string())?)?;
            vec![SolveSpec {
                omega,
                kind: parse_kind(opt_field(&root, "kind"))?,
                source: parse_source(opt_field(&root, "source"), grid)?,
            }]
        }
        JobKind::Batch => {
            let requests = root
                .field("requests")
                .map_err(|e| e.to_string())?
                .as_arr()
                .map_err(|e| format!("requests: {e}"))?;
            if requests.is_empty() {
                return Err("requests: at least one excitation required".into());
            }
            if requests.len() > MAX_SPECS {
                return Err(format!("requests: more than {MAX_SPECS} excitations"));
            }
            let mut specs = Vec::with_capacity(requests.len());
            for (i, req) in requests.iter().enumerate() {
                let omega = parse_omega(
                    req.field("omega")
                        .map_err(|e| format!("requests[{i}].{e}"))?,
                )
                .map_err(|e| format!("requests[{i}].{e}"))?;
                specs.push(SolveSpec {
                    omega,
                    kind: parse_kind(opt_field(req, "kind"))
                        .map_err(|e| format!("requests[{i}].{e}"))?,
                    source: parse_source(opt_field(req, "source"), grid)
                        .map_err(|e| format!("requests[{i}].{e}"))?,
                });
            }
            specs
        }
        JobKind::Label => {
            let omegas = root
                .field("omegas")
                .map_err(|e| e.to_string())?
                .as_arr()
                .map_err(|e| format!("omegas: {e}"))?;
            if omegas.is_empty() {
                return Err("omegas: at least one frequency required".into());
            }
            if omegas.len() > MAX_SPECS {
                return Err(format!("omegas: more than {MAX_SPECS} frequencies"));
            }
            let source = parse_source(opt_field(&root, "source"), grid)?;
            omegas
                .iter()
                .enumerate()
                .map(|(i, w)| {
                    Ok(SolveSpec {
                        omega: parse_omega(w).map_err(|e| format!("omegas[{i}]: {e}"))?,
                        kind: SolveKind::Forward,
                        source: source.clone(),
                    })
                })
                .collect::<Result<Vec<_>, String>>()?
        }
    };

    Ok(Envelope {
        id,
        job,
        eps,
        specs,
        deadline_ms,
        return_field,
        trace_id,
        parent_span,
    })
}

/// Machine-readable failure class of one solve, mapped to an HTTP status
/// for single-excitation requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The caller's deadline passed (→ 408).
    Deadline,
    /// The inputs are permanently invalid (→ 400).
    Invalid,
    /// Every fidelity rung failed numerically (→ 500).
    Numerical,
}

impl ErrorKind {
    /// Wire name of this error class.
    pub fn as_str(&self) -> &'static str {
        match self {
            ErrorKind::Deadline => "deadline_exceeded",
            ErrorKind::Invalid => "invalid_input",
            ErrorKind::Numerical => "numerical",
        }
    }

    /// HTTP status for a single-excitation request failing with this class.
    pub fn http_status(&self) -> u16 {
        match self {
            ErrorKind::Deadline => 408,
            ErrorKind::Invalid => 400,
            ErrorKind::Numerical => 500,
        }
    }
}

/// Server-side timing breakdown of one request, microseconds. Echoed in
/// the response (`"timings"`) so clients see where their latency went
/// without needing access to the daemon's trace plane.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Timings {
    /// Queued before a worker picked the job up.
    pub queue_us: f64,
    /// Obtaining factorizations (cache hits cost ~0 here).
    pub factorize_us: f64,
    /// Solving against the factors (sum over excitations).
    pub solve_us: f64,
    /// Admission to response write, as seen by the daemon.
    pub total_us: f64,
}

/// Outcome of one excitation.
#[derive(Debug, Clone)]
pub struct SolveResult {
    /// The served field's L2 norm (present on success).
    pub field_norm: Option<f64>,
    /// Full complex field, interleaved `[re, im, re, im, ...]`, when the
    /// envelope asked for it.
    pub field: Option<Vec<f64>>,
    /// The ladder rung that produced the answer: `direct` (the primary's
    /// first attempt — the exact direct solve in production), `relaxed` (a retry of
    /// the primary), or `fallback` (the fallback solver — BiCGSTAB in
    /// production).
    pub fidelity: Option<&'static str>,
    /// Name of the solver that produced the answer: the primary's for
    /// `direct` and `relaxed`, the fallback's for `fallback`.
    pub served_by: Option<String>,
    /// How the factorization was obtained: `hit`, `leader`, `follower`.
    pub coalesce: Option<&'static str>,
    /// Wall-clock time obtaining this excitation's factorization, ms
    /// (0 for batch slots and when the pre-warm was off or failed).
    pub factorize_ms: f64,
    /// Wall-clock solve time in milliseconds.
    pub solve_ms: f64,
    /// Failure class, when the excitation failed.
    pub error_kind: Option<ErrorKind>,
    /// Failure description, when the excitation failed.
    pub error: Option<String>,
}

impl SolveResult {
    /// True when the excitation produced a field.
    pub fn is_ok(&self) -> bool {
        self.error.is_none()
    }

    /// A failure result with the given class and message.
    pub fn failed(kind: ErrorKind, error: impl Into<String>, solve_ms: f64) -> Self {
        SolveResult {
            field_norm: None,
            field: None,
            fidelity: None,
            served_by: None,
            coalesce: None,
            factorize_ms: 0.0,
            solve_ms,
            error_kind: Some(kind),
            error: Some(error.into()),
        }
    }
}

/// The complete answer to one request envelope.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// Echo of the envelope's `id`.
    pub id: Option<String>,
    /// HTTP status the connection handler should send.
    pub status: u16,
    /// Time spent queued before a worker picked the job up, milliseconds.
    pub queue_ms: f64,
    /// One entry per excitation, in request order. Empty only when the
    /// whole job was dropped (e.g. deadline passed at dequeue), in which
    /// case `error` says why.
    pub results: Vec<SolveResult>,
    /// Whole-job failure description (deadline at dequeue, drain).
    pub error: Option<String>,
    /// Trace id of the request (client-supplied or daemon-minted),
    /// echoed in the response body.
    pub trace_id: Option<String>,
    /// Server-side timing breakdown (total_us is filled in by the
    /// connection handler, which sees the full admission-to-write window).
    pub timings: Timings,
    /// Fidelity-ladder retries spent serving this request.
    pub retries: u64,
}

impl JobResult {
    /// A whole-job failure (no per-excitation results).
    pub fn rejected(id: Option<String>, status: u16, queue_ms: f64, error: String) -> Self {
        JobResult {
            id,
            status,
            queue_ms,
            results: Vec::new(),
            error: Some(error),
            trace_id: None,
            timings: Timings {
                queue_us: queue_ms * 1e3,
                ..Timings::default()
            },
            retries: 0,
        }
    }
}

fn num(x: f64) -> Value {
    Value::Num(x)
}

/// Renders a [`JobResult`] as the response JSON body.
pub fn render_job_result(result: &JobResult) -> String {
    let mut root: Vec<(String, Value)> = Vec::new();
    if let Some(id) = &result.id {
        root.push(("id".into(), Value::Str(id.clone())));
    }
    if let Some(trace) = &result.trace_id {
        root.push(("trace_id".into(), Value::Str(trace.clone())));
    }
    let all_ok = result.error.is_none() && result.results.iter().all(SolveResult::is_ok);
    root.push((
        "status".into(),
        Value::Str(if all_ok { "ok" } else { "error" }.into()),
    ));
    root.push(("queue_ms".into(), num(result.queue_ms)));
    root.push((
        "timings".into(),
        Value::Obj(vec![
            ("queue_us".into(), num(result.timings.queue_us)),
            ("factorize_us".into(), num(result.timings.factorize_us)),
            ("solve_us".into(), num(result.timings.solve_us)),
            ("total_us".into(), num(result.timings.total_us)),
        ]),
    ));
    if result.retries > 0 {
        root.push(("retries".into(), num(result.retries as f64)));
    }
    if let Some(err) = &result.error {
        root.push(("error".into(), Value::Str(err.clone())));
    }
    let results = result
        .results
        .iter()
        .map(|r| {
            let mut obj: Vec<(String, Value)> = Vec::new();
            obj.push(("ok".into(), Value::Bool(r.is_ok())));
            obj.push(("solve_ms".into(), num(r.solve_ms)));
            if r.factorize_ms > 0.0 {
                obj.push(("factorize_ms".into(), num(r.factorize_ms)));
            }
            if let Some(n) = r.field_norm {
                obj.push(("field_norm".into(), num(n)));
            }
            if let Some(f) = &r.fidelity {
                obj.push(("fidelity".into(), Value::Str((*f).into())));
            }
            if let Some(s) = &r.served_by {
                obj.push(("served_by".into(), Value::Str(s.clone())));
            }
            if let Some(c) = &r.coalesce {
                obj.push(("coalesce".into(), Value::Str((*c).into())));
            }
            if let Some(k) = r.error_kind {
                obj.push(("error_kind".into(), Value::Str(k.as_str().into())));
            }
            if let Some(e) = &r.error {
                obj.push(("error".into(), Value::Str(e.clone())));
            }
            if let Some(field) = &r.field {
                obj.push((
                    "field".into(),
                    Value::Arr(field.iter().map(|x| num(*x)).collect()),
                ));
            }
            Value::Obj(obj)
        })
        .collect();
    root.push(("results".into(), Value::Arr(results)));
    serde_json::to_string(&Value::Obj(root)).unwrap_or_else(|e| {
        format!("{{\"status\":\"error\",\"error\":\"response render failed: {e}\"}}")
    })
}

/// Renders a shed (admission-rejected) response body. The trace id, when
/// known, is echoed even on sheds so a client can correlate the rejection
/// with its own trace.
pub fn render_shed(reason: &str, trace_id: Option<&str>) -> String {
    let mut obj = vec![
        ("status".into(), Value::Str("shed".into())),
        ("reason".into(), Value::Str(reason.into())),
    ];
    if let Some(trace) = trace_id {
        obj.push(("trace_id".into(), Value::Str(trace.into())));
    }
    serde_json::to_string(&Value::Obj(obj)).expect("shed body renders")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solve_envelope_round_trips() {
        let body = r#"{
            "id": "t1", "nx": 8, "ny": 6, "dx": 0.1, "eps": 2.25,
            "omega": 4.0, "kind": "adjoint",
            "source": [[3, 2, 1.0, -0.5]],
            "deadline_ms": 250, "return_field": true
        }"#;
        let env = parse_envelope(JobKind::Solve, body).expect("parse");
        assert_eq!(env.id.as_deref(), Some("t1"));
        assert_eq!(env.eps.grid(), Grid2d::new(8, 6, 0.1));
        assert_eq!(env.eps.get(0, 0), 2.25);
        assert_eq!(env.specs.len(), 1);
        assert_eq!(env.specs[0].kind, SolveKind::Adjoint);
        assert_eq!(env.specs[0].source, vec![(3, 2, Complex64::new(1.0, -0.5))]);
        assert_eq!(env.deadline_ms, Some(250));
        assert!(env.return_field);
        let j = env.specs[0].source_field(env.eps.grid());
        assert_eq!(j.get(3, 2), Complex64::new(1.0, -0.5));
        assert_eq!(j.get(0, 0), Complex64::ZERO);
    }

    #[test]
    fn defaults_fill_in_kind_source_and_flags() {
        let body = r#"{"nx": 8, "ny": 8, "dx": 0.1, "eps": 1.0, "omega": 4.0}"#;
        let env = parse_envelope(JobKind::Solve, body).expect("parse");
        assert_eq!(env.specs[0].kind, SolveKind::Forward);
        assert_eq!(env.specs[0].source, vec![(4, 4, Complex64::ONE)]);
        assert_eq!(env.deadline_ms, None);
        assert!(!env.return_field);
        assert!(env.id.is_none());
        assert!(env.trace_id.is_none());
        assert!(env.parent_span.is_none());
    }

    #[test]
    fn trace_context_round_trips_through_the_envelope() {
        let body = r#"{
            "nx": 8, "ny": 8, "dx": 0.1, "eps": 1.0, "omega": 4.0,
            "trace_id": "client-trace-7", "parent_span": 12345
        }"#;
        let env = parse_envelope(JobKind::Solve, body).expect("parse");
        assert_eq!(env.trace_id.as_deref(), Some("client-trace-7"));
        assert_eq!(env.parent_span, Some(12345));

        let err = parse_envelope(
            JobKind::Solve,
            r#"{"nx":8,"ny":8,"dx":0.1,"eps":1.0,"omega":4.0,"trace_id":42}"#,
        )
        .unwrap_err();
        assert!(err.contains("trace_id"), "{err}");
    }

    #[test]
    fn eps_array_is_validated_against_the_grid() {
        let body = r#"{"nx": 4, "ny": 4, "dx": 0.1, "eps": [1,1,1], "omega": 4.0}"#;
        let err = parse_envelope(JobKind::Solve, body).unwrap_err();
        assert!(err.contains("expected 16 values"), "{err}");

        let vals = vec!["1.5"; 16].join(",");
        let body = format!(r#"{{"nx": 4, "ny": 4, "dx": 0.1, "eps": [{vals}], "omega": 4.0}}"#);
        let env = parse_envelope(JobKind::Solve, &body).expect("parse");
        assert_eq!(env.eps.get(3, 3), 1.5);
    }

    #[test]
    fn malformed_inputs_are_rejected_with_context() {
        for (body, needle) in [
            (r#"not json"#, "invalid JSON"),
            (r#"{"ny":8,"dx":0.1,"eps":1.0,"omega":4.0}"#, "nx"),
            (
                r#"{"nx":8,"ny":8,"dx":0.1,"eps":1.0,"omega":-1.0}"#,
                "omega",
            ),
            (r#"{"nx":8,"ny":8,"dx":0.1,"eps":-2.0,"omega":4.0}"#, "eps"),
            (
                r#"{"nx":2,"ny":8,"dx":0.1,"eps":1.0,"omega":4.0}"#,
                "at least 4",
            ),
            (
                r#"{"nx":8,"ny":8,"dx":0.1,"eps":1.0,"omega":4.0,"source":[[9,0,1,0]]}"#,
                "outside",
            ),
            (
                r#"{"nx":8,"ny":8,"dx":0.1,"eps":1.0,"omega":4.0,"kind":"sideways"}"#,
                "kind",
            ),
        ] {
            let err = parse_envelope(JobKind::Solve, body).unwrap_err();
            assert!(err.contains(needle), "{body} -> {err}");
        }
    }

    /// An overflowing amplitude (JSON `1e999` reads as ±∞) is refused at
    /// parse time, naming the offending component, in every envelope kind.
    #[test]
    fn non_finite_source_amplitudes_are_rejected() {
        for (amp, part) in [
            ("1e999, 0", "re"),
            ("-1e999, 0", "re"),
            ("0, 1e999", "im"),
            ("0, -1e999", "im"),
        ] {
            let point = format!("[[1, 2, 0.5, 0], [3, 2, {amp}]]");
            let needle = format!("source[1].{part}: must be finite");
            let grid = r#""nx": 8, "ny": 8, "dx": 0.1, "eps": 1.0"#;
            for (job, body) in [
                (
                    JobKind::Solve,
                    format!(r#"{{{grid}, "omega": 4.0, "source": {point}}}"#),
                ),
                (
                    JobKind::Batch,
                    format!(r#"{{{grid}, "requests": [{{"omega": 4.0, "source": {point}}}]}}"#),
                ),
                (
                    JobKind::Label,
                    format!(r#"{{{grid}, "omegas": [4.0, 4.1], "source": {point}}}"#),
                ),
            ] {
                let err = parse_envelope(job, &body).unwrap_err();
                assert!(err.contains(&needle), "{body} -> {err}");
            }
        }
    }

    /// Admission bounds the factor, not just the cells: a 1024×1024 grid
    /// is within the cell cap, but its ~17 GB factor is not.
    #[test]
    fn oversized_grids_are_rejected_before_allocation() {
        let body = |nx: usize, ny: usize| {
            format!(r#"{{"nx":{nx},"ny":{ny},"dx":0.05,"eps":4.0,"omega":4.05}}"#)
        };
        let err = parse_envelope(JobKind::Solve, &body(1024, 1024)).unwrap_err();
        assert!(err.contains("MiB factor"), "{err}");
        let err = parse_envelope(JobKind::Solve, &body(1025, 1024)).unwrap_err();
        assert!(err.contains("cell cap"), "{err}");
        let env = parse_envelope(JobKind::Solve, &body(80, 80)).expect("80x80 is admitted");
        assert_eq!(env.eps.grid().len(), 6400);
        // The largest admitted square grid, from the factor size alone.
        let largest = (4..1024)
            .take_while(|&n| maps_fdfd::operator::factor_bytes(n, n) <= MAX_FACTOR_BYTES)
            .last()
            .unwrap();
        assert_eq!(largest, 404);
        let err = parse_envelope(JobKind::Solve, &body(largest + 1, largest + 1)).unwrap_err();
        assert!(err.contains("MiB factor"), "{err}");
        // Parsing a uniform-ε body allocates only the grid's ε map.
        let env = parse_envelope(JobKind::Solve, &body(largest, largest)).expect("admitted");
        assert_eq!(env.eps.grid().len(), largest * largest);
    }

    #[test]
    fn batch_and_label_envelopes_expand_to_specs() {
        let body = r#"{
            "nx": 8, "ny": 8, "dx": 0.1, "eps": 1.0,
            "requests": [
                {"omega": 4.0},
                {"omega": 4.1, "kind": "adjoint", "source": [[1, 1, 0.0, 1.0]]}
            ]
        }"#;
        let env = parse_envelope(JobKind::Batch, body).expect("batch");
        assert_eq!(env.specs.len(), 2);
        assert_eq!(env.specs[1].kind, SolveKind::Adjoint);

        let body = r#"{"nx": 8, "ny": 8, "dx": 0.1, "eps": 1.0, "omegas": [4.0, 4.1, 4.2]}"#;
        let env = parse_envelope(JobKind::Label, body).expect("label");
        assert_eq!(env.specs.len(), 3);
        assert!(env.specs.iter().all(|s| s.kind == SolveKind::Forward));
        assert_eq!(env.specs[0].source, env.specs[2].source);
    }

    #[test]
    fn job_result_renders_status_and_fields() {
        let jr = JobResult {
            id: Some("t9".into()),
            status: 200,
            queue_ms: 1.25,
            results: vec![
                SolveResult {
                    field_norm: Some(0.5),
                    field: None,
                    fidelity: Some("direct"),
                    served_by: Some("fdfd-direct".into()),
                    coalesce: Some("leader"),
                    factorize_ms: 2.5,
                    solve_ms: 3.0,
                    error_kind: None,
                    error: None,
                },
                SolveResult::failed(ErrorKind::Deadline, "too slow", 0.1),
            ],
            error: None,
            trace_id: Some("trace-t9".into()),
            timings: Timings {
                queue_us: 1250.0,
                factorize_us: 2500.0,
                solve_us: 3100.0,
                total_us: 7000.0,
            },
            retries: 2,
        };
        let body = render_job_result(&jr);
        assert!(body.contains("\"id\":\"t9\""), "{body}");
        assert!(body.contains("\"trace_id\":\"trace-t9\""), "{body}");
        assert!(body.contains("\"status\":\"error\""), "{body}");
        assert!(body.contains("\"fidelity\":\"direct\""), "{body}");
        assert!(body.contains("\"coalesce\":\"leader\""), "{body}");
        assert!(body.contains("\"factorize_ms\":2.5"), "{body}");
        assert!(body.contains("\"retries\":2"), "{body}");
        assert!(
            body.contains("\"error_kind\":\"deadline_exceeded\""),
            "{body}"
        );
        // And it parses back as JSON, with the timings breakdown intact.
        let parsed: Value = serde_json::from_str(&body).expect("valid JSON");
        assert_eq!(parsed.field("results").unwrap().as_arr().unwrap().len(), 2);
        let timings = parsed.field("timings").expect("timings object");
        assert_eq!(timings.field("queue_us").unwrap().as_f64().unwrap(), 1250.0);
        assert_eq!(timings.field("total_us").unwrap().as_f64().unwrap(), 7000.0);
    }

    #[test]
    fn shed_body_names_the_reason() {
        let body = render_shed("queue_full", None);
        assert!(body.contains("\"status\":\"shed\""), "{body}");
        assert!(body.contains("\"reason\":\"queue_full\""), "{body}");
        assert!(!body.contains("trace_id"), "{body}");
        let body = render_shed("client_quota", Some("trace-s1"));
        assert!(body.contains("\"trace_id\":\"trace-s1\""), "{body}");
    }
}
