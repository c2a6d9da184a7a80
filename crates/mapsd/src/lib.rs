//! `mapsd` — a fault-tolerant persistent solve daemon for the MAPS
//! stack.
//!
//! Inverse-design loops and dataset-labeling campaigns issue thousands of
//! FDFD solves with heavy repetition in (ε, ω). Running each as a fresh
//! process forfeits the factor cache and gives every caller its own
//! failure handling. `mapsd` keeps one warm process that:
//!
//! - **Coalesces** concurrent identical work: requests sharing a
//!   factorization fingerprint elect a single-flight leader in the fdfd
//!   factor cache; followers share its result
//!   (`mapsd.coalesce.{leader,follower,hit}`).
//! - **Sheds** load it cannot serve promptly: a bounded queue
//!   (`MAPS_D_QUEUE`) and per-client quotas (`MAPS_D_CLIENT_QUOTA`)
//!   answer overload with 429 immediately instead of stretching latency.
//! - **Honors deadlines**: `deadline_ms` in the request envelope is
//!   enforced at dequeue and between recovery attempts; late work is
//!   dropped and counted, never silently delivered.
//! - **Degrades gracefully**: each worker holds one `RobustSolver`
//!   ladder — the exact direct solve, retried, then one BiCGSTAB attempt —
//!   and every response carries the rung that answered (`fidelity`:
//!   `direct`, `relaxed` or `fallback`) and the solver behind it
//!   (`served_by`). A failed request leaves the next one untouched.
//! - **Stops cleanly**: drain-on-stop answers every admitted job;
//!   `GET /readyz` folds daemon state into the watchdog readiness.
//!
//! Protocol: HTTP/1.1 + JSON over TCP, std-only (the `maps-obs`
//! machinery). Routes: `POST /solve`, `POST /batch`, `POST /label`,
//! `POST /shutdown`, `GET /readyz`, plus the full telemetry surface
//! (`/metrics`, `/healthz`, `/trace`, `/snapshot`, `/series/*`).
//!
//! ```no_run
//! use maps_mapsd::{http_post, serve, DaemonConfig};
//!
//! let daemon = serve(DaemonConfig {
//!     addr: "127.0.0.1:0".to_string(),
//!     ..DaemonConfig::default()
//! })?;
//! let addr = daemon.local_addr().to_string();
//! let (status, body) = http_post(
//!     &addr,
//!     "/solve",
//!     r#"{"nx":64,"ny":48,"dx":0.05,"eps":1.0,"omega":4.05,"deadline_ms":2000}"#,
//! )?;
//! assert_eq!(status, 200);
//! assert!(body.contains("\"fidelity\""));
//! daemon.stop();
//! # Ok::<(), std::io::Error>(())
//! ```

pub mod client;
pub mod protocol;
pub mod queue;
pub mod server;
pub mod service;

pub use client::{http_get, http_post};
pub use protocol::{
    parse_envelope, render_job_result, render_shed, Envelope, ErrorKind, JobKind, JobResult,
    SolveResult, SolveSpec, Timings,
};
pub use queue::{ClientPermit, Job, QueueConfig, Shed, WorkQueue};
pub use server::{serve, serve_with, Daemon, DaemonConfig, TailConfig};
pub use service::{ServiceFactory, SolveService};
