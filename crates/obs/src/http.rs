//! The live telemetry server: a std-only HTTP/1.1 scrape surface.
//!
//! Everything else in this crate renders observability *post hoc*; this
//! module makes the same state reachable while the process runs, which is
//! what a long-lived solve service needs to be scraped, health-checked,
//! and debugged in place. One listener thread ([`serve`], or
//! [`serve_from_env`] via `MAPS_OBS_ADDR=host:port`) answers:
//!
//! | Endpoint          | Body                                                |
//! |-------------------|-----------------------------------------------------|
//! | `/metrics`        | Prometheus text exposition of the global registry   |
//! | `/snapshot`       | The JSON registry snapshot                          |
//! | `/series/<name>`  | One convergence series as CSV (404 if unknown)      |
//! | `/trace?last=N`   | Chrome trace JSON of the most recent `N` ring spans |
//! | `/requests?last=N`| The most recent `N` wide events as a JSON array     |
//! | `/healthz`        | `200 ok` while the process is alive                 |
//! | `/readyz`         | `200 ready`, or `503` + stalled spans when wedged   |
//!
//! `/trace` clones the newest `N` spans of the flight-recorder ring (all
//! of them without `last`) — a clone, never a drain — so a mid-run scrape
//! cannot eat the trace the process will export at exit.
//!
//! The server is deliberately minimal: GET only, one connection at a time,
//! short read/write timeouts, no keep-alive. A scrape every few seconds is
//! the design load. The *machinery* is shared, though: [`read_request`]
//! (with `Content-Length` body framing), [`write_response`], and the
//! [`telemetry_response`] / [`readiness_response`] renderers are public so
//! the `mapsd` solve daemon mounts the same routes behind its own accept
//! loop instead of reimplementing the dialect. Zero cost when not enabled:
//! no thread, no socket, and no change to the span fast path.
//!
//! Shutdown ([`TelemetryServer::stop`] or drop) flips a flag and
//! self-connects to unblock `accept`, then joins the thread — no platform
//! socket tricks required.

use crate::env::warn_invalid_env;
use crate::recorder;
use crate::series::series_get;
use crate::watchdog;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Per-connection socket timeout: a stalled scraper must not wedge the
/// listener thread (there is exactly one).
pub const IO_TIMEOUT: Duration = Duration::from_secs(2);

/// Maximum bytes of request head we will buffer before answering 431.
const MAX_HEAD: usize = 8 * 1024;

/// One parsed HTTP/1.1 request, as read by [`read_request`].
///
/// This is the shared substrate between the telemetry scrape plane here
/// and the `mapsd` solve daemon: both speak the same minimal HTTP dialect
/// (no keep-alive, no chunked encoding, `Content-Length`-framed bodies).
#[derive(Debug, Clone)]
pub struct Request {
    /// Request method (`GET`, `POST`, …), upper-case as received.
    pub method: String,
    /// Path component of the target, without the query string.
    pub path: String,
    /// Raw query string (empty when absent), without the leading `?`.
    pub query: String,
    /// Request body, exactly `Content-Length` bytes (empty when absent).
    pub body: Vec<u8>,
}

impl Request {
    /// The value of `key` in the query string, if present.
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query.split('&').find_map(|kv| {
            let (k, v) = kv.split_once('=').unwrap_or((kv, ""));
            (k == key).then_some(v)
        })
    }

    /// The body decoded as UTF-8 (lossy — protocol bodies are JSON/ASCII).
    pub fn body_str(&self) -> std::borrow::Cow<'_, str> {
        String::from_utf8_lossy(&self.body)
    }
}

/// Reads and parses one HTTP request from `stream`, enforcing the head cap
/// and `max_body` byte cap on `Content-Length` bodies.
///
/// On a malformed or oversized request this writes the appropriate error
/// response (400 / 413 / 431) itself and returns `Ok(None)`; the caller
/// should simply drop the connection. Socket timeouts are applied here, so
/// callers need no per-stream setup.
///
/// # Errors
///
/// Propagates socket I/O failures (including read timeouts).
pub fn read_request(stream: &mut TcpStream, max_body: usize) -> std::io::Result<Option<Request>> {
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    let mut bytes = Vec::with_capacity(512);
    let mut buf = [0u8; 512];
    let head_end = loop {
        if let Some(pos) = bytes.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos + 4;
        }
        if bytes.len() > MAX_HEAD {
            write_response(stream, 431, "text/plain", "request head too large\n")?;
            return Ok(None);
        }
        match stream.read(&mut buf) {
            Ok(0) => {
                if bytes.is_empty() {
                    return Ok(None); // peer connected and said nothing
                }
                write_response(stream, 400, "text/plain", "truncated request head\n")?;
                return Ok(None);
            }
            Ok(n) => bytes.extend_from_slice(&buf[..n]),
            Err(e) => return Err(e),
        }
    };
    let head = String::from_utf8_lossy(&bytes[..head_end]).into_owned();
    let mut lines = head.lines();
    let mut parts = lines.next().unwrap_or("").split_whitespace();
    let (method, target) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    if method.is_empty() || target.is_empty() {
        write_response(stream, 400, "text/plain", "malformed request line\n")?;
        return Ok(None);
    }
    let content_length = lines
        .filter_map(|l| l.split_once(':'))
        .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.trim().parse::<usize>().ok())
        .unwrap_or(0);
    if content_length > max_body {
        write_response(stream, 413, "text/plain", "request body too large\n")?;
        return Ok(None);
    }
    let mut body = bytes[head_end..].to_vec();
    while body.len() < content_length {
        match stream.read(&mut buf) {
            Ok(0) => {
                write_response(stream, 400, "text/plain", "truncated request body\n")?;
                return Ok(None);
            }
            Ok(n) => body.extend_from_slice(&buf[..n]),
            Err(e) => return Err(e),
        }
    }
    body.truncate(content_length);
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    Ok(Some(Request {
        method: method.to_string(),
        path: path.to_string(),
        query: query.to_string(),
        body,
    }))
}

/// Handle to a running telemetry server; the listener stops (and its
/// thread joins) on [`TelemetryServer::stop`] or drop.
pub struct TelemetryServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl TelemetryServer {
    /// The bound address — with port 0 requested, this carries the
    /// ephemeral port the OS picked.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the listener and joins its thread.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        // `accept` has no timeout; a throwaway connection wakes it so it
        // can observe the flag. Errors are fine — the thread may already
        // be past the accept.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for TelemetryServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Binds `addr` (e.g. `"127.0.0.1:9102"`, or port `0` for an ephemeral
/// port) and serves the telemetry endpoints from a background thread until
/// the returned handle stops or drops.
///
/// # Errors
///
/// Returns the bind error (address in use, permission, unparseable
/// address) — the caller decides whether that is fatal.
pub fn serve(addr: &str) -> std::io::Result<TelemetryServer> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&shutdown);
    let handle = std::thread::Builder::new()
        .name("maps-obs-http".into())
        .spawn(move || {
            for stream in listener.incoming() {
                if flag.load(Ordering::Acquire) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                // One connection at a time, bounded by the socket
                // timeouts: a scrape plane, not a web server.
                let _ = handle_connection(stream);
            }
        })
        .expect("spawn telemetry server thread");
    crate::info!("telemetry server listening on {addr}");
    Ok(TelemetryServer {
        addr,
        shutdown,
        handle: Some(handle),
    })
}

/// Starts the telemetry server when `MAPS_OBS_ADDR` is set. An address
/// that fails to bind (or parse) warns once through the `MAPS_LOG` error
/// sink and yields `None` — an observability knob must never take down
/// the run it observes.
pub fn serve_from_env() -> Option<TelemetryServer> {
    let raw = std::env::var("MAPS_OBS_ADDR").ok()?;
    let addr = raw.trim();
    if addr.is_empty() {
        return None;
    }
    match serve(addr) {
        Ok(server) => Some(server),
        Err(err) => {
            warn_invalid_env(
                "MAPS_OBS_ADDR",
                addr,
                "a bindable host:port, e.g. 127.0.0.1:9102",
            );
            crate::error!("telemetry server bind failed: {err}");
            None
        }
    }
}

fn handle_connection(mut stream: TcpStream) -> std::io::Result<()> {
    let Some(req) = read_request(&mut stream, 0)? else {
        return Ok(());
    };
    if req.method != "GET" {
        return write_response(&mut stream, 405, "text/plain", "only GET is supported\n");
    }
    crate::counter("obs.http.requests").inc();
    match telemetry_response(&req) {
        Some((status, content_type, body)) => {
            write_response(&mut stream, status, content_type, &body)
        }
        None => write_response(&mut stream, 404, "text/plain", "unknown endpoint\n"),
    }
}

/// Renders the shared telemetry endpoints for a parsed request, returning
/// `None` when the path is not a telemetry endpoint (so an embedding server
/// like `mapsd` can mount these routes *after* its own).
///
/// Handles `/metrics`, `/snapshot`, `/healthz`, `/readyz` (watchdog-backed),
/// `/trace?last=N`, `/requests?last=N` (canonical wide events), and
/// `/series/<name>`.
pub fn telemetry_response(req: &Request) -> Option<(u16, &'static str, String)> {
    match req.path.as_str() {
        "/metrics" => Some((
            200,
            "text/plain; version=0.0.4",
            crate::global().prometheus_text(),
        )),
        "/snapshot" => Some((200, "application/json", crate::global().to_json())),
        "/healthz" => Some((200, "text/plain", "ok\n".to_string())),
        "/readyz" => Some(readiness_response(&[])),
        "/trace" => {
            let last = req
                .query_param("last")
                .and_then(|v| v.parse::<usize>().ok())
                .unwrap_or(usize::MAX);
            let spans = recorder::snapshot_last(last);
            Some((200, "application/json", crate::chrome_trace(&spans)))
        }
        "/requests" => {
            let last = req
                .query_param("last")
                .and_then(|v| v.parse::<usize>().ok())
                .unwrap_or(100);
            Some((200, "application/json", crate::reqlog::recent_json(last)))
        }
        path => {
            let name = path.strip_prefix("/series/")?;
            Some(match series_get(name) {
                Some(series) => (200, "text/csv", series.to_csv()),
                None => (404, "text/plain", format!("no series named {name:?}\n")),
            })
        }
    }
}

/// The watchdog-backed `/readyz` body, with caller-supplied extra failure
/// reasons (e.g. `mapsd` passes "queue saturated" while shedding).
///
/// Ready (200) only when the watchdog sees no stalled spans *and* no extra
/// reasons are given; otherwise 503 with one reason per line.
pub fn readiness_response(extra_reasons: &[String]) -> (u16, &'static str, String) {
    let stalled = watchdog::stalled_spans();
    if stalled.is_empty() && extra_reasons.is_empty() {
        return (200, "text/plain", "ready\n".to_string());
    }
    let mut body = String::from("not ready:\n");
    for s in &stalled {
        body.push_str("  stalled span: ");
        body.push_str(s);
        body.push('\n');
    }
    for r in extra_reasons {
        body.push_str("  ");
        body.push_str(r);
        body.push('\n');
    }
    (503, "text/plain", body)
}

/// Writes a complete `Connection: close` HTTP/1.1 response.
///
/// # Errors
///
/// Propagates socket write failures.
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    let reason = match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Error",
    };
    let header = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(header.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimal test-side HTTP client (std-only like everything else).
    fn get(addr: SocketAddr, path: &str) -> (u16, String) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        write!(stream, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").expect("write request");
        let mut raw = String::new();
        stream.read_to_string(&mut raw).expect("read response");
        let status: u16 = raw
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .expect("status line");
        let body = raw
            .split_once("\r\n\r\n")
            .map(|(_, b)| b.to_string())
            .unwrap_or_default();
        (status, body)
    }

    #[test]
    fn serves_all_endpoints_on_ephemeral_port() {
        let server = serve("127.0.0.1:0").expect("bind ephemeral");
        let addr = server.addr();
        crate::counter("obs.http.test.hits").add(3);
        crate::series("obs.http.test.series").push(1, 0.5);

        let (status, body) = get(addr, "/metrics");
        assert_eq!(status, 200);
        assert!(body.contains("obs_http_test_hits_total 3"), "{body}");

        let (status, body) = get(addr, "/snapshot");
        assert_eq!(status, 200);
        assert!(body.contains("\"obs.http.test.hits\":3"), "{body}");

        let (status, body) = get(addr, "/series/obs.http.test.series");
        assert_eq!(status, 200);
        assert!(body.starts_with("step,value\n"), "{body}");

        let (status, _) = get(addr, "/series/no.such.series");
        assert_eq!(status, 404);

        let (status, body) = get(addr, "/trace?last=5");
        assert_eq!(status, 200);
        assert!(body.starts_with("{\"traceEvents\":["), "{body}");

        // The ring is shared test-global state, so assert shape, not count.
        let (status, body) = get(addr, "/requests?last=3");
        assert_eq!(status, 200);
        let trimmed = body.trim_end();
        assert!(trimmed.starts_with('[') && trimmed.ends_with(']'), "{body}");

        let (status, body) = get(addr, "/healthz");
        assert_eq!(status, 200);
        assert_eq!(body, "ok\n");

        let (status, _) = get(addr, "/readyz");
        assert_eq!(status, 200);

        let (status, _) = get(addr, "/nope");
        assert_eq!(status, 404);

        server.stop();
    }

    #[test]
    fn post_is_rejected() {
        let server = serve("127.0.0.1:0").expect("bind ephemeral");
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        write!(stream, "POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap();
        assert!(raw.starts_with("HTTP/1.1 405"), "{raw}");
    }

    #[test]
    fn read_request_parses_a_post_with_body() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let client = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).expect("connect");
            write!(
                s,
                "POST /solve?trace=1 HTTP/1.1\r\nHost: x\r\nContent-Length: 11\r\n\r\nhello world"
            )
            .expect("write");
            s.flush().expect("flush");
            let mut out = String::new();
            let _ = s.read_to_string(&mut out);
            out
        });
        let (mut stream, _) = listener.accept().expect("accept");
        let req = read_request(&mut stream, 1024)
            .expect("io")
            .expect("parsed request");
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/solve");
        assert_eq!(req.query_param("trace"), Some("1"));
        assert_eq!(req.query_param("missing"), None);
        assert_eq!(req.body_str(), "hello world");
        write_response(&mut stream, 200, "text/plain", "done\n").expect("respond");
        drop(stream); // EOF so the client's read_to_string returns
        let raw = client.join().expect("client");
        assert!(raw.starts_with("HTTP/1.1 200"), "{raw}");
        assert!(raw.ends_with("done\n"), "{raw}");
    }

    #[test]
    fn oversized_body_is_rejected_with_413() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let client = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).expect("connect");
            write!(
                s,
                "POST /solve HTTP/1.1\r\nHost: x\r\nContent-Length: 999\r\n\r\n"
            )
            .expect("write");
            let mut out = String::new();
            let _ = s.read_to_string(&mut out);
            out
        });
        let (mut stream, _) = listener.accept().expect("accept");
        let parsed = read_request(&mut stream, 100).expect("io");
        assert!(parsed.is_none(), "oversized body must not parse");
        drop(stream);
        let raw = client.join().expect("client");
        assert!(raw.starts_with("HTTP/1.1 413"), "{raw}");
    }

    #[test]
    fn stop_joins_and_frees_the_port() {
        let server = serve("127.0.0.1:0").expect("bind ephemeral");
        let addr = server.addr();
        server.stop();
        // The listener is gone; a rebind of the same port succeeds.
        let rebound = TcpListener::bind(addr);
        assert!(rebound.is_ok(), "port still held after stop");
    }
}
