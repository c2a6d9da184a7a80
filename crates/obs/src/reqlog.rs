//! Canonical wide events: one structured JSON record per served request.
//!
//! A *wide event* is the per-request counterpart of a metric: instead of
//! incrementing twelve counters that can never be joined back together, the
//! serving path emits exactly **one** JSON object carrying everything known
//! about the request — id, client, endpoint, coalescing outcome, fidelity,
//! disposition, and the full timing breakdown. The event is the unit of
//! forensics: "why was request X slow" is answered by reading its event,
//! not by correlating dashboards.
//!
//! Events land in two places:
//!
//! - an in-memory **drop-oldest ring** (capacity `MAPS_REQUEST_LOG_CAP`,
//!   default [`DEFAULT_CAPACITY`], floored at 1) served live at
//!   `GET /requests?last=N`;
//! - optionally, an append-only JSONL **access log** (`MAPS_ACCESS_LOG=
//!   path`). The write is decoupled from the serving path by a bounded
//!   queue and a dedicated writer thread: when the queue is full the event
//!   is *dropped and counted* (`obs.access_log.dropped`), never allowed to
//!   stall a worker on disk I/O. [`flush_access_log`] lets a process drain
//!   the queue before exit.
//!
//! Rendering happens once, at record time, under no lock: the ring and the
//! writer both carry the final JSON line, so a concurrent `GET /requests`
//! can never observe a half-built event (no tearing).

use crate::metrics::JsonWriter;
use std::collections::VecDeque;
use std::io::Write as _;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Ring capacity when `MAPS_REQUEST_LOG_CAP` is unset.
pub const DEFAULT_CAPACITY: usize = 4096;

/// Bounded handoff between serving threads and the access-log writer.
const WRITER_QUEUE: usize = 1024;

/// One typed field value of a [`WideEvent`].
#[derive(Clone, Debug)]
enum Field {
    Str(String),
    U64(u64),
    F64(f64),
    Bool(bool),
    Null,
}

/// Builder for one wide event: ordered `key → typed value` pairs rendered
/// as a single-line JSON object.
///
/// ```
/// let mut ev = maps_obs::reqlog::WideEvent::new();
/// ev.set_str("endpoint", "/solve");
/// ev.set_u64("status", 200);
/// ev.set_f64("total_us", 1250.0);
/// assert!(ev.to_json().contains("\"endpoint\":\"/solve\""));
/// ```
#[derive(Clone, Debug, Default)]
pub struct WideEvent {
    pairs: Vec<(String, Field)>,
}

impl WideEvent {
    /// An empty event.
    pub fn new() -> Self {
        WideEvent::default()
    }

    fn set(&mut self, key: &str, value: Field) {
        match self.pairs.iter_mut().find(|(k, _)| k == key) {
            Some(entry) => entry.1 = value,
            None => self.pairs.push((key.to_string(), value)),
        }
    }

    /// Sets a string field (last write per key wins).
    pub fn set_str(&mut self, key: &str, value: impl Into<String>) {
        self.set(key, Field::Str(value.into()));
    }

    /// Sets an unsigned integer field.
    pub fn set_u64(&mut self, key: &str, value: u64) {
        self.set(key, Field::U64(value));
    }

    /// Sets a float field (non-finite values render as `null`).
    pub fn set_f64(&mut self, key: &str, value: f64) {
        self.set(key, Field::F64(value));
    }

    /// Sets a boolean field.
    pub fn set_bool(&mut self, key: &str, value: bool) {
        self.set(key, Field::Bool(value));
    }

    /// Sets an explicit `null` field (the key is present but unknown).
    pub fn set_null(&mut self, key: &str) {
        self.set(key, Field::Null);
    }

    /// Renders the event as one compact JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new(false);
        w.open_obj();
        for (key, value) in &self.pairs {
            w.key(key);
            match value {
                Field::Str(s) => w.string(s),
                Field::U64(v) => w.raw(&v.to_string()),
                Field::F64(v) => w.number(*v),
                Field::Bool(b) => w.raw(if *b { "true" } else { "false" }),
                Field::Null => w.raw("null"),
            }
        }
        w.close_obj();
        w.finish()
    }
}

/// Seconds since the Unix epoch as an `f64` (wall-clock event timestamp).
pub fn unix_seconds() -> f64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs_f64())
        .unwrap_or(0.0)
}

static RING: Mutex<VecDeque<String>> = Mutex::new(VecDeque::new());
/// `usize::MAX` means "not decided yet, consult the env".
static CAPACITY: AtomicUsize = AtomicUsize::new(usize::MAX);
static TOTAL: AtomicU64 = AtomicU64::new(0);
static RING_DROPPED: AtomicU64 = AtomicU64::new(0);

/// The ring's event capacity, at least 1 (a capacity of 0 keeps the newest
/// event). Reads `MAPS_REQUEST_LOG_CAP` on first call unless
/// [`set_capacity`] overrode it.
pub fn capacity() -> usize {
    let cap = CAPACITY.load(Ordering::Relaxed);
    if cap != usize::MAX {
        return cap;
    }
    let parsed = crate::env::parse_env_or("MAPS_REQUEST_LOG_CAP", DEFAULT_CAPACITY).max(1);
    CAPACITY.store(parsed, Ordering::Relaxed);
    parsed
}

/// Overrides the ring capacity (wins over `MAPS_REQUEST_LOG_CAP`; floored
/// at 1).
pub fn set_capacity(cap: usize) {
    CAPACITY.store(cap.max(1), Ordering::Relaxed);
}

/// Records one wide event: renders it, appends to the ring (evicting
/// oldest at capacity), and forwards the line to the access-log writer
/// when `MAPS_ACCESS_LOG` is configured.
pub fn record(event: &WideEvent) {
    let line = event.to_json();
    TOTAL.fetch_add(1, Ordering::Relaxed);
    let cap = capacity();
    {
        let mut ring = RING.lock().expect("wide-event ring");
        while ring.len() >= cap {
            ring.pop_front();
            RING_DROPPED.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(line.clone());
    }
    if let Some(sink) = access_log() {
        sink.submit(line);
    }
}

/// The most recent `n` event lines, oldest first.
pub fn recent(n: usize) -> Vec<String> {
    let ring = RING.lock().expect("wide-event ring");
    let skip = ring.len().saturating_sub(n);
    ring.iter().skip(skip).cloned().collect()
}

/// The most recent `n` events rendered as one JSON array (what
/// `GET /requests?last=N` serves).
pub fn recent_json(n: usize) -> String {
    let events = recent(n);
    let mut out = String::with_capacity(events.iter().map(String::len).sum::<usize>() + 16);
    out.push('[');
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(e);
    }
    out.push(']');
    out
}

/// Events recorded since process start (the reconciliation counter:
/// one per admission, including sheds).
pub fn total() -> u64 {
    TOTAL.load(Ordering::Relaxed)
}

/// Events the ring evicted oldest-first because it was full.
pub fn ring_dropped() -> u64 {
    RING_DROPPED.load(Ordering::Relaxed)
}

/// Clears the ring and the reconciliation counters (test isolation; the
/// access-log sink is unaffected).
#[doc(hidden)]
pub fn reset() {
    RING.lock().expect("wide-event ring").clear();
    TOTAL.store(0, Ordering::Relaxed);
    RING_DROPPED.store(0, Ordering::Relaxed);
}

// --- non-blocking access-log writer ----------------------------------------

struct AccessLog {
    tx: SyncSender<String>,
    submitted: AtomicU64,
    written: Arc<AtomicU64>,
}

impl AccessLog {
    fn submit(&self, line: String) {
        match self.tx.try_send(line) {
            Ok(()) => {
                self.submitted.fetch_add(1, Ordering::Relaxed);
            }
            Err(TrySendError::Full(_) | TrySendError::Disconnected(_)) => {
                // Drop, never block: the log is an observer of the serving
                // path, not a participant in it.
                crate::counter("obs.access_log.dropped").inc();
            }
        }
    }
}

static SINK: OnceLock<Option<AccessLog>> = OnceLock::new();

fn start_writer(path: &str) -> Option<AccessLog> {
    let file = match std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
    {
        Ok(f) => f,
        Err(e) => {
            crate::warn_invalid_env("MAPS_ACCESS_LOG", path, "a writable file path");
            crate::error!("access log open failed: {e}");
            return None;
        }
    };
    let (tx, rx) = sync_channel::<String>(WRITER_QUEUE);
    let written = Arc::new(AtomicU64::new(0));
    let written_in_thread = Arc::clone(&written);
    let spawned = std::thread::Builder::new()
        .name("maps-access-log".into())
        .spawn(move || {
            let mut file = file;
            while let Ok(line) = rx.recv() {
                // An unbuffered per-line write: event rate is request rate,
                // and losing buffered lines on abrupt exit would make the
                // log unreconcilable.
                let _ = file.write_all(line.as_bytes());
                let _ = file.write_all(b"\n");
                written_in_thread.fetch_add(1, Ordering::Release);
            }
            let _ = file.flush();
        });
    if spawned.is_err() {
        crate::error!("access log writer thread failed to spawn");
        return None;
    }
    Some(AccessLog {
        tx,
        submitted: AtomicU64::new(0),
        written,
    })
}

fn access_log() -> Option<&'static AccessLog> {
    SINK.get_or_init(|| {
        let path = std::env::var("MAPS_ACCESS_LOG").ok()?;
        let path = path.trim();
        if path.is_empty() {
            return None;
        }
        start_writer(path)
    })
    .as_ref()
}

/// Blocks until every submitted access-log line has been written (or
/// `timeout` elapses). Returns `true` when the log is fully drained — a
/// process calls this before exit so the JSONL on disk reconciles with
/// [`total`]. A no-op `true` when no access log is configured.
pub fn flush_access_log(timeout: Duration) -> bool {
    let Some(sink) = SINK.get().and_then(Option::as_ref) else {
        return true;
    };
    let deadline = Instant::now() + timeout;
    loop {
        let submitted = sink.submitted.load(Ordering::Relaxed);
        if sink.written.load(Ordering::Acquire) >= submitted {
            return true;
        }
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The ring is process-global and unit tests run in parallel; every
    // test here serializes on this lock and resets the ring.
    static RING_TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn event_renders_typed_fields_and_escapes() {
        let mut ev = WideEvent::new();
        ev.set_str("endpoint", "/solve");
        ev.set_str("client", "10.0.0.1");
        ev.set_u64("status", 200);
        ev.set_f64("total_us", 1250.5);
        ev.set_f64("bad", f64::NAN);
        ev.set_bool("sampled", true);
        ev.set_null("residual");
        ev.set_str("error", "a \"quoted\"\nreason");
        let json = ev.to_json();
        assert!(json.contains("\"endpoint\":\"/solve\""), "{json}");
        assert!(json.contains("\"status\":200"), "{json}");
        assert!(json.contains("\"total_us\":1250.5"), "{json}");
        assert!(json.contains("\"bad\":null"), "{json}");
        assert!(json.contains("\"sampled\":true"), "{json}");
        assert!(json.contains("\"residual\":null"), "{json}");
        assert!(json.contains("\\\"quoted\\\"\\n"), "{json}");
        // Round-trips through a JSON parser.
        let parsed: serde::Value = serde_json::from_str(&json).expect("valid JSON");
        assert_eq!(parsed.field("status").unwrap().as_f64().unwrap(), 200.0);
    }

    #[test]
    fn last_write_per_key_wins() {
        let mut ev = WideEvent::new();
        ev.set_str("disposition", "ok");
        ev.set_str("disposition", "degraded");
        let json = ev.to_json();
        assert!(json.contains("\"disposition\":\"degraded\""), "{json}");
        assert_eq!(json.matches("disposition").count(), 1, "{json}");
    }

    #[test]
    fn ring_is_bounded_and_drop_oldest() {
        let _guard = RING_TEST_LOCK.lock().unwrap();
        reset();
        set_capacity(3);
        for i in 0..5 {
            let mut ev = WideEvent::new();
            ev.set_u64("seq", i);
            record(&ev);
        }
        let recent = recent(10);
        assert_eq!(recent.len(), 3, "{recent:?}");
        assert!(recent[0].contains("\"seq\":2"), "{recent:?}");
        assert!(recent[2].contains("\"seq\":4"), "{recent:?}");
        assert_eq!(total(), 5);
        assert_eq!(ring_dropped(), 2);
        let arr = recent_json(2);
        assert!(arr.starts_with('[') && arr.ends_with(']'), "{arr}");
        let parsed: serde::Value = serde_json::from_str(&arr).expect("valid array");
        assert_eq!(parsed.as_arr().unwrap().len(), 2);

        // A capacity of 0 is floored at 1: the ring keeps the newest event
        // instead of growing without bound.
        reset();
        set_capacity(0);
        assert_eq!(capacity(), 1);
        for i in 0..4 {
            let mut ev = WideEvent::new();
            ev.set_u64("seq", i);
            record(&ev);
        }
        let newest = super::recent(10);
        assert_eq!(newest.len(), 1, "{newest:?}");
        assert!(newest[0].contains("\"seq\":3"), "{newest:?}");
        assert_eq!(ring_dropped(), 3);
        set_capacity(DEFAULT_CAPACITY);
        reset();
    }

    #[test]
    fn flush_without_a_sink_is_trivially_true() {
        assert!(flush_access_log(Duration::from_millis(1)));
    }
}
