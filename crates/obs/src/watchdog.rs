//! Stall watchdog: a sampling thread that turns "the process is still
//! alive but nothing is happening" into counters and a readiness bit.
//!
//! The flight recorder only sees *completed* spans, so a solve that hangs
//! forever is invisible to it. While the watchdog is running, every span
//! additionally registers in an **open-span table** on open and deregisters
//! on close; the watchdog thread samples that table (and the global counter
//! registry) every `interval` and:
//!
//! - bumps `obs.watchdog.slow_solves` the first time an open span outlives
//!   the *slow* threshold of its deadline class;
//! - bumps `obs.watchdog.stalls` and flips readiness to *not ready* the
//!   first time an open span outlives the *stall* threshold — readiness
//!   recovers as soon as no overdue span remains open;
//! - detects **flatline**: open spans exist but no counter in the global
//!   registry (other than the watchdog's own) moved for `flatline_ticks`
//!   consecutive samples (a wedged worker holding a span without making
//!   progress), which also counts as a stall until progress resumes.
//!
//! Deadline classes are longest-prefix matches on the span name
//! ([`set_deadline`]), so `fdfd.factorize` can get a tighter budget than a
//! whole `solver.solve_batch`. The `/healthz` and `/readyz` endpoints of
//! the telemetry server reflect [`is_ready`]/[`stalled_spans`].
//!
//! Cost when off: one relaxed atomic load per span open (the tracking
//! flag); the table and the sampling thread exist only while running.
//! Enable via [`start`] or the `MAPS_WATCHDOG_MS` knob
//! ([`start_from_env`]).

use crate::env::parse_env_or;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Default sampling interval when `MAPS_WATCHDOG_MS` is set but empty or
/// invalid is handled by [`parse_env_or`]; this is the documented default.
pub const DEFAULT_INTERVAL_MS: u64 = 500;

/// Consecutive no-progress samples (with work open) before a flatline
/// counts as a stall.
pub const DEFAULT_FLATLINE_TICKS: u32 = 20;

/// Slow/stall budget of one deadline class.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Deadline {
    /// Open-span age after which the span is counted as a slow solve.
    pub slow: Duration,
    /// Open-span age after which the span is counted as a stall and
    /// readiness drops.
    pub stall: Duration,
}

impl Deadline {
    /// The fallback class for span names with no registered prefix.
    pub const DEFAULT: Deadline = Deadline {
        slow: Duration::from_secs(30),
        stall: Duration::from_secs(300),
    };
}

struct OpenSpan {
    name: String,
    thread_id: u64,
    opened: Instant,
    flagged_slow: bool,
    flagged_stall: bool,
}

#[derive(Default)]
struct DeadlineTable {
    /// `(name prefix, deadline)`, matched longest-prefix-first.
    classes: Vec<(String, Deadline)>,
    default: Option<Deadline>,
}

struct State {
    open: Mutex<HashMap<u64, OpenSpan>>,
    deadlines: Mutex<DeadlineTable>,
    /// Progress signature (sum of all registry counters) at the last
    /// sample, plus how many consecutive samples it has been unchanged
    /// while spans were open.
    flatline: Mutex<(u64, u32)>,
    /// Latched true while a flatline episode is in progress (cleared when
    /// progress resumes), so one episode bumps the stall counter once.
    flatlined: AtomicBool,
    ready: AtomicBool,
}

static TRACKING: AtomicBool = AtomicBool::new(false);
static RUNNING: AtomicBool = AtomicBool::new(false);

fn state() -> &'static State {
    static STATE: OnceLock<State> = OnceLock::new();
    STATE.get_or_init(|| State {
        open: Mutex::new(HashMap::new()),
        deadlines: Mutex::new(DeadlineTable::default()),
        flatline: Mutex::new((0, 0)),
        flatlined: AtomicBool::new(false),
        ready: AtomicBool::new(true),
    })
}

/// True while spans must register in the open-span table (one relaxed load
/// — this is the only watchdog cost on the span fast path).
#[inline]
pub fn is_tracking() -> bool {
    TRACKING.load(Ordering::Relaxed)
}

pub(crate) fn open_span(id: u64, name: &str, thread_id: u64, opened: Instant) {
    state().open.lock().expect("watchdog open table").insert(
        id,
        OpenSpan {
            name: name.to_string(),
            thread_id,
            opened,
            flagged_slow: false,
            flagged_stall: false,
        },
    );
}

pub(crate) fn close_span(id: u64) {
    state()
        .open
        .lock()
        .expect("watchdog open table")
        .remove(&id);
}

/// Registers (or replaces) the deadline class for span names starting with
/// `prefix`. Longest matching prefix wins.
pub fn set_deadline(prefix: &str, deadline: Deadline) {
    let mut table = state().deadlines.lock().expect("watchdog deadlines");
    if let Some(entry) = table.classes.iter_mut().find(|(p, _)| p == prefix) {
        entry.1 = deadline;
    } else {
        table.classes.push((prefix.to_string(), deadline));
    }
}

/// Overrides the fallback deadline for span names with no registered class.
pub fn set_default_deadline(deadline: Deadline) {
    state()
        .deadlines
        .lock()
        .expect("watchdog deadlines")
        .default = Some(deadline);
}

/// The deadline class of a span name (longest registered prefix, falling
/// back to the default class).
pub fn deadline_for(name: &str) -> Deadline {
    let table = state().deadlines.lock().expect("watchdog deadlines");
    table
        .classes
        .iter()
        .filter(|(p, _)| name.starts_with(p.as_str()))
        .max_by_key(|(p, _)| p.len())
        .map(|(_, d)| *d)
        .unwrap_or_else(|| table.default.unwrap_or(Deadline::DEFAULT))
}

/// Installs the built-in deadline classes for MAPS span names. Called by
/// [`start`]; idempotent (explicit [`set_deadline`] calls made before
/// `start` survive because replacement is by exact prefix).
fn install_default_classes() {
    let defaults: [(&str, u64, u64); 4] = [
        // (prefix, slow secs, stall secs)
        ("fdfd.factorize", 10, 120),
        ("fdfd.solve", 10, 120),
        ("solver.solve_batch", 30, 300),
        ("solver.solve", 10, 120),
    ];
    let mut table = state().deadlines.lock().expect("watchdog deadlines");
    for (prefix, slow, stall) in defaults {
        if !table.classes.iter().any(|(p, _)| p == prefix) {
            table.classes.push((
                prefix.to_string(),
                Deadline {
                    slow: Duration::from_secs(slow),
                    stall: Duration::from_secs(stall),
                },
            ));
        }
    }
}

/// True when no stall condition is active (always true when the watchdog
/// never ran). The `/readyz` endpoint serves 503 while this is false.
pub fn is_ready() -> bool {
    state().ready.load(Ordering::Relaxed)
}

/// Names of currently open spans that have outlived their stall deadline,
/// oldest first (empty when healthy). Rendered into `/readyz` bodies.
pub fn stalled_spans() -> Vec<String> {
    let open = state().open.lock().expect("watchdog open table");
    let mut stalled: Vec<(&OpenSpan, ())> = open
        .values()
        .filter(|s| s.flagged_stall)
        .map(|s| (s, ()))
        .collect();
    stalled.sort_by_key(|(s, ())| s.opened);
    stalled
        .into_iter()
        .map(|(s, ())| format!("{} (thread {})", s.name, s.thread_id))
        .collect()
}

/// The flatline progress signature of a counter snapshot: the sum of every
/// counter except the watchdog's own (`obs.watchdog.*`), so *any* progress
/// (solves, cache hits, samples, retries) changes it, and neither a tick
/// nor a stall the watchdog itself declared does.
fn progress_signature(counters: &[(String, u64)]) -> u64 {
    counters
        .iter()
        .filter(|(name, _)| !name.starts_with("obs.watchdog."))
        .map(|(_, v)| *v)
        .fold(0u64, u64::wrapping_add)
}

/// One watchdog sample over the open-span table, given the current
/// [`progress_signature`]. Split out from the thread loop, and the
/// signature passed in, so tests can drive it deterministically: other
/// tests in the same process move global counters at any time.
pub(crate) fn tick(now: Instant, flatline_ticks: u32, signature: u64) {
    let st = state();
    maps_counter("obs.watchdog.ticks").inc();

    let mut any_stalled = false;
    let open_count;
    {
        let mut open = st.open.lock().expect("watchdog open table");
        open_count = open.len();
        for span in open.values_mut() {
            let age = now.saturating_duration_since(span.opened);
            let deadline = deadline_for(&span.name);
            if !span.flagged_slow && age > deadline.slow {
                span.flagged_slow = true;
                maps_counter("obs.watchdog.slow_solves").inc();
                crate::error!(
                    "watchdog: span {:?} open for {:.1}s exceeds slow budget {:.1}s (thread {})",
                    span.name,
                    age.as_secs_f64(),
                    deadline.slow.as_secs_f64(),
                    span.thread_id
                );
            }
            if !span.flagged_stall && age > deadline.stall {
                span.flagged_stall = true;
                maps_counter("obs.watchdog.stalls").inc();
                crate::error!(
                    "watchdog: span {:?} open for {:.1}s exceeds stall budget {:.1}s (thread {}) — not ready",
                    span.name,
                    age.as_secs_f64(),
                    deadline.stall.as_secs_f64(),
                    span.thread_id
                );
            }
            any_stalled |= span.flagged_stall;
        }
    }

    // Flatline: spans are open but the progress signature has not moved
    // for `flatline_ticks` consecutive samples.
    let mut flatlined_now = false;
    if flatline_ticks > 0 {
        let mut flat = st.flatline.lock().expect("watchdog flatline");
        if signature == flat.0 && open_count > 0 {
            flat.1 = flat.1.saturating_add(1);
        } else {
            flat.1 = 0;
            st.flatlined.store(false, Ordering::Relaxed);
        }
        flat.0 = signature;
        if flat.1 >= flatline_ticks {
            flatlined_now = true;
            if !st.flatlined.swap(true, Ordering::Relaxed) {
                maps_counter("obs.watchdog.stalls").inc();
                crate::error!(
                    "watchdog: {} open span(s) but no counter progress for {} samples — not ready",
                    open_count,
                    flat.1
                );
            }
        }
    }

    let ready = !any_stalled && !flatlined_now;
    st.ready.store(ready, Ordering::Relaxed);
    crate::gauge("obs.watchdog.ready").set(if ready { 1.0 } else { 0.0 });
    crate::gauge("obs.watchdog.open_spans").set(open_count as f64);
}

fn maps_counter(name: &str) -> crate::Counter {
    crate::counter(name)
}

/// Handle to a running watchdog; stops (and joins) the sampling thread on
/// [`Watchdog::stop`] or drop.
pub struct Watchdog {
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Watchdog {
    /// Stops the sampling thread, disables open-span tracking, and resets
    /// readiness to healthy.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        RUNNING.store(false, Ordering::Release);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
        TRACKING.store(false, Ordering::Relaxed);
        let st = state();
        st.open.lock().expect("watchdog open table").clear();
        *st.flatline.lock().expect("watchdog flatline") = (0, 0);
        st.flatlined.store(false, Ordering::Relaxed);
        st.ready.store(true, Ordering::Relaxed);
        crate::gauge("obs.watchdog.ready").set(1.0);
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Starts the watchdog sampling thread. Returns `None` when one is already
/// running (the watchdog is process-global; the first caller wins).
///
/// `interval` is how often the open-span table is sampled;
/// `flatline_ticks` is how many consecutive no-progress samples count as a
/// stall (0 disables flatline detection).
pub fn start(interval: Duration, flatline_ticks: u32) -> Option<Watchdog> {
    if RUNNING.swap(true, Ordering::AcqRel) {
        return None;
    }
    install_default_classes();
    {
        // Fresh episode: stale flags from a previous watchdog must not leak.
        let st = state();
        *st.flatline.lock().expect("watchdog flatline") = (0, 0);
        st.flatlined.store(false, Ordering::Relaxed);
        st.ready.store(true, Ordering::Relaxed);
    }
    TRACKING.store(true, Ordering::Relaxed);
    let interval = interval.max(Duration::from_millis(1));
    let handle = std::thread::Builder::new()
        .name("maps-watchdog".into())
        .spawn(move || {
            while RUNNING.load(Ordering::Acquire) {
                std::thread::sleep(interval);
                if !RUNNING.load(Ordering::Acquire) {
                    break;
                }
                let signature = progress_signature(&crate::global().counters());
                tick(Instant::now(), flatline_ticks, signature);
            }
        })
        .expect("spawn watchdog thread");
    Some(Watchdog {
        handle: Some(handle),
    })
}

/// Starts the watchdog when `MAPS_WATCHDOG_MS` is set (interval in
/// milliseconds; invalid values warn once and use
/// [`DEFAULT_INTERVAL_MS`]). Returns `None` when the knob is unset or a
/// watchdog is already running.
pub fn start_from_env() -> Option<Watchdog> {
    std::env::var_os("MAPS_WATCHDOG_MS")?;
    let ms = parse_env_or("MAPS_WATCHDOG_MS", DEFAULT_INTERVAL_MS).max(1);
    start(
        Duration::from_millis(ms),
        parse_env_or("MAPS_WATCHDOG_FLATLINE_TICKS", DEFAULT_FLATLINE_TICKS),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    // The watchdog is process-global; unit tests here drive `tick`
    // directly (no thread) and serialize on a local mutex so flags and the
    // open-span table don't interleave.
    static SERIAL: Mutex<()> = Mutex::new(());

    fn reset() {
        let st = state();
        st.open.lock().unwrap().clear();
        *st.flatline.lock().unwrap() = (0, 0);
        st.flatlined.store(false, Ordering::Relaxed);
        st.ready.store(true, Ordering::Relaxed);
    }

    #[test]
    fn deadline_lookup_prefers_longest_prefix() {
        let _g = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
        set_deadline(
            "test.a",
            Deadline {
                slow: Duration::from_secs(1),
                stall: Duration::from_secs(2),
            },
        );
        set_deadline(
            "test.a.b",
            Deadline {
                slow: Duration::from_secs(3),
                stall: Duration::from_secs(4),
            },
        );
        assert_eq!(deadline_for("test.a.b.c").slow, Duration::from_secs(3));
        assert_eq!(deadline_for("test.a.x").slow, Duration::from_secs(1));
        assert_eq!(deadline_for("unmatched"), Deadline::DEFAULT);
    }

    #[test]
    fn overdue_open_span_flags_slow_then_stall_and_recovers() {
        let _g = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
        reset();
        set_deadline(
            "test.slowpoke",
            Deadline {
                slow: Duration::from_millis(10),
                stall: Duration::from_millis(50),
            },
        );
        let opened = Instant::now();
        open_span(9001, "test.slowpoke.solve", 1, opened);

        let stalls = crate::counter("obs.watchdog.stalls");
        let slows = crate::counter("obs.watchdog.slow_solves");
        let (stalls0, slows0) = (stalls.get(), slows.get());

        // Young span: healthy.
        tick(opened + Duration::from_millis(5), 0, 0);
        assert!(is_ready());
        assert_eq!(slows.get(), slows0);

        // Past slow, before stall.
        tick(opened + Duration::from_millis(20), 0, 0);
        assert!(is_ready());
        assert_eq!(slows.get(), slows0 + 1);
        assert_eq!(stalls.get(), stalls0);

        // Past stall: not ready, counted once even across repeat ticks.
        tick(opened + Duration::from_millis(60), 0, 0);
        tick(opened + Duration::from_millis(70), 0, 0);
        assert!(!is_ready());
        assert_eq!(stalls.get(), stalls0 + 1);
        assert_eq!(stalled_spans().len(), 1);
        assert!(stalled_spans()[0].contains("test.slowpoke.solve"));

        // Span closes: readiness recovers on the next sample.
        close_span(9001);
        tick(opened + Duration::from_millis(80), 0, 0);
        assert!(is_ready());
        assert!(stalled_spans().is_empty());
        reset();
    }

    #[test]
    fn flatline_with_open_work_is_a_stall_until_progress_resumes() {
        let _g = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
        reset();
        let opened = Instant::now();
        open_span(9002, "test.flatline.work", 2, opened);
        let stalls = crate::counter("obs.watchdog.stalls");
        let stalls0 = stalls.get();

        // Tick 1 records the signature; ticks 2..=3 see it unchanged.
        tick(opened, 2, 7);
        tick(opened + Duration::from_millis(1), 2, 7);
        tick(opened + Duration::from_millis(2), 2, 7);
        assert!(!is_ready(), "flatline with open work drops readiness");
        assert_eq!(stalls.get(), stalls0 + 1, "one stall per episode");
        tick(opened + Duration::from_millis(3), 2, 7);
        assert!(!is_ready(), "the episode lasts until progress resumes");
        assert_eq!(stalls.get(), stalls0 + 1, "episode counted once");

        // Any counter movement is progress and recovers readiness.
        tick(opened + Duration::from_millis(4), 2, 8);
        assert!(is_ready());
        close_span(9002);
        reset();
    }

    /// The watchdog's own counters are not progress: a stall it declares
    /// must not reset the flatline clock.
    #[test]
    fn progress_signature_ignores_the_watchdogs_own_counters() {
        let snapshot = |stalls: u64, work: u64| {
            vec![
                ("fdfd.solves".to_string(), work),
                ("obs.watchdog.slow_solves".to_string(), 3),
                ("obs.watchdog.stalls".to_string(), stalls),
                ("obs.watchdog.ticks".to_string(), 40 + stalls),
            ]
        };
        let base = progress_signature(&snapshot(1, 7));
        assert_eq!(base, 7);
        assert_eq!(progress_signature(&snapshot(2, 7)), base);
        assert_ne!(progress_signature(&snapshot(2, 8)), base);
    }

    #[test]
    fn idle_process_never_flatlines() {
        let _g = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
        reset();
        let now = Instant::now();
        for k in 0..10 {
            tick(now + Duration::from_millis(k), 2, 7);
        }
        assert!(is_ready(), "no open spans means no flatline stall");
        reset();
    }
}
