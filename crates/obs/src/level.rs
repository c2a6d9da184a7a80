//! `MAPS_LOG`-controlled stderr logging.
//!
//! The level is parsed from the environment once and cached in an atomic, so
//! the per-call cost on instrumented hot paths is a single relaxed load.

use std::fmt;
use std::sync::atomic::{AtomicU8, Ordering};

/// Verbosity of the stderr sink, ordered `Off < Error < Info < Debug`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    /// No output at all (the default when `MAPS_LOG` is unset).
    Off = 0,
    /// Failures only.
    Error = 1,
    /// Coarse progress (per-epoch, per-design-iteration).
    Info = 2,
    /// Span entry/exit with timings.
    Debug = 3,
}

impl fmt::Display for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Level::Off => "off",
            Level::Error => "error",
            Level::Info => "info",
            Level::Debug => "debug",
        })
    }
}

const UNSET: u8 = u8::MAX;
static LEVEL: AtomicU8 = AtomicU8::new(UNSET);

fn decode(v: u8) -> Level {
    match v {
        1 => Level::Error,
        2 => Level::Info,
        3 => Level::Debug,
        _ => Level::Off,
    }
}

fn parse_env() -> Level {
    match std::env::var("MAPS_LOG").as_deref() {
        Ok("error") => Level::Error,
        Ok("info") => Level::Info,
        Ok("debug") => Level::Debug,
        // "off", unset, non-UTF-8, or anything unrecognized: stay silent.
        _ => Level::Off,
    }
}

/// The active log level (reads `MAPS_LOG` on first call, cached afterwards).
pub fn level() -> Level {
    let raw = LEVEL.load(Ordering::Relaxed);
    if raw != UNSET {
        return decode(raw);
    }
    let parsed = parse_env();
    LEVEL.store(parsed as u8, Ordering::Relaxed);
    parsed
}

/// Overrides the log level programmatically (wins over `MAPS_LOG`).
pub fn set_level(l: Level) {
    LEVEL.store(l as u8, Ordering::Relaxed);
}

/// True when messages at `l` should be emitted.
pub fn enabled(l: Level) -> bool {
    l != Level::Off && level() >= l
}

/// Writes one line to stderr. Callers must check [`enabled`] first — the
/// [`error!`](crate::error!)/[`info!`](crate::info!)/[`debug!`](crate::debug!)
/// macros do this so that disabled levels never format their arguments.
pub fn emit(l: Level, msg: &str) {
    eprintln!("[maps:{l}] {msg}");
}

/// Logs at [`Level::Error`]; arguments are not formatted when disabled.
#[macro_export]
macro_rules! error {
    ($($arg:tt)*) => {
        if $crate::enabled($crate::Level::Error) {
            $crate::emit($crate::Level::Error, &format!($($arg)*));
        }
    };
}

/// Logs at [`Level::Info`]; arguments are not formatted when disabled.
#[macro_export]
macro_rules! info {
    ($($arg:tt)*) => {
        if $crate::enabled($crate::Level::Info) {
            $crate::emit($crate::Level::Info, &format!($($arg)*));
        }
    };
}

/// Logs at [`Level::Debug`]; arguments are not formatted when disabled.
#[macro_export]
macro_rules! debug {
    ($($arg:tt)*) => {
        if $crate::enabled($crate::Level::Debug) {
            $crate::emit($crate::Level::Debug, &format!($($arg)*));
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_matches_verbosity() {
        assert!(Level::Off < Level::Error);
        assert!(Level::Error < Level::Info);
        assert!(Level::Info < Level::Debug);
    }

    #[test]
    fn set_level_controls_enabled() {
        // Tests share the process-global level; exercise transitions in one
        // place and restore Off at the end.
        set_level(Level::Info);
        assert!(enabled(Level::Error));
        assert!(enabled(Level::Info));
        assert!(!enabled(Level::Debug));
        set_level(Level::Off);
        assert!(!enabled(Level::Error));
        // `Off` messages are never "enabled", regardless of level.
        set_level(Level::Debug);
        assert!(!enabled(Level::Off));
        set_level(Level::Off);
    }
}
