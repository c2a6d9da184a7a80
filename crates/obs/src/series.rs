//! First-class convergence time-series.
//!
//! Metrics gauges only keep the *last* value of a quantity; a convergence
//! study needs the whole trajectory. A [`Series`] is an append-only list of
//! `(step, value)` points addressable by name through a process-wide
//! registry. It keeps the newest 65,536 points and drops the oldest, so a
//! long-lived process holds a bounded amount per name:
//!
//! ```
//! maps_obs::series("invdes.objective").push(0, 0.12);
//! maps_obs::series("invdes.objective").push(1, 0.19);
//! assert_eq!(maps_obs::series("invdes.objective").len(), 2);
//! # maps_obs::series_reset();
//! ```
//!
//! Hot loops push one point per iteration/epoch/solve, which is cheap
//! enough to leave on unconditionally; per-*inner*-iteration trajectories
//! (e.g. BiCGSTAB residuals) are gated on the flight recorder being
//! enabled. Export is post-hoc: [`Series::to_csv`] / [`Series::to_jsonl`]
//! render one series, and [`write_series_csv`] dumps every registered
//! series into a directory (the `MAPS_SERIES` knob routes through it).
//!
//! Values are formatted with Rust's shortest-roundtrip float formatter, so
//! a CSV parses back to bit-identical `f64`s and two identical seeded runs
//! produce byte-identical files.

use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock};

/// Points one series keeps; a push beyond it drops the oldest point.
const MAX_SERIES_POINTS: usize = 65_536;

struct SeriesInner {
    name: String,
    points: Mutex<VecDeque<(u64, f64)>>,
}

/// An append-only `(step, value)` trajectory of at most the newest 65,536
/// points. Cheap to clone; clones share state.
#[derive(Clone)]
pub struct Series(Arc<SeriesInner>);

impl Series {
    /// The series' registered name.
    pub fn name(&self) -> &str {
        &self.0.name
    }

    /// Appends one point, dropping the oldest when the series is full.
    /// Steps are recorded as given — pushes are not deduplicated or
    /// sorted, so callers control row order.
    pub fn push(&self, step: u64, value: f64) {
        let mut points = self.0.points.lock().expect("series points");
        if points.len() == MAX_SERIES_POINTS {
            points.pop_front();
        }
        points.push_back((step, value));
    }

    /// Number of recorded points.
    pub fn len(&self) -> usize {
        self.0.points.lock().expect("series points").len()
    }

    /// True when no points have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A copy of the recorded points, in push order.
    pub fn points(&self) -> Vec<(u64, f64)> {
        let points = self.0.points.lock().expect("series points");
        points.iter().copied().collect()
    }

    /// Renders the series as CSV with a `step,value` header. Values use the
    /// shortest representation that parses back to the same `f64`, so the
    /// file round-trips exactly and is byte-stable across identical runs.
    pub fn to_csv(&self) -> String {
        let points = self.points();
        let mut out = String::with_capacity(16 + points.len() * 24);
        out.push_str("step,value\n");
        for (step, value) in &points {
            let _ = writeln!(out, "{step},{}", FloatToken(*value));
        }
        out
    }

    /// Renders the series as JSON Lines, one
    /// `{"series":...,"step":...,"value":...}` object per point (NaN and
    /// infinities become `null`, keeping every line parseable).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (step, value) in self.points() {
            let _ = write!(
                out,
                "{{\"series\":\"{}\",\"step\":{step},\"value\":",
                self.0.name
            );
            if value.is_finite() {
                let _ = write!(out, "{value}");
            } else {
                out.push_str("null");
            }
            out.push_str("}\n");
        }
        out
    }
}

/// CSV cell formatting for `f64`: finite values print shortest-roundtrip;
/// NaN/±inf print as literals `f64::from_str` accepts, so the round-trip
/// guarantee holds for every representable value.
struct FloatToken(f64);

impl std::fmt::Display for FloatToken {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.0.is_nan() {
            f.write_str("NaN")
        } else if self.0 == f64::INFINITY {
            f.write_str("inf")
        } else if self.0 == f64::NEG_INFINITY {
            f.write_str("-inf")
        } else {
            write!(f, "{}", self.0)
        }
    }
}

fn registry() -> &'static Mutex<BTreeMap<String, Arc<SeriesInner>>> {
    static SERIES: OnceLock<Mutex<BTreeMap<String, Arc<SeriesInner>>>> = OnceLock::new();
    SERIES.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// Get-or-create the series `name` in the process-wide series registry.
pub fn series(name: &str) -> Series {
    let mut map = registry().lock().expect("series registry");
    Series(Arc::clone(map.entry(name.to_string()).or_insert_with(
        || {
            Arc::new(SeriesInner {
                name: name.to_string(),
                points: Mutex::new(VecDeque::new()),
            })
        },
    )))
}

/// Looks up the series `name` without creating it (the telemetry server's
/// `/series/<name>` endpoint uses this so scrapes of unknown names 404
/// instead of polluting the registry with empty series).
pub fn series_get(name: &str) -> Option<Series> {
    registry()
        .lock()
        .expect("series registry")
        .get(name)
        .map(|inner| Series(Arc::clone(inner)))
}

/// Every registered series, in name order.
pub fn all_series() -> Vec<Series> {
    registry()
        .lock()
        .expect("series registry")
        .values()
        .map(|inner| Series(Arc::clone(inner)))
        .collect()
}

/// Drops every registered series (test isolation; outstanding handles keep
/// working but detach from the registry).
pub fn series_reset() {
    registry().lock().expect("series registry").clear();
}

/// File-system-safe name for a series CSV: anything outside
/// `[A-Za-z0-9._-]` becomes `_`.
fn file_stem(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-') {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Writes every non-empty registered series to `dir/<name>.csv`, creating
/// the directory as needed. Returns the written paths in name order.
///
/// # Errors
///
/// Returns the first I/O error encountered creating the directory or
/// writing a file.
pub fn write_series_csv(dir: impl AsRef<Path>) -> std::io::Result<Vec<PathBuf>> {
    let dir = dir.as_ref();
    std::fs::create_dir_all(dir)?;
    let mut written = Vec::new();
    for s in all_series() {
        if s.is_empty() {
            continue;
        }
        let path = dir.join(format!("{}.csv", file_stem(s.name())));
        std::fs::write(&path, s.to_csv())?;
        written.push(path);
    }
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A series outside the registry, so tests do not share state.
    fn detached(name: &str) -> Series {
        Series(Arc::new(SeriesInner {
            name: name.into(),
            points: Mutex::new(VecDeque::new()),
        }))
    }

    #[test]
    fn a_full_series_drops_its_oldest_points() {
        let s = detached("capped");
        let pushed = MAX_SERIES_POINTS as u64 + 3;
        for step in 0..pushed {
            s.push(step, step as f64 * 0.5);
        }
        let points = s.points();
        assert_eq!(points.len(), MAX_SERIES_POINTS);
        for (k, (step, value)) in points.iter().enumerate() {
            let want = k as u64 + 3;
            assert_eq!((*step, *value), (want, want as f64 * 0.5), "row {k}");
        }
    }

    #[test]
    // The "excessive precision" literal is the point: its shortest
    // round-trip representation needs all those digits.
    #[allow(clippy::excessive_precision)]
    fn csv_roundtrips_exotic_floats() {
        let s = detached("t");
        let values = [
            0.1,
            -3.25,
            1e-300,
            f64::MIN_POSITIVE,
            12345.678900000001,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        for (i, v) in values.iter().enumerate() {
            s.push(i as u64, *v);
        }
        let csv = s.to_csv();
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some("step,value"));
        for (i, line) in lines.enumerate() {
            let (step, value) = line.split_once(',').expect("two columns");
            assert_eq!(step.parse::<u64>().unwrap(), i as u64);
            let parsed: f64 = value.parse().unwrap();
            assert_eq!(parsed.to_bits(), values[i].to_bits(), "row {i}: {line}");
        }
    }

    #[test]
    fn file_stem_sanitizes() {
        assert_eq!(file_stem("invdes.objective"), "invdes.objective");
        assert_eq!(file_stem("a/b c:d"), "a_b_c_d");
    }
}
