//! `perfbench` — the end-to-end and per-layer benchmark of the MAPS stack.
//!
//! ```text
//! python3 perfbench/run.py --workload invdes --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `run.py` builds this harness and the `mapsd` daemon, clears every
//! `MAPS_*` variable, and runs the binary with the same arguments plus
//! `--mapsd <path>`. Each workload drives the crates through their public
//! APIs in *sessions*: a session pays the workload's set-up (device build and
//! calibration, daemon start and pool warm-up, or dataset labelling and
//! surrogate training) and then runs ops, so set-up is sampled all through
//! the run instead of once in its cold first second. Every op's output is
//! checked; a failed check is a failed op and the process exits non-zero.
//!
//! With `--trace 0` the last stdout line carries the gated end-to-end
//! metrics. A `--trace 1` run is a separate run of the same workload with the
//! `maps-obs` flight recorder on in every other session; its last line
//! carries the per-layer ledger instead (see `ledger.rs` and README.md).

// Output checks are written `!(x < tol)` on purpose: a NaN must fail them.
#![allow(clippy::neg_cmp_op_on_partial_ord)]

mod calib;
mod invdes;
mod label;
mod ledger;
mod machine;
mod serve;
mod solver;
mod stats;
mod surrogate;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Command-line settings of one run.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Path of the `mapsd` binary (serve only).
    pub mapsd: Option<PathBuf>,
    /// Directory for result files, traces and profiles.
    pub out: PathBuf,
}

/// What one workload run measured. Times are kept both as measured (wall
/// clock) and scaled to the reference host speed (see `calib.rs`).
#[derive(Debug, Default)]
pub struct Outcome {
    /// Latency of every completed op, ms, scaled and as measured.
    pub ops_ms: Vec<f64>,
    pub raw_ops_ms: Vec<f64>,
    /// Calibration-kernel times measured next to the ops, ms.
    pub kernel_ms: Vec<f64>,
    /// Ops attempted and ops failed (error, refusal, deadline, or check).
    pub attempted: u64,
    pub failed: u64,
    /// Open-loop workloads: seconds over which the offered load was served
    /// (the `ops_per_s` denominator). Closed loops leave it 0 and divide by
    /// their summed scaled op time.
    pub offered_s: f64,
    /// Set-up seconds of each session, scaled and as measured.
    pub setups_s: Vec<f64>,
    pub raw_setups_s: Vec<f64>,
    /// Per session, the peak resident set of the process doing the work,
    /// MB: `mapsd`'s `VmHWM` (a fresh daemon per session), or for in-process
    /// workloads this process's `VmHWM` over the session's set-up and ops
    /// (see [`Outcome::begin_peak`]).
    pub session_rss_mb: Vec<f64>,
    /// Session 0's objective trajectory (`invdes`), stored in the result
    /// file; `reference/invdes.json` is made from these.
    pub trajectory: Vec<f64>,
    /// Failed output checks, described.
    pub problems: Vec<String>,
    /// Per-layer metrics (traced runs only).
    pub layers: BTreeMap<&'static str, f64>,
    /// Free-form notes printed with the report (reference checks, etc.).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a completed op: its wall time and the kernel time next to it.
    pub fn op(&mut self, wall_ms: f64, kernel_ms: f64) {
        self.raw_ops_ms.push(wall_ms);
        self.ops_ms.push(calib::scaled(wall_ms, kernel_ms));
        self.kernel_ms.push(kernel_ms);
    }

    /// Records a session's set-up: its wall time and the session's kernel
    /// time.
    pub fn setup(&mut self, wall_s: f64, kernel_ms: f64) {
        self.raw_setups_s.push(wall_s);
        self.setups_s.push(calib::scaled(wall_s, kernel_ms));
    }

    /// Records a closed-loop session from its set-up time and its ops, each
    /// op followed by one kernel run. Returns the scaled op times.
    pub fn session(&mut self, setup_wall_s: f64, ops_ms: &[f64], kernels_ms: &[f64]) -> Vec<f64> {
        // Each op is scaled by the median of the five kernel runs centred on
        // it: that tracks host phases at a few ops' resolution without one
        // noisy run skewing the op it scales. The set-up, which precedes the
        // ops and can last seconds, uses the session's median.
        let n = ops_ms.len().min(kernels_ms.len());
        let smooth =
            |i: usize| stats::percentile(&kernels_ms[i.saturating_sub(2)..(i + 3).min(n)], 50.0);
        for (i, &op) in ops_ms.iter().enumerate().take(n) {
            self.op(op, smooth(i));
        }
        if n > 0 {
            self.setup(setup_wall_s, stats::percentile(&kernels_ms[..n], 50.0));
        }
        self.ops_ms[self.ops_ms.len() - n..].to_vec()
    }

    /// Starts a session's peak-resident-set window. The allocator first
    /// returns its free memory, so the window starts from the live heap and
    /// not from what earlier sessions left behind (on `label`, whose rayon
    /// workers allocate from per-thread arenas, that residue grew by 0–20 MB
    /// over a run depending on scheduling). Writing 5 to
    /// `/proc/self/clear_refs` then resets this process's `VmHWM` to its
    /// current resident set, so memory allocated and freed inside an op still
    /// shows in the next [`Outcome::end_peak`]. Where the kernel refuses the
    /// reset, `VmHWM` keeps the peak since the process started, and a note
    /// says so.
    pub fn begin_peak(&mut self) {
        trim_heap();
        if std::fs::write("/proc/self/clear_refs", "5").is_err() {
            let note = "could not reset VmHWM: peak_rss_mb is the process-lifetime peak";
            if !self.notes.iter().any(|n| n == note) {
                self.notes.push(note.into());
            }
        }
    }

    /// Ends a session's peak-resident-set window and records its peak.
    pub fn end_peak(&mut self) {
        self.session_rss_mb.push(proc_mb("self", "VmHWM"));
    }

    /// Records a failed output check as a failed op.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.problems.len() < 20 {
            self.problems.push(what);
        }
    }
}

/// One workload: its name, the fixed tail percentile of `op_tail_ms`, and
/// its driver.
pub struct Workload {
    pub name: &'static str,
    /// Percentile of `op_tail_ms`, fixed per workload so every commit
    /// compares the same rank (the highest percentile leaving at least ten
    /// ops beyond it at the default seed's op count).
    pub tail_pct: f64,
    pub run: fn(&Args) -> Outcome,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "invdes",
        tail_pct: 93.0,
        run: invdes::run,
    },
    Workload {
        name: "label",
        tail_pct: 97.0,
        run: label::run,
    },
    Workload {
        name: "serve",
        tail_pct: 97.0,
        run: serve::run,
    },
    Workload {
        name: "surrogate",
        tail_pct: 91.0,
        run: surrogate::run,
    },
];

/// Sessions in a run of `seconds`: one per `share` seconds (the time a
/// session takes on the reference host), rounded to a multiple of `multiple`
/// and at least two. A fixed count per `--seconds` gives every run of a
/// workload the same op count, so the tail percentile is the same rank.
pub fn sessions(seconds: f64, share: f64, multiple: usize) -> usize {
    let n = ((seconds / share / multiple as f64).round() as usize).max(1) * multiple;
    n.max(2)
}

/// Returns the allocator's free memory to the kernel (glibc `malloc_trim`).
fn trim_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: `malloc_trim` takes no pointers; it only releases free pages.
    unsafe {
        malloc_trim(0);
    }
}

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Mixes the workload seed with a stream index into an independent seed.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
        .wrapping_add(0x2545_F491_4F6C_DD1D);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A memory line of `/proc/<pid>/status` (`VmHWM`, `VmRSS`, …) in MB.
pub fn proc_mb(pid: &str, field: &str) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field) && l[field.len()..].starts_with(':'))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--mapsd <path>] [--out <dir>]",
        WORKLOADS
            .iter()
            .map(|w| w.name)
            .collect::<Vec<_>>()
            .join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
        mapsd: None,
        out: PathBuf::from("perfbench/out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else { usage() };
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = value.parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--mapsd" => args.mapsd = Some(PathBuf::from(value)),
            "--out" => args.out = PathBuf::from(value),
            _ => usage(),
        }
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        usage();
    }
    args
}

fn join(values: &[f64]) -> String {
    values
        .iter()
        .map(|v| json_num(*v))
        .collect::<Vec<_>>()
        .join(", ")
}

fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

fn main() {
    let args = parse_args();
    let Some(workload) = WORKLOADS.iter().find(|w| w.name == args.workload) else {
        usage()
    };
    let outcome = (workload.run)(&args);
    let machine = machine::describe();

    // The metrics this mode reports: end to end untraced, per layer traced.
    // `op_tail_ms` is printed and stored but left out of the result line: on
    // the reference host its run-to-run spread (up to a quarter of its value
    // at the ranks that leave ten ops beyond them) is too wide to gate on.
    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    let tail = stats::percentile(&outcome.ops_ms, workload.tail_pct);
    if args.trace {
        for spec in ledger::PER_LAYER {
            let v = outcome.layers.get(spec.name).copied().unwrap_or(0.0);
            metrics.push((spec.name.to_string(), v, spec.unit));
        }
    } else {
        let p50 = stats::percentile(&outcome.ops_ms, 50.0);
        let verified = outcome.attempted.saturating_sub(outcome.failed) as f64;
        let phase_s = if outcome.offered_s > 0.0 {
            outcome.offered_s
        } else {
            outcome.ops_ms.iter().sum::<f64>() / 1e3
        };
        metrics.push(("op_p50_ms".into(), p50, "ms"));
        metrics.push(("ops_per_s".into(), verified / phase_s.max(1e-9), "1/s"));
        metrics.push((
            "setup_s".into(),
            stats::percentile(&outcome.setups_s, 50.0),
            "s",
        ));
        metrics.push((
            "peak_rss_mb".into(),
            stats::percentile(&outcome.session_rss_mb, 50.0),
            "MB",
        ));
    }

    let correct = outcome.problems.is_empty() && outcome.failed == 0 && outcome.attempted > 0;
    let n = outcome.ops_ms.len();
    println!(
        "perfbench {} seed={} seconds={} trace={}: {} ops attempted, {} failed, {} sessions",
        workload.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        outcome.attempted,
        outcome.failed,
        outcome.setups_s.len()
    );
    for (name, value, unit) in &metrics {
        println!("  {name:<26} {value:>14.4} {unit}");
    }
    if !args.trace {
        println!(
            "  {:<26} {tail:>14.4} ms  (p{} of n={n}; not gated)",
            "op_tail_ms", workload.tail_pct
        );
    }
    let kernel_p50 = stats::percentile(&outcome.kernel_ms, 50.0);
    println!(
        "  as measured: op p50 {:.4} ms, p{} {:.4} ms, set-up {:.4} s; calibration kernel p50 {:.4} ms (reference {} ms); session peak RSS max {:.1} MB",
        stats::percentile(&outcome.raw_ops_ms, 50.0),
        workload.tail_pct,
        stats::percentile(&outcome.raw_ops_ms, workload.tail_pct),
        stats::percentile(&outcome.raw_setups_s, 50.0),
        kernel_p50,
        calib::REF_MS,
        outcome.session_rss_mb.iter().fold(0.0f64, |a, &b| a.max(b)),
    );
    for note in &outcome.notes {
        println!("  note: {note}");
    }
    for p in &outcome.problems {
        println!("  CHECK FAILED: {p}");
    }
    println!("  machine: {machine}");

    let mut metrics_json = String::new();
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            metrics_json.push_str(", ");
        }
        let _ = write!(
            metrics_json,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_num(*value)
        );
    }
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics_json}}}}}",
        outcome.attempted.max(1),
        if outcome.attempted == 0 {
            1
        } else {
            outcome.failed
        }
    );
    let record = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"tail_percentile\": {}, \"ops\": {n}, \"sessions\": {}, \"op_tail_ms\": {}, \"raw_op_p50_ms\": {}, \"raw_setup_s\": {}, \"kernel_p50_ms\": {}, \"machine\": {machine}, \"result\": {result}, \"ops_ms\": [{}], \"raw_ops_ms\": [{}], \"kernel_ms\": [{}], \"raw_setups_s\": [{}], \"session_rss_mb\": [{}], \"trajectory\": [{}]}}\n",
        workload.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        workload.tail_pct,
        outcome.setups_s.len(),
        json_num(tail),
        json_num(stats::percentile(&outcome.raw_ops_ms, 50.0)),
        json_num(stats::percentile(&outcome.raw_setups_s, 50.0)),
        json_num(kernel_p50),
        join(&outcome.ops_ms),
        join(&outcome.raw_ops_ms),
        join(&outcome.kernel_ms),
        join(&outcome.raw_setups_s),
        join(&outcome.session_rss_mb),
        join(&outcome.trajectory),
    );
    write_out(
        &args.out,
        &format!(
            "{}-seed{}-trace{}.json",
            workload.name,
            args.seed,
            u8::from(args.trace)
        ),
        &record,
    );
    println!("{result}");
    if !correct {
        std::process::exit(1);
    }
}

/// Writes a result artifact under the output directory; a failure to write
/// is reported but does not change the run's result.
pub fn write_out(dir: &Path, name: &str, contents: &str) {
    let path = dir.join(name);
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, contents)) {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
}
