//! The per-layer ledger of a traced run.
//!
//! Layers are measured from outside. The harness opens `perfbench.*` spans
//! around the public calls it makes (its `FieldSolver` wrapper, checks, op
//! boundaries) and reads the spans the program already emits
//! (`fdfd.factorize`, `fdfd.backsub`, `fdfd.solve_with_adjoint`,
//! `invdes.iteration`, `data.label_density`, …) from the `maps-obs` flight
//! recorder. A span's self time is its duration minus the time its child
//! spans on the same thread cover; each self time is charged to the layer
//! the span's name belongs to. The named layers plus `unattributed_ms` add
//! up to the mean op time by construction, so `unattributed_ms` is the part
//! of an op no named layer covers.
//!
//! `fdfd.factorize` covers both operator assembly and the banded LU. The
//! traced run splits it by replaying the public
//! `FdfdSolver::operator(..).to_banded()` and `BandedMatrix::factorize()` on
//! each traced session's final design and charging the span's time to
//! `fdfd.assemble.ms` and `linalg.factorize.ms` in the replay's proportion.

use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::time::{Duration, Instant};

use maps_core::RealField2d;
use maps_fdfd::FdfdSolver;
use maps_obs::SpanRecord;

/// One per-layer metric of `BENCHMARK.json` (`per_layer`).
pub struct LayerSpec {
    pub name: &'static str,
    pub unit: &'static str,
}

macro_rules! layers {
    ($($name:literal $unit:literal),* $(,)?) => {
        &[$(LayerSpec { name: $name, unit: $unit }),*]
    };
}

/// Every per-layer metric, in `BENCHMARK.json` order. Values are per op
/// unless README.md says otherwise.
pub const PER_LAYER: &[LayerSpec] = layers![
    "linalg.factorize.count" "count",
    "linalg.factorize.ms" "ms",
    "linalg.factor_mb" "MB",
    "linalg.factorize.gflop" "GFLOP",
    "linalg.backsub.rhs" "count",
    "linalg.backsub.ms" "ms",
    "fdfd.assemble.ms" "ms",
    "fdfd.self_ms" "ms",
    "fdfd.cache.hit_ratio" "ratio",
    "fdfd.cache.evictions" "count",
    "fdfd.rhs_per_factor" "ratio",
    "core.retries" "count",
    "invdes.self_ms" "ms",
    "data.samples" "count",
    "data.self_ms" "ms",
    "data.busy_share" "ratio",
    "mapsd.parse_ms" "ms",
    "mapsd.queue_ms" "ms",
    "mapsd.solve_ms" "ms",
    "mapsd.server_ms" "ms",
    "mapsd.render_ms" "ms",
    "mapsd.transport_ms" "ms",
    "mapsd.bytes_in" "bytes",
    "mapsd.bytes_out" "bytes",
    "mapsd.hit_ratio" "ratio",
    "nn.infer.count" "count",
    "nn.infer.ms" "ms",
    "nn.infer.mflop" "MFLOP",
    "train.fit_s" "s",
    "train.steps" "count",
    "obs.trace_overhead_pct" "%",
    "gen.sent" "count",
    "gen.late_p99_ms" "ms",
    "unattributed_ms" "ms",
];

/// The layers whose times add up to an op (with `unattributed_ms`).
pub const LEAVES: &[&str] = &[
    "linalg.factorize.ms",
    "linalg.backsub.ms",
    "fdfd.assemble.ms",
    "fdfd.self_ms",
    "invdes.self_ms",
    "data.self_ms",
    "mapsd.parse_ms",
    "mapsd.queue_ms",
    "mapsd.render_ms",
    "mapsd.transport_ms",
    "nn.infer.ms",
];

/// Name of the span the harness opens around its own output checks; spans
/// under it are not op work.
pub const CHECK: &str = "perfbench.check";
/// The `FieldSolver` wrapper's span over the exact FDFD solver.
pub const FDFD_CALL: &str = "perfbench.fdfd";
/// The `FieldSolver` wrapper's span over the neural solver.
pub const NN_CALL: &str = "perfbench.nn";

/// Banded-LU cost of a `cells`-cell grid whose rows are `nx` cells long
/// (the operator's band is `kl = ku = nx`): (GFLOP per factorization,
/// factor MB). Complex multiply-adds are 8 real flops; a row of L updates
/// `kl + ku` columns after pivoting, and LAPACK band storage keeps
/// `2·kl + ku + 1` complex doubles per column.
pub fn lu_cost(cells: usize, nx: usize) -> (f64, f64) {
    let (n, kl, ku) = (cells as f64, nx as f64, nx as f64);
    (
        8.0 * n * kl * (kl + ku) / 1e9,
        (2.0 * kl + ku + 1.0) * n * 16.0 / 1e6,
    )
}

/// Times assembly and LU of one design separately through the public API,
/// returning assembly's share of `fdfd.factorize`.
pub fn replay_assembly_share(solver: &FdfdSolver, eps: &RealField2d, omega: f64) -> f64 {
    let _s = maps_obs::span(CHECK).field("replay", "assemble+factorize");
    let t0 = Instant::now();
    let banded = std::hint::black_box(solver.operator(eps, omega).to_banded());
    let assemble = t0.elapsed();
    let t1 = Instant::now();
    let lu = std::hint::black_box(banded.factorize());
    let factorize = t1.elapsed();
    drop(lu);
    assemble.as_secs_f64() / (assemble + factorize).as_secs_f64()
}

/// Per-op layer accounting over the traced sessions of one run.
#[derive(Default)]
pub struct Ledger {
    /// Ops and summed op time (ms) in traced sessions.
    pub ops: u64,
    pub op_ms: f64,
    /// Op latencies of traced and untraced sessions (trace overhead).
    pub traced_ops_ms: Vec<f64>,
    pub untraced_ops_ms: Vec<f64>,
    /// Summed quantities, divided by `ops` at the end unless noted.
    pub sums: BTreeMap<&'static str, f64>,
    /// Replay shares of assembly in `fdfd.factorize`.
    pub assembly_shares: Vec<f64>,
    /// Every span recorded in traced sessions (trace and profile export).
    pub spans: Vec<SpanRecord>,
    /// Per-run values (not divided by ops).
    pub fixed: BTreeMap<&'static str, f64>,
}

impl Ledger {
    pub fn add(&mut self, key: &'static str, v: f64) {
        *self.sums.entry(key).or_insert(0.0) += v;
    }

    /// Charges the spans of one traced session's op phase to layers.
    ///
    /// Only spans that open inside `window` (offsets from the `maps-obs`
    /// epoch) count, minus everything under a [`CHECK`] span. Spans on
    /// `harness_thread` (if given) are skipped and thread time is divided by
    /// `divisor`: a parallel op passes its waiting caller thread and its
    /// worker count, so its layers are in wall-clock milliseconds.
    pub fn absorb(
        &mut self,
        spans: Vec<SpanRecord>,
        window: (Duration, Duration),
        harness_thread: Option<u64>,
        divisor: f64,
    ) {
        let index: HashMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
        let mut self_ms: Vec<f64> = spans
            .iter()
            .map(|s| s.duration.as_secs_f64() * 1e3)
            .collect();
        for s in &spans {
            if let Some(&p) = index.get(&s.parent) {
                if spans[p].thread_id == s.thread_id {
                    self_ms[p] -= s.duration.as_secs_f64() * 1e3;
                }
            }
        }
        let under_check = |mut i: usize| loop {
            if spans[i].name == CHECK {
                return true;
            }
            match index.get(&spans[i].parent) {
                Some(&p) => i = p,
                None => return false,
            }
        };
        let mut busy = 0.0;
        for (i, s) in spans.iter().enumerate() {
            if s.begin < window.0 || s.begin > window.1 || under_check(i) {
                continue;
            }
            if harness_thread == Some(s.thread_id) {
                continue;
            }
            let t = self_ms[i].max(0.0) / divisor;
            match s.name.as_str() {
                "fdfd.factorize" => {
                    self.add("factorize_ms", t);
                    self.add("factorize_count", 1.0);
                }
                "fdfd.backsub" => {
                    self.add("linalg.backsub.ms", t);
                    let rhs = s.field("rhs").and_then(|r| r.parse().ok()).unwrap_or(1.0);
                    self.add("linalg.backsub.rhs", rhs);
                }
                FDFD_CALL => self.add("fdfd.self_ms", t),
                NN_CALL => {
                    self.add("nn.infer.ms", t);
                    self.add("nn.infer.count", 1.0);
                }
                "data.label_density" => {
                    self.add("data.self_ms", t);
                    busy += s.duration.as_secs_f64() * 1e3;
                }
                name if name.starts_with("fdfd.") => self.add("fdfd.self_ms", t),
                name if name.starts_with("invdes.") => self.add("invdes.self_ms", t),
                name if name.starts_with("data.") => self.add("data.self_ms", t),
                _ => {}
            }
        }
        self.add("data_busy_ms", busy);
        self.spans.extend(spans);
    }

    /// Finishes the ledger: per-op values, the assembly/LU split, the
    /// computed LU cost of a factor with `cells` cells and `nx`-cell rows,
    /// trace overhead, and `unattributed_ms`.
    pub fn finish(
        mut self,
        cells: usize,
        nx: usize,
        out: &Path,
        workload: &str,
    ) -> BTreeMap<&'static str, f64> {
        let ops = self.ops.max(1) as f64;
        let share = crate::stats::percentile(&self.assembly_shares, 50.0);
        let share = if share.is_finite() { share } else { 0.0 };
        let factorize = self.sums.remove("factorize_ms").unwrap_or(0.0);
        let count = self.sums.remove("factorize_count").unwrap_or(0.0);
        let busy = self.sums.remove("data_busy_ms").unwrap_or(0.0);
        self.add("fdfd.assemble.ms", factorize * share);
        self.add("linalg.factorize.ms", factorize * (1.0 - share));
        self.add("linalg.factorize.count", count);
        let mut m: BTreeMap<&'static str, f64> =
            self.sums.iter().map(|(k, v)| (*k, v / ops)).collect();
        let (gflop, mb) = lu_cost(cells, nx);
        if cells > 0 {
            m.insert("linalg.factor_mb", mb);
            m.insert("linalg.factorize.gflop", count / ops * gflop);
        }
        let hits = m.remove("cache_hits").unwrap_or(0.0);
        let misses = m.remove("cache_misses").unwrap_or(0.0);
        if hits + misses > 0.0 {
            m.insert("fdfd.cache.hit_ratio", hits / (hits + misses));
        }
        if count > 0.0 {
            m.insert(
                "fdfd.rhs_per_factor",
                self.sums.get("linalg.backsub.rhs").copied().unwrap_or(0.0) / count,
            );
        }
        if busy > 0.0 {
            let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
            m.insert("data.busy_share", busy / (self.op_ms * nproc as f64));
        }
        let p50 = |v: &[f64]| crate::stats::percentile(v, 50.0);
        let overhead = (p50(&self.traced_ops_ms) / p50(&self.untraced_ops_ms) - 1.0) * 100.0;
        m.insert(
            "obs.trace_overhead_pct",
            if overhead.is_finite() { overhead } else { 0.0 },
        );
        m.extend(self.fixed.iter().map(|(k, v)| (*k, *v)));
        let named: f64 = LEAVES
            .iter()
            .map(|k| m.get(k).copied().unwrap_or(0.0))
            .sum();
        m.insert("unattributed_ms", self.op_ms / ops - named);

        if !self.spans.is_empty() {
            self.spans.sort_by_key(|s| s.begin);
            crate::write_out(
                out,
                &format!("{workload}.trace.json"),
                &maps_obs::chrome_trace(&self.spans),
            );
            crate::write_out(
                out,
                &format!("{workload}.profile.txt"),
                &maps_obs::profile_table(&maps_obs::profile(&self.spans)),
            );
        }
        m
    }
}

/// Offset of "now" from the `maps-obs` epoch, on the clock spans use.
pub fn now_offset() -> Duration {
    Instant::now().saturating_duration_since(maps_obs::epoch())
}
