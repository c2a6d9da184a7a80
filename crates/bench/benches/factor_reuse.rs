//! Perf-regression harness for factorization reuse (PR 3).
//!
//! Not a criterion bench: this harness emits a machine-readable JSON file
//! (`BENCH_pr3.json` by default) with median timings so CI can diff runs.
//!
//! Usage (via `scripts/bench.sh` or directly):
//!
//! ```text
//! cargo bench --bench factor_reuse -- [--smoke] [--out PATH]
//! ```
//!
//! `--smoke` shrinks the grid and repetition counts so the harness finishes
//! in seconds (wired into `scripts/check.sh`); the default full mode runs at
//! the default bending-device grid (80×80, dl = 0.05).
//!
//! Reported medians (nanoseconds):
//!
//! - `factorize_ns` — assemble + factorize the symmetrized operator (what a
//!   cache miss pays)
//! - `solve_cold_ns` — full `solve_ez` with an empty cache (factorize + sweep)
//! - `solve_cached_ns` — `solve_ez` answered from the cache (sweep only)
//! - `invdes_iteration_ns` — one inverse-design iteration (the forward
//!   source and the objective's monitor vector as one block on one
//!   factorization)
//! - `label_batch_per_sample_ns` — resilient batch labeling, per sample
//!
//! The harness additionally times K-excitation multi-RHS solves through
//! `solve_ez_batch` against K sequential `solve_ez` calls (K ∈ {2, 4, 8},
//! warm cache, so the delta is the per-call fingerprint/lookup/span
//! overhead the batch pays once per ω group) and writes those medians to a
//! second JSON (`BENCH_pr4.json` by default, `--out-batched PATH`).

use maps_core::{omega_for_wavelength, ComplexField2d, FieldSolver, RealField2d, SolveRequest};
use maps_data::{
    label_batch_resilient_par, sample_densities, DeviceKind, DeviceResolution, GenerateConfig,
    SamplerConfig, SamplingStrategy,
};
use maps_fdfd::{factor_cache, FdfdSolver, PmlConfig, SymmetricOperator};
use maps_invdes::{ExactAdjoint, InitStrategy, InverseDesigner, OptimConfig};
use maps_linalg::Complex64;
use std::time::Instant;

struct Mode {
    smoke: bool,
    out: String,
    out_batched: String,
}

fn parse_args() -> Mode {
    let mut mode = Mode {
        smoke: false,
        out: "BENCH_pr3.json".to_string(),
        out_batched: "BENCH_pr4.json".to_string(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => mode.smoke = true,
            "--out" => {
                mode.out = args.next().expect("--out needs a path");
            }
            "--out-batched" => {
                mode.out_batched = args.next().expect("--out-batched needs a path");
            }
            // cargo bench passes `--bench`; ignore it and anything unknown.
            _ => {}
        }
    }
    mode
}

fn median_ns(mut samples: Vec<u128>) -> u128 {
    assert!(!samples.is_empty());
    samples.sort_unstable();
    samples[samples.len() / 2]
}

fn main() {
    let mode = parse_args();
    let res = if mode.smoke {
        DeviceResolution::low()
    } else {
        DeviceResolution::default()
    };
    let reps = if mode.smoke { 3 } else { 11 };
    let invdes_iters = if mode.smoke { 4 } else { 20 };
    let label_count = if mode.smoke { 2 } else { 4 };

    let mut device = DeviceKind::Bending.build(res);
    let grid = device.grid();
    let dl = grid.dl;
    let solver = FdfdSolver::with_pml(PmlConfig::auto(dl));
    let omega = omega_for_wavelength(1.55);
    let eps = RealField2d::constant(grid, 4.0);
    let mut j = ComplexField2d::zeros(grid);
    j.set(grid.nx / 2, grid.ny / 2, Complex64::ONE);
    let cache = factor_cache::global();

    eprintln!(
        "factor_reuse: {}x{} grid (dl={dl}), {reps} reps, mode={}",
        grid.nx,
        grid.ny,
        if mode.smoke { "smoke" } else { "full" }
    );

    // Assemble + factorize: the cost a cache miss pays beyond the sweep.
    let factorize_ns = median_ns(
        (0..reps)
            .map(|_| {
                let t = Instant::now();
                let factor = SymmetricOperator::new(&eps, omega, solver.pml())
                    .factorize()
                    .expect("factorize");
                let ns = t.elapsed().as_nanos();
                std::hint::black_box(&factor);
                ns
            })
            .collect(),
    );

    // Full solve with an empty cache: factorize + substitution sweeps.
    let solve_cold_ns = median_ns(
        (0..reps)
            .map(|_| {
                cache.clear();
                let t = Instant::now();
                let ez = solver.solve_ez(&eps, &j, omega).expect("cold solve");
                let ns = t.elapsed().as_nanos();
                std::hint::black_box(&ez);
                ns
            })
            .collect(),
    );

    // Cached re-solve: the factorization is shared, only the sweeps run.
    solver.solve_ez(&eps, &j, omega).expect("prime cache");
    let solve_cached_ns = median_ns(
        (0..reps)
            .map(|_| {
                let t = Instant::now();
                let ez = solver.solve_ez(&eps, &j, omega).expect("cached solve");
                let ns = t.elapsed().as_nanos();
                std::hint::black_box(&ez);
                ns
            })
            .collect(),
    );

    // Inverse-design iterations: per-iteration wall time from the run
    // callback (each iteration is a distinct design, so each pays one
    // factorization and one two-lane pass over it).
    let adjoint = ExactAdjoint::new(FdfdSolver::with_pml(PmlConfig::auto(dl)));
    device
        .problem
        .calibrate(adjoint.solver())
        .expect("calibrate");
    let designer = InverseDesigner::new(OptimConfig {
        iterations: invdes_iters,
        learning_rate: 0.12,
        beta_start: 1.5,
        beta_growth: 1.15,
        filter_radius: 1.5,
        symmetry: None,
        litho: None,
        init: InitStrategy::Uniform(0.5),
        ..OptimConfig::default()
    });
    let mut iter_ns = Vec::with_capacity(invdes_iters);
    let mut last = Instant::now();
    designer
        .run_with_callback(&device.problem, &adjoint, |_, _, _| {
            iter_ns.push(last.elapsed().as_nanos());
            last = Instant::now();
        })
        .expect("invdes run");
    let invdes_iteration_ns = median_ns(iter_ns);

    // Resilient batch labeling, per produced sample.
    let densities = sample_densities(
        SamplingStrategy::Random,
        &device,
        &SamplerConfig {
            count: label_count,
            seed: 7,
            trajectory_iterations: 4,
            perturbation: 0.25,
        },
    )
    .expect("densities");
    let config = GenerateConfig::default();
    let label_per_sample_ns = median_ns(
        (0..3)
            .map(|_| {
                cache.clear();
                let t = Instant::now();
                let report = label_batch_resilient_par(&device, &densities, &config);
                let ns = t.elapsed().as_nanos();
                assert!(!report.ok.is_empty(), "labeling produced no samples");
                ns / report.ok.len() as u128
            })
            .collect(),
    );

    // Batched vs sequential multi-RHS: K distinct sources at one ω against
    // a warm cache. Sequential pays the fingerprint + cache lookup + span
    // per solve and one RHS copy per sweep; the batch pays the lookup once
    // per ω group and sweeps every RHS in place, so it must never be
    // slower and pulls ahead as K grows.
    let batch_reps = if mode.smoke { 15 } else { 25 };
    let sources: Vec<ComplexField2d> = (0..8)
        .map(|k| {
            let mut s = ComplexField2d::zeros(grid);
            s.set(
                4 + (k * 7) % (grid.nx - 8),
                4 + (k * 11) % (grid.ny - 8),
                Complex64::new(1.0, 0.2 * k as f64),
            );
            s
        })
        .collect();
    solver.solve_ez(&eps, &j, omega).expect("prime cache");
    let mut multi_rhs = Vec::new();
    for k in [2usize, 4, 8] {
        let requests: Vec<SolveRequest<'_>> = sources[..k]
            .iter()
            .map(|s| SolveRequest::forward(s, omega))
            .collect();
        // Interleave the two measurements: each rep times the sequential
        // and batched variants back to back, so bursty container noise
        // (context switches, noisy neighbors) hits both sides of a pair.
        // The regression check runs on the median of the paired per-rep
        // differences, which cancels that common-mode noise; the reported
        // medians are the honest per-variant timings.
        let mut seq_samples = Vec::with_capacity(batch_reps);
        let mut bat_samples = Vec::with_capacity(batch_reps);
        let mut diffs: Vec<i128> = Vec::with_capacity(batch_reps);
        for _ in 0..batch_reps {
            let t = Instant::now();
            for s in &sources[..k] {
                let ez = solver.solve_ez(&eps, s, omega).expect("sequential solve");
                std::hint::black_box(&ez);
            }
            let seq = t.elapsed().as_nanos();

            let t = Instant::now();
            let out = solver.solve_ez_batch(&eps, &requests);
            let bat = t.elapsed().as_nanos();
            assert!(out.iter().all(Result::is_ok), "batched solve");
            std::hint::black_box(&out);

            seq_samples.push(seq);
            bat_samples.push(bat);
            diffs.push(seq as i128 - bat as i128);
        }
        diffs.sort_unstable();
        let median_diff = diffs[diffs.len() / 2];
        multi_rhs.push((
            k,
            median_ns(seq_samples),
            median_ns(bat_samples),
            median_diff,
        ));
    }

    let speedup = solve_cold_ns as f64 / solve_cached_ns.max(1) as f64;
    let json = format!(
        "{{\n  \"bench\": \"factor_reuse\",\n  \"mode\": \"{mode_s}\",\n  \"grid\": {{ \"nx\": {nx}, \"ny\": {ny}, \"dl\": {dl} }},\n  \"reps\": {reps},\n  \"medians_ns\": {{\n    \"factorize\": {factorize_ns},\n    \"solve_cold\": {solve_cold_ns},\n    \"solve_cached\": {solve_cached_ns},\n    \"invdes_iteration\": {invdes_iteration_ns},\n    \"label_batch_per_sample\": {label_per_sample_ns}\n  }},\n  \"speedup_cached_resolve\": {speedup:.2}\n}}\n",
        mode_s = if mode.smoke { "smoke" } else { "full" },
        nx = grid.nx,
        ny = grid.ny,
    );
    std::fs::write(&mode.out, &json).expect("write bench json");
    eprintln!("{json}");
    eprintln!("wrote {}", mode.out);

    let entries = multi_rhs
        .iter()
        .map(|(k, seq, bat, diff)| {
            let ratio = *seq as f64 / (*bat).max(1) as f64;
            format!(
                "    {{ \"k\": {k}, \"sequential_ns\": {seq}, \"batched_ns\": {bat}, \"paired_diff_ns\": {diff}, \"speedup\": {ratio:.3} }}"
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let batched_json = format!(
        "{{\n  \"bench\": \"batched_multi_rhs\",\n  \"mode\": \"{mode_s}\",\n  \"grid\": {{ \"nx\": {nx}, \"ny\": {ny}, \"dl\": {dl} }},\n  \"reps\": {batch_reps},\n  \"multi_rhs\": [\n{entries}\n  ]\n}}\n",
        mode_s = if mode.smoke { "smoke" } else { "full" },
        nx = grid.nx,
        ny = grid.ny,
    );
    std::fs::write(&mode.out_batched, &batched_json).expect("write batched bench json");
    eprintln!("{batched_json}");
    eprintln!("wrote {}", mode.out_batched);

    assert!(
        speedup >= 3.0,
        "cached re-solve must be >= 3x faster than cold factorize+solve, got {speedup:.2}x"
    );
    for (k, sequential_ns, batched_ns, median_diff) in &multi_rhs {
        if *k <= 2 {
            // At K=2 the two variants are nearly identical in work, so the
            // paired median sits at the noise floor of a shared container;
            // allow a small negative slack (5% of the sequential median)
            // instead of demanding a strictly non-negative diff.
            let slack = (*sequential_ns as i128) / 20;
            assert!(
                *median_diff >= -slack,
                "batched {k}-RHS solve must be no slower than sequential (within noise): \
                 paired median diff {median_diff} ns ({batched_ns} vs {sequential_ns} ns)"
            );
        } else {
            assert!(
                *median_diff > 0,
                "batched {k}-RHS solve must beat sequential: \
                 paired median diff {median_diff} ns ({batched_ns} vs {sequential_ns} ns)"
            );
        }
    }
}
