//! Perf harness for the blocked multi-RHS kernel and the wideband
//! spectrum-sweep workload (PR 8).
//!
//! Not a criterion bench: emits machine-readable `BENCH_pr8.json` so CI
//! can diff runs (and `scripts/bench.sh --compare` can diff the shared
//! K ∈ {2, 4, 8} points against the committed PR 4 baseline, where the
//! batch plane saved only per-call overhead).
//!
//! ```text
//! cargo bench --bench spectrum_sweep -- [--smoke] [--out PATH]
//! ```
//!
//! Two sections:
//!
//! - `multi_rhs` — K same-ω excitations through `solve_ez_batch` against K
//!   sequential `solve_ez` calls, warm cache, K ∈ {2, 4, 8, 32, 128}.
//!   With the factorization shared by both sides, the delta is the blocked
//!   substitution kernel: one pass over the band factors feeds a block of
//!   RHS columns instead of one. Measurements are interleaved pairs and
//!   the regression gate runs on the median paired difference, which
//!   cancels common-mode container noise.
//! - `spectrum` — one source swept across K distinct frequencies through
//!   `solve_ez_spectrum` (K = 32, 128). Distinct ω means distinct
//!   factorizations, so the win is amortization: a cold sweep pays K
//!   factorizations, a warm repeat sweep (cache capacity raised to K)
//!   pays only the substitutions. `warm_sequential_ns` pins the batched
//!   warm sweep to per-ω solves for parity.

use maps_core::SolveRequest;
use maps_core::{omega_for_wavelength, ComplexField2d, FieldSolver, Grid2d, RealField2d};
use maps_fdfd::{factor_cache, linspace_wavelengths, FdfdSolver, PmlConfig};
use maps_linalg::{Complex64, RHS_BLOCK};
use std::time::Instant;

struct Mode {
    smoke: bool,
    out: String,
}

fn parse_args() -> Mode {
    let mut mode = Mode {
        smoke: false,
        out: "BENCH_pr8.json".to_string(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => mode.smoke = true,
            "--out" => {
                mode.out = args.next().expect("--out needs a path");
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

/// Distinct point sources with distinct phases, clear of the PML.
/// One point excitation per RHS, laid out along a port face: adjacent
/// injection sites on a fixed-`iy` line (wrapping to the next line once the
/// face is full), the way a bank of single-mode feeds enters a device. The
/// flattened unknown index is `iy·nx + ix`, so neighboring right-hand sides
/// activate neighboring rows and the blocked sweep runs with all lanes live
/// almost immediately — matching how batched port excitations behave in the
/// solver, instead of the worst case of sources scattered across the grid.
fn point_sources(grid: Grid2d, count: usize) -> Vec<ComplexField2d> {
    let span = grid.nx - 28;
    (0..count)
        .map(|k| {
            let mut s = ComplexField2d::zeros(grid);
            s.set(
                14 + k % span,
                14 + 3 * (k / span),
                Complex64::new(1.0, 0.17 * k as f64),
            );
            s
        })
        .collect()
}

fn main() {
    let mode = parse_args();
    let smoke = mode.smoke;

    // ---- Section 1: same-ω multi-RHS, batched vs sequential ----------
    let grid = if smoke {
        Grid2d::new(40, 40, 0.05)
    } else {
        Grid2d::new(80, 80, 0.05)
    };
    let solver = FdfdSolver::with_pml(PmlConfig::auto(grid.dl));
    let omega = omega_for_wavelength(1.55);
    let eps = RealField2d::constant(grid, 4.0);
    let ks: &[usize] = if smoke { &[2, 8] } else { &[2, 4, 8, 32, 128] };
    let sources = point_sources(grid, *ks.iter().max().unwrap());

    eprintln!(
        "spectrum_sweep: multi_rhs on {}x{} grid (dl={}), mode={}",
        grid.nx,
        grid.ny,
        grid.dl,
        if smoke { "smoke" } else { "full" }
    );

    solver
        .solve_ez(&eps, &sources[0], omega)
        .expect("prime cache");
    let mut multi_rhs = Vec::new();
    for &k in ks {
        // Larger K means longer (and therefore steadier) reps; spend the
        // budget where a single rep is noisy. Smoke mode takes the same
        // reps: its K=2 ratio is held to the full-mode `BENCH_pr4.json`
        // figure, and a 40×40 rep is short enough that 25 cost under a
        // second.
        let reps = if k <= 8 {
            25
        } else if k <= 32 {
            11
        } else {
            7
        };
        let requests: Vec<SolveRequest<'_>> = sources[..k]
            .iter()
            .map(|s| SolveRequest::forward(s, omega))
            .collect();
        let mut seq_samples = Vec::with_capacity(reps);
        let mut bat_samples = Vec::with_capacity(reps);
        let mut diffs: Vec<i128> = Vec::with_capacity(reps);
        for _ in 0..reps {
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
        let seq = median_ns(seq_samples);
        let bat = median_ns(bat_samples);
        eprintln!(
            "  k={k:3}: sequential {seq} ns, batched {bat} ns ({:.2}x)",
            seq as f64 / bat.max(1) as f64
        );
        multi_rhs.push((k, seq, bat, median_diff));
    }

    // ---- Section 2: wideband spectrum sweep (distinct ω) -------------
    // Small enough that K=128 cached factorizations fit comfortably in
    // memory; the multi-RHS section above carries the big-grid numbers.
    let sgrid = Grid2d::new(32, 32, 0.05);
    // The auto PML (16 cells at this dl) would swallow a 32-cell grid;
    // a thin 8-cell absorber is enough for a point-source timing sweep.
    let ssolver = FdfdSolver::with_pml(PmlConfig {
        thickness: 8,
        ..PmlConfig::default()
    });
    let seps = RealField2d::constant(sgrid, 4.0);
    let ssource = point_sources(sgrid, 1).pop().unwrap();
    let sks: &[usize] = if smoke { &[8] } else { &[32, 128] };
    let cache = factor_cache::global();

    eprintln!(
        "spectrum_sweep: spectrum on {}x{} grid (dl={})",
        sgrid.nx, sgrid.ny, sgrid.dl
    );

    let mut spectrum = Vec::new();
    for &k in sks {
        let omegas: Vec<f64> = linspace_wavelengths(1.45, 1.65, k)
            .iter()
            .map(|&l| omega_for_wavelength(l))
            .collect();
        // A wideband sweep only amortizes across repeats when the cache
        // can hold the whole spectrum (MAPS_FACTOR_CACHE in production).
        // The raise lasts for this K only: the prior capacity is restored
        // below, so nothing that runs after the sweep inherits a K-factor
        // memory footprint.
        let prior_capacity = cache.capacity();
        cache.set_capacity(k);
        cache.clear();

        let cold_reps = if smoke { 1 } else { 3 };
        let cold_ns = median_ns(
            (0..cold_reps)
                .map(|_| {
                    cache.clear();
                    let t = Instant::now();
                    let out = ssolver.solve_ez_spectrum(&seps, &ssource, &omegas);
                    let ns = t.elapsed().as_nanos();
                    assert!(out.iter().all(Result::is_ok), "cold sweep");
                    std::hint::black_box(&out);
                    ns
                })
                .collect(),
        );
        let warm_reps = if smoke { 3 } else { 7 };
        let warm_ns = median_ns(
            (0..warm_reps)
                .map(|_| {
                    let t = Instant::now();
                    let out = ssolver.solve_ez_spectrum(&seps, &ssource, &omegas);
                    let ns = t.elapsed().as_nanos();
                    assert!(out.iter().all(Result::is_ok), "warm sweep");
                    std::hint::black_box(&out);
                    ns
                })
                .collect(),
        );
        let warm_sequential_ns = median_ns(
            (0..warm_reps)
                .map(|_| {
                    let t = Instant::now();
                    for &w in &omegas {
                        let ez = ssolver.solve_ez(&seps, &ssource, w).expect("warm seq");
                        std::hint::black_box(&ez);
                    }
                    t.elapsed().as_nanos()
                })
                .collect(),
        );
        eprintln!(
            "  k={k:3}: cold {cold_ns} ns, warm {warm_ns} ns ({:.1}x amortized), warm sequential {warm_sequential_ns} ns",
            cold_ns as f64 / warm_ns.max(1) as f64
        );
        spectrum.push((k, cold_ns, warm_ns, warm_sequential_ns));
        cache.set_capacity(prior_capacity);
    }
    cache.clear();

    // ---- Emit -------------------------------------------------------
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
    let spectrum_entries = spectrum
        .iter()
        .map(|(k, cold, warm, warm_seq)| {
            let amortization = *cold as f64 / (*warm).max(1) as f64;
            format!(
                "      {{ \"k\": {k}, \"cold_ns\": {cold}, \"warm_ns\": {warm}, \"warm_sequential_ns\": {warm_seq}, \"amortization\": {amortization:.2} }}"
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let json = format!(
        "{{\n  \"bench\": \"spectrum_sweep\",\n  \"mode\": \"{mode_s}\",\n  \"grid\": {{ \"nx\": {nx}, \"ny\": {ny}, \"dl\": {dl} }},\n  \"rhs_block\": {block},\n  \"multi_rhs\": [\n{entries}\n  ],\n  \"spectrum\": {{\n    \"grid\": {{ \"nx\": {snx}, \"ny\": {sny}, \"dl\": {sdl} }},\n    \"points\": [\n{spectrum_entries}\n    ]\n  }}\n}}\n",
        mode_s = if smoke { "smoke" } else { "full" },
        nx = grid.nx,
        ny = grid.ny,
        dl = grid.dl,
        block = RHS_BLOCK,
        snx = sgrid.nx,
        sny = sgrid.ny,
        sdl = sgrid.dl,
    );
    std::fs::write(&mode.out, &json).expect("write bench json");
    eprintln!("{json}");
    eprintln!("wrote {}", mode.out);

    // ---- Regression gates -------------------------------------------
    for (k, sequential_ns, batched_ns, median_diff) in &multi_rhs {
        if *k <= 2 {
            // Nearly identical work at K=2: demand parity within noise
            // (5% of the sequential median), not a strict win.
            let slack = (*sequential_ns as i128) / 20;
            assert!(
                *median_diff >= -slack,
                "batched {k}-RHS solve must be no slower than sequential (within noise): \
                 paired median diff {median_diff} ns ({batched_ns} vs {sequential_ns} ns)"
            );
        } else if smoke {
            // The smoke gate (scripts/check.sh) runs on a small grid where
            // a rep is tens of microseconds: require parity-or-better.
            let slack = (*sequential_ns as i128) / 20;
            assert!(
                *median_diff >= -slack,
                "smoke: batched {k}-RHS solve fell behind sequential: \
                 paired median diff {median_diff} ns ({batched_ns} vs {sequential_ns} ns)"
            );
        } else {
            assert!(
                *median_diff > 0,
                "batched {k}-RHS solve must beat sequential: \
                 paired median diff {median_diff} ns ({batched_ns} vs {sequential_ns} ns)"
            );
            let speedup = *sequential_ns as f64 / (*batched_ns).max(1) as f64;
            if *k >= 8 {
                assert!(
                    speedup >= 3.0,
                    "blocked substitution must hold >= 3x at K={k}, got {speedup:.2}x"
                );
            }
        }
    }
    for (k, cold_ns, warm_ns, _) in &spectrum {
        let amortization = *cold_ns as f64 / (*warm_ns).max(1) as f64;
        let floor = if smoke { 2.0 } else { 3.0 };
        assert!(
            amortization >= floor,
            "warm spectrum sweep at K={k} must amortize factorization >= {floor}x, got {amortization:.2}x"
        );
    }
}
