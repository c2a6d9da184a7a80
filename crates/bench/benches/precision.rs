//! Perf-regression harness for f32 tape-free inference.
//!
//! Not a criterion bench: this harness emits a machine-readable JSON file
//! (`BENCH_pr9.json` by default) with median timings so CI can diff runs.
//!
//! Usage (via `scripts/bench.sh` or directly):
//!
//! ```text
//! cargo bench --bench precision -- [--smoke] [--out PATH]
//! ```
//!
//! One claim is measured and gated: a forward pass through the FNO
//! surrogate with `NoneTape` in f32 (`infer_f32`) must be measurably faster
//! than the taped f64 training forward (`forward` + `OwnedTape`), because
//! it records no tape nodes and moves half the bytes. The f64 `infer` path
//! is reported alongside to split the tape cost from the dtype cost.
//!
//! Measurements interleave the compared variants rep by rep and gate on
//! the median of paired per-rep differences, so bursty container noise
//! hits both sides of each pair and cancels.

use maps_nn::{Fno, FnoConfig, Model};
use maps_tensor::{Params, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

struct Mode {
    smoke: bool,
    out: String,
}

fn parse_args() -> Mode {
    let mut mode = Mode {
        smoke: false,
        out: "BENCH_pr9.json".to_string(),
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

fn median_diff(mut diffs: Vec<i128>) -> i128 {
    assert!(!diffs.is_empty());
    diffs.sort_unstable();
    diffs[diffs.len() / 2]
}

fn main() {
    let mode = parse_args();
    let reps = if mode.smoke { 7 } else { 21 };
    let inner = if mode.smoke { 2 } else { 5 };

    eprintln!(
        "precision: {reps} reps x {inner} inner, mode={}",
        if mode.smoke { "smoke" } else { "full" }
    );

    let mut params = Params::new();
    let mut rng = StdRng::seed_from_u64(0);
    let model = Fno::new(
        &mut params,
        &mut rng,
        FnoConfig {
            in_channels: 4,
            out_channels: 2,
            width: 12,
            modes: 6,
            depth: 3,
        },
    );
    let batch = 1usize;
    let x = Tensor::zeros(&[batch, 4, 40, 40]);
    let params32 = params.cast::<f32>();
    let x32 = x.cast::<f32>();

    let time_taped = |inner: usize| {
        let t = Instant::now();
        for _ in 0..inner {
            let y = model.forward(&params, x.trace());
            std::hint::black_box(y.no_tape().len());
        }
        t.elapsed().as_nanos() / inner as u128
    };
    let time_infer64 = |inner: usize| {
        let t = Instant::now();
        for _ in 0..inner {
            std::hint::black_box(model.infer(&params, x.clone()).len());
        }
        t.elapsed().as_nanos() / inner as u128
    };
    let time_infer32 = |inner: usize| {
        let t = Instant::now();
        for _ in 0..inner {
            std::hint::black_box(model.infer_f32(&params32, x32.clone()).len());
        }
        t.elapsed().as_nanos() / inner as u128
    };

    let mut taped_samples = Vec::with_capacity(reps);
    let mut infer64_samples = Vec::with_capacity(reps);
    let mut infer32_samples = Vec::with_capacity(reps);
    let mut taped_vs_f32 = Vec::with_capacity(reps);
    for rep in 0..reps {
        // Alternate the execution order between reps so slow monotonic
        // drift (thermal throttling, a noisy neighbor ramping up) cannot
        // systematically favor whichever variant runs first.
        let (taped, infer64, infer32) = match rep % 3 {
            0 => {
                let a = time_taped(inner);
                let b = time_infer64(inner);
                let c = time_infer32(inner);
                (a, b, c)
            }
            1 => {
                let c = time_infer32(inner);
                let a = time_taped(inner);
                let b = time_infer64(inner);
                (a, b, c)
            }
            _ => {
                let b = time_infer64(inner);
                let c = time_infer32(inner);
                let a = time_taped(inner);
                (a, b, c)
            }
        };
        taped_samples.push(taped);
        infer64_samples.push(infer64);
        infer32_samples.push(infer32);
        taped_vs_f32.push(taped as i128 - infer32 as i128);
    }
    let taped_f64_ns = median_ns(taped_samples);
    let infer_f64_ns = median_ns(infer64_samples);
    let infer_f32_ns = median_ns(infer32_samples);
    let inference_diff = median_diff(taped_vs_f32);
    let inference_speedup = taped_f64_ns as f64 / infer_f32_ns.max(1) as f64;

    let json = format!(
        "{{\n  \"bench\": \"precision\",\n  \"mode\": \"{mode_s}\",\n  \"reps\": {reps},\n  \"inference\": {{\n    \"shape\": \"{batch}x4x40x40\",\n    \"taped_f64_ns\": {taped_f64_ns},\n    \"infer_f64_ns\": {infer_f64_ns},\n    \"infer_f32_ns\": {infer_f32_ns},\n    \"paired_diff_taped_vs_f32_ns\": {inference_diff},\n    \"speedup_f32_vs_taped\": {inference_speedup:.3}\n  }}\n}}\n",
        mode_s = if mode.smoke { "smoke" } else { "full" },
    );
    std::fs::write(&mode.out, &json).expect("write bench json");
    eprintln!("{json}");
    eprintln!("wrote {}", mode.out);

    // Hard gate: this is the headline invariant, so a regression fails
    // `scripts/bench.sh` outright.
    assert!(
        inference_diff > 0,
        "f32 tape-free inference must beat the taped f64 forward: \
         paired median diff {inference_diff} ns ({infer_f32_ns} vs {taped_f64_ns} ns)"
    );
}
