//! End-to-end flight-recorder tests: convergence series written by the
//! real optimization/training/solver loops, byte-stable across identical
//! seeded runs, and a parseable Chrome trace of an instrumented run.
//!
//! These tests share the process-wide series registry and span recorder;
//! a file-local mutex serializes them.

use maps::fdfd::{FdfdSolver, PmlConfig};
use maps::invdes::{ExactAdjoint, InitStrategy, InverseDesigner, OptimConfig};
use maps::linalg::{bicgstab, Complex64, IterativeOptions, IterativeStats, SymBandedMatrix};
use maps::obs::recorder;
use serde::Value;
use std::collections::HashMap;
use std::sync::Mutex;

static SERIAL: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|p| p.into_inner())
}

const INVDES_ITERATIONS: usize = 6;

fn run_bend_design() -> maps::invdes::OptimResult {
    let mut device = maps::data::DeviceKind::Bending.build(maps::data::DeviceResolution::low());
    let solver = ExactAdjoint::new(FdfdSolver::with_pml(PmlConfig::auto(device.grid().dl)));
    device.problem.calibrate(solver.solver()).unwrap();
    let designer = InverseDesigner::new(OptimConfig {
        iterations: INVDES_ITERATIONS,
        learning_rate: 0.12,
        beta_start: 1.5,
        beta_growth: 1.15,
        filter_radius: 1.5,
        symmetry: None,
        litho: None,
        init: InitStrategy::Uniform(0.5),
        ..OptimConfig::default()
    });
    designer.run(&device.problem, &solver).unwrap()
}

/// Collects the convergence CSVs of one seeded bend run as name → bytes.
fn design_series_files(dir: &std::path::Path) -> HashMap<String, String> {
    maps::obs::series_reset();
    run_bend_design();
    let written = maps::obs::write_series_csv(dir).expect("series export");
    written
        .iter()
        .map(|p| {
            (
                p.file_name().unwrap().to_string_lossy().into_owned(),
                std::fs::read_to_string(p).unwrap(),
            )
        })
        .collect()
}

#[test]
fn invdes_series_have_one_row_per_iteration_and_are_byte_stable() {
    let _guard = lock();
    let tmp = std::env::temp_dir().join(format!("maps-fr-{}", std::process::id()));
    let first = design_series_files(&tmp.join("run1"));
    let second = design_series_files(&tmp.join("run2"));

    for name in [
        "invdes.objective.csv",
        "invdes.gray_level.csv",
        "invdes.lr.csv",
    ] {
        let body = first.get(name).unwrap_or_else(|| panic!("{name} written"));
        // Header plus one row per iteration, steps 0..N in order.
        let rows: Vec<&str> = body.lines().collect();
        assert_eq!(rows.len(), 1 + INVDES_ITERATIONS, "{name}:\n{body}");
        assert_eq!(rows[0], "step,value");
        for (k, row) in rows[1..].iter().enumerate() {
            let (step, value) = row.split_once(',').expect("two columns");
            assert_eq!(step.parse::<usize>().unwrap(), k, "{name} row {k}");
            assert!(value.parse::<f64>().unwrap().is_finite(), "{name} row {k}");
        }
        // Two identical seeded runs produce byte-identical trajectories.
        assert_eq!(
            Some(body),
            second.get(name),
            "{name} differs between identical runs"
        );
    }
    std::fs::remove_dir_all(&tmp).ok();
    maps::obs::series_reset();
}

/// `tridiag(−1, diagonal, −1)`, complex symmetric.
fn tridiagonal(n: usize, diagonal: Complex64) -> SymBandedMatrix {
    let mut a = SymBandedMatrix::zeros(n, 1);
    for i in 0..n {
        a.set(i, i, diagonal);
        if i > 0 {
            a.set(i, i - 1, Complex64::from_re(-1.0));
        }
    }
    a
}

/// A converged default-options BiCGSTAB solve of `a·x = b`.
fn solve(a: &SymBandedMatrix, b: &[Complex64]) -> IterativeStats {
    let diagonal: Vec<Complex64> = (0..a.dim()).map(|i| a.get(i, i)).collect();
    let apply = |x: &[Complex64], y: &mut [Complex64]| y.copy_from_slice(&a.matvec(x));
    let (_, stats) = bicgstab(apply, &diagonal, b, IterativeOptions::default()).unwrap();
    stats
}

#[test]
fn bicgstab_residual_trajectory_has_one_row_per_iteration() {
    let _guard = lock();
    maps::obs::series_reset();
    recorder::enable();

    let n = 96;
    let a = tridiagonal(n, Complex64::new(2.3, 0.4));
    let b: Vec<Complex64> = (0..n)
        .map(|k| Complex64::new((k as f64 * 0.11).sin(), (k as f64 * 0.05).cos()))
        .collect();
    let stats = solve(&a, &b);
    recorder::disable();

    let points = maps::obs::series_get("bicgstab.residual")
        .expect("the residual series exists")
        .points();
    assert_eq!(points.len(), stats.iterations, "one row per iteration");
    // Steps are 1..=iterations in order; the last value matches the
    // reported final residual.
    for (k, (step, value)) in points.iter().enumerate() {
        assert_eq!(*step, k as u64 + 1);
        assert!(value.is_finite() && *value >= 0.0);
    }
    assert_eq!(points.last().unwrap().1, stats.residual);
    maps::obs::series_reset();
}

#[test]
fn bicgstab_solves_append_to_one_residual_series() {
    let _guard = lock();
    maps::obs::series_reset();
    recorder::enable();

    let n = 64;
    let a = tridiagonal(n, Complex64::new(2.5, 0.3));
    let rhs = |phase: f64| -> Vec<Complex64> {
        (0..n)
            .map(|k| Complex64::new((k as f64 * 0.13 + phase).sin(), 0.2))
            .collect()
    };
    let first = solve(&a, &rhs(0.0));
    let second = solve(&a, &rhs(1.7));
    recorder::disable();

    let names: Vec<String> = maps::obs::all_series()
        .iter()
        .map(|s| s.name().to_string())
        .filter(|name| name.starts_with("bicgstab."))
        .collect();
    assert_eq!(names, ["bicgstab.residual"], "one series for every solve");
    let points = maps::obs::series_get("bicgstab.residual").unwrap().points();
    assert_eq!(points.len(), first.iterations + second.iterations);
    // The first solve's rows, then the second's, each stepped from 1.
    let (head, tail) = points.split_at(first.iterations);
    for (rows, stats) in [(head, first), (tail, second)] {
        let steps: Vec<u64> = rows.iter().map(|(step, _)| *step).collect();
        assert_eq!(steps, (1..=stats.iterations as u64).collect::<Vec<_>>());
        assert_eq!(rows.last().unwrap().1, stats.residual);
    }
    maps::obs::series_reset();
}

#[test]
fn training_loss_series_has_one_row_per_epoch() {
    let _guard = lock();
    maps::obs::series_reset();

    use maps::core::{ComplexField2d, EmFields, Fidelity, Grid2d, RealField2d, RichLabels, Sample};
    let g = Grid2d::new(12, 12, 0.1);
    let samples: Vec<Sample> = (0..4)
        .map(|k| {
            let mut src = ComplexField2d::zeros(g);
            src.set(3 + k, 6, Complex64::ONE);
            let mut ez = ComplexField2d::zeros(g);
            for iy in 0..12 {
                for ix in 0..12 {
                    let d = (ix as f64 - (3 + k) as f64).abs() + (iy as f64 - 6.0).abs();
                    ez.set(ix, iy, Complex64::new((-d * 0.4).exp(), 0.0));
                }
            }
            Sample {
                device_id: format!("dev-{k}"),
                device_kind: "synthetic".into(),
                eps_r: RealField2d::constant(g, 2.0),
                density: None,
                source: src,
                labels: RichLabels {
                    fidelity: Fidelity::High,
                    wavelength: 1.55,
                    input_port: 0,
                    input_mode: 0,
                    transmissions: vec![],
                    reflection: 0.0,
                    radiation: 0.0,
                    fields: EmFields {
                        ez,
                        hx: ComplexField2d::zeros(g),
                        hy: ComplexField2d::zeros(g),
                    },
                    adjoint_gradient: None,
                    maxwell_residual: 0.0,
                },
            }
        })
        .collect();

    use maps::nn::{Fno, FnoConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut params = maps::tensor::Params::new();
    let mut rng = StdRng::seed_from_u64(0);
    let model = Fno::new(
        &mut params,
        &mut rng,
        FnoConfig {
            in_channels: 4,
            out_channels: 2,
            width: 6,
            modes: 3,
            depth: 1,
        },
    );
    let epochs = 5;
    let report = maps::train::train_field_model_validated(
        &model,
        &mut params,
        &samples[..3],
        &samples[3..],
        &maps::train::TrainConfig {
            epochs,
            learning_rate: 5e-3,
            ..Default::default()
        },
    );

    let loss = maps::obs::series("train.loss");
    let val = maps::obs::series("train.val_nl2");
    let grad_cos = maps::obs::series("train.grad_cosine");
    assert_eq!(loss.len(), epochs, "one loss row per epoch");
    assert_eq!(val.len(), epochs, "one val row per epoch");
    assert_eq!(
        grad_cos.len(),
        epochs - 1,
        "gradient similarity needs a previous epoch"
    );
    for (k, (step, value)) in loss.points().iter().enumerate() {
        assert_eq!(*step, k as u64);
        assert!(value.is_finite());
    }
    assert_eq!(report.val_epochs.len(), epochs);
    assert_eq!(report.final_val().unwrap(), val.points().last().unwrap().1);
    for (_, c) in grad_cos.points() {
        assert!((-1.0..=1.0).contains(&c), "cosine out of range: {c}");
    }
    maps::obs::series_reset();
}

#[test]
fn trace_export_of_instrumented_run_parses() {
    let _guard = lock();
    maps::obs::series_reset();
    // Cold cache so the trace contains factorization spans even when other
    // tests in this binary already solved the same geometry.
    maps::fdfd::factor_cache::global().clear();
    recorder::enable();
    run_bend_design();
    let spans = recorder::take();
    recorder::disable();

    assert!(!spans.is_empty(), "design run records spans");
    let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
    assert!(names.contains(&"invdes.run"), "{names:?}");
    assert!(names.contains(&"invdes.iteration"));
    assert!(names.contains(&"fdfd.factorize"));

    let json = maps::obs::chrome_trace(&spans);
    let value: Value = serde_json::from_str(&json).expect("trace parses");
    let events = value.field("traceEvents").unwrap().as_arr().unwrap();
    assert_eq!(events.len(), spans.len());
    for ev in events {
        assert!(ev.field("ts").unwrap().as_f64().unwrap() >= 0.0);
        assert!(ev.field("dur").unwrap().as_f64().unwrap() >= 0.0);
    }

    // The profile covers the same spans, and inclusive totals dominate
    // self time.
    let profile = maps::obs::profile(&spans);
    let run_entry = profile.iter().find(|e| e.name == "invdes.run").unwrap();
    assert_eq!(run_entry.count, 1);
    assert!(run_entry.self_time <= run_entry.total);
    maps::obs::series_reset();
}
