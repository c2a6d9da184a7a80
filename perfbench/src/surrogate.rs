//! `surrogate`: the paper's §IV-D loop — NN-driven adjoint design of the
//! bending device at 40×40 through `FieldGradient` over a
//! `NeuralFieldSolver` (FNO), closed loop, one thread.
//!
//! A session's set-up labels a small dataset with the exact solver and
//! trains the surrogate for a fixed budget with `train_field_model`. One op
//! is one NN-driven optimiser iteration. Each session's final design is
//! FDFD-verified outside both the ops and the set-up.

use std::time::Instant;

use maps_core::{Fidelity, FieldSolver};
use maps_data::{label_batch_resilient_par, DeviceKind, DeviceResolution, GenerateConfig};
use maps_fdfd::{FdfdSolver, PmlConfig};
use maps_invdes::{FieldGradient, InverseDesigner, Patch};
use maps_nn::{Fno, FnoConfig, Model};
use maps_tensor::Params;
use maps_train::featurize::encode_input;
use maps_train::{train_field_model, LoaderConfig, NeuralFieldSolver, TrainConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::calib::Calibrator;
use crate::ledger::{self, Ledger, CHECK, NN_CALL};
use crate::solver::Spanned;
use crate::{ms, Args, Outcome};

/// Iterations per session. Short sessions give five set-ups per 20 s run:
/// a median of three seconds-long set-ups spread up to 0.19 over ten runs.
const ITERATIONS: usize = 24;
/// Seconds of a run one session stands for on the reference host.
const SESSION_SHARE_S: f64 = 4.0;
/// Densities labelled per session (each yields a forward and an
/// adjoint-source sample).
const TRAIN_DENSITIES: usize = 8;
const EPOCHS: usize = 2;
const BATCH: usize = 4;
const FNO: FnoConfig = FnoConfig {
    in_channels: 4,
    out_channels: 2,
    width: 12,
    modes: 6,
    depth: 3,
};
/// Largest relative gap between tape-free `infer` and taped `forward`.
const INFER_TOL: f64 = 1e-12;

/// Computed MFLOP of one FNO inference on an `h × w` grid: 1×1 convolutions
/// as dense products, each spectral layer as a forward and an inverse 2-D
/// FFT per channel (5·N·log2 N) plus the complex corner-mode product.
fn fno_mflop(c: FnoConfig, h: usize, w: usize) -> f64 {
    let hw = (h * w) as f64;
    let width = c.width as f64;
    let fft = 5.0 * hw * hw.log2();
    let lift = 2.0 * hw * c.in_channels as f64 * width;
    let block = 2.0 * width * fft
        + 8.0 * (4 * c.modes * c.modes) as f64 * width * width
        + 2.0 * hw * width * width;
    let proj = 2.0 * hw * width * width + 2.0 * hw * width * c.out_channels as f64;
    (lift + c.depth as f64 * block + proj) / 1e6
}

/// Largest relative difference between `Model::infer` and the taped
/// `forward` on one input.
fn infer_gap(model: &Fno, params: &Params, x: maps_tensor::Tensor<f64>) -> f64 {
    let fast = model.infer(params, x.clone());
    let (taped, _) = model.forward(params, x.trace()).split_tape();
    let scale = taped
        .as_slice()
        .iter()
        .fold(0.0f64, |m, v| m.max(v.abs()))
        .max(1e-300);
    fast.as_slice()
        .iter()
        .zip(taped.as_slice())
        .map(|(a, b)| (a - b).abs() / scale)
        .fold(
            if fast.len() == taped.len() {
                0.0
            } else {
                f64::INFINITY
            },
            f64::max,
        )
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut ledger = Ledger::default();
    let mut rng = StdRng::seed_from_u64(args.seed);
    let mut calibrator = Calibrator::new();
    let mut fit_s = Vec::new();
    let mut steps = 0usize;
    let mut grid = None;
    for session in 0..crate::sessions(args.seconds, SESSION_SHARE_S, 1) {
        let traced = args.trace && session % 2 == 0;
        out.begin_peak();
        let t0 = Instant::now();
        let mut device = DeviceKind::Bending.build(DeviceResolution::low());
        let fdfd = FdfdSolver::with_pml(PmlConfig::auto(device.grid().dl));
        grid = Some(device.grid());
        if let Err(e) = device.problem.calibrate(&fdfd) {
            out.attempted += ITERATIONS as u64;
            out.failed += ITERATIONS as u64 - 1;
            out.fail(format!("session {session}: calibration failed: {e}"));
            continue;
        }
        let (dnx, dny) = device.problem.design_size;
        let densities: Vec<Patch> = (0..TRAIN_DENSITIES)
            .map(|_| crate::label::random_density(&mut rng, dnx, dny))
            .collect();
        let report = label_batch_resilient_par(
            &device,
            &densities,
            &GenerateConfig {
                fidelity: Fidelity::Low,
                with_adjoint_source_samples: true,
                ..GenerateConfig::default()
            },
        );
        if !report.quarantined.is_empty() {
            out.fail(format!(
                "session {session}: {} training samples quarantined",
                report.quarantined.len()
            ));
        }
        let mut params = Params::new();
        let model = Fno::new(
            &mut params,
            &mut StdRng::seed_from_u64(crate::mix(args.seed, session as u64)),
            FNO,
        );
        let fit0 = Instant::now();
        let trained = train_field_model(
            &model,
            &mut params,
            &report.ok,
            &TrainConfig {
                epochs: EPOCHS,
                learning_rate: 3e-3,
                loader: LoaderConfig {
                    batch_size: BATCH,
                    ..LoaderConfig::default()
                },
                ..TrainConfig::default()
            },
        );
        fit_s.push(fit0.elapsed().as_secs_f64());
        steps += report.ok.len().div_ceil(BATCH) * EPOCHS - trained.skipped_batches;
        let setup_s = t0.elapsed().as_secs_f64();

        let problem = &device.problem;
        let (source, omega) = (
            problem.source().expect("calibrated device has a source"),
            problem.omega(),
        );
        let objective = problem
            .objective()
            .expect("calibrated device has an objective");
        let neural = Spanned::new(
            NeuralFieldSolver::new(model, params, trained.normalizer),
            NN_CALL,
        );
        let check_infer = |eps: &maps_core::RealField2d, out: &mut Outcome| {
            let inner = neural.inner();
            let x = encode_input(eps, &source, omega, inner.model().wants_wave_prior());
            let gap = infer_gap(inner.model(), inner.params(), x);
            if !(gap <= INFER_TOL) {
                out.fail(format!(
                    "session {session}: infer differs from taped forward by {gap:.3e}"
                ));
            }
        };
        check_infer(&problem.base_eps, &mut out);

        if traced {
            maps_obs::recorder::enable();
        }
        let gradient = FieldGradient::new(&neural);
        let designer = InverseDesigner::new(crate::invdes::optim_config(
            ITERATIONS,
            crate::mix(args.seed, session as u64),
        ));
        let mut session_ops = Vec::with_capacity(ITERATIONS);
        let mut kernels = Vec::with_capacity(ITERATIONS);
        let mut bad = Vec::new();
        let window0 = ledger::now_offset();
        let mut last = Instant::now();
        let result = designer.run_with_callback(problem, &gradient, |rec, _, _| {
            session_ops.push(ms(last.elapsed()));
            let _check = maps_obs::span(CHECK);
            kernels.push(calibrator.measure());
            if !rec.objective.is_finite() || rec.recovered {
                bad.push(format!(
                    "session {session} iteration {}: objective {} recovered={}",
                    rec.iteration, rec.objective, rec.recovered
                ));
            }
            drop(_check);
            last = Instant::now();
        });
        let window1 = ledger::now_offset();
        out.end_peak();
        out.attempted += ITERATIONS as u64;
        let scaled = out.session(setup_s, &session_ops, &kernels);
        out.failed += ITERATIONS.saturating_sub(session_ops.len()) as u64;
        for b in bad {
            out.fail(b);
        }

        // FDFD verification of the final design, outside ops and set-up.
        {
            let _check = maps_obs::span(CHECK);
            match &result {
                Ok(r) if r.recoveries.is_empty() => {
                    let eps = problem.eps_for(&r.density);
                    check_infer(&eps, &mut out);
                    match fdfd.solve_ez(&eps, &source, omega) {
                        Ok(field) => {
                            let t = objective.eval(&field);
                            let res = fdfd.residual(&eps, &source, omega, &field);
                            if !(0.0..=1.5).contains(&t) || !(res < crate::invdes::RESIDUAL_TOL) {
                                out.fail(format!(
                                    "session {session}: FDFD-verified transmission {t} residual {res:.3e}"
                                ));
                            }
                        }
                        Err(e) => {
                            out.fail(format!("session {session}: FDFD verification failed: {e}"))
                        }
                    }
                }
                Ok(r) => out.fail(format!(
                    "session {session}: {} recoveries",
                    r.recoveries.len()
                )),
                Err(e) => out.fail(format!("session {session}: optimiser failed: {e}")),
            }
        }

        if args.trace {
            if traced {
                let spans = maps_obs::recorder::take();
                maps_obs::recorder::disable();
                ledger.ops += session_ops.len() as u64;
                ledger.op_ms += session_ops.iter().sum::<f64>();
                if let Ok(r) = &result {
                    ledger.add("core.retries", r.recoveries.len() as f64);
                }
                ledger.absorb(spans, (window0, window1), None, 1.0);
                ledger.traced_ops_ms.extend(scaled);
            } else {
                ledger.untraced_ops_ms.extend(scaled);
            }
        }
    }
    if args.trace {
        let g = grid.expect("at least one session ran");
        let per_op =
            ledger.sums.get("nn.infer.count").copied().unwrap_or(0.0) / ledger.ops.max(1) as f64;
        ledger
            .fixed
            .insert("nn.infer.mflop", per_op * fno_mflop(FNO, g.ny, g.nx));
        ledger
            .fixed
            .insert("train.fit_s", crate::stats::percentile(&fit_s, 50.0));
        ledger
            .fixed
            .insert("train.steps", steps as f64 / fit_s.len().max(1) as f64);
        out.layers = ledger.finish(0, 0, &args.out, "surrogate");
    }
    out
}
