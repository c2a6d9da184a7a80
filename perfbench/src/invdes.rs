//! `invdes`: multi-start adjoint topology optimisation of the 90° bend at
//! the high-fidelity 80×80 grid, closed loop, one caller, one thread.
//!
//! A session builds and calibrates the device (its set-up), then runs
//! [`ITERATIONS`] optimiser iterations with the `inverse_design_bend`
//! settings from a seeded random init. One op is one iteration: the interval
//! between consecutive optimiser callbacks, minus the harness's own check
//! time. Every iteration is a factor-cache miss on a 25 MB band.

use std::time::Instant;

use maps_data::{DeviceKind, DeviceResolution};
use maps_fdfd::{FdfdSolver, PmlConfig};
use maps_invdes::{ExactAdjoint, InitStrategy, InverseDesigner, OptimConfig};

use crate::calib::Calibrator;
use crate::ledger::{self, Ledger, CHECK};
use crate::{ms, Args, Outcome};

/// Iterations per session.
pub const ITERATIONS: usize = 20;
/// Seconds of a run one session stands for on the reference host.
const SESSION_SHARE_S: f64 = 2.5;
/// Every this many iterations the forward field is residual-checked.
const RESIDUAL_EVERY: usize = 5;
/// ‖Ax−b‖/‖b‖ a direct solve must reach.
pub const RESIDUAL_TOL: f64 = 1e-8;
/// Absolute tolerance of the stored objective trajectory.
const TRAJECTORY_TOL: f64 = 1e-6;
/// Stored session-0 objective trajectories, keyed by seed.
const REFERENCE: &str = "perfbench/reference/invdes.json";

/// The `inverse_design_bend` optimiser settings from a seeded random init.
pub fn optim_config(iterations: usize, init_seed: u64) -> OptimConfig {
    OptimConfig {
        iterations,
        learning_rate: 0.12,
        beta_start: 1.5,
        beta_growth: 1.12,
        filter_radius: 1.5,
        symmetry: None,
        litho: None,
        init: InitStrategy::Random {
            seed: init_seed,
            mean: 0.5,
            amplitude: 0.25,
        },
        ..OptimConfig::default()
    }
}

fn reference_trajectory(seed: u64) -> Result<Option<Vec<f64>>, String> {
    let text = std::fs::read_to_string(REFERENCE).map_err(|e| format!("{REFERENCE}: {e}"))?;
    let root: serde::Value =
        serde_json::from_str(&text).map_err(|e| format!("{REFERENCE}: {e}"))?;
    let trajectories = root
        .field("trajectories")
        .map_err(|e| format!("{REFERENCE}: {e}"))?;
    match trajectories.field(&seed.to_string()) {
        Ok(v) => v
            .as_arr()
            .and_then(|xs| xs.iter().map(|x| x.as_f64()).collect::<Result<Vec<_>, _>>())
            .map(Some)
            .map_err(|e| format!("{REFERENCE}: seed {seed}: {e}")),
        Err(_) => Ok(None),
    }
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut ledger = Ledger::default();
    let reference = reference_trajectory(args.seed);
    if let Err(e) = &reference {
        out.fail(e.clone());
    }
    let mut replay_design = None;
    let mut calibrator = Calibrator::new();
    for session in 0..crate::sessions(args.seconds, SESSION_SHARE_S, 1) {
        let traced = args.trace && session % 2 == 0;
        if traced {
            maps_obs::recorder::enable();
        }
        out.begin_peak();
        let t0 = Instant::now();
        let mut device = DeviceKind::Bending.build(DeviceResolution::high());
        let pml = PmlConfig::auto(device.grid().dl);
        let solver = ExactAdjoint::new(FdfdSolver::with_pml(pml));
        if let Err(e) = device.problem.calibrate(solver.solver()) {
            out.fail(format!("session {session}: calibration failed: {e}"));
            out.attempted += ITERATIONS as u64;
            out.failed += ITERATIONS as u64 - 1;
            continue;
        }
        let setup_s = t0.elapsed().as_secs_f64();

        let problem = &device.problem;
        let checker = FdfdSolver::with_pml(pml);
        let (source, omega) = (
            problem.source().expect("calibrated device has a source"),
            problem.omega(),
        );
        let designer = InverseDesigner::new(optim_config(
            ITERATIONS,
            crate::mix(args.seed, session as u64),
        ));
        let mut trajectory = Vec::with_capacity(ITERATIONS);
        let mut session_ops = Vec::with_capacity(ITERATIONS);
        let mut kernels = Vec::with_capacity(ITERATIONS);
        let mut problems = Vec::new();
        let stats0 = maps_fdfd::factor_cache::global().stats();
        let window0 = ledger::now_offset();
        let mut last = Instant::now();
        let result = designer.run_with_callback(problem, &solver, |rec, density, field| {
            session_ops.push(ms(last.elapsed()));
            let _check = maps_obs::span(CHECK);
            kernels.push(calibrator.measure());
            trajectory.push(rec.objective);
            if !rec.objective.is_finite() || rec.recovered {
                problems.push(format!(
                    "session {session} iteration {}: objective {} recovered={}",
                    rec.iteration, rec.objective, rec.recovered
                ));
            } else if rec.iteration % RESIDUAL_EVERY == 0 {
                let r = checker.residual(&problem.eps_for(density), &source, omega, field);
                if !(r < RESIDUAL_TOL) {
                    problems.push(format!(
                        "session {session} iteration {}: residual {r:.3e}",
                        rec.iteration
                    ));
                }
            }
            drop(_check);
            last = Instant::now();
        });
        let window1 = ledger::now_offset();
        out.end_peak();
        let stats1 = maps_fdfd::factor_cache::global().stats();
        out.attempted += ITERATIONS as u64;
        let scaled = out.session(setup_s, &session_ops, &kernels);
        match &result {
            Ok(r) if !r.recoveries.is_empty() => problems.push(format!(
                "session {session}: {} recoveries",
                r.recoveries.len()
            )),
            Ok(r) => replay_design = Some(problem.eps_for(&r.density)),
            Err(e) => problems.push(format!("session {session}: optimiser failed: {e}")),
        }
        let missing = ITERATIONS.saturating_sub(session_ops.len()) as u64;
        out.failed += missing;
        for p in problems.drain(..) {
            out.fail(p);
        }
        if session == 0 {
            out.trajectory = trajectory.clone();
            if let Ok(Some(reference)) = &reference {
                let worst = reference
                    .iter()
                    .zip(&trajectory)
                    .map(|(a, b)| (a - b).abs())
                    .fold(
                        if reference.len() == trajectory.len() {
                            0.0
                        } else {
                            f64::INFINITY
                        },
                        f64::max,
                    );
                if !(worst <= TRAJECTORY_TOL) {
                    out.fail(format!(
                        "objective trajectory differs from {REFERENCE} by {worst:.3e} (tolerance {TRAJECTORY_TOL:e})"
                    ));
                } else {
                    out.notes.push(format!(
                        "session-0 objective trajectory matches the stored reference within {worst:.1e}"
                    ));
                }
            } else if reference.is_ok() {
                out.notes.push(format!(
                    "no stored trajectory for seed {}; trajectory not checked",
                    args.seed
                ));
            }
        }

        if args.trace {
            if traced {
                let spans = maps_obs::recorder::take();
                maps_obs::recorder::disable();
                ledger.ops += session_ops.len() as u64;
                ledger.op_ms += session_ops.iter().sum::<f64>();
                ledger.add("cache_hits", (stats1.hits - stats0.hits) as f64);
                ledger.add("cache_misses", (stats1.misses - stats0.misses) as f64);
                ledger.add(
                    "fdfd.cache.evictions",
                    (stats1.evictions - stats0.evictions) as f64,
                );
                if let Ok(r) = &result {
                    ledger.add("core.retries", r.recoveries.len() as f64);
                }
                ledger.absorb(spans, (window0, window1), None, 1.0);
                if let Some(eps) = &replay_design {
                    ledger
                        .assembly_shares
                        .push(ledger::replay_assembly_share(&checker, eps, omega));
                }
                ledger.traced_ops_ms.extend(scaled);
            } else {
                ledger.untraced_ops_ms.extend(scaled);
            }
        }
    }
    if args.trace {
        let grid = DeviceKind::Bending.build(DeviceResolution::high()).grid();
        out.layers = ledger.finish(grid.len(), grid.nx, &args.out, "invdes");
    }
    out
}
