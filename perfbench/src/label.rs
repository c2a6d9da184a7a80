//! `label`: low-fidelity (40×40) rich-label generation, closed loop, one
//! caller; the program's own rayon striping uses every core.
//!
//! Sessions rotate over MDM (2 modes), WDM (2 wavelengths) and TOS (2 heater
//! states); a session builds and calibrates its device (its set-up) and runs
//! [`OPS_PER_SESSION`] ops. One op is one `label_batch_resilient_par_with`
//! call on [`DENSITIES_PER_CORE`] fresh seeded densities per core, with the
//! default `GenerateConfig` plus adjoint-source samples.

use std::time::Instant;

use maps_core::Fidelity;
use maps_data::{label_batch_resilient_par_with, DeviceKind, DeviceResolution, GenerateConfig};
use maps_fdfd::{FdfdSolver, PmlConfig};
use maps_invdes::Patch;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::calib::ParallelCalibrator;
use crate::ledger::{self, Ledger, FDFD_CALL};
use crate::solver::Spanned;
use crate::{ms, Args, Outcome};

const DEVICES: [DeviceKind; 3] = [DeviceKind::Mdm, DeviceKind::Wdm, DeviceKind::Tos];
pub const OPS_PER_SESSION: usize = 12;
/// Seconds of a run one session stands for on the reference host.
const SESSION_SHARE_S: f64 = 0.7;
const DENSITIES_PER_CORE: usize = 2;
/// `maxwell_residual` every sample must stay under.
const RESIDUAL_TOL: f64 = 1e-8;

/// A seeded smooth random density on an `nx × ny` design window: a few
/// Gaussian bumps of random sign through a logistic projection, so designs
/// look like the soft blobs dataset sampling produces.
pub fn random_density(rng: &mut StdRng, nx: usize, ny: usize) -> Patch {
    let bumps: Vec<(f64, f64, f64, f64)> = (0..6)
        .map(|_| {
            (
                rng.gen::<f64>() * nx as f64,
                rng.gen::<f64>() * ny as f64,
                (0.1 + 0.2 * rng.gen::<f64>()) * nx.max(ny) as f64,
                if rng.gen::<bool>() { 1.0 } else { -1.0 },
            )
        })
        .collect();
    let data = (0..nx * ny)
        .map(|k| {
            let (x, y) = ((k % nx) as f64 + 0.5, (k / nx) as f64 + 0.5);
            let field: f64 = bumps
                .iter()
                .map(|&(cx, cy, r, s)| {
                    s * (-((x - cx).powi(2) + (y - cy).powi(2)) / (2.0 * r * r)).exp()
                })
                .sum();
            1.0 / (1.0 + (-6.0 * field).exp())
        })
        .collect();
    Patch::from_vec(nx, ny, data)
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut ledger = Ledger::default();
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let per_op = DENSITIES_PER_CORE * nproc;
    let config = GenerateConfig {
        fidelity: Fidelity::Low,
        with_adjoint_source_samples: true,
        ..GenerateConfig::default()
    };
    let harness_thread = maps_obs::current_thread_id();
    let mut rng = StdRng::seed_from_u64(args.seed);
    let mut calibrator = ParallelCalibrator::new(nproc);
    // Process warm-up a long labelling job pays once (first-touch heap
    // growth, worker start-up): one unmeasured batch on the first device.
    {
        let device = DEVICES[0].build(DeviceResolution::low());
        let fdfd = FdfdSolver::with_pml(PmlConfig::auto(device.grid().dl));
        let (dnx, dny) = device.problem.design_size;
        let densities: Vec<Patch> = (0..per_op)
            .map(|_| random_density(&mut rng, dnx, dny))
            .collect();
        label_batch_resilient_par_with(&fdfd, &device, &densities, &config);
    }
    let mut cells = 0;
    let mut nx = 0;
    for session in 0..crate::sessions(args.seconds, SESSION_SHARE_S, DEVICES.len()) {
        let traced = args.trace && session % 2 == 0;
        out.begin_peak();
        let t0 = Instant::now();
        let mut device = DEVICES[session % DEVICES.len()].build(DeviceResolution::low());
        let fdfd = FdfdSolver::with_pml(PmlConfig::auto(device.grid().dl));
        if let Err(e) = device.problem.calibrate(&fdfd) {
            out.attempted += OPS_PER_SESSION as u64;
            out.failed += OPS_PER_SESSION as u64 - 1;
            out.fail(format!("session {session}: calibration failed: {e}"));
            continue;
        }
        let setup_s = t0.elapsed().as_secs_f64();
        let solver = Spanned::new(fdfd, FDFD_CALL);
        let (dnx, dny) = device.problem.design_size;
        let expected = per_op * device.variants.len() * 2;
        (cells, nx) = (device.grid().len(), device.grid().nx);

        if traced {
            maps_obs::recorder::enable();
        }
        let stats0 = maps_fdfd::factor_cache::global().stats();
        let window0 = ledger::now_offset();
        let mut session_ops = Vec::with_capacity(OPS_PER_SESSION);
        let mut kernels = Vec::with_capacity(OPS_PER_SESSION);
        let mut last_density = None;
        for op in 0..OPS_PER_SESSION {
            let densities: Vec<Patch> = (0..per_op)
                .map(|_| random_density(&mut rng, dnx, dny))
                .collect();
            let t = Instant::now();
            let report = {
                let _op = maps_obs::span("perfbench.op");
                label_batch_resilient_par_with(&solver, &device, &densities, &config)
            };
            session_ops.push(ms(t.elapsed()));
            kernels.push(calibrator.measure());
            out.attempted += 1;
            let bad = report
                .ok
                .iter()
                .filter(|s| !(s.labels.maxwell_residual < RESIDUAL_TOL))
                .count();
            if !report.quarantined.is_empty() || report.ok.len() != expected || bad > 0 {
                out.fail(format!(
                    "session {session} op {op}: {} samples, {} quarantined, {bad} over residual tolerance (first: {:?})",
                    report.ok.len(),
                    report.quarantined.len(),
                    report.quarantined.first().map(|q| &q.error)
                ));
            }
            if traced {
                ledger.add("data.samples", report.ok.len() as f64);
                ledger.add("core.retries", report.quarantined.len() as f64);
            }
            last_density = densities.into_iter().last();
        }
        let window1 = ledger::now_offset();
        out.end_peak();
        let stats1 = maps_fdfd::factor_cache::global().stats();
        let scaled = out.session(setup_s, &session_ops, &kernels);
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
                ledger.absorb(
                    spans,
                    (window0, window1),
                    Some(harness_thread),
                    nproc as f64,
                );
                if let Some(density) = &last_density {
                    let mut eps = device.problem.base_eps.clone();
                    maps_data::generate::paint_density(&mut eps, &device, density);
                    let omega = maps_core::omega_for_wavelength(device.variants[0].wavelength);
                    ledger.assembly_shares.push(ledger::replay_assembly_share(
                        solver.inner(),
                        &eps,
                        omega,
                    ));
                }
                ledger.traced_ops_ms.extend(scaled);
            } else {
                ledger.untraced_ops_ms.extend(scaled);
            }
        }
    }
    if args.trace {
        out.layers = ledger.finish(cells, nx, &args.out, "label");
    }
    out
}
