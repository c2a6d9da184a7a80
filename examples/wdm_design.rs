//! Multi-excitation inverse design of a wavelength-division multiplexer:
//! route λ = 1.50 µm to the top output arm and λ = 1.60 µm to the bottom
//! arm, simultaneously, with crosstalk penalties — the workflow the paper's
//! multiplexing devices (WDM/MDM) require.
//!
//! Both excitations go down the batched solve plane: every iteration issues
//! one batch, each wavelength's forward source and its objective's two
//! monitor vectors as one block, paying one factorization and one pass over
//! the factor per wavelength. The exit report prints the factor-cache and
//! batch counters that prove it.
//!
//! ```text
//! cargo run --release --example wdm_design
//! ```

use maps::data::{DeviceKind, DeviceResolution};
use maps::fdfd::{FdfdSolver, ModeMonitor, ModeSource, PmlConfig, PowerObjective};
use maps::invdes::{
    Combine, ExactAdjoint, Excitation, InitStrategy, MultiExcitationDesigner, OptimConfig,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut device = DeviceKind::Wdm.build(DeviceResolution::low());
    let solver = ExactAdjoint::new(FdfdSolver::with_pml(PmlConfig::auto(device.grid().dl)));
    device.problem.calibrate(solver.solver())?;
    let grid = device.grid();
    let base = &device.problem.base_eps;
    let input = device.ports[0];
    let (out_hi, out_lo) = (device.ports[1], device.ports[2]);

    // One excitation per wavelength channel: reward the designated arm,
    // penalize the other (crosstalk).
    let mut excitations = Vec::new();
    for (lambda, label, want, avoid) in [
        (1.50, "1.50um -> top", out_hi, out_lo),
        (1.60, "1.60um -> bottom", out_lo, out_hi),
    ] {
        let omega = maps::core::omega_for_wavelength(lambda);
        let source = ModeSource::new(base, &input, omega)?.current_density(grid);
        let objective = PowerObjective::new()
            .with_term(
                ModeMonitor::new(base, &want, omega)?.outgoing_functional(),
                1.0 / device.problem.normalization,
            )
            .with_term(
                ModeMonitor::new(base, &avoid, omega)?.outgoing_functional(),
                -0.5 / device.problem.normalization,
            );
        excitations.push(Excitation {
            label: label.into(),
            omega,
            source,
            objective,
            weight: 1.0,
        });
    }

    let designer = MultiExcitationDesigner::new(
        OptimConfig {
            iterations: 25,
            learning_rate: 0.12,
            beta_start: 1.5,
            beta_growth: 1.1,
            filter_radius: 1.2,
            symmetry: None,
            litho: None,
            init: InitStrategy::Uniform(0.5),
            ..OptimConfig::default()
        },
        Combine::SoftMin { tau: 5.0 },
    );

    println!(
        "iter | combined |  {:>16} | {:>16}",
        excitations[0].label, excitations[1].label
    );
    let mut first = Vec::new();
    let mut last = Vec::new();
    let result =
        designer.run_with_callback(&device.problem, &excitations, &solver, |rec, per| {
            if rec.iteration == 0 {
                first = per.to_vec();
            }
            last = per.to_vec();
            if rec.iteration % 4 == 0 {
                println!(
                    "{:4} |   {:.4} |           {:.4} |           {:.4}",
                    rec.iteration, rec.objective, per[0], per[1]
                );
            }
        })?;

    println!(
        "\nchannel objectives: ({:.4}, {:.4}) -> ({:.4}, {:.4})",
        first[0], first[1], last[0], last[1]
    );
    let improved = last[0] > first[0] && last[1] > first[1];
    println!(
        "both wavelength channels improved? {}",
        if improved { "YES" } else { "no" }
    );

    // Wideband verdict on the final design: one batched spectrum sweep,
    // K = 32 wavelengths across the C/L bands in a single `solve_ez_batch`
    // (each distinct ω pays one factorization, then every block of
    // right-hand sides rides one pass over its cached factors). A working
    // WDM shows the 1.50 µm channel peaking on the top arm and 1.60 µm on
    // the bottom arm.
    let final_eps = device.problem.eps_for(&result.density);
    let wavelengths = maps::fdfd::linspace_wavelengths(1.45, 1.65, 32);
    let spectrum = maps::fdfd::transmission_spectrum(
        solver.solver(),
        &final_eps,
        &input,
        &[out_hi, out_lo],
        &wavelengths,
    )?;
    println!(
        "\nfinal-design transmission spectrum (K = {}):",
        spectrum.len()
    );
    println!("  lambda_um |  T(top)  | T(bottom)");
    for p in spectrum.iter().step_by(2) {
        println!(
            "     {:.4} |   {:.4} |    {:.4}",
            p.wavelength_um, p.transmission[0], p.transmission[1]
        );
    }

    // Telemetry from the batched plane: how many batches ran, how many
    // requests they carried, and how often the per-ω factorization was
    // reused instead of recomputed.
    let metrics = maps::obs::global();
    let counter = |name: &str| metrics.counter_value(name).unwrap_or(0);
    println!("\nbatched-plane counters:");
    println!(
        "  fdfd.solve_batch.calls    = {}",
        counter("fdfd.solve_batch.calls")
    );
    println!(
        "  fdfd.solve_batch.requests = {}",
        counter("fdfd.solve_batch.requests")
    );
    println!(
        "  fdfd.factor_cache.hit     = {}",
        counter("fdfd.factor_cache.hit")
    );
    println!(
        "  fdfd.factor_cache.miss    = {}",
        counter("fdfd.factor_cache.miss")
    );

    // Flight-recorder exports: MAPS_TRACE (Chrome/Perfetto trace),
    // MAPS_PROFILE (self-time profile), MAPS_SERIES (convergence CSVs).
    let exported = maps::obs::export_from_env()?;
    for path in &exported {
        println!("exported {}", path.display());
    }
    Ok(())
}
