//! Integration tests for the batched excitation plane (`SolveRequest` /
//! `FieldSolver::solve_ez_batch`).
//!
//! These tests exercise the *global* factorization cache and the *global*
//! telemetry recorder, both shared by every test thread in this binary, so
//! a file-local mutex serializes them (same discipline as
//! `tests/factor_cache.rs`).

use maps::core::{
    omega_for_wavelength, ComplexField2d, FaultInjectingSolver, FaultPlan, FieldSolver, Grid2d,
    InjectedFault, RealField2d, RetryPolicy, RobustSolver, SolveRequest,
};
use maps::data::{DeviceKind, DeviceResolution};
use maps::fdfd::factor_cache::{self, DEFAULT_CAPACITY};
use maps::fdfd::{FdfdSolver, ModeMonitor, ModeSource, PmlConfig, PowerObjective};
use maps::invdes::{
    Combine, ExactAdjoint, Excitation, InitStrategy, MultiExcitationDesigner, OptimConfig,
};
use maps::linalg::Complex64;
use std::sync::Mutex;

static SERIAL: Mutex<()> = Mutex::new(());

struct CacheGuard<'a> {
    _lock: std::sync::MutexGuard<'a, ()>,
}

fn exclusive_cache() -> CacheGuard<'static> {
    let lock = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let cache = factor_cache::global();
    cache.set_capacity(DEFAULT_CAPACITY);
    cache.clear();
    CacheGuard { _lock: lock }
}

impl Drop for CacheGuard<'_> {
    fn drop(&mut self) {
        let cache = factor_cache::global();
        cache.set_capacity(DEFAULT_CAPACITY);
        cache.clear();
    }
}

fn assert_bit_identical(a: &ComplexField2d, b: &ComplexField2d, what: &str) {
    let (a, b) = (a.as_slice(), b.as_slice());
    assert_eq!(a.len(), b.len(), "{what}: length");
    for (k, (x, y)) in a.iter().zip(b).enumerate() {
        assert!(
            x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits(),
            "{what}: cell {k} differs: {x:?} != {y:?}"
        );
    }
}

fn waveguide_fixture() -> (RealField2d, ComplexField2d, ComplexField2d) {
    let grid = Grid2d::new(44, 36, 0.08);
    let mut eps = RealField2d::constant(grid, 2.25);
    for iy in 14..22 {
        for ix in 0..44 {
            eps.set(ix, iy, 12.11);
        }
    }
    let mut j1 = ComplexField2d::zeros(grid);
    j1.set(9, 18, Complex64::ONE);
    let mut j2 = ComplexField2d::zeros(grid);
    j2.set(30, 17, Complex64::new(0.3, -0.7));
    (eps, j1, j2)
}

/// Tentpole acceptance: a mixed-frequency, mixed-direction batch returns
/// exactly the bits of the scalar entry points, in request order.
#[test]
fn mixed_frequency_batch_is_bit_identical_to_scalar_path() {
    let _guard = exclusive_cache();
    let (eps, j1, j2) = waveguide_fixture();
    let w1 = omega_for_wavelength(1.50);
    let w2 = omega_for_wavelength(1.60);
    let solver = FdfdSolver::new();

    // Scalar references first (cold cache), then a cold batch.
    let refs = [
        solver.solve_ez(&eps, &j1, w1).expect("fwd w1"),
        solver.solve_ez(&eps, &j2, w2).expect("fwd w2"),
        solver.solve_adjoint_ez(&eps, &j2, w1).expect("adj w1"),
        solver.solve_adjoint_ez(&eps, &j1, w2).expect("adj w2"),
        solver.solve_ez(&eps, &j2, w1).expect("fwd w1 again"),
    ];
    factor_cache::global().clear();
    let misses_before = factor_cache::global().stats().misses;

    let requests = [
        SolveRequest::forward(&j1, w1),
        SolveRequest::forward(&j2, w2),
        SolveRequest::adjoint(&j2, w1),
        SolveRequest::adjoint(&j1, w2),
        SolveRequest::forward(&j2, w1),
    ];
    let out = solver.solve_ez_batch(&eps, &requests);
    assert_eq!(out.len(), requests.len());
    for (k, (got, want)) in out.iter().zip(&refs).enumerate() {
        let got = got.as_ref().expect("batched solve");
        assert_bit_identical(got, want, &format!("request {k}"));
    }

    // Two distinct frequencies in the batch -> exactly two factorizations.
    let misses = factor_cache::global().stats().misses - misses_before;
    assert_eq!(misses, 2, "one factorization per distinct omega");
}

fn wdm_excitations(
    device: &maps::data::DeviceSpec,
) -> Result<Vec<Excitation>, Box<dyn std::error::Error>> {
    let grid = device.grid();
    let base = &device.problem.base_eps;
    let input = device.ports[0];
    let (out_hi, out_lo) = (device.ports[1], device.ports[2]);
    let mut excitations = Vec::new();
    for (lambda, label, want, avoid) in [
        (1.50, "1.50um -> top", out_hi, out_lo),
        (1.60, "1.60um -> bottom", out_lo, out_hi),
    ] {
        let omega = omega_for_wavelength(lambda);
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
    Ok(excitations)
}

/// Acceptance: a two-excitation WDM design iteration factorizes exactly
/// once per distinct frequency — its one batch pays one factorization per
/// ω, and the second iteration reuses both through the factor cache.
#[test]
fn wdm_iteration_factorizes_exactly_once_per_frequency() {
    let _guard = exclusive_cache();

    let mut device = DeviceKind::Wdm.build(DeviceResolution::low());
    let solver = ExactAdjoint::new(FdfdSolver::with_pml(PmlConfig::auto(device.grid().dl)));
    device
        .problem
        .calibrate(solver.solver())
        .expect("calibrate");
    let excitations = wdm_excitations(&device).expect("excitations");

    let designer = MultiExcitationDesigner::new(
        OptimConfig {
            iterations: 2,
            init: InitStrategy::Uniform(0.5),
            ..OptimConfig::default()
        },
        Combine::WeightedSum,
    );
    let (nx, ny) = device.problem.design_size;
    let theta = InitStrategy::Uniform(0.5).build(nx, ny);

    // Calibration and mode solving warmed the cache with unrelated
    // operators; the measured iterations start cold.
    factor_cache::global().clear();
    maps::obs::recorder::enable();
    let first = designer
        .evaluate(&device.problem, &excitations, &solver, &theta, 1.5)
        .expect("first iteration");
    let second = designer
        .evaluate(&device.problem, &excitations, &solver, &theta, 1.5)
        .expect("second iteration");
    let spans = maps::obs::recorder::take();
    maps::obs::recorder::disable();

    assert_eq!(first.2.len(), 2, "two per-excitation objectives");
    assert!(
        (first.0 - second.0).abs() == 0.0,
        "same design evaluates identically"
    );

    let factorizations = spans.iter().filter(|s| s.name == "fdfd.factorize").count();
    assert_eq!(
        factorizations, 2,
        "one factorization per distinct omega across both iterations \
         (the second iteration hits the cache)"
    );

    // Each iteration issues one batch carrying both excitations, each as
    // its forward source and its objective's two monitor vectors, grouped
    // into one ω bucket per excitation.
    let batches: Vec<_> = spans
        .iter()
        .filter(|s| s.name == "fdfd.solve_batch")
        .collect();
    assert_eq!(batches.len(), 2, "one batch per iteration");
    for s in &batches {
        assert_eq!(
            s.field("requests"),
            Some("6"),
            "2 excitations x (forward + 2 monitor vectors) per batch"
        );
        assert_eq!(s.field("groups"), Some("2"), "two distinct frequencies");
    }
}

/// Acceptance: RobustSolver batch semantics. An injected failure is
/// retried for its own slot only; an unrecoverable one is quarantined
/// without poisoning the rest of the batch.
#[test]
fn robust_batch_quarantines_only_the_faulted_request() {
    let _guard = exclusive_cache();
    let (eps, j1, j2) = waveguide_fixture();
    let omega = omega_for_wavelength(1.55);

    let clean = FdfdSolver::new();
    let refs = [
        clean.solve_ez(&eps, &j1, omega).expect("ref 0"),
        clean.solve_ez(&eps, &j2, omega).expect("ref 1"),
        clean.solve_adjoint_ez(&eps, &j1, omega).expect("ref 2"),
    ];
    let requests = [
        SolveRequest::forward(&j1, omega),
        SolveRequest::forward(&j2, omega),
        SolveRequest::adjoint(&j1, omega),
    ];

    // One transient fault: within a batch, first attempts consume call
    // indices 0..K, so call 1 is request 1's first attempt and its retry
    // (call 3) succeeds.
    let transient = RobustSolver::new(
        FaultInjectingSolver::new(
            FdfdSolver::new(),
            FaultPlan::new().fail_at(1, InjectedFault::Error),
        ),
        RetryPolicy::default(),
    );
    let out = transient.solve_ez_batch(&eps, &requests);
    for (k, (got, want)) in out.iter().zip(&refs).enumerate() {
        let got = got.as_ref().expect("recovered batch slot");
        assert_bit_identical(got, want, &format!("transient request {k}"));
    }
    let stats = transient.stats();
    assert_eq!(stats.retries, 1, "exactly one retry");
    assert_eq!(stats.recovered, 1, "the faulted request recovered");
    assert_eq!(stats.unrecovered, 0);

    // A persistent fault on request 1: first attempt (call 1) and both
    // retries (calls 3, 4) fail, so only that slot is quarantined.
    let persistent = RobustSolver::new(
        FaultInjectingSolver::new(
            FdfdSolver::new(),
            FaultPlan::new()
                .fail_at(1, InjectedFault::Error)
                .fail_at(3, InjectedFault::Error)
                .fail_at(4, InjectedFault::Error),
        ),
        RetryPolicy::default(),
    );
    let out = persistent.solve_ez_batch(&eps, &requests);
    assert!(out[1].is_err(), "the poisoned request stays quarantined");
    assert_bit_identical(out[0].as_ref().expect("slot 0"), &refs[0], "healthy slot 0");
    assert_bit_identical(out[2].as_ref().expect("slot 2"), &refs[2], "healthy slot 2");
    let stats = persistent.stats();
    assert_eq!(stats.unrecovered, 1, "one quarantined request");
    assert_eq!(stats.retries, 2, "both retries consumed");
}
