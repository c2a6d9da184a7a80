//! Integration tests for the process-wide factorization cache.
//!
//! These tests exercise the *global* cache and the *global* telemetry
//! registry/recorder, which are shared by every test thread in this binary.
//! A file-local mutex serializes them so stats deltas and recorded spans
//! are attributable to one test at a time.

use maps::core::{
    omega_for_wavelength, ComplexField2d, FieldSolver, Grid2d, RealField2d, RetryPolicy,
    RobustSolver,
};
use maps::data::{DeviceKind, DeviceResolution};
use maps::fdfd::factor_cache::{self, DEFAULT_CAPACITY};
use maps::fdfd::{FdfdSolver, PmlConfig};
use maps::invdes::{ExactAdjoint, InitStrategy, InverseDesigner, OptimConfig, Patch};
use maps::linalg::Complex64;
use std::sync::Mutex;

static SERIAL: Mutex<()> = Mutex::new(());

/// Locks the global cache for one test: resets capacity to the default and
/// drops every cached factor, restoring the same state on drop.
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

fn point_source(grid: Grid2d, ix: usize, iy: usize) -> ComplexField2d {
    let mut j = ComplexField2d::zeros(grid);
    j.set(ix, iy, Complex64::ONE);
    j
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

#[test]
fn cache_hit_is_bit_identical_to_cold_solve() {
    let _guard = exclusive_cache();
    let cache = factor_cache::global();

    let grid = Grid2d::new(40, 36, 0.08);
    let mut eps = RealField2d::constant(grid, 2.25);
    for iy in 14..22 {
        for ix in 4..36 {
            eps.set(ix, iy, 12.11);
        }
    }
    let j = point_source(grid, 8, 18);
    let omega = omega_for_wavelength(1.55);
    let solver = FdfdSolver::new();

    let before = cache.stats();
    let cold = solver.solve_ez(&eps, &j, omega).expect("cold solve");
    let warm = solver.solve_ez(&eps, &j, omega).expect("warm solve");
    let mid = cache.stats();
    assert_eq!(mid.misses - before.misses, 1, "first solve factorizes");
    assert_eq!(mid.hits - before.hits, 1, "second solve reuses the factor");

    // Drop the cached factor and solve again from scratch: the recomputed
    // factorization must reproduce exactly the same bits.
    cache.clear();
    let recold = solver.solve_ez(&eps, &j, omega).expect("re-cold solve");

    assert_bit_identical(&cold, &warm, "cached vs cold");
    assert_bit_identical(&cold, &recold, "recomputed vs cold");
}

/// A design resumed from the cached exterior of the designs before it, then
/// hit, solves to the same bits as a cold build of that design.
#[test]
fn hit_after_a_resumed_build_is_bit_identical_to_cold() {
    let _guard = exclusive_cache();
    let cache = factor_cache::global();

    let device = DeviceKind::Bending.build(DeviceResolution::low());
    let problem = &device.problem;
    let (dx, dy) = problem.design_size;
    let designs = [0.3, 0.5, 0.7].map(|v| problem.eps_for(&Patch::constant(dx, dy, v)));
    let j = point_source(problem.grid(), 8, 20);
    let omega = problem.omega();
    let solver = FdfdSolver::with_pml(PmlConfig::auto(problem.grid().dl));

    let before = cache.stats();
    for eps in &designs {
        solver.solve_ez(eps, &j, omega).expect("miss");
    }
    let hit = solver.solve_ez(&designs[2], &j, omega).expect("hit");
    let after = cache.stats();
    assert_eq!(after.misses - before.misses, 3);
    assert_eq!(after.hits - before.hits, 1);
    assert_eq!(
        after.resumed - before.resumed,
        1,
        "the third design resumes from the second's seams"
    );

    cache.clear();
    let cold = solver.solve_ez(&designs[2], &j, omega).expect("cold");
    assert_bit_identical(&hit, &cold, "hit after a resumed build vs cold");
}

#[test]
fn cache_invalidates_on_eps_omega_and_pml_change() {
    let _guard = exclusive_cache();
    let cache = factor_cache::global();

    let grid = Grid2d::new(32, 32, 0.08);
    let eps = RealField2d::constant(grid, 2.25);
    let j = point_source(grid, 16, 16);
    let omega = omega_for_wavelength(1.55);
    let solver = FdfdSolver::new();

    let misses = |c: &factor_cache::FactorCache| c.stats().misses;

    let m0 = misses(cache);
    solver.solve_ez(&eps, &j, omega).expect("base solve");
    assert_eq!(misses(cache) - m0, 1);

    // One-ULP permittivity change must miss.
    let mut eps2 = eps.clone();
    eps2.set(10, 10, f64::from_bits(2.25f64.to_bits() + 1));
    let m1 = misses(cache);
    solver
        .solve_ez(&eps2, &j, omega)
        .expect("eps-changed solve");
    assert_eq!(
        misses(cache) - m1,
        1,
        "permittivity change must refactorize"
    );

    // Frequency change must miss.
    let m2 = misses(cache);
    solver
        .solve_ez(&eps, &j, omega_for_wavelength(1.31))
        .expect("omega-changed solve");
    assert_eq!(misses(cache) - m2, 1, "frequency change must refactorize");

    // PML change must miss (different solver configuration, same inputs).
    let thick = FdfdSolver::with_pml(PmlConfig {
        thickness: 14,
        ..PmlConfig::default()
    });
    let m3 = misses(cache);
    thick.solve_ez(&eps, &j, omega).expect("pml-changed solve");
    assert_eq!(misses(cache) - m3, 1, "PML change must refactorize");

    // And the unchanged inputs still hit after all that churn.
    let h0 = cache.stats().hits;
    solver.solve_ez(&eps, &j, omega).expect("base solve again");
    assert_eq!(cache.stats().hits - h0, 1, "original operator still cached");
}

#[test]
fn global_lru_eviction_respects_capacity() {
    let _guard = exclusive_cache();
    let cache = factor_cache::global();
    cache.set_capacity(2);

    let grid = Grid2d::new(32, 32, 0.08);
    let j = point_source(grid, 16, 16);
    let omega = omega_for_wavelength(1.55);
    let solver = FdfdSolver::new();

    let before = cache.stats();
    // Three distinct designs through a capacity-2 ring: the first becomes
    // LRU and is evicted when the third arrives.
    for eps_val in [2.0, 4.0, 6.0] {
        let eps = RealField2d::constant(grid, eps_val);
        solver.solve_ez(&eps, &j, omega).expect("solve");
    }
    let after = cache.stats();
    assert_eq!(after.misses - before.misses, 3);
    assert_eq!(
        after.evictions - before.evictions,
        1,
        "capacity 2 holds two of three"
    );

    // The evicted (oldest) design misses again; the two survivors hit.
    let m0 = cache.stats().misses;
    solver
        .solve_ez(&RealField2d::constant(grid, 2.0), &j, omega)
        .expect("evicted design");
    assert_eq!(
        cache.stats().misses - m0,
        1,
        "evicted design must refactorize"
    );
    let h0 = cache.stats().hits;
    solver
        .solve_ez(&RealField2d::constant(grid, 6.0), &j, omega)
        .expect("retained design");
    assert_eq!(cache.stats().hits - h0, 1, "retained design must hit");
}

/// Acceptance: an inverse-design run performs exactly one factorization per
/// design iteration (the adjoint solve reuses the forward factor), and
/// disabling the cache does not change the optimization trajectory.
#[test]
fn invdes_factorizes_exactly_once_per_design_iteration() {
    let _guard = exclusive_cache();
    let cache = factor_cache::global();

    let mut device = DeviceKind::Bending.build(DeviceResolution::low());
    let solver = ExactAdjoint::new(FdfdSolver::with_pml(PmlConfig::auto(device.grid().dl)));
    device
        .problem
        .calibrate(solver.solver())
        .expect("calibrate");

    let config = OptimConfig {
        iterations: 20,
        learning_rate: 0.12,
        beta_start: 1.5,
        beta_growth: 1.15,
        filter_radius: 1.5,
        symmetry: None,
        litho: None,
        init: InitStrategy::Uniform(0.5),
        ..OptimConfig::default()
    };

    // Calibration populated the cache; start the measured run cold.
    cache.clear();
    maps::obs::recorder::enable();
    let cached = InverseDesigner::new(config.clone())
        .run(&device.problem, &solver)
        .expect("cached run");
    let spans = maps::obs::recorder::take();
    maps::obs::recorder::disable();

    let factorizations = spans.iter().filter(|s| s.name == "fdfd.factorize").count();
    assert_eq!(cached.history.len(), 20, "all iterations recorded");
    assert_eq!(
        factorizations,
        cached.history.len(),
        "exactly one factorization per design iteration (forward + adjoint share one LU)"
    );

    // Re-run with the LRU ring disabled and the cache emptied: the final
    // objective must agree to 1e-12 (reuse is bit-identical, so the entire
    // trajectory is reproduced).
    cache.set_capacity(0);
    cache.clear();
    let uncached = InverseDesigner::new(config)
        .run(&device.problem, &solver)
        .expect("uncached run");

    let a = cached.history.last().expect("cached history").objective;
    let b = uncached.history.last().expect("uncached history").objective;
    assert!(
        (a - b).abs() <= 1e-12 * a.abs().max(1.0),
        "cached ({a:.17}) and uncached ({b:.17}) objectives must match to 1e-12"
    );
}

/// A retry of a singular operator reuses the cached failure: through a
/// default `RobustSolver` the design factorizes once, not once per attempt,
/// with the same retries and the same final error. Factorizations are
/// counted by the design's fingerprint on the `fdfd.factorize` spans.
#[test]
fn retries_of_a_singular_operator_factorize_once() {
    let _guard = exclusive_cache();
    // 2×2 grid, no PML, dl = 1, ε = 1, ω = 2: ω²·ε·dl² = 4 cancels the four
    // unit couplings of cell 0's diagonal, an exactly zero first pivot.
    let grid = Grid2d::new(2, 2, 1.0);
    let eps = RealField2d::constant(grid, 1.0);
    let pml = PmlConfig {
        thickness: 0,
        ..PmlConfig::default()
    };
    let omega = 2.0;
    let design = factor_cache::fingerprint(&eps, omega, &pml).hex();
    let policy = RetryPolicy::default();
    let solver = RobustSolver::new(FdfdSolver::with_pml(pml), policy);

    maps::obs::recorder::enable();
    let err = solver
        .solve_ez(&eps, &point_source(grid, 0, 0), omega)
        .expect_err("a singular operator has no direct solution");
    let spans = maps::obs::recorder::take();
    maps::obs::recorder::disable();

    let builds = spans
        .iter()
        .filter(|s| s.name == "fdfd.factorize" && s.field("fingerprint") == Some(design.as_str()))
        .count();
    assert_eq!(
        builds, 1,
        "every attempt after the first reuses the failure"
    );
    assert_eq!(solver.stats().retries, policy.max_retries as u64);
    assert!(
        err.to_string().contains("zero pivot at step 0"),
        "final error: {err}"
    );
}
