//! The iterative backend answers adjoint solves with BiCGSTAB, as it does
//! forward solves, on the symmetrized `S = D·A` the direct backend factors:
//! `Aᵀ·y = c` runs as `S·z = c` with `y = D·z`, so its stopping residual is
//! `‖Aᵀ·y − c‖/‖c‖` itself, and neither an iterative `FdfdSolver` nor a
//! ladder that falls back to one runs the direct factorization for an
//! adjoint request.
//!
//! Everything here is observed through return values (errors, residuals,
//! fields), never through the global recorder, so the tests can run in
//! parallel with the rest of the binary.

use maps::core::{
    ComplexField2d, FaultInjectingSolver, FaultPlan, FieldSolver, Grid2d, InjectedFault,
    RealField2d, Rect, RetryPolicy, RobustSolver, Rung, Shape, SolveFieldError, SolveRequest,
};
use maps::fdfd::{Backend, FdfdSolver, PmlConfig};
use maps::linalg::dense::znorm;
use maps::linalg::{Complex64, IterativeOptions};

/// A straight silicon guide on a 60×48 grid, an adjoint right-hand side
/// with two interior cells and one PML cell (where `D ≠ 1`), and ω.
fn guide() -> (RealField2d, ComplexField2d, f64) {
    let grid = Grid2d::new(60, 48, 0.05);
    let yc = grid.height() / 2.0;
    let mut eps = RealField2d::constant(grid, 2.07);
    maps::core::paint(
        &mut eps,
        &Shape::Rect(Rect::new(0.0, yc - 0.24, grid.width(), yc + 0.24)),
        12.11,
    );
    let mut c = ComplexField2d::zeros(grid);
    c.set(30, 24, Complex64::new(1.0, 0.5));
    c.set(31, 24, Complex64::new(-0.5, 0.2));
    c.set(4, 40, Complex64::new(0.3, -0.1));
    (eps, c, maps::core::omega_for_wavelength(1.55))
}

fn pml() -> PmlConfig {
    PmlConfig::auto(0.05)
}

fn iterative(tolerance: f64, max_iterations: usize) -> FdfdSolver {
    FdfdSolver::with_pml(pml()).backend(Backend::Iterative(IterativeOptions {
        tolerance,
        max_iterations,
    }))
}

/// A BiCGSTAB tolerance this problem reaches.
fn converging() -> FdfdSolver {
    iterative(1e-10, 200_000)
}

/// `‖Aᵀ·y − c‖ / ‖c‖` with `Aᵀ` applied by the assembled band's
/// transposed matvec, the definition of the adjoint system.
fn adjoint_residual(eps: &RealField2d, c: &ComplexField2d, omega: f64, y: &ComplexField2d) -> f64 {
    let at_y = FdfdSolver::with_pml(pml())
        .operator(eps, omega)
        .to_banded()
        .matvec_transposed(y.as_slice());
    let r: Vec<Complex64> = at_y
        .iter()
        .zip(c.as_slice())
        .map(|(p, q)| *p - *q)
        .collect();
    znorm(&r) / znorm(c.as_slice())
}

/// A tolerance BiCGSTAB cannot reach in 400 iterations fails the adjoint
/// with the Krylov solver's own convergence record: the direct solver,
/// which would answer `Ok`, never runs.
#[test]
fn iterative_adjoint_reports_bicgstab_nonconvergence() {
    let (eps, c, omega) = guide();
    let err = iterative(1e-9, 400)
        .solve_adjoint_ez(&eps, &c, omega)
        .unwrap_err();
    match &err {
        SolveFieldError::Numerical { detail } => {
            assert!(detail.contains("bicgstab stalled"), "{detail}");
        }
        other => panic!("expected a BiCGSTAB Numerical error, got {other:?}"),
    }
}

/// With a reachable tolerance the iterative adjoint solves `Aᵀ·y = c`, and
/// it is its own answer, not the direct solver's: close to the direct
/// adjoint, but not equal to it bit for bit.
#[test]
fn iterative_adjoint_solves_the_transposed_system() {
    let (eps, c, omega) = guide();
    let y = converging().solve_adjoint_ez(&eps, &c, omega).unwrap();
    let residual = adjoint_residual(&eps, &c, omega, &y);
    assert!(residual <= 1e-8, "adjoint residual {residual:e}");
    let direct = FdfdSolver::with_pml(pml())
        .solve_adjoint_ez(&eps, &c, omega)
        .unwrap();
    let dist = y.normalized_l2_distance(&direct);
    assert!(dist < 1e-6, "iterative vs direct adjoint {dist:e}");
    assert!(
        dist > 0.0,
        "the iterative adjoint is bit-identical to the LU's"
    );
}

/// At `IterativeOptions::default()`, the options of mapsd's fallback rung,
/// the adjoint meets the tolerance on `Aᵀ·y = c` and a forward point source
/// on `A·x = b`, both checked with the assembled band of `A`.
#[test]
fn default_options_meet_the_tolerance_on_a() {
    let (eps, c, omega) = guide();
    let options = IterativeOptions::default();
    let solver = iterative(options.tolerance, options.max_iterations);
    let y = solver.solve_adjoint_ez(&eps, &c, omega).unwrap();
    let residual = adjoint_residual(&eps, &c, omega, &y);
    assert!(
        residual <= options.tolerance,
        "adjoint residual {residual:e}"
    );
    let mut j = ComplexField2d::zeros(eps.grid());
    j.set(15, 24, Complex64::ONE);
    let x = solver.solve_ez(&eps, &j, omega).unwrap();
    let ax = FdfdSolver::with_pml(pml())
        .operator(&eps, omega)
        .to_banded()
        .matvec(x.as_slice());
    let b = FdfdSolver::rhs(&j, omega);
    let r: Vec<Complex64> = ax.iter().zip(&b).map(|(p, q)| *p - *q).collect();
    let residual = znorm(&r) / znorm(&b);
    assert!(
        residual <= options.tolerance,
        "forward residual {residual:e}"
    );
}

/// An adjoint request that exhausts an always-failing primary is answered
/// by the iterative fallback, on the fallback rung, with exactly the
/// fallback's own BiCGSTAB adjoint, not a re-run of the direct solver.
#[test]
fn ladder_falls_back_to_the_iterative_adjoint() {
    let (eps, c, omega) = guide();
    let primary = FaultInjectingSolver::new(
        FdfdSolver::with_pml(pml()),
        FaultPlan::new().always(InjectedFault::Error),
    )
    .with_name("always-failing-direct");
    let ladder =
        RobustSolver::new(primary, RetryPolicy::default()).with_fallback(Box::new(converging()));
    let (field, rung) = ladder
        .solve_by(&eps, SolveRequest::adjoint(&c, omega), None)
        .unwrap();
    assert_eq!(rung, Rung::Fallback);
    assert_eq!(ladder.solver_name(rung), "fdfd-bicgstab");
    let expect = converging().solve_adjoint_ez(&eps, &c, omega).unwrap();
    for (a, e) in field.as_slice().iter().zip(expect.as_slice()) {
        assert_eq!(a.re.to_bits(), e.re.to_bits());
        assert_eq!(a.im.to_bits(), e.im.to_bits());
    }
    let residual = adjoint_residual(&eps, &c, omega, &field);
    assert!(residual <= 1e-8, "fallback adjoint residual {residual:e}");
    let direct = FdfdSolver::with_pml(pml())
        .solve_adjoint_ez(&eps, &c, omega)
        .unwrap();
    assert!(
        field.normalized_l2_distance(&direct) > 0.0,
        "the fallback rung answered with the LU's adjoint"
    );
}
