//! Physics integration tests: energy accounting and reciprocity of the
//! FDFD substrate on real device geometries.

use maps::core::{Axis, Direction, FieldSolver, Grid2d, Port, RealField2d, Rect, Shape};
use maps::fdfd::{FdfdSolver, ModeMonitor, ModeSource, PmlConfig};

fn straight_guide(grid: Grid2d) -> RealField2d {
    let yc = grid.height() / 2.0;
    let mut eps = RealField2d::constant(grid, 2.07);
    maps::core::paint(
        &mut eps,
        &Shape::Rect(Rect::new(0.0, yc - 0.24, grid.width(), yc + 0.24)),
        12.11,
    );
    eps
}

/// A straight waveguide transmits essentially everything: the forward modal
/// power at the far monitor equals the forward power just after the source,
/// and the backward (reflected) amplitude is tiny.
#[test]
fn straight_waveguide_unit_transmission() {
    let grid = Grid2d::new(80, 60, 0.05);
    let eps = straight_guide(grid);
    let yc = grid.height() / 2.0;
    let omega = maps::core::omega_for_wavelength(1.55);
    let solver = FdfdSolver::with_pml(PmlConfig::auto(grid.dl));
    let input = Port::new((1.2, yc), 0.48, Axis::X, Direction::Positive);
    let j = ModeSource::new(&eps, &input, omega)
        .unwrap()
        .current_density(grid);
    let ez = solver.solve_ez(&eps, &j, omega).unwrap();

    let near = ModeMonitor::new(
        &eps,
        &Port::new((1.6, yc), 0.48, Axis::X, Direction::Positive),
        omega,
    )
    .unwrap();
    let far = ModeMonitor::new(
        &eps,
        &Port::new((grid.width() - 1.2, yc), 0.48, Axis::X, Direction::Positive),
        omega,
    )
    .unwrap();
    let p_near = near.outgoing_power(&ez);
    let p_far = far.outgoing_power(&ez);
    assert!(p_near > 0.0);
    let transmission = p_far / p_near;
    assert!(
        (transmission - 1.0).abs() < 0.05,
        "straight guide transmission {transmission}"
    );
    // Backward amplitude at the near monitor ≪ forward.
    let (fwd, bwd) = near.amplitudes(&ez);
    assert!(
        bwd.abs() < 0.1 * fwd.abs(),
        "unidirectional source leaks backward: fwd {} bwd {}",
        fwd.abs(),
        bwd.abs()
    );
}

/// Lorentz reciprocity on an arbitrary structure: with sources at A and B,
/// `Σ E_A·J_B = Σ E_B·J_A` (the FDFD operator is complex-symmetric in the
/// interior; PML staggering perturbs this only marginally).
#[test]
fn reciprocity_of_point_sources() {
    let grid = Grid2d::new(60, 60, 0.05);
    let mut eps = RealField2d::constant(grid, 2.07);
    maps::core::paint(&mut eps, &Shape::Rect(Rect::new(1.0, 1.0, 2.0, 2.0)), 12.11);
    let omega = maps::core::omega_for_wavelength(1.55);
    let solver = FdfdSolver::with_pml(PmlConfig::auto(grid.dl));
    let a = (20usize, 30usize);
    let b = (40usize, 25usize);
    let mut ja = maps::core::ComplexField2d::zeros(grid);
    ja.set(a.0, a.1, maps::linalg::Complex64::ONE);
    let mut jb = maps::core::ComplexField2d::zeros(grid);
    jb.set(b.0, b.1, maps::linalg::Complex64::ONE);
    let ea = solver.solve_ez(&eps, &ja, omega).unwrap();
    let eb = solver.solve_ez(&eps, &jb, omega).unwrap();
    let lhs = ea.get(b.0, b.1);
    let rhs = eb.get(a.0, a.1);
    assert!(
        (lhs - rhs).abs() < 1e-6 * lhs.abs().max(rhs.abs()),
        "reciprocity violated: {lhs} vs {rhs}"
    );
}

/// The exact adjoint and the reciprocity adjoint (default trait path)
/// agree outside the PML for interior-supported right-hand sides, to
/// rounding: `Aᵀ = D·A·D⁻¹` with `D = 1` there.
#[test]
fn adjoint_reciprocity_approximation_is_accurate() {
    let grid = Grid2d::new(60, 48, 0.05);
    let eps = straight_guide(grid);
    let omega = maps::core::omega_for_wavelength(1.55);
    let solver = FdfdSolver::with_pml(PmlConfig::auto(grid.dl));
    let mut rhs = maps::core::ComplexField2d::zeros(grid);
    rhs.set(30, 24, maps::linalg::Complex64::new(1.0, 0.5));
    rhs.set(31, 24, maps::linalg::Complex64::new(-0.5, 0.2));
    // Exact adjoint (FdfdSolver override: D-scaled forward solve).
    let exact = solver.solve_adjoint_ez(&eps, &rhs, omega).unwrap();
    // Reciprocity default: forward solve with J = i·rhs/ω.
    let scale = maps::linalg::Complex64::new(0.0, 1.0 / omega);
    let j = maps::core::ComplexField2d::from_vec(
        grid,
        rhs.as_slice().iter().map(|r| *r * scale).collect(),
    );
    let approx = solver.solve_ez(&eps, &j, omega).unwrap();
    // D·A is complex symmetric with D the diagonal stretch factors, so
    // Aᵀ = D·A·D⁻¹ and the two adjoints agree exactly wherever D = 1 for a
    // right-hand side that vanishes where D ≠ 1 — which is where adjoint
    // gradients are consumed. Compare outside the PML.
    let margin = solver.pml().thickness + 2;
    let mut num = 0.0;
    let mut den = 0.0;
    for iy in margin..grid.ny - margin {
        for ix in margin..grid.nx - margin {
            num += (approx.get(ix, iy) - exact.get(ix, iy)).norm_sqr();
            den += exact.get(ix, iy).norm_sqr();
        }
    }
    let dist = (num / den).sqrt();
    assert!(dist <= 1e-12, "interior reciprocity adjoint error {dist}");
}

/// Power balance on the bend device: transmission + reflection + radiation
/// accounts for the injected power within discretization tolerance.
#[test]
fn bend_power_balance() {
    use maps::data::{label_sample, DeviceKind, DeviceResolution, GenerateConfig};
    use maps::invdes::InitStrategy;
    let mut device = DeviceKind::Bending.build(DeviceResolution::high());
    let solver = FdfdSolver::with_pml(PmlConfig::auto(device.grid().dl));
    device.problem.calibrate(&solver).unwrap();
    let density = InitStrategy::Uniform(1.0)
        .build(device.problem.design_size.0, device.problem.design_size.1);
    let sample = label_sample(
        &device,
        &density,
        &device.variants[0].clone(),
        &GenerateConfig::default(),
        0,
    )
    .unwrap();
    let total =
        sample.labels.total_transmission() + sample.labels.reflection + sample.labels.radiation;
    // radiation is defined as the remainder, so the balance closes unless
    // guided power exceeded injection (which would indicate a bug).
    assert!(
        (0.9..=1.1).contains(&total),
        "power balance {total} (T {} R {} rad {})",
        sample.labels.total_transmission(),
        sample.labels.reflection,
        sample.labels.radiation
    );
    assert!(sample.labels.reflection < 1.0);
    assert!(sample.labels.total_transmission() < 1.05);
}
