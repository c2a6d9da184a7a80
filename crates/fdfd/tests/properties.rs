//! Property-based tests of the FDFD solver's physical invariants.

use maps_core::{ComplexField2d, FieldSolver, Grid2d, RealField2d};
use maps_fdfd::{FdfdSolver, PmlConfig};
use maps_linalg::dense::znorm;
use maps_linalg::Complex64;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Linearity of Maxwell's equations: scaling the source scales the
    /// field; superposing sources superposes fields.
    #[test]
    fn solver_is_linear(
        eps_val in 1.0..12.0f64,
        amp_re in -2.0..2.0f64,
        amp_im in -2.0..2.0f64,
        x1 in 12usize..28,
        y1 in 12usize..28,
    ) {
        let grid = Grid2d::new(40, 40, 0.1);
        let eps = RealField2d::constant(grid, eps_val);
        let omega = maps_core::omega_for_wavelength(1.55);
        let solver = FdfdSolver::with_pml(PmlConfig::auto(grid.dl));

        let mut j1 = ComplexField2d::zeros(grid);
        j1.set(20, 20, Complex64::ONE);
        let mut j2 = ComplexField2d::zeros(grid);
        j2.set(x1, y1, Complex64::new(amp_re, amp_im));

        let e1 = solver.solve_ez(&eps, &j1, omega).unwrap();
        let e2 = solver.solve_ez(&eps, &j2, omega).unwrap();
        let mut jsum = ComplexField2d::zeros(grid);
        for (k, z) in jsum.as_mut_slice().iter_mut().enumerate() {
            *z = j1.as_slice()[k] + j2.as_slice()[k];
        }
        let esum = solver.solve_ez(&eps, &jsum, omega).unwrap();
        let expect = ComplexField2d::from_vec(
            grid,
            e1.as_slice().iter().zip(e2.as_slice()).map(|(a, b)| *a + *b).collect(),
        );
        prop_assert!(esum.normalized_l2_distance(&expect) < 1e-9);
    }

    /// The solution always satisfies the assembled system to solver
    /// precision, for arbitrary permittivity landscapes, and so does the
    /// adjoint solution the transposed system (with a right-hand side that
    /// reaches into the PML, where the symmetrizing scale is not 1).
    #[test]
    fn residual_always_tiny(seed in 0u64..200) {
        let grid = Grid2d::new(36, 36, 0.1);
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).max(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut eps = RealField2d::constant(grid, 1.0);
        for iy in 10..26 {
            for ix in 10..26 {
                eps.set(ix, iy, 1.0 + 11.0 * next());
            }
        }
        let mut j = ComplexField2d::zeros(grid);
        j.set(18, 18, Complex64::new(next() * 2.0 - 1.0, next() * 2.0 - 1.0));
        prop_assume!(j.get(18, 18) != Complex64::ZERO);
        let omega = maps_core::omega_for_wavelength(1.3 + 0.5 * next());
        let solver = FdfdSolver::with_pml(PmlConfig::auto(grid.dl));
        let ez = solver.solve_ez(&eps, &j, omega).unwrap();
        prop_assert!(solver.residual(&eps, &j, omega, &ez) < 1e-9);

        let mut c = j.clone();
        c.set(2, 30, Complex64::new(next() * 2.0 - 1.0, next() * 2.0 - 1.0));
        let y = solver.solve_adjoint_ez(&eps, &c, omega).unwrap();
        let aty = solver.operator(&eps, omega).to_banded().matvec_transposed(y.as_slice());
        let r: Vec<Complex64> = aty.iter().zip(c.as_slice()).map(|(p, q)| *p - *q).collect();
        let rel = znorm(&r) / znorm(c.as_slice());
        prop_assert!(rel < 1e-9, "adjoint residual {rel:e}");
    }

    /// Frequency scaling in vacuum: the radiated wavelength tracks ω.
    #[test]
    fn field_oscillates_faster_at_higher_frequency(lambda in 1.0..2.0f64) {
        let grid = Grid2d::new(48, 48, 0.05);
        let eps = RealField2d::constant(grid, 1.0);
        let solver = FdfdSolver::with_pml(PmlConfig::auto(grid.dl));
        let mut j = ComplexField2d::zeros(grid);
        j.set(24, 24, Complex64::ONE);
        let omega = maps_core::omega_for_wavelength(lambda);
        let ez = solver.solve_ez(&eps, &j, omega).unwrap();
        // Count sign changes of Re(Ez) along the midline right of source.
        let mut flips = 0;
        for ix in 26..44 {
            if ez.get(ix, 24).re.signum() != ez.get(ix + 1, 24).re.signum() {
                flips += 1;
            }
        }
        // Expected: 2 flips per wavelength over 18 cells·0.05 µm = 0.9 µm.
        let expected = 2.0 * 0.9 / lambda;
        prop_assert!(
            (flips as f64 - expected).abs() <= 2.0,
            "λ={lambda}: {flips} flips vs expected {expected:.1}"
        );
    }
}
