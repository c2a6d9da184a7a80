//! Near-to-far-field projection.
//!
//! The paper's objective suite includes "controlling far-field intensity
//! distributions" (§III-C4). For the 2-D `Ez` polarization, the angular
//! spectrum of the field on a vertical cut line gives the far-field
//! radiation pattern: a plane-wave decomposition
//! `Ez(x₀, y) = ∫ a(k_y)·e^{i·k_y·y} dk_y` where each `k_y` component
//! radiates towards angle `θ = asin(k_y/k)`. Each angular amplitude is a
//! *linear functional* of the field, so far-field objectives compose with
//! the adjoint machinery exactly like modal objectives.

use crate::monitor::LinearFunctional;
use maps_core::{ComplexField2d, Grid2d};
use maps_linalg::Complex64;

/// Far-field projector for a vertical cut line.
#[derive(Debug, Clone)]
pub struct FarFieldProjector {
    cells: Vec<(usize, usize)>,
    grid: Grid2d,
    /// Background wavenumber `k = ω·n` used to map `k_y` to angles.
    k: f64,
}

impl FarFieldProjector {
    /// Creates a projector on the vertical line at `x` spanning
    /// `y ∈ [y0, y1]`, in a background of refractive index `n_background`.
    ///
    /// # Panics
    ///
    /// Panics if the span covers fewer than 4 cells.
    pub fn vertical(grid: Grid2d, x: f64, y0: f64, y1: f64, omega: f64, n_background: f64) -> Self {
        let (ix, iy0) = grid.cell_at(x, y0);
        let (_, iy1) = grid.cell_at(x, y1);
        let cells: Vec<(usize, usize)> = (iy0..=iy1).map(|iy| (ix, iy)).collect();
        assert!(cells.len() >= 4, "far-field line too short");
        FarFieldProjector {
            cells,
            grid,
            k: omega * n_background,
        }
    }

    /// Number of sample points on the cut line.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Returns `true` when the projector has no sample points (impossible
    /// by construction; for API completeness).
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// The linear functional extracting the plane-wave amplitude radiating
    /// at angle `theta` (radians, 0 = +x axis) from the cut line:
    /// `a(θ) = Σ_y Ez(x₀, y)·e^{−i·k·sinθ·y}·dl`.
    ///
    /// # Panics
    ///
    /// Panics if `|theta| ≥ π/2` (not propagating through a vertical line).
    pub fn angular_functional(&self, theta: f64) -> LinearFunctional {
        assert!(
            theta.abs() < std::f64::consts::FRAC_PI_2,
            "angle must be within ±90° of the +x axis"
        );
        let ky = self.k * theta.sin();
        let dl = self.grid.dl;
        LinearFunctional {
            weights: self
                .cells
                .iter()
                .map(|&(ix, iy)| {
                    let (_, y) = self.grid.coord(ix, iy);
                    (self.grid.idx(ix, iy), Complex64::cis(-ky * y) * dl)
                })
                .collect(),
        }
    }

    /// Samples the far-field intensity pattern `|a(θ)|²` at `n_angles`
    /// angles uniformly spanning `(−θ_max, θ_max)`.
    pub fn intensity_pattern(
        &self,
        ez: &ComplexField2d,
        theta_max: f64,
        n_angles: usize,
    ) -> Vec<(f64, f64)> {
        (0..n_angles)
            .map(|i| {
                let theta = -theta_max + 2.0 * theta_max * i as f64 / (n_angles - 1).max(1) as f64;
                let a = self.angular_functional(theta).eval(ez);
                (theta, a.norm_sqr())
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maps_core::RealField2d;

    /// A synthetic plane wave travelling at angle θ peaks at that angle of
    /// the far-field pattern.
    #[test]
    fn plane_wave_peaks_at_its_angle() {
        let grid = Grid2d::new(64, 96, 0.05);
        let omega = maps_core::omega_for_wavelength(1.55);
        let k = omega; // vacuum
        let theta0: f64 = 0.3;
        let (kx, ky) = (k * theta0.cos(), k * theta0.sin());
        let mut ez = ComplexField2d::zeros(grid);
        for iy in 0..grid.ny {
            for ix in 0..grid.nx {
                let (x, y) = grid.coord(ix, iy);
                ez.set(ix, iy, Complex64::cis(kx * x + ky * y));
            }
        }
        let proj = FarFieldProjector::vertical(grid, 2.0, 0.3, grid.height() - 0.3, omega, 1.0);
        let pattern = proj.intensity_pattern(&ez, 0.9, 61);
        let (peak_theta, _) = pattern
            .iter()
            .copied()
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
            .expect("non-empty");
        assert!(
            (peak_theta - theta0).abs() < 0.06,
            "peak at {peak_theta}, expected {theta0}"
        );
    }

    /// Far-field functionals plug into the adjoint objective machinery:
    /// maximizing |a(θ)|² yields a finite, nonzero gradient.
    #[test]
    fn farfield_objective_has_adjoint_gradient() {
        use crate::adjoint::{gradient_from_fields, PowerObjective};
        use crate::simulation::FdfdSolver;
        use maps_core::FieldSolver;
        let grid = Grid2d::new(48, 48, 0.08);
        let eps = RealField2d::constant(grid, 1.0);
        let omega = maps_core::omega_for_wavelength(1.55);
        let mut j = ComplexField2d::zeros(grid);
        j.set(14, 24, Complex64::ONE);
        let proj = FarFieldProjector::vertical(grid, 2.9, 0.9, grid.height() - 0.9, omega, 1.0);
        let objective = PowerObjective::new().with_term(proj.angular_functional(0.2), 1.0);
        let solver = FdfdSolver::with_pml(crate::pml::PmlConfig::auto(grid.dl));
        let forward = solver.solve_ez(&eps, &j, omega).unwrap();
        assert!(objective.eval(&forward) > 0.0);
        let rhs = ComplexField2d::from_vec(grid, objective.adjoint_rhs(&forward));
        let adjoint = solver.solve_adjoint_ez(&eps, &rhs, omega).unwrap();
        let gradient = gradient_from_fields(&forward, &adjoint, omega);
        assert!(gradient.as_slice().iter().any(|g| *g != 0.0));
        assert!(gradient.as_slice().iter().all(|g| g.is_finite()));
    }

    #[test]
    #[should_panic(expected = "±90°")]
    fn rejects_backward_angles() {
        let grid = Grid2d::new(32, 32, 0.1);
        let proj = FarFieldProjector::vertical(grid, 1.0, 0.5, 2.5, 4.0, 1.0);
        proj.angular_functional(2.0);
    }
}
