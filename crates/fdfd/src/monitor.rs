//! Field monitors: Poynting flux and eigenmode-overlap S-parameters.
//!
//! A [`ModeMonitor`] decomposes the field on a port plane into forward and
//! backward modal amplitudes. Crucially, each amplitude is a *linear*
//! functional of the `Ez` vector, exposed as an explicit weight list so the
//! adjoint engine can form exact adjoint sources from it.

use crate::modes::{port_mode, ModeError, SlabMode};
use maps_core::{Axis, ComplexField2d, Direction, Grid2d, Port, RealField2d};
use maps_linalg::Complex64;

/// A linear functional `a = Σ w_k · e_k` of the flattened `Ez` field.
#[derive(Debug, Clone, Default)]
pub struct LinearFunctional {
    /// Sparse `(cell index, weight)` pairs.
    pub weights: Vec<(usize, Complex64)>,
}

impl LinearFunctional {
    /// Evaluates the functional on a field.
    pub fn eval(&self, ez: &ComplexField2d) -> Complex64 {
        let data = ez.as_slice();
        self.weights.iter().map(|&(k, w)| w * data[k]).sum()
    }

    /// Scales all weights by a complex factor, returning the result.
    pub fn scaled(&self, factor: Complex64) -> LinearFunctional {
        LinearFunctional {
            weights: self.weights.iter().map(|&(k, w)| (k, w * factor)).collect(),
        }
    }
}

/// Monitors the modal content of a port plane.
#[derive(Debug, Clone)]
pub struct ModeMonitor {
    port: Port,
    mode: SlabMode,
    cells: Vec<(usize, usize)>,
    grid: Grid2d,
}

impl ModeMonitor {
    /// Builds a monitor on the port plane from the port eigenmode on the
    /// supplied permittivity map. The mode comes from the mode memo (see
    /// [`crate::modes`]), bit for bit what [`solve_slab_modes`] returns for
    /// the same cross-section.
    ///
    /// [`solve_slab_modes`]: crate::solve_slab_modes
    ///
    /// # Errors
    ///
    /// Returns [`ModeError::NotGuided`] when the port cross-section guides
    /// fewer modes than requested.
    pub fn new(eps_r: &RealField2d, port: &Port, omega: f64) -> Result<Self, ModeError> {
        let (cells, mode) = port_mode(eps_r, port, omega)?;
        Ok(ModeMonitor {
            port: *port,
            mode,
            cells,
            grid: eps_r.grid(),
        })
    }

    /// The solved port mode.
    pub fn mode(&self) -> &SlabMode {
        &self.mode
    }

    /// The port being monitored.
    pub fn port(&self) -> &Port {
        &self.port
    }

    /// Weight list of the overlap `u = ⟨Ez⟩ = A + B` (sum of the
    /// positive-axis amplitude `A` and negative-axis amplitude `B`).
    fn u_weights(&self) -> LinearFunctional {
        let c = self.mode.beta / (2.0 * self.mode.omega) * self.grid.dl;
        LinearFunctional {
            weights: self
                .cells
                .iter()
                .zip(&self.mode.profile)
                .map(|(&(ix, iy), &phi)| (self.grid.idx(ix, iy), Complex64::from_re(c * phi)))
                .collect(),
        }
    }

    /// Weight list of `v = A − B`, built from the transverse magnetic field
    /// via central differences along the propagation axis.
    fn v_weights(&self) -> LinearFunctional {
        // v = −(i/(4ω))·Σ φ_k (e[next_k] − e[prev_k]) for both axes.
        let c = Complex64::new(0.0, -1.0 / (4.0 * self.mode.omega));
        let mut weights = Vec::with_capacity(self.cells.len() * 2);
        for (&(ix, iy), &phi) in self.cells.iter().zip(&self.mode.profile) {
            let (next, prev) = match self.port.axis {
                Axis::X => (
                    if ix + 1 < self.grid.nx {
                        Some((ix + 1, iy))
                    } else {
                        None
                    },
                    ix.checked_sub(1).map(|x| (x, iy)),
                ),
                Axis::Y => (
                    if iy + 1 < self.grid.ny {
                        Some((ix, iy + 1))
                    } else {
                        None
                    },
                    iy.checked_sub(1).map(|y| (ix, y)),
                ),
            };
            if let Some((nx_, ny_)) = next {
                weights.push((self.grid.idx(nx_, ny_), c * phi));
            }
            if let Some((px, py)) = prev {
                weights.push((self.grid.idx(px, py), -c * phi));
            }
        }
        LinearFunctional { weights }
    }

    /// Linear functional whose value is the modal amplitude propagating
    /// towards the positive axis direction (`A = (u+v)/2`).
    pub fn positive_amplitude_functional(&self) -> LinearFunctional {
        combine(&self.u_weights(), &self.v_weights(), 0.5, 0.5)
    }

    /// Linear functional for the negative-axis amplitude (`B = (u−v)/2`).
    pub fn negative_amplitude_functional(&self) -> LinearFunctional {
        combine(&self.u_weights(), &self.v_weights(), 0.5, -0.5)
    }

    /// Linear functional for the amplitude *leaving* through this port
    /// (along `port.direction`).
    pub fn outgoing_functional(&self) -> LinearFunctional {
        match self.port.direction {
            Direction::Positive => self.positive_amplitude_functional(),
            Direction::Negative => self.negative_amplitude_functional(),
        }
    }

    /// Linear functional for the amplitude *entering* through this port.
    pub fn incoming_functional(&self) -> LinearFunctional {
        match self.port.direction {
            Direction::Positive => self.negative_amplitude_functional(),
            Direction::Negative => self.positive_amplitude_functional(),
        }
    }

    /// Decomposes a field into `(positive-axis, negative-axis)` modal
    /// amplitudes. With the unit-power mode normalization, `|a|²` is the
    /// modal power.
    pub fn amplitudes(&self, ez: &ComplexField2d) -> (Complex64, Complex64) {
        let u = self.u_weights().eval(ez);
        let v = self.v_weights().eval(ez);
        ((u + v) * 0.5, (u - v) * 0.5)
    }

    /// Power carried out of the domain through this port (`|outgoing|²`).
    pub fn outgoing_power(&self, ez: &ComplexField2d) -> f64 {
        self.outgoing_functional().eval(ez).norm_sqr()
    }
}

fn combine(a: &LinearFunctional, b: &LinearFunctional, ca: f64, cb: f64) -> LinearFunctional {
    let mut weights = Vec::with_capacity(a.weights.len() + b.weights.len());
    weights.extend(a.weights.iter().map(|&(k, w)| (k, w * ca)));
    weights.extend(b.weights.iter().map(|&(k, w)| (k, w * cb)));
    LinearFunctional { weights }
}

/// Poynting power flux through a transverse line.
///
/// For `Ez` polarization the flux along +x through a vertical line is
/// `P = Σ_y −½·Re(Ez·Hy*)·dl` with `Hy = i·∂x Ez / ω`; the +y flux uses
/// `+½·Re(Ez·Hx*)` with `Hx = −i·∂y Ez / ω`.
#[derive(Debug, Clone)]
pub struct FluxMonitor {
    cells: Vec<(usize, usize)>,
    axis: Axis,
}

impl FluxMonitor {
    /// A vertical line at `x` spanning `y ∈ [y0, y1]`, measuring +x flux.
    pub fn vertical(grid: Grid2d, x: f64, y0: f64, y1: f64) -> Self {
        let (ix, _) = grid.cell_at(x, y0);
        let (_, iy0) = grid.cell_at(x, y0);
        let (_, iy1) = grid.cell_at(x, y1);
        FluxMonitor {
            cells: (iy0..=iy1).map(|iy| (ix, iy)).collect(),
            axis: Axis::X,
        }
    }

    /// A horizontal line at `y` spanning `x ∈ [x0, x1]`, measuring +y flux.
    pub fn horizontal(grid: Grid2d, y: f64, x0: f64, x1: f64) -> Self {
        let (_, iy) = grid.cell_at(x0, y);
        let (ix0, _) = grid.cell_at(x0, y);
        let (ix1, _) = grid.cell_at(x1, y);
        FluxMonitor {
            cells: (ix0..=ix1).map(|ix| (ix, iy)).collect(),
            axis: Axis::Y,
        }
    }

    /// Evaluates the signed power flux through the line (positive along the
    /// positive axis).
    pub fn flux(&self, ez: &ComplexField2d, omega: f64) -> f64 {
        let grid = ez.grid();
        let dl = grid.dl;
        let mut total = 0.0;
        for &(ix, iy) in &self.cells {
            match self.axis {
                Axis::X => {
                    let e = ez.get(ix, iy);
                    let dx = central_diff_x(ez, ix, iy);
                    // Hy = i·∂xEz/ω ; Sx = −½Re(Ez·Hy*)
                    let hy = Complex64::I * dx / (omega * dl * 2.0);
                    total += -0.5 * (e * hy.conj()).re * dl;
                }
                Axis::Y => {
                    let e = ez.get(ix, iy);
                    let dy = central_diff_y(ez, ix, iy);
                    // Hx = −i·∂yEz/ω ; Sy = +½Re(Ez·Hx*)
                    let hx = -Complex64::I * dy / (omega * dl * 2.0);
                    total += 0.5 * (e * hx.conj()).re * dl;
                }
            }
        }
        total
    }
}

fn central_diff_x(f: &ComplexField2d, ix: usize, iy: usize) -> Complex64 {
    let grid = f.grid();
    let e = if ix + 1 < grid.nx {
        f.get(ix + 1, iy)
    } else {
        Complex64::ZERO
    };
    let w = if ix > 0 {
        f.get(ix - 1, iy)
    } else {
        Complex64::ZERO
    };
    e - w
}

fn central_diff_y(f: &ComplexField2d, ix: usize, iy: usize) -> Complex64 {
    let grid = f.grid();
    let n = if iy + 1 < grid.ny {
        f.get(ix, iy + 1)
    } else {
        Complex64::ZERO
    };
    let s = if iy > 0 {
        f.get(ix, iy - 1)
    } else {
        Complex64::ZERO
    };
    n - s
}

/// Derives the magnetic field components from an `Ez` phasor:
/// `Hx = −i·∂y Ez/ω`, `Hy = i·∂x Ez/ω` (central differences).
pub fn derive_h_fields(ez: &ComplexField2d, omega: f64) -> (ComplexField2d, ComplexField2d) {
    let grid = ez.grid();
    let mut hx = ComplexField2d::zeros(grid);
    let mut hy = ComplexField2d::zeros(grid);
    let inv = 1.0 / (2.0 * grid.dl * omega);
    for iy in 0..grid.ny {
        for ix in 0..grid.nx {
            let dx = central_diff_x(ez, ix, iy);
            let dy = central_diff_y(ez, ix, iy);
            hx.set(ix, iy, -Complex64::I * dy * inv);
            hy.set(ix, iy, Complex64::I * dx * inv);
        }
    }
    (hx, hy)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a synthetic forward-propagating mode field Ez = φ(y)e^{iβx}
    /// and checks the monitor recovers (A, B) ≈ (1, 0).
    #[test]
    fn monitor_separates_directions() {
        let grid = Grid2d::new(64, 48, 0.05);
        let omega = maps_core::omega_for_wavelength(1.55);
        let mut eps = RealField2d::constant(grid, 2.07);
        let yc = grid.height() / 2.0;
        maps_core::paint(
            &mut eps,
            &maps_core::Shape::Rect(maps_core::Rect::new(
                0.0,
                yc - 0.25,
                grid.width(),
                yc + 0.25,
            )),
            12.11,
        );
        let port = Port::new((1.6, yc), 0.5, Axis::X, Direction::Positive);
        let monitor = ModeMonitor::new(&eps, &port, omega).unwrap();
        let mode = monitor.mode().clone();
        // Synthesize the exact discrete mode on the whole grid.
        let (cells, _) = crate::modes::port_cross_section(&port, &eps, 1.6);
        let mut ez = ComplexField2d::zeros(grid);
        for ix in 0..grid.nx {
            let phase = Complex64::cis(mode.beta * (ix as f64) * grid.dl);
            for (k, &(_, iy)) in cells.iter().enumerate() {
                ez.set(ix, iy, phase * mode.profile[k]);
            }
        }
        let (a, b) = monitor.amplitudes(&ez);
        assert!((a.abs() - 1.0).abs() < 0.05, "A = {}", a.abs());
        assert!(b.abs() < 0.05, "B = {}", b.abs());
        // Reverse the propagation direction: amplitudes swap.
        let mut ez_rev = ComplexField2d::zeros(grid);
        for ix in 0..grid.nx {
            let phase = Complex64::cis(-mode.beta * (ix as f64) * grid.dl);
            for (k, &(_, iy)) in cells.iter().enumerate() {
                ez_rev.set(ix, iy, phase * mode.profile[k]);
            }
        }
        let (a2, b2) = monitor.amplitudes(&ez_rev);
        assert!(a2.abs() < 0.05, "A(rev) = {}", a2.abs());
        assert!((b2.abs() - 1.0).abs() < 0.05, "B(rev) = {}", b2.abs());
    }

    #[test]
    fn functional_eval_matches_amplitudes() {
        let grid = Grid2d::new(40, 30, 0.05);
        let omega = maps_core::omega_for_wavelength(1.55);
        let mut eps = RealField2d::constant(grid, 2.07);
        let yc = grid.height() / 2.0;
        maps_core::paint(
            &mut eps,
            &maps_core::Shape::Rect(maps_core::Rect::new(
                0.0,
                yc - 0.25,
                grid.width(),
                yc + 0.25,
            )),
            12.11,
        );
        let port = Port::new((1.0, yc), 0.5, Axis::X, Direction::Positive);
        let monitor = ModeMonitor::new(&eps, &port, omega).unwrap();
        // Arbitrary field.
        let mut ez = ComplexField2d::zeros(grid);
        for iy in 0..grid.ny {
            for ix in 0..grid.nx {
                ez.set(
                    ix,
                    iy,
                    Complex64::new((ix as f64 * 0.3).sin(), (iy as f64 * 0.2).cos()),
                );
            }
        }
        let (a, b) = monitor.amplitudes(&ez);
        let af = monitor.positive_amplitude_functional().eval(&ez);
        let bf = monitor.negative_amplitude_functional().eval(&ez);
        assert!((a - af).abs() < 1e-12);
        assert!((b - bf).abs() < 1e-12);
    }

    #[test]
    fn flux_of_plane_wave_is_positive() {
        let grid = Grid2d::new(64, 16, 0.05);
        let omega = maps_core::omega_for_wavelength(1.55);
        // Uniform plane wave e^{iωx} in vacuum (k = ω since c = 1).
        let mut ez = ComplexField2d::zeros(grid);
        for iy in 0..grid.ny {
            for ix in 0..grid.nx {
                ez.set(ix, iy, Complex64::cis(omega * ix as f64 * grid.dl));
            }
        }
        let m = FluxMonitor::vertical(grid, grid.width() / 2.0, 0.1, grid.height() - 0.1);
        assert!(m.flux(&ez, omega) > 0.0);
        // Counter-propagating wave has negative flux.
        let mut ez_rev = ComplexField2d::zeros(grid);
        for iy in 0..grid.ny {
            for ix in 0..grid.nx {
                ez_rev.set(ix, iy, Complex64::cis(-omega * ix as f64 * grid.dl));
            }
        }
        assert!(m.flux(&ez_rev, omega) < 0.0);
    }

    #[test]
    fn derive_h_of_plane_wave() {
        let grid = Grid2d::new(64, 8, 0.05);
        let omega = 4.0;
        let mut ez = ComplexField2d::zeros(grid);
        for iy in 0..grid.ny {
            for ix in 0..grid.nx {
                ez.set(ix, iy, Complex64::cis(omega * ix as f64 * grid.dl));
            }
        }
        let (hx, hy) = derive_h_fields(&ez, omega);
        // For Ez = e^{iωx}: Hy = i(iω)Ez/ω = −Ez (continuum limit).
        let k = (32, 4);
        let expect = -ez.get(k.0, k.1);
        let got = hy.get(k.0, k.1);
        assert!((got - expect).abs() < 0.01, "{got} vs {expect}");
        assert!(hx.get(k.0, k.1).abs() < 1e-12);
    }
}
