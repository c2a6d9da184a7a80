//! Current-density sources.
//!
//! The workhorse is the unidirectional eigenmode source: two adjacent
//! transverse current lines phased so the backward-radiated wave cancels,
//! leaving a clean guided mode launched through the port.

use crate::modes::{port_mode, ModeError, SlabMode};
use maps_core::{Axis, ComplexField2d, Direction, Port, RealField2d};
use maps_linalg::Complex64;

/// A mode source ready to be stamped into a current-density field.
#[derive(Debug, Clone)]
pub struct ModeSource {
    /// The solved transverse mode being launched.
    pub mode: SlabMode,
    /// Cells of the primary source line.
    pub cells: Vec<(usize, usize)>,
    /// Port this source was built for.
    pub port: Port,
}

impl ModeSource {
    /// Builds the source from the port's eigenmode on the given
    /// permittivity map. The mode comes from the mode memo (see
    /// [`crate::modes`]), bit for bit what [`solve_slab_modes`] returns for
    /// the same cross-section.
    ///
    /// [`solve_slab_modes`]: crate::solve_slab_modes
    ///
    /// # Errors
    ///
    /// Returns [`ModeError::NotGuided`] when the cross-section supports
    /// fewer guided modes than `port.mode_index + 1`.
    pub fn new(eps_r: &RealField2d, port: &Port, omega: f64) -> Result<Self, ModeError> {
        let (cells, mode) = port_mode(eps_r, port, omega)?;
        Ok(ModeSource {
            mode,
            cells,
            port: *port,
        })
    }

    /// Stamps the unidirectional two-line source into a fresh current
    /// density field `Jz`.
    ///
    /// The two lines sit at the port plane and one cell behind it
    /// (relative to the launch direction) with relative amplitude
    /// `−e^{iβ·dl}`, which cancels the backward wave.
    pub fn current_density(&self, grid: maps_core::Grid2d) -> ComplexField2d {
        let mut j = ComplexField2d::zeros(grid);
        let dl = grid.dl;
        let phase = Complex64::cis(self.mode.beta * dl);
        let sign = self.port.direction;
        for (k, &(ix, iy)) in self.cells.iter().enumerate() {
            let amp = Complex64::from_re(self.mode.profile[k]);
            j.set(ix, iy, j.get(ix, iy) + amp);
            // The cancellation line sits one cell opposite the launch
            // direction along the propagation axis.
            let behind = match (self.port.axis, sign) {
                (Axis::X, Direction::Positive) => (ix.checked_sub(1), Some(iy)),
                (Axis::X, Direction::Negative) => {
                    (if ix + 1 < grid.nx { Some(ix + 1) } else { None }, Some(iy))
                }
                (Axis::Y, Direction::Positive) => (Some(ix), iy.checked_sub(1)),
                (Axis::Y, Direction::Negative) => {
                    (Some(ix), if iy + 1 < grid.ny { Some(iy + 1) } else { None })
                }
            };
            if let (Some(bx), Some(by)) = behind {
                j.set(bx, by, j.get(bx, by) - amp * phase);
            }
        }
        j
    }
}

/// A point dipole source at the cell nearest `(x, y)` with the given
/// complex amplitude.
pub fn point_source(
    grid: maps_core::Grid2d,
    x: f64,
    y: f64,
    amplitude: Complex64,
) -> ComplexField2d {
    let mut j = ComplexField2d::zeros(grid);
    let (ix, iy) = grid.cell_at(x, y);
    j.set(ix, iy, amplitude);
    j
}

#[cfg(test)]
mod tests {
    use super::*;
    use maps_core::{Grid2d, Rect, Shape};

    fn waveguide_eps(grid: Grid2d) -> RealField2d {
        let mut eps = RealField2d::constant(grid, 2.07);
        maps_core::paint(
            &mut eps,
            &Shape::Rect(Rect::new(
                0.0,
                grid.height() / 2.0 - 0.25,
                grid.width(),
                grid.height() / 2.0 + 0.25,
            )),
            12.11,
        );
        eps
    }

    #[test]
    fn mode_source_stamps_two_lines() {
        let grid = Grid2d::new(80, 60, 0.05);
        let eps = waveguide_eps(grid);
        let port = Port::new(
            (1.0, grid.height() / 2.0),
            0.5,
            Axis::X,
            Direction::Positive,
        );
        let src = ModeSource::new(&eps, &port, maps_core::omega_for_wavelength(1.55)).unwrap();
        let j = src.current_density(grid);
        // Nonzero on exactly two adjacent columns.
        let mut cols: Vec<usize> = Vec::new();
        for ix in 0..grid.nx {
            let any = (0..grid.ny).any(|iy| j.get(ix, iy) != Complex64::ZERO);
            if any {
                cols.push(ix);
            }
        }
        assert_eq!(cols.len(), 2);
        assert_eq!(cols[1] - cols[0], 1);
    }

    #[test]
    fn requesting_missing_mode_errors() {
        let grid = Grid2d::new(80, 60, 0.05);
        let eps = waveguide_eps(grid);
        let port = Port::new(
            (1.0, grid.height() / 2.0),
            0.5,
            Axis::X,
            Direction::Positive,
        )
        .with_mode(5);
        let err = ModeSource::new(&eps, &port, maps_core::omega_for_wavelength(1.55)).unwrap_err();
        assert!(matches!(err, ModeError::NotGuided { requested: 5, .. }));
    }

    #[test]
    fn point_source_single_cell() {
        let grid = Grid2d::new(10, 10, 0.1);
        let j = point_source(grid, 0.55, 0.35, Complex64::I);
        assert_eq!(j.get(5, 3), Complex64::I);
        let nnz = j
            .as_slice()
            .iter()
            .filter(|z| **z != Complex64::ZERO)
            .count();
        assert_eq!(nnz, 1);
    }
}
