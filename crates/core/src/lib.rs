//! # maps-core
//!
//! Shared vocabulary of the MAPS infrastructure: grids, scalar fields,
//! geometric primitives, ports, rich dataset labels, and the [`FieldSolver`]
//! abstraction that lets MAPS-InvDes run on either the exact FDFD solver or
//! a trained neural surrogate.
//!
//! Units are normalized: lengths in micrometres, `c = ε₀ = μ₀ = 1`, so the
//! angular frequency for a vacuum wavelength `λ` (µm) is `ω = 2π/λ` (see
//! [`omega_for_wavelength`]).
//!
//! ```
//! use maps_core::{Grid2d, RealField2d};
//!
//! let grid = Grid2d::new(120, 80, 0.05);
//! let silicon = maps_core::materials::SILICON_EPS;
//! let eps = RealField2d::constant(grid, silicon);
//! assert_eq!(eps.grid().len(), 120 * 80);
//! ```

pub mod fault;
pub mod field;
pub mod geometry;
pub mod grid;
pub mod instrument;
pub mod label;
pub mod port;
pub mod resilience;
pub mod solver;

pub use fault::{FaultInjectingSolver, FaultPlan, InjectedFault};
pub use field::{ComplexField2d, EmFields, RealField2d};
pub use geometry::{paint, Axis, Direction, Rect, Shape};
pub use grid::Grid2d;
pub use instrument::InstrumentedSolver;
pub use label::{Fidelity, PortRecord, RichLabels, Sample};
pub use port::Port;
pub use resilience::{RetryPolicy, RobustSolver, RobustStats, Rung};
pub use solver::{ensure_finite, FieldSolver, SolveFieldError, SolveKind, SolveRequest};

/// Angular frequency for a vacuum wavelength in µm (normalized `c = 1`).
///
/// # Panics
///
/// Panics if `wavelength` is not a positive finite number.
pub fn omega_for_wavelength(wavelength: f64) -> f64 {
    assert!(
        wavelength.is_finite() && wavelength > 0.0,
        "wavelength must be positive"
    );
    2.0 * std::f64::consts::PI / wavelength
}

/// Common material constants.
pub mod materials {
    /// Relative permittivity of silicon near 1550 nm (n ≈ 3.48).
    pub const SILICON_EPS: f64 = 12.11;
    /// Relative permittivity of silica cladding (n ≈ 1.44).
    pub const SILICA_EPS: f64 = 2.07;
    /// Vacuum / air.
    pub const AIR_EPS: f64 = 1.0;
    /// Thermo-optic coefficient of silicon, dn/dT (per kelvin).
    pub const SILICON_DN_DT: f64 = 1.8e-4;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn omega_of_1550nm() {
        let w = omega_for_wavelength(1.55);
        assert!((w - 2.0 * std::f64::consts::PI / 1.55).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn omega_rejects_zero() {
        omega_for_wavelength(0.0);
    }

    #[test]
    fn silicon_index_squares_to_eps() {
        let n = materials::SILICON_EPS.sqrt();
        assert!((n - 3.48).abs() < 0.01);
    }
}
