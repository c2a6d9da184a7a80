//! # maps-fdfd
//!
//! A 2-D `Ez`-polarized finite-difference frequency-domain (FDFD) Maxwell
//! solver: Yee-grid Helmholtz operator with stretched-coordinate PML, slab
//! eigenmode sources and monitors, Poynting flux, and exact adjoint
//! gradients that reuse the forward factorization (a pivot-free `L·Δ·Lᵀ`
//! of the symmetrized operator).
//!
//! This crate is the numerical substrate the MAPS paper's infrastructure
//! rests on (the role played by ceviche-style Python solvers in the
//! original).
//!
//! ```
//! use maps_core::{Axis, Direction, FieldSolver, Grid2d, Port, RealField2d, Rect, Shape};
//! use maps_fdfd::{FdfdSolver, ModeMonitor, ModeSource};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A straight silicon waveguide in silica.
//! let grid = Grid2d::new(80, 50, 0.08);
//! let yc = grid.height() / 2.0;
//! let mut eps = RealField2d::constant(grid, 2.07);
//! maps_core::paint(&mut eps, &Shape::Rect(Rect::new(0.0, yc - 0.24, grid.width(), yc + 0.24)), 12.11);
//!
//! let omega = maps_core::omega_for_wavelength(1.55);
//! let input = Port::new((1.4, yc), 0.48, Axis::X, Direction::Positive);
//! let source = ModeSource::new(&eps, &input, omega)?;
//! let ez = FdfdSolver::new().solve_ez(&eps, &source.current_density(grid), omega)?;
//!
//! let output = Port::new((grid.width() - 1.4, yc), 0.48, Axis::X, Direction::Positive);
//! let monitor = ModeMonitor::new(&eps, &output, omega)?;
//! assert!(monitor.outgoing_power(&ez) > 0.0);
//! # Ok(())
//! # }
//! ```

pub mod adjoint;
pub mod factor_cache;
pub mod farfield;
pub mod modes;
pub mod monitor;
pub mod operator;
pub mod pml;
pub mod simulation;
pub mod source;
pub mod sparams;
pub mod spectrum;

pub use adjoint::{gradient_from_fields, PowerObjective};
pub use factor_cache::{
    factor, factor_coalesced, CacheStats, FactorCache, FactorOutcome, Fingerprint,
};
pub use farfield::FarFieldProjector;
pub use modes::{solve_slab_modes, ModeError, SlabMode};
pub use monitor::{derive_h_fields, FluxMonitor, LinearFunctional, ModeMonitor};
pub use operator::{HelmholtzOperator, SymmetricFactor, SymmetricOperator};
pub use pml::PmlConfig;
pub use simulation::{Backend, FdfdSolver};
pub use source::{point_source, ModeSource};
pub use sparams::{SMatrix, SMatrixError};
pub use spectrum::{linspace_wavelengths, transmission_spectrum, SpectrumPoint};
