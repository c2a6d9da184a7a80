//! # MAPS — Multi-Fidelity AI-Augmented Photonic Simulation and Inverse Design
//!
//! A from-scratch Rust reproduction of the MAPS infrastructure (Ma et al.,
//! DATE 2025): an exact 2-D FDFD Maxwell solver with adjoint gradients
//! ([`fdfd`]), a dataset acquisition framework with a six-device benchmark
//! zoo and trajectory-aware sampling ([`data`]), a training framework with
//! neural operators and standardized metrics ([`nn`], [`train`]), and a
//! fabrication-aware adjoint inverse-design toolkit ([`invdes`]).
//!
//! ```
//! use maps::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Simulate a point source in vacuum.
//! let grid = Grid2d::new(48, 48, 0.05);
//! let eps = RealField2d::constant(grid, 1.0);
//! let j = maps::fdfd::point_source(grid, 1.2, 1.2, maps::linalg::Complex64::ONE);
//! let solver = FdfdSolver::new();
//! let ez = solver.solve_ez(&eps, &j, omega_for_wavelength(1.55))?;
//! assert!(ez.norm() > 0.0);
//! # Ok(())
//! # }
//! ```

/// Shared vocabulary: grids, fields, ports, labels, the solver trait.
pub use maps_core as core;
/// Dataset acquisition: device zoo, sampling strategies, rich labels.
pub use maps_data as data;
/// The 2-D FDFD Maxwell solver with PML, mode sources, and adjoints.
pub use maps_fdfd as fdfd;
/// Fabrication-aware adjoint inverse design.
pub use maps_invdes as invdes;
/// Numerical kernels: complex, banded LDLᵀ and LU, BiCGSTAB, eigensolvers.
pub use maps_linalg as linalg;
/// The fault-tolerant persistent solve daemon (`mapsd`).
pub use maps_mapsd as mapsd;
/// Neural operator models and optimizers.
pub use maps_nn as nn;
/// Zero-dependency tracing, metrics, and convergence telemetry.
pub use maps_obs as obs;
/// Tensors and tape-based autodiff.
pub use maps_tensor as tensor;
/// Training framework: loaders, losses, metrics, neural field solver.
pub use maps_train as train;

/// The most common types for a quick start.
pub mod prelude {
    pub use maps_core::{
        omega_for_wavelength, Axis, ComplexField2d, Direction, FieldSolver, Grid2d,
        InstrumentedSolver, Port, RealField2d, Rect, Shape,
    };
    pub use maps_data::{DeviceKind, DeviceResolution, SamplerConfig, SamplingStrategy};
    pub use maps_fdfd::{FdfdSolver, ModeMonitor, ModeSource, PowerObjective};
    pub use maps_invdes::{
        DesignProblem, ExactAdjoint, InitStrategy, InverseDesigner, OptimConfig, Patch, Symmetry,
    };
    pub use maps_nn::{Fno, FnoConfig, Model};
    pub use maps_train::{train_field_model, NeuralFieldSolver, TrainConfig};
}
