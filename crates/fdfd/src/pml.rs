//! Stretched-coordinate perfectly matched layers.
//!
//! The FDFD operator replaces `∂x` with `(1/sx)·∂x` where the complex
//! stretch `s(u) = 1 + i·σ(u)/ω` grows polynomially inside the absorbing
//! layer. With the `e^{−iωt}` phasor convention this damps outgoing waves
//! as `e^{−∫σ du}`.

use maps_linalg::Complex64;

/// PML configuration for one simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PmlConfig {
    /// Layer thickness in cells on every boundary.
    pub thickness: usize,
    /// Polynomial grading order of the conductivity profile.
    pub order: f64,
    /// Target reflection coefficient at normal incidence.
    pub target_reflection: f64,
}

impl Default for PmlConfig {
    fn default() -> Self {
        PmlConfig {
            thickness: 12,
            order: 3.0,
            target_reflection: 1e-8,
        }
    }
}

impl PmlConfig {
    /// A PML sized for the grid resolution: ~0.8 µm of absorber regardless
    /// of `dl`, clamped to `[4, 16]` cells. Prevents coarse-fidelity grids
    /// from drowning in absorber.
    pub fn auto(dl: f64) -> Self {
        let cells = (0.8 / dl).round().clamp(4.0, 16.0) as usize;
        PmlConfig {
            thickness: cells,
            ..Default::default()
        }
    }

    /// Maximum conductivity `σ_max = −(m+1)·ln(R₀) / (2·d)` for a layer of
    /// physical depth `d` (normalized impedance `η = 1`).
    pub fn sigma_max(&self, dl: f64) -> f64 {
        let d = self.thickness as f64 * dl;
        -(self.order + 1.0) * self.target_reflection.ln() / (2.0 * d)
    }

    /// Complex stretch factors along an axis of `n` cells.
    ///
    /// `offset` shifts the evaluation point by half a cell (0.0 for
    /// integer-grid "backward" factors, 0.5 for the staggered "forward"
    /// factors), matching the Yee staggering of the two first-derivative
    /// operators. A thickness of 0 means no PML: every factor is 1.
    pub fn stretch_factors(&self, n: usize, dl: f64, omega: f64, offset: f64) -> Vec<Complex64> {
        if self.thickness == 0 {
            return vec![Complex64::ONE; n];
        }
        let t = self.thickness as f64;
        let smax = self.sigma_max(dl);
        (0..n)
            .map(|i| {
                let pos = i as f64 + offset;
                // Depth into the PML measured in cells, from either boundary.
                let depth_lo = t - pos;
                let depth_hi = pos - (n as f64 - 1.0 - t);
                let depth = depth_lo.max(depth_hi).max(0.0);
                if depth <= 0.0 {
                    Complex64::ONE
                } else {
                    let sigma = smax * (depth / t).powf(self.order);
                    Complex64::new(1.0, sigma / omega)
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interior_is_unstretched() {
        let cfg = PmlConfig {
            thickness: 8,
            ..Default::default()
        };
        let s = cfg.stretch_factors(64, 0.05, 4.0, 0.0);
        for k in 10..54 {
            assert_eq!(s[k], Complex64::ONE, "cell {k} should be interior");
        }
    }

    #[test]
    fn boundary_has_positive_imaginary_stretch() {
        let cfg = PmlConfig::default();
        let s = cfg.stretch_factors(64, 0.05, 4.0, 0.0);
        assert!(s[0].im > 0.0);
        assert!(s[63].im > 0.0);
        // Monotone decay of σ moving inward.
        assert!(s[0].im > s[5].im);
        assert!(s[63].im > s[58].im);
    }

    #[test]
    fn profile_is_symmetric() {
        let cfg = PmlConfig::default();
        let s = cfg.stretch_factors(80, 0.05, 4.0, 0.0);
        for k in 0..12 {
            let a = s[k].im;
            let b = s[79 - k].im;
            assert!((a - b).abs() < 1e-12, "asymmetry at {k}: {a} vs {b}");
        }
    }

    /// Thickness 0 is no PML, not a layer of zero depth: `sigma_max`
    /// divides by the depth, which made the last staggered factor `1 + i·∞`.
    #[test]
    fn zero_thickness_is_no_pml() {
        let cfg = PmlConfig {
            thickness: 0,
            ..Default::default()
        };
        for offset in [0.0, 0.5] {
            let s = cfg.stretch_factors(40, 0.05, 4.0, offset);
            assert!(s.iter().all(|s| *s == Complex64::ONE), "{s:?}");
        }
    }

    #[test]
    fn sigma_max_scales_inversely_with_depth() {
        let cfg = PmlConfig::default();
        assert!(cfg.sigma_max(0.05) > cfg.sigma_max(0.10));
    }
}
