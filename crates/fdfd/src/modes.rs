//! 1-D slab waveguide eigenmode solver.
//!
//! A port's cross-section reduces the 2-D Helmholtz equation to the
//! eigenproblem `(d²/dt² + ω²ε(t)) φ = β² φ` on the transverse line.
//! Guided modes are the eigenpairs with `β² > ω²·ε_cladding`; `β` is the
//! propagation constant and `n_eff = β/ω` the effective index.
//!
//! [`ModeSource::new`](crate::ModeSource::new) and
//! [`ModeMonitor::new`](crate::ModeMonitor::new) read port modes through a
//! process-wide memo keyed on the exact bits of the cross-section's ε line,
//! `dl` and `ω`. A port plane that lies outside a design window keeps its
//! cross-section while the design changes, so its modes are decomposed
//! once, and mode 0 and mode 1 of one plane share one decomposition. A hit
//! returns what [`solve_slab_modes`] computes for the same input bits.

use maps_core::{Axis, Grid2d, Port, RealField2d};
use maps_linalg::{symmetric_eigen, DMatrix};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex, OnceLock};

/// Distinct cross-sections the mode memo keeps, least recently used out
/// first. One labelled device touches at most 8, and an entry holds one
/// line's bits and its guided profiles (a few KB).
const MODE_MEMO_CAPACITY: usize = 64;

/// A solved slab waveguide mode on a transverse line of the grid.
#[derive(Debug, Clone)]
pub struct SlabMode {
    /// Propagation constant β (rad/µm).
    pub beta: f64,
    /// Effective index `β/ω`.
    pub neff: f64,
    /// Real transverse profile φ(t), one entry per transverse cell,
    /// normalized to unit modal power: `(β/2ω)·Σφ²·dl = 1`.
    pub profile: Vec<f64>,
    /// Angular frequency the mode was solved at.
    pub omega: f64,
    /// Grid spacing along the transverse line (µm).
    pub dl: f64,
}

impl SlabMode {
    /// Modal power carried by an amplitude-`a` excitation: `|a|²` after the
    /// unit-power normalization applied here.
    pub fn power_normalization(&self) -> f64 {
        self.beta / (2.0 * self.omega) * self.profile.iter().map(|p| p * p).sum::<f64>() * self.dl
    }
}

/// Error from the mode solver.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ModeError {
    /// No guided mode exists at the requested index.
    NotGuided {
        /// The eigenmode index that was requested.
        requested: usize,
        /// How many guided modes the cross-section supports.
        available: usize,
    },
}

impl std::fmt::Display for ModeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModeError::NotGuided {
                requested,
                available,
            } => write!(
                f,
                "eigenmode {requested} is not guided (cross-section supports {available} guided modes)"
            ),
        }
    }
}

impl std::error::Error for ModeError {}

/// Solves the guided modes of a 1-D permittivity profile.
///
/// `eps_line` is the permittivity sampled along the transverse line with
/// spacing `dl`. Returns modes sorted by decreasing `β` (fundamental first),
/// keeping only those guided with respect to the minimum permittivity of the
/// line (the cladding).
pub fn solve_slab_modes(eps_line: &[f64], dl: f64, omega: f64) -> Vec<SlabMode> {
    let n = eps_line.len();
    assert!(n >= 3, "transverse line too short for mode solving");
    let inv_dl2 = 1.0 / (dl * dl);
    let mut m = DMatrix::zeros(n, n);
    for i in 0..n {
        m[(i, i)] = -2.0 * inv_dl2 + omega * omega * eps_line[i];
        if i > 0 {
            m[(i, i - 1)] = inv_dl2;
        }
        if i + 1 < n {
            m[(i, i + 1)] = inv_dl2;
        }
    }
    let eig = symmetric_eigen(&m);
    let eps_clad = eps_line.iter().copied().fold(f64::INFINITY, f64::min);
    let cutoff = omega * omega * eps_clad;
    let mut modes = Vec::new();
    for (k, &beta2) in eig.values.iter().enumerate() {
        if beta2 <= cutoff || beta2 <= 0.0 {
            break; // eigenvalues are sorted descending; the rest are radiative
        }
        let beta = beta2.sqrt();
        let mut profile: Vec<f64> = (0..n).map(|r| eig.vectors[(r, k)]).collect();
        // Deterministic sign: peak positive.
        let (imax, _) = profile
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.abs().partial_cmp(&b.1.abs()).expect("finite"))
            .expect("non-empty profile");
        if profile[imax] < 0.0 {
            for p in profile.iter_mut() {
                *p = -*p;
            }
        }
        // Normalize to unit modal power.
        let raw_power = beta / (2.0 * omega) * profile.iter().map(|p| p * p).sum::<f64>() * dl;
        let scale = 1.0 / raw_power.sqrt();
        for p in profile.iter_mut() {
            *p *= scale;
        }
        modes.push(SlabMode {
            beta,
            neff: beta / omega,
            profile,
            omega,
            dl,
        });
    }
    modes
}

/// Memo entries, most recently used last. Each key is the bits of the ε
/// line followed by those of `dl` and `ω`.
type ModeMemo = Mutex<VecDeque<(Vec<u64>, Arc<[SlabMode]>)>>;

fn mode_memo() -> &'static ModeMemo {
    static MEMO: OnceLock<ModeMemo> = OnceLock::new();
    MEMO.get_or_init(|| Mutex::new(VecDeque::with_capacity(MODE_MEMO_CAPACITY)))
}

/// [`solve_slab_modes`] through the mode memo: every guided mode of the
/// line, from one decomposition per distinct `(eps_line, dl, omega)` bits.
///
/// The decomposition runs outside the memo's lock, so threads never wait
/// on each other's miss; two threads that miss on one key both compute it
/// and get the same bits.
fn memo_slab_modes(eps_line: &[f64], dl: f64, omega: f64) -> Arc<[SlabMode]> {
    let key: Vec<u64> = eps_line
        .iter()
        .chain([&dl, &omega])
        .map(|v| v.to_bits())
        .collect();
    {
        let mut memo = mode_memo().lock().expect("mode memo lock");
        if let Some(i) = memo.iter().position(|(k, _)| *k == key) {
            let entry = memo.remove(i).expect("position is in range");
            let modes = Arc::clone(&entry.1);
            memo.push_back(entry);
            return modes;
        }
    }
    let modes: Arc<[SlabMode]> = solve_slab_modes(eps_line, dl, omega).into();
    let mut memo = mode_memo().lock().expect("mode memo lock");
    if !memo.iter().any(|(k, _)| *k == key) {
        if memo.len() == MODE_MEMO_CAPACITY {
            memo.pop_front();
        }
        memo.push_back((key, Arc::clone(&modes)));
    }
    modes
}

/// The cells of `port`'s cross-section through its centre and its guided
/// mode `port.mode_index`, read through the mode memo.
pub(crate) fn port_mode(
    eps_r: &RealField2d,
    port: &Port,
    omega: f64,
) -> Result<(Vec<(usize, usize)>, SlabMode), ModeError> {
    let along = match port.axis {
        Axis::X => port.center.0,
        Axis::Y => port.center.1,
    };
    let (cells, eps_line) = port_cross_section(port, eps_r, along);
    let modes = memo_slab_modes(&eps_line, eps_r.grid().dl, omega);
    let mode = modes.get(port.mode_index).ok_or(ModeError::NotGuided {
        requested: port.mode_index,
        available: modes.len(),
    })?;
    Ok((cells, mode.clone()))
}

/// The cells making up a port's transverse cross-section line.
///
/// Returns `(cells, eps_line)` where `cells` are `(ix, iy)` pairs ordered
/// along the transverse axis. The line spans the port width plus one port
/// width of cladding on each side (clamped to the grid) so evanescent tails
/// are captured.
pub fn port_cross_section(
    port: &Port,
    eps_r: &RealField2d,
    along: f64,
) -> (Vec<(usize, usize)>, Vec<f64>) {
    let grid: Grid2d = eps_r.grid();
    let (cx, cy) = port.center;
    let half_span = port.width * 1.5;
    match port.axis {
        Axis::X => {
            // propagation along x; transverse line is vertical at x = along
            let (ix, _) = grid.cell_at(along, cy);
            let (_, iy0) = grid.cell_at(cx, cy - half_span);
            let (_, iy1) = grid.cell_at(cx, cy + half_span);
            let cells: Vec<(usize, usize)> = (iy0..=iy1).map(|iy| (ix, iy)).collect();
            let eps = cells.iter().map(|&(ix, iy)| eps_r.get(ix, iy)).collect();
            (cells, eps)
        }
        Axis::Y => {
            let (_, iy) = grid.cell_at(cx, along);
            let (ix0, _) = grid.cell_at(cx - half_span, cy);
            let (ix1, _) = grid.cell_at(cx + half_span, cy);
            let cells: Vec<(usize, usize)> = (ix0..=ix1).map(|ix| (ix, iy)).collect();
            let eps = cells.iter().map(|&(ix, iy)| eps_r.get(ix, iy)).collect();
            (cells, eps)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ModeMonitor, ModeSource};
    use maps_core::{Direction, Rect, Shape};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A seeded random ε line: silica cladding around a core of random
    /// index, width and position, with a random ripple on every cell so
    /// no two lines share their bits.
    fn random_line(rng: &mut StdRng, n: usize) -> Vec<f64> {
        let width = rng.gen_range(2..n / 2);
        let lo = rng.gen_range(1..n - width);
        let core = 4.0 + 8.0 * rng.gen::<f64>();
        (0..n)
            .map(|i| {
                let base = if (lo..lo + width).contains(&i) {
                    core
                } else {
                    2.07
                };
                base + 0.01 * rng.gen::<f64>()
            })
            .collect()
    }

    fn assert_same_bits(got: &[SlabMode], want: &[SlabMode]) {
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(want) {
            assert_eq!(g.beta.to_bits(), w.beta.to_bits());
            assert_eq!(g.neff.to_bits(), w.neff.to_bits());
            assert_eq!(g.omega.to_bits(), w.omega.to_bits());
            assert_eq!(g.dl.to_bits(), w.dl.to_bits());
            assert_eq!(g.profile.len(), w.profile.len());
            for (a, b) in g.profile.iter().zip(&w.profile) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn memo_matches_uncached_modes_on_miss_hit_and_after_eviction() {
        let mut rng = StdRng::seed_from_u64(0x4D4F_4445);
        let (w1, w2) = (
            maps_core::omega_for_wavelength(1.55),
            maps_core::omega_for_wavelength(1.31),
        );
        // Each line at two frequencies and two spacings: keys that share
        // the ε bits but not `dl` or `ω` are distinct entries.
        let mut keys = Vec::new();
        for _ in 0..4 {
            let line = random_line(&mut rng, 48);
            for (dl, omega) in [(0.05, w1), (0.05, w2), (0.04, w1)] {
                keys.push((line.clone(), dl, omega));
            }
        }
        let mut first = Vec::new();
        for (line, dl, omega) in &keys {
            let want = solve_slab_modes(line, *dl, *omega);
            assert!(!want.is_empty(), "the pin needs guided modes to compare");
            let miss = memo_slab_modes(line, *dl, *omega);
            assert_same_bits(&miss, &want);
            let hit = memo_slab_modes(line, *dl, *omega);
            assert!(Arc::ptr_eq(&miss, &hit), "a repeated key is a hit");
            assert_same_bits(&hit, &want);
            first.push(miss);
        }
        // More distinct keys than the memo holds push every entry out.
        for _ in 0..=MODE_MEMO_CAPACITY {
            let filler = random_line(&mut rng, 12);
            memo_slab_modes(&filler, 0.05, w1);
        }
        assert!(mode_memo().lock().expect("mode memo lock").len() <= MODE_MEMO_CAPACITY);
        for ((line, dl, omega), before) in keys.iter().zip(&first) {
            let again = memo_slab_modes(line, *dl, *omega);
            assert!(
                !Arc::ptr_eq(&again, before),
                "an evicted key is solved again"
            );
            assert_same_bits(&again, &solve_slab_modes(line, *dl, *omega));
        }
    }

    #[test]
    fn source_and_monitor_share_one_memoized_plane() {
        // A 1 µm silicon guide in silica guides two modes at 1.55 µm.
        let grid = Grid2d::new(80, 60, 0.05);
        let yc = grid.height() / 2.0;
        let mut eps = RealField2d::constant(grid, 2.07);
        maps_core::paint(
            &mut eps,
            &Shape::Rect(Rect::new(0.0, yc - 0.5, grid.width(), yc + 0.5)),
            12.11,
        );
        let omega = maps_core::omega_for_wavelength(1.55);
        let port = Port::new((1.0, yc), 1.0, Axis::X, Direction::Positive);
        let monitor = ModeMonitor::new(&eps, &port, omega).unwrap();
        let source = ModeSource::new(&eps, &port.with_mode(1), omega).unwrap();

        let (cells, line) = port_cross_section(&port, &eps, port.center.0);
        let want = solve_slab_modes(&line, grid.dl, omega);
        assert!(want.len() >= 2, "the plane must guide mode 1");
        assert_same_bits(std::slice::from_ref(monitor.mode()), &want[..1]);
        assert_same_bits(std::slice::from_ref(&source.mode), &want[1..2]);
        assert_eq!(source.cells, cells);

        // The entry is cached now; an unguided index is still refused.
        let missing = port.with_mode(want.len());
        let not_guided = ModeError::NotGuided {
            requested: want.len(),
            available: want.len(),
        };
        assert_eq!(
            ModeSource::new(&eps, &missing, omega).unwrap_err(),
            not_guided
        );
        assert_eq!(
            ModeMonitor::new(&eps, &missing, omega).unwrap_err(),
            not_guided
        );
    }

    fn slab(n: usize, core_lo: usize, core_hi: usize) -> Vec<f64> {
        (0..n)
            .map(|i| {
                if i >= core_lo && i < core_hi {
                    12.11
                } else {
                    2.07
                }
            })
            .collect()
    }

    #[test]
    fn fundamental_mode_of_symmetric_slab() {
        // 0.5 µm silicon slab in silica at λ = 1.55 µm.
        let dl = 0.05;
        let omega = maps_core::omega_for_wavelength(1.55);
        let eps = slab(60, 25, 35);
        let modes = solve_slab_modes(&eps, dl, omega);
        assert!(!modes.is_empty(), "slab must guide at least one mode");
        let m0 = &modes[0];
        // Effective index must lie between cladding and core indices.
        assert!(
            m0.neff > 2.07f64.sqrt() && m0.neff < 12.11f64.sqrt(),
            "neff = {}",
            m0.neff
        );
        // Fundamental mode is even: profile peak near the centre.
        let peak = m0
            .profile
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert!((25..35).contains(&peak), "peak at {peak}");
        // Unit-power normalization.
        assert!((m0.power_normalization() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn modes_sorted_by_decreasing_beta() {
        let dl = 0.05;
        let omega = maps_core::omega_for_wavelength(1.55);
        // Wide slab supports several modes.
        let eps = slab(80, 20, 60);
        let modes = solve_slab_modes(&eps, dl, omega);
        assert!(modes.len() >= 2, "wide slab should be multimode");
        for w in modes.windows(2) {
            assert!(w[0].beta > w[1].beta);
        }
        // Second mode is odd: profile changes sign.
        let has_sign_change = modes[1]
            .profile
            .windows(2)
            .any(|p| p[0].signum() != p[1].signum() && p[0].abs() > 1e-6 && p[1].abs() > 1e-6);
        assert!(has_sign_change);
    }

    #[test]
    fn uniform_low_index_line_has_no_guided_mode() {
        let omega = maps_core::omega_for_wavelength(1.55);
        let eps = vec![2.07; 50];
        let modes = solve_slab_modes(&eps, 0.05, omega);
        assert!(modes.is_empty());
    }

    #[test]
    fn mode_profile_decays_into_cladding() {
        let dl = 0.05;
        let omega = maps_core::omega_for_wavelength(1.55);
        let eps = slab(80, 35, 45);
        let modes = solve_slab_modes(&eps, dl, omega);
        let p = &modes[0].profile;
        assert!(
            p[0].abs() < 1e-3 * p[40].abs(),
            "tail {} vs peak {}",
            p[0],
            p[40]
        );
    }
}
