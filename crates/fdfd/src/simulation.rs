//! The FDFD solver facade.

use crate::operator::{symmetrizer, HelmholtzOperator, SymmetricOperator};
use crate::pml::PmlConfig;
use maps_core::{
    ComplexField2d, FieldSolver, RealField2d, SolveFieldError, SolveKind, SolveRequest,
};
use maps_linalg::{bicgstab, Complex64, IterativeOptions, RHS_BLOCK};
use rayon::prelude::*;

/// Which linear-algebra backend performs the solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Backend {
    /// Exact direct solve (default): the pivot-free banded `L·Δ·Lᵀ` of the
    /// symmetrized operator `S = D·A`, `O(n·nx²)` to factor, with every
    /// solution's residual checked against `S` and refined once when it
    /// exceeds 1e-12. The factorization is cached and reused for the
    /// adjoint solve.
    Direct,
    /// Jacobi-preconditioned BiCGSTAB, matrix-free on the stencil of the
    /// same `S = D·A` the direct backend factors: a forward solve runs
    /// `S·x = D·b` and an adjoint `S·z = c` with `y = D·z`, so an
    /// adjoint's stopping residual is exactly `‖Aᵀ·y − c‖/‖c‖`.
    Iterative(IterativeOptions),
}

/// A 2-D `Ez`-polarization FDFD Maxwell solver.
///
/// Every solve runs [`FieldSolver::solve_ez_batch`]: `solve_ez` and
/// `solve_adjoint_ez` are batches of one request.
///
/// ```
/// use maps_core::{ComplexField2d, FieldSolver, Grid2d, RealField2d};
/// use maps_fdfd::FdfdSolver;
///
/// # fn main() -> Result<(), maps_core::SolveFieldError> {
/// let grid = Grid2d::new(64, 48, 0.05);
/// let eps = RealField2d::constant(grid, 1.0);
/// let mut j = ComplexField2d::zeros(grid);
/// j.set(32, 24, maps_linalg::Complex64::ONE);
/// let solver = FdfdSolver::new();
/// let ez = solver.solve_ez(&eps, &j, maps_core::omega_for_wavelength(1.55))?;
/// assert!(ez.norm() > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct FdfdSolver {
    pml: PmlConfig,
    backend: Backend,
}

impl Default for FdfdSolver {
    fn default() -> Self {
        Self::new()
    }
}

impl FdfdSolver {
    /// Creates a solver with the default PML and the direct backend.
    pub fn new() -> Self {
        FdfdSolver {
            pml: PmlConfig::default(),
            backend: Backend::Direct,
        }
    }

    /// Creates a solver with a custom PML configuration.
    pub fn with_pml(pml: PmlConfig) -> Self {
        FdfdSolver {
            pml,
            backend: Backend::Direct,
        }
    }

    /// Selects the solve backend, returning the modified solver.
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// The PML configuration in use.
    pub fn pml(&self) -> &PmlConfig {
        &self.pml
    }

    /// Assembles the Helmholtz operator for a given permittivity and
    /// frequency (exposed for adjoint work and rich labels).
    pub fn operator(&self, eps_r: &RealField2d, omega: f64) -> HelmholtzOperator {
        HelmholtzOperator::new(eps_r, omega, &self.pml)
    }

    /// Builds the right-hand side `b = −iω·Jz` from a current density.
    pub fn rhs(source: &ComplexField2d, omega: f64) -> Vec<Complex64> {
        source
            .as_slice()
            .iter()
            .map(|j| Complex64::new(0.0, -omega) * *j)
            .collect()
    }

    /// Relative residual `‖A·e − b‖/‖b‖` of a candidate field — the
    /// physics self-check exported as the `maxwell_residual` rich label.
    pub fn residual(
        &self,
        eps_r: &RealField2d,
        source: &ComplexField2d,
        omega: f64,
        ez: &ComplexField2d,
    ) -> f64 {
        let op = self.operator(eps_r, omega);
        let b = Self::rhs(source, omega);
        let ae = op.apply(ez.as_slice());
        let mut num = 0.0;
        let mut den = 0.0;
        for (r, bb) in ae.iter().zip(&b) {
            num += (*r - *bb).norm_sqr();
            den += bb.norm_sqr();
        }
        if den == 0.0 {
            num.sqrt()
        } else {
            (num / den).sqrt()
        }
    }

    /// Checks one solve's inputs before anything is assembled: the
    /// right-hand side must lie on the permittivity's grid, and ω must be
    /// positive and finite (the operator assembly asserts it).
    fn check_inputs(
        eps_r: &RealField2d,
        rhs: &ComplexField2d,
        omega: f64,
    ) -> Result<(), SolveFieldError> {
        if eps_r.grid() != rhs.grid() {
            return Err(SolveFieldError::GridMismatch {
                detail: format!(
                    "eps grid {:?} vs source grid {:?}",
                    eps_r.grid(),
                    rhs.grid()
                ),
            });
        }
        if !(omega.is_finite() && omega > 0.0) {
            return Err(SolveFieldError::InvalidInput {
                detail: "omega must be positive and finite".into(),
            });
        }
        Ok(())
    }

    /// The path every work item of `solve_ez_batch` (its one caller) runs:
    /// overwrites each right-hand side in `xs` with the solution of
    /// `A·x = b` where `kinds[i]` is a forward solve, and of `Aᵀ·y = c`
    /// where it is an adjoint solve, at (ε, ω).
    ///
    /// Both backends solve the symmetrized `S = D·A` ([`symmetrizer`]
    /// gives `D`): a forward lane is scaled by `D` before the solve and
    /// solves `S·x = D·b`, an adjoint lane solves `S·z = c` and is scaled
    /// after it, `y = D·z`. The direct backend fetches the factor from the
    /// factor cache (factorizing on a miss) and sweeps the whole block
    /// through one pass over it, with the residual guard inside the
    /// `fdfd.backsub` span. The iterative backend runs one BiCGSTAB per
    /// right-hand side on `S`'s stencil.
    fn solve_block(
        &self,
        eps_r: &RealField2d,
        omega: f64,
        xs: &mut [Vec<Complex64>],
        kinds: &[SolveKind],
    ) -> Result<(), SolveFieldError> {
        let lanes = |kind: SolveKind| {
            kinds
                .iter()
                .zip(0..)
                .filter(move |(k, _)| **k == kind)
                .map(|(_, i)| i)
        };
        let d = symmetrizer(eps_r.grid(), omega, &self.pml);
        for i in lanes(SolveKind::Forward) {
            for (x, d) in xs[i].iter_mut().zip(&d) {
                *x *= *d;
            }
        }
        match self.backend {
            Backend::Direct => {
                // One factorization per distinct (eps, omega, PML): the
                // process-wide cache shares it across forward, adjoint,
                // and repeated monitor/S-param solves of the same design.
                let factor = crate::factor_cache::factor(eps_r, omega, &self.pml).map_err(|e| {
                    SolveFieldError::Numerical {
                        detail: e.to_string(),
                    }
                })?;
                let _s = maps_obs::span("fdfd.backsub").field("rhs", xs.len());
                factor.solve(xs);
            }
            Backend::Iterative(opts) => {
                let op = SymmetricOperator::new(eps_r, omega, &self.pml);
                let diagonal = op.diagonal();
                let _s = maps_obs::span("fdfd.bicgstab");
                for x in xs.iter_mut() {
                    let (solution, stats) =
                        bicgstab(|x, y| op.apply_into(x, y), &diagonal, x, opts).map_err(|e| {
                            SolveFieldError::Numerical {
                                detail: convergence_detail(&e, opts),
                            }
                        })?;
                    maps_obs::histogram("fdfd.bicgstab.iterations").record(stats.iterations as f64);
                    maps_obs::histogram("fdfd.bicgstab.residual").record(stats.residual);
                    *x = solution;
                }
            }
        }
        // The adjoint field is `y = D·z`.
        for i in lanes(SolveKind::Adjoint) {
            for (x, d) in xs[i].iter_mut().zip(&d) {
                *x *= *d;
            }
        }
        Ok(())
    }
}

/// Formats an iterative-backend failure with its full convergence record so
/// callers of [`FieldSolver::solve_ez`] see how close the solve got.
fn convergence_detail(e: &maps_linalg::LinalgError, opts: IterativeOptions) -> String {
    match e {
        maps_linalg::LinalgError::NoConvergence {
            iterations,
            residual,
        } => format!(
            "bicgstab stalled after {iterations} iterations: relative residual \
             {residual:.3e} did not reach tolerance {:.3e} (max_iterations {})",
            opts.tolerance, opts.max_iterations
        ),
        other => other.to_string(),
    }
}

impl FieldSolver for FdfdSolver {
    /// A batch of one forward request ([`FdfdSolver::solve_ez_batch`]).
    fn solve_ez(
        &self,
        eps_r: &RealField2d,
        source: &ComplexField2d,
        omega: f64,
    ) -> Result<ComplexField2d, SolveFieldError> {
        self.solve_ez_batch(eps_r, &[SolveRequest::forward(source, omega)])
            .pop()
            .expect("one answer per request")
    }

    /// A batch of one adjoint request ([`FdfdSolver::solve_ez_batch`]):
    /// exact through the forward factor, since `S = D·A` is complex
    /// symmetric, so `Aᵀ = S·D⁻¹` and `Aᵀ·y = c` is `y = D·S⁻¹·c`. The
    /// factor cache keeps at least the most recent factorization, so a
    /// forward/adjoint pair costs one factorization.
    fn solve_adjoint_ez(
        &self,
        eps_r: &RealField2d,
        rhs: &ComplexField2d,
        omega: f64,
    ) -> Result<ComplexField2d, SolveFieldError> {
        self.solve_ez_batch(eps_r, &[SolveRequest::adjoint(rhs, omega)])
            .pop()
            .expect("one answer per request")
    }

    /// The one solve path: `solve_ez` and `solve_adjoint_ez` are batches of
    /// one request. Solves are grouped to amortize factorizations *and*
    /// band sweeps.
    ///
    /// The whole batch shares one permittivity map, so the (ε-fingerprint,
    /// ω) grouping key reduces to ω: requests are bucketed by exact `omega`
    /// bits, and each bucket's right-hand sides, forward and adjoint alike,
    /// are split into work items in request order. A forward lane carries
    /// `D·b` and an adjoint lane `c` scaled by `D` after the solve, so one
    /// item mixes both kinds. On the direct backend an item is a block of
    /// [`maps_linalg::RHS_BLOCK`] lanes: it fetches its factor from the
    /// factor cache (single-flight coalescing makes concurrent items of the
    /// same bucket share one factorization) and solves its whole block in
    /// place with one guarded [`crate::operator::SymmetricFactor::solve`]
    /// call, which sweeps the block through one pass over the factor. A
    /// K-excitation batch over G distinct frequencies therefore pays G
    /// factorizations (fewer on cache hits) and ~K/`RHS_BLOCK` traversals
    /// of the band data instead of K. The iterative backend has no
    /// factorization to amortize: an item is one lane and one BiCGSTAB
    /// solve, so a Krylov solve that stalls fails only its own slot.
    ///
    /// Work items are independent (distinct result slots), so they run in
    /// parallel across the vendored-rayon workers — RHS-block parallelism
    /// *within* a bucket composing with the across-ω parallelism — and the
    /// answers are scattered back into input order. The blocked sweeps
    /// replay the exact one-system op sequence per right-hand side, so a
    /// batch's fields are bit-identical to its requests solved one by one.
    /// Validation is per request: a bad grid or frequency fails only its
    /// own slot.
    fn solve_ez_batch(
        &self,
        eps_r: &RealField2d,
        requests: &[SolveRequest<'_>],
    ) -> Vec<Result<ComplexField2d, SolveFieldError>> {
        let grid = eps_r.grid();
        let n = grid.len();
        let mut results: Vec<Option<Result<ComplexField2d, SolveFieldError>>> =
            requests.iter().map(|_| None).collect();
        // Bucket valid requests by exact omega bits, first-seen order.
        let mut groups: Vec<(u64, Vec<usize>)> = Vec::new();
        for (i, req) in requests.iter().enumerate() {
            if let Err(e) = Self::check_inputs(eps_r, req.source, req.omega) {
                results[i] = Some(Err(e));
                continue;
            }
            let key = req.omega.to_bits();
            match groups.iter_mut().find(|(k, _)| *k == key) {
                Some((_, members)) => members.push(i),
                None => groups.push((key, vec![i])),
            }
        }
        let group_sizes = groups
            .iter()
            .map(|(k, members)| format!("{:.4}x{}", f64::from_bits(*k), members.len()))
            .collect::<Vec<_>>()
            .join(",");
        for (_, members) in &groups {
            maps_obs::histogram("fdfd.solve_batch.group_size").record(members.len() as f64);
        }
        let _span = maps_obs::span("fdfd.solve_batch")
            .field("backend", self.name())
            .field("cells", n)
            .field("requests", requests.len())
            .field("groups", groups.len())
            .field("group_sizes", group_sizes);
        maps_obs::counter("fdfd.solve_batch.calls").inc();
        maps_obs::counter("fdfd.solve_batch.requests").add(requests.len() as u64);
        // Split every ω-bucket into work items: RHS blocks on the direct
        // backend, single lanes on the iterative one. Items are independent
        // (distinct operators or distinct result slots), so they run in
        // parallel across the vendored-rayon workers — same-bucket items
        // share one factorization through the cache's single-flight
        // coalescing; worker spans adopt this batch's flow, so the exported
        // trace shows one stitched fan-out. Per-item answers come back as
        // (request index, result) pairs and are scattered into input order
        // below — the same determinism contract as a sequential loop.
        let width = match self.backend {
            Backend::Direct => RHS_BLOCK,
            Backend::Iterative(_) => 1,
        };
        let items: Vec<(f64, &[usize])> = groups
            .iter()
            .flat_map(|(_, members)| {
                let omega = requests[members[0]].omega;
                members.chunks(width).map(move |chunk| (omega, chunk))
            })
            .collect();
        type Answer = (usize, Result<ComplexField2d, SolveFieldError>);
        let item_answers: Vec<Vec<Answer>> = items
            .par_iter()
            .map(|&(omega, members)| {
                let is_adjoint = |i: usize| requests[i].kind == SolveKind::Adjoint;
                let adjoints = members.iter().filter(|&&i| is_adjoint(i)).count();
                let _span = maps_obs::span("fdfd.solve_group")
                    .field("omega", format!("{omega:.4}"))
                    .field("requests", members.len())
                    .field("forward", members.len() - adjoints)
                    .field("adjoint", adjoints);
                // Each solution overwrites its right-hand side in place,
                // in the vector its field will own; one pass over the
                // factor answers the whole block, reading the band data
                // once per block instead of once per right-hand side.
                let mut xs: Vec<Vec<Complex64>> = members
                    .iter()
                    .map(|&i| match requests[i].kind {
                        SolveKind::Forward => Self::rhs(requests[i].source, omega),
                        SolveKind::Adjoint => requests[i].source.as_slice().to_vec(),
                    })
                    .collect();
                let kinds: Vec<SolveKind> = members.iter().map(|&i| requests[i].kind).collect();
                if let Err(e) = self.solve_block(eps_r, omega, &mut xs, &kinds) {
                    return members.iter().map(|&i| (i, Err(e.clone()))).collect();
                }
                maps_obs::counter("fdfd.forward_solves").add((members.len() - adjoints) as u64);
                maps_obs::counter("fdfd.adjoint_solves").add(adjoints as u64);
                xs.into_iter()
                    .zip(members)
                    .map(|(x, &i)| {
                        let field = ComplexField2d::from_vec(grid, x);
                        (
                            i,
                            maps_core::ensure_finite(&field, self.name()).map(|()| field),
                        )
                    })
                    .collect()
            })
            .collect();
        for (i, answer) in item_answers.into_iter().flatten() {
            results[i] = Some(answer);
        }
        results
            .into_iter()
            .map(|r| r.expect("every batch request must be answered"))
            .collect()
    }

    fn name(&self) -> &str {
        match self.backend {
            Backend::Direct => "fdfd-direct",
            Backend::Iterative(_) => "fdfd-bicgstab",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maps_core::Grid2d;

    #[test]
    fn grid_mismatch_is_reported() {
        let solver = FdfdSolver::new();
        let eps = RealField2d::constant(Grid2d::new(40, 40, 0.05), 1.0);
        let j = ComplexField2d::zeros(Grid2d::new(30, 40, 0.05));
        let err = solver.solve_ez(&eps, &j, 4.0).unwrap_err();
        assert!(matches!(err, SolveFieldError::GridMismatch { .. }));
    }

    /// The scalar forward, the scalar adjoint and a batch work item share
    /// one input check: a bad ω is a non-retryable `InvalidInput` from each
    /// of them, never a panic in the operator assembly.
    #[test]
    fn invalid_omega_is_reported() {
        let solver = FdfdSolver::new();
        let grid = Grid2d::new(40, 40, 0.05);
        let eps = RealField2d::constant(grid, 1.0);
        let mut j = ComplexField2d::zeros(grid);
        j.set(20, 20, Complex64::ONE);
        for omega in [-1.0, -4.0, 0.0, f64::NAN] {
            let forward = solver.solve_ez(&eps, &j, omega).unwrap_err();
            let adjoint = solver.solve_adjoint_ez(&eps, &j, omega).unwrap_err();
            let batch = solver.solve_ez_batch(
                &eps,
                &[
                    SolveRequest::forward(&j, omega),
                    SolveRequest::adjoint(&j, omega),
                ],
            );
            for err in [forward, adjoint]
                .into_iter()
                .chain(batch.into_iter().map(Result::unwrap_err))
            {
                assert!(
                    matches!(err, SolveFieldError::InvalidInput { .. }),
                    "omega {omega}: {err:?}"
                );
                assert!(!err.is_retryable());
            }
        }
    }

    #[test]
    fn solution_satisfies_maxwell_system() {
        let grid = Grid2d::new(48, 40, 0.05);
        let eps = RealField2d::constant(grid, 1.0);
        let omega = maps_core::omega_for_wavelength(1.55);
        let mut j = ComplexField2d::zeros(grid);
        j.set(24, 20, Complex64::ONE);
        let solver = FdfdSolver::new();
        let ez = solver.solve_ez(&eps, &j, omega).unwrap();
        let r = solver.residual(&eps, &j, omega, &ez);
        assert!(r < 1e-10, "residual {r}");
    }

    #[test]
    fn direct_and_iterative_backends_agree() {
        let grid = Grid2d::new(36, 32, 0.05);
        let eps = RealField2d::constant(grid, 1.0);
        let omega = maps_core::omega_for_wavelength(1.55);
        let mut j = ComplexField2d::zeros(grid);
        j.set(18, 16, Complex64::ONE);
        let direct = FdfdSolver::new();
        let iterative = FdfdSolver::new().backend(Backend::Iterative(IterativeOptions {
            tolerance: 1e-10,
            max_iterations: 200_000,
        }));
        let e1 = direct.solve_ez(&eps, &j, omega).unwrap();
        let e2 = iterative.solve_ez(&eps, &j, omega).unwrap();
        assert!(e1.normalized_l2_distance(&e2) < 1e-6);
    }

    #[test]
    fn nan_input_is_caught_by_output_validation() {
        let grid = Grid2d::new(36, 32, 0.05);
        let eps = RealField2d::constant(grid, 1.0);
        let mut j = ComplexField2d::zeros(grid);
        j.set(18, 16, Complex64::new(f64::NAN, 0.0));
        let err = FdfdSolver::new()
            .solve_ez(&eps, &j, maps_core::omega_for_wavelength(1.55))
            .unwrap_err();
        assert!(
            matches!(err, SolveFieldError::NonFinite { .. }),
            "NaN must not escape silently: {err:?}"
        );
    }

    #[test]
    fn batch_validation_fails_only_the_bad_slot() {
        let grid = Grid2d::new(36, 32, 0.05);
        let eps = RealField2d::constant(grid, 1.0);
        let omega = maps_core::omega_for_wavelength(1.55);
        let mut j = ComplexField2d::zeros(grid);
        j.set(18, 16, Complex64::ONE);
        let wrong = ComplexField2d::zeros(Grid2d::new(10, 10, 0.05));
        let solver = FdfdSolver::new();
        let requests = [
            SolveRequest::forward(&j, omega),
            SolveRequest::forward(&wrong, omega),
            SolveRequest::forward(&j, -3.0),
            SolveRequest::adjoint(&j, omega),
        ];
        let out = solver.solve_ez_batch(&eps, &requests);
        assert!(out[0].is_ok());
        assert!(matches!(out[1], Err(SolveFieldError::GridMismatch { .. })));
        assert!(matches!(out[2], Err(SolveFieldError::InvalidInput { .. })));
        assert!(out[3].is_ok());
    }

    /// On the iterative backend a work item is one lane: the point source's
    /// BiCGSTAB stalls at two iterations and fails only its own slot, while
    /// the zero right-hand sides of the same ω-bucket, forward and adjoint,
    /// are answered.
    #[test]
    fn iterative_batch_fails_only_the_stalled_request() {
        let grid = Grid2d::new(40, 40, 0.05);
        let eps = RealField2d::constant(grid, 1.0);
        let omega = maps_core::omega_for_wavelength(1.55);
        let zero = ComplexField2d::zeros(grid);
        let mut point = ComplexField2d::zeros(grid);
        point.set(20, 20, Complex64::ONE);
        let solver = FdfdSolver::new().backend(Backend::Iterative(IterativeOptions {
            tolerance: 1e-8,
            max_iterations: 2,
        }));
        let out = solver.solve_ez_batch(
            &eps,
            &[
                SolveRequest::forward(&zero, omega),
                SolveRequest::forward(&point, omega),
                SolveRequest::adjoint(&zero, omega),
            ],
        );
        assert!(out[0].is_ok(), "{:?}", out[0]);
        assert!(
            matches!(out[1], Err(SolveFieldError::Numerical { .. })),
            "{:?}",
            out[1]
        );
        assert!(out[2].is_ok(), "{:?}", out[2]);
    }

    #[test]
    fn batch_is_bit_identical_to_scalar_solves() {
        let grid = Grid2d::new(36, 32, 0.05);
        let eps = RealField2d::constant(grid, 2.25);
        let w1 = maps_core::omega_for_wavelength(1.50);
        let w2 = maps_core::omega_for_wavelength(1.60);
        let w3 = maps_core::omega_for_wavelength(1.55);
        let mut j1 = ComplexField2d::zeros(grid);
        j1.set(12, 16, Complex64::ONE);
        let mut j2 = ComplexField2d::zeros(grid);
        j2.set(24, 16, Complex64::new(0.0, 1.0));
        // Nine forwards at one ω: a bucket that splits into work items of
        // RHS_BLOCK = 8 and 1, the 8 swept by the blocked kernel.
        let nine: Vec<ComplexField2d> = (0..9)
            .map(|k| {
                let mut j = ComplexField2d::zeros(grid);
                j.set(
                    10 + 2 * k,
                    12 + 4 * (k % 3),
                    Complex64::new(1.0, 0.25 * k as f64),
                );
                j
            })
            .collect();
        let solver = FdfdSolver::new();
        let mut requests = vec![
            SolveRequest::forward(&j1, w1),
            SolveRequest::forward(&j2, w2),
            SolveRequest::adjoint(&j2, w1),
            SolveRequest::forward(&j2, w1),
        ];
        requests.extend(nine.iter().map(|j| SolveRequest::forward(j, w3)));
        let batch = solver.solve_ez_batch(&eps, &requests);
        assert_eq!(batch.len(), requests.len());
        for (b, req) in batch.iter().zip(&requests) {
            let s = match req.kind {
                SolveKind::Forward => solver.solve_ez(&eps, req.source, req.omega),
                SolveKind::Adjoint => solver.solve_adjoint_ez(&eps, req.source, req.omega),
            }
            .unwrap();
            let b = b.as_ref().unwrap();
            for (a, e) in b.as_slice().iter().zip(s.as_slice()) {
                assert_eq!(a.re.to_bits(), e.re.to_bits());
                assert_eq!(a.im.to_bits(), e.im.to_bits());
            }
        }
    }

    /// Thickness 0 is no PML: a closed, lossless cavity whose operator is
    /// real symmetric and indefinite (`D = 1`). Its field is finite, and the
    /// residual guard refines the unpivoted solve to within 1e-12.
    #[test]
    fn closed_cavity_without_pml_is_refined_to_tolerance() {
        let no_pml = PmlConfig {
            thickness: 0,
            ..PmlConfig::default()
        };
        let omega = maps_core::omega_for_wavelength(1.55);
        for (n, eps_r) in [(40, 2.25), (80, 12.11)] {
            let grid = Grid2d::new(n, n, 0.05);
            let eps = RealField2d::constant(grid, eps_r);
            let op = crate::operator::SymmetricOperator::new(&eps, omega, &no_pml);
            let x = vec![Complex64::ONE; grid.len()];
            assert!(op.apply(&x).iter().all(|z| z.re.is_finite() && z.im == 0.0));
            let mut j = ComplexField2d::zeros(grid);
            j.set(n / 2 - 3, n / 2 + 1, Complex64::ONE);
            let solver = FdfdSolver::with_pml(no_pml);
            let ez = solver.solve_ez(&eps, &j, omega).unwrap();
            let r = solver.residual(&eps, &j, omega, &ez);
            assert!(r <= 1e-12, "{n}x{n}, ε {eps_r}: residual {r:e}");
        }
    }

    #[test]
    fn point_source_wavelength_matches_medium() {
        // In a uniform medium of index n, the radiated wavelength is λ/n.
        // Verify via the phase progression of Ez along a radius.
        let grid = Grid2d::new(96, 96, 0.05);
        let n_medium: f64 = 2.0;
        let eps = RealField2d::constant(grid, n_medium * n_medium);
        let lambda0 = 1.55;
        let omega = maps_core::omega_for_wavelength(lambda0);
        let mut j = ComplexField2d::zeros(grid);
        j.set(48, 48, Complex64::ONE);
        let ez = FdfdSolver::new().solve_ez(&eps, &j, omega).unwrap();
        // Count phase advance over a stretch away from source and PML.
        let mut total_dphi = 0.0;
        for ix in 58..80 {
            let p0 = ez.get(ix, 48).arg();
            let p1 = ez.get(ix + 1, 48).arg();
            let mut d = p1 - p0;
            while d > std::f64::consts::PI {
                d -= 2.0 * std::f64::consts::PI;
            }
            while d < -std::f64::consts::PI {
                d += 2.0 * std::f64::consts::PI;
            }
            total_dphi += d.abs();
        }
        let k_measured = total_dphi / (22.0 * grid.dl);
        let k_expected = omega * n_medium;
        assert!(
            (k_measured - k_expected).abs() / k_expected < 0.05,
            "k measured {k_measured} vs expected {k_expected}"
        );
    }
}
