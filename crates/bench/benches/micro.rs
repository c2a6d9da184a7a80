//! Criterion micro-benchmarks of the numerical substrates, including the
//! paper's headline claim that a neural surrogate is orders of magnitude
//! faster than the numerical solver per field evaluation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use maps_core::{ComplexField2d, FieldSolver, Grid2d, RealField2d};
use maps_data::{DeviceKind, DeviceResolution};
use maps_fdfd::factor_cache::DEFAULT_CAPACITY;
use maps_fdfd::{FdfdSolver, PmlConfig, SymmetricOperator};
use maps_invdes::{ExactAdjoint, GradientSolver, Patch};
use maps_linalg::{BandedMatrix, Complex64};
use maps_nn::{Fno, FnoConfig, Model};
use maps_tensor::spectral::spectral_conv_forward;
use maps_tensor::tensor::conv2d;
use maps_tensor::{Conv2dSpec, Params, Tensor};
use maps_train::featurize::encode_input;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn bench_fdfd_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("fdfd_solve");
    group.sample_size(10);
    for &n in &[32usize, 48, 64] {
        let grid = Grid2d::new(n, n, 0.1);
        let mut j = ComplexField2d::zeros(grid);
        j.set(n / 2, n / 2, Complex64::ONE);
        let solver = FdfdSolver::with_pml(PmlConfig::auto(grid.dl));
        let omega = maps_core::omega_for_wavelength(1.55);
        // Every call's uniform ε differs from the previous call's in every
        // cell, so each call misses the factor cache and reuses no cached
        // exterior: a cold assembly + factorization + guarded solve.
        let mut calls = 0u32;
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                calls += 1;
                let eps = RealField2d::constant(grid, 4.0 + 1e-3 * f64::from(calls));
                solver.solve_ez(&eps, &j, omega).expect("solve")
            });
        });
    }
    group.finish();
}

fn bench_neural_vs_fdfd(c: &mut Criterion) {
    let mut group = c.benchmark_group("solver_per_field_eval");
    group.sample_size(10);
    let n = 40;
    let grid = Grid2d::new(n, n, 0.1);
    let eps = RealField2d::constant(grid, 4.0);
    let mut j = ComplexField2d::zeros(grid);
    j.set(n / 2, n / 2, Complex64::ONE);
    let omega = maps_core::omega_for_wavelength(1.55);
    let fdfd = FdfdSolver::with_pml(PmlConfig::auto(grid.dl));
    group.bench_function("fdfd_exact", |b| {
        b.iter(|| fdfd.solve_ez(&eps, &j, omega).expect("solve"));
    });
    // What an inverse-design iteration pays: the 40×40 bend with a fresh
    // random density every call, so each call misses the factor cache and
    // resumes from the exterior the previous design left cached.
    let problem = DeviceKind::Bending.build(DeviceResolution::low()).problem;
    let (dx, dy) = problem.design_size;
    let bend_pml = PmlConfig::auto(problem.grid().dl);
    let bend = FdfdSolver::with_pml(bend_pml);
    let mut source = ComplexField2d::zeros(problem.grid());
    source.set(8, n / 2, Complex64::ONE);
    let mut rng = StdRng::seed_from_u64(1);
    let mut fresh_solve = || {
        let density = (0..dx * dy).map(|_| rng.gen::<f64>()).collect();
        let eps = problem.eps_for(&Patch::from_vec(dx, dy, density));
        bend.solve_ez(&eps, &source, problem.omega())
            .expect("solve")
    };
    // Fill the factor-cache ring with bend factors first, so the timed
    // misses evict bend factors built on the same exterior, as in a
    // design loop, not the other grids' factors left by the groups above.
    for _ in 0..DEFAULT_CAPACITY {
        fresh_solve();
    }
    group.bench_function("fdfd_fresh_design", |b| {
        b.iter(&mut fresh_solve);
    });
    // The whole exact design step on the same fresh designs: the forward
    // source and the objective's monitor vector as one block on one
    // factorization, then the objective and the gradient.
    let exact = ExactAdjoint::new(FdfdSolver::with_pml(bend_pml));
    let (mode_source, objective) = (
        problem.source().expect("bend source"),
        problem.objective().expect("bend objective"),
    );
    group.bench_function("exact_adjoint_fresh_design", |b| {
        b.iter(|| {
            let density = (0..dx * dy).map(|_| rng.gen::<f64>()).collect();
            let eps = problem.eps_for(&Patch::from_vec(dx, dy, density));
            exact
                .objective_and_gradient(&eps, &mode_source, problem.omega(), &objective)
                .expect("design step")
        });
    });
    let mut params = Params::new();
    let mut rng = StdRng::seed_from_u64(0);
    let model = Fno::new(
        &mut params,
        &mut rng,
        FnoConfig {
            in_channels: 4,
            out_channels: 2,
            width: 12,
            modes: 6,
            depth: 3,
        },
    );
    let solver =
        maps_train::NeuralFieldSolver::new(model, params, maps_train::FieldNormalizer::identity());
    group.bench_function("neural_fno", |b| {
        b.iter(|| solver.solve_ez(&eps, &j, omega).expect("nn solve"));
    });
    group.finish();
}

fn bench_banded_lu(c: &mut Criterion) {
    let mut group = c.benchmark_group("banded_lu_factorize");
    group.sample_size(10);
    for &n in &[1024usize, 2500] {
        let bw = (n as f64).sqrt() as usize;
        let mut a = BandedMatrix::zeros(n, bw, bw);
        for i in 0..n {
            a.set(i, i, Complex64::new(4.0, 0.4));
            if i >= 1 {
                a.set(i, i - 1, Complex64::from_re(-1.0));
            }
            if i >= bw {
                a.set(i, i - bw, Complex64::from_re(-1.0));
            }
            if i + 1 < n {
                a.set(i, i + 1, Complex64::from_re(-1.0));
            }
            if i + bw < n {
                a.set(i, i + bw, Complex64::from_re(-1.0));
            }
        }
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| a.clone().factorize().expect("factorize"));
        });
    }
    group.finish();
}

/// Matvec vs. guarded substitution solve vs. assemble + factorize of the
/// bending device's symmetrized FDFD operator at the device-zoo grid sizes
/// (40×40 low-res → n=1600, bw=40; 80×80 default → n=6400, bw=80): the
/// production direct path (`SymmetricOperator::factorize`, the pivot-free
/// `L·Δ·Lᵀ`) the perfbench workloads run. The factorize/solve gap is the
/// headroom the factorization cache converts into cached re-solve speedup.
fn bench_banded_ops_at_device_sizes(c: &mut Criterion) {
    let mut group = c.benchmark_group("banded_ops_device_grids");
    group.sample_size(10);
    for (nx, res) in [
        (40usize, DeviceResolution::low()),
        (80, DeviceResolution::high()),
    ] {
        let problem = DeviceKind::Bending.build(res).problem;
        let (dx, dy) = problem.design_size;
        let eps = problem.eps_for(&Patch::constant(dx, dy, 0.5));
        let pml = PmlConfig::auto(problem.grid().dl);
        let omega = problem.omega();
        let s = SymmetricOperator::new(&eps, omega, &pml);
        let n = s.grid().len();
        assert_eq!(n, nx * nx, "device grid size");
        let x: Vec<Complex64> = (0..n)
            .map(|k| Complex64::new((k as f64 * 0.01).sin(), (k as f64 * 0.02).cos()))
            .collect();
        let factor = s.clone().factorize().expect("factorize");
        group.bench_with_input(BenchmarkId::new("matvec", nx), &nx, |b, _| {
            b.iter(|| s.apply(&x));
        });
        group.bench_with_input(BenchmarkId::new("solve", nx), &nx, |b, _| {
            b.iter(|| {
                let mut y = x.clone();
                factor.solve(std::slice::from_mut(&mut y));
                y
            });
        });
        group.bench_with_input(BenchmarkId::new("factorize", nx), &nx, |b, _| {
            b.iter(|| {
                SymmetricOperator::new(&eps, omega, &pml)
                    .factorize()
                    .expect("factorize")
            });
        });
    }
    group.finish();
}

fn bench_fno_forward(c: &mut Criterion) {
    let mut group = c.benchmark_group("fno_forward");
    group.sample_size(10);
    let mut params = Params::new();
    let mut rng = StdRng::seed_from_u64(0);
    let model = Fno::new(
        &mut params,
        &mut rng,
        FnoConfig {
            in_channels: 4,
            out_channels: 2,
            width: 12,
            modes: 6,
            depth: 3,
        },
    );
    // The input the surrogate workload feeds: the 40×40 bend at a seeded
    // random density with its mode source. An all-zero input would leave
    // every GELU input and every mode at zero, hiding both kernels timed
    // below.
    let mut device = DeviceKind::Bending.build(DeviceResolution::low());
    let fdfd = FdfdSolver::with_pml(PmlConfig::auto(device.grid().dl));
    device.problem.calibrate(&fdfd).expect("calibrate the bend");
    let problem = &device.problem;
    let (dx, dy) = problem.design_size;
    let mut rng = StdRng::seed_from_u64(1);
    let density = (0..dx * dy).map(|_| rng.gen::<f64>()).collect();
    let eps = problem.eps_for(&Patch::from_vec(dx, dy, density));
    let source = problem.source().expect("a calibrated bend has a source");
    let x = encode_input(&eps, &source, problem.omega(), model.wants_wave_prior());
    group.bench_function("taped_f64_batch1_40x40", |b| {
        b.iter(|| model.forward(&params, x.trace()).no_tape().len());
    });
    group.bench_function("infer_f64_batch1_40x40", |b| {
        b.iter(|| model.infer(&params, x.clone()).len());
    });
    // The kernels of a hidden FNO layer, at its shape: GELU (tape-free,
    // and taped through its backward), the spectral convolution and the
    // 12→12 pointwise bypass.
    let mut uniform = |shape: &[usize], scale: f64| {
        let len = shape.iter().product();
        Tensor::from_vec(
            shape,
            (0..len).map(|_| scale * (rng.gen::<f64>() - 0.5)).collect(),
        )
    };
    let hidden = uniform(&[1, 12, 40, 40], 2.0);
    let (w_re, w_im) = (
        uniform(&[12, 12, 12, 12], 1.0),
        uniform(&[12, 12, 12, 12], 1.0),
    );
    let bypass = uniform(&[12, 12, 1, 1], 0.5);
    group.bench_function("gelu_1x12x40x40", |b| {
        b.iter(|| hidden.clone().gelu().len());
    });
    group.bench_function("gelu_taped_backward_1x12x40x40", |b| {
        b.iter(|| hidden.trace().gelu().sum().backward().len());
    });
    group.bench_function("spectral_conv_1x12x40x40", |b| {
        b.iter(|| spectral_conv_forward(&hidden, &w_re, &w_im, 6, 6).len());
    });
    let pointwise = Conv2dSpec {
        padding: 0,
        stride: 1,
    };
    group.bench_function("pointwise_conv_1x12x40x40", |b| {
        b.iter(|| conv2d(&hidden, &bypass, pointwise).len());
    });
    group.finish();
}

/// Span guard overhead on the disabled fast path (recorder off, no debug
/// logging — the cost every production call site pays) versus with the
/// flight recorder capturing.
fn bench_span_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("span_overhead");
    maps_obs::recorder::disable();
    group.bench_function("disabled", |b| {
        b.iter(|| maps_obs::span("bench.micro.span"));
    });
    group.bench_function("disabled_with_field", |b| {
        b.iter(|| maps_obs::span("bench.micro.span").field("k", 7));
    });
    maps_obs::recorder::enable();
    group.bench_function("recording", |b| {
        b.iter(|| maps_obs::span("bench.micro.span").field("k", 7));
    });
    maps_obs::recorder::disable();
    group.finish();
}

criterion_group!(
    benches,
    bench_fdfd_scaling,
    bench_neural_vs_fdfd,
    bench_banded_lu,
    bench_banded_ops_at_device_sizes,
    bench_fno_forward,
    bench_span_overhead
);
criterion_main!(benches);
