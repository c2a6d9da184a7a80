//! Criterion micro-benchmarks of the numerical substrates, including the
//! paper's headline claim that a neural surrogate is orders of magnitude
//! faster than the numerical solver per field evaluation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use maps_core::{ComplexField2d, FieldSolver, Grid2d, RealField2d};
use maps_data::{DeviceKind, DeviceResolution};
use maps_fdfd::{FdfdSolver, PmlConfig};
use maps_invdes::Patch;
use maps_linalg::{BandedMatrix, Complex64, Sweep};
use maps_nn::{Fno, FnoConfig, Model};
use maps_tensor::{Params, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_fdfd_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("fdfd_solve");
    group.sample_size(10);
    for &n in &[32usize, 48, 64] {
        let grid = Grid2d::new(n, n, 0.1);
        let eps = RealField2d::constant(grid, 4.0);
        let mut j = ComplexField2d::zeros(grid);
        j.set(n / 2, n / 2, Complex64::ONE);
        let solver = FdfdSolver::with_pml(PmlConfig::auto(grid.dl));
        let omega = maps_core::omega_for_wavelength(1.55);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| solver.solve_ez(&eps, &j, omega).expect("solve"));
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

/// Matvec vs. substitution solve vs. factorize on the bending device's
/// FDFD operator band at the device-zoo grid sizes (40×40 low-res →
/// n=1600, bw=40; 80×80 default → n=6400, bw=80), the band the perfbench
/// workloads factorize. Its indefinite, PML-lossy diagonal makes partial
/// pivoting swap rows, so `factorize` runs its flush-on-swap path. The
/// factorize/solve gap is the headroom the factorization cache converts
/// into cached re-solve speedup.
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
        let solver = FdfdSolver::with_pml(PmlConfig::auto(problem.grid().dl));
        let a = solver.operator(&eps, problem.omega()).to_banded();
        let n = a.dim();
        assert_eq!(n, nx * nx, "device grid size");
        let x: Vec<Complex64> = (0..n)
            .map(|k| Complex64::new((k as f64 * 0.01).sin(), (k as f64 * 0.02).cos()))
            .collect();
        let lu = a.clone().factorize().expect("factorize");
        group.bench_with_input(BenchmarkId::new("matvec", nx), &nx, |b, _| {
            b.iter(|| a.matvec(&x));
        });
        group.bench_with_input(BenchmarkId::new("solve", nx), &nx, |b, _| {
            b.iter(|| {
                let mut y = x.clone();
                lu.solve(Sweep::Forward, std::slice::from_mut(&mut y));
                y
            });
        });
        group.bench_with_input(BenchmarkId::new("factorize", nx), &nx, |b, _| {
            b.iter(|| a.clone().factorize().expect("factorize"));
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
    let x = Tensor::zeros(&[1, 4, 40, 40]);
    group.bench_function("taped_f64_batch1_40x40", |b| {
        b.iter(|| model.forward(&params, x.trace()).no_tape().len());
    });
    group.bench_function("infer_f64_batch1_40x40", |b| {
        b.iter(|| model.infer(&params, x.clone()).len());
    });
    let params32 = params.cast::<f32>();
    let x32 = x.cast::<f32>();
    group.bench_function("infer_f32_batch1_40x40", |b| {
        b.iter(|| model.infer_f32(&params32, x32.clone()).len());
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
