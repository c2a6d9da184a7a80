//! Fourier-space convolution kernels for the FNO model family.
//!
//! A spectral convolution keeps the `2·mh × 2·mw` lowest-frequency
//! "corner" modes of each input channel's 2-D DFT, multiplies them by a
//! learned complex weight per (input-channel, output-channel) pair, and
//! returns the real part of the inverse DFT. Two kept-mode primitives on
//! one `H × W` plane do the transforms: *analyse* maps a real plane to its
//! kept modes, and *synthesise* maps kept modes back to the real part of
//! the (unnormalized) inverse. Both are separable sums over per-axis
//! twiddle tables built only for the kept frequencies. The forward pass is
//! analyse → weight mix → synthesise; the backward pass is analyse(g)/HW →
//! conjugate-weight mix → synthesise, with the weight gradients
//! conj(x̂)·ĝ accumulated in `f64`. This is the same linear map as a full
//! FFT followed by truncation, not an approximation of it.
//!
//! **Cost.** O(HW·2m) per plane and direction, `m` the larger mode count.
//! An FFT costs O(HW·log HW) for every mode only to discard all but
//! `4·mh·mw` of them, and for extents that are not powers of two (40 at
//! the low-fidelity grid) Bluestein's algorithm runs three transforms of
//! a padded length (128 for 40); at FNO mode counts (`2m` ≤ 12, log₂ HW ≈
//! 11 at 40×40) the direct sums are several times cheaper. All sums run in
//! `f64`; dtype-generic callers pay one cast at each boundary.

use crate::dtype::Dtype;
use crate::tensor::{unpack4, Tensor};
use std::f64::consts::TAU;

/// Twiddles `e^{2πi·f·p/n}` of one axis for its kept frequencies `f`: the
/// `m` lowest non-negative and the `m` lowest negative ones.
struct Axis {
    n: usize,
    /// Kept-frequency count, `2m`.
    k: usize,
    /// `cos` and `sin` of the twiddle angles, frequency-major (`[f][p]`).
    cos: Vec<f64>,
    sin: Vec<f64>,
    /// The same tables position-major (`[p][f]`).
    cos_t: Vec<f64>,
    sin_t: Vec<f64>,
}

impl Axis {
    fn new(n: usize, m: usize) -> Self {
        assert!(2 * m <= n, "mode count 2×{m} exceeds extent {n}");
        let k = 2 * m;
        let roots: Vec<(f64, f64)> = (0..n)
            .map(|t| (TAU * t as f64 / n as f64).sin_cos())
            .collect();
        let (mut cos, mut sin) = (Vec::with_capacity(k * n), Vec::with_capacity(k * n));
        for f in (0..m).chain(n - m..n) {
            for p in 0..n {
                // Reducing f·p mod n in integers keeps the angle exact.
                let (s, c) = roots[f * p % n];
                cos.push(c);
                sin.push(s);
            }
        }
        let transpose = |t: &[f64]| (0..k * n).map(|i| t[(i % k) * n + i / k]).collect();
        Axis {
            n,
            k,
            cos_t: transpose(&cos),
            sin_t: transpose(&sin),
            cos,
            sin,
        }
    }
}

/// Split real/imaginary planes of complex values.
type Split<'a, E = f64> = (&'a [E], &'a [E]);

/// `acc += a·b`, or `acc += conj(a)·b` when `conj`, elementwise.
fn mul_acc<E: Dtype>(acc: (&mut [f64], &mut [f64]), a: Split<E>, b: Split, conj: bool) {
    let s = if conj { -1.0 } else { 1.0 };
    let lanes = acc.0.iter_mut().zip(acc.1.iter_mut());
    for ((yr, yi), ((ar, ai), (br, bi))) in lanes.zip(a.0.iter().zip(a.1).zip(b.0.iter().zip(b.1)))
    {
        let (ar, ai) = (ar.to_f64(), s * ai.to_f64());
        *yr += ar * br - ai * bi;
        *yi += ar * bi + ai * br;
    }
}

/// The kept-mode 2-D DFT of one `H × W` plane shape, with its scratch.
///
/// The inner loops run along a contiguous row of kept frequencies or of
/// pixels, so they vectorize.
struct KeptDft {
    rows: Axis,
    cols: Axis,
    /// The `H × 2mw` half-transformed plane, split real/imaginary.
    half_re: Vec<f64>,
    half_im: Vec<f64>,
    /// One output row of [`KeptDft::synthesise`].
    line: Vec<f64>,
}

impl KeptDft {
    fn new(h: usize, w: usize, mh: usize, mw: usize) -> Self {
        let (rows, cols) = (Axis::new(h, mh), Axis::new(w, mw));
        KeptDft {
            half_re: vec![0.0; h * cols.k],
            half_im: vec![0.0; h * cols.k],
            line: vec![0.0; w],
            rows,
            cols,
        }
    }

    /// Kept modes per plane, `2mh·2mw`.
    fn modes(&self) -> usize {
        self.rows.k * self.cols.k
    }

    /// Kept modes of a real plane, times `scale`, row-major over `(i, j)`:
    /// `X[i,j] = scale·Σ_{y,x} plane[y,x]·e^{−2πi(f_i·y/H + g_j·x/W)}`.
    fn analyse<E: Dtype>(&mut self, plane: &[E], scale: f64, re: &mut [f64], im: &mut [f64]) {
        let (h, w, kw) = (self.rows.n, self.cols.n, self.cols.k);
        // Row pass: A[y,j] = Σ_x plane[y,x]·e^{−2πi·g_j·x/W}.
        for y in 0..h {
            let ar = &mut self.half_re[y * kw..(y + 1) * kw];
            let ai = &mut self.half_im[y * kw..(y + 1) * kw];
            ar.fill(0.0);
            ai.fill(0.0);
            for (x, v) in plane[y * w..(y + 1) * w].iter().enumerate() {
                let v = v.to_f64();
                let c = &self.cols.cos_t[x * kw..(x + 1) * kw];
                let s = &self.cols.sin_t[x * kw..(x + 1) * kw];
                for ((ar, ai), (c, s)) in ar.iter_mut().zip(ai.iter_mut()).zip(c.iter().zip(s)) {
                    *ar += v * c;
                    *ai -= v * s;
                }
            }
        }
        // Column pass: X[i,j] = Σ_y e^{−2πi·f_i·y/H}·A[y,j].
        for i in 0..self.rows.k {
            let xr = &mut re[i * kw..(i + 1) * kw];
            let xi = &mut im[i * kw..(i + 1) * kw];
            xr.fill(0.0);
            xi.fill(0.0);
            for y in 0..h {
                let (c, s) = (self.rows.cos[i * h + y], self.rows.sin[i * h + y]);
                let ar = &self.half_re[y * kw..(y + 1) * kw];
                let ai = &self.half_im[y * kw..(y + 1) * kw];
                for ((xr, xi), (ar, ai)) in xr.iter_mut().zip(xi.iter_mut()).zip(ar.iter().zip(ai))
                {
                    *xr += c * ar + s * ai;
                    *xi += c * ai - s * ar;
                }
            }
            for v in xr.iter_mut().chain(xi.iter_mut()) {
                *v *= scale;
            }
        }
    }

    /// Real part of the unnormalized inverse DFT of kept modes `(re, im)`:
    /// `plane[y,x] = Re Σ_{i,j} X[i,j]·e^{+2πi(f_i·y/H + g_j·x/W)}`.
    fn synthesise<E: Dtype>(&mut self, re: &[f64], im: &[f64], plane: &mut [E]) {
        let (h, w, kw) = (self.rows.n, self.cols.n, self.cols.k);
        // Column pass: B[y,j] = Σ_i X[i,j]·e^{+2πi·f_i·y/H}.
        self.half_re.fill(0.0);
        self.half_im.fill(0.0);
        for i in 0..self.rows.k {
            let xr = &re[i * kw..(i + 1) * kw];
            let xi = &im[i * kw..(i + 1) * kw];
            for y in 0..h {
                let (c, s) = (self.rows.cos[i * h + y], self.rows.sin[i * h + y]);
                let br = &mut self.half_re[y * kw..(y + 1) * kw];
                let bi = &mut self.half_im[y * kw..(y + 1) * kw];
                for ((br, bi), (xr, xi)) in br.iter_mut().zip(bi.iter_mut()).zip(xr.iter().zip(xi))
                {
                    *br += c * xr - s * xi;
                    *bi += c * xi + s * xr;
                }
            }
        }
        // Row pass: plane[y,x] = Σ_j Re(B[y,j]·e^{+2πi·g_j·x/W}).
        for y in 0..h {
            self.line.fill(0.0);
            for j in 0..kw {
                let (br, bi) = (self.half_re[y * kw + j], self.half_im[y * kw + j]);
                let c = &self.cols.cos[j * w..(j + 1) * w];
                let s = &self.cols.sin[j * w..(j + 1) * w];
                for (acc, (c, s)) in self.line.iter_mut().zip(c.iter().zip(s)) {
                    *acc += br * c - bi * s;
                }
            }
            for (o, v) in plane[y * w..(y + 1) * w].iter_mut().zip(&self.line) {
                *o = E::from_f64(*v);
            }
        }
    }

    /// [`KeptDft::analyse`] of every `H × W` plane of `data`, concatenated.
    fn analyse_all<E: Dtype>(&mut self, data: &[E], scale: f64) -> (Vec<f64>, Vec<f64>) {
        let (hw, k) = (self.rows.n * self.cols.n, self.modes());
        let planes = data.len() / hw;
        let (mut re, mut im) = (vec![0.0; planes * k], vec![0.0; planes * k]);
        for p in 0..planes {
            let modes = p * k..(p + 1) * k;
            let (xr, xi) = (&mut re[modes.clone()], &mut im[modes]);
            self.analyse(&data[p * hw..(p + 1) * hw], scale, xr, xi);
        }
        (re, im)
    }
}

/// Synthesises every plane of `out` from channel-mixed modes: output
/// plane `(n, co)` from `Σ_ci W[ci,co]·X[n,ci]`, or, when `adjoint`,
/// output plane `(n, ci)` from `Σ_co conj(W[ci,co])·X[n,co]`, where `X`
/// are the kept modes of the input planes.
fn mix_synthesise<E: Dtype>(
    dft: &mut KeptDft,
    modes: Split,
    w_re: &Tensor<E>,
    w_im: &Tensor<E>,
    adjoint: bool,
    out: &mut Tensor<E>,
) {
    let (cin, cout, _, _) = unpack4(w_re.shape(), "spectral weight");
    let (wr, wi) = (w_re.as_slice(), w_im.as_slice());
    let (k, hw) = (dft.modes(), dft.rows.n * dft.cols.n);
    let (inputs, outputs) = if adjoint { (cout, cin) } else { (cin, cout) };
    let (mut yr, mut yi) = (vec![0.0; k], vec![0.0; k]);
    for (no, plane) in out.as_mut_slice().chunks_exact_mut(hw).enumerate() {
        let (n, o) = (no / outputs, no % outputs);
        yr.fill(0.0);
        yi.fill(0.0);
        for i in 0..inputs {
            let (ci, co) = if adjoint { (o, i) } else { (i, o) };
            let ws = (ci * cout + co) * k..(ci * cout + co + 1) * k;
            let xs = (n * inputs + i) * k..(n * inputs + i + 1) * k;
            let x = (&modes.0[xs.clone()], &modes.1[xs]);
            mul_acc((&mut yr, &mut yi), (&wr[ws.clone()], &wi[ws]), x, adjoint);
        }
        dft.synthesise(&yr, &yi, plane);
    }
}

/// Forward spectral convolution.
///
/// * `x`: `[N, Cin, H, W]` real input.
/// * `w_re`, `w_im`: `[Cin, Cout, 2mh, 2mw]` complex weight halves.
///
/// Returns `[N, Cout, H, W]`.
pub fn spectral_conv_forward<E: Dtype>(
    x: &Tensor<E>,
    w_re: &Tensor<E>,
    w_im: &Tensor<E>,
    mh: usize,
    mw: usize,
) -> Tensor<E> {
    let (n, cin, h, w) = unpack4(x.shape(), "spectral input");
    let (cin2, cout, kh, kw) = unpack4(w_re.shape(), "spectral weight");
    assert_eq!(cin, cin2, "spectral channel mismatch");
    assert_eq!(w_re.shape(), w_im.shape(), "weight halves differ");
    assert_eq!((kh, kw), (2 * mh, 2 * mw), "weight mode dims mismatch");
    let mut dft = KeptDft::new(h, w, mh, mw);
    // The inverse DFT's 1/HW is folded into the analysed modes.
    let (xr, xi) = dft.analyse_all(x.as_slice(), 1.0 / (h * w) as f64);
    let mut out = Tensor::zeros(&[n, cout, h, w]);
    mix_synthesise(&mut dft, (&xr, &xi), w_re, w_im, false, &mut out);
    out
}

/// Backward pass of [`spectral_conv_forward`].
///
/// Returns `(grad_x, grad_w_re, grad_w_im)`.
pub fn spectral_conv_backward<E: Dtype>(
    grad_out: &Tensor<E>,
    x: &Tensor<E>,
    w_re: &Tensor<E>,
    w_im: &Tensor<E>,
    mh: usize,
    mw: usize,
) -> (Tensor<E>, Tensor<E>, Tensor<E>) {
    let (n, cin, h, w) = unpack4(x.shape(), "spectral input");
    let (_, cout, _, _) = unpack4(w_re.shape(), "spectral weight");
    let mut dft = KeptDft::new(h, w, mh, mw);
    let k = dft.modes();
    // ĝ = analyse(g)/HW is ∂L/∂(re, im) of the mixed modes, so
    // ∂L/∂x = synthesise(Σ conj(W)·ĝ) and ∂L/∂W = Σ_n conj(x̂)·ĝ.
    let (gr, gi) = dft.analyse_all(grad_out.as_slice(), 1.0 / (h * w) as f64);
    let mut grad_x = Tensor::zeros(x.shape());
    mix_synthesise(&mut dft, (&gr, &gi), w_re, w_im, true, &mut grad_x);
    // Recompute the input's modes (cheap relative to storing them).
    let (xr, xi) = dft.analyse_all(x.as_slice(), 1.0);
    let (mut gwr, mut gwi) = (vec![0.0; cin * cout * k], vec![0.0; cin * cout * k]);
    for ci in 0..cin {
        for co in 0..cout {
            let ws = (ci * cout + co) * k..(ci * cout + co + 1) * k;
            for in_ in 0..n {
                let xs = (in_ * cin + ci) * k..(in_ * cin + ci + 1) * k;
                let gs = (in_ * cout + co) * k..(in_ * cout + co + 1) * k;
                let (x, g) = ((&xr[xs.clone()], &xi[xs]), (&gr[gs.clone()], &gi[gs]));
                mul_acc((&mut gwr[ws.clone()], &mut gwi[ws.clone()]), x, g, true);
            }
        }
    }
    let cast =
        |v: Vec<f64>| Tensor::from_vec(w_re.shape(), v.into_iter().map(E::from_f64).collect());
    (grad_x, cast(gwr), cast(gwi))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_weight_on_all_modes_is_identity_map() {
        // Keeping every mode (2m = extent) with weight 1+0i reproduces x.
        let (h, w) = (4, 4);
        let x = Tensor::from_vec(
            &[1, 1, h, w],
            (0..h * w).map(|k| (k as f64 * 0.37).sin()).collect(),
        );
        let wr = Tensor::full(&[1, 1, h, w], 1.0);
        let wi = Tensor::zeros(&[1, 1, h, w]);
        let y = spectral_conv_forward(&x, &wr, &wi, h / 2, w / 2);
        for (a, b) in x.as_slice().iter().zip(y.as_slice()) {
            assert!((a - b).abs() < 1e-10, "{a} vs {b}");
        }
    }

    #[test]
    fn truncation_removes_high_frequencies() {
        // A pure Nyquist-frequency signal is outside the kept corner modes
        // when m is small, so the output is (nearly) zero.
        let (h, w) = (8, 8);
        let x = Tensor::from_vec(
            &[1, 1, h, w],
            (0..h * w)
                .map(|k| if (k / w + k % w) % 2 == 0 { 1.0 } else { -1.0 })
                .collect(),
        );
        let wr = Tensor::full(&[1, 1, 2, 2], 1.0);
        let wi = Tensor::zeros(&[1, 1, 2, 2]);
        let y = spectral_conv_forward(&x, &wr, &wi, 1, 1);
        assert!(y.norm_sqr() < 1e-18, "residual {}", y.norm_sqr());
    }

    #[test]
    fn output_shape_has_cout_channels() {
        let x = Tensor::<f64>::zeros(&[2, 3, 8, 8]);
        let wr = Tensor::zeros(&[3, 5, 4, 4]);
        let wi = Tensor::zeros(&[3, 5, 4, 4]);
        let y = spectral_conv_forward(&x, &wr, &wi, 2, 2);
        assert_eq!(y.shape(), &[2, 5, 8, 8]);
    }

    #[test]
    fn f32_forward_tracks_f64() {
        let (h, w) = (8, 8);
        let x = Tensor::from_vec(
            &[1, 2, h, w],
            (0..2 * h * w).map(|k| (k as f64 * 0.29).cos()).collect(),
        );
        let wr = Tensor::from_vec(
            &[2, 1, 4, 4],
            (0..32).map(|k| (k as f64 * 0.11).sin() * 0.5).collect(),
        );
        let wi = Tensor::from_vec(
            &[2, 1, 4, 4],
            (0..32).map(|k| (k as f64 * 0.07).cos() * 0.5).collect(),
        );
        let y64 = spectral_conv_forward(&x, &wr, &wi, 2, 2);
        let y32 =
            spectral_conv_forward(&x.cast::<f32>(), &wr.cast::<f32>(), &wi.cast::<f32>(), 2, 2);
        for (a, b) in y64.as_slice().iter().zip(y32.as_slice()) {
            assert!((a - b.to_f64()).abs() < 1e-5, "{a} vs {b}");
        }
    }

    #[test]
    #[should_panic(expected = "exceeds extent")]
    fn too_many_modes_panics() {
        let x = Tensor::<f64>::zeros(&[1, 1, 4, 4]);
        let wr = Tensor::zeros(&[1, 1, 6, 6]);
        let wi = Tensor::zeros(&[1, 1, 6, 6]);
        spectral_conv_forward(&x, &wr, &wi, 3, 3);
    }

    /// A complex number as `(re, im)`.
    type C = (f64, f64);

    fn cmul(a: C, b: C) -> C {
        (a.0 * b.0 - a.1 * b.1, a.0 * b.1 + a.1 * b.0)
    }

    fn conj(a: C) -> C {
        (a.0, -a.1)
    }

    /// Plain full 2-D DFT of an `h × w` plane, `Σ_{y,x} v[y,x]·e^{sign·2πi(ky·y/h + kx·x/w)}`
    /// for every `(ky, kx)`, unnormalized.
    fn dft2(v: &[C], h: usize, w: usize, sign: f64) -> Vec<C> {
        let roots = |n: usize| -> Vec<C> {
            (0..n)
                .map(|t| (sign * TAU * t as f64 / n as f64).sin_cos())
                .map(|(s, c)| (c, s))
                .collect()
        };
        let (rh, rw) = (roots(h), roots(w));
        let mut out = vec![(0.0, 0.0); h * w];
        for ky in 0..h {
            for kx in 0..w {
                let mut acc = (0.0, 0.0);
                for y in 0..h {
                    for x in 0..w {
                        let t = cmul(v[y * w + x], cmul(rh[ky * y % h], rw[kx * x % w]));
                        acc = (acc.0 + t.0, acc.1 + t.1);
                    }
                }
                out[ky * w + kx] = acc;
            }
        }
        out
    }

    /// Corner indices `r·w + c` of the kept modes, in weight order.
    fn corners(h: usize, w: usize, mh: usize, mw: usize) -> Vec<usize> {
        let rows: Vec<usize> = (0..mh).chain(h - mh..h).collect();
        let cols: Vec<usize> = (0..mw).chain(w - mw..w).collect();
        rows.iter()
            .flat_map(|r| cols.iter().map(move |c| r * w + c))
            .collect()
    }

    /// The spectral conv and its gradients from full DFTs: transform,
    /// keep the corner modes, apply the weights, inverse-transform, take
    /// the real part; the backward is the same recipe's adjoint.
    fn reference(
        x: &Tensor,
        wr: &Tensor,
        wi: &Tensor,
        g: &Tensor,
        mh: usize,
        mw: usize,
    ) -> [Vec<f64>; 4] {
        let (n, cin, h, w) = unpack4(x.shape(), "x");
        let cout = wr.shape()[1];
        let hw = h * w;
        let kept = corners(h, w, mh, mw);
        let k = kept.len();
        let weight = |ci: usize, co: usize, j: usize| {
            let idx = (ci * cout + co) * k + j;
            (wr.as_slice()[idx], wi.as_slice()[idx])
        };
        let planes = |t: &Tensor, sign: f64| -> Vec<Vec<C>> {
            t.as_slice()
                .chunks(hw)
                .map(|p| dft2(&p.iter().map(|&v| (v, 0.0)).collect::<Vec<_>>(), h, w, sign))
                .collect()
        };
        let xhat = planes(x, -1.0);
        // The gradient carrier conj(IDFT(g)), IDFT normalized by 1/HW.
        let ghat: Vec<Vec<C>> = planes(g, 1.0)
            .into_iter()
            .map(|p| {
                p.into_iter()
                    .map(|z| conj((z.0 / hw as f64, z.1 / hw as f64)))
                    .collect()
            })
            .collect();
        let (mut y, mut gx) = (vec![0.0; n * cout * hw], vec![0.0; n * cin * hw]);
        let (mut gwr, mut gwi) = (vec![0.0; wr.len()], vec![0.0; wr.len()]);
        for in_ in 0..n {
            for co in 0..cout {
                let mut yhat = vec![(0.0, 0.0); hw];
                for ci in 0..cin {
                    for (j, &p) in kept.iter().enumerate() {
                        let t = cmul(xhat[in_ * cin + ci][p], weight(ci, co, j));
                        yhat[p] = (yhat[p].0 + t.0, yhat[p].1 + t.1);
                    }
                }
                for (q, z) in dft2(&yhat, h, w, 1.0).into_iter().enumerate() {
                    y[(in_ * cout + co) * hw + q] = z.0 / hw as f64;
                }
            }
            for ci in 0..cin {
                let mut gxhat = vec![(0.0, 0.0); hw];
                for co in 0..cout {
                    for (j, &p) in kept.iter().enumerate() {
                        let gy = ghat[in_ * cout + co][p];
                        let t = cmul(conj(weight(ci, co, j)), gy);
                        gxhat[p] = (gxhat[p].0 + t.0, gxhat[p].1 + t.1);
                        let t = cmul(conj(xhat[in_ * cin + ci][p]), gy);
                        gwr[(ci * cout + co) * k + j] += t.0;
                        gwi[(ci * cout + co) * k + j] += t.1;
                    }
                }
                for (q, z) in dft2(&gxhat, h, w, 1.0).into_iter().enumerate() {
                    gx[(in_ * cin + ci) * hw + q] = z.0;
                }
            }
        }
        [y, gx, gwr, gwi]
    }

    fn wave(shape: &[usize], phase: f64) -> Tensor {
        let len = shape.iter().product();
        Tensor::from_vec(
            shape,
            (0..len)
                .map(|k| (k as f64 * 0.731 + phase).sin() + 0.3 * (k as f64 * 0.117).cos())
                .collect(),
        )
    }

    fn check_against_reference(
        n: usize,
        cin: usize,
        cout: usize,
        hw: (usize, usize),
        m: (usize, usize),
    ) {
        let ((h, w), (mh, mw)) = (hw, m);
        let x = wave(&[n, cin, h, w], 0.1);
        let wr = wave(&[cin, cout, 2 * mh, 2 * mw], 0.7);
        let wi = wave(&[cin, cout, 2 * mh, 2 * mw], 1.9);
        let g = wave(&[n, cout, h, w], 2.3);
        let y = spectral_conv_forward(&x, &wr, &wi, mh, mw);
        let (gx, gwr, gwi) = spectral_conv_backward(&g, &x, &wr, &wi, mh, mw);
        let want = reference(&x, &wr, &wi, &g, mh, mw);
        for (name, got, want) in [
            ("forward", &y, &want[0]),
            ("grad_x", &gx, &want[1]),
            ("grad_w_re", &gwr, &want[2]),
            ("grad_w_im", &gwi, &want[3]),
        ] {
            let scale = want.iter().fold(0.0f64, |m, v| m.max(v.abs()));
            let err = got
                .as_slice()
                .iter()
                .zip(want)
                .fold(0.0f64, |m, (a, b)| m.max((a - b).abs()));
            assert!(
                scale > 0.0 && err <= 1e-12 * scale,
                "{name} at {n}×{cin}→{cout}, {h}×{w}, modes {mh}×{mw}: error {err:.2e} of {scale:.2e}"
            );
        }
    }

    #[test]
    fn matches_full_dft_reference_at_fno_shape() {
        check_against_reference(1, 2, 3, (40, 40), (6, 6));
    }

    #[test]
    fn matches_full_dft_reference_on_odd_batched_shape() {
        check_against_reference(2, 3, 2, (7, 12), (2, 3));
    }

    #[test]
    fn matches_full_dft_reference_with_one_mode() {
        // The F-FNO's factorized layers keep one mode pair on one axis.
        check_against_reference(2, 2, 3, (12, 10), (4, 1));
        check_against_reference(1, 3, 2, (9, 12), (1, 5));
        check_against_reference(1, 1, 1, (7, 5), (1, 1));
    }

    #[test]
    fn matches_full_dft_reference_with_all_modes() {
        check_against_reference(2, 2, 3, (8, 6), (4, 3));
        check_against_reference(1, 2, 1, (7, 12), (3, 6));
    }
}
