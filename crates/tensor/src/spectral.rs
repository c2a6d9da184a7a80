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
//! conj(x̂)·ĝ summed over the batch. This is the same linear map as a full
//! FFT followed by truncation, not an approximation of it.
//!
//! **Cost.** O(HW·2m) per plane and direction, `m` the larger mode count.
//! An FFT costs O(HW·log HW) for every mode only to discard all but
//! `4·mh·mw` of them, and for extents that are not powers of two (40 at
//! the low-fidelity grid) Bluestein's algorithm runs three transforms of
//! a padded length (128 for 40); at FNO mode counts (`2m` ≤ 12, log₂ HW ≈
//! 11 at 40×40) the direct sums are several times cheaper.
//!
//! Two things make the sums fast. **Hermitian folding:** along a real row,
//! kept column frequencies `j` and `−j` are conjugates, so the row passes
//! sum only the `mw + 1` unique ones (7 of 12 at `mw = 6`); analyse writes
//! the partners as conjugates, and synthesise first adds each partner's
//! conjugate into its unique index. **Register blocking:** every pass keeps
//! its sums in `[f64; 8]` lane arrays for four rows at once, over rows of
//! frequencies or pixels zero-padded to whole lane chunks, with every width
//! a compile-time constant. The sums then stay in registers and share each
//! twiddle load, where runtime-width accumulators would go through memory
//! on every term. The sums use `f64::mul_add`, a hardware FMA only when the
//! target has one (see the crate's build script).

use crate::tensor::{unpack4, Tensor};
use std::array::from_fn;
use std::f64::consts::TAU;

/// Lane width of the register-blocked kernels: every accumulator is an
/// `[f64; LANES]` array, and the rows they run along (unique or kept
/// frequencies, pixels) are zero-padded to a multiple of it.
const LANES: usize = 8;

/// Rows each kernel blocks together. Their accumulators share every
/// twiddle or mode load and run independent FMA chains.
const ROWS: usize = 4;

/// The first [`LANES`] values of `s`.
#[inline(always)]
fn lanes(s: &[f64]) -> &[f64; LANES] {
    s[..LANES].try_into().expect("a full lane chunk")
}

/// Tables of `cos` and `sin` of `2π·f·p/n` for each frequency `f` of
/// `freqs` (index `i`) and position `p < n`, the pair `(i, p)` stored at
/// `at(i, p)` of `len` entries. Every other entry is zero: the padding
/// lanes, which the kernels multiply through.
fn twiddles(
    n: usize,
    freqs: &[usize],
    len: usize,
    at: impl Fn(usize, usize) -> usize,
) -> (Vec<f64>, Vec<f64>) {
    let roots: Vec<(f64, f64)> = (0..n)
        .map(|t| (TAU * t as f64 / n as f64).sin_cos())
        .collect();
    let (mut cos, mut sin) = (vec![0.0; len], vec![0.0; len]);
    for (i, &f) in freqs.iter().enumerate() {
        for p in 0..n {
            // Reducing f·p mod n in integers keeps the angle exact.
            let (s, c) = roots[f * p % n];
            (cos[at(i, p)], sin[at(i, p)]) = (c, s);
        }
    }
    (cos, sin)
}

/// The kept frequencies of an axis of extent `n`: the `m` lowest
/// non-negative ones, then the `m` lowest negative ones (as `n − f`).
fn kept(n: usize, m: usize) -> Vec<usize> {
    assert!(2 * m <= n, "mode count 2×{m} exceeds extent {n}");
    (0..m).chain(n - m..n).collect()
}

/// Split real/imaginary planes of complex values.
type Split<'a> = (&'a [f64], &'a [f64]);

/// `acc += a·b`, or `acc += conj(a)·b` when `conj`, elementwise.
fn mul_acc(acc: (&mut [f64], &mut [f64]), a: Split, b: Split, conj: bool) {
    let s = if conj { -1.0 } else { 1.0 };
    let lanes = acc.0.iter_mut().zip(acc.1.iter_mut());
    for ((yr, yi), ((ar, ai), (br, bi))) in lanes.zip(a.0.iter().zip(a.1).zip(b.0.iter().zip(b.1)))
    {
        let (ar, ai) = (*ar, s * ai);
        *yr += ar * br - ai * bi;
        *yi += ar * bi + ai * br;
    }
}

/// The kept-mode 2-D DFT of one `H × W` plane shape, with its scratch.
///
/// Kept column index `j < mw` is frequency `j` and `j ≥ mw` frequency
/// `−(2mw − j)`. For a real row, indices `j` and `2mw − j` (`0 < j < mw`)
/// hold conjugate frequencies, so only the `mw + 1` *unique* indices
/// `0..=mw` are transformed along a row; index `mw` (frequency `−mw`, the
/// Nyquist frequency when `2mw = W`) has no kept partner.
///
/// Every kernel runs [`ROWS`] rows at a time over [`LANES`]-wide chunks of
/// a padded row, with its accumulators in fixed-size arrays (registers).
struct KeptDft {
    h: usize,
    w: usize,
    /// Column modes: kept column indices are `0..2mw`.
    mw: usize,
    /// Kept row frequencies, `2mh`.
    kh: usize,
    /// Kept column frequencies, `2mw`.
    kw: usize,
    /// Unique column frequencies, padded to lanes: the analyse table's row
    /// stride and the synthesise table's row count.
    up: usize,
    /// Kept column frequencies, padded to lanes: the row stride of the
    /// half-transformed plane and of the padded modes.
    kp: usize,
    /// Pixels per row, padded to lanes: the synthesise table's row stride.
    wp: usize,
    /// Row twiddles `e^{2πi·f_i·y/H}`, frequency-major (`[i][y]`).
    row_cos: Vec<f64>,
    row_sin: Vec<f64>,
    /// Unique column twiddles `e^{2πi·g_l·x/W}`, position-major (`[x][l]`)
    /// for the analyse row pass.
    ana_cos: Vec<f64>,
    ana_sin: Vec<f64>,
    /// The same frequency-major (`[l][x]`) for the synthesise row pass.
    syn_cos: Vec<f64>,
    syn_sin: Vec<f64>,
    /// The `H × kp` half-transformed plane, split real/imaginary.
    half_re: Vec<f64>,
    half_im: Vec<f64>,
    /// Synthesise's input modes, `2mh × kp`, zero past column `2mw`.
    modes_re: Vec<f64>,
    modes_im: Vec<f64>,
}

impl KeptDft {
    fn new(h: usize, w: usize, mh: usize, mw: usize) -> Self {
        let (rows, cols) = (kept(h, mh), kept(w, mw));
        let (kh, kw) = (rows.len(), cols.len());
        let unique = &cols[..(mw + 1).min(kw)];
        let (up, kp, wp) = (
            unique.len().next_multiple_of(LANES),
            kw.next_multiple_of(LANES),
            w.next_multiple_of(LANES),
        );
        let (row_cos, row_sin) = twiddles(h, &rows, kh * h, |i, y| i * h + y);
        let (ana_cos, ana_sin) = twiddles(w, unique, w * up, |l, x| x * up + l);
        let (syn_cos, syn_sin) = twiddles(w, unique, up * wp, |l, x| l * wp + x);
        KeptDft {
            h,
            w,
            mw,
            kh,
            kw,
            up,
            kp,
            wp,
            row_cos,
            row_sin,
            ana_cos,
            ana_sin,
            syn_cos,
            syn_sin,
            half_re: vec![0.0; h * kp],
            half_im: vec![0.0; h * kp],
            modes_re: vec![0.0; kh * kp],
            modes_im: vec![0.0; kh * kp],
        }
    }

    /// Kept modes per plane, `2mh·2mw`.
    fn modes(&self) -> usize {
        self.kh * self.kw
    }

    /// Kept modes of a real plane, times `scale`, row-major over `(i, j)`:
    /// `X[i,j] = scale·Σ_{y,x} plane[y,x]·e^{−2πi(f_i·y/H + g_j·x/W)}`.
    fn analyse(&mut self, plane: &[f64], scale: f64, re: &mut [f64], im: &mut [f64]) {
        let (h, kp, m) = (self.h, self.kp, self.mw);
        let tail = h - h % ROWS;
        for y in (0..tail).step_by(ROWS) {
            self.analyse_rows::<ROWS>(plane, y);
        }
        for y in tail..h {
            self.analyse_rows::<1>(plane, y);
        }
        // The partners of the unique indices: A[y,2mw−j] = conj(A[y,j]).
        for (ar, ai) in self
            .half_re
            .chunks_exact_mut(kp)
            .zip(self.half_im.chunks_exact_mut(kp))
        {
            for j in 1..m {
                (ar[2 * m - j], ai[2 * m - j]) = (ar[j], -ai[j]);
            }
        }
        let tail = self.kh - self.kh % ROWS;
        for i in (0..tail).step_by(ROWS) {
            self.analyse_cols::<ROWS>(i, scale, re, im);
        }
        for i in tail..self.kh {
            self.analyse_cols::<1>(i, scale, re, im);
        }
    }

    /// Analyse row pass on rows `y0..y0 + R`, unique indices only:
    /// `A[y,l] = Σ_x plane[y,x]·e^{−2πi·g_l·x/W}`.
    #[inline(always)]
    fn analyse_rows<const R: usize>(&mut self, plane: &[f64], y0: usize) {
        let (w, up, kp) = (self.w, self.up, self.kp);
        let rows: [&[f64]; R] = from_fn(|r| &plane[(y0 + r) * w..][..w]);
        for c in (0..up).step_by(LANES) {
            let (mut ar, mut ai) = ([[0.0; LANES]; R], [[0.0; LANES]; R]);
            let table = self
                .ana_cos
                .chunks_exact(up)
                .zip(self.ana_sin.chunks_exact(up));
            for (x, (ct, st)) in table.enumerate() {
                let (ct, st) = (lanes(&ct[c..]), lanes(&st[c..]));
                for r in 0..R {
                    let v = rows[r][x];
                    for l in 0..LANES {
                        ar[r][l] = v.mul_add(ct[l], ar[r][l]);
                        ai[r][l] = v.mul_add(st[l], ai[r][l]);
                    }
                }
            }
            for r in 0..R {
                let o = (y0 + r) * kp + c;
                self.half_re[o..o + LANES].copy_from_slice(&ar[r]);
                for (d, s) in self.half_im[o..o + LANES].iter_mut().zip(&ai[r]) {
                    *d = -s;
                }
            }
        }
    }

    /// Analyse column pass on kept rows `i0..i0 + R`:
    /// `X[i,j] = scale·Σ_y e^{−2πi·f_i·y/H}·A[y,j]`.
    #[inline(always)]
    fn analyse_cols<const R: usize>(&self, i0: usize, scale: f64, re: &mut [f64], im: &mut [f64]) {
        let (h, kw, kp) = (self.h, self.kw, self.kp);
        let tw: [(&[f64], &[f64]); R] = from_fn(|r| {
            let o = (i0 + r) * h;
            (&self.row_cos[o..o + h], &self.row_sin[o..o + h])
        });
        for c in (0..kp).step_by(LANES) {
            let (mut xr, mut xi) = ([[0.0; LANES]; R], [[0.0; LANES]; R]);
            let half = self
                .half_re
                .chunks_exact(kp)
                .zip(self.half_im.chunks_exact(kp));
            for (y, (ar, ai)) in half.enumerate() {
                let (ar, ai) = (lanes(&ar[c..]), lanes(&ai[c..]));
                for r in 0..R {
                    let (cs, sn) = (tw[r].0[y], tw[r].1[y]);
                    for l in 0..LANES {
                        xr[r][l] = cs.mul_add(ar[l], sn.mul_add(ai[l], xr[r][l]));
                        xi[r][l] = cs.mul_add(ai[l], (-sn).mul_add(ar[l], xi[r][l]));
                    }
                }
            }
            let n = LANES.min(kw - c);
            for r in 0..R {
                let o = (i0 + r) * kw + c;
                for (l, (dr, di)) in re[o..o + n].iter_mut().zip(&mut im[o..o + n]).enumerate() {
                    (*dr, *di) = (xr[r][l] * scale, xi[r][l] * scale);
                }
            }
        }
    }

    /// Real part of the unnormalized inverse DFT of kept modes `(re, im)`:
    /// `plane[y,x] = Re Σ_{i,j} X[i,j]·e^{+2πi(f_i·y/H + g_j·x/W)}`.
    fn synthesise(&mut self, re: &[f64], im: &[f64], plane: &mut [f64]) {
        let (h, kw, kp, m) = (self.h, self.kw, self.kp, self.mw);
        for (i, (pr, pi)) in self
            .modes_re
            .chunks_exact_mut(kp)
            .zip(self.modes_im.chunks_exact_mut(kp))
            .enumerate()
        {
            pr[..kw].copy_from_slice(&re[i * kw..(i + 1) * kw]);
            pi[..kw].copy_from_slice(&im[i * kw..(i + 1) * kw]);
        }
        let tail = h - h % ROWS;
        for y in (0..tail).step_by(ROWS) {
            self.synthesise_cols::<ROWS>(y);
        }
        for y in tail..h {
            self.synthesise_cols::<1>(y);
        }
        // Re(B[y,2mw−j]·e^{−iθ}) = Re(conj(B[y,2mw−j])·e^{+iθ}): fold each
        // partner into its unique index. The partners stay behind in lanes
        // past index mw, where the synthesise table's rows are zero.
        for (br, bi) in self
            .half_re
            .chunks_exact_mut(kp)
            .zip(self.half_im.chunks_exact_mut(kp))
        {
            for j in 1..m {
                br[j] += br[2 * m - j];
                bi[j] -= bi[2 * m - j];
            }
        }
        for y in (0..tail).step_by(ROWS) {
            self.synthesise_rows::<ROWS>(y, plane);
        }
        for y in tail..h {
            self.synthesise_rows::<1>(y, plane);
        }
    }

    /// Synthesise column pass on rows `y0..y0 + R`:
    /// `B[y,j] = Σ_i X[i,j]·e^{+2πi·f_i·y/H}`.
    #[inline(always)]
    fn synthesise_cols<const R: usize>(&mut self, y0: usize) {
        let (h, kp) = (self.h, self.kp);
        for c in (0..kp).step_by(LANES) {
            let (mut br, mut bi) = ([[0.0; LANES]; R], [[0.0; LANES]; R]);
            let modes = self
                .modes_re
                .chunks_exact(kp)
                .zip(self.modes_im.chunks_exact(kp));
            let tw = self
                .row_cos
                .chunks_exact(h)
                .zip(self.row_sin.chunks_exact(h));
            for ((xr, xi), (cs, sn)) in modes.zip(tw) {
                let (xr, xi) = (lanes(&xr[c..]), lanes(&xi[c..]));
                for r in 0..R {
                    let (cs, sn) = (cs[y0 + r], sn[y0 + r]);
                    for l in 0..LANES {
                        br[r][l] = cs.mul_add(xr[l], (-sn).mul_add(xi[l], br[r][l]));
                        bi[r][l] = cs.mul_add(xi[l], sn.mul_add(xr[l], bi[r][l]));
                    }
                }
            }
            for r in 0..R {
                let o = (y0 + r) * kp + c;
                self.half_re[o..o + LANES].copy_from_slice(&br[r]);
                self.half_im[o..o + LANES].copy_from_slice(&bi[r]);
            }
        }
    }

    /// Synthesise row pass on rows `y0..y0 + R` of the folded plane:
    /// `plane[y,x] = Σ_l Re(B[y,l]·e^{+2πi·g_l·x/W})` over the padded
    /// unique indices.
    #[inline(always)]
    fn synthesise_rows<const R: usize>(&self, y0: usize, plane: &mut [f64]) {
        let (w, wp, kp) = (self.w, self.wp, self.kp);
        let b: [(&[f64], &[f64]); R] = from_fn(|r| {
            let o = (y0 + r) * kp;
            (&self.half_re[o..o + kp], &self.half_im[o..o + kp])
        });
        for c in (0..wp).step_by(LANES) {
            let mut acc = [[0.0; LANES]; R];
            let table = self
                .syn_cos
                .chunks_exact(wp)
                .zip(self.syn_sin.chunks_exact(wp));
            for (l, (ct, st)) in table.enumerate() {
                let (ct, st) = (lanes(&ct[c..]), lanes(&st[c..]));
                for r in 0..R {
                    let (br, bi) = (b[r].0[l], b[r].1[l]);
                    for x in 0..LANES {
                        acc[r][x] = br.mul_add(ct[x], (-bi).mul_add(st[x], acc[r][x]));
                    }
                }
            }
            let n = LANES.min(w - c);
            for r in 0..R {
                plane[(y0 + r) * w + c..][..n].copy_from_slice(&acc[r][..n]);
            }
        }
    }

    /// [`KeptDft::analyse`] of every `H × W` plane of `data`, concatenated.
    fn analyse_all(&mut self, data: &[f64], scale: f64) -> (Vec<f64>, Vec<f64>) {
        let (hw, k) = (self.h * self.w, self.modes());
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
fn mix_synthesise(
    dft: &mut KeptDft,
    modes: Split,
    w_re: &Tensor,
    w_im: &Tensor,
    adjoint: bool,
    out: &mut Tensor,
) {
    let (cin, cout, _, _) = unpack4(w_re.shape(), "spectral weight");
    let (wr, wi) = (w_re.as_slice(), w_im.as_slice());
    let (k, hw) = (dft.modes(), dft.h * dft.w);
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
pub fn spectral_conv_forward(
    x: &Tensor,
    w_re: &Tensor,
    w_im: &Tensor,
    mh: usize,
    mw: usize,
) -> Tensor {
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
pub fn spectral_conv_backward(
    grad_out: &Tensor,
    x: &Tensor,
    w_re: &Tensor,
    w_im: &Tensor,
    mh: usize,
    mw: usize,
) -> (Tensor, Tensor, Tensor) {
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
    let shape = w_re.shape();
    (
        grad_x,
        Tensor::from_vec(shape, gwr),
        Tensor::from_vec(shape, gwi),
    )
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

    #[test]
    fn matches_full_dft_reference_across_lane_chunks() {
        // mw + 1 = 10 unique column frequencies fill two lane chunks and
        // 2mw = 18 kept ones three; 10 kept rows end in a partial row block.
        check_against_reference(2, 2, 3, (20, 21), (5, 9));
    }

    #[test]
    fn matches_full_dft_reference_with_ragged_lanes() {
        // W = 41 leaves one pixel in the last lane chunk and H = 33 one row
        // after the last full row block.
        check_against_reference(1, 2, 2, (33, 41), (7, 8));
    }
}
