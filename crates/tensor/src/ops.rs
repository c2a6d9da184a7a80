//! Differentiable tensor ops, generic over the tape.
//!
//! Every op is a method on [`Tensor<f64, T>`] that computes its value
//! eagerly and — only when `T` is an [`OwnedTape`](crate::OwnedTape) —
//! records a backward closure. On [`NoneTape`](crate::NoneTape) the
//! `record` call is a statically dispatched no-op whose builder closure is
//! never invoked, so inference performs exactly the forward arithmetic and
//! nothing else.
//!
//! Elementwise ops are macro-generated from their forward expression and
//! per-element partial derivatives; structural ops (matmul, conv,
//! pooling, spectral conv, channel plumbing) delegate to the kernels in
//! [`crate::tensor`] for both directions.
//!
//! Binary ops take the tape from the **left** operand: `taped.add(plain)`
//! compiles, `plain.add(taped)` does not (it would drop the tape). Both
//! operands' gradients are tracked either way, keyed by uid.

use crate::spectral;
use crate::tape::{Merge, Tape};
use crate::tensor::{
    avg_pool2, avg_pool2_backward, conv2d, conv2d_backward_input, conv2d_backward_weight, matmul,
    transpose2, unpack4, upsample2, upsample2_backward, Conv2dSpec, Tensor,
};

/// Generates a differentiable elementwise unary op. `$fwd` maps one
/// element; `$bwd` maps `(output gradient, input element, output
/// element)` to the input-gradient contribution.
macro_rules! unary_op {
    ($(#[$meta:meta])* $name:ident, |$x:ident| $fwd:expr, |$g:ident, $xb:ident, $yb:ident| $bwd:expr) => {
        $(#[$meta])*
        // Op names intentionally mirror the std trait methods (`neg` etc.):
        // the std traits cannot express the tape-consuming signature.
        #[allow(clippy::should_implement_trait)]
        pub fn $name(self) -> Tensor<f64, T> {
            let out_data: Vec<f64> = self.data.iter().map(|&$x| $fwd).collect();
            let (inp, mut tape) = self.split_tape();
            let out = Tensor::from_parts(inp.shape().to_vec(), out_data);
            let (in_uid, out_uid) = (inp.uid, out.uid);
            let out_val = out.clone();
            tape.record(move || {
                Box::new(move |grads| {
                    let Some(gout) = grads.get(out_uid) else { return };
                    let gd = gout.as_slice();
                    let xd = inp.as_slice();
                    let yd = out_val.as_slice();
                    grads.accumulate_with(in_uid, inp.shape(), |i| {
                        let ($g, $xb, $yb) = (gd[i], xd[i], yd[i]);
                        $bwd
                    });
                })
            });
            out.put_tape(tape)
        }
    };
}

/// Generates a differentiable elementwise unary op with one scalar
/// argument `k` (e.g. scale). `$bwd` maps `(output gradient, k)`.
macro_rules! unary_scalar_op {
    ($(#[$meta:meta])* $name:ident, |$x:ident, $k:ident| $fwd:expr, |$g:ident, $kb:ident| $bwd:expr) => {
        $(#[$meta])*
        pub fn $name(self, k: f64) -> Tensor<f64, T> {
            let out_data: Vec<f64> = self
                .data
                .iter()
                .map(|&$x| {
                    let $k = k;
                    $fwd
                })
                .collect();
            let (inp, mut tape) = self.split_tape();
            let out = Tensor::from_parts(inp.shape().to_vec(), out_data);
            let (in_uid, out_uid) = (inp.uid, out.uid);
            tape.record(move || {
                Box::new(move |grads| {
                    let Some(gout) = grads.get(out_uid) else { return };
                    let gd = gout.as_slice();
                    grads.accumulate_with(in_uid, inp.shape(), |i| {
                        let ($g, $kb) = (gd[i], k);
                        $bwd
                    });
                })
            });
            out.put_tape(tape)
        }
    };
}

/// Generates a differentiable elementwise binary op. `$bwd` maps
/// `(output gradient, lhs element, rhs element)` to the pair of
/// `(lhs, rhs)` gradient contributions.
macro_rules! binary_op {
    ($(#[$meta:meta])* $name:ident, |$a:ident, $b:ident| $fwd:expr,
     |$g:ident, $av:ident, $bv:ident| ($dl:expr, $dr:expr)) => {
        $(#[$meta])*
        // Op names intentionally mirror the std trait methods (`add`/`sub`/
        // `mul`): the std traits cannot express the `Merge` tape signature.
        #[allow(clippy::should_implement_trait)]
        pub fn $name<R>(self, rhs: Tensor<f64, R>) -> Tensor<f64, T>
        where
            T: Merge<R, Output = T>,
        {
            assert_eq!(
                self.shape,
                rhs.shape,
                concat!(stringify!($name), " shape mismatch")
            );
            let out_data: Vec<f64> = self
                .data
                .iter()
                .zip(rhs.data.iter())
                .map(|(&$a, &$b)| $fwd)
                .collect();
            let (l, lt) = self.split_tape();
            let (r, rt) = rhs.split_tape();
            let mut tape = lt.merge(rt);
            let out = Tensor::from_parts(l.shape().to_vec(), out_data);
            let (lu, ru, ou) = (l.uid, r.uid, out.uid);
            tape.record(move || {
                Box::new(move |grads| {
                    let Some(gout) = grads.get(ou) else { return };
                    let gd = gout.as_slice();
                    let ad = l.as_slice();
                    let bd = r.as_slice();
                    grads.accumulate_with(lu, l.shape(), |i| {
                        #[allow(unused_variables)]
                        let ($g, $av, $bv) = (gd[i], ad[i], bd[i]);
                        $dl
                    });
                    grads.accumulate_with(ru, r.shape(), |i| {
                        #[allow(unused_variables)]
                        let ($g, $av, $bv) = (gd[i], ad[i], bd[i]);
                        $dr
                    });
                })
            });
            out.put_tape(tape)
        }
    };
}

const GELU_C: f64 = 0.7978845608028654; // √(2/π)
const GELU_A: f64 = 0.044715;

/// `e^{−2u}` for GELU's tanh argument `u = √(2/π)·(x + 0.044715·x³)`.
#[inline(always)]
fn gelu_exp(x: f64) -> f64 {
    exp(-2.0 * GELU_C * (x + GELU_A * x * x * x))
}

/// `e^x` without branches, so LLVM vectorizes the maps that call it (it
/// cannot vectorize the libm call behind `f64::exp`).
///
/// Cody–Waite reduction `x = k·ln 2 + r`, `|r| ≤ ln 2 / 2`, with
/// `k = round(x·log₂e)`: under FMA, `x − k·LN_2` with the rounded `LN_2`
/// is exact, and `LN2_LO` carries the rest of ln 2. Then `e^r` by its
/// degree-13 Taylor polynomial (truncation below 10⁻¹⁷ on that
/// interval), and `2^k` as two factors built from exponent bits,
/// `2^⌊k/2⌋·2^⌈k/2⌉`, so results down to 2⁻¹⁰⁷⁴ are reached with one
/// rounding. Clamps and selects instead of branches: `+∞` above
/// `ln(f64::MAX)`, `0` below `ln(2⁻¹⁰⁷⁵)`, NaN passes through. Pinned
/// against `f64::exp` by `exp_matches_libm`: within 2 ulp on normal
/// results and 1·2⁻¹⁰⁷⁴ on subnormal ones (1 ulp and 1·2⁻¹⁰⁷⁴ measured),
/// exact at ±0, ±∞, NaN and past both thresholds.
#[inline(always)]
fn exp(x: f64) -> f64 {
    /// The largest `x` with a finite `e^x`.
    const OVERFLOW: f64 = 709.782712893384;
    /// The smallest `x` whose `e^x` does not round to 0.
    const UNDERFLOW: f64 = -745.1332191019411;
    const LN2_LO: f64 = 2.3190468138462996e-17;
    /// `1.5·2⁵²`: adding it rounds to an integer and leaves that integer
    /// in the low mantissa bits.
    const SHIFT: f64 = 6755399441055744.0;
    /// `1/n!` for `n` = 13 down to 0.
    const TAYLOR: [f64; 14] = [
        1.6059043836821613e-10,
        2.08767569878681e-09,
        2.505210838544172e-08,
        2.755731922398589e-07,
        2.7557319223985893e-06,
        2.48015873015873e-05,
        0.0001984126984126984,
        0.001388888888888889,
        0.008333333333333333,
        0.041666666666666664,
        0.16666666666666666,
        0.5,
        1.0,
        1.0,
    ];
    // A NaN fails the comparison and takes the lower clamp, so `k` stays
    // in −1075..=1024 and only `r` (taken from `x` itself) carries a NaN
    // or an infinity.
    let clamped = if x >= UNDERFLOW {
        x.min(OVERFLOW)
    } else {
        UNDERFLOW
    };
    let t = clamped.mul_add(std::f64::consts::LOG2_E, SHIFT);
    let k = t - SHIFT;
    let r = (-k).mul_add(std::f64::consts::LN_2, x);
    let r = (-k).mul_add(LN2_LO, r);
    let p = TAYLOR[1..].iter().fold(TAYLOR[0], |p, &c| p.mul_add(r, c));
    // `k + 2048` from `t`'s bits, in 973..=3072; the two biased exponents
    // `⌊k/2⌋ + 1023` and `⌈k/2⌉ + 1023` lie in 485..=1535.
    let kb = t.to_bits() - (SHIFT.to_bits() - 2048);
    let (lo, hi) = ((kb >> 1) - 1, kb - (kb >> 1) - 1);
    let y = p * f64::from_bits(lo << 52) * f64::from_bits(hi << 52);
    let y = if x > OVERFLOW { f64::INFINITY } else { y };
    if x < UNDERFLOW {
        0.0
    } else {
        y
    }
}

impl<T: Tape> Tensor<f64, T> {
    unary_op!(
        /// Rectified linear unit.
        relu,
        |x| x.max(0.0),
        |g, x, _y| if x > 0.0 { g } else { 0.0 }
    );

    unary_op!(
        /// GELU activation (tanh approximation),
        /// `0.5·x·(1 + tanh u)` with `u = √(2/π)·(x + 0.044715·x³)`.
        ///
        /// Evaluated in the equivalent sigmoid form
        /// `x·σ(2u) = x / (1 + e^{−2u})`: one `exp` is cheaper than one
        /// `tanh`, and the form does not cancel in `1 + tanh u` for
        /// negative `x`. The backward `σ + 2x·σ·(1 − σ)·u′` reuses the same
        /// `σ` and takes `1 − σ` as `e^{−2u}·σ`, which does not cancel
        /// where `σ → 1` either. Where `e^{−2u}` overflows that product is
        /// `∞·0 = NaN`, and `min(1.0)`, which ignores NaN, gives the exact
        /// `1 − σ = 1`. Both directions take `e^{−2u}` from this module's
        /// branch-free `exp` (within 2 ulp of `f64::exp`), so LLVM
        /// vectorizes the forward map; forward and backward stay within
        /// `1e-15·max(1, |x|)` of the tanh form.
        gelu,
        |x| x / (1.0 + gelu_exp(x)),
        |g, x, _y| {
            let e = gelu_exp(x);
            let s = 1.0 / (1.0 + e);
            let du = GELU_C * (1.0 + 3.0 * GELU_A * x * x);
            g * (s + 2.0 * x * s * (e * s).min(1.0) * du)
        }
    );

    unary_op!(
        /// Hyperbolic tangent.
        tanh,
        |x| x.tanh(),
        |g, _x, y| g * (1.0 - y * y)
    );

    unary_op!(
        /// Elementwise square `x²`.
        square,
        |x| x * x,
        |g, x, _y| g * (x + x)
    );

    unary_op!(
        /// Elementwise negation `−x`.
        neg,
        |x| -x,
        |g, _x, _y| -g
    );

    unary_scalar_op!(
        /// Scales by a constant: `k · x`.
        scale,
        |x, k| x * k,
        |g, k| g * k
    );

    unary_scalar_op!(
        /// Adds a constant to every element.
        add_scalar,
        |x, k| x + k,
        |g, _k| g
    );

    binary_op!(
        /// Elementwise sum `a + b` (same shape).
        add,
        |a, b| a + b,
        |g, _a, _b| (g, g)
    );

    binary_op!(
        /// Elementwise difference `a − b` (same shape).
        sub,
        |a, b| a - b,
        |g, _a, _b| (g, -g)
    );

    binary_op!(
        /// Elementwise (Hadamard) product `a ⊙ b` (same shape).
        mul,
        |a, b| a * b,
        |g, a, b| (g * b, g * a)
    );

    /// Sum of all elements, producing a scalar.
    pub fn sum(self) -> Tensor<f64, T> {
        let total = self.sum_value();
        let (inp, mut tape) = self.split_tape();
        let out = Tensor::scalar(total);
        let (in_uid, out_uid) = (inp.uid, out.uid);
        let shape = inp.shape().to_vec();
        tape.record(move || {
            Box::new(move |grads| {
                let Some(gout) = grads.get(out_uid) else {
                    return;
                };
                let g = gout.item();
                grads.accumulate_with(in_uid, &shape, |_| g);
            })
        });
        out.put_tape(tape)
    }

    /// Mean of all elements, producing a scalar.
    pub fn mean(self) -> Tensor<f64, T> {
        let n = self.len();
        self.sum().scale(1.0 / n as f64)
    }

    /// 2-D matrix multiply `[m, k] × [k, n]`.
    pub fn matmul<R>(self, rhs: Tensor<f64, R>) -> Tensor<f64, T>
    where
        T: Merge<R, Output = T>,
    {
        let (l, lt) = self.split_tape();
        let (r, rt) = rhs.split_tape();
        let mut tape = lt.merge(rt);
        let out = matmul(&l, &r);
        let (lu, ru, ou) = (l.uid, r.uid, out.uid);
        tape.record(move || {
            Box::new(move |grads| {
                let Some(g) = grads.get(ou) else { return };
                grads.accumulate(lu, matmul(&g, &transpose2(&r)));
                grads.accumulate(ru, matmul(&transpose2(&l), &g));
            })
        });
        out.put_tape(tape)
    }

    /// Adds a per-column bias `b[M]` to a matrix `x[N, M]`.
    pub fn add_bias_cols<R>(self, bias: Tensor<f64, R>) -> Tensor<f64, T>
    where
        T: Merge<R, Output = T>,
    {
        assert_eq!(self.shape.len(), 2, "add_bias_cols expects a matrix");
        let (n, m) = (self.shape[0], self.shape[1]);
        assert_eq!(bias.shape(), &[m], "bias length mismatch");
        let mut out_data = self.data.as_ref().clone();
        for r in 0..n {
            for c in 0..m {
                out_data[r * m + c] += bias.as_slice()[c];
            }
        }
        let (x, xt) = self.split_tape();
        let (b, bt) = bias.split_tape();
        let mut tape = xt.merge(bt);
        let out = Tensor::from_parts(x.shape().to_vec(), out_data);
        let (xu, bu, ou) = (x.uid, b.uid, out.uid);
        tape.record(move || {
            Box::new(move |grads| {
                let Some(g) = grads.get(ou) else { return };
                let gd = g.as_slice();
                grads.accumulate(xu, g.clone());
                grads.accumulate_with(bu, &[m], |c| (0..n).map(|r| gd[r * m + c]).sum());
            })
        });
        out.put_tape(tape)
    }

    /// Adds a per-channel bias `b[C]` to an NCHW tensor.
    pub fn add_bias_channel<R>(self, bias: Tensor<f64, R>) -> Tensor<f64, T>
    where
        T: Merge<R, Output = T>,
    {
        let (n, c, h, w) = unpack4(&self.shape, "add_bias_channel input");
        assert_eq!(bias.shape(), &[c], "bias length mismatch");
        let hw = h * w;
        let mut out_data = self.data.as_ref().clone();
        for in_ in 0..n {
            for ch in 0..c {
                let off = (in_ * c + ch) * hw;
                let bv = bias.as_slice()[ch];
                for v in &mut out_data[off..off + hw] {
                    *v += bv;
                }
            }
        }
        let (x, xt) = self.split_tape();
        let (b, bt) = bias.split_tape();
        let mut tape = xt.merge(bt);
        let out = Tensor::from_parts(x.shape().to_vec(), out_data);
        let (xu, bu, ou) = (x.uid, b.uid, out.uid);
        tape.record(move || {
            Box::new(move |grads| {
                let Some(g) = grads.get(ou) else { return };
                let gd = g.as_slice();
                grads.accumulate(xu, g.clone());
                grads.accumulate_with(bu, &[c], |ch| {
                    let mut acc = 0.0;
                    for in_ in 0..n {
                        let off = (in_ * c + ch) * hw;
                        acc += gd[off..off + hw].iter().sum::<f64>();
                    }
                    acc
                });
            })
        });
        out.put_tape(tape)
    }

    /// 2-D convolution of `x[N,Cin,H,W]` with `w[Cout,Cin,Kh,Kw]`.
    pub fn conv2d<R>(self, weight: Tensor<f64, R>, spec: Conv2dSpec) -> Tensor<f64, T>
    where
        T: Merge<R, Output = T>,
    {
        let (x, xt) = self.split_tape();
        let (w, wt) = weight.split_tape();
        let mut tape = xt.merge(wt);
        let out = conv2d(&x, &w, spec);
        let (xu, wu, ou) = (x.uid, w.uid, out.uid);
        tape.record(move || {
            Box::new(move |grads| {
                let Some(g) = grads.get(ou) else { return };
                grads.accumulate(xu, conv2d_backward_input(&g, &w, x.shape(), spec));
                grads.accumulate(wu, conv2d_backward_weight(&g, &x, w.shape(), spec));
            })
        });
        out.put_tape(tape)
    }

    /// 2×2 average pooling.
    pub fn avg_pool2(self) -> Tensor<f64, T> {
        let (x, mut tape) = self.split_tape();
        let out = avg_pool2(&x);
        let (xu, ou) = (x.uid, out.uid);
        let shape = x.shape().to_vec();
        tape.record(move || {
            Box::new(move |grads| {
                let Some(g) = grads.get(ou) else { return };
                grads.accumulate(xu, avg_pool2_backward(&g, &shape));
            })
        });
        out.put_tape(tape)
    }

    /// Nearest-neighbour 2× upsampling.
    pub fn upsample2(self) -> Tensor<f64, T> {
        let (x, mut tape) = self.split_tape();
        let out = upsample2(&x);
        let (xu, ou) = (x.uid, out.uid);
        let shape = x.shape().to_vec();
        tape.record(move || {
            Box::new(move |grads| {
                let Some(g) = grads.get(ou) else { return };
                grads.accumulate(xu, upsample2_backward(&g, &shape));
            })
        });
        out.put_tape(tape)
    }

    /// Concatenates two NCHW tensors along the channel dimension.
    ///
    /// # Panics
    ///
    /// Panics if batch or spatial dimensions disagree.
    pub fn concat_channels<R>(self, rhs: Tensor<f64, R>) -> Tensor<f64, T>
    where
        T: Merge<R, Output = T>,
    {
        let (n, c1, h, w) = unpack4(&self.shape, "concat lhs");
        let (n2, c2, h2, w2) = unpack4(rhs.shape(), "concat rhs");
        assert_eq!((n, h, w), (n2, h2, w2), "concat spatial mismatch");
        let hw = h * w;
        let total_c = c1 + c2;
        let mut out = Tensor::zeros(&[n, total_c, h, w]);
        {
            let od = out.as_mut_slice();
            for in_ in 0..n {
                for ch in 0..c1 {
                    let so = (in_ * c1 + ch) * hw;
                    let to = (in_ * total_c + ch) * hw;
                    od[to..to + hw].copy_from_slice(&self.data[so..so + hw]);
                }
                for ch in 0..c2 {
                    let so = (in_ * c2 + ch) * hw;
                    let to = (in_ * total_c + c1 + ch) * hw;
                    od[to..to + hw].copy_from_slice(&rhs.data[so..so + hw]);
                }
            }
        }
        let (l, lt) = self.split_tape();
        let (r, rt) = rhs.split_tape();
        let mut tape = lt.merge(rt);
        let (lu, ru, ou) = (l.uid, r.uid, out.uid);
        tape.record(move || {
            Box::new(move |grads| {
                let Some(g) = grads.get(ou) else { return };
                let gd = g.as_slice();
                let mut gl = Tensor::zeros(l.shape());
                let mut gr = Tensor::zeros(r.shape());
                {
                    let gld = gl.as_mut_slice();
                    let grd = gr.as_mut_slice();
                    for in_ in 0..n {
                        for ch in 0..c1 {
                            let so = (in_ * total_c + ch) * hw;
                            let to = (in_ * c1 + ch) * hw;
                            gld[to..to + hw].copy_from_slice(&gd[so..so + hw]);
                        }
                        for ch in 0..c2 {
                            let so = (in_ * total_c + c1 + ch) * hw;
                            let to = (in_ * c2 + ch) * hw;
                            grd[to..to + hw].copy_from_slice(&gd[so..so + hw]);
                        }
                    }
                }
                grads.accumulate(lu, gl);
                grads.accumulate(ru, gr);
            })
        });
        out.put_tape(tape)
    }

    /// Slices channels `[from, to)` of an NCHW tensor.
    pub fn slice_channels(self, from: usize, to: usize) -> Tensor<f64, T> {
        let (n, c, h, w) = unpack4(&self.shape, "slice_channels input");
        assert!(from < to && to <= c, "channel slice out of range");
        let hw = h * w;
        let nc = to - from;
        let mut out = Tensor::zeros(&[n, nc, h, w]);
        {
            let od = out.as_mut_slice();
            for in_ in 0..n {
                for ch in 0..nc {
                    let so = (in_ * c + from + ch) * hw;
                    let to_off = (in_ * nc + ch) * hw;
                    od[to_off..to_off + hw].copy_from_slice(&self.data[so..so + hw]);
                }
            }
        }
        let (x, mut tape) = self.split_tape();
        let (xu, ou) = (x.uid, out.uid);
        let in_shape = x.shape().to_vec();
        tape.record(move || {
            Box::new(move |grads| {
                let Some(g) = grads.get(ou) else { return };
                let gd = g.as_slice();
                let mut gx = Tensor::zeros(&in_shape);
                {
                    let gxd = gx.as_mut_slice();
                    for in_ in 0..n {
                        for ch in 0..nc {
                            let so = (in_ * nc + ch) * hw;
                            let to_off = (in_ * c + from + ch) * hw;
                            gxd[to_off..to_off + hw].copy_from_slice(&gd[so..so + hw]);
                        }
                    }
                }
                grads.accumulate(xu, gx);
            })
        });
        out.put_tape(tape)
    }

    /// Fourier-space ("spectral") convolution of the FNO family: keeps
    /// the `2·mh × 2·mw` lowest-frequency corner modes and multiplies
    /// them by a complex weight stored as two real tensors
    /// `[Cin, Cout, 2mh, 2mw]`.
    pub fn spectral_conv(self, w_re: Tensor, w_im: Tensor, mh: usize, mw: usize) -> Tensor<f64, T> {
        let (x, mut tape) = self.split_tape();
        let out = spectral::spectral_conv_forward(&x, &w_re, &w_im, mh, mw);
        let (xu, ru, iu, ou) = (x.uid, w_re.uid, w_im.uid, out.uid);
        tape.record(move || {
            Box::new(move |grads| {
                let Some(g) = grads.get(ou) else { return };
                let (gx, gwr, gwi) = spectral::spectral_conv_backward(&g, &x, &w_re, &w_im, mh, mw);
                grads.accumulate(xu, gx);
                grads.accumulate(ru, gwr);
                grads.accumulate(iu, gwi);
            })
        });
        out.put_tape(tape)
    }

    /// Global average pooling: `[N, C, H, W] → [N, C]`.
    pub fn global_avg_pool(self) -> Tensor<f64, T> {
        let (n, c, h, w) = unpack4(&self.shape, "global_avg_pool input");
        let hw = h * w;
        let inv = 1.0 / hw as f64;
        let mut out = Tensor::zeros(&[n, c]);
        {
            let od = out.as_mut_slice();
            for nc in 0..n * c {
                od[nc] = self.data[nc * hw..(nc + 1) * hw].iter().sum::<f64>() * inv;
            }
        }
        let (x, mut tape) = self.split_tape();
        let (xu, ou) = (x.uid, out.uid);
        tape.record(move || {
            Box::new(move |grads| {
                let Some(g) = grads.get(ou) else { return };
                let gd = g.as_slice();
                grads.accumulate_with(xu, &[n, c, h, w], |i| gd[i / hw] * inv);
            })
        });
        out.put_tape(tape)
    }

    /// Mean-squared error against a same-shape tensor (scalar output).
    pub fn mse<R>(self, rhs: Tensor<f64, R>) -> Tensor<f64, T>
    where
        T: Merge<R, Output = T>,
    {
        self.sub(rhs).square().mean()
    }

    /// Normalized MSE: `‖a − b‖² / ‖b‖²` where `b` is treated as the
    /// ground-truth (its gradient still flows, but the normalizer uses
    /// its current value as a constant).
    pub fn nmse<R>(self, rhs: Tensor<f64, R>) -> Tensor<f64, T>
    where
        T: Merge<R, Output = T>,
    {
        let denom = rhs.norm_sqr().max(1e-30);
        self.sub(rhs).square().sum().scale(1.0 / denom)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Generic finite-difference gradient check for a scalar-valued graph.
    pub(crate) fn grad_check(
        build: impl Fn(Tensor<f64, crate::OwnedTape>) -> Tensor<f64, crate::OwnedTape>,
        input: Tensor<f64>,
        probes: &[usize],
        tol: f64,
    ) {
        let loss = build(input.trace());
        let grads = loss.backward();
        let gx = grads
            .wrt(&input)
            .expect("input must receive gradient")
            .clone();
        let h = 1e-6;
        for &probe in probes {
            let mut xp = input.clone();
            xp.as_mut_slice()[probe] += h;
            let fp = build(xp.trace()).item();
            let mut xm = input.clone();
            xm.as_mut_slice()[probe] -= h;
            let fm = build(xm.trace()).item();
            let fd = (fp - fm) / (2.0 * h);
            let ad = gx.as_slice()[probe];
            assert!(
                (fd - ad).abs() <= tol * (1.0 + fd.abs().max(ad.abs())),
                "probe {probe}: fd {fd:.8e} vs ad {ad:.8e}"
            );
        }
    }

    pub(crate) fn ramp(shape: &[usize]) -> Tensor<f64> {
        let n: usize = shape.iter().product();
        Tensor::from_vec(
            shape,
            (0..n)
                .map(|k| ((k * 31 % 17) as f64 - 8.0) * 0.13)
                .collect(),
        )
    }

    #[test]
    fn grad_elementwise_chain() {
        grad_check(
            |x| {
                let z = x.scale(1.7).add_scalar(0.3);
                z.with_empty_tape().mul(z).sum()
            },
            ramp(&[6]),
            &[0, 2, 5],
            1e-6,
        );
    }

    #[test]
    fn grad_activations() {
        for act in ["relu", "gelu", "tanh"] {
            grad_check(
                move |x| {
                    match act {
                        "relu" => x.relu(),
                        "gelu" => x.gelu(),
                        _ => x.tanh(),
                    }
                    .sum()
                },
                // offset avoids probing relu exactly at its kink
                ramp(&[8]).map(|x| x + 0.031),
                &[1, 3, 6],
                1e-5,
            );
        }
    }

    /// The vectorizable `exp` against `f64::exp` on a dense sweep of
    /// [−745.2, 709.9] and walks of 300 ulps across the overflow, underflow
    /// and subnormal boundaries: within 2 ulp on normal results, 1·2⁻¹⁰⁷⁴
    /// on subnormal ones, and bit-exact at ±0, ±∞, NaN and wherever libm
    /// overflows or underflows to 0.
    #[test]
    fn exp_matches_libm() {
        let walk = |x: f64| {
            let b = x.to_bits();
            (b - 300..=b + 300).map(f64::from_bits)
        };
        let xs = (0..=2_000_000)
            .map(|i| -745.2 + 1455.1 * f64::from(i) / 2_000_000.0)
            .chain(walk(709.782712893384))
            .chain(walk(-745.1332191019411))
            .chain(walk(-708.3964185322641))
            .chain([0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e300, -1e300]);
        let mut subnormal = 0;
        for x in xs {
            let (got, want) = (exp(x), x.exp());
            if want == 0.0 || want == 1.0 || want.is_infinite() {
                assert_eq!(got.to_bits(), want.to_bits(), "exp({x:e})");
                continue;
            }
            // Positive finite doubles order like their bit patterns, so
            // the bit distance counts ulps (units of 2⁻¹⁰⁷⁴ below
            // `MIN_POSITIVE`).
            let ulps = got.to_bits().abs_diff(want.to_bits());
            let bound = if want >= f64::MIN_POSITIVE {
                2
            } else {
                subnormal += 1;
                1
            };
            assert!(
                ulps <= bound,
                "exp({x:e}) = {got:e}, libm {want:e}: {ulps} ulp"
            );
        }
        for (x, want) in [(f64::INFINITY, f64::INFINITY), (f64::NEG_INFINITY, 0.0)] {
            assert_eq!(exp(x).to_bits(), want.to_bits(), "exp({x})");
        }
        assert!(
            exp(f64::NAN).is_nan() && exp(-f64::NAN).is_nan(),
            "NaN passes through"
        );
        assert!(subnormal > 0, "the sweep reaches subnormal results");
    }

    /// GELU in its defining tanh form, and its derivative: the reference
    /// of [`gelu_matches_the_tanh_form`].
    fn gelu_tanh_form(x: f64) -> (f64, f64) {
        let t = (GELU_C * (x + GELU_A * x * x * x)).tanh();
        let du = GELU_C * (1.0 + 3.0 * GELU_A * x * x);
        (
            0.5 * x * (1.0 + t),
            0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du,
        )
    }

    /// GELU and its gradient `g·f′(x)` match the tanh form to
    /// `1e-15·max(1, |x|)` (the gradient's bound times `|g|`) over a dense
    /// sweep of [−40, 40] and the IEEE edge cases; NaN comes out exactly
    /// where the tanh form gives NaN, and signed zeros keep their sign.
    #[test]
    fn gelu_matches_the_tanh_form() {
        let sub = f64::MIN_POSITIVE / 3.0;
        let edges = [
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            sub,
            -sub,
            5e-324,
            -5e-324,
            1e300,
            -1e300,
        ];
        let xs: Vec<f64> = (0..=160_000)
            .map(|i| -40.0 + 5e-4 * f64::from(i))
            .chain(edges)
            .collect();
        let n = xs.len();
        let g: Vec<f64> = (0..n).map(|i| 1.5 - (i as f64 * 0.37).sin()).collect();
        let x = Tensor::from_vec(&[n], xs.clone());
        let y = x.clone().gelu();
        let loss = x
            .trace()
            .gelu()
            .mul(Tensor::from_vec(&[n], g.clone()))
            .sum();
        let dx = loss.backward().wrt(&x).expect("gelu gradient").clone();
        for (i, &xi) in xs.iter().enumerate() {
            let (f, df) = gelu_tanh_form(xi);
            let tol = 1e-15 * xi.abs().max(1.0);
            for (what, got, want, tol) in [
                ("forward", y.as_slice()[i], f, tol),
                ("backward", dx.as_slice()[i], g[i] * df, tol * g[i].abs()),
            ] {
                let ok = if want.is_nan() {
                    got.is_nan()
                } else if want.is_infinite() {
                    got == want
                } else {
                    (got - want).abs() <= tol
                };
                assert!(ok, "{what} at x = {xi:e}: {got:e} vs tanh form {want:e}");
            }
        }
        let zeros = Tensor::from_vec(&[2], vec![0.0, -0.0]).gelu();
        let bits: Vec<u64> = zeros.as_slice().iter().map(|v| v.to_bits()).collect();
        assert_eq!(
            bits,
            [0.0f64.to_bits(), (-0.0f64).to_bits()],
            "GELU(±0) is ±0"
        );
    }

    #[test]
    fn grad_matmul() {
        let w = Tensor::from_vec(&[3, 2], vec![0.3, -0.4, 0.5, 0.1, -0.2, 0.7]);
        grad_check(
            move |x| x.matmul(w.clone()).square().sum(),
            ramp(&[2, 3]),
            &[0, 3, 5],
            1e-5,
        );
    }

    #[test]
    fn grad_conv2d_graph() {
        let w = ramp(&[2, 1, 3, 3]);
        grad_check(
            move |x| x.conv2d(w.clone(), Conv2dSpec::default()).square().sum(),
            ramp(&[1, 1, 5, 5]),
            &[0, 7, 24],
            1e-5,
        );
    }

    #[test]
    fn grad_pool_upsample_concat_slice() {
        grad_check(
            |x| {
                let u = x.with_empty_tape().avg_pool2().upsample2();
                x.concat_channels(u).slice_channels(1, 2).square().sum()
            },
            ramp(&[1, 1, 4, 4]),
            &[0, 5, 15],
            1e-5,
        );
    }

    #[test]
    fn grad_global_avg_pool() {
        grad_check(
            |x| x.global_avg_pool().square().sum(),
            ramp(&[2, 2, 2, 2]),
            &[0, 7, 15],
            1e-6,
        );
    }

    #[test]
    fn grad_bias_ops() {
        let b = ramp(&[3]);
        grad_check(
            move |x| x.add_bias_channel(b.clone()).square().sum(),
            ramp(&[2, 3, 2, 2]),
            &[0, 10, 23],
            1e-5,
        );
    }

    #[test]
    fn shared_parent_accumulates() {
        // loss = x·x summed; the same uid feeds both sides of `mul`.
        let x = Tensor::from_vec(&[1], vec![3.0]);
        let traced = x.trace();
        let loss = traced.with_empty_tape().mul(traced).sum();
        let grads = loss.backward();
        assert_eq!(grads.wrt(&x).unwrap().item(), 6.0);
    }

    #[test]
    fn mse_of_equal_tensors_is_zero() {
        let a = ramp(&[5]);
        let b = ramp(&[5]);
        assert_eq!(a.trace().mse(b).item(), 0.0);
    }

    #[test]
    fn nmse_is_scale_invariant() {
        let t1 = ramp(&[6]);
        let t2 = t1.map(|x| x * 10.0);
        // NMSE of zero prediction is always 1 regardless of target scale.
        let l1 = Tensor::zeros(&[6]).trace().nmse(t1).item();
        let l2 = Tensor::zeros(&[6]).trace().nmse(t2).item();
        assert!((l1 - 1.0).abs() < 1e-12);
        assert!((l2 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn grad_spectral_conv() {
        let wr = ramp(&[1, 1, 2, 2]);
        let wi = ramp(&[1, 1, 2, 2]).map(|x| x * 0.5 + 0.02);
        grad_check(
            move |x| x.spectral_conv(wr.clone(), wi.clone(), 1, 1).square().sum(),
            ramp(&[1, 1, 4, 4]),
            &[0, 6, 13],
            1e-5,
        );
    }

    #[test]
    fn grad_spectral_conv_weights() {
        // Check weight gradients through a param store.
        let x = ramp(&[2, 2, 4, 4]);
        let mut params = crate::Params::new();
        let wr = params.alloc(ramp(&[2, 3, 2, 2]));
        let wi = params.alloc(ramp(&[2, 3, 2, 2]).map(|v| v * 0.3 - 0.01));
        let run = |params: &crate::Params| -> (f64, Vec<f64>, Vec<f64>) {
            let wrv = params.get(wr).clone();
            let wiv = params.get(wi).clone();
            let loss = x.trace().spectral_conv(wrv, wiv, 1, 1).square().sum();
            let (val, grads) = (loss.no_tape().item(), loss.backward());
            let gr = grads.wrt(params.get(wr)).unwrap().as_slice().to_vec();
            let gi = grads.wrt(params.get(wi)).unwrap().as_slice().to_vec();
            (val, gr, gi)
        };
        let (_, gr, gi) = run(&params);
        let h = 1e-6;
        for probe in [0usize, 5, 11] {
            let mut pp = params.clone();
            pp.get_mut(wr).as_mut_slice()[probe] += h;
            let (fp, _, _) = run(&pp);
            let mut pm = params.clone();
            pm.get_mut(wr).as_mut_slice()[probe] -= h;
            let (fm, _, _) = run(&pm);
            let fd = (fp - fm) / (2.0 * h);
            assert!(
                (fd - gr[probe]).abs() < 1e-4 * (1.0 + fd.abs()),
                "w_re probe {probe}: {fd} vs {}",
                gr[probe]
            );
            let mut pp = params.clone();
            pp.get_mut(wi).as_mut_slice()[probe] += h;
            let (fp, _, _) = run(&pp);
            let mut pm = params.clone();
            pm.get_mut(wi).as_mut_slice()[probe] -= h;
            let (fm, _, _) = run(&pm);
            let fd = (fp - fm) / (2.0 * h);
            assert!(
                (fd - gi[probe]).abs() < 1e-4 * (1.0 + fd.abs()),
                "w_im probe {probe}: {fd} vs {}",
                gi[probe]
            );
        }
    }
}
