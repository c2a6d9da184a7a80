//! Dense n-dimensional `f64` tensors, generic over their tape.
//!
//! The layout is row-major ("C order"); convolutional tensors use the
//! `[N, C, H, W]` convention. [`Tensor<f64, T>`] carries its autodiff tape
//! in the type: the default `T = NoneTape` records nothing and costs
//! nothing, while `T = OwnedTape` accumulates backward closures that
//! [`Tensor::backward`] replays in reverse. Values share storage through
//! an `Arc`, so cloning a tensor (or capturing it in a backward closure)
//! is a reference-count bump, not a copy.

use crate::tape::{NoneTape, OwnedTape};
use std::fmt;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

static NEXT_UID: AtomicU64 = AtomicU64::new(1);

/// Allocates a process-unique tensor id. Gradients are keyed by these
/// ids, so two tensors with the same uid are "the same variable" to the
/// autodiff engine (clones and re-tapings keep the uid; fresh values get
/// fresh ids).
pub(crate) fn new_uid() -> u64 {
    NEXT_UID.fetch_add(1, Ordering::Relaxed)
}

/// A dense row-major `f64` tensor carrying tape `T`.
///
/// `Tensor` (all defaults) is a plain value with no tape — exactly what
/// data loading and inference use. `tensor.trace()` starts gradient
/// recording; see [`crate::tape`] for the typestate rules.
///
/// The element parameter `E` is a declaration only: it has no bound, and
/// every method, op and trait impl is for `E = f64`. It stays because code
/// outside the workspace spells the full type (the `perfbench` harness
/// names `Tensor<f64>`); it goes when that code stops naming it.
pub struct Tensor<E = f64, T = NoneTape> {
    pub(crate) shape: Vec<usize>,
    pub(crate) data: Arc<Vec<E>>,
    pub(crate) uid: u64,
    pub(crate) tape: T,
}

impl<T: Clone> Clone for Tensor<f64, T> {
    /// Clones share storage *and identity*: the clone has the same uid,
    /// so gradients flow to the original through any op the clone enters.
    fn clone(&self) -> Self {
        Tensor {
            shape: self.shape.clone(),
            data: Arc::clone(&self.data),
            uid: self.uid,
            tape: self.tape.clone(),
        }
    }
}

impl<T> fmt::Debug for Tensor<f64, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Tensor<f64>{:?} ({} elements)",
            self.shape,
            self.data.len()
        )
    }
}

impl<T, U> PartialEq<Tensor<f64, U>> for Tensor<f64, T> {
    fn eq(&self, other: &Tensor<f64, U>) -> bool {
        self.shape == other.shape && self.data == other.data
    }
}

impl Tensor {
    /// Creates a tensor of zeros.
    pub fn zeros(shape: &[usize]) -> Self {
        let len = shape.iter().product();
        Tensor::from_parts(shape.to_vec(), vec![0.0; len])
    }

    /// Creates a tensor filled with `value`.
    pub fn full(shape: &[usize], value: f64) -> Self {
        let len = shape.iter().product();
        Tensor::from_parts(shape.to_vec(), vec![value; len])
    }

    /// Creates a tensor from a shape and row-major data.
    ///
    /// # Panics
    ///
    /// Panics if the element count does not match the shape.
    pub fn from_vec(shape: &[usize], data: Vec<f64>) -> Self {
        assert_eq!(
            shape.iter().product::<usize>(),
            data.len(),
            "tensor shape/data mismatch"
        );
        Tensor::from_parts(shape.to_vec(), data)
    }

    /// A scalar (rank-0) tensor.
    pub fn scalar(value: f64) -> Self {
        Tensor::from_parts(vec![], vec![value])
    }

    pub(crate) fn from_parts(shape: Vec<usize>, data: Vec<f64>) -> Self {
        Tensor {
            shape,
            data: Arc::new(data),
            uid: new_uid(),
            tape: NoneTape,
        }
    }

    /// Mutable borrow of the row-major data (copy-on-write when shared).
    ///
    /// The uid is preserved: in-place edits update "the same variable",
    /// which is what optimizers stepping parameters rely on.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        Arc::make_mut(&mut self.data).as_mut_slice()
    }

    /// Consumes the tensor, returning the data (cloning only if shared).
    pub fn into_vec(self) -> Vec<f64> {
        Arc::try_unwrap(self.data).unwrap_or_else(|arc| (*arc).clone())
    }

    /// In-place accumulation `self += other`.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn accumulate(&mut self, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "accumulate shape mismatch");
        let dst = Arc::make_mut(&mut self.data);
        for (a, b) in dst.iter_mut().zip(other.data.iter()) {
            *a += *b;
        }
    }

    /// Starts gradient recording: the traced tensor carries a fresh
    /// [`OwnedTape`] and keeps this tensor's identity, so after
    /// `backward()` the gradient is available via
    /// [`crate::tape::Gradients::wrt`] on `self`.
    pub fn trace(&self) -> Tensor<f64, OwnedTape> {
        Tensor {
            shape: self.shape.clone(),
            data: Arc::clone(&self.data),
            uid: self.uid,
            tape: OwnedTape::default(),
        }
    }
}

impl<T> Tensor<f64, T> {
    /// The tensor's shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` when the tensor has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrow of the row-major data.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// The single value of a scalar or one-element tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor has more than one element.
    pub fn item(&self) -> f64 {
        assert_eq!(
            self.data.len(),
            1,
            "item() requires a single-element tensor"
        );
        self.data[0]
    }

    /// Sum of all elements.
    pub fn sum_value(&self) -> f64 {
        self.data.iter().copied().sum()
    }

    /// Squared L2 norm.
    pub fn norm_sqr(&self) -> f64 {
        self.data.iter().map(|&x| x * x).sum()
    }

    /// Elementwise unary map, producing a fresh tape-free value.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Tensor {
        Tensor::from_parts(
            self.shape.clone(),
            self.data.iter().map(|&a| f(a)).collect(),
        )
    }

    /// A tape-free view of this tensor with the *same identity* (uid) —
    /// the building block for using a value twice in one graph (residual
    /// connections, skip paths) and for `Gradients::wrt` lookups after a
    /// trace.
    pub fn no_tape(&self) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: Arc::clone(&self.data),
            uid: self.uid,
            tape: NoneTape,
        }
    }

    /// Splits the tensor into its tape-free value and its tape.
    pub fn split_tape(self) -> (Tensor, T) {
        let Tensor {
            shape,
            data,
            uid,
            tape,
        } = self;
        (
            Tensor {
                shape,
                data,
                uid,
                tape: NoneTape,
            },
            tape,
        )
    }

    /// Re-attaches a tape (the inverse of [`Tensor::split_tape`]).
    pub fn put_tape<U>(self, tape: U) -> Tensor<f64, U> {
        Tensor {
            shape: self.shape,
            data: self.data,
            uid: self.uid,
            tape,
        }
    }

    /// A copy with the same identity but a fresh (empty) tape of the same
    /// type — dfdx's branching idiom. `x.with_empty_tape()` lets `x` feed
    /// two sub-graphs whose tapes merge again at a later binary op, with
    /// gradients from both paths accumulating on `x`.
    pub fn with_empty_tape(&self) -> Tensor<f64, T>
    where
        T: Default,
    {
        Tensor {
            shape: self.shape.clone(),
            data: Arc::clone(&self.data),
            uid: self.uid,
            tape: T::default(),
        }
    }
}

impl<T> fmt::Display for Tensor<f64, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// 2-D matrix multiply: `[m, k] × [k, n] → [m, n]`.
///
/// # Panics
///
/// Panics if either input is not rank-2 or inner dimensions disagree.
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.shape().len(), 2, "matmul lhs must be rank 2");
    assert_eq!(b.shape().len(), 2, "matmul rhs must be rank 2");
    let (m, k) = (a.shape()[0], a.shape()[1]);
    let (k2, n) = (b.shape()[0], b.shape()[1]);
    assert_eq!(k, k2, "matmul inner dimension mismatch");
    let mut out = vec![0.0; m * n];
    let ad = a.as_slice();
    let bd = b.as_slice();
    for i in 0..m {
        for p in 0..k {
            let av = ad[i * k + p];
            if av == 0.0 {
                continue;
            }
            let brow = &bd[p * n..(p + 1) * n];
            let orow = &mut out[i * n..(i + 1) * n];
            for (o, bv) in orow.iter_mut().zip(brow) {
                *o += av * *bv;
            }
        }
    }
    Tensor::from_vec(&[m, n], out)
}

/// 2-D matrix transpose of a rank-2 tensor.
pub fn transpose2(t: &Tensor) -> Tensor {
    let (m, n) = (t.shape()[0], t.shape()[1]);
    let mut out = Tensor::zeros(&[n, m]);
    let od = out.as_mut_slice();
    for i in 0..m {
        for j in 0..n {
            od[j * m + i] = t.as_slice()[i * n + j];
        }
    }
    out
}

/// Parameters of a 2-D convolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2dSpec {
    /// Zero padding applied symmetrically to H and W.
    pub padding: usize,
    /// Stride along both spatial dimensions.
    pub stride: usize,
}

impl Default for Conv2dSpec {
    fn default() -> Self {
        Conv2dSpec {
            padding: 1,
            stride: 1,
        }
    }
}

impl Conv2dSpec {
    /// Output spatial size for an input extent `n` and kernel extent `k`.
    pub fn out_extent(&self, n: usize, k: usize) -> usize {
        (n + 2 * self.padding - k) / self.stride + 1
    }
}

/// For each kernel tap `t` along one axis, the span of output positions
/// `o` whose input position `o·stride + t − padding` lies inside `0..n`.
fn tap_spans(n: usize, out: usize, k: usize, spec: Conv2dSpec) -> Vec<Range<usize>> {
    let (p, s) = (spec.padding, spec.stride);
    (0..k)
        .map(|t| {
            let lo = p.saturating_sub(t).div_ceil(s);
            let hi = match (n + p).checked_sub(t) {
                Some(r) if r > 0 => ((r - 1) / s + 1).min(out),
                _ => 0,
            };
            lo..hi.max(lo)
        })
        .collect()
}

/// `dst[i·dst_step] += src[i·src_step]·w` for every `i` both slices hold.
fn axpy(dst: &mut [f64], dst_step: usize, src: &[f64], src_step: usize, w: f64) {
    if (dst_step, src_step) == (1, 1) {
        for (d, &v) in dst.iter_mut().zip(src) {
            *d += v * w;
        }
    } else {
        for (d, &v) in dst
            .iter_mut()
            .step_by(dst_step)
            .zip(src.iter().step_by(src_step))
        {
            *d += v * w;
        }
    }
}

/// The geometry shared by [`conv2d`] and its two backward passes.
struct ConvGeometry {
    spec: Conv2dSpec,
    /// `[N, Cout, Ho, Wo]`, the output tensor's shape.
    out_shape: [usize; 4],
    /// `(N, Cin, H, W)` of the input, as the loops see it.
    x: (usize, usize, usize, usize),
    /// `(Cout, Kh, Kw)` of the weight.
    w: (usize, usize, usize),
    /// `(Ho, Wo)` of the output, as the loops see it.
    out: (usize, usize),
    /// Valid output span of each kernel row.
    row_spans: Vec<Range<usize>>,
    /// `(kx, span, ix)` of each kernel column with a non-empty valid
    /// output span; `ix` is the input column the span starts at.
    cols: Vec<(usize, Range<usize>, usize)>,
}

impl ConvGeometry {
    fn new(x: &[usize], w: &[usize], spec: Conv2dSpec) -> Self {
        let (n, cin, h, wd) = unpack4(x, "conv2d input");
        let (cout, cin2, kh, kw) = unpack4(w, "conv2d weight");
        assert_eq!(cin, cin2, "conv2d channel mismatch");
        let (ho, wo) = (spec.out_extent(h, kh), spec.out_extent(wd, kw));
        let out_shape = [n, cout, ho, wo];
        // A pointwise kernel maps every pixel on its own, so the loops can
        // fold each plane's `rows` rows into one row of H·W pixels.
        let pointwise = (kh, kw, spec.padding, spec.stride) == (1, 1, 0, 1);
        let rows = if pointwise { h.max(1) } else { 1 };
        let (h, wd, ho, wo) = (h / rows, wd * rows, ho / rows, wo * rows);
        let cols = tap_spans(wd, wo, kw, spec).into_iter().enumerate();
        let cols = cols.filter(|(_, span)| !span.is_empty()).map(|(kx, span)| {
            let ix = span.start * spec.stride + kx - spec.padding;
            (kx, span, ix)
        });
        ConvGeometry {
            spec,
            out_shape,
            x: (n, cin, h, wd),
            w: (cout, kh, kw),
            out: (ho, wo),
            row_spans: tap_spans(h, ho, kh, spec),
            cols: cols.collect(),
        }
    }

    /// Calls `f(x_row, w_row, out_row)` with the offsets of each input
    /// row, kernel row and output row that meet, looping over batch,
    /// output channel, input channel, output row and kernel row.
    fn rows(&self, mut f: impl FnMut(usize, usize, usize)) {
        let ((n, cin, h, wd), (cout, kh, kw), (ho, wo)) = (self.x, self.w, self.out);
        for plane in 0..n * cout * cin {
            let (in_, co, ci) = (plane / (cout * cin), plane / cin % cout, plane % cin);
            for oy in 0..ho {
                for (ky, span) in self.row_spans.iter().enumerate() {
                    if span.contains(&oy) {
                        let iy = oy * self.spec.stride + ky - self.spec.padding;
                        let x_row = ((in_ * cin + ci) * h + iy) * wd;
                        let w_row = ((co * cin + ci) * kh + ky) * kw;
                        f(x_row, w_row, (plane / cin * ho + oy) * wo);
                    }
                }
            }
        }
    }
}

/// Direct 2-D convolution (cross-correlation): input `[N, Cin, H, W]`,
/// weight `[Cout, Cin, Kh, Kw]` → `[N, Cout, Ho, Wo]`.
///
/// Each kernel tap's valid output span is computed once, so the inner
/// loops run over contiguous slices without per-element bounds checks.
/// Every output sums its terms in the order input channel → kernel row →
/// kernel column, with each kernel row's partial sum added as a whole.
///
/// # Panics
///
/// Panics on rank or channel mismatches.
pub fn conv2d(x: &Tensor, w: &Tensor, spec: Conv2dSpec) -> Tensor {
    let g = ConvGeometry::new(x.shape(), w.shape(), spec);
    let (wd, kw, wo) = (g.x.3, g.w.2, g.out.1);
    let mut out = Tensor::zeros(&g.out_shape);
    let (xd, wdat, od) = (x.as_slice(), w.as_slice(), out.as_mut_slice());
    let mut acc = vec![0.0; wo];
    g.rows(|x_row, w_row, o_row| {
        let (xrow, orow) = (&xd[x_row..x_row + wd], &mut od[o_row..o_row + wo]);
        let taps = g
            .cols
            .iter()
            .map(|(kx, span, ix)| (wdat[w_row + kx], span.clone(), &xrow[*ix..]));
        if kw == 1 {
            // A one-column kernel row sums a single product, which can go
            // straight into the output.
            for (wv, span, xs) in taps {
                axpy(&mut orow[span], 1, xs, spec.stride, wv);
            }
        } else {
            acc.fill(0.0);
            for (wv, span, xs) in taps {
                axpy(&mut acc[span], 1, xs, spec.stride, wv);
            }
            for (o, a) in orow.iter_mut().zip(&acc) {
                *o += *a;
            }
        }
    });
    out
}

/// Gradient of [`conv2d`] with respect to the input.
pub fn conv2d_backward_input(
    grad_out: &Tensor,
    w: &Tensor,
    input_shape: &[usize],
    spec: Conv2dSpec,
) -> Tensor {
    let g = ConvGeometry::new(input_shape, w.shape(), spec);
    let (wd, wo) = (g.x.3, g.out.1);
    assert_eq!(grad_out.shape(), g.out_shape, "conv2d grad shape mismatch");
    let mut gx = Tensor::zeros(input_shape);
    let (god, wdat, gxd) = (grad_out.as_slice(), w.as_slice(), gx.as_mut_slice());
    g.rows(|x_row, w_row, o_row| {
        let (grow, gxrow) = (&god[o_row..o_row + wo], &mut gxd[x_row..x_row + wd]);
        for (kx, span, ix) in &g.cols {
            let wv = wdat[w_row + kx];
            axpy(&mut gxrow[*ix..], spec.stride, &grow[span.clone()], 1, wv);
        }
    });
    gx
}

/// Gradient of [`conv2d`] with respect to the weight.
pub fn conv2d_backward_weight(
    grad_out: &Tensor,
    x: &Tensor,
    weight_shape: &[usize],
    spec: Conv2dSpec,
) -> Tensor {
    let g = ConvGeometry::new(x.shape(), weight_shape, spec);
    let (wd, wo) = (g.x.3, g.out.1);
    let mut gw = Tensor::zeros(weight_shape);
    let (god, xd, gwd) = (grad_out.as_slice(), x.as_slice(), gw.as_mut_slice());
    g.rows(|x_row, w_row, o_row| {
        let (grow, xrow) = (&god[o_row..o_row + wo], &xd[x_row..x_row + wd]);
        for (kx, span, ix) in &g.cols {
            let xs = xrow[*ix..].iter().step_by(spec.stride);
            let dot: f64 = grow[span.clone()]
                .iter()
                .zip(xs)
                .map(|(&a, &b)| a * b)
                .sum();
            gwd[w_row + kx] += dot;
        }
    });
    gw
}

pub(crate) fn unpack4(shape: &[usize], what: &str) -> (usize, usize, usize, usize) {
    assert_eq!(shape.len(), 4, "{what} must be rank 4, got {shape:?}");
    (shape[0], shape[1], shape[2], shape[3])
}

/// 2×2 average pooling on `[N, C, H, W]` (H and W must be even).
pub fn avg_pool2(x: &Tensor) -> Tensor {
    let (n, c, h, w) = unpack4(x.shape(), "avg_pool2 input");
    assert!(h % 2 == 0 && w % 2 == 0, "avg_pool2 requires even extents");
    let (ho, wo) = (h / 2, w / 2);
    let mut out = Tensor::zeros(&[n, c, ho, wo]);
    let xd = x.as_slice();
    let od = out.as_mut_slice();
    for nc in 0..n * c {
        let xoff = nc * h * w;
        let ooff = nc * ho * wo;
        for oy in 0..ho {
            for ox in 0..wo {
                let i0 = xoff + (2 * oy) * w + 2 * ox;
                let s = xd[i0] + xd[i0 + 1] + xd[i0 + w] + xd[i0 + w + 1];
                od[ooff + oy * wo + ox] = s * 0.25;
            }
        }
    }
    out
}

/// Gradient of [`avg_pool2`].
pub fn avg_pool2_backward(grad_out: &Tensor, input_shape: &[usize]) -> Tensor {
    let (n, c, h, w) = unpack4(input_shape, "avg_pool2 input");
    let (ho, wo) = (h / 2, w / 2);
    let mut gx = Tensor::zeros(input_shape);
    let gd = grad_out.as_slice();
    let gxd = gx.as_mut_slice();
    for nc in 0..n * c {
        let xoff = nc * h * w;
        let ooff = nc * ho * wo;
        for oy in 0..ho {
            for ox in 0..wo {
                let g = gd[ooff + oy * wo + ox] * 0.25;
                let i0 = xoff + (2 * oy) * w + 2 * ox;
                gxd[i0] += g;
                gxd[i0 + 1] += g;
                gxd[i0 + w] += g;
                gxd[i0 + w + 1] += g;
            }
        }
    }
    gx
}

/// Nearest-neighbour 2× upsampling on `[N, C, H, W]`.
pub fn upsample2(x: &Tensor) -> Tensor {
    let (n, c, h, w) = unpack4(x.shape(), "upsample2 input");
    let (ho, wo) = (h * 2, w * 2);
    let mut out = Tensor::zeros(&[n, c, ho, wo]);
    let xd = x.as_slice();
    let od = out.as_mut_slice();
    for nc in 0..n * c {
        let xoff = nc * h * w;
        let ooff = nc * ho * wo;
        for oy in 0..ho {
            for ox in 0..wo {
                od[ooff + oy * wo + ox] = xd[xoff + (oy / 2) * w + ox / 2];
            }
        }
    }
    out
}

/// Gradient of [`upsample2`].
pub fn upsample2_backward(grad_out: &Tensor, input_shape: &[usize]) -> Tensor {
    let (n, c, h, w) = unpack4(input_shape, "upsample2 input");
    let (ho, wo) = (h * 2, w * 2);
    let mut gx = Tensor::zeros(input_shape);
    let gd = grad_out.as_slice();
    let gxd = gx.as_mut_slice();
    for nc in 0..n * c {
        let xoff = nc * h * w;
        let ooff = nc * ho * wo;
        for oy in 0..ho {
            for ox in 0..wo {
                gxd[xoff + (oy / 2) * w + ox / 2] += gd[ooff + oy * wo + ox];
            }
        }
    }
    gx
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The plain direct-loop convolution the span-hoisted kernels are
    /// pinned against.
    mod reference {
        use super::super::{unpack4, Conv2dSpec, Tensor};

        /// Forward: the direct loop, bounds-checking every multiply-add.
        pub fn conv2d(x: &Tensor, w: &Tensor, spec: Conv2dSpec) -> Tensor {
            let (n, cin, h, wd) = unpack4(x.shape(), "conv2d input");
            let (cout, cin2, kh, kw) = unpack4(w.shape(), "conv2d weight");
            assert_eq!(cin, cin2, "conv2d channel mismatch");
            let ho = spec.out_extent(h, kh);
            let wo = spec.out_extent(wd, kw);
            let mut out = Tensor::zeros(&[n, cout, ho, wo]);
            let xd = x.as_slice();
            let wdat = w.as_slice();
            let od = out.as_mut_slice();
            let pad = spec.padding as isize;
            for in_ in 0..n {
                for co in 0..cout {
                    for ci in 0..cin {
                        let xoff = (in_ * cin + ci) * h * wd;
                        let woff = (co * cin + ci) * kh * kw;
                        for oy in 0..ho {
                            let base_iy = (oy * spec.stride) as isize - pad;
                            for ky in 0..kh {
                                let iy = base_iy + ky as isize;
                                if iy < 0 || iy >= h as isize {
                                    continue;
                                }
                                let xrow = xoff + iy as usize * wd;
                                let wrow = woff + ky * kw;
                                let orow = ((in_ * cout + co) * ho + oy) * wo;
                                for ox in 0..wo {
                                    let base_ix = (ox * spec.stride) as isize - pad;
                                    let mut acc = 0.0;
                                    for kx in 0..kw {
                                        let ix = base_ix + kx as isize;
                                        if ix < 0 || ix >= wd as isize {
                                            continue;
                                        }
                                        acc += xd[xrow + ix as usize] * wdat[wrow + kx];
                                    }
                                    od[orow + ox] += acc;
                                }
                            }
                        }
                    }
                }
            }
            out
        }

        /// Input gradient, scattered tap by tap.
        pub fn conv2d_backward_input(
            grad_out: &Tensor,
            w: &Tensor,
            input_shape: &[usize],
            spec: Conv2dSpec,
        ) -> Tensor {
            let (n, cin, h, wd) = unpack4(input_shape, "conv2d input");
            let (cout, _cin, kh, kw) = unpack4(w.shape(), "conv2d weight");
            let (gn, gcout, ho, wo) = unpack4(grad_out.shape(), "conv2d grad");
            assert_eq!((gn, gcout), (n, cout), "conv2d grad shape mismatch");
            let mut gx = Tensor::zeros(input_shape);
            let gxd = gx.as_mut_slice();
            let god = grad_out.as_slice();
            let wdat = w.as_slice();
            let pad = spec.padding as isize;
            for in_ in 0..n {
                for co in 0..cout {
                    for ci in 0..cin {
                        let xoff = (in_ * cin + ci) * h * wd;
                        let woff = (co * cin + ci) * kh * kw;
                        for oy in 0..ho {
                            let base_iy = (oy * spec.stride) as isize - pad;
                            let orow = ((in_ * cout + co) * ho + oy) * wo;
                            for ky in 0..kh {
                                let iy = base_iy + ky as isize;
                                if iy < 0 || iy >= h as isize {
                                    continue;
                                }
                                let xrow = xoff + iy as usize * wd;
                                let wrow = woff + ky * kw;
                                for ox in 0..wo {
                                    let g = god[orow + ox];
                                    if g == 0.0 {
                                        continue;
                                    }
                                    let base_ix = (ox * spec.stride) as isize - pad;
                                    for kx in 0..kw {
                                        let ix = base_ix + kx as isize;
                                        if ix < 0 || ix >= wd as isize {
                                            continue;
                                        }
                                        gxd[xrow + ix as usize] += g * wdat[wrow + kx];
                                    }
                                }
                            }
                        }
                    }
                }
            }
            gx
        }

        /// Weight gradient, accumulated tap by tap.
        pub fn conv2d_backward_weight(
            grad_out: &Tensor,
            x: &Tensor,
            weight_shape: &[usize],
            spec: Conv2dSpec,
        ) -> Tensor {
            let (n, cin, h, wd) = unpack4(x.shape(), "conv2d input");
            let (cout, _cin, kh, kw) = unpack4(weight_shape, "conv2d weight");
            let (_, _, ho, wo) = unpack4(grad_out.shape(), "conv2d grad");
            let mut gw = Tensor::zeros(weight_shape);
            let gwd = gw.as_mut_slice();
            let god = grad_out.as_slice();
            let xd = x.as_slice();
            let pad = spec.padding as isize;
            for in_ in 0..n {
                for co in 0..cout {
                    for ci in 0..cin {
                        let xoff = (in_ * cin + ci) * h * wd;
                        let woff = (co * cin + ci) * kh * kw;
                        for oy in 0..ho {
                            let base_iy = (oy * spec.stride) as isize - pad;
                            let orow = ((in_ * cout + co) * ho + oy) * wo;
                            for ky in 0..kh {
                                let iy = base_iy + ky as isize;
                                if iy < 0 || iy >= h as isize {
                                    continue;
                                }
                                let xrow = xoff + iy as usize * wd;
                                let wrow = woff + ky * kw;
                                for ox in 0..wo {
                                    let g = god[orow + ox];
                                    if g == 0.0 {
                                        continue;
                                    }
                                    let base_ix = (ox * spec.stride) as isize - pad;
                                    for kx in 0..kw {
                                        let ix = base_ix + kx as isize;
                                        if ix < 0 || ix >= wd as isize {
                                            continue;
                                        }
                                        gwd[wrow + kx] += g * xd[xrow + ix as usize];
                                    }
                                }
                            }
                        }
                    }
                }
            }
            gw
        }
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_vec(&[2, 2], vec![1.0, 0.0, 0.0, 1.0]);
        let b = Tensor::from_vec(&[2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(matmul(&a, &b), b);
    }

    #[test]
    fn conv2d_identity_kernel() {
        // 1×1 kernel of value 1 is the identity map.
        let x = Tensor::from_vec(&[1, 1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let w = Tensor::from_vec(&[1, 1, 1, 1], vec![1.0]);
        let y = conv2d(
            &x,
            &w,
            Conv2dSpec {
                padding: 0,
                stride: 1,
            },
        );
        assert_eq!(y.as_slice(), x.as_slice());
    }

    #[test]
    fn conv2d_3x3_sum_kernel() {
        // All-ones 3×3 kernel with same padding computes neighbourhood sums.
        let x = Tensor::from_vec(&[1, 1, 3, 3], (1..=9).map(|v| v as f64).collect());
        let w = Tensor::full(&[1, 1, 3, 3], 1.0);
        let y = conv2d(
            &x,
            &w,
            Conv2dSpec {
                padding: 1,
                stride: 1,
            },
        );
        // Centre output = sum of all 9 = 45.
        assert_eq!(y.as_slice()[4], 45.0);
        // Corner output = 1+2+4+5 = 12.
        assert_eq!(y.as_slice()[0], 12.0);
    }

    #[test]
    fn conv2d_stride_two_shape() {
        let x = Tensor::<f64>::zeros(&[2, 3, 8, 8]);
        let w = Tensor::<f64>::zeros(&[4, 3, 3, 3]);
        let y = conv2d(
            &x,
            &w,
            Conv2dSpec {
                padding: 1,
                stride: 2,
            },
        );
        assert_eq!(y.shape(), &[2, 4, 4, 4]);
    }

    /// Finite-difference check of the convolution gradients.
    #[test]
    fn conv2d_gradients_match_finite_difference() {
        let spec = Conv2dSpec {
            padding: 1,
            stride: 1,
        };
        let xs = [1usize, 2, 5, 4];
        let ws = [3usize, 2, 3, 3];
        let mut x = Tensor::<f64>::zeros(&xs);
        let mut w = Tensor::<f64>::zeros(&ws);
        for (k, v) in x.as_mut_slice().iter_mut().enumerate() {
            *v = ((k * 37 % 11) as f64 - 5.0) * 0.1;
        }
        for (k, v) in w.as_mut_slice().iter_mut().enumerate() {
            *v = ((k * 53 % 13) as f64 - 6.0) * 0.07;
        }
        // Loss = sum of outputs, so grad_out = ones.
        let y = conv2d(&x, &w, spec);
        let go = Tensor::full(y.shape(), 1.0);
        let gx = conv2d_backward_input(&go, &w, x.shape(), spec);
        let gw = conv2d_backward_weight(&go, &x, w.shape(), spec);
        let h = 1e-6;
        for probe in [0usize, 7, 19] {
            let mut xp = x.clone();
            xp.as_mut_slice()[probe] += h;
            let fp = conv2d(&xp, &w, spec).sum_value();
            let mut xm = x.clone();
            xm.as_mut_slice()[probe] -= h;
            let fm = conv2d(&xm, &w, spec).sum_value();
            let fd = (fp - fm) / (2.0 * h);
            assert!(
                (fd - gx.as_slice()[probe]).abs() < 1e-6,
                "input grad at {probe}"
            );
        }
        for probe in [0usize, 10, 26] {
            let mut wp = w.clone();
            wp.as_mut_slice()[probe] += h;
            let fp = conv2d(&x, &wp, spec).sum_value();
            let mut wm = w.clone();
            wm.as_mut_slice()[probe] -= h;
            let fm = conv2d(&x, &wm, spec).sum_value();
            let fd = (fp - fm) / (2.0 * h);
            assert!(
                (fd - gw.as_slice()[probe]).abs() < 1e-6,
                "weight grad at {probe}"
            );
        }
    }

    /// The span-hoisted kernels against the direct loop: the forward bit
    /// for bit, the backward passes (which reorder their sums) to 1e-12.
    #[test]
    fn conv2d_matches_direct_loop_reference() {
        let fill = |shape: &[usize], salt: usize| {
            let mut t = Tensor::<f64>::zeros(shape);
            for (k, v) in t.as_mut_slice().iter_mut().enumerate() {
                *v = (((k * 37 + salt) % 23) as f64 - 11.0) * 0.093 + (k as f64 * 0.41).sin();
            }
            t
        };
        let close = |got: &Tensor, want: &Tensor, what: &str| {
            assert_eq!(got.shape(), want.shape(), "{what} shape");
            let scale = want.as_slice().iter().fold(0.0f64, |m, v| m.max(v.abs()));
            for (a, b) in got.as_slice().iter().zip(want.as_slice()) {
                assert!((a - b).abs() <= 1e-12 * scale, "{what}: {a} vs {b}");
            }
        };
        for (k, padding, stride) in [
            (1, 0, 1),
            (1, 0, 2),
            (1, 1, 1),
            (3, 0, 1),
            (3, 1, 1),
            (3, 1, 2),
            (3, 0, 2),
        ] {
            for (h, w) in [(7, 9), (5, 5), (6, 11)] {
                let spec = Conv2dSpec { padding, stride };
                let x = fill(&[2, 3, h, w], 3);
                let wt = fill(&[4, 3, k, k], 7);
                let y = conv2d(&x, &wt, spec);
                let want = reference::conv2d(&x, &wt, spec);
                assert_eq!(y.shape(), want.shape());
                for (a, b) in y.as_slice().iter().zip(want.as_slice()) {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "k={k} p={padding} s={stride} {h}×{w}"
                    );
                }
                let go = fill(y.shape(), 11);
                let what = format!("k={k} p={padding} s={stride} {h}×{w}");
                close(
                    &conv2d_backward_input(&go, &wt, x.shape(), spec),
                    &reference::conv2d_backward_input(&go, &wt, x.shape(), spec),
                    &format!("grad_x {what}"),
                );
                close(
                    &conv2d_backward_weight(&go, &x, wt.shape(), spec),
                    &reference::conv2d_backward_weight(&go, &x, wt.shape(), spec),
                    &format!("grad_w {what}"),
                );
            }
        }
    }

    #[test]
    fn pool_and_upsample_roundtrip_shapes() {
        let x = Tensor::from_vec(&[1, 1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let p = avg_pool2(&x);
        assert_eq!(p.shape(), &[1, 1, 1, 1]);
        assert_eq!(p.item(), 2.5);
        let u = upsample2(&p);
        assert_eq!(u.shape(), &[1, 1, 2, 2]);
        assert!(u.as_slice().iter().all(|v| *v == 2.5));
    }

    #[test]
    fn pool_backward_distributes_evenly() {
        let g = Tensor::from_vec(&[1, 1, 1, 1], vec![4.0]);
        let gx = avg_pool2_backward(&g, &[1, 1, 2, 2]);
        assert!(gx.as_slice().iter().all(|v| *v == 1.0));
    }

    #[test]
    fn upsample_backward_sums_children() {
        let g = Tensor::full(&[1, 1, 2, 2], 1.0);
        let gx = upsample2_backward(&g, &[1, 1, 1, 1]);
        assert_eq!(gx.item(), 4.0);
    }

    #[test]
    fn accumulate_adds() {
        let mut a = Tensor::full(&[3], 1.0);
        a.accumulate(&Tensor::full(&[3], 2.0));
        assert_eq!(a.as_slice(), &[3.0, 3.0, 3.0]);
    }

    #[test]
    fn clone_shares_identity_and_storage() {
        let a = Tensor::from_vec(&[2], vec![1.0, 2.0]);
        let b = a.clone();
        assert_eq!(a, b);
        assert!(std::sync::Arc::ptr_eq(&a.data, &b.data));
        assert_eq!(a.uid, b.uid);
        // Copy-on-write: mutating the clone leaves the original intact.
        let mut b = b;
        b.as_mut_slice()[0] = 9.0;
        assert_eq!(a.as_slice(), &[1.0, 2.0]);
        assert_eq!(b.as_slice(), &[9.0, 2.0]);
    }
}
