//! Typestate tapes for reverse-mode automatic differentiation.
//!
//! Tape presence is encoded in the tensor's *type* (the dfdx idiom):
//!
//! - [`NoneTape`] — the default. Ops compute values only; no backward
//!   closure is built, boxed, or stored. Inference is zero-overhead.
//! - [`OwnedTape`] — created by [`crate::Tensor::trace`]. Every op pushes
//!   one backward closure tagged with a global sequence number;
//!   [`crate::Tensor::backward`] replays them in reverse.
//!
//! Binary ops merge their operands' tapes through [`Merge`], which is
//! only implemented for combinations that preserve gradient flow — code
//! that would silently drop a tape (e.g. an untraced left operand
//! absorbing a traced right one) fails to compile.
//!
//! Gradients are keyed by tensor uid, so a value used on several paths
//! (residual connections, skip paths via
//! [`crate::Tensor::with_empty_tape`]) accumulates gradient from each
//! path automatically.

use crate::dtype::Dtype;
use crate::tensor::Tensor;
use std::cell::Cell;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// A recorded backward step: reads the output gradient from
/// [`Gradients`] and accumulates into the operands' slots.
pub type BackwardOp<E> = Box<dyn FnOnce(&mut Gradients<E>)>;

static NEXT_SEQ: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TAPE_NODES: Cell<u64> = const { Cell::new(0) };
}

/// Number of backward ops the calling thread has recorded since it
/// started. Ops record on the thread that runs them, so the count is not
/// disturbed by other threads tracing concurrently.
///
/// Regression hook for the typestate guarantee: an inference pass on
/// `NoneTape` tensors must leave this counter untouched.
pub fn tape_nodes_recorded() -> u64 {
    TAPE_NODES.with(Cell::get)
}

/// Merges two tapes into the tape of a binary op's output.
///
/// Implemented only for the lossless combinations: merging with
/// [`NoneTape`] keeps the owned tape, and merging two [`OwnedTape`]s
/// interleaves their ops by global sequence number so replaying the
/// merged tape in reverse is a valid reverse-topological order of the
/// combined graph.
pub trait Merge<Other> {
    /// The merged tape type.
    type Output;
    /// Consumes both tapes and returns the merged one.
    fn merge(self, other: Other) -> Self::Output;
}

/// The no-op tape: ops on `NoneTape` tensors record nothing.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct NoneTape;

/// A gradient tape owning the backward closures of every op recorded
/// since its [`crate::Tensor::trace`] call.
#[derive(Default)]
pub struct OwnedTape<E: Dtype> {
    /// `(seq, op)` pairs in ascending `seq` order.
    ops: Vec<(u64, BackwardOp<E>)>,
}

impl<E: Dtype> fmt::Debug for OwnedTape<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "OwnedTape<{}>({} ops)", E::NAME, self.ops.len())
    }
}

impl<E: Dtype> OwnedTape<E> {
    /// Number of recorded backward ops.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Returns `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    fn execute(self, grads: &mut Gradients<E>) {
        debug_assert!(self.ops.windows(2).all(|w| w[0].0 <= w[1].0));
        for (_, op) in self.ops.into_iter().rev() {
            op(grads);
        }
    }
}

/// The capability a tensor's tape parameter provides: recording backward
/// ops (or statically refusing to).
pub trait Tape<E: Dtype>:
    Default + Merge<Self, Output = Self> + Merge<NoneTape, Output = Self> + Sized + 'static
{
    /// `true` for tapes that record ([`OwnedTape`]); `false` for
    /// [`NoneTape`]. Lets kernels skip gradient-only work entirely.
    const OWNS: bool;

    /// Records one backward op. The builder closure is *not called* on
    /// [`NoneTape`], so inference pays neither the boxing nor whatever
    /// state the closure would capture.
    fn record(&mut self, build: impl FnOnce() -> BackwardOp<E>);
}

impl Merge<NoneTape> for NoneTape {
    type Output = NoneTape;
    #[inline]
    fn merge(self, _: NoneTape) -> NoneTape {
        NoneTape
    }
}

impl<E: Dtype> Merge<NoneTape> for OwnedTape<E> {
    type Output = OwnedTape<E>;
    #[inline]
    fn merge(self, _: NoneTape) -> OwnedTape<E> {
        self
    }
}

impl<E: Dtype> Merge<OwnedTape<E>> for OwnedTape<E> {
    type Output = OwnedTape<E>;
    fn merge(mut self, other: OwnedTape<E>) -> OwnedTape<E> {
        if other.ops.is_empty() {
            return self;
        }
        if self.ops.is_empty() {
            return other;
        }
        // Both sides are individually sorted by seq; merge-sort keeps the
        // combined list a valid topological order of the joined graph.
        let mut merged = Vec::with_capacity(self.ops.len() + other.ops.len());
        let mut left = self.ops.drain(..).peekable();
        let mut right = other.ops.into_iter().peekable();
        loop {
            match (left.peek(), right.peek()) {
                (Some(l), Some(r)) => {
                    if l.0 <= r.0 {
                        merged.push(left.next().expect("peeked"));
                    } else {
                        merged.push(right.next().expect("peeked"));
                    }
                }
                (Some(_), None) => merged.extend(left.by_ref()),
                (None, Some(_)) => merged.extend(right.by_ref()),
                (None, None) => break,
            }
        }
        OwnedTape { ops: merged }
    }
}

impl<E: Dtype> Tape<E> for NoneTape {
    const OWNS: bool = false;
    #[inline(always)]
    fn record(&mut self, _build: impl FnOnce() -> BackwardOp<E>) {}
}

impl<E: Dtype> Tape<E> for OwnedTape<E> {
    const OWNS: bool = true;
    fn record(&mut self, build: impl FnOnce() -> BackwardOp<E>) {
        let seq = NEXT_SEQ.fetch_add(1, Ordering::Relaxed);
        TAPE_NODES.with(|n| n.set(n.get() + 1));
        self.ops.push((seq, build()));
    }
}

/// Gradients produced by [`crate::Tensor::backward`], keyed by tensor
/// uid. Inputs, parameters, and intermediates that participated in the
/// loss all have entries.
pub struct Gradients<E: Dtype = f64> {
    grads: HashMap<u64, Tensor<E>>,
}

impl<E: Dtype> fmt::Debug for Gradients<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Gradients<{}>({} entries)", E::NAME, self.grads.len())
    }
}

impl<E: Dtype> Gradients<E> {
    fn new() -> Self {
        Gradients {
            grads: HashMap::new(),
        }
    }

    /// Gradient of the loss with respect to `t` (input, parameter, or
    /// intermediate), if it received any. Identity is by uid, so the
    /// original untraced tensor works as a key after `trace()`.
    pub fn wrt<T>(&self, t: &Tensor<E, T>) -> Option<&Tensor<E>> {
        self.grads.get(&t.uid)
    }

    /// Gradients for every parameter of `params` that participated in
    /// the graph, already accumulated across all the uses of each leaf.
    pub fn param_grads<'a>(
        &'a self,
        params: &'a Params<E>,
    ) -> impl Iterator<Item = (ParamId, &'a Tensor<E>)> + 'a {
        params
            .ids()
            .filter_map(move |id| self.grads.get(&params.get(id).uid).map(|g| (id, g)))
    }

    /// Number of tensors that received a gradient.
    pub fn len(&self) -> usize {
        self.grads.len()
    }

    /// Returns `true` when no gradients were produced.
    pub fn is_empty(&self) -> bool {
        self.grads.is_empty()
    }

    /// The (already accumulated) gradient flowing into `uid`, cheaply
    /// cloned (storage is shared). Backward ops use this to read their
    /// output's gradient; `None` means the op's output never reached the
    /// loss.
    pub(crate) fn get(&self, uid: u64) -> Option<Tensor<E>> {
        self.grads.get(&uid).cloned()
    }

    /// Accumulates `delta` into the gradient slot of `uid`.
    pub(crate) fn accumulate(&mut self, uid: u64, delta: Tensor<E>) {
        match self.grads.entry(uid) {
            std::collections::hash_map::Entry::Occupied(mut e) => e.get_mut().accumulate(&delta),
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(delta);
            }
        }
    }

    /// Accumulates an elementwise-computed contribution into `uid`.
    pub(crate) fn accumulate_with(&mut self, uid: u64, shape: &[usize], f: impl Fn(usize) -> E) {
        let entry = self
            .grads
            .entry(uid)
            .or_insert_with(|| Tensor::zeros(shape));
        let dst = entry.as_mut_slice();
        for (i, v) in dst.iter_mut().enumerate() {
            *v += f(i);
        }
    }
}

impl<E: Dtype> Tensor<E, OwnedTape<E>> {
    /// Runs reverse-mode differentiation from a scalar loss, consuming
    /// the loss tensor and its tape.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not a scalar (single-element) value.
    pub fn backward(self) -> Gradients<E> {
        assert_eq!(self.len(), 1, "backward requires a scalar loss");
        let (value, tape) = self.split_tape();
        let mut grads = Gradients::new();
        grads.accumulate(value.uid, Tensor::full(value.shape(), E::ONE));
        tape.execute(&mut grads);
        grads
    }
}

/// Handle to a trainable parameter in a [`Params`] store.
///
/// Ids are scoped to the store that allocated them (each store carries a
/// process-unique tag), so optimizers stepping one store safely ignore
/// gradients belonging to another — e.g. the frozen forward model inside
/// a tandem setup.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParamId {
    store: u64,
    index: usize,
}

static STORE_COUNTER: AtomicU64 = AtomicU64::new(1);

/// Storage for trainable parameters, stable across training steps and
/// generic over dtype (`f64` for training, `f32` casts for inference).
#[derive(Debug, Clone)]
pub struct Params<E: Dtype = f64> {
    store: u64,
    tensors: Vec<Tensor<E>>,
}

impl<E: Dtype> Default for Params<E> {
    fn default() -> Self {
        Params {
            store: STORE_COUNTER.fetch_add(1, Ordering::Relaxed),
            tensors: Vec::new(),
        }
    }
}

impl<E: Dtype> Params<E> {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a new parameter and returns its handle.
    pub fn alloc(&mut self, tensor: Tensor<E>) -> ParamId {
        self.tensors.push(tensor);
        ParamId {
            store: self.store,
            index: self.tensors.len() - 1,
        }
    }

    /// Returns `true` when `id` was allocated by this store (or a clone
    /// or dtype cast of it).
    pub fn owns(&self, id: ParamId) -> bool {
        id.store == self.store
    }

    /// Value of a parameter.
    ///
    /// # Panics
    ///
    /// Panics if `id` belongs to a different store.
    pub fn get(&self, id: ParamId) -> &Tensor<E> {
        assert!(self.owns(id), "parameter id from a different store");
        &self.tensors[id.index]
    }

    /// Mutable value of a parameter (used by optimizers). In-place edits
    /// keep the tensor's identity, so gradients keep resolving.
    ///
    /// # Panics
    ///
    /// Panics if `id` belongs to a different store.
    pub fn get_mut(&mut self, id: ParamId) -> &mut Tensor<E> {
        assert!(self.owns(id), "parameter id from a different store");
        &mut self.tensors[id.index]
    }

    /// Number of parameter tensors.
    pub fn len(&self) -> usize {
        self.tensors.len()
    }

    /// Returns `true` when no parameters are registered.
    pub fn is_empty(&self) -> bool {
        self.tensors.is_empty()
    }

    /// Total number of scalar parameters.
    pub fn total_elements(&self) -> usize {
        self.tensors.iter().map(|t| t.len()).sum()
    }

    /// Iterates over all parameter ids.
    pub fn ids(&self) -> impl Iterator<Item = ParamId> {
        let store = self.store;
        (0..self.tensors.len()).map(move |index| ParamId { store, index })
    }

    /// Converts every parameter to another dtype, *keeping the store tag*:
    /// existing [`ParamId`]s resolve in the cast store, so a model can run
    /// its f32 inference twin without re-wiring any layer handles.
    pub fn cast<F: Dtype>(&self) -> Params<F> {
        Params {
            store: self.store,
            tensors: self.tensors.iter().map(|t| t.cast::<F>()).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_tape_records_nothing() {
        let before = tape_nodes_recorded();
        let x = Tensor::from_vec(&[4], vec![1.0, -2.0, 3.0, -4.0]);
        let y = x.clone().relu().scale(2.0).add(x.clone()).sum();
        assert!(y.item().is_finite());
        assert_eq!(tape_nodes_recorded(), before, "NoneTape op recorded a node");
    }

    #[test]
    fn owned_tape_counts_nodes() {
        let before = tape_nodes_recorded();
        let x = Tensor::from_vec(&[4], vec![1.0, -2.0, 3.0, -4.0]);
        let loss = x.trace().relu().sum();
        assert_eq!(tape_nodes_recorded() - before, 2);
        let grads = loss.backward();
        assert_eq!(grads.wrt(&x).unwrap().as_slice(), &[1.0, 0.0, 1.0, 0.0]);
    }

    #[test]
    fn merge_interleaves_by_sequence() {
        // x feeds two branches; both tapes merge at the final add. The
        // gradient through both paths accumulates on x: d/dx (x² + 3x).
        let x = Tensor::from_vec(&[2], vec![2.0, -1.0]);
        let traced = x.trace();
        let sq = traced.with_empty_tape().mul(traced.with_empty_tape());
        let lin = traced.scale(3.0);
        let loss = sq.add(lin).sum();
        let grads = loss.backward();
        // 2x + 3 at x = [2, -1] → [7, 1].
        assert_eq!(grads.wrt(&x).unwrap().as_slice(), &[7.0, 1.0]);
    }

    #[test]
    fn param_grads_are_accumulated_per_leaf() {
        let mut params = Params::<f64>::new();
        let w = params.alloc(Tensor::from_vec(&[2], vec![2.0, 3.0]));
        let wv = params.get(w).clone();
        let loss = wv.clone().trace().mul(wv).sum();
        let grads = loss.backward();
        let collected: Vec<_> = grads.param_grads(&params).collect();
        assert_eq!(collected.len(), 1);
        let (id, g) = collected[0];
        assert_eq!(id, w);
        assert_eq!(g.as_slice(), &[4.0, 6.0]); // d(w²)/dw = 2w
    }

    #[test]
    fn cast_keeps_param_ids_valid() {
        let mut params = Params::<f64>::new();
        let w = params.alloc(Tensor::from_vec(&[2], vec![0.5, -1.5]));
        let p32 = params.cast::<f32>();
        assert!(p32.owns(w));
        assert_eq!(p32.get(w).as_slice(), &[0.5f32, -1.5]);
    }
}
