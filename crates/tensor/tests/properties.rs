//! Property-based tests of tensor ops and the typestate autodiff tapes.

use maps_tensor::{tape_nodes_recorded, OwnedTape, Tensor};
use proptest::prelude::*;

fn tensor_strategy(len: usize) -> impl Strategy<Value = Tensor> {
    prop::collection::vec(-3.0..3.0f64, len).prop_map(move |v| Tensor::from_vec(&[len], v))
}

/// Central finite differences against the taped gradient.
fn fd_check(
    build: impl Fn(Tensor<f64, OwnedTape>) -> Tensor<f64, OwnedTape>,
    input: &Tensor,
    tol: f64,
) {
    let grads = build(input.trace()).backward();
    let gx = grads.wrt(input).expect("input gradient missing").clone();
    let h = 1e-6;
    for probe in 0..input.len() {
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
            "probe {probe}: fd {fd:.6e} vs ad {ad:.6e}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// d(sum(a ⊙ b))/da = b for any tensors.
    #[test]
    fn mul_gradient_is_other_operand(
        a in tensor_strategy(12),
        b in tensor_strategy(12),
    ) {
        let loss = a.trace().mul(b.clone()).sum();
        let grads = loss.backward();
        let ga = grads.wrt(&a).unwrap();
        for (g, bb) in ga.as_slice().iter().zip(b.as_slice()) {
            prop_assert!((g - bb).abs() < 1e-12);
        }
    }

    /// The gradient of a linear graph is independent of the input value.
    #[test]
    fn linear_graph_gradient_constant(
        a in tensor_strategy(8),
        k in -5.0..5.0f64,
    ) {
        let grad_of = |t: &Tensor| -> Vec<f64> {
            let loss = t.trace().scale(k).add_scalar(1.0).sum();
            loss.backward().wrt(t).unwrap().as_slice().to_vec()
        };
        let g1 = grad_of(&a);
        let shifted = a.map(|v| v + 1.0);
        let g2 = grad_of(&shifted);
        for (p, q) in g1.iter().zip(&g2) {
            prop_assert!((p - q).abs() < 1e-12);
            prop_assert!((p - k).abs() < 1e-12);
        }
    }

    /// NMSE is zero iff prediction equals target, and equals 1 for the zero
    /// predictor.
    #[test]
    fn nmse_fixed_points(t in tensor_strategy(10)) {
        prop_assume!(t.norm_sqr() > 1e-6);
        let loss = t.trace().nmse(t.clone());
        prop_assert!(loss.item().abs() < 1e-12);
        let loss2 = Tensor::zeros(t.shape()).trace().nmse(t.clone());
        prop_assert!((loss2.item() - 1.0).abs() < 1e-9);
    }

    /// relu + neg-relu reconstructs the input: relu(x) − relu(−x) = x.
    #[test]
    fn relu_decomposition(t in tensor_strategy(9)) {
        let x = t.trace();
        let neg_part = x.with_empty_tape().neg().relu();
        let reconstructed = x.relu().sub(neg_part);
        for (a, b) in reconstructed.as_slice().iter().zip(t.as_slice()) {
            prop_assert!((a - b).abs() < 1e-12);
        }
    }

    /// Gradient accumulation: using a variable twice doubles its gradient.
    #[test]
    fn fanout_gradient_accumulates(t in tensor_strategy(6)) {
        let x = t.trace();
        let loss = x.with_empty_tape().add(x).sum();
        let g = loss.backward();
        for v in g.wrt(&t).unwrap().as_slice() {
            prop_assert!((v - 2.0).abs() < 1e-12);
        }
    }

    /// Taped gradients match central finite differences through a
    /// nonlinear graph.
    #[test]
    fn gradients_match_finite_difference(
        t in prop::collection::vec(-2.0..2.0f64, 6),
        k in -2.0..2.0f64,
    ) {
        let graph = move |x: Tensor<f64, OwnedTape>| {
            let z = x.scale(k).tanh().add_scalar(0.1);
            z.with_empty_tape().mul(z).sum()
        };
        fd_check(graph, &Tensor::from_vec(&[6], t), 1e-5);
    }

    /// Typestate guarantee: inference on `NoneTape` tensors records zero
    /// tape nodes, no matter the graph.
    #[test]
    fn none_tape_inference_records_nothing(t in tensor_strategy(16)) {
        let before = tape_nodes_recorded();
        let y = t.clone().relu().scale(0.5).add(t.clone()).gelu().sum();
        let y2 = t.relu().scale(0.5).tanh().mean();
        prop_assert!(y.item().is_finite());
        prop_assert!(y2.item().is_finite());
        prop_assert_eq!(tape_nodes_recorded(), before);
    }
}

/// Deterministic regression pin (runs even when proptest shrinks are
/// disabled in CI): a full inference-style pipeline — conv, activation,
/// pooling, spectral conv — allocates zero tape nodes on `NoneTape`.
#[test]
fn inference_pipeline_allocates_zero_tape_nodes() {
    let x = Tensor::from_vec(
        &[1, 2, 8, 8],
        (0..128).map(|k| (k as f64 * 0.17).sin()).collect(),
    );
    let w = Tensor::from_vec(
        &[2, 2, 3, 3],
        (0..36).map(|k| (k as f64 * 0.09).cos()).collect(),
    );
    let wr = Tensor::full(&[2, 2, 4, 4], 0.25);
    let wi = Tensor::zeros(&[2, 2, 4, 4]);
    let before = tape_nodes_recorded();
    let y = x
        .conv2d(w, Default::default())
        .gelu()
        .avg_pool2()
        .upsample2()
        .spectral_conv(wr, wi, 2, 2)
        .sum();
    assert!(y.item().is_finite());
    assert_eq!(
        tape_nodes_recorded(),
        before,
        "NoneTape inference recorded tape nodes"
    );
}

/// The same pipeline traced records one node per differentiable op —
/// the counter moves exactly when it should.
#[test]
fn traced_pipeline_counts_one_node_per_op() {
    let x = Tensor::from_vec(&[4], vec![0.3, -0.7, 1.1, 0.0]);
    let before = tape_nodes_recorded();
    let loss = x.trace().gelu().scale(2.0).sum();
    assert_eq!(tape_nodes_recorded() - before, 3);
    let grads = loss.backward();
    assert!(grads.wrt(&x).is_some());
}
