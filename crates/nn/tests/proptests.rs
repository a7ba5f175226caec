//! Property-based tests for the autodiff engine: random small programs
//! must pass finite-difference gradient checks, and structural identities
//! must hold for arbitrary values.

use proptest::prelude::*;
use stod_nn::gradcheck::gradient_check;
use stod_nn::{ParamStore, Tape};
use stod_tensor::Tensor;

fn small_mat() -> impl Strategy<Value = Tensor> {
    (1..=4usize, 1..=4usize).prop_flat_map(|(r, c)| {
        proptest::collection::vec(-1.5f32..1.5, r * c)
            .prop_map(move |d| Tensor::from_vec(&[r, c], d))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Elementwise chains gradcheck for arbitrary values.
    #[test]
    fn elementwise_chain_gradchecks(a in small_mat()) {
        let report = gradient_check(
            &[a],
            |t, v| {
                let s = t.sigmoid(v[0]);
                let h = t.tanh(s);
                let m = t.mul(h, v[0]);
                t.sum_all(m)
            },
            1e-2,
            3e-2,
        );
        prop_assert!(report.ok, "rel err {}", report.max_rel_err);
    }

    /// Softmax chains gradcheck for arbitrary logits.
    #[test]
    fn softmax_chain_gradchecks(a in small_mat()) {
        let cols = a.dim(1);
        let target = Tensor::full(a.dims(), 1.0 / cols as f32);
        let mask = Tensor::ones(a.dims());
        let report = gradient_check(
            &[a],
            move |t, v| {
                let s = t.softmax(v[0], 1);
                t.masked_sq_err(s, &target, &mask)
            },
            1e-2,
            3e-2,
        );
        prop_assert!(report.ok, "rel err {}", report.max_rel_err);
    }

    /// Matmul + reshape chains gradcheck for random shapes.
    #[test]
    fn matmul_chain_gradchecks(
        m in 1usize..4, k in 1usize..4, n in 1usize..4,
        seed in 0u64..1000,
    ) {
        let mut rng = stod_tensor::rng::Rng64::new(seed);
        let a = Tensor::randn(&[m, k], 0.7, &mut rng);
        let b = Tensor::randn(&[k, n], 0.7, &mut rng);
        let report = gradient_check(
            &[a, b],
            |t, v| {
                let y = t.matmul(v[0], v[1]);
                let sq = t.mul(y, y);
                t.sum_all(sq)
            },
            1e-2,
            3e-2,
        );
        prop_assert!(report.ok, "rel err {}", report.max_rel_err);
    }

    /// The gradient of a sum of losses equals the sum of the gradients
    /// (linearity of backward).
    #[test]
    fn backward_is_linear(a in small_mat()) {
        let grad_of = |combined: bool| -> Tensor {
            let mut tape = Tape::new();
            let x = tape.leaf(a.clone());
            let sq = tape.mul(x, x);
            let l1 = tape.sum_all(sq);
            let sig = tape.sigmoid(x);
            let l2 = tape.sum_all(sig);
            let loss = if combined {
                tape.add(l1, l2)
            } else {
                l1
            };
            let g = tape.backward_wrt(loss, &[x]);
            g[0].clone().unwrap()
        };
        let g_l1_only = {
            let mut tape = Tape::new();
            let x = tape.leaf(a.clone());
            let sq = tape.mul(x, x);
            let l1 = tape.sum_all(sq);
            let g = tape.backward_wrt(l1, &[x]);
            g[0].clone().unwrap()
        };
        let g_l2_only = {
            let mut tape = Tape::new();
            let x = tape.leaf(a.clone());
            let sig = tape.sigmoid(x);
            let l2 = tape.sum_all(sig);
            let g = tape.backward_wrt(l2, &[x]);
            g[0].clone().unwrap()
        };
        let combined = grad_of(true);
        let manual = stod_tensor::ops::elementwise::add(&g_l1_only, &g_l2_only);
        prop_assert!(combined.approx_eq(&manual, 1e-5));
    }

    /// Parameter serialization round-trips bit-exactly for random stores.
    #[test]
    fn param_store_roundtrip(
        tensors in proptest::collection::vec(
            (1usize..5, 1usize..5, proptest::collection::vec(-10.0f32..10.0, 25)),
            1..6,
        )
    ) {
        let mut store = ParamStore::new();
        for (i, (r, c, data)) in tensors.iter().enumerate() {
            let t = Tensor::from_vec(&[*r, *c], data[..r * c].to_vec());
            store.register(format!("p{i}"), t);
        }
        let back = ParamStore::from_bytes(store.to_bytes()).expect("roundtrip");
        prop_assert_eq!(back.len(), store.len());
        for (id, name, value) in store.iter() {
            prop_assert_eq!(back.name(id), name);
            prop_assert_eq!(back.get(id), value);
        }
    }

    /// Any non-empty trailer after a valid payload must be rejected — the
    /// serving registry treats checkpoints as untrusted input.
    #[test]
    fn param_store_rejects_trailing_bytes(
        tensors in proptest::collection::vec(
            (1usize..5, 1usize..5, proptest::collection::vec(-10.0f32..10.0, 25)),
            1..4,
        ),
        trailer in proptest::collection::vec(0u8..=255, 1..9),
    ) {
        let mut store = ParamStore::new();
        for (i, (r, c, data)) in tensors.iter().enumerate() {
            let t = Tensor::from_vec(&[*r, *c], data[..r * c].to_vec());
            store.register(format!("p{i}"), t);
        }
        let mut padded = store.to_bytes();
        padded.extend_from_slice(&trailer);
        prop_assert!(
            ParamStore::from_bytes(padded).is_err(),
            "payload + {} trailing bytes must not deserialize",
            trailer.len()
        );
    }

    /// Dropout in training mode preserves expectation (within tolerance).
    #[test]
    fn dropout_preserves_mean(p in 0.05f32..0.7, seed in 0u64..100) {
        let mut tape = Tape::new();
        let mut rng = stod_tensor::rng::Rng64::new(seed);
        let x = tape.leaf(Tensor::ones(&[4000]));
        let d = tape.dropout(x, p, true, &mut rng);
        let mean = tape.value(d).mean();
        prop_assert!((mean - 1.0).abs() < 0.15, "mean drifted to {mean} at p={p}");
    }
}
