//! The single inference contract of `Layer::infer_into`, pinned for every
//! layer type in the workspace.
//!
//! For each layer, starting from an output tensor that holds stale data
//! at a larger, different shape:
//!
//! - `infer_into(x, Identity, out)` equals `forward(x, false)` bitwise;
//! - `infer_into(x, Relu, out)` equals that output mapped by
//!   `v.max(0.0)`, bitwise.
//!
//! `Dense`, `Conv2d` and both compensation wrappers run packed and
//! unpacked; the unpacked `Dense` covers both the skinny (< `MR` rows)
//! and the pack-per-call branch.

use cn_nn::layers::{
    AvgPool2d, BatchNorm2d, Conv2d, Dense, Dropout, Flatten, MaxPool2d, Relu, Sigmoid, Tanh,
};
use cn_nn::Layer;
use cn_tensor::ops::Activation;
use cn_tensor::{SeededRng, Tensor};
use correctnet::compensation::{CompensatedConv2d, CompensatedDense};

/// Shape and exact bit patterns, so `-0.0` vs `0.0` or a NaN payload
/// counts as a difference.
fn bits(t: &Tensor) -> (Vec<usize>, Vec<u32>) {
    (
        t.dims().to_vec(),
        t.data().iter().map(|v| v.to_bits()).collect(),
    )
}

/// Adds small noise to every parameter, so identity-initialized parts
/// (compensators, batch-norm affine) take part in the result.
fn perturb(layer: &mut dyn Layer, rng: &mut SeededRng) {
    for p in layer.params_mut() {
        p.value = &p.value + &rng.normal_tensor(p.value.dims(), 0.0, 0.2);
    }
}

/// One row per case: the layer, its input, and whether it has packable
/// weights (those rows also run after `pack_weights`).
fn table() -> Vec<(Box<dyn Layer>, Tensor, bool)> {
    let mut rows: Vec<(Box<dyn Layer>, Tensor, bool)> = Vec::new();

    let mut r = SeededRng::new(11);
    let dense = Dense::new(8, 6, &mut r);
    rows.push((Box::new(dense), r.normal_tensor(&[4, 8], 0.0, 1.0), true));
    let mut r = SeededRng::new(9);
    let conv = Conv2d::new(1, 3, 3, 1, 1, &mut r);
    let x = r.normal_tensor(&[2, 1, 5, 5], 0.0, 1.0);
    rows.push((Box::new(conv), x, true));

    let mut rng = SeededRng::new(2024);
    // ≥ MR rows: the pack-per-call branch when unpacked.
    let dense = Dense::new(17, 11, &mut rng);
    let x = rng.normal_tensor(&[13, 17], 0.0, 1.0);
    rows.push((Box::new(dense), x, true));
    let conv = Conv2d::new(2, 5, 3, 2, 1, &mut rng);
    let x = rng.normal_tensor(&[3, 2, 7, 7], 0.0, 1.0);
    rows.push((Box::new(conv), x, true));
    let mut comp = CompensatedDense::wrap(Dense::new(6, 5, &mut rng), 0.5, 31);
    perturb(&mut comp, &mut rng);
    rows.push((Box::new(comp), rng.normal_tensor(&[9, 6], 0.0, 1.0), true));
    let mut comp = CompensatedConv2d::wrap(Conv2d::new(2, 4, 3, 1, 1, &mut rng), 0.5, 32);
    perturb(&mut comp, &mut rng);
    let x = rng.normal_tensor(&[2, 2, 6, 6], 0.0, 1.0);
    rows.push((Box::new(comp), x, true));

    // Train once so the running statistics are not the identity.
    let mut bn = BatchNorm2d::new(3);
    perturb(&mut bn, &mut rng);
    bn.forward(&rng.normal_tensor(&[4, 3, 6, 6], 0.5, 2.0), true);
    let digital: Vec<Box<dyn Layer>> = vec![
        Box::new(bn),
        Box::new(Relu::new()),
        Box::new(Sigmoid::new()),
        Box::new(Tanh::new()),
        Box::new(Dropout::new(0.5, 3)),
        Box::new(Flatten::new()),
        Box::new(MaxPool2d::new(2)),
        Box::new(AvgPool2d::new(3)),
    ];
    for layer in digital {
        rows.push((layer, rng.normal_tensor(&[2, 3, 6, 6], 0.0, 1.0), false));
    }
    rows
}

#[test]
fn every_layer_meets_the_infer_into_contract() {
    let mut covered = std::collections::BTreeSet::new();
    for (layer, x, packable) in table() {
        let name = layer.name().to_string();
        let reference = layer.clone_box().forward(&x, false);
        let relu_reference = reference.map(|v| v.max(0.0));
        for pack in [false, true] {
            if pack && !packable {
                continue;
            }
            let mut layer = layer.clone_box();
            if pack {
                layer.pack_weights();
            }
            for (act, expect) in [
                (Activation::Identity, &reference),
                (Activation::Relu, &relu_reference),
            ] {
                let mut out = Tensor::full(&[4, 16, 16, 16], 1234.5);
                assert!(
                    out.numel() > expect.numel(),
                    "{name}: stale buffer too small"
                );
                layer.infer_into(&x, act, &mut out);
                let what = format!("{name} (packed: {pack}) under {act:?}");
                assert_eq!(bits(&out), bits(expect), "{what}");
            }
            assert_eq!(bits(&layer.infer(&x)), bits(&reference), "{name}: infer");
        }
        covered.insert(name);
    }
    // Every one of the twelve layer types took part.
    assert_eq!(covered.len(), 12, "{covered:?}");
}
