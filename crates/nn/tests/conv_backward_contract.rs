//! Bitwise contract of the direct convolution backward.
//!
//! `conv2d_backward` (and `Conv2d::backward`, which runs it) must return
//! weight, bias and input gradients whose bits equal those of the
//! lowering it replaced: `im2col` → `gᵀ·cols` (`t_matmul`) / row sums →
//! `g·W` (`matmul`) → `col2im`. That lowering is kept as the oracle here.
//! NaN payloads are left to the implementation, so a NaN only has to
//! meet a NaN.

use cn_nn::layers::Conv2d;
use cn_nn::Layer;
use cn_tensor::ops::{col2im, conv2d_backward, im2col, nchw_to_rows, Conv2dGeometry};
use cn_tensor::{SeededRng, Tensor};

/// The lowered backward: `(dW [out_c, k], db [out_c], dx)` for the
/// unfolded kernel `w`.
fn lowered(x: &Tensor, geo: &Conv2dGeometry, w: &Tensor, g: &Tensor) -> (Tensor, Tensor, Tensor) {
    let g_rows = nchw_to_rows(g);
    let cols = im2col(x, geo);
    let dw = g_rows.t_matmul(&cols);
    let db = g_rows.sum_rows();
    let dx = col2im(&g_rows.matmul(w), geo, x.dims()[0]);
    (dw, db, dx)
}

fn assert_bits_eq(got: &Tensor, want: &Tensor, what: &str) {
    assert_eq!(got.dims(), want.dims(), "{what}: shape");
    for (i, (a, b)) in got.data().iter().zip(want.data()).enumerate() {
        assert!(
            a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan()),
            "{what}[{i}]: {a:e} ({:#010x}) vs {b:e} ({:#010x})",
            a.to_bits(),
            b.to_bits()
        );
    }
}

fn geometry(c: usize, h: usize, w: usize, k: usize, stride: usize, pad: usize) -> Conv2dGeometry {
    Conv2dGeometry {
        in_c: c,
        in_h: h,
        in_w: w,
        kh: k,
        kw: k,
        stride,
        pad,
    }
}

/// Runs the kernel and the oracle on one case and compares all three
/// gradients bit for bit.
fn check(x: &Tensor, geo: &Conv2dGeometry, w: &Tensor, g: &Tensor, case: &str) {
    let got = conv2d_backward(x, geo, w, g);
    let (dw, db, dx) = lowered(x, geo, w, g);
    assert_bits_eq(&got.weight, &dw, &format!("{case} dW"));
    assert_bits_eq(&got.bias, &db, &format!("{case} db"));
    assert_bits_eq(&got.input, &dx, &format!("{case} dx"));
}

fn random_case(
    rng: &mut SeededRng,
    n: usize,
    geo: &Conv2dGeometry,
    out_c: usize,
) -> (Tensor, Tensor, Tensor) {
    let x = rng.normal_tensor(&[n, geo.in_c, geo.in_h, geo.in_w], 0.0, 1.0);
    let w = rng.normal_tensor(&[out_c, geo.patch_len()], 0.0, 0.5);
    let g = rng.normal_tensor(&[n, out_c, geo.out_h(), geo.out_w()], 0.0, 1.0);
    (x, w, g)
}

#[test]
fn lenet_layers_at_batch_32_match_the_lowering() {
    let mut rng = SeededRng::new(1);
    // conv1 (MNIST, pad 2) and conv2, the shapes of the training workload.
    for (geo, out_c) in [
        (geometry(1, 28, 28, 5, 1, 2), 6),
        (geometry(6, 14, 14, 5, 1, 0), 16),
    ] {
        let (x, w, g) = random_case(&mut rng, 32, &geo, out_c);
        check(&x, &geo, &w, &g, &format!("{geo:?}"));
    }
}

#[test]
fn strides_pads_widths_and_channel_counts_match_the_lowering() {
    let mut rng = SeededRng::new(2);
    let mut cases = 0usize;
    for stride in 1..=3 {
        for pad in 0..=2 {
            // Widths off the 8-lane grid, in_c 1–6, out_c 1–17 (across
            // the MR boundary), kernels 1–5, and one wide block with
            // several channel and column panels.
            for (c, h, wd, k, out_c) in [
                (1, 9, 13, 3, 1),
                (2, 7, 11, 5, 9),
                (3, 10, 6, 2, 17),
                (6, 5, 9, 3, 8),
                (4, 12, 7, 1, 3),
                (5, 6, 6, 4, 16),
                (32, 6, 7, 3, 40),
            ] {
                let geo = geometry(c, h, wd, k, stride, pad);
                let n = 1 + cases % 3;
                let (x, w, g) = random_case(&mut rng, n, &geo, out_c);
                check(&x, &geo, &w, &g, &format!("{geo:?} out_c {out_c} n {n}"));
                cases += 1;
            }
        }
    }
}

#[test]
fn non_finite_gradients_and_weights_propagate_like_the_lowering() {
    let mut rng = SeededRng::new(3);
    // Padding matters here: `±inf · 0.0` over an overhanging patch
    // element is NaN in the lowering, so the kernel must multiply the
    // gathered zero rather than skip it.
    let geo = geometry(3, 9, 10, 3, 1, 1);
    let (x, mut w, mut g) = random_case(&mut rng, 2, &geo, 10);
    let gd = g.data_mut();
    gd[0] = f32::NAN;
    gd[17] = f32::INFINITY;
    gd[95] = f32::NEG_INFINITY;
    gd[301] = f32::INFINITY;
    let wd = w.data_mut();
    wd[4] = f32::NAN;
    wd[40] = f32::NEG_INFINITY;
    check(&x, &geo, &w, &g, "non-finite");
    let got = conv2d_backward(&x, &geo, &w, &g);
    assert!(got.weight.data().iter().any(|v| v.is_nan()));
    assert!(got.input.data().iter().any(|v| v.is_nan()));
}

#[test]
fn empty_batch_yields_zero_parameter_gradients() {
    let geo = geometry(2, 5, 5, 3, 1, 0);
    let w = Tensor::ones(&[4, 18]);
    let got = conv2d_backward(
        &Tensor::zeros(&[0, 2, 5, 5]),
        &geo,
        &w,
        &Tensor::zeros(&[0, 4, 3, 3]),
    );
    assert_eq!(got.weight, Tensor::zeros(&[4, 18]));
    assert_eq!(got.bias, Tensor::zeros(&[4]));
    assert_eq!(got.input.dims(), &[0, 2, 5, 5]);
}

/// `Conv2d::backward` with a live noise mask: the input gradient flows
/// through `W ⊙ mask` and the weight gradient is chained through the
/// mask, exactly as the lowered layer did.
#[test]
fn conv2d_layer_with_a_live_noise_mask_matches_the_lowering() {
    let mut rng = SeededRng::new(4);
    for (in_c, out_c, k, stride, pad, hw) in [
        (1, 6, 5, 1, 2, 28),
        (6, 16, 5, 1, 0, 14),
        (3, 7, 3, 2, 1, 11),
    ] {
        let mut conv = Conv2d::new(in_c, out_c, k, stride, pad, &mut rng);
        let mask = rng.lognormal_mask(&[out_c, in_c, k, k], 0.5);
        conv.set_noise(Some(mask.clone()));
        let x = rng.normal_tensor(&[8, in_c, hw, hw], 0.0, 1.0);
        let y = conv.forward(&x, true);
        let g = rng.normal_tensor(y.dims(), 0.0, 1.0);
        let dx = conv.backward(&g);

        let geo = geometry(in_c, hw, hw, k, stride, pad);
        let w = conv.params()[0].value.clone();
        let w_eff = w
            .zip_map(&mask, |w, m| w * m)
            .into_reshaped(&[out_c, in_c * k * k]);
        let (dw, db, dx_want) = lowered(&x, &geo, &w_eff, &g);
        let dw = dw.into_reshaped(w.dims()).zip_map(&mask, |g, m| g * m);
        // Parameter gradients accumulate into zeroed buffers.
        let mut dw_want = Tensor::zeros(w.dims());
        dw_want.axpy(1.0, &dw);
        let mut db_want = Tensor::zeros(&[out_c]);
        db_want.axpy(1.0, &db);
        let case = format!("in_c {in_c} out_c {out_c} k {k} stride {stride} pad {pad}");
        assert_bits_eq(&dx, &dx_want, &format!("{case} dx"));
        assert_bits_eq(&conv.params()[0].grad, &dw_want, &format!("{case} dW"));
        assert_bits_eq(&conv.params()[1].grad, &db_want, &format!("{case} db"));
    }
}
