//! Direct NCHW forward convolution on the register-tiled micro-kernel.
//!
//! Per sample, a convolution is the product `W · colsᵀ`. `W` is the
//! `[out_c, C·kh·kw]` unfolded kernel, pre-packed into `MR`-row A panels
//! ([`PackedA`]). `colsᵀ` is the `[C·kh·kw, oh·ow]` patch matrix, which is
//! never materialized: each `NR`-wide block of output positions is
//! gathered straight from the NCHW input into one `k × NR` B panel held
//! in recycled thread-local scratch. Every A panel multiplies that B
//! panel through [`microkernel`](super::kernel::microkernel), and a
//! per-row bias/ReLU epilogue writes the tile into `[N, out_c, oh, ow]`:
//! tile rows are output channels and tile columns output positions, so
//! no layout transpose follows. Samples are the unit of parallel work.
//!
//! # Bit-exactness
//!
//! Each output element is one `f32` accumulator summed over its patch in
//! ascending k order (channel, then kernel row, then kernel column — the
//! `im2col` column order). `w·x` rounds exactly like `x·w`, gathering only
//! moves bits, and the epilogue is the same single add and `max` as
//! [`Epilogue::BiasRelu`](super::Epilogue::BiasRelu). The result is
//! therefore bitwise identical to `im2col` → GEMM → NCHW transpose.

use super::kernel;
use super::{Activation, PackedA, MR, NR};
use crate::ops::im2col::Conv2dGeometry;
use crate::parallel::parallel_chunks_mut;
use crate::tensor::Tensor;
use std::cell::RefCell;

thread_local! {
    /// Recycled B-panel scratch: grown once per thread to its high-water
    /// `k × NR` size, heap-free afterwards.
    static B_PANEL: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Forward convolution `act(W ⊛ x + bias)` of an NCHW batch into `out`,
/// which is reshaped in place to `[N, w.m(), oh, ow]` (reusing its
/// capacity) and fully overwritten.
///
/// `w` holds the unfolded `[out_c, C·kh·kw]` kernel and `bias` one value
/// per output channel.
///
/// # Panics
///
/// Panics if `x` is not rank-4, disagrees with `geo`, `w.k()` is not the
/// patch length, or `bias` does not hold `w.m()` values.
pub fn conv2d_forward_into(
    out: &mut Tensor,
    x: &Tensor,
    geo: &Conv2dGeometry,
    w: &PackedA,
    bias: &[f32],
    act: Activation,
) {
    assert_eq!(x.rank(), 4, "conv2d expects NCHW input");
    assert_eq!(
        &x.dims()[1..],
        &[geo.in_c, geo.in_h, geo.in_w],
        "conv2d: input dims disagree with the geometry"
    );
    assert_eq!(
        w.k(),
        geo.patch_len(),
        "conv2d: packed weights have k = {}, patch length is {}",
        w.k(),
        geo.patch_len()
    );
    assert_eq!(
        bias.len(),
        w.m(),
        "conv2d: bias length {} != out channels {}",
        bias.len(),
        w.m()
    );
    let (out_c, positions) = (w.m(), geo.patches_per_sample());
    out.resize_in_place(&[x.dims()[0], out_c, geo.out_h(), geo.out_w()]);
    if out.numel() == 0 {
        return;
    }
    let sample_len = geo.in_c * geo.in_h * geo.in_w;
    let xd = x.data();
    parallel_chunks_mut(out.data_mut(), out_c * positions, |n, y| {
        B_PANEL.with_borrow_mut(|scratch| {
            let len = w.k() * NR;
            if scratch.len() < len {
                scratch.resize(len, 0.0);
            }
            let x = &xd[n * sample_len..(n + 1) * sample_len];
            conv_sample(y, x, geo, w, bias, act, &mut scratch[..len]);
        });
    });
}

/// One sample: `y` is its `[out_c, oh·ow]` output, `x` its `[C, H, W]`
/// input, `panel` the `k × NR` B-panel scratch.
fn conv_sample(
    y: &mut [f32],
    x: &[f32],
    geo: &Conv2dGeometry,
    w: &PackedA,
    bias: &[f32],
    act: Activation,
    panel: &mut [f32],
) {
    let (out_c, positions) = (w.m(), geo.patches_per_sample());
    let path = kernel::select_path();
    for p0 in (0..positions).step_by(NR) {
        let cols = NR.min(positions - p0);
        gather_panel(x, geo, p0, cols, panel);
        for ip in 0..w.panels() {
            // Full tiles always: padded weight rows are zero and are
            // dropped below, padded position lanes are dropped by `cols`.
            let acc = kernel::microkernel(w.k(), w.panel(ip), panel, path);
            for (ir, acc_row) in acc.iter().enumerate().take(MR.min(out_c - ip * MR)) {
                let o = ip * MR + ir;
                let b = bias[o];
                let dst = &mut y[o * positions + p0..o * positions + p0 + cols];
                match act {
                    Activation::Identity => {
                        for (d, &v) in dst.iter_mut().zip(acc_row) {
                            *d = v + b;
                        }
                    }
                    Activation::Relu => {
                        for (d, &v) in dst.iter_mut().zip(acc_row) {
                            *d = (v + b).max(0.0);
                        }
                    }
                }
            }
        }
    }
}

/// Gathers the `k × NR` B panel of output positions `[p0, p0 + cols)`:
/// `panel[kk·NR + j]` is patch element `kk` of position `p0 + j`, and
/// `0.0` where the receptive field overhangs the image and in the
/// `NR − cols` padded lanes.
fn gather_panel(x: &[f32], geo: &Conv2dGeometry, p0: usize, cols: usize, panel: &mut [f32]) {
    let (h, w, ow) = (geo.in_h, geo.in_w, geo.out_w());
    let (kh, kw) = (geo.kh, geo.kw);
    let (stride, pad) = (geo.stride as isize, geo.pad as isize);
    // Input (row, col) of each lane's receptive-field corner.
    let mut corner = [(0isize, 0isize); NR];
    for (j, c) in corner.iter_mut().enumerate().take(cols) {
        let p = p0 + j;
        *c = (
            (p / ow) as isize * stride - pad,
            (p % ow) as isize * stride - pad,
        );
    }
    let mut rows = panel.chunks_exact_mut(NR);
    let inside = cols == NR
        && corner
            .iter()
            .all(|&(iy, ix)| iy >= 0 && iy as usize + kh <= h && ix >= 0 && ix as usize + kw <= w);
    if inside {
        // Every lane reads `x[base + off[j]]`, no bounds to test. A
        // stride-1 block within one output row reads `NR` adjacent floats.
        let off = corner.map(|(iy, ix)| iy as usize * w + ix as usize);
        let adjacent = (1..NR).all(|j| off[j] == off[0] + j);
        for c in 0..geo.in_c {
            for ky in 0..kh {
                for kx in 0..kw {
                    let base = (c * h + ky) * w + kx;
                    let row = rows.next().expect("panel holds k rows");
                    if adjacent {
                        row.copy_from_slice(&x[base + off[0]..base + off[0] + NR]);
                    } else {
                        for (v, &o) in row.iter_mut().zip(&off) {
                            *v = x[base + o];
                        }
                    }
                }
            }
        }
        return;
    }
    for c in 0..geo.in_c {
        for ky in 0..kh {
            for kx in 0..kw {
                let row = rows.next().expect("panel holds k rows");
                for (j, v) in row.iter_mut().enumerate() {
                    let (iy, ix) = (corner[j].0 + ky as isize, corner[j].1 + kx as isize);
                    let hit =
                        j < cols && iy >= 0 && (iy as usize) < h && ix >= 0 && (ix as usize) < w;
                    *v = if hit {
                        x[(c * h + iy as usize) * w + ix as usize]
                    } else {
                        0.0
                    };
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::im2col::{im2col, rows_to_nchw};
    use crate::rng::SeededRng;

    /// The lowering the kernel replaced: im2col, `cols·Wᵀ + b`, optional
    /// ReLU, NCHW transpose.
    fn lowered(x: &Tensor, geo: &Conv2dGeometry, w: &Tensor, b: &Tensor, relu: bool) -> Tensor {
        let rows = &im2col(x, geo).matmul_t(w) + b;
        let rows = if relu { rows.map(|v| v.max(0.0)) } else { rows };
        rows_to_nchw(&rows, x.dims()[0], w.dims()[0], geo.out_h(), geo.out_w())
    }

    fn geo(c: usize, h: usize, w: usize, k: usize, stride: usize, pad: usize) -> Conv2dGeometry {
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

    #[test]
    fn matches_the_im2col_lowering_bitwise() {
        let mut rng = SeededRng::new(1);
        // (batch, C, H, W, out_c, k, stride, pad): LeNet's two layers,
        // padded borders, strides that break adjacency, ragged position
        // blocks and out_c across the MR boundary.
        for (n, c, h, wd, oc, k, stride, pad) in [
            (2, 1, 28, 28, 6, 5, 1, 0),
            (2, 6, 12, 12, 16, 5, 1, 0),
            (1, 1, 28, 28, 6, 5, 1, 2),
            (3, 3, 9, 7, 9, 3, 2, 1),
            (1, 2, 5, 5, 1, 1, 1, 0),
            (2, 4, 6, 11, 8, 3, 3, 2),
            (1, 2, 3, 3, 17, 3, 1, 0),
        ] {
            let g = geo(c, h, wd, k, stride, pad);
            let x = rng.normal_tensor(&[n, c, h, wd], 0.0, 1.0);
            let wt = rng.normal_tensor(&[oc, c * k * k], 0.0, 1.0);
            let b = rng.normal_tensor(&[oc], 0.0, 1.0);
            let packed = PackedA::from_tensor(&wt);
            for (act, relu) in [(Activation::Identity, false), (Activation::Relu, true)] {
                let mut out = Tensor::zeros(&[1]);
                conv2d_forward_into(&mut out, &x, &g, &packed, b.data(), act);
                assert_eq!(out, lowered(&x, &g, &wt, &b, relu), "{g:?} oc {oc} {act:?}");
            }
        }
    }

    #[test]
    fn non_finite_inputs_propagate_like_the_lowering() {
        let g = geo(1, 4, 4, 3, 1, 1);
        let mut x = Tensor::ones(&[1, 1, 4, 4]);
        x.data_mut()[5] = f32::NAN;
        x.data_mut()[10] = f32::INFINITY;
        let wt = Tensor::ones(&[2, 9]);
        let b = Tensor::zeros(&[2]);
        let mut out = Tensor::zeros(&[1]);
        conv2d_forward_into(
            &mut out,
            &x,
            &g,
            &PackedA::from_tensor(&wt),
            b.data(),
            Activation::Identity,
        );
        let want = lowered(&x, &g, &wt, &b, false);
        for (a, b) in out.data().iter().zip(want.data()) {
            assert!(
                a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan()),
                "{a} vs {b}"
            );
        }
    }

    #[test]
    fn empty_batch_yields_an_empty_output() {
        let g = geo(1, 5, 5, 3, 1, 0);
        let wt = Tensor::ones(&[2, 9]);
        let mut out = Tensor::zeros(&[4]);
        conv2d_forward_into(
            &mut out,
            &Tensor::zeros(&[0, 1, 5, 5]),
            &g,
            &PackedA::from_tensor(&wt),
            &[0.0, 0.0],
            Activation::Relu,
        );
        assert_eq!(out.dims(), &[0, 2, 3, 3]);
    }

    #[test]
    #[should_panic(expected = "patch length")]
    fn mismatched_weights_panic() {
        let g = geo(2, 5, 5, 3, 1, 0);
        let mut out = Tensor::zeros(&[1]);
        conv2d_forward_into(
            &mut out,
            &Tensor::zeros(&[1, 2, 5, 5]),
            &g,
            &PackedA::from_tensor(&Tensor::ones(&[2, 9])),
            &[0.0, 0.0],
            Activation::Identity,
        );
    }
}
