//! Direct NCHW convolution backward on the register-tiled micro-kernel.
//!
//! [`conv2d_backward`] computes all three gradients of a convolution
//! straight from the cached NCHW input `x`, the NCHW output gradient `g`
//! and the unfolded `[out_c, k]` kernel `W` (`k = C·kh·kw`). Neither the
//! batch's `[N·oh·ow, k]` patch matrix nor its gradient is ever built;
//! the per-sample pieces the kernel does need live in recycled
//! thread-local scratch.
//!
//! - **Weight and bias gradients.** `dW = Σ_n g_n · cols_n`, where `g_n`
//!   is sample `n`'s `[out_c, oh·ow]` gradient (already its NCHW layout)
//!   and `cols_n` its `[oh·ow, k]` patch matrix. The output is tiled as
//!   `MR` output channels × `NR` patch columns. For each sample, `g_n` is
//!   packed into A panels and one `oh·ow × NR` B panel per column block
//!   is gathered from a zero-bordered copy of the sample, and each tile
//!   continues its stored accumulator through
//!   [`microkernel_acc`](super::kernel::microkernel_acc).
//!   Patch column `k` is the constant `1.0` (the input a bias multiplies),
//!   so the bias gradient is that column of the same product.
//!   Column blocks are the unit of parallel work.
//! - **Input gradient.** Per sample, `Wᵀ · g_n` runs block by block of
//!   `NR` output positions into the transposed patch-matrix gradient
//!   `[k, oh·ow]` (thread scratch), which is then folded into the
//!   sample's `[C, H, W]` gradient one kernel tap at a time: each tap
//!   adds a shifted copy of its row to the image, contiguous at
//!   stride 1. Samples are the unit of parallel work.
//!
//! # Bit-exactness
//!
//! The float ops are those of the lowering this kernel replaced
//! (`im2col` → `gᵀ·cols` / row sums / `g·W` → `col2im`):
//!
//! - each `dW` and `db` element is one `f32` accumulator from `0.0`
//!   over ascending `(n, oy, ox)`, one rounded multiply then add per
//!   step (`g·1.0` is exactly `g`; an overhanging patch element is a
//!   gathered `0.0`, so `±inf·0.0` still yields NaN);
//! - each input-gradient pixel starts at `0.0` and adds, in ascending
//!   `(oy, ox)` order, the rounded inner sum `Σ_oc g·w` taken in
//!   ascending `oc` order (see `fold_patches` for why the tap order
//!   delivers this).
//!
//! Work is split over output elements only (column blocks, samples) and
//! never across a reduction, so results do not depend on the thread
//! count.

use super::kernel::{self, KernelPath};
use super::pack::pack_a_block;
use super::{Layout, MR, NR};
use crate::ops::im2col::Conv2dGeometry;
use crate::parallel::{num_threads, parallel_chunks_mut};
use crate::tensor::Tensor;
use std::cell::RefCell;
use std::ops::Range;

thread_local! {
    /// Recycled per-thread panels, bordered samples and patch
    /// gradients: grown once to the thread's high-water size, heap-free
    /// afterwards.
    static SCRATCH: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` over `len` floats of this thread's scratch, contents
/// unspecified.
fn with_scratch<R>(len: usize, f: impl FnOnce(&mut [f32]) -> R) -> R {
    SCRATCH.with_borrow_mut(|s| {
        if s.len() < len {
            s.resize(len, 0.0);
        }
        f(&mut s[..len])
    })
}

/// The three gradients of a convolution, as returned by
/// [`conv2d_backward`].
#[derive(Debug)]
pub struct ConvGradients {
    /// `[out_c, C·kh·kw]` gradient of the unfolded kernel.
    pub weight: Tensor,
    /// `[out_c]` bias gradient.
    pub bias: Tensor,
    /// `[N, C, H, W]` input gradient.
    pub input: Tensor,
}

/// Backward pass of `y = W ⊛ x + b` for an NCHW batch: weight, bias and
/// input gradients from the input `x`, the unfolded `[out_c, C·kh·kw]`
/// kernel `w` the forward pass used and the output gradient `grad`
/// (`[N, out_c, oh, ow]`). See the module docs for the float-op order.
///
/// # Panics
///
/// Panics if `x` disagrees with `geo`, `w` is not `[out_c, patch_len]`
/// or `grad` is not `[N, out_c, oh, ow]`.
pub fn conv2d_backward(
    x: &Tensor,
    geo: &Conv2dGeometry,
    w: &Tensor,
    grad: &Tensor,
) -> ConvGradients {
    assert_eq!(x.rank(), 4, "conv2d_backward expects NCHW input");
    assert_eq!(
        &x.dims()[1..],
        &[geo.in_c, geo.in_h, geo.in_w],
        "conv2d_backward: input dims disagree with the geometry"
    );
    assert!(
        w.rank() == 2 && w.dims()[1] == geo.patch_len(),
        "conv2d_backward: kernel must be [out_c, {}], got {:?}",
        geo.patch_len(),
        w.dims()
    );
    let (batch, out_c) = (x.dims()[0], w.dims()[0]);
    assert_eq!(
        grad.dims(),
        &[batch, out_c, geo.out_h(), geo.out_w()],
        "conv2d_backward: output gradient shape mismatch"
    );
    let path = kernel::select_path();
    let (weight, bias) = weight_and_bias_grads(x.data(), grad.data(), batch, out_c, geo, path);
    let input = input_grad(grad.data(), w.data(), batch, out_c, geo, path);
    ConvGradients {
        weight,
        bias,
        input,
    }
}

/// `dW` and `db`: one `MR × NR` accumulator tile per (channel block,
/// patch-column block), each carried across every sample.
fn weight_and_bias_grads(
    x: &[f32],
    g: &[f32],
    batch: usize,
    out_c: usize,
    geo: &Conv2dGeometry,
    path: KernelPath,
) -> (Tensor, Tensor) {
    let (k, positions) = (geo.patch_len(), geo.patches_per_sample());
    let sample_len = geo.in_c * geo.in_h * geo.in_w;
    let row_panels = out_c.div_ceil(MR);
    // Patch columns 0..k plus the constant bias column k.
    let col_panels = (k + 1).div_ceil(NR);
    let per_chunk = col_panels.div_ceil(num_threads());
    let mut tiles = vec![[[0.0f32; NR]; MR]; col_panels * row_panels];
    let padded_len = geo.in_c * (geo.in_h + 2 * geo.pad) * (geo.in_w + 2 * geo.pad);
    parallel_chunks_mut(&mut tiles, per_chunk * row_panels, |ci, chunk| {
        let (a_len, b_len) = (row_panels * MR * positions, positions * NR);
        with_scratch(a_len + b_len + padded_len, |scratch| {
            let (a, rest) = scratch.split_at_mut(a_len);
            let (b, x_pad) = rest.split_at_mut(b_len);
            // `pack_a_block` leaves the padded channel rows alone and
            // `pad_sample` the border, so zero both once for the chunk.
            a.fill(0.0);
            x_pad.fill(0.0);
            for n in 0..batch {
                let g_n = &g[n * out_c * positions..(n + 1) * out_c * positions];
                pack_a_block(g_n, out_c, positions, Layout::RowMajor, 0, out_c, a);
                pad_sample(&x[n * sample_len..(n + 1) * sample_len], geo, x_pad);
                for (local, col_tiles) in chunk.chunks_exact_mut(row_panels).enumerate() {
                    gather_patch_columns(x_pad, geo, (ci * per_chunk + local) * NR, b);
                    for (ip, acc) in col_tiles.iter_mut().enumerate() {
                        let ap = &a[ip * MR * positions..(ip + 1) * MR * positions];
                        kernel::microkernel_acc(positions, ap, b, acc, path);
                    }
                }
            }
        });
    });
    let mut weight = Tensor::zeros(&[out_c, k]);
    let mut bias = Tensor::zeros(&[out_c]);
    let (wd, bd) = (weight.data_mut(), bias.data_mut());
    for (t, tile) in tiles.iter().enumerate() {
        let (jp, ip) = (t / row_panels, t % row_panels);
        for (ir, row) in tile.iter().enumerate().take(MR.min(out_c - ip * MR)) {
            let o = ip * MR + ir;
            for (j, &v) in row.iter().enumerate() {
                let kk = jp * NR + j;
                if kk < k {
                    wd[o * k + kk] = v;
                } else if kk == k {
                    bd[o] = v;
                }
            }
        }
    }
    (weight, bias)
}

/// Copies one `[C, H, W]` sample into the interior of its zero-bordered
/// `[C, H + 2·pad, W + 2·pad]` image `x_pad` (border already zero).
fn pad_sample(x: &[f32], geo: &Conv2dGeometry, x_pad: &mut [f32]) {
    let (w, pad) = (geo.in_w, geo.pad);
    let wp = w + 2 * pad;
    let (planes, rows) = (
        x_pad.chunks_exact_mut((geo.in_h + 2 * pad) * wp),
        x.chunks_exact(w),
    );
    let dst_rows = planes.flat_map(|plane| plane.chunks_exact_mut(wp).skip(pad).take(geo.in_h));
    for (dst, src) in dst_rows.zip(rows) {
        dst[pad..pad + w].copy_from_slice(src);
    }
}

/// Gathers the `oh·ow × NR` B panel of patch columns `[kk0, kk0 + NR)`
/// from the zero-bordered sample `x_pad`: `panel[p·NR + j]` is patch
/// element `kk0 + j` of output position `p` (the border's `0.0` where
/// the receptive field overhangs the image), `1.0` in the bias column
/// `k` and `0.0` beyond it.
fn gather_patch_columns(x_pad: &[f32], geo: &Conv2dGeometry, kk0: usize, panel: &mut [f32]) {
    let (kh, kw, k, s) = (geo.kh, geo.kw, geo.patch_len(), geo.stride);
    let (hp, wp) = (geo.in_h + 2 * geo.pad, geo.in_w + 2 * geo.pad);
    let live = NR.min(k - kk0);
    // Offset of each live lane's element from the receptive field's
    // corner; the other lanes read the corner and are overwritten.
    let mut off = [0usize; NR];
    for (j, o) in off.iter_mut().enumerate().take(live) {
        let kk = kk0 + j;
        let (c, ky, kx) = (kk / (kh * kw), (kk / kw) % kh, kk % kw);
        *o = (c * hp + ky) * wp + kx;
    }
    let mut tail = [0.0f32; NR];
    if k < kk0 + NR {
        tail[k - kk0] = 1.0;
    }
    let mut rows = panel.chunks_exact_mut(NR);
    for oy in 0..geo.out_h() {
        for ox in 0..geo.out_w() {
            let corner = oy * s * wp + ox * s;
            let lanes: &mut [f32; NR] = rows.next().unwrap().try_into().unwrap();
            *lanes = off.map(|o| x_pad[corner + o]);
            // Only the last column block has lanes past k.
            if live < NR {
                lanes[live..].copy_from_slice(&tail[live..]);
            }
        }
    }
}

/// The output indices `o` whose input index `o·stride + tap − pad`
/// lies inside `[0, len)`, for a kernel tap along an axis with `out`
/// outputs.
fn valid_outputs(tap: usize, len: usize, out: usize, geo: &Conv2dGeometry) -> Range<usize> {
    let (s, pad) = (geo.stride, geo.pad);
    let lo = pad.saturating_sub(tap).div_ceil(s);
    let hi = out.min((len + pad).saturating_sub(tap).div_ceil(s));
    lo..hi.max(lo)
}

/// `dx`: per sample, the transposed patch-matrix gradient `Wᵀ · g_n`
/// block by block, then folded into the sample's input gradient.
fn input_grad(
    g: &[f32],
    w: &[f32],
    batch: usize,
    out_c: usize,
    geo: &Conv2dGeometry,
    path: KernelPath,
) -> Tensor {
    let (k, positions) = (geo.patch_len(), geo.patches_per_sample());
    let sample_len = geo.in_c * geo.in_h * geo.in_w;
    let mut dx = Tensor::zeros(&[batch, geo.in_c, geo.in_h, geo.in_w]);
    if dx.numel() == 0 {
        return dx;
    }
    let k_panels = k.div_ceil(MR);
    let per_chunk = batch.div_ceil(num_threads());
    parallel_chunks_mut(dx.data_mut(), per_chunk * sample_len, |ci, chunk| {
        let (wt_len, b_len) = (k_panels * MR * out_c, out_c * NR);
        with_scratch(wt_len + b_len + k * positions, |scratch| {
            let (wt, rest) = scratch.split_at_mut(wt_len);
            let (b, cols_t) = rest.split_at_mut(b_len);
            // `Wᵀ` as MR-row A panels: logical `[k, out_c]`, stored as
            // the `[out_c, k]` kernel. The padded rows stay zero.
            wt.fill(0.0);
            pack_a_block(w, k, out_c, Layout::Transposed, 0, k, wt);
            for (local, dx_n) in chunk.chunks_exact_mut(sample_len).enumerate() {
                let n = ci * per_chunk + local;
                let g_n = &g[n * out_c * positions..(n + 1) * out_c * positions];
                for p0 in (0..positions).step_by(NR) {
                    let cols = NR.min(positions - p0);
                    // B panel: the block's gradient, `b[oc·NR + j]` =
                    // g_n[oc, p0 + j], zero in the padded lanes.
                    for (oc, brow) in b.chunks_exact_mut(NR).enumerate() {
                        copy_lanes(brow, &g_n[oc * positions + p0..oc * positions + p0 + cols]);
                    }
                    for (ip, ap) in wt.chunks_exact(MR * out_c).enumerate() {
                        let acc = kernel::microkernel(out_c, ap, b, path);
                        for (ir, acc_row) in acc.iter().enumerate().take(MR.min(k - ip * MR)) {
                            let row = (ip * MR + ir) * positions + p0;
                            copy_lanes(&mut cols_t[row..row + cols], &acc_row[..cols]);
                        }
                    }
                }
                fold_patches(cols_t, geo, dx_n);
            }
        });
    });
    dx
}

/// Copies `src` into the front of `dst` and zeroes the rest. The common
/// full `NR`-lane block takes a fixed-size copy: a runtime-length
/// `copy_from_slice` is a `memcpy` call, which costs more than the
/// 8 floats it moves.
#[inline(always)]
fn copy_lanes(dst: &mut [f32], src: &[f32]) {
    match (
        <&mut [f32; NR]>::try_from(&mut *dst),
        <&[f32; NR]>::try_from(src),
    ) {
        (Ok(d), Ok(s)) => *d = *s,
        _ => {
            dst[..src.len()].copy_from_slice(src);
            dst[src.len()..].fill(0.0);
        }
    }
}

/// Adds the transposed patch-matrix gradient `cols_t` (`[k, oh·ow]`, row
/// `kk` one kernel tap over every output position) of one sample into
/// its zeroed `[C, H, W]` gradient `dx`, dropping taps that overhang the
/// image.
///
/// Taps run in descending `(ky, kx)` order. A pixel receives at most one
/// value per tap, from output position `((iy + pad − ky)/s, (ix + pad −
/// kx)/s)`, so descending taps deliver its values in ascending
/// `(oy, ox)` order — the order of the row-by-row `col2im` scatter.
fn fold_patches(cols_t: &[f32], geo: &Conv2dGeometry, dx: &mut [f32]) {
    let (h, w, oh, ow) = (geo.in_h, geo.in_w, geo.out_h(), geo.out_w());
    let (s, pad) = (geo.stride, geo.pad);
    for (c, plane) in dx.chunks_exact_mut(h * w).enumerate() {
        for ky in (0..geo.kh).rev() {
            for kx in (0..geo.kw).rev() {
                let tap = (c * geo.kh + ky) * geo.kw + kx;
                let src = &cols_t[tap * oh * ow..(tap + 1) * oh * ow];
                let oxs = valid_outputs(kx, w, ow, geo);
                if oxs.is_empty() {
                    continue;
                }
                let ix0 = oxs.start * s + kx - pad;
                for oy in valid_outputs(ky, h, oh, geo) {
                    let row = &mut plane[(oy * s + ky - pad) * w..][..w];
                    let src = &src[oy * ow + oxs.start..oy * ow + oxs.end];
                    if s == 1 {
                        for (d, &v) in row[ix0..ix0 + src.len()].iter_mut().zip(src) {
                            *d += v;
                        }
                    } else {
                        for (d, &v) in row[ix0..].iter_mut().step_by(s).zip(src) {
                            *d += v;
                        }
                    }
                }
            }
        }
    }
}
