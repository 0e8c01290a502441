//! Concrete layers.

pub mod activation;
pub mod batchnorm;
pub mod conv2d;
pub mod dense;
pub mod dropout;
pub mod flatten;
pub mod pool;
pub mod relu;

pub use activation::{Sigmoid, Tanh};
pub use batchnorm::BatchNorm2d;
pub use conv2d::Conv2d;
pub use dense::Dense;
pub use dropout::Dropout;
pub use flatten::Flatten;
pub use pool::{AvgPool2d, MaxPool2d};
pub use relu::Relu;

use cn_tensor::ops::gemm::{gemm_bias_act_into, MR};
use cn_tensor::ops::{Activation, Layout, PackedB};
use cn_tensor::Tensor;

/// `Dense`'s `act(x·Wᵀ_eff + bias)` dispatch into `out`:
///
/// 1. pre-packed panels when the layer was deployed via `pack_weights`,
/// 2. a direct skinny product when `x` has fewer than `MR` rows (the
///    `O(k·n)` pack would cost more than the product saves),
/// 3. pack-per-call through the fused GEMM otherwise.
///
/// All three branches are bitwise identical (see the GEMM kernel docs);
/// `w_eff` is only materialized when no pre-packed panels exist, so the
/// deployed branch writes into `out` without allocating.
pub(crate) fn matrix_infer_act(
    x: &Tensor,
    packed: Option<&PackedB>,
    w_eff: impl FnOnce() -> Tensor,
    bias: &Tensor,
    act: Activation,
    out: &mut Tensor,
) {
    if let Some(packed) = packed {
        gemm_bias_act_into(out, x, Layout::RowMajor, packed, Some(bias), act);
        return;
    }
    let w_eff = w_eff();
    if x.dims()[0] < MR {
        *out = &x.matmul_t(&w_eff) + bias;
        act.apply(out.data_mut());
    } else {
        let packed = PackedB::from_tensor(&w_eff, Layout::Transposed);
        gemm_bias_act_into(out, x, Layout::RowMajor, &packed, Some(bias), act);
    }
}

/// Writes `act(f(v))` for every element `v` of `x` into `out`, reshaped
/// in place to `x`'s dims — the `infer_into` body of every elementwise
/// layer.
pub(crate) fn map_into(x: &Tensor, act: Activation, out: &mut Tensor, f: impl Fn(f32) -> f32) {
    out.resize_in_place(x.dims());
    for (o, &v) in out.data_mut().iter_mut().zip(x.data()) {
        *o = f(v);
    }
    act.apply(out.data_mut());
}
