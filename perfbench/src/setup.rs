//! What the workloads share: the variation level, the dataset, the
//! Lipschitz-regularized training step and the deployed LeNet-5.

use crate::measure::median;
use crate::trace::Tracer;
use crate::Sizes;
use cn_data::{synthetic_mnist, BatchIter, Dataset, TrainTest};
use cn_nn::loss::softmax_cross_entropy;
use cn_nn::optim::{Adam, Optimizer};
use cn_nn::trainer::epoch_shuffle_rng;
use cn_nn::zoo::{lenet5, LeNetConfig};
use cn_nn::Sequential;
use cn_tensor::Tensor;
use correctnet::LipschitzRegularizer;
use std::time::Instant;

/// The paper's variation level: σ = 0.5 log-normal weight variation.
pub const SIGMA: f32 = 0.5;
/// Lipschitz penalty strength β of eq. 11.
pub const BETA: f32 = 1e-3;
/// Adam learning rate: the pipeline's regularized phase (`base_lr / 2`).
pub const LR: f32 = 1e-3;
/// Training mini-batch size.
pub const BATCH: usize = 32;
/// Evaluation and Monte-Carlo batch size.
pub const EVAL_BATCH: usize = 64;
/// Generation seed of fig2's MNIST stand-in.
const DATA_SEED: u64 = 0x3a57;
/// Initialization, shuffle and compile seeds of the deployed LeNet-5.
/// They are fixed: the deployment is the system under test, and the
/// workload seed only draws what is sent to it.
const DEPLOY_INIT_SEED: u64 = 0x1e5;
const DEPLOY_SHUFFLE_SEED: u64 = 0x5f1;
/// Compile seed of the served deployment.
pub const DEPLOY_COMPILE_SEED: u64 = 0xc0de;

/// The synthetic MNIST stand-in at the benchmark's sizes.
pub fn dataset(sizes: &Sizes) -> TrainTest {
    synthetic_mnist(sizes.train_images, sizes.test_images, DATA_SEED)
}

/// Lipschitz-regularized training that drives the same public calls in
/// the same order as `Trainer::fit` with a `LipschitzRegularizer::apply`
/// hook — `BatchIter` (a fresh `epoch_shuffle_rng` permutation per
/// epoch), `zero_grad`, `Sequential::forward`, `softmax_cross_entropy`,
/// `backward`, the penalty and `Optimizer::step` — one step at a time,
/// so the benchmark can time and trace each step.
pub struct Training<'d> {
    /// The network being trained.
    pub model: Sequential,
    opt: Adam,
    reg: LipschitzRegularizer,
    data: &'d Dataset,
    shuffle_seed: u64,
    epoch: usize,
    batches: BatchIter<'d>,
}

impl<'d> Training<'d> {
    /// Starts epoch 0 over `data`.
    pub fn new(model: Sequential, data: &'d Dataset, shuffle_seed: u64) -> Training<'d> {
        let batches = BatchIter::with_rng(data, BATCH, &mut epoch_shuffle_rng(shuffle_seed, 0));
        Training {
            model,
            opt: Adam::new(LR),
            reg: LipschitzRegularizer::for_sigma(BETA, SIGMA),
            data,
            shuffle_seed,
            epoch: 0,
            batches,
        }
    }

    fn next_batch(&mut self) -> (Tensor, Vec<usize>) {
        if let Some(batch) = self.batches.next() {
            return batch;
        }
        self.epoch += 1;
        let mut shuffle = epoch_shuffle_rng(self.shuffle_seed, self.epoch);
        self.batches = BatchIter::with_rng(self.data, BATCH, &mut shuffle);
        self.batches.next().expect("the training set is not empty")
    }

    /// One training step; returns the task loss and the batch's rows.
    ///
    /// With `by_layer` the forward and backward passes replay
    /// `Layer::forward` / `Layer::backward` layer by layer, which is
    /// exactly what `Sequential::forward` / `backward` do, under one span
    /// per layer instead of one per pass.
    pub fn step(&mut self, t: &mut Tracer, by_layer: bool) -> (f32, usize) {
        let (x, y) = t.span("data.batch", |_| self.next_batch());
        self.model.zero_grad();
        let logits = if by_layer {
            self.forward_by_layer(&x, t)
        } else {
            t.span("nn.forward", |_| self.model.forward(&x, true))
        };
        let (loss, grad) = t.span("nn.loss", |_| softmax_cross_entropy(&logits, &y));
        if by_layer {
            self.backward_by_layer(&grad, t);
        } else {
            t.span("nn.backward", |_| self.model.backward(&grad));
        }
        t.span("core.lipschitz", |_| self.reg.apply(&mut self.model));
        t.span("nn.optim", |_| {
            let mut params = self.model.params_mut();
            self.opt.step(&mut params);
        });
        (loss, y.len())
    }

    fn forward_by_layer(&mut self, x: &Tensor, t: &mut Tracer) -> Tensor {
        let mut cur = x.clone();
        for i in 0..self.model.len() {
            let name = layer_span(self.model.layer_name(i), true);
            cur = t.span(name, |_| self.model.layer_mut(i).forward(&cur, true));
        }
        cur
    }

    fn backward_by_layer(&mut self, grad: &Tensor, t: &mut Tracer) {
        let mut g = grad.clone();
        for i in (0..self.model.len()).rev() {
            let name = layer_span(self.model.layer_name(i), false);
            g = t.span(name, |_| self.model.layer_mut(i).backward(&g));
        }
    }
}

/// The per-layer span name: LeNet-5's three largest layers by MACs get
/// their own, everything else (activations, pooling, flatten, fc2, fc3)
/// shares `other`.
fn layer_span(layer: &str, forward: bool) -> &'static str {
    match (layer, forward) {
        ("conv1", true) => "layer.conv1.fwd",
        ("conv1", false) => "layer.conv1.bwd",
        ("conv2", true) => "layer.conv2.fwd",
        ("conv2", false) => "layer.conv2.bwd",
        ("fc1", true) => "layer.fc1.fwd",
        ("fc1", false) => "layer.fc1.bwd",
        (_, true) => "layer.other.fwd",
        (_, false) => "layer.other.bwd",
    }
}

/// Multiply-accumulates of one sample's forward pass through the
/// convolution and dense layers, counted from their weight and output
/// shapes (`output elements × weights per output channel`).
pub fn forward_macs_per_sample(model: &Sequential, sample_dims: &[usize]) -> f64 {
    let mut dims = vec![1];
    dims.extend_from_slice(sample_dims);
    let mut cur = Tensor::zeros(&dims);
    let mut macs = 0.0;
    for i in 0..model.len() {
        let layer = model.layer(i);
        cur = layer.infer(&cur);
        if let Some(weight) = layer.noise_dims() {
            let per_channel = weight.iter().product::<usize>() / cur.dims()[1];
            macs += (cur.numel() * per_channel) as f64;
        }
    }
    macs
}

/// Clean (digital) test accuracy through the `&self` inference path.
pub fn test_accuracy(model: &Sequential, test: &Dataset) -> f32 {
    let mut hits = 0usize;
    for (x, y) in BatchIter::new(test, EVAL_BATCH, None) {
        let preds = model.infer(&x).argmax_rows();
        hits += preds.iter().zip(&y).filter(|(p, l)| p == l).count();
    }
    hits as f32 / test.len() as f32
}

/// Every parameter's bits, for bitwise comparisons between models.
pub fn state_bits(model: &Sequential) -> Vec<u32> {
    model
        .state_dict()
        .iter()
        .flat_map(|(_, t)| t.data().iter().map(|v| v.to_bits()))
        .collect()
}

/// The LeNet-5 the `mc_sweep` and `wire` workloads deploy: trained for
/// `sizes.deploy_steps` Lipschitz-regularized steps from a fixed seed.
pub fn deployed_model(data: &TrainTest, sizes: &Sizes) -> Sequential {
    let model = lenet5(&LeNetConfig::mnist(DEPLOY_INIT_SEED));
    let mut training = Training::new(model, &data.train, DEPLOY_SHUFFLE_SEED);
    let mut off = Tracer::off();
    for _ in 0..sizes.deploy_steps {
        training.step(&mut off, false);
    }
    training.model
}

/// Runs `prepare` `reps` times and returns the median wall time in
/// seconds, the last result, and whether every result's `key` equalled
/// the first's (setup must be deterministic). Earlier results go to
/// `discard`, outside the timing.
pub fn timed_setup<T, K: PartialEq>(
    reps: usize,
    mut prepare: impl FnMut() -> T,
    key: impl Fn(&T) -> K,
    mut discard: impl FnMut(T),
) -> (f64, T, bool) {
    assert!(reps > 0, "at least one setup repetition");
    let mut times = Vec::with_capacity(reps);
    let mut first_key = None;
    let mut same = true;
    let mut last = None;
    for _ in 0..reps {
        if let Some(previous) = last.take() {
            discard(previous);
        }
        let start = Instant::now();
        let value = prepare();
        times.push(start.elapsed().as_secs_f64());
        let k = key(&value);
        match &first_key {
            None => first_key = Some(k),
            Some(first) => same &= *first == k,
        }
        last = Some(value);
    }
    (median(&times), last.expect("reps > 0"), same)
}
