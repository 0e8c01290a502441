//! Execute step: sessions running batched inference on compiled models.

use super::compiled::CompiledModel;
use cn_data::Dataset;
use cn_nn::inference::{evaluate_infer, BatchScratch};
use cn_nn::{InferScratch, ShapePlan};
use cn_tensor::Tensor;
use std::sync::Arc;

/// Planned per-session inference memory: the shape plan a scratch was
/// sized from, plus the scratch itself. Rebuilt whenever an input stops
/// fitting the plan.
struct PlannedScratch {
    plan: ShapePlan,
    scratch: InferScratch,
}

/// An inference session bound to a [`CompiledModel`].
///
/// The compiled snapshot is shared (many sessions, e.g. one per serving
/// thread, can hold the same `Arc`); the session owns the mutable
/// per-caller state — [`ShapePlan`]-sized ping-pong activation buffers
/// for the layer stack, plus reusable batch-assembly and
/// prediction buffers. After the first batch at a given shape (warmup,
/// which sizes the plan), repeated [`infer_batch`](Session::infer_batch) /
/// [`logits_ref`](Session::logits_ref) calls perform **zero heap
/// allocations**: every intermediate lives in session-owned memory, and
/// the weights were programmed once at compile time.
pub struct Session {
    compiled: Arc<CompiledModel>,
    scratch: BatchScratch,
    planned: Option<PlannedScratch>,
    batches: u64,
}

impl Session {
    /// Opens a session on a compiled deployment. Inference scratch is
    /// planned lazily on the first batch; use
    /// [`with_plan`](Session::with_plan) to pay the planning cost up
    /// front.
    pub fn new(compiled: Arc<CompiledModel>) -> Self {
        Session {
            compiled,
            scratch: BatchScratch::new(),
            planned: None,
            batches: 0,
        }
    }

    /// Opens a session with inference scratch pre-sized for
    /// `[max_batch, …sample_dims]` inputs, so the first batch already
    /// runs in planned memory.
    pub fn with_plan(
        compiled: Arc<CompiledModel>,
        sample_dims: &[usize],
        max_batch: usize,
    ) -> Self {
        let plan = compiled.shape_plan(sample_dims, max_batch);
        let scratch = InferScratch::from_plan(&plan);
        Session {
            compiled,
            scratch: BatchScratch::new(),
            planned: Some(PlannedScratch { plan, scratch }),
            batches: 0,
        }
    }

    /// The compiled model this session executes.
    pub fn compiled(&self) -> &Arc<CompiledModel> {
        &self.compiled
    }

    /// Rebinds the session to another compiled instance, keeping the
    /// batch-assembly scratch (used by the Monte-Carlo driver to run N
    /// instances through one session per worker). The inference plan is
    /// dropped — the new instance may have a different architecture — and
    /// re-measured on the next batch.
    pub fn rebind(&mut self, compiled: Arc<CompiledModel>) {
        self.compiled = compiled;
        self.planned = None;
    }

    /// Ensures the planned scratch covers `x`, re-planning when the
    /// session has none or the shape outgrew it (plan-time allocations
    /// are warmup by definition).
    fn ensure_planned(&mut self, x: &Tensor) {
        let covered = self
            .planned
            .as_ref()
            .is_some_and(|p| p.plan.covers(x.dims()));
        if !covered {
            let plan = self.compiled.shape_plan(&x.dims()[1..], x.dims()[0].max(1));
            let scratch = InferScratch::from_plan(&plan);
            self.planned = Some(PlannedScratch { plan, scratch });
        }
    }

    /// Logits for one input batch, borrowed from the session's planned
    /// scratch — the allocation-free entry point. The reference is valid
    /// until the next inference call.
    pub fn logits_ref(&mut self, x: &Tensor) -> &Tensor {
        self.batches += 1;
        self.ensure_planned(x);
        let planned = self.planned.as_mut().expect("planned above");
        self.compiled.infer_with(x, &mut planned.scratch)
    }

    /// Logits for one input batch, as an owned tensor.
    pub fn logits_batch(&mut self, x: &Tensor) -> Tensor {
        // cn-lint: allow(alloc-in-hot-loop, reason = "owned-result convenience wrapper; allocation-free callers use logits_ref / infer_batch")
        self.logits_ref(x).clone()
    }

    /// Predicted class indices for one input batch, written into the
    /// session's reusable prediction buffer.
    pub fn infer_batch(&mut self, x: &Tensor) -> &[usize] {
        self.batches += 1;
        self.ensure_planned(x);
        let planned = self.planned.as_mut().expect("planned above");
        let logits = self.compiled.infer_with(x, &mut planned.scratch);
        self.scratch.argmax_into(logits)
    }

    /// Logits **and** predicted classes for one batch, both borrowed from
    /// session scratch — what a serving worker needs to build replies
    /// without allocating.
    pub fn infer_logits_preds(&mut self, x: &Tensor) -> (&Tensor, &[usize]) {
        self.batches += 1;
        self.ensure_planned(x);
        let planned = self.planned.as_mut().expect("planned above");
        let logits = self.compiled.infer_with(x, &mut planned.scratch);
        let preds = self.scratch.argmax_into(logits);
        (logits, preds)
    }

    /// Batched test accuracy of the compiled deployment over `data`
    /// (bitwise-identical protocol to `cn_nn::metrics::evaluate`).
    pub fn evaluate(&mut self, data: &Dataset, batch_size: usize) -> f32 {
        self.batches += data.len().div_ceil(batch_size) as u64;
        evaluate_infer(self.compiled.model(), data, batch_size, &mut self.scratch)
    }

    /// The shape plan currently backing the session's inference scratch
    /// (None before the first batch of a lazily planned session).
    pub fn plan(&self) -> Option<&ShapePlan> {
        self.planned.as_ref().map(|p| &p.plan)
    }

    /// Number of batches this session has executed (across rebinds).
    pub fn batches_run(&self) -> u64 {
        self.batches
    }
}

#[cfg(test)]
mod tests {
    use super::super::{AnalogBackend, EngineBuilder};
    use super::*;
    use cn_data::synthetic_mnist;
    use cn_nn::zoo::{lenet5, LeNetConfig};
    use cn_tensor::SeededRng;

    #[test]
    fn repeated_infer_batch_is_stable_and_counted() {
        let model = lenet5(&LeNetConfig::mnist(1));
        let compiled = EngineBuilder::new(&model)
            .backend(AnalogBackend::lognormal(0.3))
            .seed(2)
            .compile()
            .shared();
        let mut session = Session::new(compiled);
        let x = SeededRng::new(3).normal_tensor(&[4, 1, 28, 28], 0.0, 1.0);
        let first: Vec<usize> = session.infer_batch(&x).to_vec();
        for _ in 0..3 {
            assert_eq!(session.infer_batch(&x), first.as_slice());
        }
        assert_eq!(session.batches_run(), 4);
    }

    #[test]
    fn one_compiled_model_serves_concurrent_sessions() {
        let model = lenet5(&LeNetConfig::mnist(4));
        let compiled = EngineBuilder::new(&model).compile().shared();
        let x = SeededRng::new(5).normal_tensor(&[2, 1, 28, 28], 0.0, 1.0);
        let expect = compiled.infer(&x);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let compiled = Arc::clone(&compiled);
                let (x, expect) = (x.clone(), expect.clone());
                scope.spawn(move || {
                    let mut session = Session::new(compiled);
                    for _ in 0..2 {
                        assert_eq!(session.logits_batch(&x), expect);
                    }
                });
            }
        });
    }

    #[test]
    fn session_evaluate_matches_mutating_evaluate() {
        let data = synthetic_mnist(24, 16, 6);
        let model = lenet5(&LeNetConfig::mnist(7));
        let mut session = Session::new(EngineBuilder::new(&model).compile().shared());
        let acc = session.evaluate(&data.test, 8);
        let reference = cn_nn::metrics::evaluate(&mut model.clone(), &data.test, 8);
        assert_eq!(acc, reference);
    }

    #[test]
    fn planned_paths_match_direct_inference_bitwise() {
        let model = lenet5(&LeNetConfig::mnist(21));
        let compiled = EngineBuilder::new(&model)
            .backend(AnalogBackend::lognormal(0.4))
            .seed(22)
            .compile()
            .shared();
        let mut session = Session::with_plan(Arc::clone(&compiled), &[1, 28, 28], 4);
        let mut rng = SeededRng::new(23);
        for n in [4usize, 1, 3] {
            let x = rng.normal_tensor(&[n, 1, 28, 28], 0.0, 1.0);
            let reference = compiled.infer(&x);
            assert_eq!(*session.logits_ref(&x), reference, "batch {n}");
            let (logits, preds) = session.infer_logits_preds(&x);
            assert_eq!(*logits, reference);
            assert_eq!(preds, reference.argmax_rows().as_slice());
        }
        // All three batches fit the initial plan: no re-planning happened.
        assert_eq!(session.plan().expect("planned").max_batch(), 4);
    }

    #[test]
    fn outgrown_batch_replans_and_stays_exact() {
        let model = lenet5(&LeNetConfig::mnist(24));
        let compiled = EngineBuilder::new(&model).compile().shared();
        let mut session = Session::with_plan(Arc::clone(&compiled), &[1, 28, 28], 2);
        let x = SeededRng::new(25).normal_tensor(&[6, 1, 28, 28], 0.0, 1.0);
        assert_eq!(*session.logits_ref(&x), compiled.infer(&x));
        assert_eq!(session.plan().expect("planned").max_batch(), 6);
    }

    #[test]
    fn rebind_drops_the_plan() {
        let model = lenet5(&LeNetConfig::mnist(26));
        let a = EngineBuilder::new(&model).compile().shared();
        let b = EngineBuilder::new(&model).seed(1).compile().shared();
        let mut session = Session::with_plan(Arc::clone(&a), &[1, 28, 28], 2);
        session.rebind(Arc::clone(&b));
        assert!(session.plan().is_none());
        let x = SeededRng::new(27).normal_tensor(&[2, 1, 28, 28], 0.0, 1.0);
        assert_eq!(*session.logits_ref(&x), b.infer(&x));
    }
}
