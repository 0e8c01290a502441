//! Allocation-count regression at more than one kernel thread:
//! steady-state batch-1 `Session::infer_batch` must perform **zero heap
//! allocations** at `CN_THREADS=2`.
//!
//! A batch of one sample is one chunk of parallel work for every kernel
//! (convolution splits by sample, the dense GEMM by `MR`-aligned row
//! blocks), so it runs inline on the calling thread and spawns nothing —
//! spawning a scoped worker allocates. Larger batches do fan out and are
//! outside this contract.
//!
//! Dedicated one-test binary, like `zero_alloc_infer.rs`: it installs
//! [`CountingHeap`] as the process global allocator and sets
//! `CN_THREADS` before the first tensor op caches the thread count.

use cn_analog::engine::{EngineBuilder, Session};
use cn_nn::zoo::{lenet5, LeNetConfig};
use cn_tensor::alloc::CountingHeap;
use cn_tensor::parallel::num_threads;
use cn_tensor::SeededRng;
use std::sync::Arc;

#[global_allocator]
static ALLOC: CountingHeap = CountingHeap::new();

#[test]
fn steady_state_batch_one_allocates_nothing_at_two_threads() {
    // Must precede every tensor op: the thread count is cached on first
    // read.
    std::env::set_var("CN_THREADS", "2");
    assert_eq!(num_threads(), 2);
    assert!(
        CountingHeap::is_counting(),
        "CountingHeap is not the installed global allocator"
    );

    let model = lenet5(&LeNetConfig::mnist(3));
    let compiled = EngineBuilder::new(&model).compile().shared();
    let mut session = Session::with_plan(Arc::clone(&compiled), &[1, 28, 28], 32);
    let x1 = SeededRng::new(4).normal_tensor(&[1, 1, 28, 28], 0.0, 1.0);

    // Warmup grows the calling thread's kernel scratch and the prediction
    // staging — outside the zero-alloc contract.
    for _ in 0..2 {
        session.infer_batch(&x1);
    }

    let before = CountingHeap::thread_allocs();
    for _ in 0..16 {
        std::hint::black_box(session.infer_batch(&x1));
    }
    assert_eq!(
        CountingHeap::thread_allocs() - before,
        0,
        "batch 1: steady-state infer_batch heap-allocated at CN_THREADS=2"
    );

    assert_eq!(*session.logits_ref(&x1), compiled.infer(&x1));
}
