//! Allocation-count regression: steady-state `Session::infer_batch` must
//! perform **zero heap allocations per request** once the shape plan and
//! scratch are warm.
//!
//! This file is a dedicated test binary so it can install
//! [`CountingHeap`] as the process global allocator (a library must
//! never do that). It holds exactly one `#[test]` because the contract
//! needs `CN_THREADS=1` set before the first tensor op. With more
//! threads, a batch of 32 is split over scoped worker threads that are
//! spawned per kernel call, and every spawn allocates; that is outside
//! this contract. Batch 1 at `CN_THREADS=2` runs inline and is pinned
//! separately by `zero_alloc_infer_threads.rs`.

use cn_analog::engine::{EngineBuilder, Session};
use cn_nn::zoo::{lenet5, LeNetConfig};
use cn_tensor::alloc::CountingHeap;
use cn_tensor::SeededRng;
use std::sync::Arc;

#[global_allocator]
static ALLOC: CountingHeap = CountingHeap::new();

#[test]
fn steady_state_infer_batch_allocates_nothing() {
    // Must precede every tensor op: the thread-count is cached on first
    // read.
    std::env::set_var("CN_THREADS", "1");
    assert!(
        CountingHeap::is_counting(),
        "CountingHeap is not the installed global allocator"
    );

    let model = lenet5(&LeNetConfig::mnist(3));
    let compiled = EngineBuilder::new(&model).compile().shared();
    let mut session = Session::with_plan(Arc::clone(&compiled), &[1, 28, 28], 32);
    let mut rng = SeededRng::new(4);
    let x1 = rng.normal_tensor(&[1, 1, 28, 28], 0.0, 1.0);
    let x32 = rng.normal_tensor(&[32, 1, 28, 28], 0.0, 1.0);

    // Warmup: the first batch at each size may grow thread-local kernel
    // scratch (GEMM A-panels, convolution B-panels) and the prediction
    // staging — explicitly outside the zero-alloc contract.
    for _ in 0..2 {
        session.infer_batch(&x1);
        session.infer_batch(&x32);
    }

    for (x, label) in [(&x1, "batch 1"), (&x32, "batch 32")] {
        let before = CountingHeap::thread_allocs();
        for _ in 0..16 {
            std::hint::black_box(session.infer_batch(x));
        }
        let after = CountingHeap::thread_allocs();
        assert_eq!(
            after - before,
            0,
            "{label}: steady-state infer_batch heap-allocated"
        );
    }

    // The planned path must still agree with direct inference bitwise.
    assert_eq!(*session.logits_ref(&x32), compiled.infer(&x32));
}
