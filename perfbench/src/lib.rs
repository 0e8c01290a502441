//! The CorrectNet workspace's benchmark: three end-to-end workloads —
//! `train`, `mc_sweep` and `wire` — timed from outside the program
//! through each layer's public functions, plus a traced run that breaks
//! them down layer by layer. See `README.md` for why each workload
//! exists and which end-to-end metric each per-layer metric should move.

#![warn(missing_docs)]

pub mod mc;
pub mod measure;
pub mod setup;
pub mod trace;
pub mod train;
pub mod wire;

use measure::{canary_ms, median, peak_rss_mb, Outcome};
use std::time::Instant;

/// Host canary passes before and after each run.
const CANARY_PASSES: usize = 5;

/// Length of each phase of a traced run, as a share of `--seconds`.
pub const PHASE_SHARE: f64 = 1.0 / 6.0;

/// Runs a traced run's four phases of one workload — untraced, traced,
/// untraced, traced, so host drift cancels out of the tracing overhead —
/// passing `phase` its index and `t` (traced) or a tracer that is off.
pub fn alternate<T>(
    t: &mut trace::Tracer,
    mut phase: impl FnMut(usize, &mut trace::Tracer) -> T,
) -> Vec<(bool, T)> {
    [false, true, false, true]
        .into_iter()
        .enumerate()
        .map(|(k, on)| {
            let mut off = trace::Tracer::off();
            (on, phase(k, if on { &mut *t } else { &mut off }))
        })
        .collect()
}

/// Input sizes and repetition counts of the workloads.
#[derive(Debug, Clone)]
pub struct Sizes {
    /// Training images of the synthetic MNIST stand-in.
    pub train_images: usize,
    /// Test images (every Monte-Carlo instance evaluates all of them).
    pub test_images: usize,
    /// Training steps of the deployed LeNet-5 in `mc_sweep`/`wire` setup.
    pub deploy_steps: usize,
    /// `train`: steps whose mean loss and final test accuracy are
    /// reported; always run, so both are fixed by the seed.
    pub check_steps: usize,
    /// Deployment instances per `monte_carlo` call.
    pub mc_instances: usize,
    /// `mc_sweep`: calls averaged into `accuracy`; always run.
    pub check_calls: usize,
    /// Setup repetitions; `setup_s` is their median.
    pub setup_reps: usize,
    /// `wire` warm-up requests per connection, part of setup.
    pub warmup_requests: u64,
    /// `Session::infer_batch` calls of the traced `wire` probe.
    pub infer_calls: usize,
}

impl Sizes {
    /// The benchmark's sizes: fig2's quick profile (1200/350 images, 12
    /// instances per σ-point).
    pub fn bench() -> Sizes {
        Sizes {
            train_images: 1200,
            test_images: 350,
            deploy_steps: 150,
            check_steps: 150,
            mc_instances: 12,
            check_calls: 6,
            setup_reps: 3,
            warmup_requests: 100,
            infer_calls: 300,
        }
    }

    /// Tiny sizes that run every code path in well under a second, for
    /// the benchmark's own tests.
    pub fn tiny() -> Sizes {
        Sizes {
            train_images: 48,
            test_images: 24,
            deploy_steps: 3,
            check_steps: 3,
            mc_instances: 3,
            check_calls: 2,
            setup_reps: 2,
            warmup_requests: 4,
            infer_calls: 3,
        }
    }
}

/// The workloads, by their `BENCHMARK.json` names.
pub const WORKLOADS: [&str; 3] = ["train", "mc_sweep", "wire"];

/// One untraced run of `workload`: every end-to-end metric but
/// `peak_rss_mb`, which the caller reads when the run has ended.
///
/// # Panics
///
/// Panics on a workload name not in [`WORKLOADS`].
pub fn run(workload: &str, seed: u64, seconds: f64, sizes: &Sizes) -> Outcome {
    match workload {
        "train" => train::run(seed, seconds, sizes),
        "mc_sweep" => mc::run(seed, seconds, sizes),
        "wire" => wire::run(seed, seconds, sizes),
        other => panic!("unknown workload {other}"),
    }
}

/// One traced run: every per-layer metric of every workload (each
/// workload alternates untraced and traced phases of
/// `seconds * PHASE_SHARE`), with the span table of all traced phases.
pub fn profile(seed: u64, seconds: f64, sizes: &Sizes) -> (Outcome, trace::Tracer) {
    let origin = Instant::now();
    let mut all = trace::Tracer::new(true, origin);
    let mut o = Outcome::default();
    for (outcome, t) in [
        train::profile(seed, seconds, sizes, origin),
        mc::profile(seed, seconds, sizes, origin),
        wire::profile(seed, seconds, sizes, origin),
    ] {
        o.absorb(outcome);
        all.merge(t);
    }
    (o, all)
}

/// One invocation as the command line runs it: host canary passes, the
/// run (untraced: `workload`'s end-to-end metrics; traced: [`profile`]),
/// canary passes again, then `peak_rss_mb` (untraced) or
/// `host.canary_ms` (traced). Returns the outcome and the canary's median over
/// all passes (ms).
pub fn execute(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    sizes: &Sizes,
) -> (Outcome, f64) {
    let mut canary: Vec<f64> = (0..CANARY_PASSES).map(|_| canary_ms()).collect();
    let mut o = if trace {
        let (o, spans) = profile(seed, seconds, sizes);
        eprint!("{}", spans.summary());
        o
    } else {
        run(workload, seed, seconds, sizes)
    };
    canary.extend((0..CANARY_PASSES).map(|_| canary_ms()));
    let canary = median(&canary);
    if trace {
        o.metric("host.canary_ms", canary, "ms");
    } else {
        match peak_rss_mb() {
            Ok(mb) => o.metric("peak_rss_mb", mb, "MiB"),
            Err(e) => o.problems.push(e),
        }
    }
    (o, canary)
}
