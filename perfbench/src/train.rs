//! `train`: Lipschitz-regularized LeNet-5 training, the paper's error
//! suppression stage (eq. 11, β = 1e-3, Adam, batch 32).
//!
//! Training is most of `cn-experiments run fig2`'s wall clock and the
//! only workload that runs backward passes, the eq. 11 penalty and the
//! optimizer.

use crate::measure::{
    busy_rate, latency, median, ms_since, per_window, percentile, windowed, Op, Outcome,
};
use crate::setup::{
    dataset, forward_macs_per_sample, state_bits, test_accuracy, timed_setup, Training,
};
use crate::trace::Tracer;
use crate::{alternate, Sizes, PHASE_SHARE};
use cn_data::TrainTest;
use cn_nn::zoo::{lenet5, LeNetConfig};
use std::time::{Duration, Instant};

/// What one timed stretch of training produced.
#[derive(Debug)]
pub struct TrainPhase {
    /// Every step: completion time, wall time and samples.
    pub steps: Vec<Op>,
    /// Mean task loss over the first `sizes.check_steps` steps.
    pub loss: f64,
    /// Clean test accuracy after the first `sizes.check_steps` steps.
    pub accuracy: f32,
    /// Steps whose loss was not finite.
    pub bad_steps: u64,
}

fn network(seed: u64) -> cn_nn::Sequential {
    lenet5(&LeNetConfig::mnist(seed))
}

/// Trains a fresh LeNet-5 (init and shuffle from `seed`) for `seconds`,
/// and at least `sizes.check_steps` steps. With tracing on, odd steps
/// replay the passes layer by layer.
pub fn phase(
    data: &TrainTest,
    seed: u64,
    sizes: &Sizes,
    seconds: f64,
    t: &mut Tracer,
) -> TrainPhase {
    let mut training = Training::new(network(seed), &data.train, seed ^ 0x5eed);
    let mut out = TrainPhase {
        steps: Vec::new(),
        loss: 0.0,
        accuracy: 0.0,
        bad_steps: 0,
    };
    let began = Instant::now();
    let deadline = began + Duration::from_secs_f64(seconds);
    let mut loss_sum = 0.0f64;
    while out.steps.len() < sizes.check_steps || Instant::now() < deadline {
        let step = out.steps.len();
        let by_layer = t.is_on() && step % 2 == 1;
        t.next_request();
        let start = Instant::now();
        let (loss, rows) = training.step(t, by_layer);
        out.steps.push(Op {
            end_s: began.elapsed().as_secs_f64(),
            ms: ms_since(start),
            work: rows as f64,
        });
        if !loss.is_finite() {
            out.bad_steps += 1;
        }
        if step < sizes.check_steps {
            loss_sum += f64::from(loss);
        }
        if step + 1 == sizes.check_steps {
            out.loss = loss_sum / sizes.check_steps as f64;
            out.accuracy = test_accuracy(&training.model, &data.test);
        }
    }
    out
}

/// The untraced run: end-to-end metrics.
pub fn run(seed: u64, seconds: f64, sizes: &Sizes) -> Outcome {
    let (setup_s, (data, net), same) = timed_setup(
        sizes.setup_reps,
        || (dataset(sizes), network(seed)),
        |(_, net)| state_bits(net),
        drop,
    );
    drop(net);
    let p = phase(&data, seed, sizes, seconds, &mut Tracer::off());
    let mut o = Outcome {
        attempted: p.steps.len() as u64,
        failed: p.bad_steps,
        ..Outcome::default()
    };
    o.check(same, || {
        "train: setup repetitions built different networks".into()
    });
    o.metric("setup_s", setup_s, "s");
    eprintln!(
        "train: per-window throughput {:.1?}, p50_ms {:.3?}",
        per_window(&p.steps, seconds, busy_rate),
        per_window(&p.steps, seconds, latency(0.5))
    );
    o.metric("throughput", windowed(&p.steps, seconds, busy_rate), "1/s");
    o.metric("p50_ms", windowed(&p.steps, seconds, latency(0.5)), "ms");
    o.metric("accuracy", f64::from(p.accuracy), "ratio");
    eprintln!(
        "train: {} steps, mean loss over the first {} steps {:.6}",
        p.steps.len(),
        sizes.check_steps,
        p.loss
    );
    o
}

/// The traced run: [`alternate`]d phases of `seconds * PHASE_SHARE`,
/// per-layer metrics from the traced ones. Every phase starts from the same network and must end with the same
/// loss and accuracy.
pub fn profile(seed: u64, seconds: f64, sizes: &Sizes, origin: Instant) -> (Outcome, Tracer) {
    let data = dataset(sizes);
    let mut t = Tracer::new(true, origin);
    let phases = alternate(&mut t, |_, tracer| {
        phase(&data, seed, sizes, seconds * PHASE_SHARE, tracer)
    });
    let reference = &phases[0].1;
    let mut o = Outcome::default();
    for (_, p) in &phases {
        o.attempted += p.steps.len() as u64;
        o.failed += p.bad_steps;
        o.check(
            p.loss.to_bits() == reference.loss.to_bits()
                && p.accuracy.to_bits() == reference.accuracy.to_bits(),
            || {
                format!(
                    "train: phases diverged (loss {} vs {}, accuracy {} vs {})",
                    p.loss, reference.loss, p.accuracy, reference.accuracy
                )
            },
        );
    }
    let untraced_ms: Vec<f64> = phases
        .iter()
        .filter(|(on, _)| !on)
        .flat_map(|(_, p)| p.steps.iter().map(|op| op.ms))
        .collect();
    o.metric("train.step_p95_ms", percentile(&untraced_ms, 0.95), "ms");
    let med = |name: &str| median(&t.per_request_ms(name));
    let forward = med("nn.forward");
    let backward = med("nn.backward");
    o.metric("train.nn.forward_ms", forward, "ms");
    o.metric("train.nn.backward_ms", backward, "ms");
    for layer in ["conv1", "conv2", "fc1", "other"] {
        for pass in ["fwd", "bwd"] {
            let name = format!("layer.{layer}.{pass}");
            o.metric(&format!("train.{name}_ms"), med(&name), "ms");
        }
    }
    o.metric("train.core.lipschitz_ms", med("core.lipschitz"), "ms");
    o.metric("train.nn.loss_ms", med("nn.loss"), "ms");
    o.metric("train.nn.optim_ms", med("nn.optim"), "ms");
    o.metric("train.data.batch_ms", med("data.batch"), "ms");
    // Backward computes input and weight gradients: twice forward's MACs.
    let macs =
        3.0 * forward_macs_per_sample(&network(seed), &[1, 28, 28]) * crate::setup::BATCH as f64;
    o.metric(
        "train.tensor.gmac_per_s",
        macs / ((forward + backward) / 1e3) / 1e9,
        "GMAC/s",
    );
    let throughput = |traced: bool| {
        let steps: Vec<Op> = phases
            .iter()
            .filter(|(on, _)| *on == traced)
            .flat_map(|(_, p)| p.steps.iter().copied())
            .collect();
        busy_rate(&steps, 0.0)
    };
    o.metric(
        "train.trace_overhead",
        1.0 - throughput(true) / throughput(false),
        "ratio",
    );
    (o, t)
}
