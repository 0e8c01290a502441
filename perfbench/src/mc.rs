//! `mc_sweep`: the paper's evaluation protocol — repeated
//! `engine::monte_carlo` calls on the deployed LeNet-5, each one fig2
//! σ-point at the quick profile (12 instances over the test set,
//! batch 64) with a fresh seed.
//!
//! It is forward-only with large batches, compiles once per instance and
//! runs instances in parallel, which uses `cn-analog` and `cn-tensor`
//! differently from the small batches of `wire`.

use crate::measure::{busy_rate, latency, median, ms_since, per_window, windowed, Op, Outcome};
use crate::setup::{
    dataset, deployed_model, forward_macs_per_sample, state_bits, timed_setup, DEPLOY_COMPILE_SEED,
    EVAL_BATCH, SIGMA,
};
use crate::trace::Tracer;
use crate::{alternate, Sizes, PHASE_SHARE};
use cn_analog::engine::{monte_carlo, AnalogBackend, CompiledModel, EngineBuilder, Session};
use cn_analog::montecarlo::McConfig;
use cn_data::Dataset;
use cn_nn::Sequential;
use cn_tensor::parallel::num_threads;
use cn_tensor::SeededRng;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Master seed of the calls `accuracy` averages: fixed, like a test set,
/// so `accuracy` moves only when the program's numerics do and not with
/// the workload seed's sampling error (±3% across seeds even over 144
/// instances).
const CHECK_SEED: u64 = 0x9c9c;

/// The Monte-Carlo configuration of call `call` under workload `seed`:
/// the first `sizes.check_calls` calls draw from [`CHECK_SEED`], later
/// ones from `seed`. Every call draws fresh instances.
fn call_config(seed: u64, call: u64, sizes: &Sizes) -> McConfig {
    let base = if call < sizes.check_calls as u64 {
        CHECK_SEED
    } else {
        seed
    };
    McConfig {
        samples: sizes.mc_instances,
        sigma: SIGMA,
        batch_size: EVAL_BATCH,
        seed: base.wrapping_shl(24) ^ call,
    }
}

/// What one timed stretch of Monte-Carlo calls produced.
#[derive(Debug)]
pub struct McPhase {
    /// Every `monte_carlo` call: completion time, wall time and images.
    pub calls: Vec<Op>,
    /// Mean accuracy over the first `sizes.check_calls` calls.
    pub accuracy: f64,
    /// Calls with a wrong number of accuracies or one outside `[0, 1]`.
    pub bad_calls: u64,
    /// Traced calls whose replay disagreed bitwise with `monte_carlo`.
    pub replay_mismatches: u64,
}

/// Calls `monte_carlo` for `seconds`, and at least `sizes.check_calls`
/// times. With tracing on, every call is followed by a traced replay of
/// its worker loop whose accuracies must equal the call's bit for bit.
pub fn phase(
    model: &Sequential,
    test: &Dataset,
    seed: u64,
    sizes: &Sizes,
    seconds: f64,
    t: &mut Tracer,
) -> McPhase {
    let backend = AnalogBackend::lognormal(SIGMA);
    let mut out = McPhase {
        calls: Vec::new(),
        accuracy: 0.0,
        bad_calls: 0,
        replay_mismatches: 0,
    };
    let began = Instant::now();
    let deadline = began + Duration::from_secs_f64(seconds);
    let mut accuracy_sum = 0.0f64;
    while out.calls.len() < sizes.check_calls || Instant::now() < deadline {
        let call = out.calls.len();
        let cfg = call_config(seed, call as u64, sizes);
        let start = Instant::now();
        let result = t.span("analog.monte_carlo", |_| {
            monte_carlo(model, test, &cfg, &backend)
        });
        out.calls.push(Op {
            end_s: began.elapsed().as_secs_f64(),
            ms: ms_since(start),
            work: (cfg.samples * test.len()) as f64,
        });
        let valid = result.accuracies.len() == cfg.samples
            && result.accuracies.iter().all(|a| (0.0..=1.0).contains(a));
        if !valid {
            out.bad_calls += 1;
        }
        if call < sizes.check_calls {
            accuracy_sum += f64::from(result.mean);
        }
        if t.is_on() {
            let replayed = replay(model, test, &cfg, &backend, call as u64 + 1, t);
            let same = replayed.len() == result.accuracies.len()
                && replayed
                    .iter()
                    .zip(&result.accuracies)
                    .all(|(a, b)| a.to_bits() == b.to_bits());
            if !same {
                out.replay_mismatches += 1;
            }
        }
    }
    out.accuracy = accuracy_sum / sizes.check_calls as f64;
    out
}

/// `monte_carlo`'s worker loop, step for step — the same worker count,
/// instance claiming, per-instance RNG stream, `compile_shared` and
/// session rebind — with a span around each compile and evaluation,
/// tagged with `request`.
fn replay(
    model: &Sequential,
    test: &Dataset,
    cfg: &McConfig,
    backend: &AnalogBackend,
    request: u64,
    t: &mut Tracer,
) -> Vec<f32> {
    let nominal = Arc::new(model.clone());
    let workers = num_threads().min(cfg.samples);
    let next = AtomicUsize::new(0);
    let mut results = vec![0.0f32; cfg.samples];
    let locals: Vec<(Vec<(usize, f32)>, Tracer)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let mut wt = t.child();
                wt.set_request(request);
                let (next, nominal) = (&next, &nominal);
                scope.spawn(move || {
                    let mut session: Option<Session> = None;
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= cfg.samples {
                            break;
                        }
                        let mut rng = SeededRng::new(cfg.seed).fork(i as u64);
                        let compiled = wt.span("analog.compile", |_| {
                            CompiledModel::compile_shared(nominal, backend, &mut rng).shared()
                        });
                        let session = match &mut session {
                            Some(s) => {
                                s.rebind(compiled);
                                s
                            }
                            none => none.insert(Session::new(compiled)),
                        };
                        let accuracy = wt.span("analog.evaluate", |_| {
                            session.evaluate(test, cfg.batch_size)
                        });
                        local.push((i, accuracy));
                    }
                    (local, wt)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay worker panicked"))
            .collect()
    });
    for (local, wt) in locals {
        for (i, accuracy) in local {
            results[i] = accuracy;
        }
        t.merge(wt);
    }
    results
}

/// Setup: dataset, the deployed LeNet's fixed-step training and a first
/// compile.
fn prepare(sizes: &Sizes) -> (cn_data::TrainTest, Sequential) {
    let data = dataset(sizes);
    let model = deployed_model(&data, sizes);
    EngineBuilder::new(&model)
        .backend(AnalogBackend::lognormal(SIGMA))
        .seed(DEPLOY_COMPILE_SEED)
        .compile();
    (data, model)
}

/// The untraced run: end-to-end metrics.
pub fn run(seed: u64, seconds: f64, sizes: &Sizes) -> Outcome {
    let (setup_s, (data, model), same) = timed_setup(
        sizes.setup_reps,
        || prepare(sizes),
        |(_, m)| state_bits(m),
        drop,
    );
    let p = phase(&model, &data.test, seed, sizes, seconds, &mut Tracer::off());
    let mut o = Outcome {
        attempted: p.calls.len() as u64,
        failed: p.bad_calls,
        ..Outcome::default()
    };
    o.check(same, || {
        "mc_sweep: setup repetitions trained different models".into()
    });
    o.metric("setup_s", setup_s, "s");
    eprintln!(
        "mc_sweep: per-window throughput {:.1?}, p50_ms {:.3?}",
        per_window(&p.calls, seconds, busy_rate),
        per_window(&p.calls, seconds, latency(0.5))
    );
    o.metric("throughput", windowed(&p.calls, seconds, busy_rate), "1/s");
    o.metric("p50_ms", windowed(&p.calls, seconds, latency(0.5)), "ms");
    o.metric("accuracy", p.accuracy, "ratio");
    eprintln!("mc_sweep: {} monte_carlo calls", p.calls.len());
    o
}

/// The traced run: [`alternate`]d phases of `seconds * PHASE_SHARE`,
/// per-layer metrics from the traced replays. Every phase must report
/// the same accuracy.
pub fn profile(seed: u64, seconds: f64, sizes: &Sizes, origin: Instant) -> (Outcome, Tracer) {
    let (data, model) = prepare(sizes);
    let mut t = Tracer::new(true, origin);
    let phases = alternate(&mut t, |_, tracer| {
        phase(
            &model,
            &data.test,
            seed,
            sizes,
            seconds * PHASE_SHARE,
            tracer,
        )
    });
    let reference = phases[0].1.accuracy;
    let mut o = Outcome::default();
    for (_, p) in &phases {
        o.attempted += p.calls.len() as u64;
        o.failed += p.bad_calls + p.replay_mismatches;
        o.check(p.accuracy.to_bits() == reference.to_bits(), || {
            format!(
                "mc_sweep: phases diverged (accuracy {} vs {reference})",
                p.accuracy
            )
        });
    }
    let evaluate = t.durations_ms("analog.evaluate");
    o.metric(
        "mc.analog.compile_ms",
        median(&t.durations_ms("analog.compile")),
        "ms",
    );
    o.metric("mc.analog.evaluate_ms", median(&evaluate), "ms");
    let macs = forward_macs_per_sample(&model, &[1, 28, 28]) * data.test.len() as f64;
    o.metric(
        "mc.tensor.gmac_per_s",
        macs / (median(&evaluate) / 1e3) / 1e9,
        "GMAC/s",
    );
    let throughput = |traced: bool| {
        let calls: Vec<Op> = phases
            .iter()
            .filter(|(on, _)| *on == traced)
            .flat_map(|(_, p)| p.calls.iter().copied())
            .collect();
        busy_rate(&calls, 0.0)
    };
    o.metric(
        "mc_sweep.trace_overhead",
        1.0 - throughput(true) / throughput(false),
        "ratio",
    );
    (o, t)
}
