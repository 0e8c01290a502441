//! The benchmark's own tests, at tiny sizes through the same code paths
//! as a real run.

use cn_nn::trainer::{TrainConfig, Trainer};
use cn_nn::zoo::{lenet5, LeNetConfig};
use cn_perfbench::measure::Outcome;
use cn_perfbench::setup::{dataset, deployed_model, state_bits, Training, BATCH, BETA, LR, SIGMA};
use cn_perfbench::trace::Tracer;
use cn_perfbench::{execute, mc, train, wire, Sizes, WORKLOADS};
use correctnet::LipschitzRegularizer;
use std::time::{Duration, Instant};

/// A run length that ends every timed loop after its fixed minimum.
const TINY_SECONDS: f64 = 0.05;

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is an array")];
    let field = |entry: &str, key: &str| {
        let from = entry.find(&format!("\"{key}\"")).expect("key present");
        let rest = &entry[from + key.len() + 2..];
        let open = rest.find('"').expect("string value") + 1;
        let len = rest[open..].find('"').expect("closing quote");
        rest[open..open + len].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

fn printed(o: &Outcome) -> Vec<(String, String)> {
    o.metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect()
}

fn sorted(mut v: Vec<(String, String)>) -> Vec<(String, String)> {
    v.sort();
    v
}

#[test]
fn every_named_metric_is_printed_with_its_unit() {
    let sizes = Sizes::tiny();
    let end_to_end = sorted(declared("end_to_end"));
    for workload in WORKLOADS {
        let (o, _) = execute(workload, 1, TINY_SECONDS, false, &sizes);
        assert!(o.correct(), "{workload}: {:?}", o.problems);
        assert_eq!(sorted(printed(&o)), end_to_end, "{workload}");
        assert!(o
            .result_json()
            .starts_with("{\"correct\": true, \"attempted\": "));
    }
    let (o, _) = execute("train", 1, TINY_SECONDS, true, &sizes);
    assert!(o.correct(), "traced: {:?}", o.problems);
    assert_eq!(sorted(printed(&o)), sorted(declared("per_layer")));
}

#[test]
fn a_fixed_seed_gives_the_same_accuracy_and_loss() {
    let sizes = Sizes::tiny();
    let data = dataset(&sizes);
    let a = train::phase(&data, 7, &sizes, TINY_SECONDS, &mut Tracer::off());
    let b = train::phase(&data, 7, &sizes, TINY_SECONDS, &mut Tracer::off());
    assert_eq!(a.loss.to_bits(), b.loss.to_bits());
    assert_eq!(a.accuracy.to_bits(), b.accuracy.to_bits());

    // `mc_sweep` averages `accuracy` over calls with fixed seeds, so it
    // is the same under every workload seed.
    let model = deployed_model(&data, &sizes);
    let a = mc::phase(
        &model,
        &data.test,
        7,
        &sizes,
        TINY_SECONDS,
        &mut Tracer::off(),
    );
    let b = mc::phase(
        &model,
        &data.test,
        8,
        &sizes,
        TINY_SECONDS,
        &mut Tracer::off(),
    );
    assert_eq!(a.accuracy.to_bits(), b.accuracy.to_bits());
}

#[test]
fn traced_and_untraced_runs_give_identical_outputs() {
    let sizes = Sizes::tiny();
    let data = dataset(&sizes);
    let origin = Instant::now();

    let plain = train::phase(&data, 3, &sizes, TINY_SECONDS, &mut Tracer::off());
    let mut t = Tracer::new(true, origin);
    let traced = train::phase(&data, 3, &sizes, TINY_SECONDS, &mut t);
    assert_eq!(plain.loss.to_bits(), traced.loss.to_bits());
    assert_eq!(plain.accuracy.to_bits(), traced.accuracy.to_bits());
    assert!(
        !t.durations_ms("layer.conv1.fwd").is_empty(),
        "odd steps replay by layer"
    );

    let model = deployed_model(&data, &sizes);
    let plain = mc::phase(
        &model,
        &data.test,
        3,
        &sizes,
        TINY_SECONDS,
        &mut Tracer::off(),
    );
    let mut t = Tracer::new(true, origin);
    let traced = mc::phase(&model, &data.test, 3, &sizes, TINY_SECONDS, &mut t);
    assert_eq!(plain.accuracy.to_bits(), traced.accuracy.to_bits());
    assert_eq!(traced.replay_mismatches, 0);
    assert_eq!(
        t.durations_ms("analog.compile").len(),
        traced.calls.len() * sizes.mc_instances
    );

    let frontend = wire::start(&model);
    let stop = wire::Stop {
        deadline: Instant::now() + Duration::from_secs(30),
        budget: 6,
    };
    let plain = wire::clients(frontend.local_addr(), 3, 0, stop, &mut Tracer::off());
    let mut t = Tracer::new(true, origin);
    let traced = wire::clients(frontend.local_addr(), 3, 0, stop, &mut t);
    let mut a = plain.replies.clone();
    let mut b = traced.replies.clone();
    a.sort_unstable();
    b.sort_unstable();
    assert_eq!(a.len(), 6 * wire::CONNECTIONS);
    assert_eq!(a, b);
    assert_eq!(plain.failed() + traced.failed(), 0);
    assert_eq!(wire::mismatches(frontend.router(), 3, &a), 0);
    wire::stop(frontend);
}

#[test]
fn the_step_loop_ends_bitwise_equal_to_trainer_fit() {
    let sizes = Sizes::tiny();
    let data = dataset(&sizes);
    let epochs = 2;
    let shuffle_seed = 11;

    let mut fitted = lenet5(&LeNetConfig::mnist(5));
    let reg = LipschitzRegularizer::for_sigma(BETA, SIGMA);
    let mut trainer = Trainer::new(TrainConfig::new(epochs, BATCH, shuffle_seed))
        .with_regularizer(move |m| reg.apply(m));
    trainer.fit(&mut fitted, &data.train, &mut cn_nn::optim::Adam::new(LR));

    let mut stepped = Training::new(lenet5(&LeNetConfig::mnist(5)), &data.train, shuffle_seed);
    let steps = epochs * data.train.len().div_ceil(BATCH);
    for step in 0..steps {
        // Layer-by-layer replay on odd steps must not change the result.
        stepped.step(&mut Tracer::off(), step % 2 == 1);
    }
    assert_eq!(state_bits(&stepped.model), state_bits(&fitted));
}
