//! Thread-count invariance: `monte_carlo` accuracies, session logits and
//! LeNet-5 training (parameter gradients and the state after a few Adam
//! steps) must be bitwise equal whatever `CN_THREADS` says.
//!
//! The kernel thread count is read once and cached for the whole
//! process, so it cannot be varied inside one test process. The test
//! therefore re-executes its own binary, filtered to itself, once per
//! thread count; each child computes every result under its
//! `CN_THREADS`, prints the bit patterns, and the parent compares them.

use cn_analog::engine::{monte_carlo, AnalogBackend, EngineBuilder, Session};
use cn_analog::montecarlo::McConfig;
use cn_data::synthetic_mnist;
use cn_nn::loss::softmax_cross_entropy;
use cn_nn::optim::{Adam, Optimizer};
use cn_nn::zoo::{lenet5, LeNetConfig};
use cn_tensor::{SeededRng, Tensor};
use std::process::Command;

/// Set in the children's environment; its presence selects child mode.
const CHILD_ENV: &str = "CN_THREAD_INVARIANCE_CHILD";
/// Prefix of every result line a child prints.
const MARK: &str = "invariance-result";
const THREAD_COUNTS: [&str; 3] = ["1", "2", "8"];

fn bits(values: &[f32]) -> String {
    values
        .iter()
        .map(|v| format!("{:08x}", v.to_bits()))
        .collect::<Vec<_>>()
        .join(",")
}

/// Child mode: every result under this process's `CN_THREADS`, one
/// `MARK name bits` line each.
fn report() {
    let data = synthetic_mnist(16, 100, 5);
    let model = lenet5(&LeNetConfig::mnist(6));
    let sigma = 0.5;
    let backend = AnalogBackend::lognormal(sigma);
    let mc = monte_carlo(&model, &data.test, &McConfig::new(5, sigma, 17), &backend);
    println!("{MARK} monte_carlo {}", bits(&mc.accuracies));

    let compiled = EngineBuilder::new(&model)
        .backend(AnalogBackend::lognormal(sigma))
        .seed(23)
        .compile()
        .shared();
    let mut session = Session::new(compiled);
    let mut rng = SeededRng::new(29);
    for batch in [1, 7, 64] {
        let x: Tensor = rng.normal_tensor(&[batch, 1, 28, 28], 0.0, 1.0);
        println!(
            "{MARK} logits_b{batch} {}",
            bits(session.logits_ref(&x).data())
        );
    }

    // Training at batch 32: every parameter gradient of the first
    // forward + backward, then the weights after three Adam steps.
    let mut net = lenet5(&LeNetConfig::mnist(7));
    let mut adam = Adam::new(1e-3);
    for step in 0..3 {
        let x = rng.normal_tensor(&[32, 1, 28, 28], 0.0, 1.0);
        let labels: Vec<usize> = (0..32).map(|i| (i * 7 + step) % 10).collect();
        net.zero_grad();
        let logits = net.forward(&x, true);
        net.backward(&softmax_cross_entropy(&logits, &labels).1);
        let mut params = net.params_mut();
        if step == 0 {
            let grads: Vec<f32> = params.iter().flat_map(|p| p.grad.data().to_vec()).collect();
            println!("{MARK} train_grads_b32 {}", bits(&grads));
        }
        adam.step(&mut params);
    }
    let state: Vec<f32> = net
        .state_dict()
        .iter()
        .flat_map(|(_, t)| t.data().to_vec())
        .collect();
    println!("{MARK} adam_state_3_steps {}", bits(&state));
}

/// One child's results: `(name, f32 bit patterns)` per result line.
type Results = Vec<(String, Vec<String>)>;

/// Re-executes this test in a child process under `CN_THREADS=threads`
/// and parses its result lines.
fn child_results(threads: &str) -> Results {
    let exe = std::env::current_exe().expect("test binary path");
    let out = Command::new(exe)
        .args([
            "--exact",
            "results_do_not_depend_on_the_thread_count",
            "--nocapture",
            "--test-threads=1",
        ])
        .env(CHILD_ENV, "1")
        .env("CN_THREADS", threads)
        .output()
        .expect("re-executing the test binary");
    assert!(
        out.status.success(),
        "child at CN_THREADS={threads} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // libtest prints `test <name> ... ` before the first line of captured
    // output, so a result line need not start its line.
    let results: Results = String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter_map(|l| l.find(MARK).map(|at| &l[at + MARK.len()..]))
        .map(|rest| {
            let mut fields = rest.split_whitespace();
            let name = fields.next().unwrap_or_default().to_owned();
            let values = fields
                .next()
                .unwrap_or_default()
                .split(',')
                .map(str::to_owned)
                .collect();
            (name, values)
        })
        .collect();
    assert_eq!(results.len(), 6, "child at CN_THREADS={threads}");
    results
}

#[test]
fn results_do_not_depend_on_the_thread_count() {
    if std::env::var_os(CHILD_ENV).is_some() {
        report();
        return;
    }
    let (base_threads, rest) = THREAD_COUNTS.split_first().expect("thread counts");
    let base = child_results(base_threads);
    for threads in rest {
        for ((name, want), (_, got)) in base.iter().zip(child_results(threads)) {
            assert_eq!(want.len(), got.len(), "{name}: value counts differ");
            if let Some(i) = (0..want.len()).find(|&i| want[i] != got[i]) {
                panic!(
                    "{name}[{i}] is {} at CN_THREADS={base_threads} but {} at \
                     CN_THREADS={threads} (f32 bits)",
                    want[i], got[i]
                );
            }
        }
    }
}
