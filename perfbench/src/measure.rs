//! Measurement helpers shared by the workloads: exact percentiles, the
//! host canary, the process memory high-water mark, the run record and
//! the result line.

use std::hint::black_box;
use std::time::Instant;

/// Nearest-rank percentile (`q` in `[0, 1]`) of exact samples.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of an empty sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Nearest-rank median of exact samples.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// One completed operation of a timed loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Op {
    /// Completion time, seconds after the loop started.
    pub end_s: f64,
    /// The operation's latency (ms).
    pub ms: f64,
    /// Work it completed (samples, images or requests).
    pub work: f64,
}

/// Windows a timed loop is split into; each end-to-end timing metric is
/// computed per window and reported as the median over windows, so a
/// burst of host interference shorter than half the run cannot move it.
pub const WINDOWS: usize = 5;

/// `stat(ops in window, window seconds)` for every non-empty window.
///
/// The loop's `seconds` are cut into [`WINDOWS`] equal windows by
/// completion time; the last window also takes operations that finished
/// after the deadline and lasts until the last of them.
pub fn per_window(ops: &[Op], seconds: f64, stat: impl Fn(&[Op], f64) -> f64) -> Vec<f64> {
    let width = seconds / WINDOWS as f64;
    let mut windows: Vec<Vec<Op>> = vec![Vec::new(); WINDOWS];
    for op in ops {
        windows[((op.end_s / width) as usize).min(WINDOWS - 1)].push(*op);
    }
    let last_end = ops.iter().map(|op| op.end_s).fold(seconds, f64::max);
    windows
        .iter()
        .enumerate()
        .filter(|(_, w)| !w.is_empty())
        .map(|(k, w)| {
            let end = if k == WINDOWS - 1 {
                last_end
            } else {
                (k + 1) as f64 * width
            };
            stat(w, end - k as f64 * width)
        })
        .collect()
}

/// The median over windows of [`per_window`].
///
/// # Panics
///
/// Panics if `ops` is empty.
pub fn windowed(ops: &[Op], seconds: f64, stat: impl Fn(&[Op], f64) -> f64) -> f64 {
    median(&per_window(ops, seconds, stat))
}

/// Work per second of the operations' own latency (for loops that run
/// one operation at a time).
pub fn busy_rate(ops: &[Op], _window_s: f64) -> f64 {
    ops.iter().map(|op| op.work).sum::<f64>() / (ops.iter().map(|op| op.ms).sum::<f64>() / 1e3)
}

/// Work per second of wall time (for concurrent operations).
pub fn wall_rate(ops: &[Op], window_s: f64) -> f64 {
    ops.iter().map(|op| op.work).sum::<f64>() / window_s
}

/// The `q` percentile of the operations' latency.
pub fn latency(q: f64) -> impl Fn(&[Op], f64) -> f64 {
    move |ops, _| percentile(&ops.iter().map(|op| op.ms).collect::<Vec<_>>(), q)
}

/// Milliseconds since `start`.
pub fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Iterations of the canary loop: about 20 ms on a 2-vCPU x86-64 host.
const CANARY_ITERS: u64 = 8_000_000;

/// One pass of the host canary: a fixed xorshift-and-accumulate loop
/// that calls nothing outside this file, so no change to the program
/// under test can move it. Its time tracks the host alone, which puts
/// host drift next to every comparison.
pub fn canary_ms() -> f64 {
    let start = Instant::now();
    let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
    let mut acc = 0.0f64;
    for _ in 0..CANARY_ITERS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc += (x >> 11) as f64 * 1e-16;
    }
    black_box((x, acc));
    ms_since(start)
}

/// The process's resident-memory high-water mark in MiB
/// (`getrusage(RUSAGE_SELF).ru_maxrss`, which Linux reports in KiB).
///
/// # Errors
///
/// Fails if `getrusage` does.
pub fn peak_rss_mb() -> Result<f64, String> {
    // `struct rusage` on 64-bit Linux: two `timeval`s (4 × i64), then 14
    // `long`s, of which `ru_maxrss` is the first.
    #[repr(C)]
    struct Rusage {
        times: [i64; 4],
        counters: [i64; 14],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    let mut usage = Rusage {
        times: [0; 4],
        counters: [0; 14],
    };
    // SAFETY: `usage` is a live, writable value with the size and layout
    // of `struct rusage` on 64-bit Linux, and getrusage writes only it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    if rc != 0 {
        return Err(format!("getrusage failed with {rc}"));
    }
    Ok(usage.counters[0] as f64 / 1024.0)
}

/// The checkout's git revision, read from `.git` in the working
/// directory (nothing outside it), or `unknown` where there is none.
pub fn git_rev() -> String {
    let read = |path: &str| std::fs::read_to_string(path).ok();
    let rev = read(".git/HEAD").and_then(|head| {
        let head = head.trim().to_string();
        let Some(reference) = head.strip_prefix("ref: ") else {
            return Some(head);
        };
        read(&format!(".git/{reference}"))
            .map(|r| r.trim().to_string())
            .or_else(|| {
                read(".git/packed-refs")?.lines().find_map(|line| {
                    line.strip_suffix(reference)?
                        .strip_suffix(' ')
                        .map(str::to_string)
                })
            })
    });
    rev.filter(|r| r.len() >= 12)
        .map_or_else(|| "unknown".to_string(), |r| r[..12].to_string())
}

/// One named metric with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// What a run produced: its metrics and the outcome of its output checks.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations the run attempted (steps, Monte-Carlo calls, requests).
    pub attempted: u64,
    /// Operations whose output failed a check.
    pub failed: u64,
    /// Run-level check failures, one line each.
    pub problems: Vec<String>,
    /// The metrics, in print order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Appends a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Records a run-level check: `ok == false` adds `problem`.
    pub fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(problem());
        }
    }

    /// Folds another outcome's checks and metrics into this one.
    pub fn absorb(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.problems.extend(other.problems);
        self.metrics.extend(other.metrics);
    }

    /// Whether every output check passed and every value is finite.
    pub fn correct(&self) -> bool {
        self.failed == 0
            && self.problems.is_empty()
            && self.attempted > 0
            && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The result line: one JSON object with exactly the keys
    /// `correct`, `attempted`, `failed` and `metrics`.
    pub fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(&m.name),
                    json_num(m.value),
                    json_str(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit Rust's shortest round-trip form gives;
/// non-finite values (which JSON cannot hold) print as `null` and make
/// the run incorrect through [`Outcome::correct`].
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank_on_exact_samples() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&xs), 50.0);
        assert_eq!(percentile(&xs, 0.95), 95.0);
        assert_eq!(percentile(&xs, 0.99), 99.0);
        assert_eq!(percentile(&[3.0], 0.99), 3.0);
    }

    #[test]
    fn windowed_metrics_take_the_median_over_windows() {
        let op = |end_s, ms| Op {
            end_s,
            ms,
            work: 1.0,
        };
        // Five 1-s windows; the third is slow, the last has a straggler.
        let ops = [
            op(0.5, 1.0),
            op(1.5, 1.0),
            op(2.5, 9.0),
            op(3.5, 2.0),
            op(4.5, 2.0),
            op(5.5, 2.0),
        ];
        assert_eq!(windowed(&ops, 5.0, latency(0.5)), 2.0);
        assert_eq!(windowed(&ops, 5.0, wall_rate), 1.0);
        assert_eq!(windowed(&ops[..1], 5.0, busy_rate), 1000.0);
    }

    #[test]
    fn result_json_has_exactly_the_contract_keys() {
        let mut o = Outcome {
            attempted: 2,
            ..Outcome::default()
        };
        o.metric("p50_ms", 1.25, "ms");
        assert_eq!(
            o.result_json(),
            "{\"correct\": true, \"attempted\": 2, \"failed\": 0, \"metrics\": \
             {\"p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
        o.metric("bad", f64::NAN, "ms");
        assert!(!o.correct());
    }
}
