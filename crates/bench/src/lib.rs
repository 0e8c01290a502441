//! # cn-bench
//!
//! The experiment subsystem regenerating every table and figure of the
//! paper's evaluation, plus Criterion micro-benchmarks of the substrate.
//!
//! The subsystem is layered:
//!
//! - [`profile`] — scale profiles (`quick`/`default`/`full`) and the four
//!   network–dataset [`Pair`]s of the paper.
//! - [`cache`] — the trained-model cache keyed by (architecture, dataset
//!   seed, train config), so a sweep over many experiments trains each
//!   base model exactly once.
//! - [`experiments`] — the [`experiments::Experiment`] trait
//!   and registry, one module per paper artifact (`table1`, `fig2`,
//!   `fig7`, `fig8`, `fig9`, `fig10`, `ablation_device`,
//!   `ablation_lipschitz`).
//! - [`report`] — the structured [`ExperimentReport`] with its stable
//!   JSON schema (version 1).
//! - [`runner`] — resolves names, stamps wall clocks, prints tables and
//!   writes `results/<name>_<scale>.json`.
//! - [`baseline`] — named bench baselines (`BENCH_<name>.json` at the
//!   repo root: `workspace/bench/group/id` taxonomy, per-sample vectors,
//!   host fingerprint, git rev) and the statistical regression gate
//!   behind the `cn-benchcmp` binary and `scripts/bench`.
//!
//! ```bash
//! cargo run -p cn-bench --release --bin cn-experiments -- list
//! cargo run -p cn-bench --release --bin cn-experiments -- run fig2 --scale quick --out results/
//! cargo run -p cn-bench --release --bin cn-experiments -- run all
//! cargo run -p cn-bench --release --bin cn-experiments -- validate results/fig2_quick.json
//! cargo bench -p cn-bench                          # substrate benches
//! ```
//!
//! Every experiment prints a paper-vs-measured table; absolute numbers
//! differ (synthetic datasets, width-scaled VGG16 — see the fidelity
//! deviations in `docs/ARCHITECTURE.md`), the *shape* of each result is
//! the reproduction target.

#![warn(missing_docs)]

pub mod baseline;
pub mod cache;
pub mod experiments;
pub mod profile;
pub mod report;
pub mod runner;

pub use baseline::compare::{compare, BenchComparison, CompareConfig, CompareReport, Verdict};
pub use baseline::{Baseline, BaselineError, BenchRecord, HostFingerprint};
pub use cache::{cache_dir, CacheStats, ModelCache, ModelKey};
pub use experiments::{Ctx, Experiment};
pub use profile::{pipeline_config, Pair, PaperRow, Scale};
pub use report::{ExperimentReport, Series, SeriesPoint, TableBlock};
pub use runner::{run_many, run_one, RunOptions, RunSummary};
