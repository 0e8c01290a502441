//! Search environments.
//!
//! The paper's environment (Fig. 6) is "the neural network trained with
//! error suppression and compensation whose locations and the filter
//! numbers are determined by RL". [`CorrectNetEnv`] realizes it on top of
//! [`correctnet::CorrectNetStages`]; evaluations are memoized because the
//! policy frequently revisits placements.

use cn_data::Dataset;
use cn_nn::Sequential;
use correctnet::compensation::{CompensationPlan, PlanEntry};
use correctnet::pipeline::CorrectNetStages;
use std::collections::HashMap;

/// Result of evaluating one placement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Outcome {
    /// Mean Monte-Carlo accuracy under variations.
    pub acc_mean: f32,
    /// Accuracy standard deviation.
    pub acc_std: f32,
    /// Weight overhead of the placement.
    pub overhead: f32,
}

/// A search environment mapping per-candidate compensation ratios to an
/// [`Outcome`].
pub trait Environment {
    /// Number of decision slots (candidate layers).
    fn num_slots(&self) -> usize;

    /// Evaluates one ratio assignment (`ratios[i] ≤ 0` = no compensation
    /// at candidate `i`).
    fn evaluate(&mut self, ratios: &[f32]) -> Outcome;

    /// Overhead of a placement *without* training/evaluating it — used to
    /// skip over-budget plans cheaply (paper's fast-learning trick).
    fn overhead_of(&self, ratios: &[f32]) -> f32;
}

/// The real CorrectNet environment.
pub struct CorrectNetEnv<'a> {
    stages: CorrectNetStages,
    base: &'a Sequential,
    train: &'a Dataset,
    test: &'a Dataset,
    /// Candidate weight-layer indices (from candidate selection).
    candidates: Vec<usize>,
    cache: HashMap<Vec<u32>, Outcome>,
    evaluations: usize,
}

impl<'a> CorrectNetEnv<'a> {
    /// Creates the environment over a Lipschitz-trained base model.
    pub fn new(
        stages: CorrectNetStages,
        base: &'a Sequential,
        train: &'a Dataset,
        test: &'a Dataset,
        candidates: Vec<usize>,
    ) -> Self {
        CorrectNetEnv {
            stages,
            base,
            train,
            test,
            candidates,
            cache: HashMap::new(),
            evaluations: 0,
        }
    }

    /// Builds the plan corresponding to a ratio assignment.
    pub fn plan_of(&self, ratios: &[f32]) -> CompensationPlan {
        assert_eq!(ratios.len(), self.candidates.len(), "slot count mismatch");
        CompensationPlan {
            entries: self
                .candidates
                .iter()
                .zip(ratios.iter())
                .map(|(&weight_layer, &ratio)| PlanEntry {
                    weight_layer,
                    ratio,
                })
                .collect(),
        }
    }

    /// Number of *uncached* environment evaluations performed so far.
    pub fn evaluations(&self) -> usize {
        self.evaluations
    }

    fn key(ratios: &[f32]) -> Vec<u32> {
        ratios
            .iter()
            .map(|r| (r.max(0.0) * 1000.0) as u32)
            .collect()
    }
}

impl Environment for CorrectNetEnv<'_> {
    fn num_slots(&self) -> usize {
        self.candidates.len()
    }

    fn evaluate(&mut self, ratios: &[f32]) -> Outcome {
        let key = Self::key(ratios);
        if let Some(hit) = self.cache.get(&key) {
            return *hit;
        }
        let plan = self.plan_of(ratios);
        let eval = self
            .stages
            .evaluate_plan(self.base, self.train, self.test, &plan);
        let outcome = Outcome {
            acc_mean: eval.mean,
            acc_std: eval.std,
            overhead: eval.overhead,
        };
        self.evaluations += 1;
        self.cache.insert(key, outcome);
        outcome
    }

    fn overhead_of(&self, ratios: &[f32]) -> f32 {
        correctnet::compensation::plan_overhead(self.base, &self.plan_of(ratios))
    }
}

/// A synthetic environment for unit-testing search algorithms: the best
/// outcome is a fixed hidden target assignment; accuracy decays with
/// Hamming-like distance from it and overhead grows with the ratios.
#[derive(Debug, Clone)]
pub struct MockEnv {
    /// Hidden optimal ratios.
    pub target: Vec<f32>,
    /// Overhead per unit ratio.
    pub overhead_scale: f32,
    /// Evaluation counter.
    pub evaluations: usize,
}

impl MockEnv {
    /// Creates the mock.
    pub fn new(target: Vec<f32>, overhead_scale: f32) -> Self {
        MockEnv {
            target,
            overhead_scale,
            evaluations: 0,
        }
    }
}

impl Environment for MockEnv {
    fn num_slots(&self) -> usize {
        self.target.len()
    }

    fn evaluate(&mut self, ratios: &[f32]) -> Outcome {
        self.evaluations += 1;
        let dist: f32 = self
            .target
            .iter()
            .zip(ratios.iter())
            .map(|(t, r)| (t - r.max(0.0)).abs())
            .sum::<f32>()
            / self.target.len() as f32;
        Outcome {
            acc_mean: (0.9 - 0.6 * dist).max(0.0),
            acc_std: 0.01,
            overhead: self.overhead_of(ratios),
        }
    }

    fn overhead_of(&self, ratios: &[f32]) -> f32 {
        self.overhead_scale * ratios.iter().map(|r| r.max(0.0)).sum::<f32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mock_env_prefers_target() {
        let mut env = MockEnv::new(vec![0.5, 0.0, 1.0], 0.01);
        let at_target = env.evaluate(&[0.5, 0.0, 1.0]);
        let off_target = env.evaluate(&[1.0, 1.0, 0.0]);
        assert!(at_target.acc_mean > off_target.acc_mean);
        assert_eq!(env.evaluations, 2);
    }

    #[test]
    fn mock_overhead_scales() {
        let env = MockEnv::new(vec![0.0; 4], 0.01);
        assert!((env.overhead_of(&[1.0, 1.0, 0.0, 0.0]) - 0.02).abs() < 1e-6);
        assert_eq!(env.overhead_of(&[0.0; 4]), 0.0);
        // Negative ratios count as zero.
        assert_eq!(env.overhead_of(&[-1.0, 0.0, 0.0, 0.0]), 0.0);
    }
}
