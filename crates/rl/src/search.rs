//! REINFORCE search over compensation placements (paper Fig. 6).

use crate::env::{Environment, Outcome};
use crate::policy::PolicyRnn;
use crate::reward::RewardSpec;
use cn_nn::optim::{Adam, Optimizer};
use cn_tensor::SeededRng;

/// Discrete action set used by the policy: compensation ratios including
/// "none" (the paper's `S ≤ 0`).
pub const DEFAULT_ACTIONS: [f32; 4] = [0.0, 0.25, 0.5, 1.0];

/// Search configuration.
#[derive(Debug, Clone)]
pub struct SearchConfig {
    /// Training episodes (policy updates).
    pub episodes: usize,
    /// Rollouts sampled per episode.
    pub rollouts_per_episode: usize,
    /// Policy hidden width.
    pub hidden_size: usize,
    /// Adam learning rate for the policy.
    pub lr: f32,
    /// Action set (ratios; entries ≤ 0 mean "no compensation").
    pub actions: Vec<f32>,
    /// Reward specification (overhead budget).
    pub reward: RewardSpec,
    /// Seed for policy init and sampling.
    pub seed: u64,
}

impl SearchConfig {
    /// Defaults matching the quick experiment profile.
    pub fn new(overhead_limit: f32, seed: u64) -> Self {
        SearchConfig {
            episodes: 30,
            rollouts_per_episode: 4,
            hidden_size: 32,
            lr: 0.03,
            actions: DEFAULT_ACTIONS.to_vec(),
            reward: RewardSpec::new(overhead_limit),
            seed,
        }
    }
}

/// One explored placement (for Fig. 10-style scatter plots).
#[derive(Debug, Clone)]
pub struct ExploredPoint {
    /// Ratio per candidate slot.
    pub ratios: Vec<f32>,
    /// Evaluation outcome.
    pub outcome: Outcome,
    /// Reward under the configured spec.
    pub reward: f32,
}

/// Search result.
#[derive(Debug, Clone)]
pub struct SearchResult {
    /// Best placement found (by reward).
    pub best_ratios: Vec<f32>,
    /// Outcome of the best placement.
    pub best_outcome: Outcome,
    /// Reward of the best placement.
    pub best_reward: f32,
    /// Mean reward per episode (learning curve).
    pub reward_curve: Vec<f32>,
    /// Every distinct placement evaluated (the Fig. 10 cloud).
    pub explored: Vec<ExploredPoint>,
}

/// Runs REINFORCE with a moving-average baseline over `env`.
///
/// Over-budget placements are scored `−overhead` *without* running the
/// expensive compensator training (the paper's skip heuristic).
pub fn reinforce_search(env: &mut dyn Environment, cfg: &SearchConfig) -> SearchResult {
    let slots = env.num_slots();
    assert!(slots > 0, "environment has no decision slots");
    let mut policy = PolicyRnn::new(cfg.hidden_size, cfg.actions.len(), cfg.seed);
    let mut opt = Adam::new(cfg.lr);
    let mut rng = SeededRng::new(cfg.seed ^ 0x5ea6);

    let mut baseline = 0.0f32;
    let mut baseline_init = false;
    let mut best: Option<ExploredPoint> = None;
    let mut reward_curve = Vec::with_capacity(cfg.episodes);
    let mut explored: Vec<ExploredPoint> = Vec::new();
    let mut seen = std::collections::HashSet::new();

    for _ in 0..cfg.episodes {
        let mut episode_rewards = Vec::with_capacity(cfg.rollouts_per_episode);
        let mut rollouts = Vec::with_capacity(cfg.rollouts_per_episode);
        for _ in 0..cfg.rollouts_per_episode {
            let rollout = policy.sample(slots, &mut rng);
            let ratios: Vec<f32> = rollout.actions.iter().map(|&a| cfg.actions[a]).collect();
            let overhead = env.overhead_of(&ratios);
            let (outcome, reward) = if cfg.reward.over_budget(overhead) {
                // Skip the expensive evaluation (paper Sec. III-B).
                let outcome = Outcome {
                    acc_mean: 0.0,
                    acc_std: 0.0,
                    overhead,
                };
                (outcome, cfg.reward.reward(0.0, 0.0, overhead))
            } else {
                let outcome = env.evaluate(&ratios);
                (
                    outcome,
                    cfg.reward
                        .reward(outcome.acc_mean, outcome.acc_std, outcome.overhead),
                )
            };
            let point = ExploredPoint {
                ratios: ratios.clone(),
                outcome,
                reward,
            };
            if !cfg.reward.over_budget(overhead) {
                let key: Vec<u32> = ratios.iter().map(|r| (r * 1000.0) as u32).collect();
                if seen.insert(key) {
                    explored.push(point.clone());
                }
            }
            if best.as_ref().is_none_or(|b| reward > b.reward) {
                best = Some(point);
            }
            episode_rewards.push(reward);
            rollouts.push(rollout);
        }

        let mean_reward = episode_rewards.iter().sum::<f32>() / episode_rewards.len() as f32;
        if !baseline_init {
            baseline = mean_reward;
            baseline_init = true;
        }
        policy.zero_grad();
        for (rollout, &reward) in rollouts.iter().zip(episode_rewards.iter()) {
            policy.accumulate_reinforce(rollout, reward - baseline);
        }
        let mut params = policy.params_mut();
        opt.step(&mut params);
        baseline = 0.8 * baseline + 0.2 * mean_reward;
        reward_curve.push(mean_reward);
    }

    let best = best.expect("at least one rollout");
    SearchResult {
        best_ratios: best.ratios.clone(),
        best_outcome: best.outcome,
        best_reward: best.reward,
        reward_curve,
        explored,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::MockEnv;

    #[test]
    fn finds_target_in_mock_env() {
        // Optimal assignment: compensate slots 0 and 2 fully, skip 1 and 3.
        let mut env = MockEnv::new(vec![1.0, 0.0, 1.0, 0.0], 0.005);
        let cfg = SearchConfig {
            episodes: 60,
            rollouts_per_episode: 6,
            ..SearchConfig::new(0.5, 11)
        };
        let result = reinforce_search(&mut env, &cfg);
        // The best found assignment must be close to the target.
        let dist: f32 = result
            .best_ratios
            .iter()
            .zip(env.target.iter())
            .map(|(r, t)| (r - t).abs())
            .sum();
        assert!(
            dist <= 1.0,
            "best {:?} too far from target",
            result.best_ratios
        );
        assert!(result.best_outcome.acc_mean > 0.7);
    }

    #[test]
    fn learning_curve_improves() {
        let mut env = MockEnv::new(vec![0.5; 5], 0.005);
        let cfg = SearchConfig {
            episodes: 60,
            rollouts_per_episode: 6,
            ..SearchConfig::new(0.5, 13)
        };
        let result = reinforce_search(&mut env, &cfg);
        let early: f32 = result.reward_curve[..10].iter().sum::<f32>() / 10.0;
        let late: f32 = result.reward_curve[result.reward_curve.len() - 10..]
            .iter()
            .sum::<f32>()
            / 10.0;
        assert!(late > early, "no learning: {early} → {late}");
    }

    #[test]
    fn over_budget_plans_are_not_evaluated() {
        // Tiny budget: almost everything is over budget; the expensive
        // evaluate() should be called rarely (only for all-zero-ish plans).
        let mut env = MockEnv::new(vec![1.0; 6], 0.1);
        let cfg = SearchConfig {
            episodes: 10,
            rollouts_per_episode: 4,
            ..SearchConfig::new(0.05, 17)
        };
        let _ = reinforce_search(&mut env, &cfg);
        assert!(
            env.evaluations < 40,
            "budget skip not applied: {} evaluations",
            env.evaluations
        );
    }

    #[test]
    fn explored_points_are_unique_and_in_budget() {
        let mut env = MockEnv::new(vec![0.5; 4], 0.01);
        let cfg = SearchConfig::new(0.5, 19);
        let result = reinforce_search(&mut env, &cfg);
        let mut keys = std::collections::HashSet::new();
        for p in &result.explored {
            assert!(p.outcome.overhead <= 0.5);
            let key: Vec<u32> = p.ratios.iter().map(|r| (r * 1000.0) as u32).collect();
            assert!(keys.insert(key), "duplicate explored point");
        }
    }
}
