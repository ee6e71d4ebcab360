//! # vtm-bench — experiment harness
//!
//! Shared utilities for the experiment binary that regenerates every figure
//! of the paper's evaluation (§V) and the trace-driven scenario experiments,
//! and for the wall-clock acceptance tests.
//!
//! The single manifest-driven [`experiments`] runner replaces the old
//! one-figure-per-binary layout: every experiment is an entry in
//! [`experiments::manifest`], selected by name on the command line (the
//! historical `fig*`/`ablation*` binary stems live on as aliases), and emits
//! its series as an aligned table plus CSV and JSON files under `results/`
//! via the [`report`] helpers. The runner also drives the policy lifecycle:
//! `experiments train` ([`lifecycle`]) produces versioned policy checkpoints
//! and `experiments serve-bench` ([`serve_bench`]) measures the batched
//! serving layer's quote throughput against the per-request baseline;
//! `experiments gateway-bench` and `experiments fabric-bench` share one
//! closed- and open-loop load driver over the sharded A/B fabric
//! (`vtm-fabric`, [`load_bench`]) and record per-shard gateway telemetry
//! (latency percentiles, batch-size histograms, rejects) plus per-arm
//! percentiles; `gateway-bench` compares executor and ingress concurrency
//! inside one shard, `fabric-bench` compares shard counts;
//! `experiments journal-demo` / `experiments replay` ([`journal_cli`])
//! record a journaled gateway run and reconstruct its exact service state
//! from the audit journal (optionally resuming from a snapshot);
//! `experiments chaos` ([`chaos`]) injects deterministic fault plans into a
//! live gateway and checks liveness plus post-recovery replay equivalence;
//! `experiments metrics-dump` / `experiments slo-check` ([`obs_cli`]) render
//! a traced gateway run's metrics registry (Prometheus text + JSON, with a
//! deterministic logical-clock stage decomposition) and gate fresh bench
//! reports against the committed baselines in `results/baselines/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod experiments;
pub mod journal_cli;
pub mod lifecycle;
pub mod load_bench;
pub mod obs_cli;
pub mod report;
pub mod serve_bench;
pub mod timing;

pub use report::{results_dir, Report, ResultsTable};

use vtm_core::config::{DrlConfig, ExperimentConfig};
use vtm_core::env::RewardMode;
use vtm_core::mechanism::{IncentiveMechanism, TrainingHistory};
use vtm_rl::buffer::ProcessedSample;
use vtm_rl::env::{ActionSpace, Environment, Step};
use vtm_rl::ppo::{PpoAgent, PpoConfig};

/// The DRL configuration used by the experiment binaries: the paper's
/// settings when `full` is true, otherwise a faster configuration with the
/// same structure (fewer episodes, larger learning rate) so that every figure
/// can be regenerated in minutes on a laptop.
pub fn harness_drl_config(full: bool, seed: u64) -> DrlConfig {
    if full {
        DrlConfig {
            seed,
            ..DrlConfig::default()
        }
    } else {
        DrlConfig {
            episodes: 80,
            rounds_per_episode: 50,
            learning_rate: 3e-4,
            seed,
            ..DrlConfig::default()
        }
    }
}

/// Trains the learning-based mechanism on `config` and returns it together
/// with its training history.
pub fn train_mechanism(
    config: ExperimentConfig,
    reward: RewardMode,
) -> (IncentiveMechanism, TrainingHistory) {
    let mut mechanism = IncentiveMechanism::with_reward_mode(config, reward);
    let history = mechanism.train();
    (mechanism, history)
}

/// The 12-dimensional fixed-horizon environment of the rollout equivalence
/// and acceptance tests (`tests/rollout_speedup.rs`): `K`-round episodes
/// like the paper's pricing game, reward peaking at action 25 inside the
/// `[5, 50]` price box.
#[derive(Debug, Clone)]
pub struct FixedHorizonEnv {
    t: usize,
    horizon: usize,
}

impl FixedHorizonEnv {
    /// Creates an environment whose episodes last exactly `horizon` steps.
    ///
    /// # Panics
    ///
    /// Panics if `horizon` is zero.
    pub fn new(horizon: usize) -> Self {
        assert!(horizon > 0, "horizon must be positive");
        Self { t: 0, horizon }
    }
}

impl Environment for FixedHorizonEnv {
    fn observation_dim(&self) -> usize {
        12
    }
    fn action_space(&self) -> ActionSpace {
        ActionSpace::scalar(5.0, 50.0)
    }
    fn reset(&mut self) -> Vec<f64> {
        self.t = 0;
        vec![0.1; 12]
    }
    fn step(&mut self, action: &[f64]) -> Step {
        self.t += 1;
        let mut observation = vec![0.1; 12];
        observation[0] = self.t as f64 / self.horizon as f64;
        Step {
            observation,
            reward: -(action[0] - 25.0).powi(2) / 100.0,
            done: self.t >= self.horizon,
        }
    }
}

/// The PPO agent configuration used by the rollout tests and the
/// bare-gateway overhead acceptances ([`load_bench::bare_gateway_qps`]):
/// 12-dim observations, scalar price action, fixed seed 7.
pub fn rollout_bench_agent() -> PpoAgent {
    PpoAgent::new(
        PpoConfig::new(12, 1).with_seed(7),
        ActionSpace::scalar(5.0, 50.0),
    )
}

/// A PPO agent at the paper's network and update shapes — two hidden
/// layers of 64 units, mini-batch `|I| = 20`, `M = 10` update epochs — with
/// a 7-dim observation (the paper's two-VMU market observes 12) and a
/// scalar price action, shared by the fused/reference equivalence test and
/// the update speedup acceptance (`tests/update_equivalence.rs`).
pub fn update_bench_agent(seed: u64) -> PpoAgent {
    PpoAgent::new(
        PpoConfig::new(7, 1).with_seed(seed),
        ActionSpace::scalar(5.0, 50.0),
    )
}

/// Deterministic synthetic PPO samples at the paper's shapes for exercising
/// the update path without running an environment. Advantages and
/// log-probability offsets are spread wide enough that both the clipped and
/// unclipped surrogate branches are taken.
pub fn update_bench_samples(agent: &PpoAgent, n: usize, seed: u64) -> Vec<ProcessedSample> {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let obs_dim = agent.config().obs_dim;
    let action_dim = agent.config().action_dim;
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let observation: Vec<f64> = (0..obs_dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let action: Vec<f64> = (0..action_dim).map(|_| rng.gen_range(-2.0..2.0)).collect();
            ProcessedSample {
                old_log_prob: rng.gen_range(-3.0..0.0),
                advantage: rng.gen_range(-2.0..2.0),
                value_target: rng.gen_range(-1.0..1.0),
                observation,
                action,
            }
        })
        .collect()
}

/// Mean of a slice (0 when empty), used by several binaries.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_config_scales() {
        assert_eq!(harness_drl_config(true, 1).episodes, 500);
        assert!(harness_drl_config(false, 1).episodes < 500);
        assert_eq!(harness_drl_config(false, 7).seed, 7);
    }

    #[test]
    fn fixed_horizon_env_terminates_on_schedule() {
        let mut env = FixedHorizonEnv::new(3);
        assert_eq!(env.reset().len(), env.observation_dim());
        assert!(!env.step(&[25.0]).done);
        assert!(!env.step(&[25.0]).done);
        assert!(env.step(&[25.0]).done);
        let agent = rollout_bench_agent();
        assert_eq!(agent.config().obs_dim, 12);
    }

    #[test]
    fn mean_helper() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
    }
}
