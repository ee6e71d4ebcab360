//! Training driven step by step, so each step of Algorithm 1 can be timed,
//! and the serving policy the quote workloads resolve.

use std::time::Instant;

use vtm_core::registry::{EnvBuildOptions, EnvRegistry};
use vtm_rl::buffer::RolloutBuffer;
use vtm_rl::env::Environment;
use vtm_rl::ppo::{PpoAgent, PpoConfig};
use vtm_rl::snapshot::PolicySnapshot;
use vtm_rl::vec_env::{CollectorConfig, ParallelCollector, VecEnv};

/// The registry preset every workload prices: the paper's two-VMU market.
pub const PRESET: &str = "static";

/// Seed of the serving policy. Fixed, like a shipped checkpoint: the
/// workload seed varies the requests, not the policy.
pub const POLICY_SEED: u64 = 7;

/// Episodes the serving policy is trained for.
pub const POLICY_EPISODES: usize = 8;

/// `Trainer::run`'s per-replica reset-seed constants (its seed schedule is
/// reproduced exactly; the train workload checks the result bit for bit).
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;
const ROUND_MIX: u64 = 0xA076_1D64_78BD_642F;

/// Where one hand-driven training run spent its time, and how much work
/// it did.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TrainSplit {
    /// Seconds in `ParallelCollector::collect_seeded`.
    pub collect_s: f64,
    /// Seconds draining rollouts and in `RolloutBuffer::process` (GAE).
    pub gae_s: f64,
    /// Seconds in `PpoAgent::update`.
    pub update_s: f64,
    /// Environment transitions collected.
    pub transitions: u64,
    /// Gradient steps taken.
    pub grad_steps: u64,
    /// Collection rounds (PPO iterations) run.
    pub rounds: u64,
}

/// The shape of one training run.
#[derive(Debug, Clone, Copy)]
pub struct TrainShape {
    /// Episodes, rounded up to whole rounds of `collectors` episodes.
    pub episodes: usize,
    /// Environment replicas per round.
    pub collectors: usize,
    /// Collection threads.
    pub threads: usize,
    /// Episode length bound.
    pub max_steps: usize,
    /// Base seed of the round/replica schedule.
    pub seed: u64,
}

/// `Trainer::run`'s loop from round 0, driven by hand with each step timed.
pub fn train_by_hand<E: Environment + Clone + Send>(
    env: &E,
    agent: &mut PpoAgent,
    shape: TrainShape,
) -> TrainSplit {
    let mut venv = VecEnv::from_fn(shape.collectors, |_| env.clone());
    let base = CollectorConfig::new(1, shape.max_steps)
        .with_seed(shape.seed)
        .with_threads(shape.threads);
    let (gamma, lambda, normalize) = {
        let c = agent.config();
        (c.gamma, c.gae_lambda, c.normalize_advantages)
    };
    let mut split = TrainSplit::default();
    for round in 0..shape.episodes.div_ceil(shape.collectors) as u64 {
        let reset_seeds: Vec<u64> = (0..shape.collectors)
            .map(|i| {
                shape.seed
                    ^ (i as u64 + 1).wrapping_mul(GOLDEN)
                    ^ (round + 1).wrapping_mul(ROUND_MIX)
            })
            .collect();
        let t = Instant::now();
        let rollouts = ParallelCollector::new(base.for_round(round)).collect_seeded(
            agent,
            &mut venv,
            &reset_seeds,
        );
        split.collect_s += t.elapsed().as_secs_f64();
        split.transitions += rollouts.total_transitions() as u64;

        let t = Instant::now();
        let mut buffer = RolloutBuffer::new();
        rollouts.drain_into(&mut buffer);
        let samples = buffer.process(gamma, lambda, 0.0, normalize);
        split.gae_s += t.elapsed().as_secs_f64();

        let t = Instant::now();
        let stats = agent.update(&samples);
        split.update_s += t.elapsed().as_secs_f64();
        split.grad_steps += stats.gradient_steps as u64;
        split.rounds += 1;
    }
    split
}

/// Trains the quote workloads' serving policy on the preset's environment
/// and returns it with its training split.
///
/// # Errors
///
/// When the preset is unknown.
pub fn serving_policy() -> Result<(PolicySnapshot, TrainSplit), String> {
    let build = EnvBuildOptions {
        seed: POLICY_SEED,
        ..EnvBuildOptions::default()
    };
    let env = EnvRegistry::builtin()
        .build(PRESET, &build)
        .ok_or_else(|| format!("unknown preset {PRESET}"))?;
    let config = PpoConfig::new(env.observation_dim(), 1).with_seed(POLICY_SEED);
    let mut agent = PpoAgent::new(config, env.action_space());
    let split = train_by_hand(
        &env,
        &mut agent,
        TrainShape {
            episodes: POLICY_EPISODES,
            collectors: 1,
            threads: 1,
            max_steps: build.rounds_per_episode,
            seed: POLICY_SEED,
        },
    );
    Ok((agent.snapshot().with_trained_rounds(split.rounds), split))
}
