//! Vectorized environments and deterministic parallel rollout collection.
//!
//! Rollout collection is the dominant cost of every DRL experiment in this
//! workspace: the serial loop in [`PpoAgent::collect_episodes`] runs two
//! row-vector network forward passes (actor + critic) per environment step.
//! This module removes that bottleneck twice over:
//!
//! 1. **Batching** — [`VecEnv`] steps `N` environment replicas in lockstep,
//!    so each collection step costs one actor and one critic *matrix* forward
//!    pass over all active replicas ([`PpoAgent::act_batch`]) instead of `2N`
//!    row-vector passes.
//! 2. **Parallelism** — [`ParallelCollector`] splits the replicas into
//!    contiguous chunks and collects each chunk on its own OS thread
//!    (`std::thread::scope`; the build environment has no crates.io access,
//!    so no rayon — plain scoped threads do the job for chunk-level
//!    fan-out).
//!
//! # Determinism
//!
//! Every environment replica owns a dedicated RNG stream derived from
//! [`CollectorConfig::seed`] and the replica index. A replica's trajectory
//! therefore depends only on its own stream, its own environment state and
//! the (frozen) policy parameters — never on thread scheduling or on how
//! replicas are grouped into batches. Combined with the bit-stable batched
//! forward pass ([`vtm_nn::mlp::Mlp::forward_rows`]), this makes
//! [`ParallelCollector::collect`] produce *identical* transitions for the
//! same seed at every thread count, which the test suite asserts.
//!
//! # Example
//!
//! ```
//! use vtm_rl::prelude::*;
//!
//! // A fixed-horizon toy environment.
//! struct Toy { t: usize }
//! impl Environment for Toy {
//!     fn observation_dim(&self) -> usize { 1 }
//!     fn action_space(&self) -> ActionSpace { ActionSpace::scalar(0.0, 1.0) }
//!     fn reset(&mut self) -> Vec<f64> { self.t = 0; vec![0.0] }
//!     fn step(&mut self, action: &[f64]) -> Step {
//!         self.t += 1;
//!         Step { observation: vec![self.t as f64], reward: action[0], done: self.t >= 4 }
//!     }
//! }
//!
//! let agent = PpoAgent::new(PpoConfig::new(1, 1).with_seed(3), ActionSpace::scalar(0.0, 1.0));
//! let mut venv = VecEnv::from_fn(8, |_| Toy { t: 0 });
//! let collector = ParallelCollector::new(CollectorConfig::new(2, 4).with_seed(3));
//! let rollouts = collector.collect(&agent, &mut venv);
//! assert_eq!(rollouts.total_transitions(), 8 * 2 * 4);
//! assert_eq!(rollouts.episode_returns().len(), 16);
//! ```

use std::thread;

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::buffer::{RolloutBuffer, Transition};
use crate::env::{ActionSpace, Environment};
use crate::ppo::PpoAgent;

/// A fixed-size set of environment replicas stepped in lockstep.
///
/// All replicas must agree on the observation dimension and the action
/// space; [`VecEnv::new`] validates this once so the collector can batch
/// observations without re-checking shapes every step.
#[derive(Debug, Clone)]
pub struct VecEnv<E> {
    envs: Vec<E>,
}

impl<E: Environment> VecEnv<E> {
    /// Wraps a non-empty set of environment replicas.
    ///
    /// # Panics
    ///
    /// Panics if `envs` is empty or the replicas disagree on observation
    /// dimension or action space.
    pub fn new(envs: Vec<E>) -> Self {
        assert!(!envs.is_empty(), "VecEnv needs at least one environment");
        let obs_dim = envs[0].observation_dim();
        let space = envs[0].action_space();
        for (i, env) in envs.iter().enumerate().skip(1) {
            assert_eq!(
                env.observation_dim(),
                obs_dim,
                "environment {i} disagrees on observation dimension"
            );
            assert_eq!(
                env.action_space(),
                space,
                "environment {i} disagrees on action space"
            );
        }
        Self { envs }
    }

    /// Builds `n` replicas from a factory closure (typically closing over a
    /// base configuration and varying the seed by index).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or the factory produces inconsistent replicas.
    pub fn from_fn(n: usize, factory: impl FnMut(usize) -> E) -> Self {
        Self::new((0..n).map(factory).collect())
    }

    /// Number of environment replicas.
    pub fn len(&self) -> usize {
        self.envs.len()
    }

    /// Whether the set is empty (never true for a constructed `VecEnv`).
    pub fn is_empty(&self) -> bool {
        self.envs.is_empty()
    }

    /// Observation dimensionality shared by all replicas.
    pub fn observation_dim(&self) -> usize {
        self.envs[0].observation_dim()
    }

    /// Action space shared by all replicas.
    pub fn action_space(&self) -> ActionSpace {
        self.envs[0].action_space()
    }

    /// Read access to the replicas.
    pub fn envs(&self) -> &[E] {
        &self.envs
    }

    /// Mutable access to the replicas.
    pub fn envs_mut(&mut self) -> &mut [E] {
        &mut self.envs
    }

    /// Consumes the wrapper and returns the replicas.
    pub fn into_envs(self) -> Vec<E> {
        self.envs
    }

    /// Resets every replica, returning the initial observations in order.
    pub fn reset_all(&mut self) -> Vec<Vec<f64>> {
        self.envs.iter_mut().map(Environment::reset).collect()
    }
}

/// Configuration of a [`ParallelCollector`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CollectorConfig {
    /// Complete episodes to collect from every replica.
    pub episodes_per_env: usize,
    /// Upper bound on episode length; episodes that reach it are truncated
    /// with `done = true`, mirroring [`PpoAgent::collect_episodes`].
    pub max_steps: usize,
    /// Base seed of the per-replica RNG streams.
    pub seed: u64,
    /// Worker threads for [`ParallelCollector::collect`]; `0` means one per
    /// available CPU core.
    pub num_threads: usize,
}

impl CollectorConfig {
    /// Creates a configuration collecting `episodes_per_env` episodes of at
    /// most `max_steps` steps, seeded with 0, one thread per core.
    ///
    /// # Panics
    ///
    /// Panics if either count is zero.
    pub fn new(episodes_per_env: usize, max_steps: usize) -> Self {
        assert!(episodes_per_env > 0, "episodes_per_env must be positive");
        assert!(max_steps > 0, "max_steps must be positive");
        Self {
            episodes_per_env,
            max_steps,
            seed: 0,
            num_threads: 0,
        }
    }

    /// Overrides the base seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the worker-thread count (`0` = one per core).
    pub fn with_threads(mut self, num_threads: usize) -> Self {
        self.num_threads = num_threads;
        self
    }

    fn resolved_threads(&self) -> usize {
        if self.num_threads > 0 {
            self.num_threads
        } else {
            thread::available_parallelism().map_or(1, usize::from)
        }
    }

    /// The RNG stream owned by replica `index`.
    ///
    /// Streams are decorrelated by multiplying the (1-based) index with a
    /// 64-bit golden-ratio constant before xor-ing into the base seed, the
    /// same construction [`PpoAgent`] uses for its internal draws.
    pub fn rng_for_env(&self, index: usize) -> StdRng {
        StdRng::seed_from_u64(self.seed ^ (index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Returns a copy whose base seed is advanced for training round
    /// `round`, so that repeated collections within one training run draw
    /// fresh exploration noise while the run as a whole stays deterministic.
    ///
    /// Uses a wrapping-add advance with a constant unrelated to the xor
    /// decorrelation of [`CollectorConfig::rng_for_env`], so per-round and
    /// per-replica streams cannot collide in practice.
    pub fn for_round(&self, round: u64) -> Self {
        Self {
            seed: self
                .seed
                .wrapping_add((round + 1).wrapping_mul(0xD1B5_4A32_D192_ED03)),
            ..*self
        }
    }
}

/// Everything collected from one environment replica.
#[derive(Debug, Clone, PartialEq)]
pub struct EnvRollout {
    /// Transitions in collection order (episodes concatenated).
    pub transitions: Vec<Transition>,
    /// Undiscounted return of each completed episode.
    pub returns: Vec<f64>,
}

/// The result of one collection pass over a [`VecEnv`].
#[derive(Debug, Clone, PartialEq)]
pub struct CollectedRollouts {
    /// Per-replica rollouts, in replica order.
    pub per_env: Vec<EnvRollout>,
}

impl CollectedRollouts {
    /// Total number of transitions across all replicas.
    pub fn total_transitions(&self) -> usize {
        self.per_env.iter().map(|r| r.transitions.len()).sum()
    }

    /// All episode returns, flattened in replica order.
    pub fn episode_returns(&self) -> Vec<f64> {
        self.per_env
            .iter()
            .flat_map(|r| r.returns.iter().copied())
            .collect()
    }

    /// Moves every transition into `buffer`, replica by replica.
    pub fn drain_into(self, buffer: &mut RolloutBuffer) {
        for rollout in self.per_env {
            for transition in rollout.transitions {
                buffer.push(transition);
            }
        }
    }
}

/// Collects rollouts from a [`VecEnv`] with batched policy evaluation and
/// chunk-level thread parallelism. See the module docs for the determinism
/// contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelCollector {
    config: CollectorConfig,
}

impl ParallelCollector {
    /// Creates a collector.
    pub fn new(config: CollectorConfig) -> Self {
        Self { config }
    }

    /// The collector's configuration.
    pub fn config(&self) -> &CollectorConfig {
        &self.config
    }

    /// Collects the configured episodes from every replica in parallel.
    ///
    /// Replicas are split into `num_threads` contiguous chunks, each chunk
    /// collected on its own scoped thread with lockstep-batched forward
    /// passes (one thread collects on the caller's thread). Output order is
    /// replica order regardless of scheduling, and contents are identical
    /// for every thread count.
    pub fn collect<E: Environment + Send>(
        &self,
        agent: &PpoAgent,
        venv: &mut VecEnv<E>,
    ) -> CollectedRollouts {
        self.collect_impl(agent, venv, None)
    }

    /// Like [`ParallelCollector::collect`], but replica `i`'s *first* episode
    /// starts from `Environment::reset_with_seed(reset_seeds[i])` instead of
    /// a plain reset, pinning it to an exact environment stream (subsequent
    /// episodes of the same call, if any, continue with plain resets).
    ///
    /// This is how the round-addressed [`Trainer`](crate::trainer::Trainer)
    /// seed schedule reaches the environments without a redundant extra
    /// reset per round.
    ///
    /// # Panics
    ///
    /// Panics if `reset_seeds.len() != venv.len()`.
    pub fn collect_seeded<E: Environment + Send>(
        &self,
        agent: &PpoAgent,
        venv: &mut VecEnv<E>,
        reset_seeds: &[u64],
    ) -> CollectedRollouts {
        assert_eq!(
            reset_seeds.len(),
            venv.len(),
            "one reset seed per environment replica"
        );
        self.collect_impl(agent, venv, Some(reset_seeds))
    }

    fn collect_impl<E: Environment + Send>(
        &self,
        agent: &PpoAgent,
        venv: &mut VecEnv<E>,
        reset_seeds: Option<&[u64]>,
    ) -> CollectedRollouts {
        let n = venv.len();
        let threads = self.config.resolved_threads().min(n).max(1);
        let mut rngs: Vec<StdRng> = (0..n).map(|i| self.config.rng_for_env(i)).collect();
        let config = self.config;
        if threads == 1 {
            let per_env = collect_chunk(agent, venv.envs_mut(), &mut rngs, reset_seeds, &config);
            return CollectedRollouts { per_env };
        }
        let chunk_size = n.div_ceil(threads);
        let env_chunks = venv.envs_mut().chunks_mut(chunk_size);
        let rng_chunks = rngs.chunks_mut(chunk_size);
        let per_env = thread::scope(|scope| {
            let handles: Vec<_> = env_chunks
                .zip(rng_chunks)
                .enumerate()
                .map(|(chunk_idx, (envs, rngs))| {
                    let seeds = reset_seeds
                        .map(|s| &s[chunk_idx * chunk_size..chunk_idx * chunk_size + envs.len()]);
                    scope.spawn(move || collect_chunk(agent, envs, rngs, seeds, &config))
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("rollout worker thread panicked"))
                .collect()
        });
        CollectedRollouts { per_env }
    }
}

/// Per-replica bookkeeping for the lockstep loop.
struct ReplicaState {
    observation: Vec<f64>,
    step_in_episode: usize,
    episodes_done: usize,
    episode_return: f64,
    rollout: EnvRollout,
}

/// Collects `config.episodes_per_env` episodes from every environment in
/// `envs`, stepping all not-yet-finished replicas in lockstep so the policy
/// and value networks run one batched forward pass per collection step.
/// When `reset_seeds` is given, replica `i`'s first episode starts from
/// `reset_with_seed(reset_seeds[i])`.
fn collect_chunk<E: Environment>(
    agent: &PpoAgent,
    envs: &mut [E],
    rngs: &mut [StdRng],
    reset_seeds: Option<&[u64]>,
    config: &CollectorConfig,
) -> Vec<EnvRollout> {
    debug_assert_eq!(envs.len(), rngs.len());
    let mut states: Vec<ReplicaState> = envs
        .iter_mut()
        .enumerate()
        .map(|(i, env)| ReplicaState {
            observation: match reset_seeds {
                Some(seeds) => env.reset_with_seed(seeds[i]),
                None => env.reset(),
            },
            step_in_episode: 0,
            episodes_done: 0,
            episode_return: 0.0,
            rollout: EnvRollout {
                transitions: Vec::new(),
                returns: Vec::with_capacity(config.episodes_per_env),
            },
        })
        .collect();

    loop {
        // Gather the active replicas' indices, observations and RNG streams
        // in one pass over the same predicate, so an (observation, stream)
        // pair can never desynchronize from its replica.
        let mut active = Vec::with_capacity(envs.len());
        let mut observations = Vec::with_capacity(envs.len());
        let mut stream_refs: Vec<&mut StdRng> = Vec::with_capacity(envs.len());
        for (i, (state, rng)) in states.iter().zip(rngs.iter_mut()).enumerate() {
            if state.episodes_done < config.episodes_per_env {
                active.push(i);
                observations.push(state.observation.as_slice());
                stream_refs.push(rng);
            }
        }
        if active.is_empty() {
            break;
        }

        // One batched actor + critic forward pass for every active replica.
        let samples = agent.act_batch(&observations, &mut stream_refs);
        drop(observations);

        for (sample, &i) in samples.into_iter().zip(active.iter()) {
            let state = &mut states[i];
            let step = envs[i].step(&sample.env_action);
            state.step_in_episode += 1;
            state.episode_return += step.reward;
            let done = step.done || state.step_in_episode == config.max_steps;
            state.rollout.transitions.push(Transition {
                observation: std::mem::take(&mut state.observation),
                action: sample.raw_action,
                log_prob: sample.log_prob,
                value: sample.value,
                reward: step.reward,
                done,
            });
            if done {
                state.rollout.returns.push(state.episode_return);
                state.episode_return = 0.0;
                state.step_in_episode = 0;
                state.episodes_done += 1;
                if state.episodes_done < config.episodes_per_env {
                    state.observation = envs[i].reset();
                }
            } else {
                state.observation = step.observation;
            }
        }
    }

    states.into_iter().map(|s| s.rollout).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::Step;
    use crate::ppo::PpoConfig;

    /// A two-step environment whose rewards depend on the action, so that
    /// trajectory equality is a meaningful determinism check.
    #[derive(Debug, Clone)]
    struct Ramp {
        t: usize,
        horizon: usize,
    }

    impl Ramp {
        fn new(horizon: usize) -> Self {
            Self { t: 0, horizon }
        }
    }

    impl Environment for Ramp {
        fn observation_dim(&self) -> usize {
            2
        }
        fn action_space(&self) -> ActionSpace {
            ActionSpace::scalar(0.0, 1.0)
        }
        fn reset(&mut self) -> Vec<f64> {
            self.t = 0;
            vec![0.0, 1.0]
        }
        fn step(&mut self, action: &[f64]) -> Step {
            self.t += 1;
            Step {
                observation: vec![self.t as f64 / self.horizon as f64, 1.0],
                reward: action[0],
                done: self.t >= self.horizon,
            }
        }
    }

    fn agent() -> PpoAgent {
        PpoAgent::new(
            PpoConfig::new(2, 1).with_seed(5),
            ActionSpace::scalar(0.0, 1.0),
        )
    }

    #[test]
    fn vec_env_validates_replicas() {
        let mut venv = VecEnv::from_fn(4, |_| Ramp::new(3));
        assert_eq!(venv.len(), 4);
        assert!(!venv.is_empty());
        assert_eq!(venv.observation_dim(), 2);
        assert_eq!(venv.action_space().dim(), 1);
        assert_eq!(venv.reset_all().len(), 4);
        assert_eq!(venv.into_envs().len(), 4);
    }

    #[test]
    #[should_panic(expected = "at least one environment")]
    fn empty_vec_env_rejected() {
        let _ = VecEnv::<Ramp>::new(vec![]);
    }

    #[test]
    fn collector_collects_requested_episodes() {
        let agent = agent();
        let mut venv = VecEnv::from_fn(3, |_| Ramp::new(4));
        let collector =
            ParallelCollector::new(CollectorConfig::new(2, 10).with_seed(1).with_threads(1));
        let rollouts = collector.collect(&agent, &mut venv);
        assert_eq!(rollouts.per_env.len(), 3);
        for rollout in &rollouts.per_env {
            assert_eq!(rollout.returns.len(), 2);
            assert_eq!(rollout.transitions.len(), 8); // 2 episodes x 4 steps
                                                      // Episode boundaries carry done flags.
            assert!(rollout.transitions[3].done);
            assert!(rollout.transitions[7].done);
        }
        assert_eq!(rollouts.total_transitions(), 24);
        assert_eq!(rollouts.episode_returns().len(), 6);
    }

    #[test]
    fn max_steps_truncates_episodes() {
        let agent = agent();
        // Horizon 100 but cap at 5 steps.
        let mut venv = VecEnv::from_fn(2, |_| Ramp::new(100));
        let collector =
            ParallelCollector::new(CollectorConfig::new(1, 5).with_seed(2).with_threads(1));
        let rollouts = collector.collect(&agent, &mut venv);
        for rollout in &rollouts.per_env {
            assert_eq!(rollout.transitions.len(), 5);
            assert!(rollout.transitions[4].done, "truncation must set done");
        }
    }

    #[test]
    fn parallel_matches_serial_exactly() {
        let agent = agent();
        let config = CollectorConfig::new(3, 6).with_seed(42);
        let mut venv_a = VecEnv::from_fn(8, |_| Ramp::new(6));
        let mut venv_b = VecEnv::from_fn(8, |_| Ramp::new(6));
        let serial = ParallelCollector::new(config.with_threads(1)).collect(&agent, &mut venv_a);
        let parallel = ParallelCollector::new(config.with_threads(4)).collect(&agent, &mut venv_b);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn drain_into_preserves_episode_structure() {
        let agent = agent();
        let mut venv = VecEnv::from_fn(2, |_| Ramp::new(3));
        let collector =
            ParallelCollector::new(CollectorConfig::new(2, 3).with_seed(3).with_threads(1));
        let rollouts = collector.collect(&agent, &mut venv);
        let returns = rollouts.episode_returns();
        let mut buffer = RolloutBuffer::new();
        rollouts.drain_into(&mut buffer);
        assert_eq!(buffer.len(), 12);
        let buffered = buffer.episode_returns();
        assert_eq!(buffered.len(), 4);
        for (a, b) in returns.iter().zip(buffered.iter()) {
            assert!((a - b).abs() < 1e-12);
        }
    }
}
