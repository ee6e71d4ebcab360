//! Builder-style training loop: the single entry point of the policy
//! lifecycle's *learn* phase. Every caller that trains (the mechanism's
//! Algorithm 1, the scenario runs, the experiments CLI) runs this one path
//! over [`ParallelCollector`], with one seed schedule:
//!
//! ```text
//! Trainer::for_env(env)
//!     .episodes(200)
//!     .collectors(4)          // environment replicas per collection round
//!     .threads(0)             // 0 = one worker per core
//!     .max_steps(100)
//!     .checkpoint_every(50, "checkpoints/")
//!     .on_episode(|e| println!("ep {} return {}", e.episode, e.episode_return))
//!     .run(&mut agent)
//! ```
//!
//! # Round-addressed determinism
//!
//! Every collection round `r` reseeds each environment replica `i` with a
//! seed derived *only* from `(base seed, r, i)` and draws collector noise
//! from [`CollectorConfig::for_round`]`(r)`. Training is therefore a pure
//! function of `(agent state, base seed, round range)` — independent of
//! thread count *and* of how the round range is split across calls. Combined
//! with [`PolicySnapshot`] capturing the agent's complete mutable state,
//! this makes `train(k) → checkpoint → resume(n − k)` bit-identical to
//! `train(n)`, which the checkpoint test suite asserts.
//!
//! # Example
//!
//! ```
//! use vtm_rl::prelude::*;
//!
//! #[derive(Clone)]
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
//! let mut agent = PpoAgent::new(PpoConfig::new(1, 1).with_seed(1), ActionSpace::scalar(0.0, 1.0));
//! let report = Trainer::for_env(Toy { t: 0 })
//!     .episodes(4)
//!     .collectors(2)
//!     .max_steps(4)
//!     .run(&mut agent)
//!     .unwrap();
//! assert_eq!(report.episode_returns.len(), 4);
//! ```

use std::path::PathBuf;

use crate::buffer::RolloutBuffer;
use crate::env::Environment;
use crate::ppo::PpoAgent;
use crate::snapshot::{PolicySnapshot, SnapshotError};
use crate::vec_env::{CollectorConfig, ParallelCollector, VecEnv};

/// Golden-ratio constant decorrelating per-replica seed streams (shared with
/// the rollout collector).
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;
/// Constant decorrelating per-round environment reseeds from the replica
/// streams.
const ROUND_MIX: u64 = 0xA076_1D64_78BD_642F;

/// Everything the per-episode hook can observe about a just-finished episode.
#[derive(Debug)]
pub struct EpisodeEvent<'a, E> {
    /// Global episode index within this `run` call (0-based).
    pub episode: usize,
    /// Global training round the episode belongs to (monotone across
    /// resumed runs).
    pub round: u64,
    /// Which environment replica played the episode.
    pub replica: usize,
    /// Undiscounted episode return.
    pub episode_return: f64,
    /// The replica's environment right after the episode, for domain-side
    /// statistics (e.g. the pricing environment's per-episode aggregates).
    pub env: &'a E,
}

/// Summary of one [`Trainer::run`] call.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TrainerReport {
    /// Undiscounted return of every episode, in order.
    pub episode_returns: Vec<f64>,
    /// Collection rounds executed by this call.
    pub rounds: u64,
    /// First global round index of this call (0 unless resumed).
    pub start_round: u64,
    /// Checkpoint files written, in order.
    pub checkpoints: Vec<PathBuf>,
}

impl TrainerReport {
    /// The global round counter after this call: pass it (or a checkpoint's
    /// `trained_rounds`) to [`Trainer::start_round`] to continue seamlessly.
    pub fn next_round(&self) -> u64 {
        self.start_round + self.rounds
    }
}

/// Builder-style training loop over a cloneable environment. See the module
/// docs for the determinism contract.
pub struct Trainer<'h, E> {
    env: E,
    episodes: usize,
    collectors: usize,
    threads: usize,
    max_steps: usize,
    seed: Option<u64>,
    start_round: u64,
    checkpoint: Option<(usize, PathBuf)>,
    #[allow(clippy::type_complexity)] // the hook type is the API
    on_episode: Option<Box<dyn FnMut(&EpisodeEvent<'_, E>) + 'h>>,
}

impl<'h, E: Environment + Clone + Send> Trainer<'h, E> {
    /// Starts a trainer for (replicas of) `env`.
    ///
    /// Defaults: 1 episode, 1 collector, 1 thread, `max_steps` 10 000 (a
    /// truncation backstop — environments with a natural horizon terminate
    /// sooner), seed taken from the agent's configuration, round counter 0,
    /// no checkpoints, no hook.
    pub fn for_env(env: E) -> Self {
        Self {
            env,
            episodes: 1,
            collectors: 1,
            threads: 1,
            max_steps: 10_000,
            seed: None,
            start_round: 0,
            checkpoint: None,
            on_episode: None,
        }
    }

    /// Total episodes to train in this call (rounded up to a whole number of
    /// collection rounds of `collectors` episodes each).
    pub fn episodes(mut self, episodes: usize) -> Self {
        self.episodes = episodes;
        self
    }

    /// Number of environment replicas collected per round. Every round
    /// contributes `collectors` episodes to a single PPO update, so this also
    /// scales the effective batch per update.
    ///
    /// # Panics
    ///
    /// Panics if `collectors` is zero.
    pub fn collectors(mut self, collectors: usize) -> Self {
        assert!(collectors > 0, "need at least one collector replica");
        self.collectors = collectors;
        self
    }

    /// Worker threads for collection (`0` = one per core). The result is
    /// bit-identical for every thread count.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Upper bound on episode length; episodes reaching it are truncated with
    /// `done = true`.
    ///
    /// # Panics
    ///
    /// Panics if `max_steps` is zero.
    pub fn max_steps(mut self, max_steps: usize) -> Self {
        assert!(max_steps > 0, "max_steps must be positive");
        self.max_steps = max_steps;
        self
    }

    /// Base seed of the round/replica seed schedule. Defaults to the agent's
    /// configured seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Starts the global round counter at `round` instead of 0. Pass a
    /// checkpoint's `trained_rounds` (or [`TrainerReport::next_round`]) to
    /// resume a run: the remaining rounds replay exactly the seed schedule
    /// the uninterrupted run would have used.
    pub fn start_round(mut self, round: u64) -> Self {
        self.start_round = round;
        self
    }

    /// Writes a [`PolicySnapshot`] checkpoint into `dir` every `every`
    /// completed episodes (and always after the final round). The directory
    /// is created if needed; files are named `policy_ep<episodes>.vtm` where
    /// `<episodes>` counts *globally* (from round 0, across resumed runs
    /// with the same collector count), so a resumed run extends the schedule
    /// instead of overwriting the earlier run's checkpoints. Each file
    /// records the global round counter for seamless resumption.
    ///
    /// # Panics
    ///
    /// Panics if `every` is zero.
    pub fn checkpoint_every(mut self, every: usize, dir: impl Into<PathBuf>) -> Self {
        assert!(every > 0, "checkpoint interval must be positive");
        self.checkpoint = Some((every, dir.into()));
        self
    }

    /// Installs a hook invoked once per completed episode, in episode order.
    pub fn on_episode(mut self, hook: impl FnMut(&EpisodeEvent<'_, E>) + 'h) -> Self {
        self.on_episode = Some(Box::new(hook));
        self
    }

    /// Runs the configured training loop, mutating `agent` in place.
    ///
    /// # Errors
    ///
    /// Returns a [`SnapshotError`] when the agent carries a frozen
    /// observation normalizer (training would compute importance ratios
    /// against a different policy than the one that acted — the check runs
    /// up front, before any rollout work) or when a checkpoint cannot be
    /// written; the agent keeps all progress made up to that point.
    pub fn run(mut self, agent: &mut PpoAgent) -> Result<TrainerReport, SnapshotError> {
        if agent.obs_normalizer().is_some() {
            return Err(SnapshotError::Incompatible(
                "cannot train an agent with a frozen observation normalizer installed; \
                 remove it with set_obs_normalizer(None) first"
                    .to_string(),
            ));
        }
        let seed = self.seed.unwrap_or(agent.config().seed);
        let num_envs = self.collectors;
        let mut venv = VecEnv::from_fn(num_envs, |_| self.env.clone());
        let base_config = CollectorConfig::new(1, self.max_steps)
            .with_seed(seed)
            .with_threads(self.threads);
        let iterations = self.episodes.div_ceil(num_envs);
        let mut report = TrainerReport {
            start_round: self.start_round,
            ..TrainerReport::default()
        };
        let (gamma, lambda, normalize) = {
            let c = agent.config();
            (c.gamma, c.gae_lambda, c.normalize_advantages)
        };
        for iter in 0..iterations {
            let round = self.start_round + iter as u64;
            // Pin every replica's environment stream to (seed, round, i): the
            // trajectory of round r is then independent of which call of a
            // split run executes it. The collector applies the seed as the
            // replica's initial reset, so each round performs exactly one
            // (seeded) reset per replica.
            let reset_seeds: Vec<u64> = (0..num_envs)
                .map(|i| {
                    seed ^ (i as u64 + 1).wrapping_mul(GOLDEN) ^ (round + 1).wrapping_mul(ROUND_MIX)
                })
                .collect();
            let collector = ParallelCollector::new(base_config.for_round(round));
            let rollouts = collector.collect_seeded(agent, &mut venv, &reset_seeds);
            for (i, (rollout, env)) in rollouts.per_env.iter().zip(venv.envs()).enumerate() {
                let episode_return = rollout.returns.first().copied().unwrap_or(0.0);
                let episode = iter * num_envs + i;
                if let Some(hook) = self.on_episode.as_mut() {
                    hook(&EpisodeEvent {
                        episode,
                        round,
                        replica: i,
                        episode_return,
                        env,
                    });
                }
                report.episode_returns.push(episode_return);
            }
            let mut buffer = RolloutBuffer::new();
            rollouts.drain_into(&mut buffer);
            let samples = buffer.process(gamma, lambda, 0.0, normalize);
            agent.update(&samples);
            report.rounds += 1;

            if let Some((every, dir)) = &self.checkpoint {
                // Cadence and filenames use *global* episode counts (rounds
                // since round 0, not since this call), so a resumed run
                // continues the schedule instead of overwriting the earlier
                // run's checkpoints with globally-older policies.
                let episodes_done = (round + 1) as usize * num_envs;
                let prev_done = round as usize * num_envs;
                let last = iter + 1 == iterations;
                if episodes_done / every > prev_done / every || last {
                    std::fs::create_dir_all(dir)
                        .map_err(|e| SnapshotError::Codec(vtm_nn::codec::CodecError::Io(e)))?;
                    let path = dir.join(format!("policy_ep{episodes_done:06}.vtm"));
                    agent
                        .snapshot()
                        .with_trained_rounds(round + 1)
                        .with_trained_collectors(num_envs as u64)
                        .save_to(&path)?;
                    report.checkpoints.push(path);
                }
            }
        }
        Ok(report)
    }
}

/// Convenience: build a trainer that resumes a checkpoint's recorded
/// schedule — round counter, base seed, and (when recorded) collector
/// count, all three of which parameterize the `(seed, round, replica)`
/// reset schedule and must be reused for the resumed run to stay
/// bit-identical to an uninterrupted one. The caller still restores the
/// agent itself with [`PpoAgent::restore`] (kept separate so one snapshot
/// can seed several runs) and may override any builder setting afterwards.
pub fn resume_from<'h, E: Environment + Clone + Send>(
    env: E,
    snapshot: &PolicySnapshot,
) -> Trainer<'h, E> {
    let trainer = Trainer::for_env(env)
        .start_round(snapshot.trained_rounds)
        .seed(snapshot.config.seed);
    match snapshot.trained_collectors {
        0 => trainer,
        k => trainer.collectors(k as usize),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::{ActionSpace, Step};
    use crate::ppo::PpoConfig;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A seed-honouring stochastic environment: observations depend on an
    /// internal RNG stream, so resume tests exercise the reseed schedule.
    #[derive(Clone)]
    struct Noisy {
        t: usize,
        horizon: usize,
        rng: StdRng,
    }

    impl Noisy {
        fn new(horizon: usize) -> Self {
            Self {
                t: 0,
                horizon,
                rng: StdRng::seed_from_u64(0),
            }
        }
    }

    impl Environment for Noisy {
        fn observation_dim(&self) -> usize {
            2
        }
        fn action_space(&self) -> ActionSpace {
            ActionSpace::scalar(0.0, 1.0)
        }
        fn reset(&mut self) -> Vec<f64> {
            self.t = 0;
            vec![self.rng.gen_range(-1.0..1.0), 0.0]
        }
        fn reset_with_seed(&mut self, seed: u64) -> Vec<f64> {
            self.rng = StdRng::seed_from_u64(seed);
            self.reset()
        }
        fn step(&mut self, action: &[f64]) -> Step {
            self.t += 1;
            Step {
                observation: vec![self.rng.gen_range(-1.0..1.0), self.t as f64],
                reward: action[0],
                done: self.t >= self.horizon,
            }
        }
    }

    fn agent(seed: u64) -> PpoAgent {
        PpoAgent::new(
            PpoConfig::new(2, 1).with_seed(seed),
            ActionSpace::scalar(0.0, 1.0),
        )
    }

    #[test]
    fn trainer_runs_requested_episodes_and_reports() {
        let mut a = agent(1);
        let mut seen = Vec::new();
        let report = Trainer::for_env(Noisy::new(3))
            .episodes(6)
            .collectors(3)
            .max_steps(3)
            .on_episode(|e| seen.push((e.episode, e.replica)))
            .run(&mut a)
            .unwrap();
        assert_eq!(report.episode_returns.len(), 6);
        assert_eq!(report.rounds, 2);
        assert_eq!(report.next_round(), 2);
        assert_eq!(seen, vec![(0, 0), (1, 1), (2, 2), (3, 0), (4, 1), (5, 2)]);
    }

    #[test]
    fn trainer_is_thread_count_invariant() {
        let mut a = agent(2);
        let mut b = agent(2);
        let ra = Trainer::for_env(Noisy::new(4))
            .episodes(8)
            .collectors(4)
            .threads(1)
            .max_steps(4)
            .run(&mut a)
            .unwrap();
        let rb = Trainer::for_env(Noisy::new(4))
            .episodes(8)
            .collectors(4)
            .threads(4)
            .max_steps(4)
            .run(&mut b)
            .unwrap();
        assert_eq!(ra, rb);
        assert_eq!(a, b);
    }

    #[test]
    fn split_runs_match_a_single_run_bit_exactly() {
        // train(5) in one call vs train(2) + resume train(3).
        let mut whole = agent(3);
        let report = Trainer::for_env(Noisy::new(3))
            .episodes(5)
            .max_steps(3)
            .run(&mut whole)
            .unwrap();

        let mut split = agent(3);
        let first = Trainer::for_env(Noisy::new(3))
            .episodes(2)
            .max_steps(3)
            .run(&mut split)
            .unwrap();
        let snapshot = split.snapshot().with_trained_rounds(first.next_round());
        let mut resumed = PpoAgent::restore(&snapshot);
        let second = resume_from(Noisy::new(3), &snapshot)
            .episodes(3)
            .max_steps(3)
            .run(&mut resumed)
            .unwrap();

        assert_eq!(whole, resumed);
        let mut combined = first.episode_returns.clone();
        combined.extend_from_slice(&second.episode_returns);
        assert_eq!(report.episode_returns, combined);
    }

    #[test]
    fn resume_from_inherits_seed_and_collector_count() {
        // A 4-collector run split in half via resume_from (which must pick
        // up the recorded collector count, not the builder default of 1)
        // matches the uninterrupted run bit-exactly.
        let mut whole = agent(8);
        Trainer::for_env(Noisy::new(3))
            .episodes(8)
            .collectors(4)
            .max_steps(3)
            .run(&mut whole)
            .unwrap();

        let mut split = agent(8);
        let first = Trainer::for_env(Noisy::new(3))
            .episodes(4)
            .collectors(4)
            .max_steps(3)
            .run(&mut split)
            .unwrap();
        let snapshot = split
            .snapshot()
            .with_trained_rounds(first.next_round())
            .with_trained_collectors(4);
        let mut resumed = PpoAgent::restore(&snapshot);
        resume_from(Noisy::new(3), &snapshot)
            .episodes(4)
            .max_steps(3)
            .run(&mut resumed)
            .unwrap();
        assert_eq!(whole, resumed);
    }

    #[test]
    fn checkpoints_are_written_on_schedule() {
        let dir = std::env::temp_dir().join(format!("vtm_trainer_ckpt_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut a = agent(4);
        let report = Trainer::for_env(Noisy::new(2))
            .episodes(4)
            .collectors(2)
            .max_steps(2)
            .checkpoint_every(2, &dir)
            .run(&mut a)
            .unwrap();
        assert_eq!(report.checkpoints.len(), 2);
        for path in &report.checkpoints {
            let snapshot = PolicySnapshot::load_from(path).unwrap();
            assert!(snapshot.trained_rounds > 0);
            assert_eq!(snapshot.trained_collectors, 2);
        }
        // The last checkpoint equals the live agent.
        let last = PolicySnapshot::load_from(report.checkpoints.last().unwrap()).unwrap();
        assert_eq!(PpoAgent::restore(&last), a);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resumed_checkpoints_extend_instead_of_overwriting() {
        let dir = std::env::temp_dir().join(format!("vtm_trainer_resume_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut a = agent(6);
        let first = Trainer::for_env(Noisy::new(2))
            .episodes(2)
            .max_steps(2)
            .checkpoint_every(1, &dir)
            .run(&mut a)
            .unwrap();
        let second = Trainer::for_env(Noisy::new(2))
            .episodes(2)
            .max_steps(2)
            .start_round(first.next_round())
            .checkpoint_every(1, &dir)
            .run(&mut a)
            .unwrap();
        // Globally-numbered filenames: the resumed run writes ep 3 and 4,
        // never clobbering the first run's ep 1 and 2.
        let names = |r: &TrainerReport| -> Vec<String> {
            r.checkpoints
                .iter()
                .map(|p| p.file_name().unwrap().to_string_lossy().into_owned())
                .collect()
        };
        assert_eq!(
            names(&first),
            ["policy_ep000001.vtm", "policy_ep000002.vtm"]
        );
        assert_eq!(
            names(&second),
            ["policy_ep000003.vtm", "policy_ep000004.vtm"]
        );
        for path in first.checkpoints.iter().chain(second.checkpoints.iter()) {
            assert!(path.exists(), "{} missing", path.display());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn trainer_rejects_a_frozen_normalizer_up_front() {
        use crate::running_stat::RunningMeanStd;
        let mut a = agent(7);
        let mut rms = RunningMeanStd::new(2);
        rms.update(&[0.0, 1.0]);
        rms.update(&[1.0, 0.0]);
        a.set_obs_normalizer(Some(rms));
        let err = Trainer::for_env(Noisy::new(2))
            .episodes(2)
            .max_steps(2)
            .run(&mut a)
            .unwrap_err();
        assert!(
            err.to_string().contains("observation normalizer"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn zero_episodes_is_a_noop() {
        let mut a = agent(5);
        let before = a.clone();
        let report = Trainer::for_env(Noisy::new(2))
            .episodes(0)
            .max_steps(2)
            .run(&mut a)
            .unwrap();
        assert_eq!(report.rounds, 0);
        assert!(report.episode_returns.is_empty());
        assert_eq!(a, before);
    }
}
