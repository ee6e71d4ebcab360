//! The learning-based incentive mechanism (Algorithm 1).
//!
//! Under incomplete information the MSP cannot evaluate the closed-form
//! equilibrium (it does not know the VMUs' `α_n` and `D_n`), so it learns its
//! pricing policy with PPO from the observable history of posted prices and
//! resulting demands. This module implements the training loop of Algorithm 1
//! and the evaluation utilities the experiment harness uses to compare the
//! learned policy against the baselines and against the complete-information
//! Stackelberg equilibrium.

use vtm_rl::env::Environment;
use vtm_rl::ppo::PpoAgent;
use vtm_rl::snapshot::{PolicySnapshot, SnapshotError};
use vtm_rl::trainer::Trainer;

use crate::config::ExperimentConfig;
use crate::env::{PricingEnv, RewardMode};
use crate::schemes::PricingScheme;
use crate::stackelberg::{AotmStackelbergGame, EquilibriumOutcome};

/// Per-episode training log entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpisodeLog {
    /// Episode index (0-based).
    pub episode: usize,
    /// Undiscounted return: the sum of the Eq. (12) rewards over the episode
    /// (this is the series of the paper's Fig. 2(a)).
    pub episode_return: f64,
    /// Mean MSP utility over the episode's rounds (Fig. 2(b)).
    pub mean_msp_utility: f64,
    /// MSP utility of the episode's final round.
    pub final_msp_utility: f64,
    /// Best MSP utility reached within the episode (`U_best` at episode end).
    pub best_msp_utility: f64,
    /// Mean posted price over the episode.
    pub mean_price: f64,
}

/// Complete training history of the mechanism.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TrainingHistory {
    /// Per-episode logs in training order.
    pub episodes: Vec<EpisodeLog>,
}

impl TrainingHistory {
    /// The per-episode returns (Fig. 2(a) series).
    pub fn returns(&self) -> Vec<f64> {
        self.episodes.iter().map(|e| e.episode_return).collect()
    }

    /// The per-episode mean MSP utilities (Fig. 2(b) series).
    pub fn msp_utilities(&self) -> Vec<f64> {
        self.episodes.iter().map(|e| e.mean_msp_utility).collect()
    }

    /// Mean of a metric over the last `window` episodes (all if fewer).
    pub fn tail_mean<F>(&self, window: usize, metric: F) -> f64
    where
        F: Fn(&EpisodeLog) -> f64,
    {
        if self.episodes.is_empty() {
            return 0.0;
        }
        let start = self.episodes.len().saturating_sub(window);
        let tail = &self.episodes[start..];
        tail.iter().map(&metric).sum::<f64>() / tail.len() as f64
    }
}

/// Result of evaluating a (deterministic) pricing policy.
#[derive(Debug, Clone, PartialEq)]
pub struct EvaluationResult {
    /// Mean posted price over the evaluation rounds.
    pub mean_price: f64,
    /// Mean MSP utility over the evaluation rounds.
    pub mean_msp_utility: f64,
    /// Mean total bandwidth sold (MHz).
    pub mean_total_bandwidth_mhz: f64,
    /// Mean total VMU utility.
    pub mean_total_vmu_utility: f64,
    /// Outcome of the final evaluation round.
    pub final_outcome: EquilibriumOutcome,
    /// Ratio of the mean MSP utility to the complete-information equilibrium
    /// utility (1.0 means the learned policy matches the Stackelberg optimum).
    pub equilibrium_ratio: f64,
}

/// The learning-based incentive mechanism: the PPO agent, its environment and
/// the game it prices.
#[derive(Debug, Clone)]
pub struct IncentiveMechanism {
    config: ExperimentConfig,
    env: PricingEnv,
    agent: PpoAgent,
    reward_mode: RewardMode,
    /// Global training-round counter consumed by every training entry point
    /// (they are all shims over [`Trainer`]). It advances the per-round
    /// environment and collector seed schedule across calls, so incremental
    /// training never replays an earlier call's random streams while a fixed
    /// call sequence stays deterministic — and it is persisted into policy
    /// snapshots so a restored mechanism resumes the schedule exactly.
    trained_rounds: u64,
}

impl IncentiveMechanism {
    /// Builds the mechanism from an experiment configuration with the paper's
    /// sparse improvement reward.
    ///
    /// # Panics
    ///
    /// Panics if the configuration does not validate.
    pub fn new(config: ExperimentConfig) -> Self {
        Self::with_reward_mode(config, RewardMode::Improvement)
    }

    /// Builds the mechanism with an explicit reward mode (ablation E8).
    ///
    /// # Panics
    ///
    /// Panics if the configuration does not validate.
    pub fn with_reward_mode(config: ExperimentConfig, reward_mode: RewardMode) -> Self {
        config
            .validate()
            .expect("experiment configuration must be valid");
        let game = AotmStackelbergGame::from_config(&config);
        let env = PricingEnv::new(
            game,
            config.drl.history_length,
            config.drl.rounds_per_episode,
            reward_mode,
            config.drl.seed,
        );
        let ppo = config.drl.to_ppo_config(env.observation_dim());
        let agent = PpoAgent::new(ppo, env.action_space());
        Self {
            config,
            env,
            agent,
            reward_mode,
            trained_rounds: 0,
        }
    }

    /// The experiment configuration.
    pub fn config(&self) -> &ExperimentConfig {
        &self.config
    }

    /// The underlying game.
    pub fn game(&self) -> &AotmStackelbergGame {
        self.env.game()
    }

    /// The reward mode used for training.
    pub fn reward_mode(&self) -> RewardMode {
        self.reward_mode
    }

    /// Immutable access to the PPO agent (e.g. for inspection in tests).
    pub fn agent(&self) -> &PpoAgent {
        &self.agent
    }

    /// Runs Algorithm 1 for the configured number of episodes: one
    /// environment replica, one episode per PPO update (Algorithm 1, lines
    /// 10-13), through the agent's fused, allocation-free update path
    /// ([`PpoAgent::update`]).
    pub fn train(&mut self) -> TrainingHistory {
        self.train_with(self.config.drl.episodes, 1, 1)
    }

    /// Vectorized Algorithm 1: trains on `num_envs` environment replicas
    /// collected in parallel, one PPO update per collection round.
    ///
    /// A thin shim over the builder-style [`Trainer`], which pins every
    /// replica's environment stream to `(seed, round, replica)` and draws
    /// collector noise per round — so a fixed call sequence is deterministic
    /// regardless of thread scheduling, while repeated calls draw fresh
    /// randomness instead of replaying the first call's streams. Every round
    /// contributes `num_envs` episodes to one update, so the effective batch
    /// per update is `num_envs` times larger than in
    /// [`IncentiveMechanism::train`]; `episodes` is rounded up to a whole
    /// number of rounds. `train_episodes_parallel(n, 1, 1)` is Algorithm 1
    /// for `n` episodes, one episode per update.
    ///
    /// `num_threads = 0` uses one worker per available CPU core.
    ///
    /// # Panics
    ///
    /// Panics if `num_envs` is zero.
    pub fn train_episodes_parallel(
        &mut self,
        episodes: usize,
        num_envs: usize,
        num_threads: usize,
    ) -> TrainingHistory {
        self.train_with(episodes, num_envs, num_threads)
    }

    /// The single training path behind every public entry point: a
    /// [`Trainer`] run over clones of the mechanism's environment, with the
    /// per-episode hook reconstructing the paper's training logs from each
    /// replica's episode aggregates.
    fn train_with(
        &mut self,
        episodes: usize,
        num_envs: usize,
        num_threads: usize,
    ) -> TrainingHistory {
        assert!(num_envs > 0, "need at least one environment replica");
        let rounds = self.config.drl.rounds_per_episode;
        let mut history = TrainingHistory::default();
        let report = Trainer::for_env(self.env.clone())
            .episodes(episodes)
            .collectors(num_envs)
            .threads(num_threads)
            .max_steps(rounds)
            .seed(self.config.drl.seed)
            .start_round(self.trained_rounds)
            .on_episode(|event| {
                let stats = event.env.episode_stats();
                history.episodes.push(EpisodeLog {
                    episode: event.episode,
                    episode_return: event.episode_return,
                    mean_msp_utility: stats.mean_utility(),
                    final_msp_utility: stats.final_utility,
                    best_msp_utility: event.env.best_utility(),
                    mean_price: stats.mean_price(),
                });
            })
            .run(&mut self.agent)
            .unwrap_or_else(|e| panic!("training failed: {e}"));
        self.trained_rounds = report.next_round();
        history
    }

    /// Captures the mechanism's trained policy (and its training-round
    /// counter) as a persistent [`PolicySnapshot`] — the *checkpoint* step of
    /// the train → checkpoint → load → serve lifecycle.
    pub fn snapshot(&self) -> PolicySnapshot {
        self.agent
            .snapshot()
            .with_trained_rounds(self.trained_rounds)
    }

    /// Restores the policy (agent state and round counter) from a snapshot,
    /// e.g. to resume training in a new process.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Incompatible`] when the snapshot was taken
    /// for a different observation/action geometry than this mechanism's, or
    /// when it carries a frozen observation normalizer (the mechanism trains
    /// and evaluates on raw observations; a normalizer-carrying policy
    /// belongs in the serving layer, or must have its normalizer removed
    /// before restoring here).
    pub fn restore_policy(&mut self, snapshot: &PolicySnapshot) -> Result<(), SnapshotError> {
        snapshot.validate()?;
        if snapshot.obs_normalizer.is_some() {
            return Err(SnapshotError::Incompatible(
                "snapshot carries a frozen observation normalizer; the mechanism trains and \
                 evaluates on raw observations — clear it before restoring"
                    .to_string(),
            ));
        }
        if snapshot.config.obs_dim != self.env.observation_dim() {
            return Err(SnapshotError::Incompatible(format!(
                "snapshot obs_dim {} != environment observation dim {}",
                snapshot.config.obs_dim,
                self.env.observation_dim()
            )));
        }
        if snapshot.action_space != self.env.action_space() {
            return Err(SnapshotError::Incompatible(
                "snapshot action space differs from the environment's".to_string(),
            ));
        }
        self.agent = PpoAgent::restore(snapshot);
        self.trained_rounds = snapshot.trained_rounds;
        Ok(())
    }

    /// Evaluates the current (deterministic) policy for `rounds` rounds.
    pub fn evaluate(&mut self, rounds: usize) -> EvaluationResult {
        assert!(rounds > 0, "evaluation needs at least one round");
        let mut obs = self.env.reset();
        let mut prices = Vec::with_capacity(rounds);
        let mut msp_utilities = Vec::with_capacity(rounds);
        let mut bandwidths = Vec::with_capacity(rounds);
        let mut vmu_utilities = Vec::with_capacity(rounds);
        let mut final_outcome = None;
        for _ in 0..rounds {
            let action = self.agent.act_deterministic(&obs);
            let step = self.env.step(&action);
            let outcome = self
                .env
                .last_outcome()
                .expect("step always records an outcome")
                .clone();
            prices.push(outcome.price);
            msp_utilities.push(outcome.msp_utility);
            bandwidths.push(outcome.total_bandwidth_mhz());
            vmu_utilities.push(outcome.total_vmu_utility());
            final_outcome = Some(outcome);
            obs = step.observation;
        }
        let eq_utility = self.game().closed_form_equilibrium().msp_utility.max(1e-12);
        let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
        let mean_msp_utility = mean(&msp_utilities);
        EvaluationResult {
            mean_price: mean(&prices),
            mean_msp_utility,
            mean_total_bandwidth_mhz: mean(&bandwidths),
            mean_total_vmu_utility: mean(&vmu_utilities),
            final_outcome: final_outcome.expect("rounds > 0"),
            equilibrium_ratio: mean_msp_utility / eq_utility,
        }
    }

    /// Wraps the trained policy as a [`PricingScheme`] so the experiment
    /// harness can compare it uniformly with the baselines. The scheme posts
    /// the policy's deterministic price given the mechanism's rolling
    /// observation history.
    pub fn into_scheme(mut self) -> DrlPricing {
        let obs = self.env.reset();
        DrlPricing {
            mechanism: self,
            observation: obs,
        }
    }
}

/// The trained DRL policy exposed as a [`PricingScheme`].
#[derive(Debug, Clone)]
pub struct DrlPricing {
    mechanism: IncentiveMechanism,
    observation: Vec<f64>,
}

impl DrlPricing {
    /// Read access to the wrapped mechanism.
    pub fn mechanism(&self) -> &IncentiveMechanism {
        &self.mechanism
    }
}

impl PricingScheme for DrlPricing {
    fn name(&self) -> &str {
        "drl-ppo"
    }

    fn propose_price(&mut self, _game: &AotmStackelbergGame) -> f64 {
        let action = self.mechanism.agent.act_deterministic(&self.observation);
        let (lo, hi) = self.mechanism.game().msp().price_bounds();
        action[0].clamp(lo, hi)
    }

    fn observe_utility(&mut self, price: f64, _msp_utility: f64) {
        // Advance the internal environment so the observation history follows
        // the posted prices.
        let step = self.mechanism.env.step(&[price]);
        self.observation = step.observation;
        if step.done {
            self.observation = self.mechanism.env.reset();
        }
    }

    fn reset(&mut self) {
        self.observation = self.mechanism.env.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DrlConfig;
    use crate::schemes::run_scheme;

    fn fast_config() -> ExperimentConfig {
        ExperimentConfig {
            drl: DrlConfig {
                episodes: 30,
                rounds_per_episode: 30,
                learning_rate: 3e-4,
                seed: 42,
                ..DrlConfig::default()
            },
            ..ExperimentConfig::paper_two_vmus()
        }
    }

    #[test]
    fn construction_wires_dimensions() {
        let mech = IncentiveMechanism::new(fast_config());
        assert_eq!(mech.config().vmus.len(), 2);
        assert_eq!(mech.reward_mode(), RewardMode::Improvement);
        assert!(mech.agent().parameter_count() > 0);
    }

    #[test]
    fn training_produces_history_of_requested_length() {
        let mut mech = IncentiveMechanism::new(fast_config());
        let history = mech.train_episodes_parallel(5, 1, 1);
        assert_eq!(history.episodes.len(), 5);
        assert_eq!(history.returns().len(), 5);
        assert_eq!(history.msp_utilities().len(), 5);
        for log in &history.episodes {
            assert!(log.episode_return >= 0.0);
            assert!(log.episode_return <= 30.0 + 1e-9);
            assert!(log.mean_msp_utility.is_finite());
            assert!(
                log.best_msp_utility >= log.mean_msp_utility - 1e-9 || log.best_msp_utility > 0.0
            );
            assert!((5.0..=50.0).contains(&log.mean_price));
        }
    }

    #[test]
    fn parallel_training_produces_history_and_is_deterministic() {
        let mut a = IncentiveMechanism::new(fast_config());
        let mut b = IncentiveMechanism::new(fast_config());
        // 5 episodes over 4 replicas rounds up to 2 rounds = 8 logged episodes.
        let ha = a.train_episodes_parallel(5, 4, 4);
        let hb = b.train_episodes_parallel(5, 4, 1);
        assert_eq!(ha.episodes.len(), 8);
        for log in &ha.episodes {
            assert!(log.episode_return.is_finite());
            assert!(log.mean_msp_utility.is_finite());
            assert!((5.0..=50.0).contains(&log.mean_price));
            assert!(log.best_msp_utility + 1e-9 >= log.final_msp_utility.min(0.0));
        }
        // Same config => identical trajectories, regardless of thread count.
        assert_eq!(ha.episodes.len(), hb.episodes.len());
        for (x, y) in ha.episodes.iter().zip(hb.episodes.iter()) {
            assert_eq!(x.episode, y.episode);
            assert!((x.episode_return - y.episode_return).abs() < 1e-12);
            assert!((x.mean_msp_utility - y.mean_msp_utility).abs() < 1e-12);
            assert!((x.mean_price - y.mean_price).abs() < 1e-12);
        }
    }

    #[test]
    fn repeated_parallel_training_does_not_replay_random_streams() {
        let mut mech = IncentiveMechanism::new(fast_config());
        let first = mech.train_episodes_parallel(4, 4, 1);
        let second = mech.train_episodes_parallel(4, 4, 1);
        // A second call must continue with fresh exploration noise and env
        // histories, not replay the first call's episodes.
        let replayed = first
            .episodes
            .iter()
            .zip(second.episodes.iter())
            .all(|(a, b)| (a.episode_return - b.episode_return).abs() < 1e-12);
        assert!(!replayed, "second call replayed the first call's streams");
        // And the sequence as a whole stays deterministic.
        let mut mech2 = IncentiveMechanism::new(fast_config());
        let first2 = mech2.train_episodes_parallel(4, 4, 2);
        let second2 = mech2.train_episodes_parallel(4, 4, 2);
        for (a, b) in first.episodes.iter().zip(first2.episodes.iter()) {
            assert!((a.episode_return - b.episode_return).abs() < 1e-12);
        }
        for (a, b) in second.episodes.iter().zip(second2.episodes.iter()) {
            assert!((a.episode_return - b.episode_return).abs() < 1e-12);
        }
    }

    #[test]
    fn tail_mean_summarises_recent_episodes() {
        let history = TrainingHistory {
            episodes: (0..10)
                .map(|i| EpisodeLog {
                    episode: i,
                    episode_return: i as f64,
                    mean_msp_utility: i as f64,
                    final_msp_utility: i as f64,
                    best_msp_utility: i as f64,
                    mean_price: 10.0,
                })
                .collect(),
        };
        assert!((history.tail_mean(2, |e| e.episode_return) - 8.5).abs() < 1e-12);
        assert!((history.tail_mean(100, |e| e.episode_return) - 4.5).abs() < 1e-12);
        assert_eq!(
            TrainingHistory::default().tail_mean(3, |e| e.episode_return),
            0.0
        );
    }

    #[test]
    fn training_with_dense_reward_approaches_equilibrium() {
        let mut config = fast_config();
        config.drl.episodes = 80;
        config.drl.rounds_per_episode = 40;
        let mut mech = IncentiveMechanism::with_reward_mode(config, RewardMode::NormalizedUtility);
        let eq = mech.game().closed_form_equilibrium();
        let _history = mech.train();
        let eval = mech.evaluate(20);
        assert!(
            eval.equilibrium_ratio > 0.6,
            "learned policy reaches only {:.2} of the equilibrium utility (price {} vs {})",
            eval.equilibrium_ratio,
            eval.mean_price,
            eq.price
        );
        assert!(eval.mean_total_bandwidth_mhz > 0.0);
        assert!(eval.mean_msp_utility > 0.0);
    }

    #[test]
    fn evaluation_reports_consistent_aggregates() {
        let mut mech = IncentiveMechanism::new(fast_config());
        let eval = mech.evaluate(10);
        assert!(eval.mean_price >= 5.0 && eval.mean_price <= 50.0);
        assert!(eval.equilibrium_ratio.is_finite());
        assert_eq!(eval.final_outcome.demands_mhz.len(), 2);
    }

    #[test]
    fn drl_scheme_interoperates_with_run_scheme() {
        let mut mech = IncentiveMechanism::new(fast_config());
        mech.train_episodes_parallel(3, 1, 1);
        let game = mech.game().clone();
        let mut scheme = mech.into_scheme();
        assert_eq!(scheme.name(), "drl-ppo");
        let utilities = run_scheme(&mut scheme, &game, 15);
        assert_eq!(utilities.len(), 15);
        assert!(utilities.iter().all(|u| u.is_finite()));
        scheme.reset();
        assert!(scheme.mechanism().config().vmus.len() == 2);
    }

    #[test]
    #[should_panic(expected = "at least one round")]
    fn evaluation_requires_rounds() {
        let mut mech = IncentiveMechanism::new(fast_config());
        let _ = mech.evaluate(0);
    }
}
