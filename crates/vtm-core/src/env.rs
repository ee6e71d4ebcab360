//! The POMDP environment the MSP agent learns in (§IV-A).
//!
//! * **State** `S_k = {p_k, b_k}` — the current price and demand profile.
//! * **Observation** `o_k` — the prices and demand profiles of the past `L`
//!   game rounds (Eq. (11)); the first `L` entries of an episode are filled
//!   with randomly generated rounds, as the paper prescribes.
//! * **Action** — the unit price `p_k ∈ [C, p_max]`.
//! * **Reward** — Eq. (12): `1` when the MSP's utility reaches or exceeds the
//!   best utility obtained so far in the episode, `0` otherwise. A dense
//!   variant (normalised utility) is provided for the reward-shaping ablation.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

use vtm_rl::env::{ActionSpace, Environment, Step};

use crate::stackelberg::{AotmStackelbergGame, EquilibriumOutcome};

/// Reward definition used by the environment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RewardMode {
    /// The paper's sparse indicator reward of Eq. (12).
    #[default]
    Improvement,
    /// Dense shaping: the MSP utility normalised by the best utility on a
    /// coarse price grid (ablation E8).
    NormalizedUtility,
}

/// One completed pricing round, kept for observation history and logging.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundRecord {
    /// Posted unit price.
    pub price: f64,
    /// Bandwidth demands of every VMU (MHz).
    pub demands_mhz: Vec<f64>,
    /// MSP utility obtained in the round.
    pub msp_utility: f64,
}

/// The Stackelberg pricing environment exposed to the DRL agent.
#[derive(Debug, Clone)]
pub struct PricingEnv {
    game: AotmStackelbergGame,
    history_length: usize,
    rounds_per_episode: usize,
    reward_mode: RewardMode,
    reference_utility: f64,
    demand_scale: Vec<f64>,
    history: VecDeque<RoundRecord>,
    round: usize,
    best_utility: f64,
    last_outcome: Option<EquilibriumOutcome>,
    stats: EpisodeStats,
    rng: StdRng,
}

/// Running aggregates over the current episode, kept so that callers driving
/// the environment through the generic [`Environment`] trait (in particular
/// the vectorized rollout collector, which never sees per-step outcomes) can
/// still reconstruct the paper's per-episode training logs.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EpisodeStats {
    /// Rounds played so far in the episode.
    pub rounds: usize,
    /// Sum of the MSP utilities over the episode's rounds.
    pub utility_sum: f64,
    /// Sum of the posted (clamped) prices over the episode's rounds.
    pub price_sum: f64,
    /// MSP utility of the most recent round.
    pub final_utility: f64,
}

impl EpisodeStats {
    /// Mean MSP utility per round (0.0 before the first round).
    pub fn mean_utility(&self) -> f64 {
        if self.rounds == 0 {
            0.0
        } else {
            self.utility_sum / self.rounds as f64
        }
    }

    /// Mean posted price per round (0.0 before the first round).
    pub fn mean_price(&self) -> f64 {
        if self.rounds == 0 {
            0.0
        } else {
            self.price_sum / self.rounds as f64
        }
    }
}

impl PricingEnv {
    /// Creates an environment.
    ///
    /// # Panics
    ///
    /// Panics if `history_length` or `rounds_per_episode` is zero.
    pub fn new(
        game: AotmStackelbergGame,
        history_length: usize,
        rounds_per_episode: usize,
        reward_mode: RewardMode,
        seed: u64,
    ) -> Self {
        assert!(history_length > 0, "history length must be positive");
        assert!(
            rounds_per_episode > 0,
            "rounds per episode must be positive"
        );
        // Per-VMU demand normalisation: the largest demand a VMU can express
        // is its best response at the lowest admissible price (the cost C).
        let (price_lo, _) = game.msp().price_bounds();
        let demand_scale: Vec<f64> = game
            .best_responses(price_lo)
            .into_iter()
            .map(|b| b.max(1e-9))
            .collect();
        // Reference utility for the dense reward: best utility on a coarse grid.
        let (lo, hi) = game.msp().price_bounds();
        let reference_utility = (0..=200)
            .map(|i| {
                let p = lo + (hi - lo) * i as f64 / 200.0;
                game.msp_utility_at(p)
            })
            .fold(f64::MIN, f64::max)
            .max(1e-9);
        Self {
            history_length,
            rounds_per_episode,
            reward_mode,
            reference_utility,
            demand_scale,
            history: VecDeque::with_capacity(history_length),
            round: 0,
            best_utility: 0.0,
            last_outcome: None,
            stats: EpisodeStats::default(),
            rng: StdRng::seed_from_u64(seed),
            game,
        }
    }

    /// The underlying game.
    pub fn game(&self) -> &AotmStackelbergGame {
        &self.game
    }

    /// Rounds per episode (`K`).
    pub fn rounds_per_episode(&self) -> usize {
        self.rounds_per_episode
    }

    /// The outcome of the most recent round, if any.
    pub fn last_outcome(&self) -> Option<&EquilibriumOutcome> {
        self.last_outcome.as_ref()
    }

    /// Best MSP utility observed so far in the current episode (`U_best`).
    pub fn best_utility(&self) -> f64 {
        self.best_utility
    }

    /// Aggregates over the rounds of the current episode.
    pub fn episode_stats(&self) -> &EpisodeStats {
        &self.stats
    }

    /// The reward mode in use.
    pub fn reward_mode(&self) -> RewardMode {
        self.reward_mode
    }

    fn push_round(&mut self, record: RoundRecord) {
        if self.history.len() == self.history_length {
            self.history.pop_front();
        }
        self.history.push_back(record);
    }

    fn random_round(&mut self) -> RoundRecord {
        let (lo, hi) = self.game.msp().price_bounds();
        let price = self.rng.gen_range(lo..=hi);
        let outcome = self.game.outcome_at_price(price);
        RoundRecord {
            price,
            demands_mhz: outcome.demands_mhz.clone(),
            msp_utility: outcome.msp_utility,
        }
    }

    fn observation(&self) -> Vec<f64> {
        let (_, price_hi) = self.game.msp().price_bounds();
        let n = self.game.vmus().len();
        let mut obs = Vec::with_capacity(self.history_length * (1 + n));
        for record in &self.history {
            obs.push(record.price / price_hi);
            for (i, &d) in record.demands_mhz.iter().enumerate() {
                obs.push(d / self.demand_scale[i]);
            }
        }
        obs
    }

    fn reward_for(&self, msp_utility: f64) -> f64 {
        match self.reward_mode {
            RewardMode::Improvement => {
                if msp_utility >= self.best_utility {
                    1.0
                } else {
                    0.0
                }
            }
            RewardMode::NormalizedUtility => msp_utility / self.reference_utility,
        }
    }
}

impl Environment for PricingEnv {
    fn observation_dim(&self) -> usize {
        self.history_length * (1 + self.game.vmus().len())
    }

    fn action_space(&self) -> ActionSpace {
        let (lo, hi) = self.game.msp().price_bounds();
        ActionSpace::scalar(lo, hi)
    }

    fn reset(&mut self) -> Vec<f64> {
        self.history.clear();
        self.round = 0;
        self.best_utility = 0.0;
        self.last_outcome = None;
        self.stats = EpisodeStats::default();
        // Paper: the first L observations are generated randomly.
        for _ in 0..self.history_length {
            let record = self.random_round();
            self.push_round(record);
        }
        self.observation()
    }

    fn reset_with_seed(&mut self, seed: u64) -> Vec<f64> {
        self.rng = StdRng::seed_from_u64(seed);
        self.reset()
    }

    fn step(&mut self, action: &[f64]) -> Step {
        assert!(!action.is_empty(), "pricing action must have one dimension");
        let (lo, hi) = self.game.msp().price_bounds();
        let price = action[0].clamp(lo, hi);
        let outcome = self.game.outcome_at_price(price);
        let reward = self.reward_for(outcome.msp_utility);
        if outcome.msp_utility > self.best_utility {
            self.best_utility = outcome.msp_utility;
        }
        self.stats.rounds += 1;
        self.stats.utility_sum += outcome.msp_utility;
        self.stats.price_sum += price;
        self.stats.final_utility = outcome.msp_utility;
        self.push_round(RoundRecord {
            price,
            demands_mhz: outcome.demands_mhz.clone(),
            msp_utility: outcome.msp_utility,
        });
        self.last_outcome = Some(outcome);
        self.round += 1;
        Step {
            observation: self.observation(),
            reward,
            done: self.round >= self.rounds_per_episode,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ExperimentConfig;

    fn env(mode: RewardMode) -> PricingEnv {
        let game = AotmStackelbergGame::from_config(&ExperimentConfig::paper_two_vmus());
        PricingEnv::new(game, 4, 10, mode, 7)
    }

    #[test]
    fn observation_dimension_matches_history_and_vmus() {
        let mut e = env(RewardMode::Improvement);
        assert_eq!(e.observation_dim(), 4 * (1 + 2));
        let obs = e.reset();
        assert_eq!(obs.len(), e.observation_dim());
        assert!(obs.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn action_space_is_price_interval() {
        let e = env(RewardMode::Improvement);
        let space = e.action_space();
        assert_eq!(space.low, vec![5.0]);
        assert_eq!(space.high, vec![50.0]);
    }

    #[test]
    fn episode_terminates_after_k_rounds() {
        let mut e = env(RewardMode::Improvement);
        e.reset();
        let mut done = false;
        for k in 0..10 {
            let step = e.step(&[25.0]);
            done = step.done;
            assert_eq!(done, k == 9);
        }
        assert!(done);
    }

    #[test]
    fn improvement_reward_follows_eq_12() {
        let mut e = env(RewardMode::Improvement);
        e.reset();
        // First action always matches or beats the initial best utility of 0.
        let first = e.step(&[25.0]);
        assert_eq!(first.reward, 1.0);
        let good_utility = e.best_utility();
        assert!(good_utility > 0.0);
        // A clearly worse price (demand collapses) must earn zero reward.
        let worse = e.step(&[49.0]);
        assert_eq!(worse.reward, 0.0);
        // Returning to the good price earns the reward again (>= best).
        let again = e.step(&[25.0]);
        assert_eq!(again.reward, 1.0);
        assert!((e.best_utility() - good_utility).abs() < 1e-12);
    }

    #[test]
    fn best_utility_is_monotone_within_episode() {
        let mut e = env(RewardMode::Improvement);
        e.reset();
        let mut last_best = e.best_utility();
        for price in [10.0, 30.0, 20.0, 25.0, 45.0] {
            e.step(&[price]);
            assert!(e.best_utility() >= last_best);
            last_best = e.best_utility();
        }
        assert!(e.last_outcome().is_some());
    }

    #[test]
    fn reset_clears_episode_state() {
        let mut e = env(RewardMode::Improvement);
        e.reset();
        e.step(&[25.0]);
        assert!(e.best_utility() > 0.0);
        e.reset();
        assert_eq!(e.best_utility(), 0.0);
        assert!(e.last_outcome().is_none());
    }

    #[test]
    fn dense_reward_peaks_near_equilibrium_price() {
        let mut e = env(RewardMode::NormalizedUtility);
        e.reset();
        let eq_price = e.game().closed_form_equilibrium().price;
        let near = e.step(&[eq_price]).reward;
        e.reset();
        let far = e.step(&[48.0]).reward;
        assert!(near > far);
        // The reference is a grid maximum, so the true peak can exceed it by a
        // small interpolation margin.
        assert!(near <= 1.05);
        assert!(e.reward_mode() == RewardMode::NormalizedUtility);
    }

    #[test]
    fn out_of_range_actions_are_clamped() {
        let mut e = env(RewardMode::Improvement);
        e.reset();
        e.step(&[1000.0]);
        let outcome = e.last_outcome().unwrap();
        assert!(outcome.price <= 50.0 + 1e-12);
        e.step(&[-3.0]);
        assert!(e.last_outcome().unwrap().price >= 5.0 - 1e-12);
    }

    #[test]
    fn observations_are_bounded_after_normalisation() {
        let mut e = env(RewardMode::Improvement);
        e.reset();
        for price in [5.0, 15.0, 25.0, 35.0, 45.0, 50.0] {
            let step = e.step(&[price]);
            for v in step.observation {
                assert!(
                    (-1e-9..=1.5).contains(&v),
                    "normalised observation {v} out of range"
                );
            }
        }
    }

    #[test]
    fn reset_with_seed_pins_the_warmup_history() {
        let mut e = env(RewardMode::Improvement);
        let a = e.reset_with_seed(123);
        e.step(&[25.0]);
        e.step(&[30.0]);
        // Reseeding replays the exact same random warm-up rounds, while a
        // plain reset continues the stream and produces a different history.
        let b = e.reset_with_seed(123);
        assert_eq!(a, b);
        let c = e.reset();
        assert_ne!(a, c);
    }

    #[test]
    #[should_panic(expected = "history length must be positive")]
    fn zero_history_rejected() {
        let game = AotmStackelbergGame::from_config(&ExperimentConfig::paper_two_vmus());
        let _ = PricingEnv::new(game, 0, 10, RewardMode::Improvement, 0);
    }
}
