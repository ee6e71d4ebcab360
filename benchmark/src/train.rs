//! The `train` workload: Algorithm 1 through `IncentiveMechanism` on the
//! paper's two-VMU market, 2 replicas on 2 threads, then a greedy
//! evaluation against the closed-form Stackelberg equilibrium. It bypasses
//! the gateway, the serving layer and the journal.

use std::time::Instant;

use vtm_core::config::ExperimentConfig;
use vtm_core::env::{PricingEnv, RewardMode};
use vtm_core::mechanism::IncentiveMechanism;
use vtm_core::stackelberg::AotmStackelbergGame;
use vtm_rl::env::Environment;
use vtm_rl::ppo::PpoAgent;
use vtm_rl::snapshot::PolicySnapshot;

use crate::checks::Fault;
use crate::policy::{train_by_hand, TrainShape, TrainSplit};
use crate::report::{peak_rss_mb, Outcome};
use crate::stats::{median, quiet_high, quiet_low, segment_bounds, Percentiles, SEGMENTS};
use crate::Ctx;

/// Episodes per training run.
pub const EPISODES: usize = 200;

/// Environment replicas per round, and collection threads.
pub const REPLICAS: usize = 2;

/// Greedy evaluation rounds after training.
pub const EVAL_ROUNDS: usize = 50;

/// Fewest PPO rounds in a segment of the round-latency series.
pub const SEGMENT_ROUNDS: usize = 25;

/// Mechanism constructions before each training run; `setup_s` is the
/// quiet quarter of all of them, so it samples the same conditions as the
/// training it precedes.
pub const SETUPS: usize = 50;

/// The paper's two-VMU experiment with the workload seed.
pub fn config(seed: u64) -> ExperimentConfig {
    let mut config = ExperimentConfig::paper_two_vmus();
    config.drl.seed = seed;
    config
}

/// The shape `IncentiveMechanism::train_episodes_parallel(EPISODES,
/// REPLICAS, REPLICAS)` trains with.
pub fn shape(config: &ExperimentConfig) -> TrainShape {
    TrainShape {
        episodes: EPISODES,
        collectors: REPLICAS,
        threads: REPLICAS,
        max_steps: config.drl.rounds_per_episode,
        seed: config.drl.seed,
    }
}

/// The mechanism's environment and a fresh agent identical to the
/// mechanism's own.
pub fn env_and_agent(config: &ExperimentConfig) -> (PricingEnv, PpoAgent) {
    let env = PricingEnv::new(
        AotmStackelbergGame::from_config(config),
        config.drl.history_length,
        config.drl.rounds_per_episode,
        RewardMode::Improvement,
        config.drl.seed,
    );
    let agent = PpoAgent::new(
        config.drl.to_ppo_config(env.observation_dim()),
        env.action_space(),
    );
    (env, agent)
}

/// Trains the same run by hand and through `Trainer::run` (inside the
/// mechanism) and requires bit-equal final snapshots. Returns the hand
/// run's split and snapshot.
///
/// # Errors
///
/// When the snapshots differ.
pub fn hand_run_matches_trainer(
    config: &ExperimentConfig,
    fault: Fault,
) -> Result<(TrainSplit, PolicySnapshot), String> {
    let (env, mut agent) = env_and_agent(config);
    let split = train_by_hand(&env, &mut agent, shape(config));
    let mut hand = agent.snapshot().with_trained_rounds(split.rounds);
    if fault == Fault::Snapshot {
        hand.log_std[0] = f64::from_bits(hand.log_std[0].to_bits() ^ 1);
    }
    let mut mechanism = IncentiveMechanism::new(config.clone());
    mechanism.train_episodes_parallel(EPISODES, REPLICAS, REPLICAS);
    if mechanism.snapshot() != hand {
        return Err(
            "the hand-driven training loop ended on a different policy than Trainer::run"
                .to_string(),
        );
    }
    Ok((split, hand))
}

/// `train`, end to end: complete training runs from the same seed until
/// `--seconds` have passed (at least one), one round per call so each
/// round's latency is observed.
///
/// # Errors
///
/// When a repeat's evaluation differs from the first's (training must be
/// deterministic), or there are too few rounds for the percentiles.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let config = config(ctx.seed);
    let mut setups = Vec::new();
    let transitions_per_round = (REPLICAS * config.drl.rounds_per_episode) as f64;
    let rounds_per_run = EPISODES.div_ceil(REPLICAS);
    let start = Instant::now();
    let mut round_us = Vec::new();
    let mut ratios: Vec<f64> = Vec::new();
    let (mut episodes, mut finite) = (0u64, 0u64);
    while ratios.is_empty() || start.elapsed().as_secs_f64() < ctx.seconds {
        for _ in 0..SETUPS {
            let t = Instant::now();
            std::hint::black_box(IncentiveMechanism::new(config.clone()));
            setups.push(t.elapsed().as_secs_f64());
        }
        let mut mechanism = IncentiveMechanism::new(config.clone());
        for _ in 0..rounds_per_run {
            let t = Instant::now();
            let history = mechanism.train_episodes_parallel(REPLICAS, REPLICAS, REPLICAS);
            round_us.push(t.elapsed().as_secs_f64() * 1e6);
            episodes += history.episodes.len() as u64;
            finite += history
                .episodes
                .iter()
                .filter(|e| e.episode_return.is_finite() && e.mean_msp_utility.is_finite())
                .count() as u64;
        }
        let ratio = mechanism.evaluate(EVAL_ROUNDS).equilibrium_ratio;
        if let Some(&first) = ratios.first() {
            if ratio.to_bits() != first.to_bits() {
                return Err(format!(
                    "training is not deterministic: repeat {} evaluated to {ratio}, the first to {first}",
                    ratios.len()
                ));
            }
        }
        ratios.push(ratio);
    }
    let setup_s = quiet_low(&setups);
    let train_s: f64 = round_us.iter().sum::<f64>() / 1e6;
    // Segments of rounds, in time order; rates and medians are taken from
    // the run's quiet quarter of segments.
    let segments = segment_bounds(round_us.len(), SEGMENT_ROUNDS, SEGMENTS);
    let rates: Vec<f64> = segments
        .iter()
        .map(|r| {
            r.len() as f64 * transitions_per_round * 1e6 / round_us[r.clone()].iter().sum::<f64>()
        })
        .collect();
    let medians: Vec<f64> = segments
        .iter()
        .map(|r| median(&round_us[r.clone()]))
        .collect();
    let steps_per_s = quiet_high(&rates);
    let p50 = quiet_low(&medians);
    let mut samples = round_us.clone();
    let latency =
        Percentiles::of(&mut samples).ok_or("too few training rounds for a tail percentile")?;
    println!(
        "train: paper_two_vmus, seed {}, {EPISODES} episodes x {} rounds, {REPLICAS} replicas on {REPLICAS} threads, evaluate({EVAL_ROUNDS})",
        ctx.seed, config.drl.rounds_per_episode
    );
    println!(
        "  train_steps_per_s {steps_per_s:.1} in the quiet quarter of {} segments ({} runs, {} PPO rounds, {train_s:.3} s training)",
        segments.len(),
        ratios.len(),
        round_us.len()
    );
    println!(
        "  round latency (collect + update): p50 {p50:.1} us in the quiet quarter; whole run {}",
        latency.describe("us")
    );
    println!(
        "  equilibrium_ratio {} on every repeat; setup {setup_s:.6} s (quiet quarter of {})",
        ratios[0],
        setups.len()
    );
    let mut outcome = Outcome {
        attempted: episodes,
        failed: episodes - finite,
        ..Outcome::default()
    };
    let m = &mut outcome.metrics;
    m.insert("throughput_per_s", steps_per_s);
    m.insert("latency_p50_us", p50);
    m.insert("latency_p90_us", latency.p90);
    m.insert("ok_share", finite as f64 / episodes.max(1) as f64);
    m.insert("equilibrium_ratio", ratios[0]);
    m.insert("setup_s", setup_s);
    m.insert("peak_rss_mb", peak_rss_mb()?);
    Ok(outcome)
}
