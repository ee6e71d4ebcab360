//! Integration tests: Algorithm 1 training, scheme ordering and the
//! simulator bridge, exercised across crate boundaries.

use vtm::prelude::*;

fn fast_config(seed: u64) -> ExperimentConfig {
    ExperimentConfig {
        drl: DrlConfig {
            episodes: 40,
            rounds_per_episode: 40,
            learning_rate: 3e-4,
            seed,
            ..DrlConfig::default()
        },
        ..ExperimentConfig::paper_two_vmus()
    }
}

#[test]
fn trained_mechanism_reaches_most_of_the_equilibrium_utility() {
    let mut mechanism =
        IncentiveMechanism::with_reward_mode(fast_config(1), RewardMode::NormalizedUtility);
    mechanism.train();
    let eval = mechanism.evaluate(30);
    assert!(
        eval.equilibrium_ratio > 0.7,
        "learned policy reaches only {:.2} of the equilibrium utility",
        eval.equilibrium_ratio
    );
}

#[test]
fn training_returns_are_bounded_by_rounds_per_episode() {
    // The Eq. (12) reward is an indicator, so an episode's return can never
    // exceed the number of rounds (the paper's Fig. 2(a) converges towards it).
    let mut mechanism = IncentiveMechanism::new(fast_config(2));
    let history = mechanism.train_episodes_parallel(10, 1, 1);
    for log in &history.episodes {
        assert!(log.episode_return >= 0.0);
        assert!(log.episode_return <= 40.0 + 1e-9);
    }
    assert_eq!(history.episodes.len(), 10);
}

#[test]
fn sparse_reward_training_improves_or_holds_the_episode_return() {
    let mut mechanism = IncentiveMechanism::new(fast_config(3));
    let history = mechanism.train_episodes_parallel(60, 1, 1);
    let early = history.episodes[..10]
        .iter()
        .map(|e| e.episode_return)
        .sum::<f64>()
        / 10.0;
    let late = history.tail_mean(10, |e| e.episode_return);
    assert!(
        late >= early * 0.8,
        "episode return regressed: early {early:.1} late {late:.1}"
    );
}

#[test]
fn scheme_ordering_matches_the_paper() {
    // Fig. 3(a): proposed (≈ equilibrium) > greedy > random in MSP utility.
    let game = AotmStackelbergGame::from_config(&ExperimentConfig::paper_two_vmus());
    let rounds = 300;
    let mean = |xs: Vec<f64>| xs.iter().sum::<f64>() / xs.len() as f64;
    let eq = mean(run_scheme(&mut EquilibriumPricing, &game, rounds));
    let greedy = mean(run_scheme(&mut GreedyPricing::new(5, 1.0), &game, rounds));
    let random = mean(run_scheme(&mut RandomPricing::new(5), &game, rounds));
    assert!(eq >= greedy, "equilibrium {eq} vs greedy {greedy}");
    assert!(greedy > random, "greedy {greedy} vs random {random}");
}

#[test]
fn trained_drl_scheme_beats_the_random_baseline() {
    let mut mechanism =
        IncentiveMechanism::with_reward_mode(fast_config(4), RewardMode::NormalizedUtility);
    mechanism.train();
    let game = mechanism.game().clone();
    let mut drl = mechanism.into_scheme();
    let rounds = 100;
    let mean = |xs: Vec<f64>| xs.iter().sum::<f64>() / xs.len() as f64;
    let drl_mean = mean(run_scheme(&mut drl, &game, rounds));
    let random_mean = mean(run_scheme(&mut RandomPricing::new(9), &game, rounds));
    assert!(
        drl_mean > random_mean,
        "drl {drl_mean} vs random {random_mean}"
    );
}

#[test]
fn history_length_ablation_environments_have_consistent_dimensions() {
    for history_length in [1usize, 2, 4, 8] {
        let mut config = fast_config(5);
        config.drl.history_length = history_length;
        let mechanism = IncentiveMechanism::new(config);
        // Observation = L * (price + one demand per VMU).
        let expected = history_length * (1 + mechanism.config().vmus.len());
        assert_eq!(mechanism.agent().config().obs_dim, expected);
    }
}

#[test]
fn stackelberg_priced_migrations_succeed_in_the_simulator() {
    let sim_config = MetaverseConfig {
        duration_s: 300.0,
        ..MetaverseConfig::default()
    };
    let mut sim = MetaverseSim::highway_scenario(sim_config, 4, 150.0, 8.0);
    let mut allocator = StackelbergAllocator::new(
        MarketConfig::default(),
        LinkBudget::default(),
        PricingRule::StackelbergPerMigration,
    )
    .with_min_bandwidth_mhz(2.0);
    let report = sim.run(&mut allocator);
    assert!(!report.migrations.is_empty());
    assert_eq!(report.failed_migrations, 0);
    assert!(report.aotm_summary.mean > 0.0);
    // The packet-level AoTM must be at least the analytic lower bound for the
    // granted bandwidth (pre-copy re-transfers dirty pages, never less).
    for record in &report.migrations {
        let analytic = analytic_aotm_seconds(150.0, record.bandwidth_hz, &LinkBudget::default());
        assert!(record.aotm_s.unwrap() + 1e-9 >= analytic * 0.999);
    }
}

#[test]
fn analytic_and_simulated_aotm_agree_without_dirty_pages() {
    let link = LinkBudget::default();
    let twin = VehicularTwin::new(
        TwinId(0),
        TwinDataProfile::from_total_mb(120.0),
        0.0, // no dirtying: the pre-copy pipeline degenerates to a single pass
        1.0,
        5.0,
    );
    let bandwidth_hz = 4e6;
    let report =
        simulate_precopy_migration(&twin, bandwidth_hz, &link, &PreCopyConfig::default()).unwrap();
    let analytic = analytic_aotm_seconds(120.0, bandwidth_hz, &link);
    assert!((report.aotm_s - analytic).abs() < 1e-9);
}
