//! Integration tests: the closed-form Stackelberg equilibrium reproduces the
//! quantitative anchors reported in the paper's §V-B.

use vtm::prelude::*;

fn game_with_cost(cost: f64) -> AotmStackelbergGame {
    let mut config = ExperimentConfig::paper_two_vmus();
    config.market.unit_cost = cost;
    AotmStackelbergGame::from_config(&config)
}

#[test]
fn price_at_cost_five_is_about_25() {
    let eq = game_with_cost(5.0).closed_form_equilibrium();
    assert!((eq.price - 25.0).abs() < 1.0, "price {}", eq.price);
}

#[test]
fn price_at_cost_nine_is_about_34() {
    let eq = game_with_cost(9.0).closed_form_equilibrium();
    assert!((eq.price - 34.0).abs() < 1.0, "price {}", eq.price);
}

#[test]
fn two_identical_vmus_yield_msp_utility_about_7() {
    let game = AotmStackelbergGame::from_config(&ExperimentConfig::paper_n_vmus(2));
    let eq = game.closed_form_equilibrium();
    assert!(
        (eq.msp_utility - 7.03).abs() < 0.1,
        "MSP utility {}",
        eq.msp_utility
    );
}

#[test]
fn msp_utility_grows_roughly_threefold_from_two_to_six_vmus() {
    // Paper: 7.03 at N = 2 and 20.35 at N = 6 (about 2.9x).
    let two = AotmStackelbergGame::from_config(&ExperimentConfig::paper_n_vmus(2))
        .closed_form_equilibrium();
    let six = AotmStackelbergGame::from_config(&ExperimentConfig::paper_n_vmus(6))
        .closed_form_equilibrium();
    let ratio = six.msp_utility / two.msp_utility;
    assert!(
        (2.5..=3.2).contains(&ratio),
        "utility ratio N=6 / N=2 is {ratio}"
    );
}

#[test]
fn equilibrium_price_is_flat_in_n_without_a_binding_cap() {
    // With identical VMUs and a slack bandwidth cap, the interior optimum is
    // independent of N (the paper's "price remains unchanged initially").
    let mut last: Option<f64> = None;
    for n in 1..=6 {
        let eq = AotmStackelbergGame::from_config(&ExperimentConfig::paper_n_vmus(n))
            .closed_form_equilibrium();
        if let Some(p) = last {
            assert!(
                (eq.price - p).abs() < 1e-6,
                "price changed with N: {} vs {p}",
                eq.price
            );
        }
        last = Some(eq.price);
    }
}

#[test]
fn binding_bandwidth_cap_raises_price_and_cuts_per_vmu_bandwidth() {
    // The paper's explanation of Fig. 3(c)/(d): once bandwidth becomes scarce
    // the MSP raises the price and the average purchased bandwidth drops.
    let mut cfg = ExperimentConfig::paper_n_vmus(6);
    cfg.market.max_bandwidth_mhz = 0.4; // make the cap bite
    let capped = AotmStackelbergGame::from_config(&cfg).closed_form_equilibrium();
    let slack = AotmStackelbergGame::from_config(&ExperimentConfig::paper_n_vmus(6))
        .closed_form_equilibrium();
    assert!(capped.price > slack.price);
    assert!(capped.average_bandwidth_mhz() < slack.average_bandwidth_mhz());
    assert!(capped.total_bandwidth_mhz() <= 0.4 + 1e-9);
}

#[test]
fn average_vmu_utility_declines_as_population_grows_under_a_cap() {
    // Paper: the average VMU utility drops by about 12.8% from N = 2 to N = 6.
    // The decline appears once bandwidth competition matters, i.e. with a cap
    // tight enough to bind at larger N.
    let utility_at = |n: usize, cap: f64| {
        let mut cfg = ExperimentConfig::paper_n_vmus(n);
        cfg.market.max_bandwidth_mhz = cap;
        AotmStackelbergGame::from_config(&cfg)
            .closed_form_equilibrium()
            .average_vmu_utility()
    };
    let cap = 0.45;
    let at2 = utility_at(2, cap);
    let at6 = utility_at(6, cap);
    assert!(
        at6 < at2,
        "average VMU utility must decline: {at2} -> {at6}"
    );
}

#[test]
fn closed_form_and_numerical_equilibria_agree_across_costs_and_populations() {
    for cost in [5.0, 7.0, 9.0] {
        for n in [1, 3, 5, 20, 100] {
            let mut cfg = ExperimentConfig::paper_n_vmus(n);
            cfg.market.unit_cost = cost;
            let game = AotmStackelbergGame::from_config(&cfg);
            let closed = game.closed_form_equilibrium();
            let numeric = game.numerical_equilibrium();
            assert!(
                (closed.msp_utility - numeric.msp_utility).abs()
                    < 1e-3 * closed.msp_utility.abs().max(1.0),
                "cost {cost}, n {n}: closed {} vs numeric {}",
                closed.msp_utility,
                numeric.msp_utility
            );
        }
    }
}

#[test]
fn equilibrium_satisfies_definition_one_for_heterogeneous_vmus() {
    let mut config = ExperimentConfig::paper_two_vmus();
    config.vmus = vec![
        VmuProfile::new(0, 300.0, 20.0),
        VmuProfile::new(1, 100.0, 5.0),
        VmuProfile::new(2, 150.0, 12.0),
    ];
    let game = AotmStackelbergGame::from_config(&config);
    let eq = game.closed_form_equilibrium();
    let report = verify_equilibrium(
        &game,
        eq.price,
        &eq.demands_mhz,
        201,
        &SolveOptions::default(),
    );
    assert!(
        report.is_equilibrium(1e-2 * eq.msp_utility.max(1.0)),
        "{report:?}"
    );
}
