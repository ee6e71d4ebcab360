//! Randomized property tests over the core invariants of the system, spanning
//! the game theory, the DRL substrate and the simulator.
//!
//! These were originally written with `proptest`; the offline build has no
//! access to crates.io, so each property is now checked over a fixed number
//! of pseudo-random cases drawn from a deterministically seeded generator.
//! Failures therefore reproduce exactly across runs and machines.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vtm::prelude::*;

/// Runs `check` over `n` independent deterministic cases.
fn cases(n: usize, seed: u64, mut check: impl FnMut(&mut StdRng)) {
    for case in 0..n as u64 {
        let mut rng = StdRng::seed_from_u64(seed ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        check(&mut rng);
    }
}

fn link() -> LinkBudget {
    LinkBudget::default()
}

/// Eq. (8) really is the maximiser of the VMU utility: no other bandwidth
/// in a wide range does better.
#[test]
fn vmu_best_response_maximises_utility() {
    cases(64, 0x01, |rng| {
        let data_mb = rng.gen_range(50.0..400.0);
        let alpha = rng.gen_range(1.0..30.0);
        let price = rng.gen_range(6.0..60.0);
        let other_bandwidth = rng.gen_range(0.001..5.0);
        let vmu = VmuProfile::new(0, data_mb, alpha);
        let l = link();
        let best = vmu.best_response(price, &l);
        let u_best = vmu.utility(best, price, &l);
        let u_other = vmu.utility(other_bandwidth, price, &l);
        assert!(
            u_best + 1e-9 >= u_other,
            "best response {best} utility {u_best} beaten by {other_bandwidth} with {u_other}"
        );
    });
}

/// Demand is non-increasing in price (the monopoly demand curve).
#[test]
fn vmu_demand_is_non_increasing_in_price() {
    cases(64, 0x02, |rng| {
        let data_mb = rng.gen_range(50.0..400.0);
        let alpha = rng.gen_range(1.0..30.0);
        let price = rng.gen_range(6.0..50.0);
        let bump = rng.gen_range(0.1..20.0);
        let vmu = VmuProfile::new(0, data_mb, alpha);
        let l = link();
        assert!(vmu.best_response(price + bump, &l) <= vmu.best_response(price, &l) + 1e-12);
    });
}

/// AoTM decreases when bandwidth increases and increases with data size.
#[test]
fn aotm_monotonicity() {
    cases(64, 0x03, |rng| {
        let data = rng.gen_range(0.5..4.0);
        let bandwidth = rng.gen_range(0.01..10.0);
        let extra = rng.gen_range(0.01..5.0);
        let l = link();
        assert!(aotm(data, bandwidth + extra, &l).0 < aotm(data, bandwidth, &l).0);
        assert!(aotm(data + extra, bandwidth, &l).0 > aotm(data, bandwidth, &l).0);
    });
}

/// The closed-form equilibrium price always lies inside [C, p_max], never
/// sells more than B_max and gives every player a non-negative utility.
#[test]
fn equilibrium_respects_problem_two_constraints() {
    cases(64, 0x04, |rng| {
        let n = rng.gen_range(1..6usize);
        let cost = rng.gen_range(1.0..12.0);
        let alpha = rng.gen_range(2.0..25.0);
        let data_mb = rng.gen_range(60.0..350.0);
        let bmax = rng.gen_range(0.05..60.0);
        let config = ExperimentConfig {
            vmus: (0..n).map(|i| VmuProfile::new(i, data_mb, alpha)).collect(),
            market: MarketConfig {
                unit_cost: cost,
                max_bandwidth_mhz: bmax,
                max_price: cost + 60.0,
            },
            link: link(),
            drl: DrlConfig::fast(),
        };
        let game = AotmStackelbergGame::from_config(&config);
        let eq = game.closed_form_equilibrium();
        assert!(eq.price >= cost - 1e-9);
        assert!(eq.price <= cost + 60.0 + 1e-9);
        assert!(eq.total_bandwidth_mhz() <= bmax + 1e-9);
        assert!(eq.msp_utility >= -1e-9);
        for u in &eq.vmu_utilities {
            assert!(*u >= -1e-9, "negative VMU utility {u}");
        }
    });
}

/// The closed-form equilibrium is never beaten by any price on a fine grid
/// (the leader's no-deviation half of Definition 1).
#[test]
fn no_price_beats_the_closed_form_equilibrium() {
    cases(64, 0x05, |rng| {
        let cost = rng.gen_range(2.0..10.0);
        let alpha1 = rng.gen_range(2.0..20.0);
        let alpha2 = rng.gen_range(2.0..20.0);
        let d1 = rng.gen_range(80.0..300.0);
        let d2 = rng.gen_range(80.0..300.0);
        let config = ExperimentConfig {
            vmus: vec![
                VmuProfile::new(0, d1, alpha1),
                VmuProfile::new(1, d2, alpha2),
            ],
            market: MarketConfig {
                unit_cost: cost,
                max_bandwidth_mhz: 50.0,
                max_price: 50.0,
            },
            link: link(),
            drl: DrlConfig::fast(),
        };
        let game = AotmStackelbergGame::from_config(&config);
        let eq = game.closed_form_equilibrium();
        for i in 0..=200 {
            let p = cost + (50.0 - cost) * i as f64 / 200.0;
            assert!(
                game.msp_utility_at(p) <= eq.msp_utility + 1e-6 * eq.msp_utility.abs().max(1.0),
                "price {p} beats the equilibrium ({} > {})",
                game.msp_utility_at(p),
                eq.msp_utility
            );
        }
    });
}

/// Discounted returns with bootstrap satisfy the Bellman-style recursion
/// G_k = r_k + gamma * G_{k+1}.
#[test]
fn discounted_returns_satisfy_recursion() {
    cases(64, 0x06, |rng| {
        let len = rng.gen_range(1..40usize);
        let rewards: Vec<f64> = (0..len).map(|_| rng.gen_range(-5.0..5.0)).collect();
        let gamma = rng.gen_range(0.0..1.0);
        let terminal = rng.gen_range(-5.0..5.0);
        let returns = discounted_returns(&rewards, gamma, terminal);
        for k in 0..rewards.len() {
            let next = if k + 1 < rewards.len() {
                returns[k + 1]
            } else {
                terminal
            };
            assert!((returns[k] - (rewards[k] + gamma * next)).abs() < 1e-9);
        }
    });
}

/// With lambda = 1, GAE value targets equal the bootstrapped discounted
/// returns (the paper's Eq. (18) estimator).
#[test]
fn gae_lambda_one_matches_monte_carlo() {
    cases(64, 0x07, |rng| {
        let len = rng.gen_range(1..30usize);
        let rewards: Vec<f64> = (0..len).map(|_| rng.gen_range(-2.0..2.0)).collect();
        let values: Vec<f64> = (0..len).map(|_| rng.gen_range(-2.0..2.0)).collect();
        let gamma = rng.gen_range(0.1..1.0);
        let terminal = rng.gen_range(-2.0..2.0);
        let (_, targets) = gae_advantages(&rewards, &values, terminal, gamma, 1.0);
        let returns = discounted_returns(&rewards, gamma, terminal);
        for (t, r) in targets.iter().zip(returns.iter()) {
            assert!((t - r).abs() < 1e-9);
        }
    });
}

/// Pre-copy migration always terminates with an AoTM at least as large as
/// the analytic single-pass bound, and converges when dirtying is slower
/// than the link.
#[test]
fn precopy_migration_terminates_and_dominates_analytic_bound() {
    cases(64, 0x08, |rng| {
        let size_mb = rng.gen_range(20.0..400.0);
        let bandwidth_mhz = rng.gen_range(0.5..20.0);
        let dirty = rng.gen_range(0.0..5.0);
        let l = link();
        let twin = VehicularTwin::new(
            TwinId(0),
            TwinDataProfile::from_total_mb(size_mb),
            dirty,
            1.0,
            5.0,
        );
        let bandwidth_hz = bandwidth_mhz * 1e6;
        let report = simulate_precopy_migration(&twin, bandwidth_hz, &l, &PreCopyConfig::default());
        // Cases where the dirty rate outruns the link are allowed to fail the
        // migration; the invariant only concerns successful runs.
        let Ok(report) = report else { return };
        let analytic = analytic_aotm_seconds(size_mb, bandwidth_hz, &l);
        assert!(report.aotm_s.is_finite());
        assert!(report.aotm_s + 1e-9 >= analytic);
        assert!(report.total_transferred_mb + 1e-9 >= size_mb);
        assert!(report.downtime_s >= 0.0);
    });
}

/// Summary statistics are consistent: min <= median <= p95 <= max and the
/// mean lies within [min, max].
#[test]
fn summary_statistics_are_ordered() {
    cases(64, 0x0A, |rng| {
        let len = rng.gen_range(1..200usize);
        let values: Vec<f64> = (0..len).map(|_| rng.gen_range(-100.0..100.0)).collect();
        let s = Summary::from_values(values.iter().copied());
        assert_eq!(s.count, values.len());
        assert!(s.min <= s.median + 1e-12);
        assert!(s.median <= s.p95 + 1e-12);
        assert!(s.p95 <= s.max + 1e-12);
        assert!(s.mean >= s.min - 1e-12 && s.mean <= s.max + 1e-12);
    });
}

/// The diagonal Gaussian log-density never exceeds its value at the mean.
#[test]
fn gaussian_log_prob_peaks_at_mean() {
    cases(64, 0x0B, |rng| {
        let dim = rng.gen_range(1..4usize);
        let mean: Vec<f64> = (0..dim).map(|_| rng.gen_range(-3.0..3.0)).collect();
        let log_std: Vec<f64> = (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let offset: Vec<f64> = (0..dim).map(|_| rng.gen_range(-3.0..3.0)).collect();
        let dist = DiagGaussian::new(mean.clone(), log_std);
        let shifted: Vec<f64> = mean.iter().zip(&offset).map(|(m, o)| m + o).collect();
        assert!(dist.log_prob(&mean) + 1e-12 >= dist.log_prob(&shifted));
    });
}
