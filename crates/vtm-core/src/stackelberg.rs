//! The AoTM-based Stackelberg game between the MSP and the VMUs.
//!
//! This module provides the *complete-information* solution of the game of
//! §III-B: the closed-form equilibrium of Theorems 1–2 extended with the
//! constraints of Problem 2 (aggregate bandwidth cap `B_max`, price cap
//! `p_max`, non-negative demands), a numerical cross-check built on
//! [`vtm_game`], and the [`StackelbergGame`] trait implementation that lets
//! the generic solver and the equilibrium verifier operate on the game.

use vtm_game::optimize::golden_section_max;
use vtm_game::stackelberg::{solve_stackelberg, SolveOptions, StackelbergGame};
use vtm_sim::radio::LinkBudget;

use crate::aotm::spectral_efficiency;
use crate::config::{ExperimentConfig, MarketConfig};
use crate::msp::Msp;
use crate::vmu::VmuProfile;

/// A solved instance of the AoTM Stackelberg game.
#[derive(Debug, Clone, PartialEq)]
pub struct EquilibriumOutcome {
    /// Equilibrium unit price `p*`.
    pub price: f64,
    /// Equilibrium bandwidth demands `b*` (MHz), indexed like the VMU list.
    pub demands_mhz: Vec<f64>,
    /// MSP utility at the equilibrium.
    pub msp_utility: f64,
    /// Per-VMU utilities at the equilibrium.
    pub vmu_utilities: Vec<f64>,
    /// Whether the aggregate bandwidth cap `B_max` binds at the equilibrium.
    pub bandwidth_cap_binding: bool,
    /// Whether the price cap `p_max` binds at the equilibrium.
    pub price_cap_binding: bool,
}

impl EquilibriumOutcome {
    /// Total bandwidth sold (MHz).
    pub fn total_bandwidth_mhz(&self) -> f64 {
        self.demands_mhz.iter().sum()
    }

    /// Sum of the VMU utilities.
    pub fn total_vmu_utility(&self) -> f64 {
        self.vmu_utilities.iter().sum()
    }

    /// Average VMU utility (0 when there are no VMUs).
    pub fn average_vmu_utility(&self) -> f64 {
        if self.vmu_utilities.is_empty() {
            0.0
        } else {
            self.total_vmu_utility() / self.vmu_utilities.len() as f64
        }
    }

    /// Average bandwidth purchased per VMU (MHz; 0 when there are no VMUs).
    pub fn average_bandwidth_mhz(&self) -> f64 {
        if self.demands_mhz.is_empty() {
            0.0
        } else {
            self.total_bandwidth_mhz() / self.demands_mhz.len() as f64
        }
    }
}

/// The AoTM Stackelberg game instance: the MSP, the VMU population and the
/// inter-RSU link they migrate over.
#[derive(Debug, Clone, PartialEq)]
pub struct AotmStackelbergGame {
    msp: Msp,
    vmus: Vec<VmuProfile>,
    link: LinkBudget,
    /// `log2(1 + SNR)` of `link`, computed once at construction. Every
    /// per-price evaluation reads it instead of rebuilding it from dBm and dB.
    spectral_efficiency: f64,
}

impl AotmStackelbergGame {
    /// Creates a game instance.
    ///
    /// # Panics
    ///
    /// Panics if `vmus` is empty, a profile is invalid or the link's distance
    /// is not positive.
    pub fn new(market: MarketConfig, vmus: Vec<VmuProfile>, link: LinkBudget) -> Self {
        assert!(!vmus.is_empty(), "the game requires at least one VMU");
        for vmu in &vmus {
            vmu.validate().expect("VMU profiles must be valid");
        }
        Self {
            msp: Msp::new(market),
            vmus,
            spectral_efficiency: spectral_efficiency(&link),
            link,
        }
    }

    /// Builds the game directly from an [`ExperimentConfig`].
    ///
    /// # Panics
    ///
    /// Panics if the configuration does not validate.
    pub fn from_config(config: &ExperimentConfig) -> Self {
        config
            .validate()
            .expect("experiment configuration must be valid");
        Self::new(config.market, config.vmus.clone(), config.link)
    }

    /// The MSP (leader).
    pub fn msp(&self) -> &Msp {
        &self.msp
    }

    /// The VMUs (followers).
    pub fn vmus(&self) -> &[VmuProfile] {
        &self.vmus
    }

    /// The inter-RSU link budget.
    pub fn link(&self) -> &LinkBudget {
        &self.link
    }

    /// Spectral efficiency of the inter-RSU link (stored at construction).
    pub fn spectral_efficiency(&self) -> f64 {
        self.spectral_efficiency
    }

    /// Best-response demand profile of every VMU at `price` (Eq. (8), clamped
    /// at zero), *without* the aggregate cap projection.
    pub fn best_responses(&self, price: f64) -> Vec<f64> {
        self.vmus
            .iter()
            .map(|v| v.best_response_se(price, self.spectral_efficiency))
            .collect()
    }

    /// The factor that scales a demand profile summing to `total` onto the
    /// aggregate cap `B_max`, or `None` when the profile already fits.
    fn cap_scale(&self, total: f64) -> Option<f64> {
        let cap = self.msp.max_bandwidth_mhz();
        (total > cap && total > 0.0).then(|| cap / total)
    }

    /// The capped demand profile at `price` and the uncapped total it was
    /// scaled from.
    fn capped_demands_and_total(&self, price: f64) -> (Vec<f64>, f64) {
        let mut demands = self.best_responses(price);
        let total: f64 = demands.iter().sum();
        if let Some(scale) = self.cap_scale(total) {
            for d in &mut demands {
                *d *= scale;
            }
        }
        (demands, total)
    }

    /// Demand profile at `price` with the aggregate `B_max` cap enforced by
    /// proportional scaling (the feasibility projection of Problem 2).
    pub fn capped_demands(&self, price: f64) -> Vec<f64> {
        self.capped_demands_and_total(price).0
    }

    /// MSP utility at `price` when VMUs play their (capped) best responses.
    ///
    /// Sums the demands of [`Self::capped_demands`], in the same order,
    /// without collecting them.
    pub fn msp_utility_at(&self, price: f64) -> f64 {
        let se = self.spectral_efficiency;
        let total: f64 = self
            .vmus
            .iter()
            .map(|v| v.best_response_se(price, se))
            .sum();
        let scale = self.cap_scale(total);
        self.msp.utility_of(
            price,
            self.vmus.iter().map(|v| {
                let b = v.best_response_se(price, se);
                scale.map_or(b, |s| b * s)
            }),
        )
    }

    /// Evaluates a full outcome (demands and utilities) at an arbitrary price.
    /// This is what the learning-based mechanism and the baseline pricing
    /// schemes use to score a posted price.
    pub fn outcome_at_price(&self, price: f64) -> EquilibriumOutcome {
        let (demands, uncapped_total) = self.capped_demands_and_total(price);
        let vmu_utilities: Vec<f64> = self
            .vmus
            .iter()
            .zip(demands.iter())
            .map(|(v, &b)| v.utility_se(b, price, self.spectral_efficiency))
            .collect();
        EquilibriumOutcome {
            price,
            msp_utility: self.msp.utility(price, &demands),
            bandwidth_cap_binding: uncapped_total > self.msp.max_bandwidth_mhz() + 1e-12,
            price_cap_binding: (price - self.msp.max_price()).abs() < 1e-9,
            demands_mhz: demands,
            vmu_utilities,
        }
    }

    /// Closed-form Stackelberg equilibrium (Theorems 1 and 2) extended with
    /// the constraints of Problem 2.
    ///
    /// The leader's objective is piecewise smooth in the price: the pieces are
    /// delimited by the VMUs' reservation prices (above which a VMU stops
    /// buying) and, within a piece, the unconstrained optimum is the Theorem-2
    /// expression evaluated on the piece's active set, possibly raised to the
    /// cap-clearing price when aggregate demand would exceed `B_max`. The
    /// exact equilibrium is therefore found by enumerating, per piece, the
    /// interior optimum, the cap-clearing price and the piece boundaries, and
    /// selecting the candidate with the highest leader utility.
    pub fn closed_form_equilibrium(&self) -> EquilibriumOutcome {
        let (price_lo, price_hi) = self.msp.price_bounds();
        let se = self.spectral_efficiency;
        let mut breakpoints: Vec<f64> = self
            .vmus
            .iter()
            .map(|v| v.reservation_price_se(se).clamp(price_lo, price_hi))
            .collect();
        breakpoints.push(price_lo);
        breakpoints.push(price_hi);
        breakpoints.sort_by(|a, b| a.partial_cmp(b).expect("prices are finite"));
        breakpoints.dedup_by(|a, b| (*a - *b).abs() < 1e-12);

        let mut candidates: Vec<f64> = breakpoints.clone();
        for segment in breakpoints.windows(2) {
            let (a, b) = (segment[0], segment[1]);
            if b - a < 1e-12 {
                continue;
            }
            let mid = 0.5 * (a + b);
            let active: Vec<VmuProfile> = self
                .vmus
                .iter()
                .copied()
                .filter(|v| v.best_response_se(mid, se) > 0.0)
                .collect();
            if active.is_empty() {
                continue;
            }
            let interior = self.msp.interior_optimal_price_se(&active, se);
            let cap_clearing = self.msp.cap_clearing_price_se(&active, se);
            candidates.push(interior.max(cap_clearing).clamp(a, b));
        }

        let mut best: Option<(f64, f64)> = None;
        for &price in &candidates {
            let utility = self.msp_utility_at(price);
            if best.is_none_or(|(_, u)| utility > u) {
                best = Some((price, utility));
            }
        }
        let (price, _) = best.unwrap_or((price_hi, 0.0));
        self.outcome_at_price(price)
    }

    /// Numerical equilibrium computed with the generic solver of [`vtm_game`]
    /// (golden-section over the price with the follower stage re-solved per
    /// candidate). Used to cross-check the closed form and for configurations
    /// where the cap makes the closed form only piecewise valid.
    pub fn numerical_equilibrium(&self) -> EquilibriumOutcome {
        let options = SolveOptions::default();
        let solution = solve_stackelberg(self, &options)
            .expect("the AoTM game has finite utilities on its price interval");
        // Refine around the numerical argmax with a fine golden-section pass
        // directly on the outcome evaluation to reduce solver tolerance noise.
        let (lo, hi) = self.msp.price_bounds();
        let refined = golden_section_max(|p| self.msp_utility_at(p), lo, hi, 1e-10, 500)
            .map(|m| m.argmax)
            .unwrap_or(solution.leader_action);
        self.outcome_at_price(refined)
    }
}

impl StackelbergGame for AotmStackelbergGame {
    fn num_followers(&self) -> usize {
        self.vmus.len()
    }

    fn leader_action_bounds(&self) -> (f64, f64) {
        self.msp.price_bounds()
    }

    fn follower_strategy_bounds(&self, _follower: usize) -> (f64, f64) {
        (0.0, self.msp.max_bandwidth_mhz())
    }

    fn follower_utility(
        &self,
        follower: usize,
        leader_action: f64,
        own: f64,
        _others: &[f64],
    ) -> f64 {
        self.vmus[follower].utility_se(own, leader_action, self.spectral_efficiency)
    }

    fn follower_best_response(&self, follower: usize, leader_action: f64, _others: &[f64]) -> f64 {
        self.vmus[follower]
            .best_response_se(leader_action, self.spectral_efficiency)
            .min(self.msp.max_bandwidth_mhz())
    }

    fn leader_utility(&self, leader_action: f64, followers: &[f64]) -> f64 {
        self.msp.utility(leader_action, followers)
    }

    fn project_followers(&self, _leader_action: f64, profile: &mut [f64]) {
        let total: f64 = profile.iter().sum();
        if let Some(scale) = self.cap_scale(total) {
            for b in profile {
                *b *= scale;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vtm_game::equilibrium::verify_equilibrium;

    fn paper_game() -> AotmStackelbergGame {
        AotmStackelbergGame::from_config(&ExperimentConfig::paper_two_vmus())
    }

    #[test]
    fn closed_form_reproduces_paper_price_and_utility() {
        let game = paper_game();
        let eq = game.closed_form_equilibrium();
        // Paper §V-B: at unit cost 5 the MSP prices around 25.
        assert!((eq.price - 25.0).abs() < 1.0, "price {}", eq.price);
        assert!(eq.msp_utility > 0.0);
        assert!(!eq.bandwidth_cap_binding);
        assert!(!eq.price_cap_binding);
        assert_eq!(eq.demands_mhz.len(), 2);
        assert!(eq.demands_mhz.iter().all(|&b| b > 0.0));
        // VMU with the larger twin buys less net immersion headroom: demand of
        // VMU 0 (200 MB) is below that of VMU 1 (100 MB).
        assert!(eq.demands_mhz[0] < eq.demands_mhz[1]);
    }

    #[test]
    fn paper_fig3c_two_vmu_msp_utility_is_reproduced() {
        // Fig. 3(c): with two identical VMUs (100 MB, α = 5) the MSP utility is 7.03.
        let game = AotmStackelbergGame::from_config(&ExperimentConfig::paper_n_vmus(2));
        let eq = game.closed_form_equilibrium();
        assert!(
            (eq.msp_utility - 7.03).abs() < 0.05,
            "MSP utility {} should be ≈ 7.03",
            eq.msp_utility
        );
    }

    #[test]
    fn closed_form_matches_numerical_equilibrium() {
        let game = paper_game();
        let closed = game.closed_form_equilibrium();
        let numeric = game.numerical_equilibrium();
        assert!(
            (closed.price - numeric.price).abs() < 1e-2,
            "closed {} vs numeric {}",
            closed.price,
            numeric.price
        );
        assert!((closed.msp_utility - numeric.msp_utility).abs() < 1e-3);
    }

    #[test]
    fn equilibrium_verifies_against_definition_one() {
        let game = paper_game();
        let eq = game.closed_form_equilibrium();
        let report = verify_equilibrium(
            &game,
            eq.price,
            &eq.demands_mhz,
            301,
            &SolveOptions::default(),
        );
        assert!(
            report.is_equilibrium(1e-2),
            "no profitable deviation expected: {report:?}"
        );
    }

    #[test]
    fn price_increases_with_unit_cost() {
        let mut last_price = 0.0;
        for cost in [5.0, 6.0, 7.0, 8.0, 9.0] {
            let mut cfg = ExperimentConfig::paper_two_vmus();
            cfg.market.unit_cost = cost;
            let eq = AotmStackelbergGame::from_config(&cfg).closed_form_equilibrium();
            assert!(eq.price > last_price, "price must rise with cost");
            last_price = eq.price;
        }
        // Paper: price ≈ 34 at unit cost 9.
        assert!(
            (last_price - 34.0).abs() < 1.0,
            "price at C=9 is {last_price}"
        );
    }

    #[test]
    fn total_bandwidth_decreases_with_unit_cost() {
        let mut last = f64::INFINITY;
        for cost in [5.0, 6.0, 7.0, 8.0, 9.0] {
            let mut cfg = ExperimentConfig::paper_two_vmus();
            cfg.market.unit_cost = cost;
            let eq = AotmStackelbergGame::from_config(&cfg).closed_form_equilibrium();
            assert!(eq.total_bandwidth_mhz() < last);
            last = eq.total_bandwidth_mhz();
        }
    }

    #[test]
    fn msp_utility_increases_with_vmu_count() {
        let mut last = 0.0;
        for n in 2..=6 {
            let eq = AotmStackelbergGame::from_config(&ExperimentConfig::paper_n_vmus(n))
                .closed_form_equilibrium();
            assert!(eq.msp_utility > last, "utility must grow with N");
            last = eq.msp_utility;
        }
    }

    #[test]
    fn bandwidth_cap_binds_when_small() {
        let mut cfg = ExperimentConfig::paper_n_vmus(6);
        cfg.market.max_bandwidth_mhz = 0.5;
        let game = AotmStackelbergGame::from_config(&cfg);
        let eq = game.closed_form_equilibrium();
        assert!(eq.total_bandwidth_mhz() <= 0.5 + 1e-9);
        // With a binding cap the price rises above the unconstrained optimum.
        let unconstrained = AotmStackelbergGame::from_config(&ExperimentConfig::paper_n_vmus(6))
            .closed_form_equilibrium();
        assert!(eq.price >= unconstrained.price);
        assert!(eq.bandwidth_cap_binding || eq.price > unconstrained.price);
    }

    #[test]
    fn price_cap_binds_when_low() {
        let mut cfg = ExperimentConfig::paper_two_vmus();
        cfg.market.max_price = 10.0;
        let eq = AotmStackelbergGame::from_config(&cfg).closed_form_equilibrium();
        assert!((eq.price - 10.0).abs() < 1e-9);
        assert!(eq.price_cap_binding);
    }

    #[test]
    fn outcome_statistics_are_consistent() {
        let game = paper_game();
        let eq = game.outcome_at_price(20.0);
        assert!((eq.total_bandwidth_mhz() - eq.demands_mhz.iter().sum::<f64>()).abs() < 1e-12);
        assert!(
            (eq.average_vmu_utility() * eq.vmu_utilities.len() as f64 - eq.total_vmu_utility())
                .abs()
                < 1e-12
        );
        assert!(eq.average_bandwidth_mhz() > 0.0);
    }

    #[test]
    fn very_high_price_drives_demand_to_zero() {
        let game = paper_game();
        let outcome = game.outcome_at_price(49.9);
        // Reservation prices of the paper's VMUs are well below 49.9 for the
        // 200 MB twin, so at least that VMU abstains.
        assert!(outcome.demands_mhz[0] < 1e-9 || outcome.demands_mhz[0] < outcome.demands_mhz[1]);
    }

    #[test]
    fn cached_evaluation_is_bit_identical_to_the_per_link_formulas() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let mut rng = StdRng::seed_from_u64(0x5eed);
        let (mut bound, mut slack) = (0, 0);
        for _ in 0..60 {
            let n = rng.gen_range(1..=100usize);
            let unit_cost = rng.gen_range(1.0..10.0);
            let market = MarketConfig {
                unit_cost,
                max_price: unit_cost + rng.gen_range(5.0..80.0),
                max_bandwidth_mhz: if rng.gen_bool(0.5) {
                    rng.gen_range(0.05..2.0)
                } else {
                    rng.gen_range(10.0..100.0)
                },
            };
            let vmus: Vec<VmuProfile> = (0..n)
                .map(|i| VmuProfile::new(i, rng.gen_range(20.0..400.0), rng.gen_range(0.5..20.0)))
                .collect();
            let link = LinkBudget::default().with_distance(rng.gen_range(50.0..3000.0));
            let game = AotmStackelbergGame::new(market, vmus.clone(), link);
            let msp = Msp::new(market);
            let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();

            let (lo, hi) = msp.price_bounds();
            let prices = std::iter::once(lo)
                .chain((1..40).map(|i| lo + (hi - lo) * i as f64 / 40.0))
                .chain(std::iter::once(hi));
            for price in prices {
                let responses: Vec<f64> =
                    vmus.iter().map(|v| v.best_response(price, &link)).collect();
                let total: f64 = responses.iter().sum();
                let cap = market.max_bandwidth_mhz;
                let mut capped = responses.clone();
                if total > cap && total > 0.0 {
                    bound += 1;
                    let scale = cap / total;
                    for d in &mut capped {
                        *d *= scale;
                    }
                } else {
                    slack += 1;
                }
                let utilities: Vec<f64> = vmus
                    .iter()
                    .zip(&capped)
                    .map(|(v, &b)| v.utility(b, price, &link))
                    .collect();
                let msp_utility = msp.utility(price, &capped);

                assert_eq!(bits(&game.best_responses(price)), bits(&responses));
                assert_eq!(bits(&game.capped_demands(price)), bits(&capped));
                assert_eq!(game.msp_utility_at(price).to_bits(), msp_utility.to_bits());
                let outcome = game.outcome_at_price(price);
                assert_eq!(outcome.price.to_bits(), price.to_bits());
                assert_eq!(bits(&outcome.demands_mhz), bits(&capped));
                assert_eq!(bits(&outcome.vmu_utilities), bits(&utilities));
                assert_eq!(outcome.msp_utility.to_bits(), msp_utility.to_bits());
                assert_eq!(outcome.bandwidth_cap_binding, total > cap + 1e-12);
                assert_eq!(
                    outcome.price_cap_binding,
                    (price - msp.max_price()).abs() < 1e-9
                );
                // Two separate sums of the capped demands must not drift apart.
                assert_eq!(
                    game.msp_utility_at(price).to_bits(),
                    outcome.msp_utility.to_bits()
                );
            }
        }
        assert!(bound > 0 && slack > 0, "cap bound {bound}, slack {slack}");
    }

    #[test]
    #[should_panic(expected = "at least one VMU")]
    fn empty_vmu_list_rejected() {
        let _ = AotmStackelbergGame::new(MarketConfig::default(), vec![], LinkBudget::default());
    }
}
