//! The Metaverse Service Provider: the leader of the Stackelberg game.
//!
//! The MSP owns the RSUs' bandwidth, posts a unit price `p ∈ [C, p_max]` and
//! earns `U_s(p) = Σ_n (p − C) · b_n` (Eq. (4)) subject to the aggregate
//! bandwidth cap `Σ_n b_n ≤ B_max` (Problem 2). Theorem 2 gives the interior
//! optimum `p* = sqrt(C · log2(1+SNR) · Σα_n / ΣD_n)` when every VMU is active
//! and the cap does not bind.

use vtm_sim::radio::LinkBudget;

use crate::aotm::spectral_efficiency;
use crate::config::MarketConfig;
use crate::vmu::VmuProfile;

/// The MSP's market position: its cost and the market bounds it must respect.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Msp {
    market: MarketConfig,
}

impl Msp {
    /// Creates an MSP from the market configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see [`MarketConfig::validate`]).
    pub fn new(market: MarketConfig) -> Self {
        market
            .validate()
            .expect("market configuration must be valid");
        Self { market }
    }

    /// The market configuration.
    pub fn market(&self) -> &MarketConfig {
        &self.market
    }

    /// Unit transmission cost `C`.
    pub fn unit_cost(&self) -> f64 {
        self.market.unit_cost
    }

    /// Maximum unit price `p_max`.
    pub fn max_price(&self) -> f64 {
        self.market.max_price
    }

    /// Maximum total bandwidth `B_max` (MHz).
    pub fn max_bandwidth_mhz(&self) -> f64 {
        self.market.max_bandwidth_mhz
    }

    /// Feasible price interval `[C, p_max]`.
    pub fn price_bounds(&self) -> (f64, f64) {
        (self.market.unit_cost, self.market.max_price)
    }

    /// MSP utility `U_s` of Eq. (4) for a given price and demand profile.
    pub fn utility(&self, price: f64, demands: &[f64]) -> f64 {
        self.utility_of(price, demands.iter().copied())
    }

    /// [`Self::utility`] over demands that are produced on the fly, summed in
    /// iteration order.
    pub(crate) fn utility_of(&self, price: f64, demands: impl Iterator<Item = f64>) -> f64 {
        demands.map(|b| (price - self.market.unit_cost) * b).sum()
    }

    /// MSP utility when every VMU best-responds to `price` (substituting
    /// Eq. (8) into Eq. (4), the expression differentiated in Theorem 2).
    pub fn utility_at_price(&self, price: f64, vmus: &[VmuProfile], link: &LinkBudget) -> f64 {
        let demands: Vec<f64> = vmus.iter().map(|v| v.best_response(price, link)).collect();
        self.utility(price, &demands)
    }

    /// Total bandwidth demanded by best-responding VMUs at `price` (MHz).
    pub fn total_demand(&self, price: f64, vmus: &[VmuProfile], link: &LinkBudget) -> f64 {
        vmus.iter().map(|v| v.best_response(price, link)).sum()
    }

    /// The interior optimal price of Theorem 2 over `link`; see
    /// [`Self::interior_optimal_price_se`].
    ///
    /// # Panics
    ///
    /// Panics if `vmus` is empty.
    pub fn interior_optimal_price(&self, vmus: &[VmuProfile], link: &LinkBudget) -> f64 {
        self.interior_optimal_price_se(vmus, spectral_efficiency(link))
    }

    /// The interior optimal price of Theorem 2 assuming every VMU is active
    /// and the bandwidth cap does not bind, over a link of spectral
    /// efficiency `se = log2(1+SNR)`: `p* = sqrt(C · se · Σα_n / ΣD_n)`.
    ///
    /// # Panics
    ///
    /// Panics if `vmus` is empty.
    pub fn interior_optimal_price_se(&self, vmus: &[VmuProfile], se: f64) -> f64 {
        assert!(!vmus.is_empty(), "at least one VMU is required");
        let sum_alpha: f64 = vmus.iter().map(|v| v.alpha).sum();
        let sum_data: f64 = vmus.iter().map(|v| v.data_units()).sum();
        (self.market.unit_cost * se * sum_alpha / sum_data).sqrt()
    }

    /// The lowest price at which the aggregate best-response demand of the
    /// given (active) VMUs fits within `B_max` over `link`; see
    /// [`Self::cap_clearing_price_se`].
    ///
    /// # Panics
    ///
    /// Panics if `vmus` is empty.
    pub fn cap_clearing_price(&self, vmus: &[VmuProfile], link: &LinkBudget) -> f64 {
        self.cap_clearing_price_se(vmus, spectral_efficiency(link))
    }

    /// The lowest price at which the aggregate best-response demand of the
    /// given (active) VMUs fits within `B_max` over a link of spectral
    /// efficiency `se = log2(1+SNR)`: `p_cap = Σα_n / (B_max + ΣD_n / se)`.
    ///
    /// Any price at or above this value satisfies the bandwidth constraint of
    /// Problem 2 (demand is decreasing in price).
    ///
    /// # Panics
    ///
    /// Panics if `vmus` is empty.
    pub fn cap_clearing_price_se(&self, vmus: &[VmuProfile], se: f64) -> f64 {
        assert!(!vmus.is_empty(), "at least one VMU is required");
        let sum_alpha: f64 = vmus.iter().map(|v| v.alpha).sum();
        let sum_data: f64 = vmus.iter().map(|v| v.data_units()).sum();
        sum_alpha / (self.market.max_bandwidth_mhz + sum_data / se)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vtm_game::optimize::is_concave_on;

    fn setup() -> (Msp, Vec<VmuProfile>, LinkBudget) {
        let msp = Msp::new(MarketConfig::default());
        let vmus = vec![
            VmuProfile::new(0, 200.0, 5.0),
            VmuProfile::new(1, 100.0, 5.0),
        ];
        (msp, vmus, LinkBudget::default())
    }

    #[test]
    fn accessors_expose_market() {
        let (msp, _, _) = setup();
        assert_eq!(msp.unit_cost(), 5.0);
        assert_eq!(msp.max_price(), 50.0);
        assert_eq!(msp.max_bandwidth_mhz(), 50.0);
        assert_eq!(msp.price_bounds(), (5.0, 50.0));
        assert_eq!(msp.market().unit_cost, 5.0);
    }

    #[test]
    #[should_panic(expected = "market configuration must be valid")]
    fn invalid_market_rejected() {
        let _ = Msp::new(MarketConfig {
            unit_cost: 10.0,
            max_bandwidth_mhz: 50.0,
            max_price: 5.0,
        });
    }

    #[test]
    fn utility_formula() {
        let (msp, _, _) = setup();
        assert!((msp.utility(25.0, &[0.2, 0.1]) - 20.0 * 0.3).abs() < 1e-12);
        assert_eq!(msp.utility(5.0, &[1.0, 2.0]), 0.0);
    }

    #[test]
    fn interior_price_matches_theorem_two() {
        let (msp, vmus, link) = setup();
        let se = spectral_efficiency(&link);
        let expected = (5.0 * se * 10.0 / 3.0_f64).sqrt();
        let p = msp.interior_optimal_price(&vmus, &link);
        assert!((p - expected).abs() < 1e-12);
        // The paper reports a price of about 25 at unit cost 5.
        assert!((p - 25.0).abs() < 1.0, "p* = {p}");
    }

    #[test]
    fn interior_price_is_first_order_optimal() {
        let (msp, vmus, link) = setup();
        let p_star = msp.interior_optimal_price(&vmus, &link);
        let h = 1e-5;
        let up = msp.utility_at_price(p_star + h, &vmus, &link);
        let down = msp.utility_at_price(p_star - h, &vmus, &link);
        let at = msp.utility_at_price(p_star, &vmus, &link);
        assert!(at >= up && at >= down, "p* must be a local maximum");
    }

    #[test]
    fn leader_utility_is_concave_in_price() {
        let (msp, vmus, link) = setup();
        // Concave on the region where both VMUs are active.
        let cap = vmus
            .iter()
            .map(|v| v.reservation_price(&link))
            .fold(f64::INFINITY, f64::min);
        assert!(is_concave_on(
            |p| msp.utility_at_price(p, &vmus, &link),
            6.0,
            cap * 0.95,
            40,
            1e-6
        ));
    }

    #[test]
    fn cap_clearing_price_balances_demand() {
        let (msp, vmus, link) = setup();
        let p_cap = msp.cap_clearing_price(&vmus, &link);
        let demand = msp.total_demand(p_cap, &vmus, &link);
        assert!((demand - msp.max_bandwidth_mhz()).abs() < 1e-9);
        // A slightly higher price must satisfy the cap strictly.
        assert!(msp.total_demand(p_cap * 1.01, &vmus, &link) < msp.max_bandwidth_mhz());
    }

    #[test]
    fn total_demand_decreases_with_price() {
        let (msp, vmus, link) = setup();
        assert!(msp.total_demand(10.0, &vmus, &link) > msp.total_demand(20.0, &vmus, &link));
    }

    #[test]
    #[should_panic(expected = "at least one VMU")]
    fn interior_price_requires_vmus() {
        let (msp, _, link) = setup();
        let _ = msp.interior_optimal_price(&[], &link);
    }
}
