//! Vehicular Metaverse Users: the followers of the Stackelberg game.
//!
//! Each VMU `n` owns a twin of size `D_n`, values immersion at `α_n` per unit
//! and chooses how much bandwidth `b_n` to purchase at the posted unit price
//! `p`. Its utility (Eq. (2)) is `U_n(b_n) = α_n ln(1 + 1/A_n) − p·b_n`, and
//! Theorem 1 shows the unique maximiser (Eq. (8)) is
//! `b_n* = α_n / p − D_n / log2(1 + SNR)`.

use vtm_sim::radio::LinkBudget;

use crate::aotm::{aotm_se, data_units_from_mb, immersion, spectral_efficiency};

/// A VMU participating in the bandwidth market.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VmuProfile {
    /// Identifier of the VMU (and of its twin).
    pub id: usize,
    /// Twin size `D_n` in megabytes.
    pub data_size_mb: f64,
    /// Immersion coefficient `α_n` (unit profit of immersion).
    pub alpha: f64,
}

impl VmuProfile {
    /// Creates a VMU profile.
    pub fn new(id: usize, data_size_mb: f64, alpha: f64) -> Self {
        Self {
            id,
            data_size_mb,
            alpha,
        }
    }

    /// Twin size in the data units used by the game (hundreds of MB).
    pub fn data_units(&self) -> f64 {
        data_units_from_mb(self.data_size_mb)
    }

    /// Validates the profile.
    ///
    /// # Errors
    ///
    /// Returns a message when the data size or immersion coefficient is not positive.
    pub fn validate(&self) -> Result<(), String> {
        if self.data_size_mb.is_nan() || self.data_size_mb <= 0.0 {
            return Err(format!("VMU {}: data size must be positive", self.id));
        }
        if self.alpha.is_nan() || self.alpha <= 0.0 {
            return Err(format!(
                "VMU {}: immersion coefficient must be positive",
                self.id
            ));
        }
        Ok(())
    }

    /// Utility `U_n(b_n)` of purchasing `bandwidth_mhz` at unit price `price`
    /// over `link` (Eq. (2)); see [`Self::utility_se`].
    pub fn utility(&self, bandwidth_mhz: f64, price: f64, link: &LinkBudget) -> f64 {
        self.utility_se(bandwidth_mhz, price, spectral_efficiency(link))
    }

    /// Utility `U_n(b_n)` of purchasing `bandwidth_mhz` at unit price `price`
    /// over a link of spectral efficiency `se` (Eq. (2)).
    ///
    /// A non-positive bandwidth yields zero immersion and zero payment, hence
    /// zero utility (the VMU simply abstains).
    pub fn utility_se(&self, bandwidth_mhz: f64, price: f64, se: f64) -> f64 {
        if bandwidth_mhz <= 0.0 {
            return 0.0;
        }
        let age = aotm_se(self.data_units(), bandwidth_mhz, se);
        immersion(self.alpha, age) - price * bandwidth_mhz
    }

    /// Best-response bandwidth demand of Eq. (8) over `link`; see
    /// [`Self::best_response_se`].
    ///
    /// # Panics
    ///
    /// Panics if `price` is not positive.
    pub fn best_response(&self, price: f64, link: &LinkBudget) -> f64 {
        self.best_response_se(price, spectral_efficiency(link))
    }

    /// Best-response bandwidth demand of Eq. (8) over a link of spectral
    /// efficiency `se = log2(1 + SNR)`, projected onto `b_n ≥ 0`:
    /// `b_n* = max(0, α_n / p − D_n / se)`.
    ///
    /// # Panics
    ///
    /// Panics if `price` is not positive.
    pub fn best_response_se(&self, price: f64, se: f64) -> f64 {
        assert!(price > 0.0, "price must be positive");
        let unconstrained = self.alpha / price - self.data_units() / se;
        unconstrained.max(0.0)
    }

    /// The price above which this VMU stops purchasing bandwidth over `link`;
    /// see [`Self::reservation_price_se`].
    pub fn reservation_price(&self, link: &LinkBudget) -> f64 {
        self.reservation_price_se(spectral_efficiency(link))
    }

    /// The price above which this VMU stops purchasing bandwidth entirely
    /// (its unconstrained best response becomes non-positive) over a link of
    /// spectral efficiency `se`: `p̄_n = α_n · se / D_n`.
    pub fn reservation_price_se(&self, se: f64) -> f64 {
        self.alpha * se / self.data_units()
    }

    /// Utility attained when best-responding to `price`.
    pub fn best_response_utility(&self, price: f64, link: &LinkBudget) -> f64 {
        self.utility(self.best_response(price, link), price, link)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vtm_game::optimize::{golden_section_max, is_concave_on};

    fn link() -> LinkBudget {
        LinkBudget::default()
    }

    fn vmu() -> VmuProfile {
        VmuProfile::new(0, 200.0, 5.0)
    }

    #[test]
    fn validation_catches_bad_profiles() {
        assert!(vmu().validate().is_ok());
        assert!(VmuProfile::new(0, 0.0, 5.0).validate().is_err());
        assert!(VmuProfile::new(0, 100.0, -1.0).validate().is_err());
    }

    #[test]
    fn best_response_matches_closed_form() {
        let l = link();
        let v = vmu();
        let p = 25.0;
        let expected = 5.0 / p - 2.0 / spectral_efficiency(&l);
        assert!((v.best_response(p, &l) - expected).abs() < 1e-12);
    }

    #[test]
    fn best_response_is_clamped_to_zero_at_high_prices() {
        let l = link();
        let v = vmu();
        let above = v.reservation_price(&l) * 1.01;
        assert_eq!(v.best_response(above, &l), 0.0);
        let below = v.reservation_price(&l) * 0.99;
        assert!(v.best_response(below, &l) > 0.0);
    }

    #[test]
    fn best_response_maximises_utility_numerically() {
        let l = link();
        let v = vmu();
        for price in [10.0, 25.0, 40.0] {
            let closed_form = v.best_response(price, &l);
            let numeric = golden_section_max(|b| v.utility(b, price, &l), 1e-6, 5.0, 1e-10, 300)
                .unwrap()
                .argmax;
            assert!(
                (closed_form - numeric).abs() < 1e-4,
                "price {price}: closed form {closed_form} vs numeric {numeric}"
            );
        }
    }

    #[test]
    fn utility_is_concave_in_bandwidth() {
        let l = link();
        let v = vmu();
        assert!(is_concave_on(
            |b| v.utility(b, 25.0, &l),
            0.01,
            2.0,
            40,
            1e-6
        ));
    }

    #[test]
    fn utility_of_abstaining_is_zero() {
        let l = link();
        assert_eq!(vmu().utility(0.0, 25.0, &l), 0.0);
        assert_eq!(vmu().utility(-1.0, 25.0, &l), 0.0);
    }

    #[test]
    fn best_response_utility_is_nonnegative() {
        // Best-responding can never be worse than abstaining (utility 0).
        let l = link();
        let v = vmu();
        for price in [1.0, 5.0, 25.0, 45.0, 80.0, 200.0] {
            assert!(
                v.best_response_utility(price, &l) >= -1e-12,
                "negative utility at price {price}"
            );
        }
    }

    #[test]
    fn demand_decreases_with_price() {
        let l = link();
        let v = vmu();
        let mut last = f64::INFINITY;
        for price in [5.0, 10.0, 20.0, 40.0, 80.0] {
            let b = v.best_response(price, &l);
            assert!(b <= last + 1e-12);
            last = b;
        }
    }

    #[test]
    fn data_units_conversion() {
        assert!((vmu().data_units() - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "price must be positive")]
    fn zero_price_panics() {
        let _ = vmu().best_response(0.0, &link());
    }
}
