//! Age of Twin Migration (AoTM) and the immersion it drives.
//!
//! §III-A of the paper defines AoTM as the time elapsed between the
//! generation of the first VT block and the reception of the last one:
//! `A_n = D_n / γ_n` with `γ_n = b_n · log2(1 + ρ h0 d^{-ε} / N0)` (Eq. (1)).
//! The immersion a VMU derives from a fresh migration is
//! `G_n = α_n · ln(1 + 1 / A_n)`.
//!
//! Bandwidth is expressed in MHz and data sizes in *data units* of
//! [`DATA_UNIT_MB`] megabytes (hundreds of MB),
//! which is the normalisation under which the paper's reported equilibrium
//! values are reproduced exactly.

use vtm_sim::radio::LinkBudget;

use crate::config::DATA_UNIT_MB;

/// Age of Twin Migration in the paper's (dimensionless) time units.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct AgeOfTwinMigration(pub f64);

impl AgeOfTwinMigration {
    /// Whether the migration completes in finite time.
    pub fn is_finite(&self) -> bool {
        self.0.is_finite()
    }
}

impl std::fmt::Display for AgeOfTwinMigration {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "AoTM({:.4})", self.0)
    }
}

/// Spectral efficiency `log2(1 + ρ h0 d^{-ε} / N0)` of the inter-RSU link.
///
/// This is the factor the paper multiplies by the purchased bandwidth to
/// obtain the migration task's transmission rate.
pub fn spectral_efficiency(link: &LinkBudget) -> f64 {
    link.spectral_efficiency()
}

/// Converts a twin size in megabytes to the data units used by the game's
/// closed-form expressions (hundreds of megabytes).
pub fn data_units_from_mb(size_mb: f64) -> f64 {
    size_mb / DATA_UNIT_MB
}

/// AoTM of migrating `data_units` of twin state with `bandwidth_mhz` of
/// purchased bandwidth over `link` (Eq. (1)); see [`aotm_se`].
pub fn aotm(data_units: f64, bandwidth_mhz: f64, link: &LinkBudget) -> AgeOfTwinMigration {
    aotm_se(data_units, bandwidth_mhz, spectral_efficiency(link))
}

/// AoTM of migrating `data_units` of twin state with `bandwidth_mhz` of
/// purchased bandwidth over a link of spectral efficiency `se` (Eq. (1)).
///
/// Returns an infinite age when the bandwidth is zero or negative — the
/// migration never completes, which is exactly how the immersion function
/// treats it (no immersion).
pub fn aotm_se(data_units: f64, bandwidth_mhz: f64, se: f64) -> AgeOfTwinMigration {
    if bandwidth_mhz <= 0.0 || data_units <= 0.0 {
        return AgeOfTwinMigration(if data_units <= 0.0 {
            0.0
        } else {
            f64::INFINITY
        });
    }
    let rate = bandwidth_mhz * se;
    AgeOfTwinMigration(data_units / rate)
}

/// Immersion `G_n = α_n · ln(1 + 1 / A_n)` obtained by a VMU whose migration
/// finished with age `age`.
///
/// An infinite age yields zero immersion; an age of zero (no data to move)
/// yields unbounded immersion, so callers should ensure `data_units > 0`.
///
/// # Panics
///
/// Panics if `alpha` is not positive.
pub fn immersion(alpha: f64, age: AgeOfTwinMigration) -> f64 {
    assert!(alpha > 0.0, "immersion coefficient must be positive");
    if !age.0.is_finite() {
        return 0.0;
    }
    if age.0 <= 0.0 {
        return f64::INFINITY;
    }
    alpha * (1.0 + 1.0 / age.0).ln()
}

/// Convenience: immersion of VMU `n` as a function of its purchased bandwidth,
/// combining [`aotm`] and [`immersion`].
pub fn immersion_from_bandwidth(
    alpha: f64,
    data_units: f64,
    bandwidth_mhz: f64,
    link: &LinkBudget,
) -> f64 {
    immersion(alpha, aotm(data_units, bandwidth_mhz, link))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn link() -> LinkBudget {
        LinkBudget::default()
    }

    #[test]
    fn aotm_formula_matches_hand_computation() {
        let l = link();
        let se = spectral_efficiency(&l);
        let a = aotm(2.0, 10.0, &l);
        assert!((a.0 - 2.0 / (10.0 * se)).abs() < 1e-12);
        assert!(a.is_finite());
    }

    #[test]
    fn aotm_is_infinite_without_bandwidth() {
        let a = aotm(2.0, 0.0, &link());
        assert!(!a.is_finite());
        assert_eq!(immersion(5.0, a), 0.0);
    }

    #[test]
    fn aotm_decreases_with_bandwidth_and_increases_with_data() {
        let l = link();
        assert!(aotm(2.0, 20.0, &l).0 < aotm(2.0, 10.0, &l).0);
        assert!(aotm(3.0, 10.0, &l).0 > aotm(2.0, 10.0, &l).0);
    }

    #[test]
    fn immersion_is_monotone_in_bandwidth() {
        let l = link();
        let g1 = immersion_from_bandwidth(5.0, 2.0, 1.0, &l);
        let g2 = immersion_from_bandwidth(5.0, 2.0, 2.0, &l);
        let g3 = immersion_from_bandwidth(5.0, 2.0, 4.0, &l);
        assert!(g1 < g2 && g2 < g3);
        assert!(g1 > 0.0);
    }

    #[test]
    fn immersion_scales_linearly_with_alpha() {
        let l = link();
        let base = immersion_from_bandwidth(5.0, 2.0, 1.0, &l);
        let double = immersion_from_bandwidth(10.0, 2.0, 1.0, &l);
        assert!((double - 2.0 * base).abs() < 1e-12);
    }

    #[test]
    fn immersion_has_diminishing_returns() {
        // Concavity in bandwidth: equal bandwidth increments yield shrinking
        // immersion gains.
        let l = link();
        let g1 = immersion_from_bandwidth(5.0, 2.0, 1.0, &l);
        let g2 = immersion_from_bandwidth(5.0, 2.0, 2.0, &l);
        let g3 = immersion_from_bandwidth(5.0, 2.0, 3.0, &l);
        assert!(g2 - g1 > g3 - g2, "marginal immersion must decrease");
    }

    #[test]
    fn data_unit_conversion() {
        assert!((data_units_from_mb(200.0) - 2.0).abs() < 1e-12);
        assert!((data_units_from_mb(50.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn zero_data_migrates_instantly() {
        let a = aotm(0.0, 10.0, &link());
        assert_eq!(a.0, 0.0);
        assert_eq!(immersion(5.0, a), f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "immersion coefficient must be positive")]
    fn non_positive_alpha_panics() {
        let _ = immersion(0.0, AgeOfTwinMigration(1.0));
    }

    #[test]
    fn display_formats() {
        let a = AgeOfTwinMigration(0.12345);
        assert!(format!("{a}").contains("AoTM"));
    }
}
