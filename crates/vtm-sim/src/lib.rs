//! # vtm-sim — vehicular-metaverse simulator substrate
//!
//! The physical-world substrate needed by the reproduction of *"Learning-based
//! Incentive Mechanism for Task Freshness-aware Vehicular Twin Migration"*
//! (ICDCS 2023): vehicles, mobility, roadside units, the inter-RSU wireless
//! link budget, vehicular twins and their pre-copy live migration, and an
//! end-to-end simulation that triggers migrations as vehicles cross RSU
//! coverage boundaries.
//!
//! The paper evaluates its incentive mechanism analytically/numerically; this
//! simulator exists so that the mechanism can also be exercised end-to-end
//! (example `highway_migration`, and the scenario environments of
//! `vtm-core`), and so the analytic Age of Twin Migration of Eq. (1) can be
//! cross-checked against a packet-level model (see [`migration::analytic_aotm_seconds`] versus
//! [`migration::simulate_precopy_migration`]).
//!
//! # Example
//!
//! ```
//! use vtm_sim::prelude::*;
//!
//! // AoTM of migrating a 200 MB twin over 10 MHz on the paper's link budget.
//! let link = LinkBudget::default();
//! let aotm = analytic_aotm_seconds(200.0, 10e6, &link);
//! assert!(aotm > 0.0 && aotm.is_finite());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod metaverse;
pub mod migration;
pub mod mobility;
pub mod radio;
pub mod rsu;
pub mod stats;
pub mod trace;
pub mod twin;
pub mod vehicle;

/// Convenient glob-import of the most commonly used items.
pub mod prelude {
    pub use crate::metaverse::{
        BandwidthAllocator, EqualShareAllocator, FixedAllocator, MetaverseConfig, MetaverseSim,
        MigrationRecord, SimulationReport, VmuEntry,
    };
    pub use crate::migration::{
        analytic_aotm_seconds, simulate_precopy_migration, MigrationError, MigrationReport,
        PreCopyConfig,
    };
    pub use crate::mobility::{
        AnyMobility, ConstantVelocity, MobilityModel, PerturbedHighway, Position, RandomWaypoint,
        Velocity,
    };
    pub use crate::radio::{Db, Dbm, LinkBudget, Milliwatts};
    pub use crate::rsu::{Corridor, Rsu, RsuId};
    pub use crate::stats::{percentile_sorted, Summary};
    pub use crate::trace::{Range, Trace, TraceConfig, Trip};
    pub use crate::twin::{TwinDataProfile, TwinId, VehicularTwin};
    pub use crate::vehicle::{Vehicle, VehicleId};
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_exports_compile() {
        use crate::prelude::*;
        let link = LinkBudget::default();
        assert!(link.spectral_efficiency() > 0.0);
    }
}
