//! # vtm — learning-based incentive mechanism for vehicular twin migration
//!
//! Facade crate of the reproduction of *"Learning-based Incentive Mechanism
//! for Task Freshness-aware Vehicular Twin Migration"* (ICDCS 2023,
//! arXiv:2309.04929). It re-exports the workspace crates so that downstream
//! users need a single dependency:
//!
//! * [`core`] — AoTM, the Stackelberg game, the DRL incentive
//!   mechanism and the baseline pricing schemes (the paper's contribution),
//! * [`sim`] — the vehicular-metaverse simulator substrate
//!   (mobility, RSUs, channel, pre-copy live migration),
//! * [`rl`] — the PPO reinforcement-learning substrate, including
//!   the deterministic parallel vectorized rollout engine, the builder-style
//!   trainer and versioned policy snapshots,
//! * [`serve`] — the batched online inference layer serving price quotes
//!   from frozen policy checkpoints,
//! * [`gateway`] — the concurrent online pricing gateway (dynamic
//!   micro-batching, admission control, latency/throughput telemetry),
//! * [`fabric`] — the sharded gateway fabric (deterministic session-hash
//!   routing across independent gateway shards, hot-swap A/B policy arms,
//!   per-arm telemetry),
//! * [`journal`] — the audit-grade request journal (append-only
//!   checksummed frames, state snapshots, deterministic replay with crash
//!   recovery),
//! * [`obs`] — the observability substrate (log₂-µs histograms,
//!   per-request stage tracing, the Prometheus/JSON metrics registry),
//! * [`nn`] — the neural-network substrate,
//! * [`game`] — the generic Stackelberg game-theory substrate.
//!
//! # Example
//!
//! Solve the paper's two-VMU scenario and compare the complete-information
//! equilibrium price with the greedy baseline:
//!
//! ```
//! use vtm::prelude::*;
//!
//! let config = ExperimentConfig::paper_two_vmus();
//! let game = AotmStackelbergGame::from_config(&config);
//! let equilibrium = game.closed_form_equilibrium();
//!
//! let mut greedy = GreedyPricing::new(0, 1.0);
//! let utilities = run_scheme(&mut greedy, &game, 200);
//! let greedy_mean = utilities.iter().sum::<f64>() / utilities.len() as f64;
//! assert!(equilibrium.msp_utility >= greedy_mean);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use vtm_core as core;
pub use vtm_fabric as fabric;
pub use vtm_game as game;
pub use vtm_gateway as gateway;
pub use vtm_journal as journal;
pub use vtm_nn as nn;
pub use vtm_obs as obs;
pub use vtm_rl as rl;
pub use vtm_serve as serve;
pub use vtm_sim as sim;

/// One-stop prelude re-exporting the preludes of every workspace crate.
pub mod prelude {
    pub use vtm_core::prelude::*;
    pub use vtm_fabric::{ArmSpec, Fabric, FabricConfig, FabricError, FabricSnapshot};
    pub use vtm_game::prelude::*;
    pub use vtm_gateway::{
        FaultPlan, Gateway, GatewayConfig, GatewayError, QuoteTicket, TelemetrySnapshot,
    };
    pub use vtm_journal::{
        replay_journal, JournalError, JournalWriter, ReplayOptions, ReplayReport, ScanMode,
        StateSnapshot,
    };
    pub use vtm_nn::prelude::*;
    pub use vtm_rl::prelude::*;
    pub use vtm_serve::{PricingService, Quote, QuoteRequest, ServeError, ServiceConfig};
    pub use vtm_sim::prelude::*;
}

/// Training-episode budget for the `examples/`: the value of the
/// `VTM_EXAMPLE_EPISODES` environment variable, or `default` when unset or
/// unparsable. CI sets a small budget so every example runs end-to-end in
/// seconds without bit-rotting.
pub fn example_episodes(default: usize) -> usize {
    budget_from_env("VTM_EXAMPLE_EPISODES", default)
}

/// Simulated-duration budget (seconds) for the `examples/`: the value of the
/// `VTM_EXAMPLE_DURATION_S` environment variable, or `default` when unset or
/// unparsable.
pub fn example_duration_s(default: f64) -> f64 {
    match std::env::var("VTM_EXAMPLE_DURATION_S") {
        Ok(v) => v.parse().ok().filter(|&d| d > 0.0).unwrap_or(default),
        Err(_) => default,
    }
}

fn budget_from_env(var: &str, default: usize) -> usize {
    match std::env::var(var) {
        Ok(v) => v.parse().ok().filter(|&n| n > 0).unwrap_or(default),
        Err(_) => default,
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_work() {
        use crate::prelude::*;
        let cfg = ExperimentConfig::paper_two_vmus();
        assert_eq!(cfg.vmus.len(), 2);
        let link = LinkBudget::default();
        assert!(link.spectral_efficiency() > 0.0);
    }

    #[test]
    fn example_budgets_fall_back_to_defaults() {
        // The variables are unset in the test environment.
        assert_eq!(crate::example_episodes(42), 42);
        assert_eq!(crate::example_duration_s(300.0), 300.0);
    }
}
