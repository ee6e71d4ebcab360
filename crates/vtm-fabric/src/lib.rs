//! # vtm-fabric — sharded gateway fabric with hot-swap A/B policy routing
//!
//! One [`Gateway`](vtm_gateway::Gateway) funnels every quote through one
//! ingress queue and one frozen policy — a global bottleneck. The
//! fabric removes it: N fully independent gateway shards per policy arm,
//! with all routing done by pure hashes of the session id, so capacity
//! grows linearly with shards and no coordination exists on the quote
//! path.
//!
//! * [`Fabric`] — the front: deterministic session→arm→shard routing,
//!   atomic [`Fabric::promote`] hot-swap, concurrent [`Fabric::shutdown`]
//!   drain,
//! * [`ArmSpec`] / [`parse_arms`] — named policy arms with hash-stable
//!   percentage assignment (`"a=90,b=10"`),
//! * [`FabricSnapshot`] / [`ArmSnapshot`] — per-arm quotes, latency
//!   histograms, fault counters and revenue-proxy sums next to
//!   every per-shard gateway snapshot, exposed through
//!   [`FabricSnapshot::register_metrics`].
//!
//! The determinism contract extends the gateway's: a 1-shard/1-arm fabric
//! is bit-identical to a bare gateway on the same request stream, and with
//! journaling on, each shard's journal replays to that shard's
//! byte-identical service state
//! ([`vtm_journal::replay_fabric`] merges the digests).
//!
//! # Quickstart
//!
//! ```
//! use vtm_fabric::{ArmSpec, Fabric, FabricConfig};
//! use vtm_rl::env::ActionSpace;
//! use vtm_rl::ppo::{PpoAgent, PpoConfig};
//! use vtm_serve::{QuoteRequest, ServiceConfig};
//!
//! // A frozen policy (8-dim observations: history 4 × 2 features).
//! let snapshot = PpoAgent::new(
//!     PpoConfig::new(8, 1).with_seed(7),
//!     ActionSpace::scalar(5.0, 50.0),
//! )
//! .snapshot();
//!
//! // Two shards, 90/10 A/B split.
//! let config = FabricConfig::new(2, ServiceConfig::new(4, 2))
//!     .with_arms(vec![ArmSpec::new("control", 90), ArmSpec::new("candidate", 10)]);
//! let fabric = Fabric::start(&snapshot, config).unwrap();
//!
//! let quote = fabric.quote(QuoteRequest::new(42, vec![0.2, 0.4])).unwrap();
//! assert!(quote.price() >= 5.0 && quote.price() <= 50.0);
//!
//! // Promote the candidate arm onto a new snapshot, then drain.
//! fabric.promote("candidate", &snapshot).unwrap();
//! let report = fabric.shutdown();
//! assert_eq!(report.arms.len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arms;
mod fabric;
mod telemetry;

pub use arms::{parse_arms, ArmSpec, ArmSpecError, ArmTable};
pub use fabric::{Fabric, FabricConfig, FabricError, FabricTicket};
pub use telemetry::{ArmSnapshot, FabricSnapshot, ShardTelemetry};
