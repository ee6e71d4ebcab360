//! # vtm-serve — batched online inference for trained pricing policies
//!
//! The last stage of the policy lifecycle (train → checkpoint → load →
//! **serve**): the MSP trains its DRL incentive mechanism offline, freezes
//! the policy into a [`PolicySnapshot`](vtm_rl::snapshot::PolicySnapshot)
//! checkpoint, and then quotes migration prices online, every pricing round,
//! to many concurrent VMU sessions at once.
//!
//! The centrepiece is [`PricingService`]:
//!
//! * **frozen policy** — only the snapshot's actor network (plus the optional
//!   observation normalizer) is loaded; serving never mutates weights;
//! * **one bounded LRU store** — each VMU session keeps its own rolling
//!   observation history in the service's [`SessionStore`], whose capacity
//!   (LRU eviction on a logical clock) keeps a fleet of distinct VMU ids
//!   from exhausting memory. A session's state is its feature window, and
//!   pricing writes nothing back into it;
//! * **batched forward** — [`PricingService::quote_batch`] prices a whole
//!   round of requests with *one* actor matrix forward pass
//!   ([`vtm_nn::mlp::Mlp::forward_rows`]) instead of one row-vector pass per
//!   request, which is where the serving throughput comes from (the
//!   `serve-bench` experiment measures batched vs per-request quotes/s);
//! * **ordered state, pure pricing** — a quote is two steps:
//!   [`PricingService::advance_sessions`] appends each request's block to
//!   its session in request order and returns the observation rows, and
//!   [`PricingService::price_rows`] prices rows without touching state.
//!   A caller with many threads runs the first under one lock and the
//!   second in parallel;
//! * **deterministic quotes** — every quote is the squashed Gaussian mean,
//!   so identical request streams produce identical prices, however the
//!   stream is sliced into batches.
//!
//! # Example
//!
//! ```
//! use vtm_rl::env::ActionSpace;
//! use vtm_rl::ppo::{PpoAgent, PpoConfig};
//! use vtm_serve::{PricingService, QuoteRequest, ServiceConfig};
//!
//! // A freshly initialised policy stands in for a trained checkpoint.
//! let agent = PpoAgent::new(PpoConfig::new(8, 1).with_seed(1), ActionSpace::scalar(5.0, 50.0));
//! let service =
//!     PricingService::from_snapshot(&agent.snapshot(), ServiceConfig::new(4, 2)).unwrap();
//! let quotes = service
//!     .quote_batch(&[
//!         QuoteRequest::new(7, vec![0.5, 0.2]),
//!         QuoteRequest::new(9, vec![0.1, 0.9]),
//!     ])
//!     .unwrap();
//! assert_eq!(quotes.len(), 2);
//! assert!(quotes[0].price() >= 5.0 && quotes[0].price() <= 50.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod service;
mod session;
mod store;

pub use service::{
    AdvancedRow, Precision, PricingService, Quote, QuoteRequest, ServeError, ServiceConfig,
    ServiceStats, SharedPolicy,
};
pub use session::Session;
pub use store::{SessionStore, StoreStats};
