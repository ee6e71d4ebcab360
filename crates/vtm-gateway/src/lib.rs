//! # vtm-gateway — the concurrent online pricing gateway
//!
//! `vtm-serve`'s [`PricingService`](vtm_serve::PricingService) answers
//! *caller-formed* batches: one thread assembles a round of requests and
//! gets quotes back. A deployed MSP front-end faces the opposite shape —
//! many independent VMU clients, each submitting one request at an
//! arbitrary time, expecting one answer under a latency budget. This crate
//! closes that gap with a gateway whose only threads are its executors
//! (plain `std` threads, `Mutex`/`Condvar` and atomics — no async runtime):
//!
//! * **dynamic micro-batching** — each executor takes its own batch off
//!   the ingress queue, flushing on `max_batch` *or* `max_delay` after the
//!   oldest queued request was submitted, whichever comes first; under load
//!   batches fill instantly (throughput), under trickle traffic the
//!   deadline caps added latency;
//! * **executor pool** — `N` executor threads share one frozen
//!   `Arc<PricingService>`. Each applies its batch in one serial step
//!   ([`advance_sessions`](vtm_serve::PricingService::advance_sessions),
//!   under an apply lock, in ingress order) and then prices it in parallel
//!   with the others ([`price_rows`](vtm_serve::PricingService::price_rows));
//! * **admission control** — at most `queue_capacity` requests may be in
//!   flight; submissions beyond that are rejected immediately with
//!   [`GatewayError::Overloaded`] (backpressure) instead of growing queues
//!   without bound;
//! * **bounded sessions** — the underlying service's one bounded LRU
//!   [`SessionStore`](vtm_serve::SessionStore) evicts the
//!   least-recently-touched session at capacity, so a million distinct VMU
//!   ids cannot exhaust memory;
//! * **telemetry** — atomic counters plus fixed-bucket log-scale
//!   histograms yield p50/p95/p99 latency, queue depth, batch-size
//!   distribution and reject counts as a [`TelemetrySnapshot`], with no
//!   lock on the request path;
//! * **stage tracing** — with [`GatewayConfig::with_tracing`], 1-in-N
//!   sampled requests carry a `Copy` trace record through the pipeline,
//!   decomposing end-to-end latency into admission / queue-wait /
//!   batch-form / inference / resolve stages
//!   ([`TelemetrySnapshot::stages`], [`Gateway::trace_records`]); a
//!   logical-clock mode makes the decomposition bit-reproducible in tests
//!   (see `docs/OBSERVABILITY.md`).
//!
//! # Fault model
//!
//! Executors price batches under `catch_unwind`, so a panicked batch fails
//! only its own tickets ([`GatewayError::ExecutorFailed`]) and its executor
//! goes on to the next batch. Requests can carry deadlines
//! ([`GatewayConfig::with_default_deadline`]) — executors expire stale
//! work when they flush a batch and [`QuoteTicket::wait`] stops blocking
//! at the deadline. A request that expires, or whose pricing panics, has
//! already advanced its session: it loses its quote, never its place in
//! the session history. Journal appends get bounded retry-with-backoff;
//! an append that still fails rejects the request, un-admitted
//! (fail-stop). All of it is testable deterministically: a seeded
//! [`FaultPlan`] ([`GatewayConfig::with_faults`]) injects executor panics,
//! journal i/o errors and artificial batch latency at exact, reproducible
//! points.
//!
//! The liveness invariant is structural: every admitted request resolves
//! its ticket exactly once — on completion, failure, expiry or shutdown —
//! so no [`QuoteTicket::wait`] blocks forever under any injected fault.
//!
//! # Determinism contract
//!
//! At any executor count, gateway output for a given request sequence is
//! bit-identical to calling
//! [`PricingService::quote_batch`](vtm_serve::PricingService::quote_batch)
//! on the same sequence, *no matter how the executors happen to slice it
//! into batches*: sessions advance in one serial step, in admission order
//! (single FIFO ingress, apply lock taken before the ingress lock is let
//! go), pricing reads no session state, and quotes depend only on the
//! assembled observation. The admission journal records that same order,
//! so it and its snapshots replay to the live state exactly.
//! `tests/determinism.rs` and `tests/journal_replay.rs` pin this with FNV
//! digests at 1, 2 and 4 executors.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use vtm_gateway::{Gateway, GatewayConfig};
//! use vtm_rl::env::ActionSpace;
//! use vtm_rl::ppo::{PpoAgent, PpoConfig};
//! use vtm_serve::{PricingService, QuoteRequest, ServiceConfig};
//!
//! // A freshly initialised policy stands in for a trained checkpoint.
//! let agent = PpoAgent::new(PpoConfig::new(8, 1).with_seed(1), ActionSpace::scalar(5.0, 50.0));
//! let service = Arc::new(
//!     PricingService::from_snapshot(&agent.snapshot(), ServiceConfig::new(4, 2)).unwrap(),
//! );
//! let gateway = Gateway::start(service, GatewayConfig::default().with_max_batch(8));
//!
//! // Concurrent clients submit independently; each gets its own ticket.
//! let ticket_a = gateway.submit(QuoteRequest::new(7, vec![0.5, 0.2])).unwrap();
//! let ticket_b = gateway.submit(QuoteRequest::new(9, vec![0.1, 0.9])).unwrap();
//! let quote_a = ticket_a.wait().unwrap();
//! assert!(quote_a.price() >= 5.0 && quote_a.price() <= 50.0);
//! assert_eq!(ticket_b.wait().unwrap().session, 9);
//!
//! let stats = gateway.shutdown();
//! assert_eq!(stats.completed, 2);
//! assert_eq!(stats.rejected, 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fault;
mod gateway;
mod telemetry;

pub use fault::FaultPlan;
pub use gateway::{Gateway, GatewayConfig, GatewayError, QuoteTicket};
pub use telemetry::{Telemetry, TelemetrySnapshot, MAX_TRACKED_BATCH};
// Tracing vocabulary, re-exported so gateway users configure tracing
// without a direct vtm-obs dependency.
pub use vtm_obs::{StageBreakdown, StageSnapshot, TraceRecord, TracerConfig};
