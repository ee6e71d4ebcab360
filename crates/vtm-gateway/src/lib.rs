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
//! * **executor pool** — `N` executor threads price their batches against
//!   one shared frozen `Arc<PricingService>` via the zero-copy batch-slice
//!   entry point ([`quote_refs`](vtm_serve::PricingService::quote_refs));
//! * **admission control** — at most `queue_capacity` requests may be in
//!   flight; submissions beyond that are rejected immediately with
//!   [`GatewayError::Overloaded`] (backpressure) instead of growing queues
//!   without bound;
//! * **bounded sessions** — the underlying service's
//!   [`SessionStore`](vtm_serve::SessionStore) bounds per-shard session
//!   state with LRU/TTL eviction, so a million distinct VMU ids cannot
//!   exhaust memory;
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
//! queued work when they flush a batch and [`QuoteTicket::wait`] stops
//! blocking at the deadline. An optional
//! three-state health controller ([`HealthConfig`], Healthy → Shedding →
//! Degraded) sheds load with a computed `retry_after` hint and, when
//! degraded, answers from the service's session-local last-quote cache
//! (quotes marked `degraded`). Journal appends get bounded
//! retry-with-backoff and an explicit [`JournalBypassPolicy`], so a bad
//! disk cannot freeze admission. All of it is testable deterministically:
//! a seeded [`FaultPlan`] ([`GatewayConfig::with_faults`]) injects
//! executor panics, journal i/o errors and artificial batch latency at
//! exact, reproducible points.
//!
//! The liveness invariant is structural: every admitted request resolves
//! its ticket exactly once — on completion, failure, expiry or shutdown —
//! so no [`QuoteTicket::wait`] blocks forever under any injected fault.
//!
//! # Determinism contract
//!
//! With a **single executor** and **greedy** inference, gateway output for
//! a given request sequence is bit-identical to calling
//! [`PricingService::quote_batch`](vtm_serve::PricingService::quote_batch)
//! on the same sequence, *no matter how the executor happens to slice it
//! into batches*: per-session history updates apply in submission order
//! (single FIFO ingress), batch assembly never changes a forward pass's
//! row values, and greedy quotes depend only on the assembled observation.
//! `tests/determinism.rs` pins this with FNV digests.
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
mod health;
mod telemetry;

pub use fault::FaultPlan;
pub use gateway::{Gateway, GatewayConfig, GatewayError, JournalBypassPolicy, QuoteTicket};
pub use health::{HealthConfig, HealthState};
pub use telemetry::{Telemetry, TelemetrySnapshot, MAX_TRACKED_BATCH};
// Tracing vocabulary, re-exported so gateway users configure tracing
// without a direct vtm-obs dependency.
pub use vtm_obs::{StageBreakdown, StageSnapshot, TraceRecord, TracerConfig};
