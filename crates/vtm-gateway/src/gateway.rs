//! The concurrent pricing gateway: ingress → executor pool → completion
//! handles. Executors form their own micro-batches straight off ingress.
//!
//! ```text
//!  submit(&self, QuoteRequest)            (any number of caller threads)
//!        │  feature check (typed reject, nothing enqueued)
//!        │  admission control: in_flight < queue_capacity or Overloaded
//!        │  journal append (bounded retry, then fail-stop) + enqueue, under
//!        │  the journal lock: frame order is ingress order
//!        ▼
//!  IngressQueue (Mutex<VecDeque> + Condvar, bounded by admission)
//!        │
//!  executor pool (N threads), each taking its own batch under the ingress
//!        │  lock: flush up to max_batch once max_batch are queued, max_delay
//!        │  after the head request was submitted, or at close; number the
//!        │  batch in flush order; take the apply lock before letting go
//!        ▼
//!  serial step, under the apply lock: PricingService::advance_sessions
//!        │  appends every taken request to its session in ingress order and
//!        │  captures a due snapshot — session state ≡ the journal prefix
//!        ▼
//!  expire stale deadlines, then PricingService::price_rows under
//!        │  catch_unwind, in parallel across executors — a panicked batch
//!        │  fails only its own tickets and its executor moves on
//!        ▼
//!  QuoteTicket::wait() resolves; telemetry records latency + batch size
//! ```
//!
//! All synchronisation is `std` (`Mutex`/`Condvar`/atomics) — no async
//! runtime, consistent with the dependency-free workspace. The liveness
//! invariant is structural: every admitted request is owned by exactly one
//! [`Pending`], and a `Pending` resolves its ticket on drop if nothing else
//! did, so no [`QuoteTicket::wait`] can block forever — under panics,
//! injected faults or shutdown.

use std::collections::VecDeque;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use vtm_journal::{snapshot_path, JournalOptions, JournalWriter, StateSnapshot};
use vtm_obs::{StageHistograms, TraceRecord, Tracer, TracerConfig};
use vtm_serve::{AdvancedRow, PricingService, Quote, QuoteRequest, ServeError};

use crate::fault::{FaultPlan, FaultState};
use crate::telemetry::{Telemetry, TelemetrySnapshot};

/// Static configuration of a [`Gateway`].
#[derive(Debug, Clone, PartialEq)]
pub struct GatewayConfig {
    /// Flush a forming batch as soon as it holds this many requests.
    pub max_batch: usize,
    /// Flush a forming batch this long after its oldest request was
    /// submitted, even if it is smaller than `max_batch` (the latency
    /// deadline; a delay past the clock's range means no time bound).
    pub max_delay: Duration,
    /// Admission bound: maximum admitted-but-not-yet-completed requests.
    /// Submissions beyond it are rejected with
    /// [`GatewayError::Overloaded`] instead of growing queues without
    /// bound.
    pub queue_capacity: usize,
    /// Executor threads — the gateway's only threads. Each takes its own
    /// batches straight off ingress and prices them.
    pub executors: usize,
    /// Audit journaling: when set, every admitted request is appended to a
    /// fresh on-disk journal *before* it enters the batching pipeline, so
    /// the journal's frame order is exactly the admission order. Executors
    /// apply requests to session state in that order, so at any executor
    /// count the journal (plus its periodic state snapshots) replays to the
    /// service's byte-identical state — see the `vtm-journal` crate.
    pub journal: Option<JournalOptions>,
    /// Per-request completion deadline stamped at admission (`None`, or a
    /// deadline past the clock's range, = no deadline). A request whose
    /// deadline has passed when its batch is flushed still advances its
    /// session, but is not priced ([`GatewayError::DeadlineExceeded`]), and
    /// [`QuoteTicket::wait`] stops blocking at the deadline.
    pub default_deadline: Option<Duration>,
    /// Bounded retries for a failed journal append. Once they are
    /// exhausted the request is rejected with [`GatewayError::Journal`]
    /// and un-admitted (fail-stop).
    pub journal_retries: u32,
    /// Backoff slept before journal append retry `n` (`n * journal_backoff`,
    /// linear). Held under the journal lock so admission order is kept.
    pub journal_backoff: Duration,
    /// Deterministic fault injection for the chaos harness (`None` in
    /// production; see [`FaultPlan`]).
    pub faults: Option<FaultPlan>,
    /// Which fabric shard this gateway is (0 for a standalone gateway).
    /// Purely observational: stamped into [`TelemetrySnapshot::shard`] so a
    /// multi-shard fabric's per-gateway telemetry stays attributable after
    /// aggregation.
    pub shard: usize,
    /// Per-request stage tracing (`None` = off, zero overhead). When set,
    /// 1-in-N sampled requests carry a [`TraceRecord`] through the pipeline
    /// stamping admit → journal-append → enqueue → batch-formed →
    /// execute-start → priced → resolved, published into a lock-free ring
    /// ([`Gateway::trace_records`]) and folded into per-stage histograms
    /// ([`TelemetrySnapshot::stages`]). See `docs/OBSERVABILITY.md`.
    pub tracing: Option<TracerConfig>,
}

impl Default for GatewayConfig {
    /// 32-request batches, a 1 ms flush deadline, 1024 in-flight requests,
    /// one executor, no journaling, no deadlines, 2 journal retries, no
    /// faults.
    fn default() -> Self {
        Self {
            max_batch: 32,
            max_delay: Duration::from_millis(1),
            queue_capacity: 1024,
            executors: 1,
            journal: None,
            default_deadline: None,
            journal_retries: 2,
            journal_backoff: Duration::from_micros(500),
            faults: None,
            shard: 0,
            tracing: None,
        }
    }
}

impl GatewayConfig {
    /// Overrides the batch-size flush threshold (clamped ≥ 1).
    pub fn with_max_batch(mut self, max_batch: usize) -> Self {
        self.max_batch = max_batch.max(1);
        self
    }

    /// Overrides the flush deadline.
    pub fn with_max_delay(mut self, max_delay: Duration) -> Self {
        self.max_delay = max_delay;
        self
    }

    /// Overrides the admission bound (clamped ≥ 1).
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity.max(1);
        self
    }

    /// Overrides the executor thread count (clamped ≥ 1).
    pub fn with_executors(mut self, executors: usize) -> Self {
        self.executors = executors.max(1);
        self
    }

    /// Enables admission journaling (see [`GatewayConfig::journal`]).
    pub fn with_journal(mut self, options: JournalOptions) -> Self {
        self.journal = Some(options);
        self
    }

    /// Stamps every admitted request with a completion deadline.
    pub fn with_default_deadline(mut self, deadline: Duration) -> Self {
        self.default_deadline = Some(deadline);
        self
    }

    /// Overrides the bounded journal-append retry count.
    pub fn with_journal_retries(mut self, retries: u32) -> Self {
        self.journal_retries = retries;
        self
    }

    /// Overrides the linear journal-retry backoff unit.
    pub fn with_journal_backoff(mut self, backoff: Duration) -> Self {
        self.journal_backoff = backoff;
        self
    }

    /// Arms a deterministic fault-injection plan (chaos harness).
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Tags this gateway with its fabric shard id (telemetry attribution).
    pub fn with_shard(mut self, shard: usize) -> Self {
        self.shard = shard;
        self
    }

    /// Enables per-request stage tracing (see [`GatewayConfig::tracing`]).
    pub fn with_tracing(mut self, tracing: TracerConfig) -> Self {
        self.tracing = Some(tracing);
        self
    }
}

/// Typed failure modes of the gateway request path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GatewayError {
    /// Admission control rejected the request: the gateway already holds
    /// `queue_capacity` in-flight requests. The caller should back off and
    /// retry — this is backpressure, not a failure of the service.
    Overloaded {
        /// The admission bound that was hit.
        queue_capacity: usize,
    },
    /// The request's deadline passed before it could be priced (expired
    /// when its batch was flushed — its session still advanced — or
    /// reported by a deadline-aware [`QuoteTicket::wait`]).
    DeadlineExceeded,
    /// The executor pricing this request's batch panicked; only that
    /// batch's requests fail with this error (their sessions advanced), and
    /// the executor goes on to its next batch.
    ExecutorFailed,
    /// The request's feature block has the wrong width for the policy
    /// (checked at submission, before anything is enqueued).
    BadFeatureBlock {
        /// The offending session id.
        session: u64,
        /// Features per round the service expects.
        expected: usize,
        /// Features actually supplied.
        got: usize,
    },
    /// A feature of the request is NaN or infinite (checked at submission,
    /// before admission and the journal).
    NonFiniteFeature {
        /// The offending session id.
        session: u64,
        /// Index of the first non-finite feature in the block.
        index: usize,
    },
    /// The executor-side service call failed for the whole batch
    /// (an internal geometry bug surfaced as a typed error, never a panic).
    Service(String),
    /// The admission journal could not be created or appended to (after
    /// bounded retries). A request rejected with this error was **not**
    /// admitted (its in-flight slot is released) — the journal never
    /// under-records admissions.
    Journal(String),
    /// The request was still queued when shutdown drained the pipeline.
    ShuttingDown,
}

impl fmt::Display for GatewayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GatewayError::Overloaded { queue_capacity } => write!(
                f,
                "gateway overloaded: {queue_capacity} requests already in flight"
            ),
            GatewayError::DeadlineExceeded => write!(f, "request deadline exceeded"),
            GatewayError::ExecutorFailed => {
                write!(f, "executor panicked while pricing the request's batch")
            }
            GatewayError::BadFeatureBlock {
                session,
                expected,
                got,
            } => write!(
                f,
                "session {session}: feature block has {got} features, expected {expected}"
            ),
            GatewayError::NonFiniteFeature { session, index } => {
                write!(f, "session {session}: feature {index} is not finite")
            }
            GatewayError::Service(msg) => write!(f, "service error: {msg}"),
            GatewayError::Journal(msg) => write!(f, "journal error: {msg}"),
            GatewayError::ShuttingDown => write!(f, "gateway is shutting down"),
        }
    }
}

impl std::error::Error for GatewayError {}

/// Shared slot a [`QuoteTicket`] waits on and the pipeline fills.
#[derive(Debug)]
struct TicketState {
    slot: Mutex<TicketSlot>,
    ready: Condvar,
}

/// The slot payload: `resolved` stays true after a waiter takes the result,
/// so the pipeline can tell "already completed" from "result consumed" and
/// never double-counts a completion.
#[derive(Debug, Default)]
struct TicketSlot {
    result: Option<Result<Quote, GatewayError>>,
    resolved: bool,
}

impl TicketState {
    fn new() -> Arc<Self> {
        Arc::new(Self {
            slot: Mutex::new(TicketSlot::default()),
            ready: Condvar::new(),
        })
    }

    /// First resolution wins: returns `true` when this call resolved the
    /// ticket, `false` when it was already resolved (the result is kept).
    fn complete(&self, result: Result<Quote, GatewayError>) -> bool {
        let mut slot = self.slot.lock().expect("ticket poisoned");
        if slot.resolved {
            return false;
        }
        slot.result = Some(result);
        slot.resolved = true;
        drop(slot);
        self.ready.notify_all();
        true
    }
}

/// Per-request completion handle returned by [`Gateway::submit`]: a
/// one-shot future the caller blocks on (or polls) for its quote.
#[derive(Debug)]
pub struct QuoteTicket {
    state: Arc<TicketState>,
    deadline: Option<Instant>,
}

impl QuoteTicket {
    /// Blocks until the quote (or a typed error) is available. With a
    /// configured deadline the wait is bounded: once the deadline passes
    /// without a result, [`GatewayError::DeadlineExceeded`] is returned
    /// (the pipeline still resolves and releases the request's slot on its
    /// own — nothing leaks). A result that is already available is
    /// returned even past the deadline.
    pub fn wait(self) -> Result<Quote, GatewayError> {
        self.wait_until(self.deadline)
            .unwrap_or(Err(GatewayError::DeadlineExceeded))
    }

    /// Blocks up to `timeout` (a timeout past the clock's range waits
    /// without bound); `None` when the quote is not ready in time.
    /// The ticket stays valid and can be waited on again — and if the
    /// request is later expired or failed, the pipeline resolves the
    /// slot with the typed error, so a re-wait always terminates.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Result<Quote, GatewayError>> {
        self.wait_until(Instant::now().checked_add(timeout))
    }

    /// Blocks until the slot holds a result (`Some`) or `deadline` passes
    /// (`None`); no deadline waits without bound.
    fn wait_until(&self, deadline: Option<Instant>) -> Option<Result<Quote, GatewayError>> {
        let mut slot = self.state.slot.lock().expect("ticket poisoned");
        loop {
            if let Some(result) = slot.result.take() {
                return Some(result);
            }
            slot = match deadline {
                None => self.state.ready.wait(slot).expect("ticket poisoned"),
                Some(deadline) => {
                    let now = Instant::now();
                    if now >= deadline {
                        return None;
                    }
                    self.state
                        .ready
                        .wait_timeout(slot, deadline - now)
                        .expect("ticket poisoned")
                        .0
                }
            };
        }
    }

    /// Non-blocking poll; `None` while the quote is still pending.
    pub fn try_take(&self) -> Option<Result<Quote, GatewayError>> {
        self.state
            .slot
            .lock()
            .expect("ticket poisoned")
            .result
            .take()
    }
}

/// One admitted request travelling through the pipeline.
///
/// Owns the liveness invariant: if a `Pending` is dropped anywhere —
/// executor panic, queue teardown, a future bug — without its ticket having
/// been resolved, [`Drop`] resolves it with
/// [`GatewayError::ExecutorFailed`] and releases the admission slot. No
/// waiter can hang on a request the pipeline lost.
struct Pending {
    request: QuoteRequest,
    state: Arc<TicketState>,
    submitted: Instant,
    deadline: Option<Instant>,
    telemetry: Arc<Telemetry>,
    /// The request's in-flight trace record when it was sampled (`Copy`,
    /// stamped in place as the request moves through the pipeline, and
    /// published to the ring only on successful completion).
    trace: Option<TraceRecord>,
}

impl Pending {
    /// Fails the ticket (first resolution wins) and releases the slot.
    fn fail(&self, err: GatewayError) {
        if self.state.complete(Err(err)) {
            self.telemetry.record_failure();
        }
    }

    /// Rolls an admission back entirely: resolves the ticket with `err`
    /// and undoes the submit booking (the request never entered the
    /// pipeline — its journal append failed — so this is an abort, not a
    /// failure).
    fn abort(&self, err: GatewayError) {
        self.state.complete(Err(err));
        self.telemetry.record_abort();
    }
}

impl Drop for Pending {
    fn drop(&mut self) {
        if self.state.complete(Err(GatewayError::ExecutorFailed)) {
            self.telemetry.record_failure();
        }
    }
}

/// The bounded ingress queue (bounded via the shared in-flight gauge, so
/// the bound covers queued *and* executing requests). Executors take their
/// batches straight off it ([`Shared::next_batch`]).
#[derive(Default)]
struct IngressQueue {
    inner: Mutex<IngressInner>,
    not_empty: Condvar,
}

#[derive(Default)]
struct IngressInner {
    queue: VecDeque<Pending>,
    closed: bool,
    /// Flush-order index of the next batch (what fault plans target).
    next_index: u64,
}

impl IngressQueue {
    /// Enqueues an admitted request. The queue closes only in shutdown,
    /// which takes the gateway by `&mut` or by value, so no submission can
    /// race it.
    fn push(&self, pending: Pending) {
        self.inner
            .lock()
            .expect("ingress poisoned")
            .queue
            .push_back(pending);
        self.not_empty.notify_one();
    }

    fn close(&self) {
        self.inner.lock().expect("ingress poisoned").closed = true;
        self.not_empty.notify_all();
    }

    /// Removes and returns everything still queued (shutdown sweep).
    fn drain_all(&self) -> Vec<Pending> {
        let mut inner = self.inner.lock().expect("ingress poisoned");
        inner.queue.drain(..).collect()
    }
}

/// One flushed micro-batch with its flush-order index (the unit fault
/// injection reasons about) and the instant it was taken, against which
/// deadlines are checked.
struct Batch {
    index: u64,
    items: Vec<Pending>,
    taken: Instant,
}

/// State shared by the gateway handle and its executors. The admission
/// counter lives inside [`Telemetry`] (it doubles as the queue-depth
/// gauge), so there is exactly one in-flight count.
struct Shared {
    service: Arc<PricingService>,
    config: GatewayConfig,
    telemetry: Arc<Telemetry>,
    ingress: IngressQueue,
    /// The admission journal, when configured. The mutex is held across
    /// `append` *and* the ingress push, so on-disk frame order is exactly
    /// the order requests entered the pipeline.
    journal: Option<Mutex<JournalWriter>>,
    /// The apply lock, around the serial step. An executor takes it before
    /// it lets go of the ingress lock, so sessions advance in exactly the
    /// order requests left ingress: the journal's frame order. It counts
    /// the requests applied, the journal position of a snapshot.
    applied: Mutex<u64>,
    /// Armed fault-injection plan (chaos harness), if any.
    faults: Option<FaultState>,
    /// The stage tracer, when [`GatewayConfig::tracing`] is set.
    tracer: Option<Tracer>,
    /// Per-stage histograms fed from sampled traces at completion time.
    stages: StageHistograms,
    /// Per-gateway admission counter: the `seq` half of each request's
    /// stable trace id (`trace_id(session, admission_seq)`).
    admit_seq: AtomicU64,
}

impl Shared {
    /// A tracer-clock timestamp, or 0 when tracing is off. Only called on
    /// paths that already hold a sampled trace record, so the logical
    /// clock is not advanced by untraced requests.
    fn trace_now(&self) -> u64 {
        self.tracer.as_ref().map_or(0, Tracer::now_us)
    }

    /// An executor's blocking batch take: waits until the queued requests
    /// are due — `max_batch` of them, `max_delay` after the head request
    /// was submitted, or ingress closed — then flushes up to `max_batch`.
    /// Requests stay queued until that flush, so two executors never split
    /// one forming batch; the flush-order index is assigned under the same
    /// lock, and the apply lock is taken before it is released. `None`
    /// once ingress is closed and drained.
    fn next_batch(&self) -> Option<(Batch, MutexGuard<'_, u64>)> {
        let max_batch = self.config.max_batch;
        let ingress = &self.ingress;
        let mut inner = ingress.inner.lock().expect("ingress poisoned");
        let taken = loop {
            let Some(head) = inner.queue.front().map(|p| p.submitted) else {
                if inner.closed {
                    return None;
                }
                inner = ingress.not_empty.wait(inner).expect("ingress poisoned");
                continue;
            };
            let now = Instant::now();
            if inner.queue.len() < max_batch && !inner.closed {
                // A `max_delay` past the clock's range means no time bound.
                match head.checked_add(self.config.max_delay) {
                    Some(flush_at) if flush_at <= now => {}
                    Some(flush_at) => {
                        let waited = ingress.not_empty.wait_timeout(inner, flush_at - now);
                        inner = waited.expect("ingress poisoned").0;
                        continue;
                    }
                    None => {
                        inner = ingress.not_empty.wait(inner).expect("ingress poisoned");
                        continue;
                    }
                }
            }
            break now;
        };
        let take = inner.queue.len().min(max_batch);
        let mut items: Vec<Pending> = inner.queue.drain(..take).collect();
        let index = inner.next_index;
        inner.next_index += 1;
        let applied = self.applied.lock().expect("apply lock poisoned");
        drop(inner);
        // One batch-formed stamp shared by every traced request in the
        // batch (they left the queue together); untraced batches never
        // touch the tracer clock.
        let mut formed_ts = 0u64;
        for trace in items.iter_mut().filter_map(|p| p.trace.as_mut()) {
            if formed_ts == 0 {
                formed_ts = self.trace_now();
            }
            trace.batch_formed_us = formed_ts;
        }
        let batch = Batch {
            index,
            items,
            taken,
        };
        Some((batch, applied))
    }

    /// The periodic snapshot due once `applied` requests are applied, when
    /// the last `batch` of them crossed a `snapshot_every` boundary.
    /// Called under the apply lock, so the state it captures is exactly
    /// the first `applied` journal frames.
    fn due_snapshot(&self, applied: u64, batch: u64) -> Option<StateSnapshot> {
        let every = self.config.journal.as_ref()?.snapshot_every;
        (every > 0 && applied / every != (applied - batch) / every)
            .then(|| StateSnapshot::capture(&self.service, applied))
    }

    /// Writes a captured snapshot next to the journal. The journal is
    /// pushed to disk first: a snapshot must never claim more frames than
    /// the journal can replay (its frames were appended before they were
    /// enqueued, so they are all in the writer).
    fn save_snapshot(&self, snapshot: &StateSnapshot) {
        let (Some(options), Some(journal)) = (&self.config.journal, &self.journal) else {
            return;
        };
        let synced = journal
            .lock()
            .map(|mut writer| writer.sync().is_ok())
            .unwrap_or(false);
        let path = snapshot_path(&options.path, snapshot.frames_applied);
        if synced && snapshot.save_to(path).is_ok() {
            self.telemetry.record_snapshot();
        }
    }
}

/// The concurrent online pricing gateway. See the crate docs for the
/// design, determinism contract and fault model.
pub struct Gateway {
    shared: Arc<Shared>,
    executors: Vec<JoinHandle<()>>,
}

impl fmt::Debug for Gateway {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Gateway")
            .field("config", &self.shared.config)
            .finish()
    }
}

impl Gateway {
    /// Starts a gateway over a shared frozen [`PricingService`]: spawns
    /// `config.executors` executor threads, the gateway's only threads.
    ///
    /// # Panics
    ///
    /// Panics when a configured admission journal cannot be created; use
    /// [`Gateway::try_start`] to handle that as a typed error.
    pub fn start(service: Arc<PricingService>, config: GatewayConfig) -> Self {
        Self::try_start(service, config).expect("gateway start failed")
    }

    /// Starts a gateway, surfacing journal-creation failures as
    /// [`GatewayError::Journal`] instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns [`GatewayError::Journal`] when `config.journal` is set and
    /// the journal file cannot be created.
    pub fn try_start(
        service: Arc<PricingService>,
        config: GatewayConfig,
    ) -> Result<Self, GatewayError> {
        let journal = match &config.journal {
            Some(options) => Some(Mutex::new(
                options
                    .open()
                    .map_err(|e| GatewayError::Journal(e.to_string()))?,
            )),
            None => None,
        };
        let executor_count = config.executors.max(1);
        let faults = config.faults.clone().map(FaultState::new);
        let tracer = config.tracing.map(Tracer::new);
        let shared = Arc::new(Shared {
            service,
            config,
            telemetry: Arc::new(Telemetry::new()),
            ingress: IngressQueue::default(),
            journal,
            applied: Mutex::new(0),
            faults,
            tracer,
            stages: StageHistograms::new(),
            admit_seq: AtomicU64::new(0),
        });
        let executors = (0..executor_count)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("vtm-gateway-executor-{i}"))
                    .spawn(move || executor_loop(&shared))
                    .expect("spawn executor")
            })
            .collect();
        Ok(Self { shared, executors })
    }

    /// The gateway configuration.
    pub fn config(&self) -> &GatewayConfig {
        &self.shared.config
    }

    /// The underlying pricing service.
    pub fn service(&self) -> &PricingService {
        &self.shared.service
    }

    /// Submits one quote request; returns immediately with a completion
    /// handle. Malformed requests and overload are rejected here, before
    /// anything is enqueued.
    ///
    /// # Errors
    ///
    /// [`GatewayError::BadFeatureBlock`] for a wrong feature width,
    /// [`GatewayError::NonFiniteFeature`] for a NaN or infinite feature,
    /// [`GatewayError::Overloaded`] when `queue_capacity` requests are
    /// already in flight (backpressure — retry later), and
    /// [`GatewayError::Journal`] when the journal append still fails after
    /// its retries.
    pub fn submit(&self, request: QuoteRequest) -> Result<QuoteTicket, GatewayError> {
        // The service's own check, so a request the gateway admits is one
        // the service prices: no slot is taken and no frame is written for
        // a malformed one.
        self.shared
            .service
            .check_request(&request)
            .map_err(|err| match err {
                ServeError::BadFeatureBlock {
                    session,
                    expected,
                    got,
                } => GatewayError::BadFeatureBlock {
                    session,
                    expected,
                    got,
                },
                ServeError::NonFiniteFeature { session, index } => {
                    GatewayError::NonFiniteFeature { session, index }
                }
                other => GatewayError::Service(other.to_string()),
            })?;
        // Admission control: atomically claim an in-flight slot or reject.
        let capacity = self.shared.config.queue_capacity as u64;
        if !self.shared.telemetry.try_admit(capacity) {
            self.shared.telemetry.record_reject();
            return Err(GatewayError::Overloaded {
                queue_capacity: self.shared.config.queue_capacity,
            });
        }
        // Book the submission BEFORE enqueueing: once the request is in the
        // queue an executor may complete it at any moment, and a snapshot
        // must never observe completed > submitted.
        self.shared.telemetry.record_submit();
        // Sampling decision: every admission takes one seq (so trace ids
        // are stable admission identities), but only sampled requests carry
        // a record — untraced requests never touch the tracer clock.
        let trace = self.shared.tracer.as_ref().and_then(|tracer| {
            let seq = self.shared.admit_seq.fetch_add(1, Ordering::Relaxed);
            let mut record = TraceRecord::new(request.session, seq);
            tracer.sampled(record.trace_id).then(|| {
                record.admit_us = tracer.now_us();
                record
            })
        });
        let state = TicketState::new();
        let submitted = Instant::now();
        // A deadline past the clock's range is no deadline.
        let deadline = self
            .shared
            .config
            .default_deadline
            .and_then(|d| submitted.checked_add(d));
        let mut pending = Pending {
            request,
            state: Arc::clone(&state),
            submitted,
            deadline,
            telemetry: Arc::clone(&self.shared.telemetry),
            trace,
        };
        // Journal the admission and enqueue under ONE lock, so the on-disk
        // frame order is exactly the order requests enter the pipeline
        // (replay order == admission order). A failed append is retried
        // with bounded backoff; when the retries run out the request is
        // un-admitted, so the journal never under-records what the service
        // applied.
        let writer = match &self.shared.journal {
            Some(journal) => {
                // The journal stage is stamped around the whole append
                // critical section (lock wait + bounded retries included) —
                // the writer-internal `AppendLatency` isolates the pure
                // append cost for comparison.
                if let Some(trace) = pending.trace.as_mut() {
                    trace.journal_start_us = self.shared.trace_now();
                }
                let mut writer = journal.lock().expect("journal poisoned");
                let mut outcome = self.journal_append(&mut writer, &pending.request);
                let mut attempt = 0u32;
                while outcome.is_err() && attempt < self.shared.config.journal_retries {
                    attempt += 1;
                    self.shared.telemetry.record_journal_retry();
                    std::thread::sleep(self.shared.config.journal_backoff * attempt);
                    outcome = self.journal_append(&mut writer, &pending.request);
                }
                match outcome {
                    Ok(bytes) => self.shared.telemetry.record_journal_append(bytes),
                    Err(message) => {
                        drop(writer);
                        pending.abort(GatewayError::Journal(message.clone()));
                        return Err(GatewayError::Journal(message));
                    }
                }
                if let Some(trace) = pending.trace.as_mut() {
                    trace.journal_end_us = self.shared.trace_now();
                }
                Some(writer)
            }
            None => None,
        };
        if let Some(trace) = pending.trace.as_mut() {
            trace.enqueue_us = self.shared.trace_now();
        }
        self.shared.ingress.push(pending);
        drop(writer);
        Ok(QuoteTicket { state, deadline })
    }

    /// One journal append attempt, with the fault-injection hook in front
    /// (an injected error consumes the attempt without writing a frame).
    fn journal_append(
        &self,
        writer: &mut JournalWriter,
        request: &QuoteRequest,
    ) -> Result<u64, String> {
        if let Some(faults) = &self.shared.faults {
            if let Some(kind) = faults.next_journal_append() {
                return Err(std::io::Error::from(kind).to_string());
            }
        }
        let before = writer.bytes_written();
        writer.append(request).map_err(|e| e.to_string())?;
        Ok(writer.bytes_written() - before)
    }

    /// Convenience: submit and block for the quote.
    ///
    /// # Errors
    ///
    /// Same as [`Gateway::submit`], plus any executor-side failure.
    pub fn quote(&self, request: QuoteRequest) -> Result<Quote, GatewayError> {
        self.submit(request)?.wait()
    }

    /// A point-in-time telemetry snapshot (counters, queue depth,
    /// latency/batch-size histograms with p50/p95/p99, plus the
    /// per-stage decomposition and journal append cost when available).
    pub fn telemetry(&self) -> TelemetrySnapshot {
        self.enrich_snapshot(self.shared.telemetry.snapshot())
    }

    /// Stamps the service/tracing context onto a raw counter
    /// snapshot (shared by [`Gateway::telemetry`] and [`Gateway::shutdown`]).
    fn enrich_snapshot(&self, mut snapshot: TelemetrySnapshot) -> TelemetrySnapshot {
        snapshot.precision = self.shared.service.config().precision.name();
        snapshot.shard = self.shared.config.shard;
        if self.shared.tracer.is_some() {
            snapshot.stages = Some(self.shared.stages.snapshot());
        }
        if let Some(journal) = &self.shared.journal {
            if let Ok(writer) = journal.lock() {
                let append = writer.append_latency();
                snapshot.journal_append_mean_us = append.mean_us();
                snapshot.journal_append_max_us = append.max_us;
            }
        }
        snapshot
    }

    /// The sampled trace records currently in the tracer's ring, sorted by
    /// admit time (empty when tracing is disabled). Only successfully
    /// completed requests are published — expired and failed requests
    /// never reach the ring.
    pub fn trace_records(&self) -> Vec<TraceRecord> {
        self.shared
            .tracer
            .as_ref()
            .map_or_else(Vec::new, Tracer::records)
    }

    /// `(published, dropped)` trace-ring counters (both 0 when tracing is
    /// disabled): how many sampled records reached the ring and how many
    /// were lost to writer-side slot contention.
    pub fn trace_counters(&self) -> (u64, u64) {
        self.shared
            .tracer
            .as_ref()
            .map_or((0, 0), |t| (t.published(), t.dropped()))
    }

    /// Stops accepting new requests, prices everything still queued (work
    /// that can no longer be priced fails with
    /// [`GatewayError::ShuttingDown`] instead of leaking its ticket), joins
    /// the executor threads and returns the final telemetry snapshot.
    /// Called implicitly on drop.
    pub fn shutdown(mut self) -> TelemetrySnapshot {
        self.shutdown_inner();
        self.enrich_snapshot(self.shared.telemetry.snapshot())
    }

    fn shutdown_inner(&mut self) {
        // A closed ingress makes every executor flush what is still queued
        // and then exit.
        self.shared.ingress.close();
        for handle in self.executors.drain(..) {
            let _ = handle.join();
        }
        // Final sweep: every executor is gone, so anything still queued can
        // never be priced — fail it with a typed error instead of leaking
        // the tickets (and their admission slots).
        for pending in self.shared.ingress.drain_all() {
            pending.fail(GatewayError::ShuttingDown);
        }
        // Make the journal crash-durable before reporting shutdown complete:
        // every admitted request has been processed (or typed-failed), so
        // the synced journal replays to exactly what the journal recorded.
        if let Some(journal) = &self.shared.journal {
            if let Ok(mut writer) = journal.lock() {
                let _ = writer.sync();
            }
        }
    }
}

impl Drop for Gateway {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// Executor thread: takes batches straight off ingress, applies and prices
/// them until ingress is closed and drained. It holds no state between
/// batches, so a panicked batch does not end it.
fn executor_loop(shared: &Shared) {
    while let Some((batch, applied)) = shared.next_batch() {
        if let Some((batch, rows)) = apply_batch(shared, batch, applied) {
            run_batch(shared, batch, &rows);
        }
    }
}

/// The serial step, under the apply lock `applied`: advances every session
/// of the batch in ingress order and captures a due snapshot, then lets
/// the lock go. Requests whose deadline had passed when the batch was
/// taken are expired here: they keep their place in the session history
/// but are not priced. Returns what is left to price, with its rows.
fn apply_batch(
    shared: &Shared,
    mut batch: Batch,
    mut applied: MutexGuard<'_, u64>,
) -> Option<(Batch, Vec<AdvancedRow>)> {
    let refs: Vec<&QuoteRequest> = batch.items.iter().map(|p| &p.request).collect();
    let advanced = catch_unwind(AssertUnwindSafe(|| shared.service.advance_sessions(&refs)));
    let count = batch.items.len() as u64;
    *applied += count;
    let snapshot = shared.due_snapshot(*applied, count);
    drop(applied);
    if let Some(snapshot) = snapshot {
        shared.save_snapshot(&snapshot);
    }
    let rows = match advanced {
        Ok(Ok(rows)) => rows,
        // Feature blocks were checked at submit time, so this is an
        // internal error; fail the whole batch with it.
        Ok(Err(err)) => {
            fail_batch(&batch.items, GatewayError::Service(err.to_string()));
            return None;
        }
        Err(_) => {
            shared.telemetry.record_panic();
            fail_batch(&batch.items, GatewayError::ExecutorFailed);
            return None;
        }
    };
    let taken = batch.taken;
    let mut live_rows = Vec::with_capacity(rows.len());
    let mut rows = rows.into_iter();
    batch.items.retain(|pending| {
        let row = rows.next().expect("one row per request");
        let expired = pending.deadline.is_some_and(|d| taken >= d);
        if !expired {
            live_rows.push(row);
        } else if pending.state.complete(Err(GatewayError::DeadlineExceeded)) {
            pending.telemetry.record_expired();
        }
        !expired
    });
    (!batch.items.is_empty()).then_some((batch, live_rows))
}

/// Fails every ticket of a batch with `err`.
fn fail_batch(items: &[Pending], err: GatewayError) {
    for pending in items {
        pending.fail(err.clone());
    }
}

/// Prices one applied batch and resolves its tickets. Pricing runs under
/// `catch_unwind`: a panic fails only this batch's tickets, whose sessions
/// have already advanced.
fn run_batch(shared: &Shared, mut batch: Batch, rows: &[AdvancedRow]) {
    shared.telemetry.record_batch(batch.items.len());
    if let Some(faults) = &shared.faults {
        if let Some(delay) = faults.batch_delay(batch.index) {
            std::thread::sleep(delay);
        }
    }
    // One execute-start stamp for the whole batch, taken only when the
    // batch actually carries a traced request.
    let execute_ts = if batch.items.iter().any(|p| p.trace.is_some()) {
        shared.trace_now()
    } else {
        0
    };
    if execute_ts > 0 {
        for pending in batch.items.iter_mut() {
            if let Some(trace) = pending.trace.as_mut() {
                trace.execute_start_us = execute_ts;
            }
        }
    }
    let priced = catch_unwind(AssertUnwindSafe(|| {
        if let Some(faults) = &shared.faults {
            if faults.executor_panic(batch.index) {
                panic!("injected executor panic on batch {}", batch.index);
            }
        }
        shared.service.price_rows(rows)
    }));
    match priced {
        Ok(Ok(quotes)) => {
            let processed = batch.items.len();
            // One priced stamp for the whole batch (the forward pass ended
            // for every request at once); resolved is stamped per ticket.
            let priced_ts = if execute_ts > 0 {
                shared.trace_now()
            } else {
                0
            };
            for (mut pending, quote) in batch.items.into_iter().zip(quotes) {
                let latency_us = pending.submitted.elapsed().as_micros() as u64;
                if let Some(trace) = pending.trace.as_mut() {
                    trace.priced_us = priced_ts;
                    trace.resolved_us = shared.trace_now();
                    trace.set_batch(processed, shared.config.shard);
                    shared.stages.record(trace);
                    if let Some(tracer) = &shared.tracer {
                        tracer.publish(trace);
                    }
                }
                // Record before completing the ticket: a caller that reads
                // telemetry the instant `wait` returns must already see this
                // completion. The executor owns its batch, so nothing else
                // can have resolved these tickets — `complete` always wins
                // here.
                pending.telemetry.record_completion(latency_us);
                pending.state.complete(Ok(quote));
            }
        }
        Ok(Err(err)) => fail_batch(&batch.items, GatewayError::Service(err.to_string())),
        Err(_) => {
            // The injected (or real) panic fired after the serial step:
            // only this batch's quotes are lost, never its session history.
            shared.telemetry.record_panic();
            fail_batch(&batch.items, GatewayError::ExecutorFailed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_builders_clamp() {
        let config = GatewayConfig::default()
            .with_max_batch(0)
            .with_queue_capacity(0)
            .with_executors(0)
            .with_max_delay(Duration::from_micros(250))
            .with_default_deadline(Duration::from_millis(5))
            .with_journal_retries(3)
            .with_journal_backoff(Duration::from_micros(50));
        assert_eq!(config.max_batch, 1);
        assert_eq!(config.queue_capacity, 1);
        assert_eq!(config.executors, 1);
        assert_eq!(config.max_delay, Duration::from_micros(250));
        assert_eq!(config.default_deadline, Some(Duration::from_millis(5)));
        assert_eq!(config.journal_retries, 3);
        assert_eq!(config.journal_backoff, Duration::from_micros(50));
    }

    #[test]
    fn errors_display() {
        for err in [
            GatewayError::Overloaded { queue_capacity: 4 },
            GatewayError::DeadlineExceeded,
            GatewayError::ExecutorFailed,
            GatewayError::BadFeatureBlock {
                session: 1,
                expected: 2,
                got: 3,
            },
            GatewayError::Service("boom".to_string()),
            GatewayError::Journal("disk".to_string()),
            GatewayError::ShuttingDown,
        ] {
            assert!(!err.to_string().is_empty());
        }
    }

    #[test]
    fn ticket_resolution_is_first_wins() {
        let state = TicketState::new();
        assert!(state.complete(Err(GatewayError::DeadlineExceeded)));
        assert!(!state.complete(Err(GatewayError::ExecutorFailed)));
        let ticket = QuoteTicket {
            state,
            deadline: None,
        };
        assert!(matches!(
            ticket.try_take(),
            Some(Err(GatewayError::DeadlineExceeded))
        ));
        // Taken, but still resolved: later completions stay no-ops.
        assert!(!ticket.state.complete(Err(GatewayError::ExecutorFailed)));
        assert!(ticket.try_take().is_none());
    }
}
