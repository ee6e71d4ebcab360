//! The pricing service: a frozen policy plus bounded session state answering
//! quote requests in batches.

use std::fmt;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use vtm_nn::codec::{fnv1a, CodecError, PayloadReader, PayloadWriter};
use vtm_nn::inference::InferenceModel;
use vtm_nn::matrix::ShapeError;
use vtm_nn::mlp::Mlp;
use vtm_rl::env::ActionSpace;
use vtm_rl::running_stat::RunningMeanStd;
use vtm_rl::snapshot::{PolicySnapshot, SnapshotError};

use crate::store::SessionStore;

/// Typed failure modes of the serving layer.
#[derive(Debug)]
pub enum ServeError {
    /// Loading or validating the policy snapshot failed.
    Snapshot(SnapshotError),
    /// The service configuration disagrees with the policy's input geometry.
    GeometryMismatch {
        /// `history_length * features_per_round` from the configuration.
        configured_obs_dim: usize,
        /// The actor network's input width.
        policy_obs_dim: usize,
    },
    /// A request's feature block has the wrong width.
    BadFeatureBlock {
        /// The offending session id.
        session: u64,
        /// Expected features per round.
        expected: usize,
        /// Features actually supplied.
        got: usize,
    },
    /// A request's feature block holds a NaN or an infinity.
    NonFiniteFeature {
        /// The offending session id.
        session: u64,
        /// Index of the first non-finite feature in the block.
        index: usize,
    },
    /// The batched forward pass rejected the assembled observation matrix
    /// (indicates an internal geometry bug, surfaced instead of panicking).
    Forward(ShapeError),
    /// A serialized service-state payload (journal snapshot) is corrupt,
    /// truncated or structurally incompatible with this service.
    State(CodecError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Snapshot(err) => write!(f, "snapshot error: {err}"),
            ServeError::GeometryMismatch {
                configured_obs_dim,
                policy_obs_dim,
            } => write!(
                f,
                "service geometry (obs dim {configured_obs_dim}) does not match the policy \
                 (obs dim {policy_obs_dim})"
            ),
            ServeError::BadFeatureBlock {
                session,
                expected,
                got,
            } => write!(
                f,
                "session {session}: feature block has {got} features, expected {expected}"
            ),
            ServeError::NonFiniteFeature { session, index } => {
                write!(f, "session {session}: feature {index} is not finite")
            }
            ServeError::Forward(err) => write!(f, "batched forward failed: {err}"),
            ServeError::State(err) => write!(f, "state payload error: {err}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Snapshot(err) => Some(err),
            ServeError::Forward(err) => Some(err),
            ServeError::State(err) => Some(err),
            _ => None,
        }
    }
}

impl From<SnapshotError> for ServeError {
    fn from(err: SnapshotError) -> Self {
        ServeError::Snapshot(err)
    }
}

/// Numeric precision of the frozen serving forward pass.
///
/// Training, journal replay and state digests are pinned at double
/// precision across the whole workspace; this knob only selects how the
/// *frozen* actor evaluates observation rows at serving time. The contract
/// — where each mode is allowed and how f32 correctness is verified — is
/// documented in `docs/NUMERICS.md`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Precision {
    /// Reference double-precision path: quotes are bit-identical to the
    /// training-side actor (`Mlp::forward_vec`) and to every determinism
    /// pin from earlier PRs. The default.
    #[default]
    F64,
    /// Quantized fast path: the actor's weights are rounded once, at
    /// service construction, into a structure-of-arrays f32
    /// [`InferenceModel`] and evaluated by fused f32 kernels. Greedy
    /// decisions agree with [`Precision::F64`] within the tested error
    /// bound; observation normalization and the action-space squash stay
    /// f64.
    F32,
}

impl Precision {
    /// Human-readable name (`"f64"` / `"f32"`), used by bench JSON output.
    pub fn name(self) -> &'static str {
        match self {
            Precision::F64 => "f64",
            Precision::F32 => "f32",
        }
    }
}

impl fmt::Display for Precision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Static configuration of a [`PricingService`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Observation history length `L` the policy was trained with.
    pub history_length: usize,
    /// Feature-block width per round (e.g. `1 + N` for the static market,
    /// `OBS_FEATURES` for scenario environments).
    pub features_per_round: usize,
    /// Maximum live sessions of the service's one bounded LRU store (`0` =
    /// unbounded). Inserting a new session into a full store evicts its
    /// least-recently-touched session, so a fleet of distinct VMU ids
    /// cannot exhaust memory.
    pub session_capacity: usize,
    /// Worker threads for the batched forward pass (`1` = inline, `0` = one
    /// per core). Chunks of the batch are evaluated on scoped threads;
    /// results are bit-identical for every thread count because
    /// [`Mlp::forward_rows`] is row-independent.
    pub inference_threads: usize,
    /// Forward-pass precision (f64 reference or quantized f32 fast path).
    pub precision: Precision,
}

impl ServiceConfig {
    /// A configuration with unbounded sessions, one inference thread and the
    /// f64 forward pass.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(history_length: usize, features_per_round: usize) -> Self {
        assert!(history_length > 0, "history length must be positive");
        assert!(features_per_round > 0, "feature width must be positive");
        Self {
            history_length,
            features_per_round,
            session_capacity: 0,
            inference_threads: 1,
            precision: Precision::F64,
        }
    }

    /// Overrides the session capacity (`0` = unbounded).
    pub fn with_session_capacity(mut self, capacity: usize) -> Self {
        self.session_capacity = capacity;
        self
    }

    /// Overrides the forward-pass worker-thread count (`0` = one per core).
    pub fn with_inference_threads(mut self, threads: usize) -> Self {
        self.inference_threads = threads;
        self
    }

    /// Overrides the forward-pass precision.
    ///
    /// # Examples
    ///
    /// ```
    /// use vtm_serve::{Precision, ServiceConfig};
    ///
    /// let config = ServiceConfig::new(4, 2).with_precision(Precision::F32);
    /// assert_eq!(config.precision, Precision::F32);
    /// assert_eq!(config.precision.name(), "f32");
    /// ```
    pub fn with_precision(mut self, precision: Precision) -> Self {
        self.precision = precision;
        self
    }
}

/// One round's pricing request for one VMU session: the session id and the
/// newest round's feature block (the service keeps the rolling history).
#[derive(Debug, Clone, PartialEq)]
pub struct QuoteRequest {
    /// Stable session identifier (e.g. the VMU/trip id).
    pub session: u64,
    /// The newest round's observation features for this session.
    pub features: Vec<f64>,
}

impl QuoteRequest {
    /// Creates a request.
    pub fn new(session: u64, features: Vec<f64>) -> Self {
        Self { session, features }
    }
}

/// A priced quote for one session.
#[derive(Debug, Clone, PartialEq)]
pub struct Quote {
    /// The session the quote belongs to.
    pub session: u64,
    /// The quoted action, mapped into the policy's action space (for the
    /// paper's market: one element, the unit migration price).
    pub action: Vec<f64>,
    /// Whether the session's history window was already full (before
    /// warm-up, the observation pads the window with the oldest block).
    pub warmed: bool,
}

impl Quote {
    /// The scalar price (first action dimension).
    pub fn price(&self) -> f64 {
        self.action[0]
    }
}

/// One request after [`PricingService::advance_sessions`] appended its
/// feature block: the session's normalized observation row, ready for
/// [`PricingService::price_rows`]. Only the serial step builds one.
#[derive(Debug)]
pub struct AdvancedRow {
    session: u64,
    observation: Vec<f64>,
    warmed: bool,
}

/// Aggregate serving counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServiceStats {
    /// Live sessions.
    pub sessions: usize,
    /// Requests applied to session state since construction: each one
    /// advanced its session's window, whether or not its quote was then
    /// delivered (a gateway request that expires or whose pricing panics
    /// still counts).
    pub quotes: u64,
    /// Sessions evicted because the store hit capacity.
    pub evicted: u64,
}

impl ServiceStats {
    /// Registers the counters into `registry` under the `vtm_serve_*`
    /// namespace (live sessions as a gauge — it goes down on eviction).
    pub fn register_metrics(
        &self,
        registry: &mut vtm_obs::MetricsRegistry,
        labels: &[(&str, &str)],
    ) {
        registry.gauge(
            "vtm_serve_sessions",
            "Live sessions in the bounded LRU store.",
            labels,
            self.sessions as f64,
        );
        registry.counter(
            "vtm_serve_quotes_total",
            "Requests applied to session state since construction.",
            labels,
            self.quotes,
        );
        registry.counter(
            "vtm_serve_sessions_evicted_total",
            "Sessions evicted because the store hit capacity.",
            labels,
            self.evicted,
        );
    }
}

/// A policy snapshot's frozen *serving side*, validated and fingerprinted
/// once, shareable across many [`PricingService`] instances.
///
/// [`PricingService::from_snapshot`] re-validates the snapshot and re-hashes
/// its canonical byte encoding on every call — fine for one service, wasteful
/// for a sharded fabric that builds one service per gateway shard from the
/// same snapshot. `SharedPolicy` hoists that work: validation and the FNV
/// fingerprint happen once in [`SharedPolicy::from_snapshot`], the actor
/// weights live behind an [`Arc`], and the frozen f32 inference model is
/// converted lazily on first f32 use and then shared. Cloning a
/// `SharedPolicy` or building a service from it copies no weight matrices.
///
/// Services built from the same `SharedPolicy` are indistinguishable from
/// services built directly from the originating snapshot (same fingerprint,
/// bit-identical quotes).
#[derive(Debug, Clone)]
pub struct SharedPolicy {
    actor: Arc<Mlp>,
    /// Lazily-converted frozen f32 actor, shared by every f32 service built
    /// from this policy.
    inference: OnceLock<Arc<InferenceModel>>,
    action_space: ActionSpace,
    obs_normalizer: Option<RunningMeanStd>,
    fingerprint: u64,
}

impl SharedPolicy {
    /// Validates and fingerprints a snapshot's serving side once.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Snapshot`] when the snapshot is internally
    /// inconsistent.
    pub fn from_snapshot(snapshot: &PolicySnapshot) -> Result<Self, ServeError> {
        snapshot.validate()?;
        Ok(Self {
            actor: Arc::new(snapshot.actor.clone()),
            inference: OnceLock::new(),
            action_space: snapshot.action_space.clone(),
            obs_normalizer: snapshot.obs_normalizer.clone(),
            fingerprint: fnv1a(&snapshot.to_bytes()),
        })
    }

    /// FNV-1a fingerprint of the originating snapshot's canonical byte
    /// encoding — identical to what [`PricingService::policy_fingerprint`]
    /// reports for services built from the same snapshot.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The actor network's input width (`history_length *
    /// features_per_round` of any compatible service configuration).
    pub fn obs_dim(&self) -> usize {
        self.actor.input_dim()
    }

    /// The frozen f32 actor, converted on first use and shared thereafter.
    fn inference_model(&self) -> Arc<InferenceModel> {
        Arc::clone(
            self.inference
                .get_or_init(|| Arc::new(InferenceModel::from_mlp(&self.actor))),
        )
    }
}

/// A frozen pricing policy serving batched quote requests over bounded
/// per-session observation state. See the crate docs for the design.
#[derive(Debug)]
pub struct PricingService {
    actor: Arc<Mlp>,
    /// Frozen f32 copy of the actor, converted once at construction time.
    /// `Some` exactly when the configured precision is [`Precision::F32`];
    /// the f64 actor stays resident either way as the reference path (and
    /// as the source for checkpoints/fingerprints).
    inference: Option<Arc<InferenceModel>>,
    action_space: ActionSpace,
    obs_normalizer: Option<RunningMeanStd>,
    config: ServiceConfig,
    store: SessionStore,
    /// Requests applied to session state ([`ServiceStats::quotes`]).
    quotes_served: AtomicU64,
    /// FNV-1a over the originating policy snapshot's canonical byte
    /// encoding — the policy *version* a journal snapshot records, so
    /// replay can refuse to restore state onto the wrong weights.
    policy_fingerprint: u64,
}

impl PricingService {
    /// Builds a service around a policy snapshot's frozen actor side.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Snapshot`] when the snapshot is internally
    /// inconsistent, or [`ServeError::GeometryMismatch`] when
    /// `history_length * features_per_round` differs from the actor's input
    /// width.
    pub fn from_snapshot(
        snapshot: &PolicySnapshot,
        config: ServiceConfig,
    ) -> Result<Self, ServeError> {
        let shared = SharedPolicy::from_snapshot(snapshot)?;
        Self::from_shared(&shared, config)
    }

    /// Builds a service from an already-validated [`SharedPolicy`] without
    /// copying weights or re-hashing the snapshot — the cheap per-shard
    /// construction path of the gateway fabric. Quotes, fingerprints and
    /// state digests are bit-identical to [`PricingService::from_snapshot`]
    /// on the originating snapshot.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::GeometryMismatch`] when `history_length *
    /// features_per_round` differs from the actor's input width.
    pub fn from_shared(policy: &SharedPolicy, config: ServiceConfig) -> Result<Self, ServeError> {
        let configured = config.history_length * config.features_per_round;
        if configured != policy.obs_dim() {
            return Err(ServeError::GeometryMismatch {
                configured_obs_dim: configured,
                policy_obs_dim: policy.obs_dim(),
            });
        }
        let store = SessionStore::new(config.history_length, config.session_capacity);
        let inference = match config.precision {
            Precision::F64 => None,
            Precision::F32 => Some(policy.inference_model()),
        };
        Ok(Self {
            actor: Arc::clone(&policy.actor),
            inference,
            action_space: policy.action_space.clone(),
            obs_normalizer: policy.obs_normalizer.clone(),
            config,
            store,
            quotes_served: AtomicU64::new(0),
            policy_fingerprint: policy.fingerprint,
        })
    }

    /// Loads a checkpoint file written by
    /// [`PolicySnapshot::save_to`] and builds a service around it.
    ///
    /// # Errors
    ///
    /// Returns a typed [`ServeError`] for corrupt/truncated checkpoints and
    /// geometry mismatches — never panics on bad files.
    pub fn load(path: impl AsRef<Path>, config: ServiceConfig) -> Result<Self, ServeError> {
        let snapshot = PolicySnapshot::load_from(path)?;
        Self::from_snapshot(&snapshot, config)
    }

    /// The service configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// The policy's action space.
    pub fn action_space(&self) -> &ActionSpace {
        &self.action_space
    }

    /// Aggregate counters (sessions alive, quotes served, evictions).
    pub fn stats(&self) -> ServiceStats {
        let store = self.store.stats();
        ServiceStats {
            sessions: store.sessions,
            quotes: self.quotes_served.load(Ordering::Relaxed),
            evicted: store.evicted,
        }
    }

    /// FNV-1a fingerprint of the policy snapshot this service was built
    /// from — the "policy version" recorded in journal state snapshots.
    /// Two services quote identically on every request stream whenever
    /// their fingerprints match (the snapshot encoding is canonical).
    pub fn policy_fingerprint(&self) -> u64 {
        self.policy_fingerprint
    }

    /// Serializes the service's complete mutable state (quote counter plus
    /// the canonical [`SessionStore`] payload — see
    /// [`SessionStore::save_payload`]) into a byte payload. Identical
    /// logical state always yields identical bytes, which is what makes
    /// [`PricingService::state_digest`] a meaningful equality witness.
    ///
    /// The caller must quiesce concurrent quoting if the snapshot has to be
    /// consistent with a specific request-stream position.
    pub fn save_state(&self) -> Vec<u8> {
        let mut w = PayloadWriter::new();
        w.write_u64(self.quotes_served.load(Ordering::Relaxed));
        self.store.save_payload(&mut w);
        w.into_bytes()
    }

    /// Replaces the service's mutable state with one captured by
    /// [`PricingService::save_state`] (typically: restore from a journal
    /// snapshot, then replay the journal suffix).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::State`] for corrupt, truncated or padded
    /// payloads and anything else [`SessionStore::restore_payload`] refuses
    /// (a session over capacity or stamped at or after the clock, a feature
    /// block admission would reject) — never panics; the service is left
    /// unchanged on error.
    pub fn restore_state(&self, payload: &[u8]) -> Result<(), ServeError> {
        let mut r = PayloadReader::new(payload);
        let quotes = r.read_u64().map_err(ServeError::State)?;
        self.store
            .restore_payload(&mut r, self.config.features_per_round)
            .map_err(ServeError::State)?;
        self.quotes_served.store(quotes, Ordering::Relaxed);
        Ok(())
    }

    /// FNV-1a digest of [`PricingService::save_state`] — the byte-identical
    /// service-state witness the determinism, crash-recovery and replay
    /// tests compare. Equal digests mean equal session histories, LRU
    /// bookkeeping and serving counters.
    pub fn state_digest(&self) -> u64 {
        fnv1a(&self.save_state())
    }

    fn normalized(&self, obs: Vec<f64>) -> Vec<f64> {
        match &self.obs_normalizer {
            Some(rms) => rms.normalize(&obs),
            None => obs,
        }
    }

    /// Checks one request's feature block: its width, and that every
    /// feature is finite. A NaN or an infinity would enter the session's
    /// history and poison its next quotes, so every quote path (and the
    /// gateway, before it admits or journals a request) rejects it here.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadFeatureBlock`] for a wrong width,
    /// [`ServeError::NonFiniteFeature`] for a NaN or infinite feature.
    pub fn check_request(&self, request: &QuoteRequest) -> Result<(), ServeError> {
        let expected = self.config.features_per_round;
        if request.features.len() != expected {
            return Err(ServeError::BadFeatureBlock {
                session: request.session,
                expected,
                got: request.features.len(),
            });
        }
        match request.features.iter().position(|f| !f.is_finite()) {
            Some(index) => Err(ServeError::NonFiniteFeature {
                session: request.session,
                index,
            }),
            None => Ok(()),
        }
    }

    /// The serial step: checks every request, then appends each feature
    /// block to its session in request order (under the store's one lock),
    /// counts the requests as applied and returns each request's
    /// normalized observation row. A rejected batch changes no state.
    /// Session state is a function of the order in which requests reach
    /// this step, so a caller serving one stream from several threads runs
    /// it under one lock and leaves [`PricingService::price_rows`] outside.
    ///
    /// # Errors
    ///
    /// Returns a typed [`ServeError`] for malformed feature blocks
    /// ([`PricingService::check_request`]).
    pub fn advance_sessions(
        &self,
        requests: &[&QuoteRequest],
    ) -> Result<Vec<AdvancedRow>, ServeError> {
        for req in requests {
            self.check_request(req)?;
        }
        let history = self.config.history_length;
        let features = self.config.features_per_round;
        let mut rows: Vec<AdvancedRow> = requests
            .iter()
            .map(|req| AdvancedRow {
                session: req.session,
                observation: Vec::new(),
                warmed: false,
            })
            .collect();
        let ids: Vec<u64> = requests.iter().map(|r| r.session).collect();
        self.store.touch(&ids, |idx, session| {
            session.push(requests[idx].features.clone(), history);
            let row = &mut rows[idx];
            row.warmed = session.warmed(history);
            row.observation = self.normalized(session.observation(history, features));
        });
        self.quotes_served
            .fetch_add(requests.len() as u64, Ordering::Relaxed);
        Ok(rows)
    }

    /// Evaluates one contiguous chunk of observation rows through the
    /// configured precision's forward path. Row-independent, so chunking
    /// (and therefore the inference-thread count) never changes results.
    fn forward_chunk(&self, chunk: &[AdvancedRow]) -> Result<Vec<Vec<f64>>, ShapeError> {
        let refs: Vec<&[f64]> = chunk.iter().map(|row| row.observation.as_slice()).collect();
        match &self.inference {
            Some(model) => model.forward_rows(&refs),
            None => {
                let means = self.actor.forward_rows(&refs)?;
                Ok((0..chunk.len()).map(|i| means.row(i).to_vec()).collect())
            }
        }
    }

    /// Batched (and optionally multi-threaded) actor evaluation: one matrix
    /// forward pass per chunk instead of one row-vector pass per request.
    fn forward_means(&self, rows: &[AdvancedRow]) -> Result<Vec<Vec<f64>>, ServeError> {
        let threads = match self.config.inference_threads {
            0 => std::thread::available_parallelism().map_or(1, usize::from),
            t => t,
        }
        .min(rows.len())
        .max(1);
        if threads == 1 {
            return self.forward_chunk(rows).map_err(ServeError::Forward);
        }
        let chunk_size = rows.len().div_ceil(threads);
        let chunks: Vec<Result<Vec<Vec<f64>>, ShapeError>> = std::thread::scope(|scope| {
            let handles: Vec<_> = rows
                .chunks(chunk_size)
                .map(|chunk| scope.spawn(move || self.forward_chunk(chunk)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("inference worker panicked"))
                .collect()
        });
        let mut means = Vec::with_capacity(rows.len());
        for chunk in chunks {
            means.extend(chunk.map_err(ServeError::Forward)?);
        }
        Ok(means)
    }

    /// The pure step: prices rows the serial step built, with one batched
    /// actor forward pass per inference-thread chunk and the action-space
    /// squash. It reads no session state, so any number of threads may
    /// price at once, and any subset of a step's rows prices to the same
    /// quotes.
    ///
    /// # Errors
    ///
    /// [`ServeError::Forward`] if the forward pass rejects the rows (an
    /// internal geometry bug).
    pub fn price_rows(&self, rows: &[AdvancedRow]) -> Result<Vec<Quote>, ServeError> {
        let means = self.forward_means(rows)?;
        Ok(rows
            .iter()
            .zip(means)
            .map(|(row, mean)| Quote {
                session: row.session,
                action: self.action_space.squash(&mean),
                warmed: row.warmed,
            })
            .collect())
    }

    /// Prices a whole round of requests with **one** batched actor forward
    /// pass per inference-thread chunk. Results are identical to calling
    /// [`PricingService::quote_one`] per request in order (each output row
    /// of [`Mlp::forward_rows`] depends only on its own input row, and
    /// chunking is row-independent); the batch is simply much faster, which
    /// is the point of the serving layer.
    ///
    /// # Errors
    ///
    /// Returns a typed [`ServeError`] for malformed feature blocks
    /// ([`PricingService::check_request`]); an empty batch yields an empty
    /// quote list.
    pub fn quote_batch(&self, requests: &[QuoteRequest]) -> Result<Vec<Quote>, ServeError> {
        let refs: Vec<&QuoteRequest> = requests.iter().collect();
        self.quote_refs(&refs)
    }

    /// The batch-slice entry point: identical to
    /// [`PricingService::quote_batch`] but over *borrowed* requests, so a
    /// caller can assemble a batch without cloning a single feature block.
    /// It is [`PricingService::advance_sessions`] followed by
    /// [`PricingService::price_rows`].
    ///
    /// # Errors
    ///
    /// Returns a typed [`ServeError`] for malformed feature blocks
    /// ([`PricingService::check_request`]); an empty batch yields an empty
    /// quote list.
    pub fn quote_refs(&self, requests: &[&QuoteRequest]) -> Result<Vec<Quote>, ServeError> {
        if requests.is_empty() {
            return Ok(Vec::new());
        }
        let rows = self.advance_sessions(requests)?;
        self.price_rows(&rows)
    }

    /// Prices a single request: a one-request batch through
    /// [`PricingService::quote_refs`].
    ///
    /// # Errors
    ///
    /// Returns a typed [`ServeError`] for malformed feature blocks
    /// ([`PricingService::check_request`]).
    pub fn quote_one(&self, request: &QuoteRequest) -> Result<Quote, ServeError> {
        let mut quotes = self.quote_refs(&[request])?;
        Ok(quotes.pop().expect("one request yields one quote"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vtm_rl::ppo::{PpoAgent, PpoConfig};

    fn snapshot(obs_dim: usize, seed: u64) -> PolicySnapshot {
        PpoAgent::new(
            PpoConfig::new(obs_dim, 1).with_seed(seed),
            ActionSpace::scalar(5.0, 50.0),
        )
        .snapshot()
    }

    fn requests(round: usize, sessions: usize, features: usize) -> Vec<QuoteRequest> {
        (0..sessions)
            .map(|s| {
                QuoteRequest::new(
                    s as u64,
                    (0..features)
                        .map(|f| ((round * 31 + s * 7 + f) % 13) as f64 / 13.0)
                        .collect(),
                )
            })
            .collect()
    }

    #[test]
    fn geometry_mismatch_is_a_typed_error() {
        let snap = snapshot(8, 1);
        assert!(matches!(
            PricingService::from_snapshot(&snap, ServiceConfig::new(4, 3)),
            Err(ServeError::GeometryMismatch { .. })
        ));
        assert!(PricingService::from_snapshot(&snap, ServiceConfig::new(4, 2)).is_ok());
    }

    #[test]
    fn batched_quotes_match_per_request_quotes_exactly() {
        let snap = snapshot(8, 2);
        let batched = PricingService::from_snapshot(&snap, ServiceConfig::new(4, 2)).unwrap();
        let sequential = PricingService::from_snapshot(&snap, ServiceConfig::new(4, 2)).unwrap();
        for round in 0..6 {
            let reqs = requests(round, 9, 2);
            let via_batch = batched.quote_batch(&reqs).unwrap();
            let via_single: Vec<Quote> = reqs
                .iter()
                .map(|r| sequential.quote_one(r).unwrap())
                .collect();
            assert_eq!(via_batch, via_single, "round {round} diverged");
        }
        assert_eq!(batched.stats().quotes, 54);
        assert_eq!(batched.stats().sessions, 9);
        assert_repeats_match_single_quotes(&batched, &sequential);
    }

    /// Quotes one batch that prices session 0 three times, between sessions
    /// 1 and 2, on `batched`, and the same requests one at a time on
    /// `sequential`: the repeats apply in request order, so quotes and
    /// state agree.
    fn assert_repeats_match_single_quotes(batched: &PricingService, sequential: &PricingService) {
        let pick = |session: usize, round: usize| requests(round, 3, 2)[session].clone();
        let batch = [
            pick(0, 10),
            pick(1, 10),
            pick(0, 11),
            pick(2, 10),
            pick(0, 12),
        ];
        let via_single: Vec<Quote> = batch
            .iter()
            .map(|r| sequential.quote_one(r).unwrap())
            .collect();
        assert_eq!(batched.quote_batch(&batch).unwrap(), via_single);
        assert_eq!(batched.state_digest(), sequential.state_digest());
    }

    #[test]
    fn threaded_batches_match_inline_batches_exactly() {
        let snap = snapshot(8, 9);
        let inline = PricingService::from_snapshot(&snap, ServiceConfig::new(4, 2)).unwrap();
        let threaded = PricingService::from_snapshot(
            &snap,
            ServiceConfig::new(4, 2).with_inference_threads(4),
        )
        .unwrap();
        for round in 0..4 {
            let reqs = requests(round, 23, 2);
            assert_eq!(
                inline.quote_batch(&reqs).unwrap(),
                threaded.quote_batch(&reqs).unwrap(),
                "round {round} diverged across inference thread counts"
            );
        }
    }

    #[test]
    fn warm_up_flag_flips_once_the_window_fills() {
        let snap = snapshot(6, 4);
        let service = PricingService::from_snapshot(&snap, ServiceConfig::new(3, 2)).unwrap();
        for round in 0..5 {
            let quote = &service.quote_batch(&requests(round, 1, 2)).unwrap()[0];
            assert_eq!(quote.warmed, round >= 2, "round {round}");
        }
    }

    #[test]
    fn bad_feature_blocks_and_session_lifecycle() {
        let snap = snapshot(6, 5);
        let service = PricingService::from_snapshot(&snap, ServiceConfig::new(3, 2)).unwrap();
        let err = service
            .quote_batch(&[QuoteRequest::new(1, vec![0.0; 5])])
            .unwrap_err();
        assert!(matches!(
            err,
            ServeError::BadFeatureBlock {
                session: 1,
                expected: 2,
                got: 5
            }
        ));
        assert!(!err.to_string().is_empty());
        assert!(service.quote_batch(&[]).unwrap().is_empty());
        service.quote_batch(&requests(0, 3, 2)).unwrap();
        assert_eq!(service.stats().sessions, 3);
    }

    #[test]
    fn non_finite_features_are_rejected_before_any_session_moves() {
        let snap = snapshot(8, 6);
        let service = PricingService::from_snapshot(&snap, ServiceConfig::new(4, 2)).unwrap();
        let twin = PricingService::from_snapshot(&snap, ServiceConfig::new(4, 2)).unwrap();
        for round in 0..2 {
            service.quote_batch(&requests(round, 3, 2)).unwrap();
            twin.quote_batch(&requests(round, 3, 2)).unwrap();
        }
        let digest = service.state_digest();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for index in 0..2 {
                let mut features = vec![0.5; 2];
                features[index] = bad;
                let request = QuoteRequest::new(1, features);
                let err = service.quote_one(&request).unwrap_err();
                assert!(
                    matches!(err, ServeError::NonFiniteFeature { session: 1, index: i } if i == index),
                    "{bad} at {index}: {err:?}"
                );
                assert!(!err.to_string().is_empty());
                // A bad request anywhere in a batch rejects the whole batch,
                // before the clean requests ahead of it touch their sessions.
                let mut batch = requests(2, 3, 2);
                batch.push(request);
                assert!(matches!(
                    service.quote_batch(&batch),
                    Err(ServeError::NonFiniteFeature { session: 1, .. })
                ));
                assert_eq!(service.state_digest(), digest, "{bad} at {index}");
            }
        }
        // The session's next quotes are exactly those of a service that
        // never saw the rejected requests.
        for round in 2..7 {
            let reqs = requests(round, 3, 2);
            assert_eq!(
                service.quote_batch(&reqs).unwrap(),
                twin.quote_batch(&reqs).unwrap()
            );
        }
        assert_eq!(service.state_digest(), twin.state_digest());
    }

    #[test]
    fn greedy_quotes_match_the_agent_deterministic_action() {
        // The service over a full observation window must quote exactly the
        // policy's deterministic action for that observation.
        let agent = PpoAgent::new(
            PpoConfig::new(6, 1).with_seed(6),
            ActionSpace::scalar(5.0, 50.0),
        );
        let service =
            PricingService::from_snapshot(&agent.snapshot(), ServiceConfig::new(3, 2)).unwrap();
        let blocks = [[0.2, 0.4], [0.6, 0.1], [0.9, 0.3]];
        let mut quote = None;
        for block in blocks {
            quote = Some(
                service
                    .quote_one(&QuoteRequest::new(42, block.to_vec()))
                    .unwrap(),
            );
        }
        let obs: Vec<f64> = blocks.iter().flatten().copied().collect();
        assert_eq!(quote.unwrap().action, agent.act_deterministic(&obs));
    }

    /// A fabric routes sessions to its gateways with `session_shard`; each
    /// gateway's service still fills its whole capacity, at any fabric
    /// shard count.
    #[test]
    fn each_gateway_fills_its_capacity_at_any_fabric_shard_count() {
        const CAPACITY: usize = 256;
        let snap = snapshot(6, 7);
        let config = ServiceConfig::new(3, 2).with_session_capacity(CAPACITY);
        for shards in [2, 4] {
            let mut lanes = vec![Vec::new(); shards];
            for session in 0..4096 {
                let lane = &mut lanes[vtm_core::routing::session_shard(session, shards)];
                lane.push(QuoteRequest::new(session, vec![0.5, 0.25]));
            }
            for (shard, lane) in lanes.iter().enumerate() {
                let service = PricingService::from_snapshot(&snap, config).unwrap();
                service.quote_batch(lane).unwrap();
                assert_eq!(service.stats().sessions, CAPACITY, "{shard} of {shards}");
            }
        }
    }

    #[test]
    fn service_is_shareable_across_threads() {
        fn assert_send_sync<T: Send + Sync>() {}
        // The gateway hands one service to many executor threads via `Arc`;
        // this fails to compile if a non-Sync field ever sneaks in.
        assert_send_sync::<PricingService>();
    }

    #[test]
    fn capacity_bound_holds_under_many_distinct_sessions() {
        let snap = snapshot(6, 8);
        let config = ServiceConfig::new(3, 2).with_session_capacity(8);
        let service = PricingService::from_snapshot(&snap, config).unwrap();
        for round in 0..4u64 {
            let reqs: Vec<QuoteRequest> = (0..100u64)
                .map(|s| QuoteRequest::new(round * 1000 + s, vec![0.1, 0.2]))
                .collect();
            service.quote_batch(&reqs).unwrap();
            assert_eq!(service.stats().sessions, 8);
        }
        assert!(service.stats().evicted > 0);
        assert_eq!(service.stats().quotes, 400);
    }

    #[test]
    fn state_save_restore_round_trips_and_digests_agree() {
        let snap = snapshot(8, 11);
        let config = ServiceConfig::new(4, 2).with_session_capacity(8);
        let source = PricingService::from_snapshot(&snap, config).unwrap();
        for round in 0..5 {
            source.quote_batch(&requests(round, 11, 2)).unwrap();
        }
        let state = source.save_state();
        let target = PricingService::from_snapshot(&snap, config).unwrap();
        assert_ne!(target.state_digest(), source.state_digest());
        target.restore_state(&state).unwrap();
        assert_eq!(target.state_digest(), source.state_digest());
        assert_eq!(target.stats(), source.stats());
        // Future quotes agree bit-for-bit: the restored state carries the
        // histories and LRU bookkeeping.
        for round in 5..8 {
            let reqs = requests(round, 11, 2);
            assert_eq!(
                source.quote_batch(&reqs).unwrap(),
                target.quote_batch(&reqs).unwrap(),
                "round {round} diverged after restore"
            );
        }
        assert_eq!(target.state_digest(), source.state_digest());
    }

    #[test]
    fn state_restore_rejects_corruption_with_typed_errors() {
        let snap = snapshot(6, 12);
        let service = PricingService::from_snapshot(&snap, ServiceConfig::new(3, 2)).unwrap();
        service.quote_batch(&requests(0, 4, 2)).unwrap();
        let state = service.save_state();
        let digest = service.state_digest();
        // Truncated payload.
        assert!(matches!(
            service.restore_state(&state[..state.len() - 3]),
            Err(ServeError::State(CodecError::Truncated { .. }))
        ));
        assert_eq!(service.state_digest(), digest);
        // Trailing garbage, after this service's state and after another
        // service's: refused before it replaces anything.
        let other = PricingService::from_snapshot(&snap, ServiceConfig::new(3, 2)).unwrap();
        other.quote_batch(&requests(1, 5, 2)).unwrap();
        for mut padded in [state, other.save_state()] {
            padded.extend_from_slice(&[0u8; 4]);
            assert!(matches!(
                service.restore_state(&padded),
                Err(ServeError::State(CodecError::Invalid(_)))
            ));
            // Failed restores leave the live state untouched.
            assert_eq!(service.state_digest(), digest);
        }
    }

    /// A hand-built service-state payload: no quotes served, the clock at
    /// `tick`, the `(id, feature blocks)` sessions in the given order (each
    /// last touched at `stamp`), and nothing evicted.
    fn state_payload(tick: u64, stamp: u64, sessions: &[(u64, Vec<Vec<f64>>)]) -> Vec<u8> {
        let mut w = PayloadWriter::new();
        w.write_u64(0);
        w.write_u64(tick);
        w.write_usize(sessions.len());
        for (id, blocks) in sessions {
            w.write_u64(*id);
            w.write_u64(stamp);
            w.write_usize(blocks.len());
            for block in blocks {
                w.write_f64_vec(block);
            }
        }
        w.write_u64(0);
        w.into_bytes()
    }

    /// A restored payload is held to what admission holds a request to: a
    /// feature block of the wrong width or with a non-finite value, ids out
    /// of ascending order (duplicates included), more sessions than the
    /// capacity and an LRU stamp at or after the clock are refused with a
    /// typed error, with or without an observation normalizer, and leave
    /// the service exactly as it was.
    #[test]
    fn state_restore_refuses_what_admission_refuses() {
        let mut agent = PpoAgent::new(
            PpoConfig::new(8, 1).with_seed(16),
            ActionSpace::scalar(5.0, 50.0),
        );
        let plain = agent.snapshot();
        agent.set_obs_normalizer(Some(RunningMeanStd::new(8)));
        let normalized = agent.snapshot();
        let config = ServiceConfig::new(4, 2).with_session_capacity(2);
        let (a, b, c) = (100, 101, 102);
        let full = || vec![vec![0.5, 0.25]; 4];
        // Session `a` with its newest block replaced.
        let newest = |block| {
            let mut blocks = full();
            blocks[3] = block;
            vec![(a, blocks)]
        };
        let state = |sessions: Vec<_>| state_payload(1, 0, &sessions);
        let cases = [
            ("5-wide block", state(newest(vec![0.5; 5]))),
            ("NaN feature", state(newest(vec![f64::NAN, 0.5]))),
            ("infinite feature", state(newest(vec![0.5, f64::INFINITY]))),
            ("duplicate id", state(vec![(a, full()), (a, full())])),
            ("descending ids", state(vec![(b, full()), (a, full())])),
            (
                "over capacity",
                state(vec![(a, full()), (b, full()), (c, full())]),
            ),
            ("stamp at the clock", state_payload(1, 1, &[(a, full())])),
            ("stamp after it", state_payload(1, u64::MAX, &[(a, full())])),
        ];
        let valid = state(vec![(a, full()), (b, full())]);
        for snapshot in [&plain, &normalized] {
            let service = PricingService::from_snapshot(snapshot, config).unwrap();
            let twin = PricingService::from_snapshot(snapshot, config).unwrap();
            for s in [&service, &twin] {
                s.quote_batch(&requests(0, 3, 2)).unwrap();
            }
            for (round, (case, payload)) in (1..).zip(&cases) {
                let result = service.restore_state(payload);
                assert!(
                    matches!(result, Err(ServeError::State(CodecError::Invalid(_)))),
                    "{case}: {result:?}"
                );
                assert_eq!(service.state_digest(), twin.state_digest(), "{case}");
                // Clean sessions quote exactly as on a service that never
                // saw the payload.
                let reqs = requests(round, 3, 2);
                assert_eq!(
                    service.quote_batch(&reqs).unwrap(),
                    twin.quote_batch(&reqs).unwrap(),
                    "{case}"
                );
            }
            // The same builder's well-formed payload restores, and its
            // sessions quote from their full restored windows.
            service.restore_state(&valid).unwrap();
            assert_eq!(service.stats().sessions, 2);
            let quote = service.quote_one(&QuoteRequest::new(a, vec![0.5, 0.25]));
            assert!(quote.unwrap().warmed);
        }
    }

    #[test]
    fn policy_fingerprint_identifies_the_snapshot() {
        let snap_a = snapshot(8, 13);
        let a1 = PricingService::from_snapshot(&snap_a, ServiceConfig::new(4, 2)).unwrap();
        let a2 = PricingService::from_snapshot(&snap_a, ServiceConfig::new(4, 2)).unwrap();
        assert_eq!(a1.policy_fingerprint(), a2.policy_fingerprint());
        let snap_b = snapshot(8, 14);
        let b = PricingService::from_snapshot(&snap_b, ServiceConfig::new(4, 2)).unwrap();
        assert_ne!(a1.policy_fingerprint(), b.policy_fingerprint());
    }

    /// Index of the largest element — the "which action wins" witness the
    /// greedy decision-agreement contract compares across precisions.
    fn argmax(values: &[f64]) -> usize {
        values
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .map(|(i, _)| i)
            .unwrap()
    }

    #[test]
    fn f32_greedy_quotes_agree_with_the_f64_reference() {
        let snap = snapshot(8, 21);
        let reference = PricingService::from_snapshot(&snap, ServiceConfig::new(4, 2)).unwrap();
        let quantized = PricingService::from_snapshot(
            &snap,
            ServiceConfig::new(4, 2).with_precision(Precision::F32),
        )
        .unwrap();
        for round in 0..6 {
            let reqs = requests(round, 9, 2);
            let wide = reference.quote_batch(&reqs).unwrap();
            let narrow = quantized.quote_batch(&reqs).unwrap();
            for (w, n) in wide.iter().zip(&narrow) {
                assert_eq!(argmax(&w.action), argmax(&n.action));
                assert_eq!((w.session, w.warmed), (n.session, n.warmed));
                assert!(
                    (w.price() - n.price()).abs() < 1e-2,
                    "round {round}: f32 price {} too far from f64 {}",
                    n.price(),
                    w.price()
                );
            }
        }
        // Session state (histories, ticks, counters) is precision-
        // independent: pricing writes nothing back into it.
        assert_eq!(reference.stats(), quantized.stats());
        assert_eq!(reference.state_digest(), quantized.state_digest());
    }

    #[test]
    fn f32_batched_quotes_match_f32_per_request_quotes_exactly() {
        let snap = snapshot(8, 22);
        let config = ServiceConfig::new(4, 2).with_precision(Precision::F32);
        let batched = PricingService::from_snapshot(&snap, config).unwrap();
        let sequential = PricingService::from_snapshot(&snap, config).unwrap();
        for round in 0..5 {
            let reqs = requests(round, 9, 2);
            let via_batch = batched.quote_batch(&reqs).unwrap();
            let via_single: Vec<Quote> = reqs
                .iter()
                .map(|r| sequential.quote_one(r).unwrap())
                .collect();
            assert_eq!(via_batch, via_single, "f32 round {round} diverged");
        }
        assert_eq!(batched.state_digest(), sequential.state_digest());
        assert_repeats_match_single_quotes(&batched, &sequential);
    }

    #[test]
    fn f32_threaded_batches_match_f32_inline_batches_exactly() {
        let snap = snapshot(8, 23);
        let base = ServiceConfig::new(4, 2).with_precision(Precision::F32);
        let inline = PricingService::from_snapshot(&snap, base).unwrap();
        let threaded =
            PricingService::from_snapshot(&snap, base.with_inference_threads(4)).unwrap();
        for round in 0..4 {
            let reqs = requests(round, 23, 2);
            assert_eq!(
                inline.quote_batch(&reqs).unwrap(),
                threaded.quote_batch(&reqs).unwrap(),
                "f32 round {round} diverged across inference thread counts"
            );
        }
    }

    #[test]
    fn quote_refs_matches_quote_batch() {
        let snap = snapshot(8, 10);
        let a = PricingService::from_snapshot(&snap, ServiceConfig::new(4, 2)).unwrap();
        let b = PricingService::from_snapshot(&snap, ServiceConfig::new(4, 2)).unwrap();
        for round in 0..3 {
            let reqs = requests(round, 7, 2);
            let refs: Vec<&QuoteRequest> = reqs.iter().collect();
            assert_eq!(a.quote_batch(&reqs).unwrap(), b.quote_refs(&refs).unwrap());
        }
    }

    /// `from_shared` is the fabric's cheap per-shard construction path: it
    /// must be observationally identical to `from_snapshot` — same policy
    /// fingerprint, bit-identical quotes and state digests in both
    /// precisions — while sharing (not copying) the frozen weights.
    #[test]
    fn from_shared_services_match_from_snapshot_services_exactly() {
        let snap = snapshot(8, 31);
        let shared = SharedPolicy::from_snapshot(&snap).unwrap();
        for precision in [Precision::F64, Precision::F32] {
            let config = ServiceConfig::new(4, 2).with_precision(precision);
            let direct = PricingService::from_snapshot(&snap, config).unwrap();
            let cheap = PricingService::from_shared(&shared, config).unwrap();
            let sibling = PricingService::from_shared(&shared, config).unwrap();
            assert_eq!(shared.fingerprint(), direct.policy_fingerprint());
            assert_eq!(cheap.policy_fingerprint(), direct.policy_fingerprint());
            for round in 0..4 {
                let reqs = requests(round, 9, 2);
                let expected = direct.quote_batch(&reqs).unwrap();
                assert_eq!(cheap.quote_batch(&reqs).unwrap(), expected);
                assert_eq!(sibling.quote_batch(&reqs).unwrap(), expected);
            }
            assert_eq!(cheap.state_digest(), direct.state_digest());
            // Sibling services share weights but never session state.
            assert_eq!(cheap.stats().sessions, sibling.stats().sessions);
        }
        // Geometry mismatches stay typed errors on the shared path.
        assert!(matches!(
            PricingService::from_shared(&shared, ServiceConfig::new(4, 3)),
            Err(ServeError::GeometryMismatch { .. })
        ));
    }
}
