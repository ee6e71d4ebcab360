//! The fabric: N independent gateway shards per policy arm, deterministic
//! session-hash routing, and atomic arm promotion.
//!
//! # Topology
//!
//! A fabric with `S` shards and `A` arms runs `S × A` fully independent
//! [`Gateway`]s — each with its own ingress queue, executor pool,
//! session-store-backed [`PricingService`] and (optionally) its own
//! journal file. A request is routed twice, both times by a pure hash of
//! its session id:
//!
//! 1. **arm** — `ArmTable::arm_of` picks the policy arm (hash-stable
//!    percentage assignment, salted so it is independent of sharding),
//! 2. **shard** — [`vtm_core::routing::session_shard`] picks the gateway
//!    within the arm.
//!
//! Per-session state therefore lives in exactly one gateway's service, no
//! cross-shard coordination exists on the quote path, and a 1-shard/1-arm
//! fabric is *bit-identical* to a bare gateway (pinned by the determinism
//! tests).
//!
//! # Hot swap
//!
//! [`Fabric::promote`] replaces one arm's gateways with fresh ones built
//! from a new policy snapshot. The swap is an `Arc` pointer swap per
//! shard slot: submissions that already hold the old gateway resolve
//! against it (its pipeline keeps running until the fabric drains it at
//! shutdown), submissions after the swap see the new policy. No ticket is
//! dropped or misrouted — pinned by the swap-under-load test.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

use vtm_core::routing::session_shard;
use vtm_gateway::{Gateway, GatewayConfig, GatewayError};
use vtm_journal::{combine_shard_digests, shard_journal_path, tagged_journal_path, JournalOptions};
use vtm_rl::snapshot::PolicySnapshot;
use vtm_serve::{PricingService, Quote, QuoteRequest, ServeError, ServiceConfig, SharedPolicy};

use crate::arms::{ArmSpec, ArmSpecError, ArmTable};
use crate::telemetry::{fold_gateway_rollups, ArmTelemetry, FabricSnapshot, ShardTelemetry};

/// Typed failure modes of the fabric request and control paths.
#[derive(Debug)]
pub enum FabricError {
    /// The arm specification was rejected (empty, bad split, bad names).
    Arms(ArmSpecError),
    /// A gateway-path failure (admission, shedding, execution, journal).
    Gateway(GatewayError),
    /// Building a per-shard service from the policy failed.
    Serve(ServeError),
    /// The named arm does not exist.
    UnknownArm(String),
    /// The fabric has been shut down (or is shutting down).
    ShutDown,
}

impl std::fmt::Display for FabricError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FabricError::Arms(err) => write!(f, "arm specification: {err}"),
            FabricError::Gateway(err) => write!(f, "gateway: {err}"),
            FabricError::Serve(err) => write!(f, "service construction: {err}"),
            FabricError::UnknownArm(name) => write!(f, "unknown arm {name:?}"),
            FabricError::ShutDown => write!(f, "fabric has been shut down"),
        }
    }
}

impl std::error::Error for FabricError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FabricError::Arms(err) => Some(err),
            FabricError::Gateway(err) => Some(err),
            FabricError::Serve(err) => Some(err),
            _ => None,
        }
    }
}

impl From<ArmSpecError> for FabricError {
    fn from(err: ArmSpecError) -> Self {
        FabricError::Arms(err)
    }
}

impl From<GatewayError> for FabricError {
    fn from(err: GatewayError) -> Self {
        FabricError::Gateway(err)
    }
}

impl From<ServeError> for FabricError {
    fn from(err: ServeError) -> Self {
        FabricError::Serve(err)
    }
}

/// Construction parameters of a [`Fabric`].
#[derive(Debug, Clone)]
pub struct FabricConfig {
    /// Independent gateway shards per arm (clamped ≥ 1).
    pub shards: usize,
    /// The policy arms and their session split. Defaults to one arm
    /// `"default"` owning 100% — a plain sharded fabric with no experiment.
    pub arms: Vec<ArmSpec>,
    /// Template gateway configuration, cloned per shard (the fabric
    /// overrides [`GatewayConfig::shard`] and, when `journal` is set, the
    /// per-shard journal path; a journal set *here* is ignored).
    pub gateway: GatewayConfig,
    /// Template service configuration for every per-shard service.
    pub service: ServiceConfig,
    /// Fabric-wide journaling: shard `k` of arm `a` at generation `g`
    /// journals to `tagged(base, "<a>-g<g>")` + `".shard<k>"` (see
    /// [`vtm_journal::shard_journal_path`]), with this option's flush and
    /// snapshot cadence.
    pub journal: Option<JournalOptions>,
}

impl FabricConfig {
    /// A `shards`-wide single-arm fabric with default gateway settings.
    pub fn new(shards: usize, service: ServiceConfig) -> Self {
        Self {
            shards: shards.max(1),
            arms: vec![ArmSpec::new("default", 100)],
            gateway: GatewayConfig::default(),
            service,
            journal: None,
        }
    }

    /// Overrides the arm split.
    pub fn with_arms(mut self, arms: Vec<ArmSpec>) -> Self {
        self.arms = arms;
        self
    }

    /// Overrides the per-shard gateway template.
    pub fn with_gateway(mut self, gateway: GatewayConfig) -> Self {
        self.gateway = gateway;
        self
    }

    /// Enables per-shard journaling under the given base path/cadence.
    pub fn with_journal(mut self, journal: JournalOptions) -> Self {
        self.journal = Some(journal);
        self
    }
}

/// One arm's runtime state: the swappable gateway slots plus the state
/// that survives promotions.
struct ArmState {
    spec: ArmSpec,
    /// The live gateway per shard. `None` only once the fabric has been
    /// shut down. Swapped wholesale by `promote`.
    slots: Vec<RwLock<Option<Arc<Gateway>>>>,
    /// Gateways replaced by promotions: kept alive (their in-flight
    /// tickets must resolve) until the fabric drains them at shutdown.
    retired: Mutex<Vec<(u64, Arc<Gateway>)>>,
    /// Serializes promotions of this arm (and fences them against
    /// shutdown).
    promote: Mutex<()>,
    /// How many promotions have completed (generation of the live slots).
    generation: AtomicU64,
    /// The arm's current policy, for post-swap equivalence checks.
    policy: Mutex<SharedPolicy>,
    telemetry: Arc<ArmTelemetry>,
}

/// A completion handle for one fabric submission: the underlying gateway
/// ticket plus the per-arm telemetry the resolution is recorded into.
#[derive(Debug)]
pub struct FabricTicket {
    ticket: vtm_gateway::QuoteTicket,
    telemetry: Arc<ArmTelemetry>,
    submitted: Instant,
}

impl FabricTicket {
    /// Blocks until the quote (or a typed error) is available, recording
    /// the outcome and client-observed latency into the arm's telemetry.
    ///
    /// # Errors
    ///
    /// The underlying [`Gateway`] error, unchanged.
    pub fn wait(self) -> Result<Quote, GatewayError> {
        let result = self.ticket.wait();
        let latency_us = self
            .submitted
            .elapsed()
            .as_micros()
            .min(u128::from(u64::MAX)) as u64;
        match &result {
            Ok(quote) => self
                .telemetry
                .record_quote(quote.price(), quote.degraded, latency_us),
            Err(err) => self.telemetry.record_error(err),
        }
        result
    }
}

/// A sharded, A/B-capable front for many independent pricing gateways.
/// See the module docs for the topology and the crate docs for a
/// quickstart.
pub struct Fabric {
    config: FabricConfig,
    table: ArmTable,
    arms: Vec<ArmState>,
    closed: AtomicBool,
    /// The final snapshot, populated exactly once by `shutdown`.
    final_snapshot: Mutex<Option<FabricSnapshot>>,
}

impl std::fmt::Debug for Fabric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fabric")
            .field("shards", &self.config.shards)
            .field("arms", &self.table.arms())
            .field("closed", &self.closed.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl Fabric {
    /// Starts every shard of every arm from one policy snapshot (validated
    /// and fingerprinted once; per-shard services share the frozen
    /// weights).
    ///
    /// # Errors
    ///
    /// [`FabricError::Arms`] for an invalid arm split, [`FabricError::Serve`]
    /// for a policy/service geometry mismatch, [`FabricError::Gateway`] when
    /// a gateway (typically its journal file) fails to start.
    pub fn start(snapshot: &PolicySnapshot, config: FabricConfig) -> Result<Self, FabricError> {
        let policy = SharedPolicy::from_snapshot(snapshot)?;
        Self::start_shared(&policy, config)
    }

    /// [`Fabric::start`] from an already-validated [`SharedPolicy`].
    ///
    /// # Errors
    ///
    /// As [`Fabric::start`], minus snapshot validation.
    pub fn start_shared(policy: &SharedPolicy, config: FabricConfig) -> Result<Self, FabricError> {
        let table = ArmTable::new(config.arms.clone())?;
        let mut arms = Vec::with_capacity(table.len());
        for spec in table.arms() {
            let mut slots = Vec::with_capacity(config.shards.max(1));
            for shard in 0..config.shards.max(1) {
                let gateway = start_gateway(&config, policy, &spec.name, 0, shard)?;
                slots.push(RwLock::new(Some(Arc::new(gateway))));
            }
            arms.push(ArmState {
                spec: spec.clone(),
                slots,
                retired: Mutex::new(Vec::new()),
                promote: Mutex::new(()),
                generation: AtomicU64::new(0),
                policy: Mutex::new(policy.clone()),
                telemetry: Arc::new(ArmTelemetry::default()),
            });
        }
        Ok(Self {
            config,
            table,
            arms,
            closed: AtomicBool::new(false),
            final_snapshot: Mutex::new(None),
        })
    }

    /// Shards per arm.
    pub fn shards(&self) -> usize {
        self.config.shards.max(1)
    }

    /// The validated arm split, in declaration order.
    pub fn arms(&self) -> &[ArmSpec] {
        self.table.arms()
    }

    /// Which arm serves `session` — pure, sticky, promotion-invariant.
    pub fn arm_of(&self, session: u64) -> &str {
        &self.table.arms()[self.table.arm_of(session)].name
    }

    /// Which shard (within its arm) serves `session` — pure in
    /// `(session, shard count)`.
    pub fn shard_of(&self, session: u64) -> usize {
        session_shard(session, self.shards())
    }

    /// Submits one quote request to its session's arm and shard; returns
    /// immediately with a completion ticket.
    ///
    /// # Errors
    ///
    /// [`FabricError::ShutDown`] after [`Fabric::shutdown`], or the
    /// routed gateway's typed admission error (backpressure, shedding,
    /// malformed feature block) — submission-time errors are recorded in
    /// the arm's telemetry either way.
    pub fn submit(&self, request: QuoteRequest) -> Result<FabricTicket, FabricError> {
        if self.closed.load(Ordering::Acquire) {
            return Err(FabricError::ShutDown);
        }
        let arm = &self.arms[self.table.arm_of(request.session)];
        let shard = self.shard_of(request.session);
        let gateway = match &*arm.slots[shard].read().expect("slot lock poisoned") {
            Some(gateway) => Arc::clone(gateway),
            None => return Err(FabricError::ShutDown),
        };
        let submitted = Instant::now();
        match gateway.submit(request) {
            Ok(ticket) => Ok(FabricTicket {
                ticket,
                telemetry: Arc::clone(&arm.telemetry),
                submitted,
            }),
            Err(err) => {
                arm.telemetry.record_error(&err);
                Err(FabricError::Gateway(err))
            }
        }
    }

    /// Submits and waits: the one-call quote path.
    ///
    /// # Errors
    ///
    /// As [`Fabric::submit`], plus any executor-side failure.
    pub fn quote(&self, request: QuoteRequest) -> Result<Quote, FabricError> {
        self.submit(request)?.wait().map_err(FabricError::Gateway)
    }

    /// Atomically hot-swaps one arm onto a new policy snapshot.
    ///
    /// All replacement gateways (one per shard, with fresh session state
    /// and, when journaling, a new per-generation journal file) are built
    /// *before* any slot is touched, so a failed promotion changes
    /// nothing. Each shard slot is then swapped by pointer: in-flight
    /// tickets keep resolving against the gateway they were admitted to
    /// (it stays alive, retired, until fabric shutdown), and every
    /// submission routed after `promote` returns sees the new policy.
    /// Promotions of the same arm serialize; the session→arm assignment
    /// never changes.
    ///
    /// # Errors
    ///
    /// [`FabricError::UnknownArm`], [`FabricError::ShutDown`], or the
    /// construction errors of [`Fabric::start`]. On error the arm keeps
    /// serving its previous policy on every shard.
    pub fn promote(&self, arm: &str, snapshot: &PolicySnapshot) -> Result<(), FabricError> {
        let policy = SharedPolicy::from_snapshot(snapshot)?;
        self.promote_shared(arm, &policy)
    }

    /// [`Fabric::promote`] from an already-validated [`SharedPolicy`].
    ///
    /// # Errors
    ///
    /// As [`Fabric::promote`], minus snapshot validation.
    pub fn promote_shared(&self, arm: &str, policy: &SharedPolicy) -> Result<(), FabricError> {
        let index = self
            .table
            .index_of(arm)
            .ok_or_else(|| FabricError::UnknownArm(arm.to_string()))?;
        let state = &self.arms[index];
        let _guard = state.promote.lock().expect("promote lock poisoned");
        if self.closed.load(Ordering::Acquire) {
            return Err(FabricError::ShutDown);
        }
        let generation = state.generation.load(Ordering::Relaxed) + 1;
        let fresh: Vec<Arc<Gateway>> = (0..self.shards())
            .map(|shard| start_gateway(&self.config, policy, arm, generation, shard).map(Arc::new))
            .collect::<Result<_, _>>()?;
        let old_generation = state.generation.load(Ordering::Relaxed);
        for (slot, gateway) in state.slots.iter().zip(fresh) {
            let old = slot.write().expect("slot lock poisoned").replace(gateway);
            if let Some(old) = old {
                state
                    .retired
                    .lock()
                    .expect("retired lock poisoned")
                    .push((old_generation, old));
            }
        }
        state.generation.store(generation, Ordering::Relaxed);
        *state.policy.lock().expect("policy lock poisoned") = policy.clone();
        state.telemetry.record_promotion();
        Ok(())
    }

    /// The policy fingerprint each arm currently serves (see
    /// [`SharedPolicy::fingerprint`]), in arm declaration order.
    pub fn arm_fingerprints(&self) -> Vec<(String, u64)> {
        self.arms
            .iter()
            .map(|arm| {
                let policy = arm.policy.lock().expect("policy lock poisoned");
                (arm.spec.name.clone(), policy.fingerprint())
            })
            .collect()
    }

    /// One arm's per-shard service-state digests
    /// ([`PricingService::state_digest`]), shard order. `None` for an
    /// unknown arm or after shutdown.
    pub fn shard_digests(&self, arm: &str) -> Option<Vec<u64>> {
        let state = &self.arms[self.table.index_of(arm)?];
        let mut digests = Vec::with_capacity(state.slots.len());
        for slot in &state.slots {
            let guard = slot.read().expect("slot lock poisoned");
            digests.push(guard.as_ref()?.service().state_digest());
        }
        Some(digests)
    }

    /// One arm's merged fabric-state digest:
    /// [`combine_shard_digests`] over [`Fabric::shard_digests`].
    pub fn state_digest(&self, arm: &str) -> Option<u64> {
        Some(combine_shard_digests(&self.shard_digests(arm)?))
    }

    /// The journal file each live gateway appends to, as
    /// `(arm, shard, path)` — empty when journaling is off.
    pub fn journal_paths(&self) -> Vec<(String, usize, PathBuf)> {
        let Some(journal) = &self.config.journal else {
            return Vec::new();
        };
        let mut paths = Vec::new();
        for arm in &self.arms {
            let generation = arm.generation.load(Ordering::Relaxed);
            let base = arm_journal_base(journal, &arm.spec.name, generation);
            for shard in 0..arm.slots.len() {
                paths.push((
                    arm.spec.name.clone(),
                    shard,
                    shard_journal_path(&base, shard),
                ));
            }
        }
        paths
    }

    /// A point-in-time fabric snapshot: per-arm counters plus every live
    /// gateway's telemetry (retired generations are folded in at
    /// [`Fabric::shutdown`]).
    pub fn telemetry(&self) -> FabricSnapshot {
        let mut gateways = Vec::new();
        for arm in &self.arms {
            let generation = arm.generation.load(Ordering::Relaxed);
            for (shard, slot) in arm.slots.iter().enumerate() {
                if let Some(gateway) = &*slot.read().expect("slot lock poisoned") {
                    gateways.push(ShardTelemetry {
                        arm: arm.spec.name.clone(),
                        shard,
                        generation,
                        telemetry: gateway.telemetry(),
                    });
                }
            }
        }
        self.snapshot_of(gateways)
    }

    /// The per-arm counters with `gateways` folded in, assembled into a
    /// [`FabricSnapshot`] (shared by [`Fabric::telemetry`] and
    /// [`Fabric::shutdown`]).
    fn snapshot_of(&self, gateways: Vec<ShardTelemetry>) -> FabricSnapshot {
        let mut arms: Vec<_> = self
            .arms
            .iter()
            .map(|arm| arm.telemetry.snapshot(&arm.spec.name, arm.spec.percent))
            .collect();
        fold_gateway_rollups(&mut arms, &gateways);
        FabricSnapshot {
            shards: self.shards(),
            arms,
            gateways,
        }
    }

    /// Drains the whole fabric: stops admitting, then shuts every gateway
    /// of every arm — live slots and retired generations — down
    /// *concurrently* (one drain thread per gateway, so shard drains
    /// overlap exactly like shard serving does). Every in-flight ticket
    /// resolves with its quote or a typed error; no ticket resolves twice
    /// or hangs (pinned by the shutdown-under-load test).
    ///
    /// Idempotent: the first call produces the final [`FabricSnapshot`]
    /// (retired generations included); later calls return the same
    /// snapshot.
    pub fn shutdown(&self) -> FabricSnapshot {
        self.closed.store(true, Ordering::Release);
        {
            let mut done = self.final_snapshot.lock().expect("snapshot lock poisoned");
            if let Some(snapshot) = &*done {
                return snapshot.clone();
            }
            // Fence against in-flight promotions, then fall through with
            // the lock *held* so a concurrent shutdown waits for us.
            for arm in &self.arms {
                drop(arm.promote.lock().expect("promote lock poisoned"));
            }
            let mut drained: Vec<ShardTelemetry> = Vec::new();
            std::thread::scope(|scope| {
                let mut handles = Vec::new();
                for arm in &self.arms {
                    let generation = arm.generation.load(Ordering::Relaxed);
                    for (shard, slot) in arm.slots.iter().enumerate() {
                        let taken = slot.write().expect("slot lock poisoned").take();
                        if let Some(gateway) = taken {
                            let name = arm.spec.name.clone();
                            handles.push(scope.spawn(move || ShardTelemetry {
                                arm: name,
                                shard,
                                generation,
                                telemetry: drain(gateway),
                            }));
                        }
                    }
                    let retired =
                        std::mem::take(&mut *arm.retired.lock().expect("retired lock poisoned"));
                    for (generation, gateway) in retired {
                        let name = arm.spec.name.clone();
                        let shard = gateway.telemetry().shard;
                        handles.push(scope.spawn(move || ShardTelemetry {
                            arm: name,
                            shard,
                            generation,
                            telemetry: drain(gateway),
                        }));
                    }
                }
                for handle in handles {
                    drained.push(handle.join().expect("drain thread panicked"));
                }
            });
            let order: Vec<&str> = self.arms.iter().map(|a| a.spec.name.as_str()).collect();
            drained.sort_by_key(|t| {
                (
                    order.iter().position(|n| *n == t.arm).unwrap_or(usize::MAX),
                    t.generation,
                    t.shard,
                )
            });
            let snapshot = self.snapshot_of(drained);
            *done = Some(snapshot.clone());
            snapshot
        }
    }
}

impl Drop for Fabric {
    /// Last-resort drain so dropping a fabric never leaks gateway threads
    /// (explicit [`Fabric::shutdown`] is preferred — it returns the final
    /// snapshot).
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Blocks until `gateway` is uniquely owned (submitters hold clones only
/// for the duration of a `submit` call), then consumes it through the
/// gateway's own graceful drain.
fn drain(mut gateway: Arc<Gateway>) -> vtm_gateway::TelemetrySnapshot {
    loop {
        match Arc::try_unwrap(gateway) {
            Ok(inner) => return inner.shutdown(),
            Err(shared) => {
                gateway = shared;
                std::thread::yield_now();
            }
        }
    }
}

/// The journal base path of one arm generation:
/// `tagged(base, "<arm>-g<generation>")`.
fn arm_journal_base(journal: &JournalOptions, arm: &str, generation: u64) -> PathBuf {
    tagged_journal_path(&journal.path, &format!("{arm}-g{generation}"))
}

/// Builds one shard's service (cheap, from the shared policy) and starts
/// its gateway, with the shard id and the per-shard journal file plumbed
/// into the cloned template config.
fn start_gateway(
    config: &FabricConfig,
    policy: &SharedPolicy,
    arm: &str,
    generation: u64,
    shard: usize,
) -> Result<Gateway, FabricError> {
    let service = PricingService::from_shared(policy, config.service)?;
    let mut gateway_config = config.gateway.clone().with_shard(shard);
    gateway_config.journal = config.journal.as_ref().map(|journal| JournalOptions {
        path: shard_journal_path(&arm_journal_base(journal, arm, generation), shard),
        ..*journal
    });
    Gateway::try_start(Arc::new(service), gateway_config).map_err(FabricError::Gateway)
}
