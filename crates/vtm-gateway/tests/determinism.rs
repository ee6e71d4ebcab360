//! Gateway acceptance tests: the determinism contract (greedy gateway ≡
//! direct `PricingService::quote_batch`, pinned by FNV digests across
//! batching configurations at 1, 2 and 4 executors), micro-batch flush
//! behaviour, admission control, concurrent-ingress completeness and
//! journal replay under concurrent ingress.

use std::sync::Arc;
use std::time::Duration;

use vtm_gateway::{Gateway, GatewayConfig, GatewayError};
use vtm_journal::{
    find_latest_snapshot, find_snapshots, replay_journal, JournalOptions, ReplayOptions,
    StateSnapshot,
};
use vtm_rl::env::ActionSpace;
use vtm_rl::ppo::{PpoAgent, PpoConfig};
use vtm_rl::snapshot::PolicySnapshot;
use vtm_serve::{PricingService, Quote, QuoteRequest, ServiceConfig};

const HISTORY: usize = 4;
const FEATURES: usize = 2;

fn snapshot(seed: u64) -> PolicySnapshot {
    PpoAgent::new(
        PpoConfig::new(HISTORY * FEATURES, 1).with_seed(seed),
        ActionSpace::scalar(5.0, 50.0),
    )
    .snapshot()
}

fn service(snapshot: &PolicySnapshot) -> Arc<PricingService> {
    Arc::new(
        PricingService::from_snapshot(snapshot, ServiceConfig::new(HISTORY, FEATURES)).unwrap(),
    )
}

/// Executor counts the determinism contract is checked at.
const EXECUTORS: [usize; 3] = [1, 2, 4];

/// `(max_batch, max_delay in µs)` configurations the gateway slices the
/// stream with.
const BATCHING: [(usize, u64); 4] = [(1, 0), (3, 200), (9, 1000), (64, 50)];

/// A service config under capacity pressure, so the determinism contract
/// is also exercised against eviction bookkeeping — state a quote-only
/// comparison would miss.
fn pressured_config() -> ServiceConfig {
    ServiceConfig::new(HISTORY, FEATURES).with_session_capacity(12)
}

/// The deterministic request stream both sides replay: `rounds` rounds of
/// one request per session with round/session-dependent features. Odd
/// rounds visit the sessions in reverse, so a store under capacity
/// pressure keeps most sessions warm: in one fixed order, every request
/// for more sessions than the capacity would evict.
fn request_stream(rounds: usize, sessions: usize) -> Vec<Vec<QuoteRequest>> {
    (0..rounds)
        .map(|round| {
            let mut requests: Vec<QuoteRequest> = (0..sessions)
                .map(|s| {
                    QuoteRequest::new(
                        s as u64,
                        (0..FEATURES)
                            .map(|f| ((round * 31 + s * 7 + f) % 13) as f64 / 13.0)
                            .collect(),
                    )
                })
                .collect();
            if round % 2 == 1 {
                requests.reverse();
            }
            requests
        })
        .collect()
}

/// FNV-1a over a stream of 64-bit words (same style as the checkpoint and
/// scenario digest tests).
fn fnv_digest(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for word in words {
        hash ^= word;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn quotes_digest(quotes: &[Quote]) -> u64 {
    fnv_digest(quotes.iter().flat_map(|q| {
        std::iter::once(q.session)
            .chain(std::iter::once(q.warmed as u64))
            .chain(q.action.iter().map(|a| a.to_bits()))
    }))
}

/// What one gateway (or direct) replay of the stream produced: the quote
/// digest, the full service counters (sessions/quotes/evictions)
/// and the byte-identical service-state digest.
#[derive(Debug, PartialEq)]
struct RunOutcome {
    quotes_digest: u64,
    service_stats: vtm_serve::ServiceStats,
    state_digest: u64,
}

/// Replays the stream through a gateway (round by round, waiting each
/// round's tickets in submission order) over a fresh service built with
/// `service_config`, and captures the full outcome.
fn gateway_outcome(
    config: GatewayConfig,
    service_config: ServiceConfig,
    stream: &[Vec<QuoteRequest>],
) -> RunOutcome {
    let service = Arc::new(PricingService::from_snapshot(&snapshot(2), service_config).unwrap());
    let gateway = Gateway::start(Arc::clone(&service), config);
    let mut quotes = Vec::new();
    for round in stream {
        let tickets: Vec<_> = round
            .iter()
            .map(|req| gateway.submit(req.clone()).unwrap())
            .collect();
        for ticket in tickets {
            quotes.push(ticket.wait().unwrap());
        }
    }
    let stats = gateway.shutdown();
    assert_eq!(stats.completed, quotes.len() as u64);
    assert_eq!(stats.failed, 0);
    RunOutcome {
        quotes_digest: quotes_digest(&quotes),
        service_stats: service.stats(),
        state_digest: service.state_digest(),
    }
}

/// The acceptance criterion: in greedy mode, a gateway replay of a request
/// sequence is indistinguishable from direct `PricingService::quote_batch`
/// calls — not just quote-for-quote, but in the *complete* service state:
/// session histories, LRU bookkeeping and the eviction counter — at any
/// executor count and however the executors slice the stream into
/// micro-batches.
#[test]
fn greedy_gateway_matches_quote_batch_digest_at_any_executor_count() {
    // 13 sessions with capacity 12 force evictions, so
    // batch-slicing invariance of that bookkeeping is exercised too (a quote-only comparison would miss divergence there).
    let stream = request_stream(6, 13);

    // Reference: direct caller-formed batches, no gateway.
    let reference =
        Arc::new(PricingService::from_snapshot(&snapshot(2), pressured_config()).unwrap());
    let mut reference_quotes = Vec::new();
    for round in &stream {
        reference_quotes.extend(reference.quote_batch(round).unwrap());
    }
    let reference_outcome = RunOutcome {
        quotes_digest: quotes_digest(&reference_quotes),
        service_stats: reference.stats(),
        state_digest: reference.state_digest(),
    };
    assert!(
        reference_outcome.service_stats.evicted > 0,
        "stream must trigger evictions for the comparison to be meaningful"
    );
    assert!(reference_quotes.iter().any(|q| q.warmed));

    // Gateway under several batching configs: full outcomes must agree.
    for executors in EXECUTORS {
        for (max_batch, delay_us) in BATCHING {
            let config = GatewayConfig::default()
                .with_executors(executors)
                .with_max_batch(max_batch)
                .with_max_delay(Duration::from_micros(delay_us));
            assert_eq!(
                gateway_outcome(config, pressured_config(), &stream),
                reference_outcome,
                "gateway ({executors} executors, max_batch {max_batch}, delay {delay_us}us) \
                 diverged from quote_batch"
            );
        }
    }
}

/// The same determinism contract holds on the quantized f32 serving path:
/// a greedy gateway over an f32 service is outcome-identical (quotes,
/// counters, state digest) to direct f32 `quote_batch` calls at any
/// executor count, because the f32 kernels are batch-slicing invariant just
/// like the f64 ones. Telemetry names the precision it measured.
#[test]
fn greedy_f32_gateway_matches_f32_quote_batch_digest_at_any_executor_count() {
    use vtm_serve::Precision;

    let f32_config = || pressured_config().with_precision(Precision::F32);
    let stream = request_stream(6, 13);

    let reference = Arc::new(PricingService::from_snapshot(&snapshot(2), f32_config()).unwrap());
    let mut reference_quotes = Vec::new();
    for round in &stream {
        reference_quotes.extend(reference.quote_batch(round).unwrap());
    }
    let reference_outcome = RunOutcome {
        quotes_digest: quotes_digest(&reference_quotes),
        service_stats: reference.stats(),
        state_digest: reference.state_digest(),
    };
    assert!(reference_outcome.service_stats.evicted > 0);
    assert!(reference_quotes.iter().any(|q| q.warmed));

    for executors in EXECUTORS {
        for (max_batch, delay_us) in BATCHING {
            let config = GatewayConfig::default()
                .with_executors(executors)
                .with_max_batch(max_batch)
                .with_max_delay(Duration::from_micros(delay_us));
            assert_eq!(
                gateway_outcome(config, f32_config(), &stream),
                reference_outcome,
                "f32 gateway ({executors} executors, max_batch {max_batch}) diverged from \
                 f32 quote_batch"
            );
        }
    }

    // The precision mode is plumbed through to gateway telemetry.
    let service = Arc::new(PricingService::from_snapshot(&snapshot(2), f32_config()).unwrap());
    let gateway = Gateway::start(service, GatewayConfig::default());
    assert_eq!(gateway.telemetry().precision, "f32");
    let stats = gateway.shutdown();
    assert_eq!(stats.precision, "f32");
    let mut registry = vtm_obs::MetricsRegistry::new();
    stats.register_metrics(&mut registry, &[]);
    assert!(registry.render_json().contains("\"precision\": \"f32\""));
}

/// A full batch flushes immediately — well before a long deadline.
#[test]
fn full_batches_flush_before_the_deadline() {
    let gateway = Gateway::start(
        service(&snapshot(3)),
        GatewayConfig::default()
            .with_max_batch(4)
            .with_max_delay(Duration::from_secs(30)),
    );
    let stream = request_stream(1, 8);
    let tickets: Vec<_> = stream[0]
        .iter()
        .map(|r| gateway.submit(r.clone()).unwrap())
        .collect();
    for ticket in tickets {
        let quote = ticket
            .wait_timeout(Duration::from_secs(10))
            .expect("full batches must flush without waiting for the 30s deadline")
            .unwrap();
        assert!(quote.price() >= 5.0 && quote.price() <= 50.0);
    }
    let stats = gateway.shutdown();
    assert_eq!(stats.completed, 8);
    assert!(
        stats.batches >= 2,
        "8 requests at max_batch 4 need >= 2 batches"
    );
    assert!(stats.max_batch_size <= 4);
}

/// An under-full batch flushes when `max_delay` fires.
#[test]
fn deadline_flushes_partial_batches() {
    let gateway = Gateway::start(
        service(&snapshot(4)),
        GatewayConfig::default()
            .with_max_batch(64)
            .with_max_delay(Duration::from_millis(2)),
    );
    let stream = request_stream(1, 3);
    let tickets: Vec<_> = stream[0]
        .iter()
        .map(|r| gateway.submit(r.clone()).unwrap())
        .collect();
    for ticket in tickets {
        assert!(ticket
            .wait_timeout(Duration::from_secs(10))
            .expect("deadline must flush a 3-request batch long before 64 accumulate")
            .is_ok());
    }
    let stats = gateway.shutdown();
    assert_eq!(stats.completed, 3);
    assert!(stats.batches >= 1);
    assert!(stats.mean_batch_size <= 3.0);
    assert_eq!(stats.queue_depth, 0);
}

/// Admission control: once `queue_capacity` requests are in flight,
/// further submissions are rejected with backpressure, not queued.
#[test]
fn admission_control_rejects_beyond_capacity() {
    // A huge batch threshold plus a long deadline parks admitted requests
    // in the forming batch, keeping them in flight deterministically.
    let gateway = Gateway::start(
        service(&snapshot(5)),
        GatewayConfig::default()
            .with_max_batch(64)
            .with_max_delay(Duration::from_secs(30))
            .with_queue_capacity(2),
    );
    let stream = request_stream(1, 3);
    let _a = gateway.submit(stream[0][0].clone()).unwrap();
    let _b = gateway.submit(stream[0][1].clone()).unwrap();
    match gateway.submit(stream[0][2].clone()) {
        Err(GatewayError::Overloaded { queue_capacity }) => assert_eq!(queue_capacity, 2),
        other => panic!("expected Overloaded, got {other:?}"),
    }
    let stats = gateway.shutdown(); // drains the two admitted requests
    assert_eq!(stats.rejected, 1);
    assert_eq!(stats.completed, 2);
    assert_eq!(stats.queue_depth, 0);
}

/// Malformed requests are rejected at the door with a typed error and
/// never consume queue capacity.
#[test]
fn bad_feature_blocks_are_rejected_at_submit() {
    let gateway = Gateway::start(service(&snapshot(6)), GatewayConfig::default());
    match gateway.submit(QuoteRequest::new(11, vec![0.0; 5])) {
        Err(GatewayError::BadFeatureBlock {
            session,
            expected,
            got,
        }) => {
            assert_eq!((session, expected, got), (11, FEATURES, 5));
        }
        other => panic!("expected BadFeatureBlock, got {other:?}"),
    }
    let stats = gateway.shutdown();
    assert_eq!(stats.submitted, 0);
    assert_eq!(stats.rejected, 0, "malformed requests are not backpressure");
}

/// A service outlives its gateway: after the first gateway is dropped, a
/// fresh gateway on the same (still warm) service quotes.
#[test]
fn a_service_outlives_its_gateway() {
    let service = service(&snapshot(7));
    let gateway = Gateway::start(Arc::clone(&service), GatewayConfig::default());
    let request = request_stream(1, 1)[0][0].clone();
    assert!(gateway.quote(request.clone()).is_ok());
    drop(gateway);
    // A fresh gateway on the same (still warm) service works fine.
    let gateway = Gateway::start(service, GatewayConfig::default());
    assert!(gateway.quote(request).is_ok());
}

/// Many concurrent ingress threads, several executors: every admitted
/// request completes exactly once and the telemetry books balance.
#[test]
fn concurrent_ingress_threads_complete_everything() {
    let gateway = Arc::new(Gateway::start(
        service(&snapshot(8)),
        GatewayConfig::default()
            .with_max_batch(16)
            .with_max_delay(Duration::from_micros(200))
            .with_executors(2)
            .with_queue_capacity(4096),
    ));
    const THREADS: usize = 4;
    const PER_THREAD: usize = 50;
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let gateway = Arc::clone(&gateway);
            scope.spawn(move || {
                for i in 0..PER_THREAD {
                    let session = (t * PER_THREAD + i) as u64;
                    let quote = gateway
                        .quote(QuoteRequest::new(session, vec![0.25, 0.75]))
                        .unwrap();
                    assert_eq!(quote.session, session);
                }
            });
        }
    });
    let stats = Arc::into_inner(gateway)
        .expect("all clients done")
        .shutdown();
    assert_eq!(stats.submitted, (THREADS * PER_THREAD) as u64);
    assert_eq!(stats.completed, (THREADS * PER_THREAD) as u64);
    assert_eq!(stats.failed, 0);
    assert_eq!(stats.queue_depth, 0);
    assert!(stats.batches > 0);
    assert!(stats.latency.p99_us() >= stats.latency.p50_us());
}

/// Many ingress threads, several executors, one journal: each thread
/// submits all its requests before it waits on any, the threads share
/// sessions and the store is under capacity pressure, so batches taken by
/// different executors touch the same sessions at once. In each of 20 runs
/// the journal replays to the live state, from genesis and from its latest
/// snapshot plus the suffix.
#[test]
fn concurrent_ingress_threads_on_shared_sessions_replay_to_live_state() {
    const THREADS: usize = 4;
    const PER_THREAD: usize = 40;
    let snap = snapshot(9);
    let fresh = || PricingService::from_snapshot(&snap, pressured_config()).unwrap();
    for run in 0..20 {
        let journal = std::env::temp_dir().join(format!(
            "vtm_gw_concurrent_replay_{run}_{}.vtmj",
            std::process::id()
        ));
        let service = Arc::new(fresh());
        let gateway = Gateway::try_start(
            Arc::clone(&service),
            GatewayConfig::default()
                .with_max_batch(8)
                .with_max_delay(Duration::from_micros(100))
                .with_executors(4)
                .with_queue_capacity(4096)
                .with_journal(JournalOptions::new(&journal).with_snapshot_every(37)),
        )
        .unwrap();
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let gateway = &gateway;
                scope.spawn(move || {
                    let tickets: Vec<_> = (0..PER_THREAD)
                        .map(|i| {
                            let session = ((t + 3 * i) % 13) as u64;
                            let feature = ((t * PER_THREAD + i) % 17) as f64 / 17.0;
                            let request = QuoteRequest::new(session, vec![feature, 0.5]);
                            gateway.submit(request).unwrap()
                        })
                        .collect();
                    for ticket in tickets {
                        ticket.wait().unwrap();
                    }
                });
            }
        });
        let stats = gateway.shutdown();
        assert_eq!(stats.completed, (THREADS * PER_THREAD) as u64, "run {run}");
        assert!(service.stats().evicted > 0, "run {run}");
        let live = service.state_digest();
        let report = replay_journal(&fresh(), &journal, None, &ReplayOptions::default()).unwrap();
        assert_eq!(report.state_digest, live, "run {run}: replay from genesis");
        let (_, latest) = find_latest_snapshot(&journal).expect("snapshots were taken");
        let latest = StateSnapshot::load_from(&latest).unwrap();
        let report =
            replay_journal(&fresh(), &journal, Some(&latest), &ReplayOptions::default()).unwrap();
        assert_eq!(
            report.state_digest, live,
            "run {run}: replay from a snapshot"
        );
        for (_, path) in find_snapshots(&journal) {
            let _ = std::fs::remove_file(path);
        }
        let _ = std::fs::remove_file(&journal);
    }
}
