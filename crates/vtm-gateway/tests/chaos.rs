//! Fixed-seed chaos suite: deterministic fault plans injected into a live
//! gateway, asserting the liveness invariant (every submitted ticket
//! resolves — no `wait` hangs), exact fault telemetry (`panics`,
//! `expired`, journal counters) and journal/replay equivalence under
//! partial failure.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use vtm_gateway::{FaultPlan, Gateway, GatewayConfig, GatewayError};
use vtm_journal::{scan_journal, JournalOptions, ScanMode};
use vtm_rl::env::ActionSpace;
use vtm_rl::ppo::{PpoAgent, PpoConfig};
use vtm_rl::snapshot::PolicySnapshot;
use vtm_serve::{PricingService, QuoteRequest, ServiceConfig};

const HISTORY: usize = 3;
const FEATURES: usize = 2;

fn policy(seed: u64) -> PolicySnapshot {
    PpoAgent::new(
        PpoConfig::new(HISTORY * FEATURES, 1).with_seed(seed),
        ActionSpace::scalar(5.0, 50.0),
    )
    .snapshot()
}

fn fresh_service(snap: &PolicySnapshot) -> Arc<PricingService> {
    Arc::new(PricingService::from_snapshot(snap, ServiceConfig::new(HISTORY, FEATURES)).unwrap())
}

fn requests(total: usize) -> Vec<QuoteRequest> {
    (0..total)
        .map(|i| {
            QuoteRequest::new(
                (i % 5) as u64,
                vec![((i * 7) % 13) as f64 / 13.0, ((i * 3) % 5) as f64 / 5.0],
            )
        })
        .collect()
}

fn temp_journal(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("vtm_gw_chaos_{tag}_{}.vtmj", std::process::id()))
}

fn cleanup(journal: &PathBuf) {
    let _ = std::fs::remove_file(journal);
}

/// Polls `cond` until it holds or `timeout` elapses; returns the final
/// evaluation (an expired ticket resolves just before the executor counts
/// the expiry, so the counter settles within microseconds of the wait).
fn eventually(timeout: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    loop {
        if cond() {
            return true;
        }
        if Instant::now() >= deadline {
            return cond();
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// The reference for digest comparisons: the same requests priced directly,
/// one call per request (≡ a fault-free gateway).
fn reference_digest(snap: &PolicySnapshot, reqs: &[QuoteRequest]) -> u64 {
    let service = fresh_service(snap);
    for req in reqs {
        service.quote_batch(std::slice::from_ref(req)).unwrap();
    }
    service.state_digest()
}

/// A single-request-batch gateway: with `max_batch == 1` and sequential
/// waited submission, batch index N is exactly request N, so fault plans
/// target specific requests deterministically.
fn serial_config() -> GatewayConfig {
    GatewayConfig::default()
        .with_executors(1)
        .with_max_batch(1)
        .with_max_delay(Duration::from_micros(100))
}

/// Executor panic mid-run: only the panicked batch's ticket fails, and the
/// same executor goes on to price every later request. The panic fires in
/// pricing, after the serial step advanced the request's session.
#[test]
fn executor_panic_fails_only_its_batch_and_the_executor_moves_on() {
    let snap = policy(71);
    let service = fresh_service(&snap);
    let gateway = Gateway::start(
        Arc::clone(&service),
        serial_config().with_faults(FaultPlan::new(1).with_executor_panic(2)),
    );
    let reqs = requests(6);
    let mut completed = 0u64;
    for (i, req) in reqs.iter().enumerate() {
        let result = gateway
            .submit(req.clone())
            .unwrap()
            .wait_timeout(Duration::from_secs(30))
            .expect("liveness: every ticket must resolve under an executor panic");
        if i == 2 {
            assert_eq!(result, Err(GatewayError::ExecutorFailed), "request {i}");
        } else {
            assert_eq!(result.unwrap().session, req.session, "request {i}");
            completed += 1;
        }
    }
    let stats = gateway.shutdown();
    assert_eq!(stats.panics, 1);
    assert_eq!(stats.completed, completed);
    assert_eq!(stats.completed, 5);
    assert_eq!(stats.failed, 1);
    assert_eq!(
        stats.queue_depth, 0,
        "every admission slot must be released"
    );
    // The panicked request lost its quote, not its place in the session
    // history: the live state equals the reference over all six requests.
    assert_eq!(service.state_digest(), reference_digest(&snap, &reqs));
}

/// A deadline storm: every queued request has expired when its batch is
/// taken; all tickets resolve with `DeadlineExceeded` and nothing is
/// priced, but every request advanced its session.
#[test]
fn deadline_storm_expires_every_request_with_exact_counters() {
    let service = fresh_service(&policy(72));
    let gateway = Gateway::start(
        Arc::clone(&service),
        GatewayConfig::default()
            .with_executors(1)
            .with_max_batch(32)
            .with_max_delay(Duration::from_millis(1))
            .with_default_deadline(Duration::ZERO),
    );
    let tickets: Vec<_> = requests(6)
        .into_iter()
        .map(|req| gateway.submit(req).unwrap())
        .collect();
    for ticket in tickets {
        let result = ticket
            .wait_timeout(Duration::from_secs(30))
            .expect("liveness: expired tickets must still resolve");
        assert_eq!(result, Err(GatewayError::DeadlineExceeded));
    }
    assert!(
        eventually(Duration::from_secs(10), || gateway.telemetry().expired == 6),
        "the executor must expire all six requests"
    );
    let stats = gateway.shutdown();
    assert_eq!(stats.expired, 6);
    assert_eq!(stats.completed, 0);
    assert_eq!(stats.failed, 0, "expiry is not a failure");
    assert_eq!(stats.queue_depth, 0);
    assert_eq!(
        service.stats().quotes,
        6,
        "expired work is applied to session state"
    );
}

/// Deadline-aware `wait`: the caller unblocks at the deadline even while
/// the request is still parked in the forming batch, and the pipeline
/// expires the request on its own afterwards — nothing leaks.
#[test]
fn wait_unblocks_at_the_deadline_before_the_pipeline_resolves() {
    let gateway = Gateway::start(
        fresh_service(&policy(73)),
        GatewayConfig::default()
            .with_max_batch(64)
            .with_max_delay(Duration::from_millis(300))
            .with_default_deadline(Duration::from_millis(30)),
    );
    let ticket = gateway.submit(requests(1).pop().unwrap()).unwrap();
    let started = Instant::now();
    assert_eq!(ticket.wait(), Err(GatewayError::DeadlineExceeded));
    assert!(
        started.elapsed() < Duration::from_millis(250),
        "wait must unblock at the 30ms deadline, not the 300ms flush"
    );
    assert!(
        eventually(Duration::from_secs(10), || gateway.telemetry().expired == 1),
        "the executor must expire the parked request on its own"
    );
    let stats = gateway.shutdown();
    assert_eq!(
        (stats.expired, stats.completed, stats.queue_depth),
        (1, 0, 0)
    );
}

/// Journal append failure under `FailStop`: the request is rejected and
/// un-admitted, the journal records exactly the successful admissions, and
/// replaying it reproduces the live state bit-for-bit.
#[test]
fn journal_failstop_rejects_the_request_and_keeps_replay_exact() {
    let snap = policy(74);
    let journal = temp_journal("failstop");
    cleanup(&journal);
    let service = fresh_service(&snap);
    let gateway = Gateway::try_start(
        Arc::clone(&service),
        serial_config()
            .with_journal(JournalOptions::new(&journal))
            .with_journal_retries(0)
            .with_faults(FaultPlan::new(2).with_journal_error(2, std::io::ErrorKind::StorageFull)),
    )
    .unwrap();
    let reqs = requests(8);
    let mut admitted = Vec::new();
    for (i, req) in reqs.iter().enumerate() {
        match gateway.submit(req.clone()) {
            Ok(ticket) => {
                ticket
                    .wait_timeout(Duration::from_secs(30))
                    .expect("liveness under journal faults")
                    .unwrap();
                admitted.push(req.clone());
            }
            Err(GatewayError::Journal(msg)) => {
                assert_eq!(i, 2, "only append attempt 2 is injected");
                assert!(!msg.is_empty());
            }
            Err(other) => panic!("unexpected error: {other:?}"),
        }
    }
    let stats = gateway.shutdown();
    assert_eq!(admitted.len(), 7);
    assert_eq!(stats.submitted, 7, "a fail-stopped request is un-admitted");
    assert_eq!(stats.completed, 7);
    assert_eq!(stats.journal_frames, 7);
    assert_eq!(stats.journal_retries, 0);
    // The journal holds exactly the admitted requests, in admission order,
    // and replays to the live state.
    let scanned = scan_journal(&journal, ScanMode::Strict).unwrap();
    let frames: Vec<QuoteRequest> = scanned.frames.into_iter().map(|f| f.request).collect();
    assert_eq!(frames, admitted);
    assert_eq!(service.state_digest(), reference_digest(&snap, &frames));
    cleanup(&journal);
}

/// Bounded retry heals transient journal errors: two injected failures are
/// absorbed by one retry each, every frame lands, and the digest matches a
/// fault-free run.
#[test]
fn journal_retries_heal_transient_errors_without_losing_frames() {
    let snap = policy(76);
    let journal = temp_journal("healing");
    cleanup(&journal);
    let service = fresh_service(&snap);
    let gateway = Gateway::try_start(
        Arc::clone(&service),
        serial_config()
            .with_journal(JournalOptions::new(&journal))
            .with_journal_retries(2)
            .with_journal_backoff(Duration::from_micros(50))
            .with_faults(
                FaultPlan::new(4)
                    .with_journal_error(2, std::io::ErrorKind::Interrupted)
                    .with_journal_error(5, std::io::ErrorKind::WouldBlock),
            ),
    )
    .unwrap();
    let reqs = requests(8);
    for req in &reqs {
        gateway
            .submit(req.clone())
            .unwrap()
            .wait_timeout(Duration::from_secs(30))
            .expect("liveness under healed journal faults")
            .unwrap();
    }
    let stats = gateway.shutdown();
    // Attempts 0,1 ok; attempt 2 (request 2) fails once, heals on attempt
    // 3; attempt 4 ok; attempt 5 (request 4) fails once, heals on 6.
    assert_eq!(stats.journal_retries, 2);
    assert_eq!(stats.journal_frames, 8);
    assert_eq!(stats.completed, 8);
    let scanned = scan_journal(&journal, ScanMode::Strict).unwrap();
    assert_eq!(scanned.frames.len(), 8);
    assert_eq!(service.state_digest(), reference_digest(&snap, &reqs));
    cleanup(&journal);
}

/// A request parked in a forming batch by a long `max_delay`: a timed-out
/// `wait_timeout` neither consumes nor leaks the ticket, and shutdown
/// flushes the batch, so the same ticket then yields its quote.
#[test]
fn shutdown_flushes_a_parked_batch_so_a_timed_out_ticket_still_resolves() {
    let gateway = Gateway::start(
        fresh_service(&policy(78)),
        GatewayConfig::default()
            .with_max_batch(64)
            .with_max_delay(Duration::from_secs(600)),
    );
    let request = requests(1).pop().unwrap();
    let ticket = gateway.submit(request.clone()).unwrap();
    assert_eq!(ticket.wait_timeout(Duration::from_millis(5)), None);
    let stats = gateway.shutdown();
    assert_eq!(
        (stats.completed, stats.batches, stats.queue_depth),
        (1, 1, 0)
    );
    let quote = ticket
        .wait_timeout(Duration::from_secs(1))
        .expect("shutdown must resolve the parked ticket")
        .unwrap();
    assert_eq!(quote.session, request.session);
}

/// The flush timer runs from the head request's submission, not from when
/// an executor gets to look: a request that sat out `max_delay` while the
/// only executor was busy flushes the moment that executor frees up.
#[test]
fn max_delay_counts_from_submission_while_the_executor_is_busy() {
    let gateway = Gateway::start(
        fresh_service(&policy(77)),
        GatewayConfig::default()
            .with_executors(1)
            .with_max_batch(64)
            .with_max_delay(Duration::from_millis(200))
            .with_faults(FaultPlan::new(5).with_batch_delay(Duration::from_millis(600), 1)),
    );
    let mut reqs = requests(2).into_iter();
    let started = Instant::now();
    // Batch 0 flushes at ~200 ms and keeps the executor busy until ~800 ms.
    let first = gateway.submit(reqs.next().unwrap()).unwrap();
    std::thread::sleep(Duration::from_millis(300).saturating_sub(started.elapsed()));
    let submitted = Instant::now();
    let second = gateway.submit(reqs.next().unwrap()).unwrap();
    second
        .wait_timeout(Duration::from_secs(30))
        .expect("liveness")
        .unwrap();
    let waited = submitted.elapsed();
    assert!(
        waited < Duration::from_millis(650),
        "the second request waited {waited:?}: its 200 ms flush timer had \
         run out when the executor freed up ~500 ms after it was submitted"
    );
    assert!(first.wait().is_ok());
    let stats = gateway.shutdown();
    assert_eq!((stats.batches, stats.completed), (2, 2));
}

/// A default deadline past the clock's range means "no deadline": submit
/// neither panics nor leaks its admission slot.
#[test]
fn a_default_deadline_past_the_clock_range_is_no_deadline() {
    let gateway = Gateway::start(
        fresh_service(&policy(82)),
        serial_config().with_default_deadline(Duration::MAX),
    );
    assert!(gateway.quote(requests(1).pop().unwrap()).is_ok());
    let stats = gateway.shutdown();
    assert_eq!(
        (stats.completed, stats.expired, stats.queue_depth),
        (1, 0, 0)
    );
}

/// A `max_delay` past the clock's range means "no time bound": a batch
/// still flushes on `max_batch` and at shutdown, and forming one never
/// panics while holding the ingress lock.
#[test]
fn a_max_delay_past_the_clock_range_flushes_on_size_and_shutdown() {
    let gateway = Gateway::start(
        fresh_service(&policy(83)),
        GatewayConfig::default()
            .with_max_batch(2)
            .with_max_delay(Duration::MAX),
    );
    let tickets: Vec<_> = requests(3)
        .into_iter()
        .map(|req| gateway.submit(req).unwrap())
        .collect();
    for ticket in &tickets[..2] {
        assert!(matches!(
            ticket.wait_timeout(Duration::from_secs(30)),
            Some(Ok(_))
        ));
    }
    assert_eq!(tickets[2].wait_timeout(Duration::from_millis(5)), None);
    drop(gateway);
    assert!(matches!(
        tickets[2].wait_timeout(Duration::from_secs(1)),
        Some(Ok(_))
    ));
}

/// `wait_timeout` with a timeout past the clock's range waits without
/// bound instead of panicking in the caller.
#[test]
fn a_wait_timeout_past_the_clock_range_waits_for_the_quote() {
    let gateway = Gateway::start(fresh_service(&policy(84)), serial_config());
    let ticket = gateway.submit(requests(1).pop().unwrap()).unwrap();
    assert!(matches!(ticket.wait_timeout(Duration::MAX), Some(Ok(_))));
}

/// A fault plan with nothing armed changes nothing: the run is equivalent
/// to a fault-free gateway, bit-for-bit.
#[test]
fn empty_fault_plan_is_behaviourally_invisible() {
    let snap = policy(81);
    let reqs = requests(12);
    let service = fresh_service(&snap);
    let gateway = Gateway::start(
        Arc::clone(&service),
        serial_config().with_faults(FaultPlan::new(99)),
    );
    for req in &reqs {
        gateway
            .submit(req.clone())
            .unwrap()
            .wait_timeout(Duration::from_secs(30))
            .expect("liveness")
            .unwrap();
    }
    let stats = gateway.shutdown();
    assert_eq!(stats.completed, 12);
    assert_eq!((stats.panics, stats.expired), (0, 0));
    assert_eq!(service.state_digest(), reference_digest(&snap, &reqs));
}
