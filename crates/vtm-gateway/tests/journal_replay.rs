//! End-to-end journal/replay equivalence: a journaling gateway run, at any
//! executor count, must be reconstructible — byte-identical service state
//! — from (a) the journal alone, (b) a mid-run snapshot alone, and (c) the
//! latest snapshot plus the journal suffix; and all of them must equal a
//! direct `PricingService::quote_batch` replay of the same admission
//! sequence.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use vtm_gateway::{Gateway, GatewayConfig};
use vtm_journal::{
    find_latest_snapshot, find_snapshots, replay_journal, scan_journal, JournalOptions,
    ReplayOptions, ScanMode, StateSnapshot,
};
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

/// Capacity pressure so replay must also reconstruct eviction
/// bookkeeping, not just request histories.
fn service_config() -> ServiceConfig {
    ServiceConfig::new(HISTORY, FEATURES).with_session_capacity(12)
}

fn fresh_service(snap: &PolicySnapshot) -> PricingService {
    PricingService::from_snapshot(snap, service_config()).unwrap()
}

fn requests(total: usize) -> Vec<QuoteRequest> {
    (0..total)
        .map(|i| {
            QuoteRequest::new(
                (i % 17) as u64,
                vec![((i * 7) % 13) as f64 / 13.0, ((i * 3) % 5) as f64 / 5.0],
            )
        })
        .collect()
}

fn temp_journal(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("vtm_gw_replay_{tag}_{}.vtmj", std::process::id()))
}

fn cleanup(journal: &PathBuf) {
    for (_, path) in find_snapshots(journal) {
        let _ = std::fs::remove_file(path);
    }
    let _ = std::fs::remove_file(journal);
}

/// Runs a journaling gateway with `executors` executors over `reqs`
/// (submitted from one thread, so admission order is the submission order)
/// and returns the live service's final state digest.
fn journaled_gateway_run(
    journal: &PathBuf,
    snap: &PolicySnapshot,
    reqs: &[QuoteRequest],
    executors: usize,
) -> u64 {
    let service = Arc::new(fresh_service(snap));
    let gateway = Gateway::try_start(
        Arc::clone(&service),
        GatewayConfig::default()
            .with_executors(executors)
            .with_max_batch(8)
            .with_max_delay(Duration::from_micros(200))
            .with_journal(
                JournalOptions::new(journal)
                    .with_flush_every(4)
                    .with_snapshot_every(25),
            ),
    )
    .unwrap();
    let tickets: Vec<_> = reqs
        .iter()
        .map(|r| gateway.submit(r.clone()).unwrap())
        .collect();
    for ticket in tickets {
        ticket.wait().unwrap();
    }
    let stats = gateway.shutdown();
    assert_eq!(stats.completed, reqs.len() as u64);
    assert_eq!(stats.journal_frames, reqs.len() as u64);
    assert!(stats.journal_bytes > 0);
    assert!(
        stats.snapshots >= 1,
        "{} requests at snapshot_every=25 must produce periodic snapshots ({executors} executors)",
        reqs.len()
    );
    service.state_digest()
}

#[test]
fn gateway_journal_replays_to_identical_state_from_every_starting_point() {
    for executors in [1, 2, 4] {
        assert_replays_from_every_starting_point(executors);
    }
}

fn assert_replays_from_every_starting_point(executors: usize) {
    let snap = policy(61);
    let reqs = requests(80);
    let journal = temp_journal(&format!("equivalence_{executors}"));
    let live_digest = journaled_gateway_run(&journal, &snap, &reqs, executors);

    // The journal holds exactly the admission sequence.
    let scanned = scan_journal(&journal, ScanMode::Strict).unwrap();
    assert_eq!(scanned.frames.len(), reqs.len());
    for (frame, req) in scanned.frames.iter().zip(&reqs) {
        assert_eq!(
            &frame.request, req,
            "journaled frame differs from submission"
        );
    }

    // (0) Direct quote_batch over the same sequence — the ground truth the
    // gateway determinism contract pins everything else to.
    let direct = fresh_service(&snap);
    direct.quote_batch(&reqs).unwrap();
    assert_eq!(direct.state_digest(), live_digest);

    // (a) Replay from genesis (empty state).
    let from_empty = fresh_service(&snap);
    let report = replay_journal(&from_empty, &journal, None, &ReplayOptions::default()).unwrap();
    assert_eq!(report.frames_applied, 80);
    assert_eq!(report.state_digest, live_digest);

    // (b) A mid-run snapshot alone reproduces its own prefix exactly.
    let snapshots = find_snapshots(&journal);
    assert!(!snapshots.is_empty());
    let (frames, path) = &snapshots[0];
    let mid = StateSnapshot::load_from(path).unwrap();
    assert_eq!(mid.frames_applied, *frames);
    let prefix_reference = fresh_service(&snap);
    prefix_reference
        .quote_batch(&reqs[..*frames as usize])
        .unwrap();
    let from_snapshot_only = fresh_service(&snap);
    mid.restore_into(&from_snapshot_only).unwrap();
    assert_eq!(
        from_snapshot_only.state_digest(),
        prefix_reference.state_digest(),
        "snapshot state differs from a direct replay of its prefix"
    );

    // (c) Latest snapshot + journal suffix reaches the same final state.
    let (latest_frames, latest_path) = find_latest_snapshot(&journal).unwrap();
    let latest = StateSnapshot::load_from(&latest_path).unwrap();
    let resumed = fresh_service(&snap);
    let report =
        replay_journal(&resumed, &journal, Some(&latest), &ReplayOptions::default()).unwrap();
    assert_eq!(report.start_seq, latest_frames);
    assert_eq!(report.frames_applied, 80 - latest_frames);
    assert_eq!(report.state_digest, live_digest);

    cleanup(&journal);
}

/// A second journaling run over the same stream, at another executor
/// count, produces a byte-identical journal and the same state — the audit
/// trail itself is deterministic.
#[test]
fn journaling_is_deterministic_across_runs() {
    let snap = policy(62);
    let reqs = requests(40);
    let journal_a = temp_journal("deterministic_a");
    let journal_b = temp_journal("deterministic_b");
    let digest_a = journaled_gateway_run(&journal_a, &snap, &reqs, 1);
    let digest_b = journaled_gateway_run(&journal_b, &snap, &reqs, 4);
    assert_eq!(digest_a, digest_b);
    assert_eq!(
        std::fs::read(&journal_a).unwrap(),
        std::fs::read(&journal_b).unwrap(),
        "two runs over the same stream wrote different journals"
    );
    cleanup(&journal_a);
    cleanup(&journal_b);
}

/// Journal creation failure surfaces as a typed error from `try_start`,
/// and `journal_frames` telemetry stays zero without journaling.
#[test]
fn journal_failures_and_disabled_journaling_are_clean() {
    let snap = policy(63);
    let service = Arc::new(fresh_service(&snap));
    // A journal path inside a nonexistent directory cannot be created.
    let bad = std::env::temp_dir()
        .join(format!("vtm_gw_replay_missing_dir_{}", std::process::id()))
        .join("requests.vtmj");
    match Gateway::try_start(
        Arc::clone(&service),
        GatewayConfig::default().with_journal(JournalOptions::new(&bad)),
    ) {
        Err(vtm_gateway::GatewayError::Journal(msg)) => assert!(!msg.is_empty()),
        other => panic!("expected GatewayError::Journal, got {other:?}"),
    }
    // Without journaling the new counters stay zero.
    let gateway = Gateway::start(service, GatewayConfig::default());
    gateway.quote(QuoteRequest::new(1, vec![0.5, 0.5])).unwrap();
    let stats = gateway.shutdown();
    assert_eq!(stats.journal_frames, 0);
    assert_eq!(stats.journal_bytes, 0);
    assert_eq!(stats.snapshots, 0);
    let mut registry = vtm_obs::MetricsRegistry::new();
    stats.register_metrics(&mut registry, &[]);
    assert!(registry
        .render_text()
        .contains("vtm_gateway_snapshots_total 0\n"));
}

/// A NaN or infinite feature is refused at submit with a typed error that
/// names the session and the feature: no admission slot, no journal frame,
/// and the service state is the one the clean requests left.
#[test]
fn non_finite_features_are_rejected_before_admission_and_the_journal() {
    let snap = policy(64);
    let reqs = requests(12);
    let journal = temp_journal("non_finite");
    let service = Arc::new(fresh_service(&snap));
    let gateway = Gateway::try_start(
        Arc::clone(&service),
        GatewayConfig::default()
            .with_executors(1)
            .with_journal(JournalOptions::new(&journal)),
    )
    .unwrap();
    for req in &reqs {
        gateway.quote(req.clone()).unwrap();
    }
    let digest = service.state_digest();
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        for index in 0..FEATURES {
            let mut features = vec![0.5; FEATURES];
            features[index] = bad;
            match gateway.submit(QuoteRequest::new(5, features)) {
                Err(
                    err @ vtm_gateway::GatewayError::NonFiniteFeature {
                        session: 5,
                        index: i,
                    },
                ) if i == index => {
                    assert!(!err.to_string().is_empty());
                }
                other => panic!("{bad} at {index}: expected NonFiniteFeature, got {other:?}"),
            }
            assert_eq!(service.state_digest(), digest, "{bad} at {index}");
        }
    }
    let stats = gateway.shutdown();
    assert_eq!(stats.submitted, reqs.len() as u64);
    assert_eq!(stats.rejected, 0, "malformed requests are not backpressure");
    assert_eq!(stats.journal_frames, reqs.len() as u64);
    assert_eq!(service.state_digest(), digest);
    let scanned = scan_journal(&journal, ScanMode::Strict).unwrap();
    assert_eq!(scanned.frames.len(), reqs.len());
    let replayed = fresh_service(&snap);
    let report = replay_journal(&replayed, &journal, None, &ReplayOptions::default()).unwrap();
    assert_eq!(report.state_digest, digest);
    cleanup(&journal);
}
