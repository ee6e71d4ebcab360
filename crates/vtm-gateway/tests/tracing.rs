//! Acceptance tests for end-to-end request tracing: the logical-clock
//! stage-decomposition identity, sampling determinism, ring-buffer wrap and
//! the tracing-disabled fast path.

use std::sync::Arc;

use vtm_gateway::{Gateway, GatewayConfig, TracerConfig};
use vtm_journal::JournalOptions;
use vtm_rl::env::ActionSpace;
use vtm_rl::ppo::{PpoAgent, PpoConfig};
use vtm_serve::{PricingService, QuoteRequest, ServiceConfig};

const HISTORY: usize = 4;
const FEATURES: usize = 2;

fn service() -> Arc<PricingService> {
    let agent = PpoAgent::new(
        PpoConfig::new(HISTORY * FEATURES, 1).with_seed(17),
        ActionSpace::scalar(5.0, 50.0),
    );
    Arc::new(
        PricingService::from_snapshot(&agent.snapshot(), ServiceConfig::new(HISTORY, FEATURES))
            .unwrap(),
    )
}

fn request(round: usize, session: u64) -> QuoteRequest {
    QuoteRequest::new(
        session,
        (0..FEATURES)
            .map(|f| ((round * 31 + session as usize * 7 + f) % 13) as f64 / 13.0)
            .collect(),
    )
}

/// In logical-clock mode the telescoping identity holds *exactly* for every
/// record: admission + queue_wait + batch_form + inference + resolve ==
/// resolved - admit. Serial submit → wait additionally pins each stage to
/// one tick, so the decomposition is bit-reproducible.
#[test]
fn logical_clock_decomposition_is_exact_and_deterministic() {
    let run = || {
        let gateway = Gateway::start(
            service(),
            GatewayConfig::default().with_tracing(
                TracerConfig::default()
                    .with_sample_every(1)
                    .with_logical_clock(true),
            ),
        );
        for round in 0..4 {
            for session in 0..8u64 {
                gateway
                    .submit(request(round, session))
                    .unwrap()
                    .wait()
                    .unwrap();
            }
        }
        let records = gateway.trace_records();
        let snapshot = gateway.shutdown();
        (records, snapshot)
    };
    let (records, snapshot) = run();
    assert_eq!(records.len(), 32);
    for record in &records {
        let stages = record.stages();
        assert_eq!(
            stages.admission_us
                + stages.queue_wait_us
                + stages.batch_form_us
                + stages.inference_us
                + stages.resolve_us,
            stages.total_us,
            "identity violated for {record:?}"
        );
        assert_eq!(
            stages.total_us, 5,
            "serial run must cost 5 ticks: {record:?}"
        );
        assert_eq!(record.batch_size(), 1);
    }
    let stage_snapshot = snapshot.stages.expect("tracing was enabled");
    assert_eq!(stage_snapshot.traced, 32);
    assert_eq!(stage_snapshot.inference.count, 32);
    // Journal disabled → the journal stage never fires.
    assert_eq!(stage_snapshot.journal_append.count, 0);

    // The whole decomposition — not just the identity — reproduces.
    let (again, _) = run();
    let stamps: Vec<_> = records
        .iter()
        .map(|r| (r.admit_us, r.resolved_us))
        .collect();
    let stamps_again: Vec<_> = again.iter().map(|r| (r.admit_us, r.resolved_us)).collect();
    assert_eq!(stamps, stamps_again);
}

/// 1-in-N sampling picks the same deterministic subset of trace ids on
/// every run, and the stage histograms only fold in the sampled requests.
#[test]
fn sampling_is_deterministic_and_counts_only_sampled() {
    let run = || {
        let gateway = Gateway::start(
            service(),
            GatewayConfig::default().with_tracing(
                TracerConfig::default()
                    .with_sample_every(4)
                    .with_logical_clock(true),
            ),
        );
        for round in 0..4 {
            for session in 0..16u64 {
                gateway
                    .submit(request(round, session))
                    .unwrap()
                    .wait()
                    .unwrap();
            }
        }
        let ids: Vec<u64> = gateway.trace_records().iter().map(|r| r.trace_id).collect();
        let (published, dropped) = gateway.trace_counters();
        let snapshot = gateway.shutdown();
        (ids, published, dropped, snapshot.stages.unwrap().traced)
    };
    let (ids, published, dropped, traced) = run();
    assert!(!ids.is_empty() && ids.len() < 64, "got {}", ids.len());
    assert_eq!(published, ids.len() as u64);
    assert_eq!(dropped, 0);
    assert_eq!(traced, published);
    for id in &ids {
        assert_eq!(id % 4, 0, "unsampled id {id:#x} leaked into the ring");
    }
    let (ids_again, ..) = run();
    assert_eq!(ids, ids_again);
}

/// The trace ring keeps the newest records once it wraps, and the publish
/// counter keeps counting past the capacity.
#[test]
fn trace_ring_wraps_keeping_newest() {
    let gateway = Gateway::start(
        service(),
        GatewayConfig::default().with_tracing(
            TracerConfig::default()
                .with_sample_every(1)
                .with_capacity(8)
                .with_logical_clock(true),
        ),
    );
    for round in 0..4 {
        for session in 0..8u64 {
            gateway
                .submit(request(round, session))
                .unwrap()
                .wait()
                .unwrap();
        }
    }
    let records = gateway.trace_records();
    let (published, _) = gateway.trace_counters();
    assert_eq!(published, 32);
    assert_eq!(records.len(), 8);
    // Serial submission: the surviving records are the last eight admitted.
    let mut seqs: Vec<u64> = records.iter().map(|r| r.seq).collect();
    seqs.sort_unstable();
    assert_eq!(seqs, (24..32).collect::<Vec<u64>>());
    gateway.shutdown();
}

/// With tracing off (the default) the trace surface is inert: no records,
/// no stage snapshot, no counters — and the request path never pays for it.
#[test]
fn tracing_disabled_is_inert() {
    let gateway = Gateway::start(service(), GatewayConfig::default());
    for session in 0..8u64 {
        gateway.submit(request(0, session)).unwrap().wait().unwrap();
    }
    assert!(gateway.trace_records().is_empty());
    assert!(gateway.telemetry().stages.is_none());
    assert_eq!(gateway.trace_counters(), (0, 0));
    let snapshot = gateway.shutdown();
    assert!(snapshot.stages.is_none());
    let mut registry = vtm_obs::MetricsRegistry::new();
    snapshot.register_metrics(&mut registry, &[]);
    assert!(!registry.render_text().contains("vtm_gateway_stage_us"));
}

/// With a journal attached, traced records carry the journal sub-stage and
/// it nests inside admission (journal lock wait + append ≤ admit→enqueue).
#[test]
fn journal_stage_nests_inside_admission() {
    let dir = std::env::temp_dir();
    let path = dir.join(format!("vtm_trace_journal_{}.vtmj", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let gateway = Gateway::start(
        service(),
        GatewayConfig::default()
            .with_journal(JournalOptions::new(&path))
            .with_tracing(
                TracerConfig::default()
                    .with_sample_every(1)
                    .with_logical_clock(true),
            ),
    );
    for session in 0..8u64 {
        gateway.submit(request(0, session)).unwrap().wait().unwrap();
    }
    let records = gateway.trace_records();
    let snapshot = gateway.shutdown();
    assert_eq!(records.len(), 8);
    for record in &records {
        assert!(
            record.journal_start_us > 0,
            "journal stage missing: {record:?}"
        );
        let stages = record.stages();
        assert!(
            stages.journal_append_us <= stages.admission_us,
            "{record:?}"
        );
    }
    let stage_snapshot = snapshot.stages.expect("tracing was enabled");
    assert_eq!(stage_snapshot.journal_append.count, 8);
    // The writer-internal append latency surfaced too (wall-clock, so only
    // sanity-checkable: it was measured for all eight appends).
    assert!(snapshot.journal_append_mean_us >= 0.0);
    assert_eq!(snapshot.journal_frames, 8);
    let _ = std::fs::remove_file(&path);
}
