//! Golden-file schema tests for the telemetry exposition surfaces.
//!
//! The JSON shape of [`TelemetrySnapshot::to_json`] and the Prometheus text
//! exposition of [`TelemetrySnapshot::register_metrics`] are consumed
//! outside this crate (results files, dashboards, the SLO gate), so their
//! exact rendering is pinned against committed golden files in
//! `tests/golden/`. Regenerate with `UPDATE_GOLDENS=1 cargo test -p
//! vtm-gateway --test telemetry_schema` after an intentional schema change
//! and review the diff.

use std::path::PathBuf;

use vtm_gateway::{StageSnapshot, Telemetry, TelemetrySnapshot};
use vtm_obs::{HistogramSnapshot, JsonValue, LogHistogram, MetricsRegistry};

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// Compares `rendered` against the committed golden file, or rewrites it
/// when `UPDATE_GOLDENS=1` is set.
fn assert_golden(name: &str, rendered: &str) {
    let path = golden_dir().join(name);
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        std::fs::create_dir_all(golden_dir()).unwrap();
        std::fs::write(&path, rendered).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {}: {e}", path.display()));
    assert_eq!(
        rendered,
        expected,
        "schema drift against {} — if intentional, regenerate with UPDATE_GOLDENS=1",
        path.display()
    );
}

fn hist(samples: &[u64]) -> HistogramSnapshot {
    let h = LogHistogram::new();
    for &s in samples {
        h.record(s);
    }
    h.snapshot()
}

/// A fully-populated snapshot with deterministic values in every field.
fn golden_snapshot() -> TelemetrySnapshot {
    let mut snap = Telemetry::new().snapshot();
    snap.submitted = 120;
    snap.completed = 100;
    snap.rejected = 10;
    snap.failed = 4;
    snap.expired = 3;
    snap.shed = 2;
    snap.degraded_quotes = 5;
    snap.panics = 1;
    snap.journal_retries = 2;
    snap.journal_bypassed = 3;
    snap.precision = "f64";
    snap.shard = 2;
    snap.batches = 40;
    snap.queue_depth = 3;
    snap.journal_frames = 117;
    snap.journal_bytes = 9360;
    snap.snapshots = 1;
    let latency = hist(&[100, 100, 200, 400, 800, 1600]);
    snap.latency_p50_us = latency.p50_us();
    snap.latency_p95_us = latency.p95_us();
    snap.latency_p99_us = latency.p99_us();
    snap.latency_mean_us = latency.mean_us();
    snap.latency_max_us = latency.max_us;
    snap.latency_buckets = latency.buckets;
    snap.mean_batch_size = 3.0;
    snap.max_batch_size = 8;
    snap.batch_size_buckets[0] = 10;
    snap.batch_size_buckets[2] = 20;
    snap.batch_size_buckets[7] = 10;
    snap.journal_append_mean_us = 12.5;
    snap.journal_append_max_us = 90;
    snap.stages = Some(StageSnapshot {
        traced: 6,
        queue_wait: hist(&[10, 20, 30, 40, 50, 60]),
        batch_form: hist(&[5, 5, 5, 5, 5, 5]),
        inference: hist(&[80, 80, 160, 160, 320, 320]),
        resolve: hist(&[2, 2, 2, 2, 2, 2]),
        journal_append: hist(&[12, 12, 12, 14, 14, 14]),
    });
    snap
}

/// The JSON rendering is byte-stable, parses with the workspace parser and
/// exposes the documented paths.
#[test]
fn telemetry_snapshot_json_matches_golden() {
    let json = golden_snapshot().to_json();
    assert_golden("telemetry_snapshot.json", &json);

    let parsed = JsonValue::parse(&json).expect("snapshot JSON must parse");
    for path in [
        "submitted",
        "faults.expired",
        "faults.panics",
        "journal.bypassed",
        "journal.append_mean_us",
        "latency_us.p99",
        "stages.traced",
        "stages.queue_wait.p50_us",
        "stages.journal_append.count",
        "batch_size.mean",
    ] {
        assert!(
            parsed.path(path).and_then(JsonValue::as_f64).is_some(),
            "path `{path}` missing or non-numeric in {json}"
        );
    }
    // "inf" alone would match the "inference" stage key; a non-finite
    // numeric value renders as `: inf` / `: NaN`.
    assert!(!json.contains("NaN") && !json.contains(": inf"), "{json}");
}

/// The zeroed snapshot (tracing off, nothing recorded) also renders
/// stably — and never leaks NaN from 0/0 means.
#[test]
fn zeroed_snapshot_json_matches_golden() {
    let json = Telemetry::new().snapshot().to_json();
    assert_golden("telemetry_snapshot_zero.json", &json);
    let parsed = JsonValue::parse(&json).expect("zeroed snapshot JSON must parse");
    assert!(parsed.path("stages").is_some());
    assert!(!json.contains("NaN") && !json.contains(": inf"), "{json}");
}

/// The Prometheus text exposition is byte-stable: family ordering, label
/// rendering, cumulative `le` buckets and the stage-labelled histograms.
#[test]
fn prometheus_exposition_matches_golden() {
    let mut registry = MetricsRegistry::new();
    golden_snapshot().register_metrics(&mut registry, &[("shard", "2")]);
    let text = registry.render_text();
    assert_golden("telemetry_metrics.prom", &text);
    assert!(
        text.contains("# TYPE vtm_gateway_latency_us histogram"),
        "{text}"
    );
    assert!(
        text.contains("vtm_gateway_stage_us_count{shard=\"2\",stage=\"inference\"} 6"),
        "{text}"
    );
    assert!(text.ends_with('\n'), "exposition must end with a newline");
    assert!(!text.contains("NaN"), "{text}");
}
