//! Golden-file schema tests for the telemetry exposition.
//!
//! [`TelemetrySnapshot::register_metrics`] is the snapshot's only
//! exposition. The Prometheus text and the JSON rendering of the registry
//! it fills are consumed outside this crate (results files, dashboards,
//! the bench reports), so their exact rendering is pinned against
//! committed golden files in `tests/golden/`. Regenerate with
//! `UPDATE_GOLDENS=1 cargo test -p vtm-gateway --test telemetry_schema`
//! after an intentional schema change and review the diff.

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
    snap.latency = hist(&[100, 100, 200, 400, 800, 1600]);
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

/// The snapshot's registry, as every exposition test renders it.
fn registry(snapshot: &TelemetrySnapshot, labels: &[(&str, &str)]) -> MetricsRegistry {
    let mut registry = MetricsRegistry::new();
    snapshot.register_metrics(&mut registry, labels);
    registry
}

/// Pins the registry's JSON rendering against the golden file `name`, and
/// checks that it parses with the workspace parser, carries the same
/// families as the text exposition and holds no non-finite value.
fn assert_json_golden(name: &str, registry: &MetricsRegistry) {
    let json = registry.render_json();
    assert_golden(name, &json);
    let parsed = JsonValue::parse(&json).expect("registry JSON must parse");
    let families = parsed.get("families").and_then(JsonValue::as_array);
    let types = registry.render_text().matches("# TYPE ").count();
    assert_eq!(families.map(<[_]>::len), Some(types), "{json}");
    // "inf" alone would match the "inference" stage label; a non-finite
    // numeric value renders as `: inf` / `: NaN`.
    assert!(!json.contains("NaN") && !json.contains(": inf"), "{json}");
}

/// The registry's JSON rendering of a fully-populated snapshot is
/// byte-stable.
#[test]
fn telemetry_snapshot_json_matches_golden() {
    let registry = registry(&golden_snapshot(), &[("shard", "2")]);
    assert_json_golden("telemetry_metrics.json", &registry);
}

/// The zeroed snapshot (tracing off, nothing recorded) also renders
/// stably — and never leaks NaN from 0/0 means.
#[test]
fn zeroed_snapshot_json_matches_golden() {
    assert_json_golden(
        "telemetry_metrics_zero.json",
        &registry(&Telemetry::new().snapshot(), &[]),
    );
}

/// The Prometheus text exposition is byte-stable: family ordering, label
/// rendering, cumulative `le` buckets and the stage-labelled histograms.
/// The latency histogram is the snapshot's own, not a reconstruction.
#[test]
fn prometheus_exposition_matches_golden() {
    let text = registry(&golden_snapshot(), &[("shard", "2")]).render_text();
    assert_golden("telemetry_metrics.prom", &text);
    for line in [
        "vtm_gateway_latency_us_bucket{shard=\"2\",le=\"+Inf\"} 6\n",
        "vtm_gateway_info{shard=\"2\",precision=\"f64\",health=\"healthy\"} 1\n",
        "vtm_gateway_stage_us_count{shard=\"2\",stage=\"inference\"} 6\n",
    ] {
        assert!(text.contains(line), "`{line}` missing from {text}");
    }
    assert!(text.ends_with('\n'), "exposition must end with a newline");
    assert!(!text.contains("NaN"), "{text}");
}
