//! Lock-free serving telemetry: atomic counters, a fixed-bucket log-scale
//! latency histogram and a batch-size histogram, snapshotted on demand.
//!
//! Every hot-path record is a handful of relaxed atomic increments — the
//! gateway's request path never takes a lock for measurement. Percentiles
//! are derived from the snapshot's histogram on demand: each latency
//! bucket `b` covers `[2^b, 2^(b+1))` microseconds, and a reported
//! percentile is the upper bound of the first bucket whose cumulative count
//! reaches the rank (an over-estimate by at most 2x, which is the standard
//! trade of fixed-bucket histograms — see e.g. Prometheus or HdrHistogram's
//! coarsest setting).

use std::sync::atomic::{AtomicU64, Ordering};

use vtm_obs::{HistogramSnapshot, LogHistogram, MetricsRegistry, StageSnapshot};

use crate::health::HealthState;

/// Linear batch-size buckets `1..=MAX_TRACKED_BATCH`; larger batches land
/// in the last bucket.
pub const MAX_TRACKED_BATCH: usize = 64;

/// The live, shared telemetry sink (one per gateway, behind an `Arc`).
#[derive(Debug)]
pub struct Telemetry {
    /// Requests admitted past admission control.
    submitted: AtomicU64,
    /// Requests completed with a quote.
    completed: AtomicU64,
    /// Requests rejected by admission control (backpressure).
    rejected: AtomicU64,
    /// Requests failed by an executor-side service error.
    failed: AtomicU64,
    /// Requests expired at batch formation because their deadline had
    /// already passed.
    expired: AtomicU64,
    /// Submissions rejected by the health controller's Shedding state
    /// (distinct from `rejected`, which is the hard admission bound).
    shed: AtomicU64,
    /// Submissions answered from the session-local last-quote cache while
    /// Degraded (these never enter the pipeline).
    degraded_quotes: AtomicU64,
    /// Executor batch panics caught (each failed only its own batch).
    panics: AtomicU64,
    /// Journal append retries after a transient append failure.
    journal_retries: AtomicU64,
    /// Admissions that proceeded without a journal frame under the
    /// `DegradeWithoutJournal` bypass policy.
    journal_bypassed: AtomicU64,
    /// Batches flushed by the executors.
    batches: AtomicU64,
    /// Admitted-but-not-yet-completed requests — both the queue-depth
    /// gauge and the admission counter (see [`Telemetry::try_admit`]).
    in_flight: AtomicU64,
    /// Admissions appended to the audit journal.
    journal_frames: AtomicU64,
    /// Journal bytes written (container framing included).
    journal_bytes: AtomicU64,
    /// Periodic state snapshots written next to the journal.
    snapshots: AtomicU64,
    latency: LogHistogram,
    batch_sizes: [AtomicU64; MAX_TRACKED_BATCH],
    batch_size_sum: AtomicU64,
    batch_size_max: AtomicU64,
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::new()
    }
}

impl Telemetry {
    /// A zeroed sink.
    pub fn new() -> Self {
        Self {
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            expired: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            degraded_quotes: AtomicU64::new(0),
            panics: AtomicU64::new(0),
            journal_retries: AtomicU64::new(0),
            journal_bypassed: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            in_flight: AtomicU64::new(0),
            journal_frames: AtomicU64::new(0),
            journal_bytes: AtomicU64::new(0),
            snapshots: AtomicU64::new(0),
            latency: LogHistogram::new(),
            batch_sizes: std::array::from_fn(|_| AtomicU64::new(0)),
            batch_size_sum: AtomicU64::new(0),
            batch_size_max: AtomicU64::new(0),
        }
    }

    /// Atomically claims an in-flight slot when fewer than `capacity` are
    /// taken — the single admission counter the gateway bounds itself on
    /// (also the queue-depth gauge, so the two can never disagree).
    pub(crate) fn try_admit(&self, capacity: u64) -> bool {
        self.in_flight
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| {
                (n < capacity).then_some(n + 1)
            })
            .is_ok()
    }

    /// Records an admitted submission. Called *before* the request is
    /// enqueued so a snapshot can never observe `completed > submitted`.
    pub(crate) fn record_submit(&self) {
        self.submitted.fetch_add(1, Ordering::Relaxed);
    }

    /// Rolls back an admitted submission whose enqueue failed (the
    /// shutdown race): releases the in-flight slot and the submit count.
    pub(crate) fn record_abort(&self) {
        self.submitted.fetch_sub(1, Ordering::Relaxed);
        self.in_flight.fetch_sub(1, Ordering::Relaxed);
    }

    pub(crate) fn record_reject(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_batch(&self, size: usize) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        let idx = size.clamp(1, MAX_TRACKED_BATCH) - 1;
        self.batch_sizes[idx].fetch_add(1, Ordering::Relaxed);
        self.batch_size_sum
            .fetch_add(size as u64, Ordering::Relaxed);
        self.batch_size_max
            .fetch_max(size as u64, Ordering::Relaxed);
    }

    pub(crate) fn record_completion(&self, latency_us: u64) {
        self.completed.fetch_add(1, Ordering::Relaxed);
        self.in_flight.fetch_sub(1, Ordering::Relaxed);
        self.latency.record(latency_us);
    }

    pub(crate) fn record_failure(&self) {
        self.failed.fetch_add(1, Ordering::Relaxed);
        self.in_flight.fetch_sub(1, Ordering::Relaxed);
    }

    /// Records a queued request expired at batch formation (it held an
    /// in-flight slot, which is released here).
    pub(crate) fn record_expired(&self) {
        self.expired.fetch_add(1, Ordering::Relaxed);
        self.in_flight.fetch_sub(1, Ordering::Relaxed);
    }

    /// Records a submission shed at the door (no slot was ever claimed).
    pub(crate) fn record_shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a degraded cache-served quote (never entered the pipeline).
    pub(crate) fn record_degraded_quote(&self) {
        self.degraded_quotes.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one caught executor batch panic.
    pub(crate) fn record_panic(&self) {
        self.panics.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one retried journal append attempt.
    pub(crate) fn record_journal_retry(&self) {
        self.journal_retries.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one admission that bypassed the journal.
    pub(crate) fn record_journal_bypass(&self) {
        self.journal_bypassed.fetch_add(1, Ordering::Relaxed);
    }

    /// A lock-free copy of the cumulative latency histogram (the health
    /// controller differences consecutive copies into completion windows).
    pub(crate) fn latency_buckets_now(&self) -> Vec<u64> {
        self.latency.buckets_now()
    }

    /// Records one admission appended to the journal (`bytes` framed).
    pub(crate) fn record_journal_append(&self, bytes: u64) {
        self.journal_frames.fetch_add(1, Ordering::Relaxed);
        self.journal_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Records one periodic state snapshot written to disk.
    pub(crate) fn record_snapshot(&self) {
        self.snapshots.fetch_add(1, Ordering::Relaxed);
    }

    /// Admitted-but-not-yet-completed requests right now.
    pub fn in_flight(&self) -> u64 {
        self.in_flight.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of every counter and histogram.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let batch_sizes: Vec<u64> = self
            .batch_sizes
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let completed = self.completed.load(Ordering::Relaxed);
        let batches = self.batches.load(Ordering::Relaxed);
        TelemetrySnapshot {
            submitted: self.submitted.load(Ordering::Relaxed),
            completed,
            rejected: self.rejected.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            expired: self.expired.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            degraded_quotes: self.degraded_quotes.load(Ordering::Relaxed),
            panics: self.panics.load(Ordering::Relaxed),
            journal_retries: self.journal_retries.load(Ordering::Relaxed),
            journal_bypassed: self.journal_bypassed.load(Ordering::Relaxed),
            health: HealthState::Healthy,
            precision: "f64",
            shard: 0,
            batches,
            queue_depth: self.in_flight.load(Ordering::Relaxed),
            journal_frames: self.journal_frames.load(Ordering::Relaxed),
            journal_bytes: self.journal_bytes.load(Ordering::Relaxed),
            snapshots: self.snapshots.load(Ordering::Relaxed),
            latency: self.latency.snapshot(),
            mean_batch_size: if batches == 0 {
                0.0
            } else {
                self.batch_size_sum.load(Ordering::Relaxed) as f64 / batches as f64
            },
            max_batch_size: self.batch_size_max.load(Ordering::Relaxed),
            batch_size_buckets: batch_sizes,
            stages: None,
            journal_append_mean_us: 0.0,
            journal_append_max_us: 0,
        }
    }
}

/// A point-in-time view of the gateway's counters and histograms.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetrySnapshot {
    /// Requests admitted past admission control.
    pub submitted: u64,
    /// Requests completed with a quote.
    pub completed: u64,
    /// Requests rejected with backpressure.
    pub rejected: u64,
    /// Requests failed by a service error.
    pub failed: u64,
    /// Requests expired at batch formation because their deadline had
    /// passed.
    pub expired: u64,
    /// Submissions rejected while the health controller was Shedding.
    pub shed: u64,
    /// Submissions answered from the degraded last-quote cache.
    pub degraded_quotes: u64,
    /// Executor batch panics caught and contained.
    pub panics: u64,
    /// Journal append retries after transient failures.
    pub journal_retries: u64,
    /// Admissions that proceeded without a journal frame (bypass policy).
    pub journal_bypassed: u64,
    /// The health controller's state at snapshot time (always
    /// [`HealthState::Healthy`] when no health controller is configured).
    pub health: HealthState,
    /// Forward-pass precision of the serving policy (`"f64"` or `"f32"`),
    /// copied from the service configuration so capacity reports name the
    /// numeric mode they were measured under (see `docs/NUMERICS.md`).
    pub precision: &'static str,
    /// Fabric shard id of the gateway this snapshot came from, copied from
    /// [`crate::GatewayConfig::shard`] (0 for a standalone gateway).
    pub shard: usize,
    /// Batches flushed by the executors.
    pub batches: u64,
    /// Admitted-but-not-yet-completed requests at snapshot time.
    pub queue_depth: u64,
    /// Admissions appended to the audit journal (0 when journaling is
    /// off; equals `submitted` minus shutdown-race aborts when on).
    pub journal_frames: u64,
    /// Journal bytes written, container framing included.
    pub journal_bytes: u64,
    /// Periodic state snapshots written next to the journal.
    pub snapshots: u64,
    /// End-to-end completion latency: log₂-µs buckets with the exact
    /// count, sum and max (percentiles via [`HistogramSnapshot::p50_us`]
    /// and friends).
    pub latency: HistogramSnapshot,
    /// Mean flushed batch size (exact).
    pub mean_batch_size: f64,
    /// Largest flushed batch.
    pub max_batch_size: u64,
    /// Raw batch-size bucket counts (size `i+1`; last bucket = larger).
    pub batch_size_buckets: Vec<u64>,
    /// Per-stage latency decomposition from sampled trace records (`None`
    /// when tracing is disabled; see `docs/OBSERVABILITY.md`).
    pub stages: Option<StageSnapshot>,
    /// Mean journal append cost measured inside the writer (µs, exact over
    /// *every* append, not just sampled ones; 0 when not journaling).
    pub journal_append_mean_us: f64,
    /// Slowest single journal append (µs; 0 when not journaling).
    pub journal_append_max_us: u64,
}

impl TelemetrySnapshot {
    /// Registers every counter, gauge and histogram of this snapshot into a
    /// [`MetricsRegistry`] under the `vtm_gateway_` namespace, tagging each
    /// sample with `labels` (plus `size` for the batch-size counts and
    /// `stage` for the per-stage histograms). This is the snapshot's only
    /// exposition: Prometheus text and JSON both render from the registry.
    pub fn register_metrics(&self, registry: &mut MetricsRegistry, labels: &[(&str, &str)]) {
        let counters: [(&str, &str, u64); 14] = [
            (
                "vtm_gateway_submitted_total",
                "Requests admitted past admission control.",
                self.submitted,
            ),
            (
                "vtm_gateway_completed_total",
                "Requests completed with a quote.",
                self.completed,
            ),
            (
                "vtm_gateway_rejected_total",
                "Requests rejected with backpressure.",
                self.rejected,
            ),
            (
                "vtm_gateway_failed_total",
                "Requests failed by a service error.",
                self.failed,
            ),
            (
                "vtm_gateway_expired_total",
                "Requests expired before batch formation.",
                self.expired,
            ),
            (
                "vtm_gateway_shed_total",
                "Submissions shed by the health controller.",
                self.shed,
            ),
            (
                "vtm_gateway_degraded_quotes_total",
                "Quotes served from the degraded cache.",
                self.degraded_quotes,
            ),
            (
                "vtm_gateway_panics_total",
                "Executor batch panics caught.",
                self.panics,
            ),
            (
                "vtm_gateway_journal_retries_total",
                "Journal append retries.",
                self.journal_retries,
            ),
            (
                "vtm_gateway_journal_bypassed_total",
                "Admissions without a journal frame.",
                self.journal_bypassed,
            ),
            (
                "vtm_gateway_batches_total",
                "Batches flushed by the executors.",
                self.batches,
            ),
            (
                "vtm_gateway_journal_frames_total",
                "Admissions appended to the journal.",
                self.journal_frames,
            ),
            (
                "vtm_gateway_journal_bytes_total",
                "Journal bytes written.",
                self.journal_bytes,
            ),
            (
                "vtm_gateway_snapshots_total",
                "Periodic state snapshots written next to the journal.",
                self.snapshots,
            ),
        ];
        for (name, help, value) in counters {
            registry.counter(name, help, labels, value);
        }
        let gauges: [(&str, &str, f64); 5] = [
            (
                "vtm_gateway_queue_depth",
                "Admitted-but-not-yet-completed requests.",
                self.queue_depth as f64,
            ),
            (
                "vtm_gateway_mean_batch_size",
                "Mean flushed batch size.",
                self.mean_batch_size,
            ),
            (
                "vtm_gateway_max_batch_size",
                "Largest flushed batch.",
                self.max_batch_size as f64,
            ),
            (
                "vtm_gateway_journal_append_mean_us",
                "Mean journal append cost measured inside the writer (us).",
                self.journal_append_mean_us,
            ),
            (
                "vtm_gateway_journal_append_max_us",
                "Slowest single journal append (us).",
                self.journal_append_max_us as f64,
            ),
        ];
        for (name, help, value) in gauges {
            registry.gauge(name, help, labels, value);
        }
        let info = [
            ("precision", self.precision),
            ("health", self.health.as_str()),
        ];
        registry.gauge(
            "vtm_gateway_info",
            "Serving precision and health state (always 1).",
            &[labels, &info].concat(),
            1.0,
        );
        let batch_help =
            format!("Flushed batches by size (size {MAX_TRACKED_BATCH} also counts larger ones).");
        for (size, &count) in (1..).zip(&self.batch_size_buckets).filter(|(_, &c)| c > 0) {
            let size = size.to_string();
            let sized = [labels, &[("size", size.as_str())]].concat();
            registry.counter("vtm_gateway_batch_size_total", &batch_help, &sized, count);
        }
        registry.histogram(
            "vtm_gateway_latency_us",
            "End-to-end completion latency (log2 us buckets).",
            labels,
            &self.latency,
        );
        if let Some(stages) = &self.stages {
            stages.register_metrics(registry, "vtm_gateway", labels);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vtm_obs::JsonValue;

    #[test]
    fn percentiles_report_bucket_upper_bounds() {
        let t = Telemetry::new();
        // 98 fast requests (~8 µs), 2 slow (~4096 µs).
        for _ in 0..98 {
            assert!(t.try_admit(1000));
            t.record_submit();
            t.record_completion(8);
        }
        for _ in 0..2 {
            assert!(t.try_admit(1000));
            t.record_submit();
            t.record_completion(4096);
        }
        let snap = t.snapshot();
        assert_eq!(snap.completed, 100);
        assert_eq!(snap.queue_depth, 0);
        assert_eq!(snap.latency.p50_us(), 16); // bucket [8,16) -> upper bound 16
        assert_eq!(snap.latency.p95_us(), 16);
        assert_eq!(snap.latency.p99_us(), 8192); // bucket [4096,8192)
        assert_eq!(snap.latency.max_us, 4096);
        assert!((snap.latency.mean_us() - (98.0 * 8.0 + 2.0 * 4096.0) / 100.0).abs() < 1e-9);
    }

    #[test]
    fn empty_histogram_percentiles_are_zero() {
        let snap = Telemetry::new().snapshot();
        assert_eq!(snap.latency.p50_us(), 0);
        assert_eq!(snap.latency.p99_us(), 0);
        assert_eq!(snap.latency.mean_us(), 0.0);
        assert_eq!(snap.mean_batch_size, 0.0);
    }

    #[test]
    fn batch_histogram_tracks_sizes() {
        let t = Telemetry::new();
        t.record_batch(1);
        t.record_batch(4);
        t.record_batch(4);
        t.record_batch(500); // clamped into the last bucket
        let snap = t.snapshot();
        assert_eq!(snap.batches, 4);
        assert_eq!(snap.batch_size_buckets[0], 1);
        assert_eq!(snap.batch_size_buckets[3], 2);
        assert_eq!(snap.batch_size_buckets[MAX_TRACKED_BATCH - 1], 1);
        assert_eq!(snap.max_batch_size, 500);
        assert!((snap.mean_batch_size - (1.0 + 4.0 + 4.0 + 500.0) / 4.0).abs() < 1e-9);
    }

    #[test]
    fn admission_counter_is_the_queue_depth_gauge() {
        let t = Telemetry::new();
        assert!(t.try_admit(2));
        assert!(t.try_admit(2));
        assert!(!t.try_admit(2), "third admit must fail at capacity 2");
        assert_eq!(t.in_flight(), 2);
        t.record_submit();
        t.record_abort(); // enqueue failed: slot released, submit undone
        assert_eq!(t.in_flight(), 1);
        assert!(t.try_admit(2));
        t.record_submit();
        t.record_completion(10);
        t.record_submit();
        t.record_failure();
        let snap = t.snapshot();
        assert_eq!(snap.queue_depth, 0);
        assert_eq!(snap.submitted, 2);
        assert_eq!(snap.completed + snap.failed, 2);
    }

    #[test]
    fn snapshot_serializes_to_json() {
        let t = Telemetry::new();
        assert!(t.try_admit(8));
        t.record_submit();
        t.record_batch(1);
        t.record_completion(100);
        t.record_reject();
        t.record_shed();
        t.record_panic();
        t.record_journal_retry();
        t.record_journal_bypass();
        assert!(t.try_admit(8));
        t.record_submit();
        t.record_expired();
        t.record_degraded_quote();
        let mut registry = MetricsRegistry::new();
        t.snapshot().register_metrics(&mut registry, &[]);
        let json = registry.render_json();
        let parsed = JsonValue::parse(&json).expect("registry JSON parses");
        let families = parsed.get("families").and_then(JsonValue::as_array);
        let sample = |name: &str| {
            let named = |f: &&JsonValue| f.get("name").and_then(JsonValue::as_str) == Some(name);
            let family = families.and_then(|f| f.iter().find(named));
            family.and_then(|f| f.path("samples.0")).expect(name)
        };
        let counters = "submitted rejected expired shed degraded_quotes panics journal_retries \
                        journal_bypassed batch_size";
        for name in counters.split_whitespace() {
            let value = sample(&format!("vtm_gateway_{name}_total")).get("value");
            let expected = if name == "submitted" { 2 } else { 1 };
            assert_eq!(value.and_then(JsonValue::as_u64), Some(expected), "{name}");
        }
        let info = sample("vtm_gateway_info");
        let label = |path| info.path(path).and_then(JsonValue::as_str);
        assert_eq!(label("labels.precision"), Some("f64"));
        assert_eq!(label("labels.health"), Some("healthy"));
        let latency = sample("vtm_gateway_latency_us");
        assert!(latency.path("value.p99_us").is_some());
    }

    #[test]
    fn fault_counters_release_in_flight_slots_correctly() {
        let t = Telemetry::new();
        // expired releases a claimed slot; shed and degraded never claim one.
        assert!(t.try_admit(4));
        t.record_submit();
        t.record_expired();
        t.record_shed();
        t.record_degraded_quote();
        let snap = t.snapshot();
        assert_eq!(snap.queue_depth, 0);
        assert_eq!(snap.expired, 1);
        assert_eq!(snap.shed, 1);
        assert_eq!(snap.degraded_quotes, 1);
        assert_eq!(snap.submitted, 1);
        assert_eq!(snap.completed, 0);
    }
}
