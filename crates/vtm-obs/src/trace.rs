//! Per-request stage tracing: a lock-free seqlock ring buffer of fixed-size
//! lifecycle records, 1-in-N sampled with zero allocation on the hot path.
//!
//! A traced request carries a [`TraceRecord`] (a `Copy` block of 12 `u64`
//! words) inline through the pipeline; each stage stamps one timestamp from
//! the tracer's clock. On completion the record is published into a
//! fixed-capacity ring of seqlock slots — writers never block readers and
//! readers never block writers; a torn slot is simply skipped (writer side:
//! counted as dropped; reader side: retried a bounded number of times).
//!
//! Timestamps come from [`Tracer::now_us`]: wall mode reports microseconds
//! since tracer construction, logical mode hands out consecutive integers
//! (1, 2, 3, …) so tests get bit-reproducible decompositions. Both clocks
//! are strictly positive — a zero stamp always means "stage not reached"
//! (e.g. the journal stamps on a gateway running without a journal).

use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::time::Instant;

use crate::hist::{HistogramSnapshot, LogHistogram};
use crate::metrics::MetricsRegistry;

/// Number of `u64` words in a serialized [`TraceRecord`] (one ring slot).
pub const TRACE_WORDS: usize = 12;

/// Stable trace id for a request, derived from `(session, seq)` with a
/// splitmix64-style mixer: the same request always hashes to the same id,
/// so 1-in-N sampling picks a deterministic, well-spread subset.
pub fn trace_id(session: u64, seq: u64) -> u64 {
    fn mix(mut z: u64) -> u64 {
        z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
    mix(mix(session) ^ seq.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// Tracer configuration (all builders are `const`-friendly value setters).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TracerConfig {
    /// Sample 1 in N requests by trace id (`0` and `1` both mean "every
    /// request"). Default 64.
    pub sample_every: u64,
    /// Ring capacity in records, rounded up to a power of two. Default 4096.
    pub capacity: usize,
    /// Use the deterministic logical clock (consecutive integers) instead
    /// of wall microseconds. Default `false`.
    pub logical_clock: bool,
}

impl Default for TracerConfig {
    fn default() -> Self {
        Self {
            sample_every: 64,
            capacity: 4096,
            logical_clock: false,
        }
    }
}

impl TracerConfig {
    /// Sets the 1-in-N sampling rate (`0`/`1` sample everything).
    pub fn with_sample_every(mut self, n: u64) -> Self {
        self.sample_every = n;
        self
    }

    /// Sets the ring capacity (rounded up to a power of two, minimum 2).
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        self.capacity = capacity;
        self
    }

    /// Switches between the wall clock and the deterministic logical clock.
    pub fn with_logical_clock(mut self, logical: bool) -> Self {
        self.logical_clock = logical;
        self
    }
}

/// One request's lifecycle timestamps (tracer-clock µs; 0 = not reached).
///
/// `Copy` and exactly [`TRACE_WORDS`] words so it travels inline with the
/// request through the pipeline — no allocation on the hot path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceRecord {
    /// Stable id from [`trace_id`]`(session, seq)`.
    pub trace_id: u64,
    /// Session (vehicle) id.
    pub session: u64,
    /// Per-session request sequence number.
    pub seq: u64,
    /// Admission-control passed; lifecycle begins.
    pub admit_us: u64,
    /// Journal append started (0 when the gateway runs without a
    /// journal).
    pub journal_start_us: u64,
    /// Journal append finished (0 when not journaled).
    pub journal_end_us: u64,
    /// Pushed onto the gateway's ingress queue.
    pub enqueue_us: u64,
    /// An executor flushed the batch containing this request off ingress.
    pub batch_formed_us: u64,
    /// An executor began the batched forward pass.
    pub execute_start_us: u64,
    /// The forward pass produced this request's quote.
    pub priced_us: u64,
    /// The ticket was resolved and the waiter woken.
    pub resolved_us: u64,
    /// Packed `batch_size << 32 | shard` of the executing batch.
    pub batch_meta: u64,
}

impl TraceRecord {
    /// A fresh record with identity fields set and all stamps zero.
    pub fn new(session: u64, seq: u64) -> Self {
        Self {
            trace_id: trace_id(session, seq),
            session,
            seq,
            ..Self::default()
        }
    }

    /// Stores the executing batch's size and shard.
    pub fn set_batch(&mut self, batch_size: usize, shard: usize) {
        self.batch_meta = ((batch_size as u64) << 32) | (shard as u64 & 0xffff_ffff);
    }

    /// Size of the batch this request executed in (0 if never batched).
    pub fn batch_size(&self) -> u64 {
        self.batch_meta >> 32
    }

    /// Fabric shard id of the executing gateway (0 standalone).
    pub fn shard(&self) -> u64 {
        self.batch_meta & 0xffff_ffff
    }

    /// Serializes into the fixed ring-slot word layout.
    pub fn to_words(&self) -> [u64; TRACE_WORDS] {
        [
            self.trace_id,
            self.session,
            self.seq,
            self.admit_us,
            self.journal_start_us,
            self.journal_end_us,
            self.enqueue_us,
            self.batch_formed_us,
            self.execute_start_us,
            self.priced_us,
            self.resolved_us,
            self.batch_meta,
        ]
    }

    /// Deserializes from the fixed ring-slot word layout.
    pub fn from_words(words: &[u64; TRACE_WORDS]) -> Self {
        Self {
            trace_id: words[0],
            session: words[1],
            seq: words[2],
            admit_us: words[3],
            journal_start_us: words[4],
            journal_end_us: words[5],
            enqueue_us: words[6],
            batch_formed_us: words[7],
            execute_start_us: words[8],
            priced_us: words[9],
            resolved_us: words[10],
            batch_meta: words[11],
        }
    }

    /// Decomposes the stamps into per-stage durations. With monotone stamps
    /// the non-journal stages telescope exactly:
    /// `admission + queue_wait + batch_form + inference + resolve == total`
    /// (`journal_append` is a sub-interval of `admission`, not a summand).
    pub fn stages(&self) -> StageBreakdown {
        StageBreakdown {
            admission_us: self.enqueue_us.saturating_sub(self.admit_us),
            journal_append_us: if self.journal_start_us == 0 {
                0
            } else {
                self.journal_end_us.saturating_sub(self.journal_start_us)
            },
            queue_wait_us: self.batch_formed_us.saturating_sub(self.enqueue_us),
            batch_form_us: self.execute_start_us.saturating_sub(self.batch_formed_us),
            inference_us: self.priced_us.saturating_sub(self.execute_start_us),
            resolve_us: self.resolved_us.saturating_sub(self.priced_us),
            total_us: self.resolved_us.saturating_sub(self.admit_us),
        }
    }

    /// Renders the record and its stage breakdown as a JSON object.
    pub fn to_json(&self) -> String {
        let s = self.stages();
        format!(
            "{{\"trace_id\": {}, \"session\": {}, \"seq\": {}, \"shard\": {}, \
             \"batch_size\": {}, \"stamps_us\": {{\"admit\": {}, \
             \"journal_start\": {}, \"journal_end\": {}, \"enqueue\": {}, \
             \"batch_formed\": {}, \"execute_start\": {}, \"priced\": {}, \
             \"resolved\": {}}}, \"stages_us\": {{\"admission\": {}, \
             \"journal_append\": {}, \"queue_wait\": {}, \"batch_form\": {}, \
             \"inference\": {}, \"resolve\": {}, \"total\": {}}}}}",
            self.trace_id,
            self.session,
            self.seq,
            self.shard(),
            self.batch_size(),
            self.admit_us,
            self.journal_start_us,
            self.journal_end_us,
            self.enqueue_us,
            self.batch_formed_us,
            self.execute_start_us,
            self.priced_us,
            self.resolved_us,
            s.admission_us,
            s.journal_append_us,
            s.queue_wait_us,
            s.batch_form_us,
            s.inference_us,
            s.resolve_us,
            s.total_us,
        )
    }
}

/// Per-stage durations of one traced request (µs in the tracer's clock).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StageBreakdown {
    /// Admit → enqueue (includes the journal append when journaling).
    pub admission_us: u64,
    /// Journal append duration (0 when the request was not journaled);
    /// a sub-interval of `admission_us`, not an additional summand.
    pub journal_append_us: u64,
    /// Enqueue → batch formed (time spent waiting in the ingress queue).
    pub queue_wait_us: u64,
    /// Batch formed → executor picked the batch up.
    pub batch_form_us: u64,
    /// Executor start → this request priced (the batched forward pass).
    pub inference_us: u64,
    /// Priced → ticket resolved and waiter woken.
    pub resolve_us: u64,
    /// Admit → resolved (equals the sum of the five non-journal stages).
    pub total_us: u64,
}

/// Number of bounded seqlock read retries before a slot is skipped.
const READ_RETRIES: usize = 8;

struct Slot {
    /// Seqlock sequence: 0 = never written, odd = write in progress,
    /// even > 0 = consistent.
    seq: AtomicU64,
    words: [AtomicU64; TRACE_WORDS],
}

/// The lock-free trace recorder: clock, sampler and seqlock ring in one.
///
/// Shared behind an `Arc` between the gateway pipeline (writers) and
/// whoever drains [`Tracer::records`] (readers). All operations are
/// wait-free except the bounded-retry reader.
#[derive(Debug)]
pub struct Tracer {
    config: TracerConfig,
    mask: u64,
    slots: Vec<Slot>,
    head: AtomicU64,
    published: AtomicU64,
    dropped: AtomicU64,
    logical: AtomicU64,
    epoch: Instant,
}

impl std::fmt::Debug for Slot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Slot")
            .field("seq", &self.seq.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl Tracer {
    /// Builds a tracer; the ring capacity is rounded up to a power of two
    /// (minimum 2).
    pub fn new(config: TracerConfig) -> Self {
        let capacity = config.capacity.max(2).next_power_of_two();
        Self {
            config,
            mask: capacity as u64 - 1,
            slots: (0..capacity)
                .map(|_| Slot {
                    seq: AtomicU64::new(0),
                    words: std::array::from_fn(|_| AtomicU64::new(0)),
                })
                .collect(),
            head: AtomicU64::new(0),
            published: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            logical: AtomicU64::new(0),
            epoch: Instant::now(),
        }
    }

    /// The configuration this tracer was built with.
    pub fn config(&self) -> TracerConfig {
        self.config
    }

    /// Ring capacity in records (a power of two).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// A strictly positive timestamp in the tracer's clock: wall mode is
    /// microseconds since construction + 1; logical mode hands out
    /// consecutive integers starting at 1 (bit-reproducible in tests).
    pub fn now_us(&self) -> u64 {
        if self.config.logical_clock {
            self.logical.fetch_add(1, Ordering::Relaxed) + 1
        } else {
            self.epoch.elapsed().as_micros() as u64 + 1
        }
    }

    /// Whether a trace id falls in the 1-in-N sample (deterministic).
    pub fn sampled(&self, trace_id: u64) -> bool {
        self.config.sample_every <= 1 || trace_id.is_multiple_of(self.config.sample_every)
    }

    /// Publishes a completed record into the ring (wait-free). When two
    /// writers race for the same wrapped slot the loser drops its record
    /// and bumps [`Tracer::dropped`] rather than spinning.
    pub fn publish(&self, record: &TraceRecord) {
        let idx = (self.head.fetch_add(1, Ordering::Relaxed) & self.mask) as usize;
        let slot = &self.slots[idx];
        let seq = slot.seq.load(Ordering::Relaxed);
        if seq & 1 == 1
            || slot
                .seq
                .compare_exchange(seq, seq + 1, Ordering::Acquire, Ordering::Relaxed)
                .is_err()
        {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        for (word, value) in slot.words.iter().zip(record.to_words()) {
            word.store(value, Ordering::Relaxed);
        }
        slot.seq.store(seq + 2, Ordering::Release);
        self.published.fetch_add(1, Ordering::Relaxed);
    }

    /// Records successfully published into the ring so far (older ones may
    /// since have been overwritten by ring wrap-around).
    pub fn published(&self) -> u64 {
        self.published.load(Ordering::Relaxed)
    }

    /// Records dropped by writer-side slot contention.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Snapshots every consistent record currently in the ring, sorted by
    /// `(admit_us, trace_id)` for stable reporting. Slots that stay torn
    /// across a bounded number of read attempts are skipped.
    pub fn records(&self) -> Vec<TraceRecord> {
        let mut out = Vec::new();
        'slot: for slot in &self.slots {
            for _ in 0..READ_RETRIES {
                let s1 = slot.seq.load(Ordering::Acquire);
                if s1 == 0 {
                    continue 'slot;
                }
                if s1 & 1 == 1 {
                    std::hint::spin_loop();
                    continue;
                }
                let mut words = [0u64; TRACE_WORDS];
                for (value, word) in words.iter_mut().zip(&slot.words) {
                    *value = word.load(Ordering::Relaxed);
                }
                fence(Ordering::Acquire);
                if slot.seq.load(Ordering::Relaxed) == s1 {
                    out.push(TraceRecord::from_words(&words));
                    continue 'slot;
                }
            }
        }
        out.sort_by_key(|r| (r.admit_us, r.trace_id));
        out
    }
}

/// Per-stage latency histograms fed from sampled trace records: where a
/// traced request's time actually went, as log₂-µs distributions.
#[derive(Debug, Default)]
pub struct StageHistograms {
    traced: AtomicU64,
    /// Enqueue → batch formed.
    queue_wait: LogHistogram,
    /// Batch formed → executor pickup.
    batch_form: LogHistogram,
    /// Batched forward pass.
    inference: LogHistogram,
    /// Priced → waiter woken.
    resolve: LogHistogram,
    /// Journal append (only requests that hit the journal).
    journal_append: LogHistogram,
}

impl StageHistograms {
    /// A zeroed set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one completed trace record into the stage histograms (the
    /// journal histogram only when the record was actually journaled).
    pub fn record(&self, record: &TraceRecord) {
        let stages = record.stages();
        self.traced.fetch_add(1, Ordering::Relaxed);
        self.queue_wait.record(stages.queue_wait_us);
        self.batch_form.record(stages.batch_form_us);
        self.inference.record(stages.inference_us);
        self.resolve.record(stages.resolve_us);
        if record.journal_start_us > 0 {
            self.journal_append.record(stages.journal_append_us);
        }
    }

    /// Traced (sampled and completed) requests folded in so far.
    pub fn traced(&self) -> u64 {
        self.traced.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of all five stage histograms.
    pub fn snapshot(&self) -> StageSnapshot {
        StageSnapshot {
            traced: self.traced.load(Ordering::Relaxed),
            queue_wait: self.queue_wait.snapshot(),
            batch_form: self.batch_form.snapshot(),
            inference: self.inference.snapshot(),
            resolve: self.resolve.snapshot(),
            journal_append: self.journal_append.snapshot(),
        }
    }
}

/// An owned copy of [`StageHistograms`], mergeable across shards.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StageSnapshot {
    /// Traced requests folded in.
    pub traced: u64,
    /// Enqueue → batch formed.
    pub queue_wait: HistogramSnapshot,
    /// Batch formed → executor pickup.
    pub batch_form: HistogramSnapshot,
    /// Batched forward pass.
    pub inference: HistogramSnapshot,
    /// Priced → waiter woken.
    pub resolve: HistogramSnapshot,
    /// Journal append (journaled requests only).
    pub journal_append: HistogramSnapshot,
}

impl StageSnapshot {
    /// Folds another snapshot into this one (shard → arm aggregation).
    pub fn merge(&mut self, other: &StageSnapshot) {
        self.traced += other.traced;
        self.queue_wait.merge(&other.queue_wait);
        self.batch_form.merge(&other.batch_form);
        self.inference.merge(&other.inference);
        self.resolve.merge(&other.resolve);
        self.journal_append.merge(&other.journal_append);
    }

    /// Registers `<prefix>_traced_total` and one `<prefix>_stage_us`
    /// histogram per stage (labelled `stage`) into `registry`, tagging
    /// every sample with `labels`.
    pub fn register_metrics(
        &self,
        registry: &mut MetricsRegistry,
        prefix: &str,
        labels: &[(&str, &str)],
    ) {
        registry.counter(
            &format!("{prefix}_traced_total"),
            "Sampled requests folded into the stage histograms.",
            labels,
            self.traced,
        );
        let named = [
            ("queue_wait", &self.queue_wait),
            ("batch_form", &self.batch_form),
            ("inference", &self.inference),
            ("resolve", &self.resolve),
            ("journal_append", &self.journal_append),
        ];
        let name = format!("{prefix}_stage_us");
        for (stage, histogram) in named {
            registry.histogram(
                &name,
                "Per-stage latency decomposition from sampled traces (log2 us buckets).",
                &[labels, &[("stage", stage)]].concat(),
                histogram,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn stamped(tracer: &Tracer, session: u64, seq: u64) -> TraceRecord {
        let mut r = TraceRecord::new(session, seq);
        r.admit_us = tracer.now_us();
        r.journal_start_us = tracer.now_us();
        r.journal_end_us = tracer.now_us();
        r.enqueue_us = tracer.now_us();
        r.batch_formed_us = tracer.now_us();
        r.execute_start_us = tracer.now_us();
        r.priced_us = tracer.now_us();
        r.resolved_us = tracer.now_us();
        r.set_batch(4, 1);
        r
    }

    #[test]
    fn trace_id_is_stable_and_spread() {
        assert_eq!(trace_id(7, 3), trace_id(7, 3));
        assert_ne!(trace_id(7, 3), trace_id(7, 4));
        assert_ne!(trace_id(7, 3), trace_id(8, 3));
        // A contiguous id block should spread across a 1-in-64 sample.
        let hits = (0..64 * 64)
            .filter(|&s| trace_id(s, 0).is_multiple_of(64))
            .count();
        assert!(hits > 16 && hits < 256, "poorly spread sample: {hits}");
    }

    #[test]
    fn logical_clock_is_consecutive_and_strictly_positive() {
        let t = Tracer::new(TracerConfig::default().with_logical_clock(true));
        assert_eq!(t.now_us(), 1);
        assert_eq!(t.now_us(), 2);
        assert_eq!(t.now_us(), 3);
    }

    #[test]
    fn wall_clock_is_strictly_positive_and_monotone() {
        let t = Tracer::new(TracerConfig::default());
        let a = t.now_us();
        let b = t.now_us();
        assert!(a >= 1);
        assert!(b >= a);
    }

    #[test]
    fn sampling_one_in_n_is_deterministic() {
        let every = Tracer::new(TracerConfig::default().with_sample_every(1));
        assert!(every.sampled(12345));
        let none_special = Tracer::new(TracerConfig::default().with_sample_every(0));
        assert!(none_special.sampled(12345));
        let sparse = Tracer::new(TracerConfig::default().with_sample_every(64));
        assert!(sparse.sampled(128));
        assert!(!sparse.sampled(129));
    }

    #[test]
    fn stage_decomposition_telescopes_exactly() {
        let t = Tracer::new(TracerConfig::default().with_logical_clock(true));
        let r = stamped(&t, 42, 7);
        let s = r.stages();
        assert_eq!(
            s.admission_us + s.queue_wait_us + s.batch_form_us + s.inference_us + s.resolve_us,
            s.total_us,
        );
        assert!(s.journal_append_us <= s.admission_us);
        assert_eq!(r.batch_size(), 4);
        assert_eq!(r.shard(), 1);
    }

    #[test]
    fn unjournaled_record_reports_zero_journal_stage() {
        let t = Tracer::new(TracerConfig::default().with_logical_clock(true));
        let mut r = TraceRecord::new(1, 1);
        r.admit_us = t.now_us();
        r.enqueue_us = t.now_us();
        r.batch_formed_us = t.now_us();
        r.execute_start_us = t.now_us();
        r.priced_us = t.now_us();
        r.resolved_us = t.now_us();
        assert_eq!(r.stages().journal_append_us, 0);
        let h = StageHistograms::new();
        h.record(&r);
        assert_eq!(h.snapshot().journal_append.count, 0);
        assert_eq!(h.snapshot().queue_wait.count, 1);
    }

    #[test]
    fn ring_publishes_and_reads_back() {
        let t = Tracer::new(
            TracerConfig::default()
                .with_capacity(8)
                .with_logical_clock(true),
        );
        assert_eq!(t.capacity(), 8);
        let r = stamped(&t, 5, 9);
        t.publish(&r);
        let records = t.records();
        assert_eq!(records, vec![r]);
        assert_eq!(t.published(), 1);
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn ring_wraps_keeping_newest_records() {
        let t = Tracer::new(
            TracerConfig::default()
                .with_capacity(4)
                .with_logical_clock(true),
        );
        let records: Vec<TraceRecord> = (0..10).map(|i| stamped(&t, 1, i)).collect();
        for r in &records {
            t.publish(r);
        }
        let kept = t.records();
        assert_eq!(kept.len(), 4);
        // The newest four survive the wrap.
        assert_eq!(kept, records[6..].to_vec());
        assert_eq!(t.published(), 10);
    }

    #[test]
    fn concurrent_publish_never_yields_torn_records() {
        let t = Arc::new(Tracer::new(
            TracerConfig::default()
                .with_capacity(64)
                .with_logical_clock(true),
        ));
        let writers: Vec<_> = (0..4)
            .map(|w| {
                let t = Arc::clone(&t);
                std::thread::spawn(move || {
                    for i in 0..2000u64 {
                        let mut r = TraceRecord::new(w, i);
                        // Every stamp carries the writer tag so a torn read
                        // (words from two writers) is detectable.
                        let tag = w * 1_000_000 + i + 1;
                        r.admit_us = tag;
                        r.journal_start_us = tag;
                        r.journal_end_us = tag;
                        r.enqueue_us = tag;
                        r.batch_formed_us = tag;
                        r.execute_start_us = tag;
                        r.priced_us = tag;
                        r.resolved_us = tag;
                        t.publish(&r);
                    }
                })
            })
            .collect();
        let reader = {
            let t = Arc::clone(&t);
            std::thread::spawn(move || {
                for _ in 0..200 {
                    for r in t.records() {
                        assert_eq!(r.trace_id, trace_id(r.session, r.seq), "torn identity");
                        let tag = r.admit_us;
                        assert!(
                            [
                                r.journal_start_us,
                                r.journal_end_us,
                                r.enqueue_us,
                                r.batch_formed_us,
                                r.execute_start_us,
                                r.priced_us,
                                r.resolved_us,
                            ]
                            .iter()
                            .all(|&s| s == tag),
                            "torn stamps: {r:?}",
                        );
                    }
                }
            })
        };
        for w in writers {
            w.join().unwrap();
        }
        reader.join().unwrap();
        assert_eq!(t.published() + t.dropped(), 8000);
    }

    #[test]
    fn stage_snapshot_merges_and_serializes() {
        let t = Tracer::new(TracerConfig::default().with_logical_clock(true));
        let a = StageHistograms::new();
        a.record(&stamped(&t, 1, 1));
        let b = StageHistograms::new();
        b.record(&stamped(&t, 2, 2));
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged.traced, 2);
        assert_eq!(merged.queue_wait.count, 2);
        assert_eq!(merged.journal_append.count, 2);
        let mut registry = MetricsRegistry::new();
        merged.register_metrics(&mut registry, "vtm_test", &[("arm", "a")]);
        let text = registry.render_text();
        assert!(text.contains("vtm_test_traced_total{arm=\"a\"} 2\n"));
        assert!(text.contains("vtm_test_stage_us_count{arm=\"a\",stage=\"queue_wait\"} 2\n"));
    }

    #[test]
    fn record_json_contains_stamps_and_stages() {
        let t = Tracer::new(TracerConfig::default().with_logical_clock(true));
        let json = stamped(&t, 3, 4).to_json();
        assert!(json.contains("\"stamps_us\""), "{json}");
        assert!(json.contains("\"stages_us\""), "{json}");
        assert!(json.contains("\"total\": 7"), "{json}");
    }
}
