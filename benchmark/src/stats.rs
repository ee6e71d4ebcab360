//! The rules the benchmark reports by: percentiles with their sample
//! counts, the sustained-rate selection over the open-loop ladder, and the
//! growing-backlog test.

/// Samples a reported percentile must leave beyond it.
pub const MIN_BEYOND: usize = 10;

/// Percentile levels the tail rule chooses from, highest first; p99 is
/// the highest the benchmark reports.
pub const TAIL_LEVELS: [f64; 4] = [0.99, 0.95, 0.9, 0.5];

/// The 1-based nearest rank of percentile `q` among `n` samples.
pub fn nearest_rank(n: usize, q: f64) -> usize {
    ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// How many of `n` samples lie beyond the nearest-rank percentile `q`.
pub fn beyond(n: usize, q: f64) -> usize {
    n.saturating_sub(nearest_rank(n, q))
}

/// The highest level of [`TAIL_LEVELS`] that leaves at least
/// [`MIN_BEYOND`] samples beyond it, or `None` when even the median
/// does not.
pub fn tail_level(n: usize) -> Option<f64> {
    TAIL_LEVELS
        .iter()
        .copied()
        .find(|&q| beyond(n, q) >= MIN_BEYOND)
}

/// A distribution summarised by the percentile rule: the median and the
/// highest percentile with at least [`MIN_BEYOND`] samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentiles {
    /// Samples the percentiles were taken over.
    pub samples: usize,
    /// Nearest-rank median.
    pub p50: f64,
    /// Nearest-rank 90th percentile.
    pub p90: f64,
    /// The tail level chosen by [`tail_level`].
    pub tail_level: f64,
    /// The value at `tail_level`.
    pub tail: f64,
}

impl Percentiles {
    /// Summarises `samples` (sorted in place). A missing result — a
    /// request that failed or was refused — is passed as `f64::INFINITY`,
    /// so it counts as missing every latency limit. `None` when there are
    /// too few samples for the rule.
    pub fn of(samples: &mut [f64]) -> Option<Self> {
        let n = samples.len();
        let level = tail_level(n)?;
        samples.sort_by(f64::total_cmp);
        let at = |q: f64| samples[nearest_rank(n, q) - 1];
        Some(Self {
            samples: n,
            p50: at(0.5),
            p90: at(0.9),
            tail_level: level,
            tail: at(level),
        })
    }

    /// `"p99"`, `"p99.9"`, … for the chosen tail level.
    pub fn tail_name(&self) -> String {
        format!("p{}", (self.tail_level * 1000.0).round() / 10.0)
    }

    /// One human-readable line with the sample count next to each
    /// percentile.
    pub fn describe(&self, unit: &str) -> String {
        format!(
            "p50 {:.1} {unit} (n={}), p90 {:.1} {unit} (n={}, {} beyond), {} {:.1} {unit} (n={}, {} beyond)",
            self.p50,
            self.samples,
            self.p90,
            self.samples,
            beyond(self.samples, 0.9),
            self.tail_name(),
            self.tail,
            self.samples,
            beyond(self.samples, self.tail_level),
        )
    }
}

/// Most consecutive segments a latency series is summarised over.
pub const SEGMENTS: usize = 20;

/// Fewest samples in a segment, so each segment has a p99 with ten samples
/// beyond it.
pub const SEGMENT_SAMPLES: usize = 1000;

/// Index ranges cutting `n` items into up to `most` consecutive segments of
/// at least `fewest` items each (one segment when there are fewer).
pub fn segment_bounds(n: usize, fewest: usize, most: usize) -> Vec<std::ops::Range<usize>> {
    let count = (n / fewest.max(1)).clamp(1, most.max(1));
    (0..count)
        .map(|k| k * n / count..(k + 1) * n / count)
        .collect()
}

/// Splits a latency series, in time order, into up to [`SEGMENTS`]
/// consecutive segments of at least [`SEGMENT_SAMPLES`] samples and
/// summarises each. `None` when a segment has too few samples for the
/// percentile rule.
pub fn segments(series: &[f64]) -> Option<Vec<Percentiles>> {
    segment_bounds(series.len(), SEGMENT_SAMPLES, SEGMENTS)
        .into_iter()
        .map(|range| Percentiles::of(&mut series[range].to_vec()))
        .collect()
}

/// The quiet-quarter value of repeated measurements where lower is better:
/// their first quartile (nearest rank). Interference from outside the
/// process (another tenant on a shared host) during up to three quarters of
/// a run does not move it; a change in the code moves every repeat.
pub fn quiet_low(values: &[f64]) -> f64 {
    quartile(values, 0.25)
}

/// [`quiet_low`] for measurements where higher is better: their third
/// quartile.
pub fn quiet_high(values: &[f64]) -> f64 {
    quartile(values, 0.75)
}

fn quartile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[nearest_rank(sorted.len(), q) - 1]
}

/// The mean of `values` (0 for an empty slice).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The nearest-rank median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[nearest_rank(sorted.len(), 0.5) - 1]
}

/// One time segment of an open-loop rung.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RungSegment {
    /// Latency from due time; refused and failed requests are infinite
    /// samples.
    pub latency: Percentiles,
    /// Requests in the segment that were refused or failed.
    pub missing: u64,
}

/// What one rung of the open-loop ladder measured.
#[derive(Debug, Clone, PartialEq)]
pub struct RungOutcome {
    /// Offered rate, requests per second.
    pub rate_qps: f64,
    /// Requests offered.
    pub attempted: u64,
    /// Requests refused by admission control.
    pub rejected: u64,
    /// Requests admitted that resolved with an error.
    pub failed: u64,
    /// The rung cut into time segments ([`segment_bounds`]).
    pub segments: Vec<RungSegment>,
    /// Whether in-flight depth grew across the rung ([`backlog_growing`]).
    pub backlog_growing: bool,
}

impl RungOutcome {
    /// The quiet-quarter segment median, µs ([`quiet_low`]).
    pub fn p50_us(&self) -> f64 {
        quiet_low(
            &self
                .segments
                .iter()
                .map(|s| s.latency.p50)
                .collect::<Vec<_>>(),
        )
    }

    /// The quiet-quarter segment p90, µs ([`quiet_low`]).
    pub fn p90_us(&self) -> f64 {
        quiet_low(
            &self
                .segments
                .iter()
                .map(|s| s.latency.p90)
                .collect::<Vec<_>>(),
        )
    }

    /// The quiet-quarter segment tail, µs ([`quiet_low`]); a segment with
    /// a refused or failed request counts as an infinite tail.
    pub fn tail_us(&self) -> f64 {
        let tails: Vec<f64> = self
            .segments
            .iter()
            .map(|s| {
                if s.missing > 0 {
                    f64::INFINITY
                } else {
                    s.latency.tail
                }
            })
            .collect();
        quiet_low(&tails)
    }

    /// The conditions of a sustained rung: in its quiet quarter of
    /// segments nothing was refused or failed and the tail stayed within
    /// `limit_us` ([`RungOutcome::tail_us`]), and the backlog did not grow.
    pub fn meets(&self, limit_us: f64) -> bool {
        !self.backlog_growing && !self.segments.is_empty() && self.tail_us() <= limit_us
    }
}

/// The highest offered rate among the rungs that meet the conditions
/// ([`RungOutcome::meets`]), or `None` when no rung does.
pub fn sustained_rate(rungs: &[RungOutcome], limit_us: f64) -> Option<f64> {
    rungs
        .iter()
        .filter(|r| r.meets(limit_us))
        .map(|r| r.rate_qps)
        .max_by(f64::total_cmp)
}

/// Whether in-flight depth, sampled at a steady cadence across a rung,
/// grew: the mean over the last quarter of the samples exceeds twice the
/// mean over the first quarter plus `floor` (the depth a healthy system
/// may reach while batches form). Fewer than four samples never count as
/// growth.
pub fn backlog_growing(depths: &[u64], floor: f64) -> bool {
    let quarter = depths.len() / 4;
    if quarter == 0 {
        return false;
    }
    let avg = |xs: &[u64]| xs.iter().map(|&d| d as f64).sum::<f64>() / xs.len() as f64;
    let first = avg(&depths[..quarter]);
    let last = avg(&depths[depths.len() - quarter..]);
    last > 2.0 * first + floor
}
