//! The reporting rules on synthetic inputs: the percentile rule, the
//! sustained-rate selection over rung results, and the backlog test.

use vtm_benchmark::stats::{
    backlog_growing, beyond, quiet_high, quiet_low, segment_bounds, segments, sustained_rate,
    tail_level, Percentiles, RungOutcome, RungSegment, SEGMENTS,
};

#[test]
fn the_tail_is_the_highest_percentile_with_ten_samples_beyond_it() {
    assert_eq!(tail_level(1000), Some(0.99));
    assert_eq!(beyond(1000, 0.99), 10);
    // 999 samples leave only 9 beyond p99, so p95 is reported.
    assert_eq!(tail_level(999), Some(0.95));
    assert_eq!(tail_level(200), Some(0.95));
    assert_eq!(tail_level(199), Some(0.9));
    assert_eq!(tail_level(20), Some(0.5));
    assert_eq!(tail_level(19), None);
    // p99 is the cap: a million samples still report p99.
    assert_eq!(tail_level(1_000_000), Some(0.99));
}

#[test]
fn percentiles_are_nearest_rank_and_count_missing_results() {
    let mut samples: Vec<f64> = (1..=1000).map(f64::from).rev().collect();
    let p = Percentiles::of(&mut samples).unwrap();
    assert_eq!(
        (p.samples, p.p50, p.tail_level, p.tail),
        (1000, 500.0, 0.99, 990.0)
    );
    assert_eq!(p.tail_name(), "p99");
    assert!(p.describe("us").contains("(n=1000, 10 beyond)"));

    // Ten refused requests sit beyond p99; an eleventh reaches it.
    let mut samples: Vec<f64> = (1..=990).map(f64::from).collect();
    samples.extend([f64::INFINITY; 10]);
    assert_eq!(Percentiles::of(&mut samples).unwrap().tail, 990.0);
    samples[0] = f64::INFINITY;
    assert!(Percentiles::of(&mut samples).unwrap().tail.is_infinite());

    assert!(Percentiles::of(&mut [1.0; 19]).is_none());
}

fn segment(tail: f64) -> RungSegment {
    let mut samples = vec![100.0; 990];
    samples.extend([tail; 10]);
    samples.push(tail);
    RungSegment {
        latency: Percentiles::of(&mut samples).unwrap(),
        missing: 0,
    }
}

fn rung(rate_qps: f64, tail: f64) -> RungOutcome {
    RungOutcome {
        rate_qps,
        attempted: 8008,
        rejected: 0,
        failed: 0,
        segments: vec![segment(tail); 8],
        backlog_growing: false,
    }
}

/// Marks `count` segments of `rung` as having refused or failed requests.
fn with_missing(mut rung: RungOutcome, count: usize) -> RungOutcome {
    for segment in &mut rung.segments[..count] {
        segment.missing = 1;
    }
    rung.rejected = count as u64;
    rung
}

const LIMIT: f64 = 5000.0;

#[test]
fn the_sustained_rate_is_the_highest_rung_meeting_all_three_conditions() {
    let ladder = [
        rung(16e3, 1200.0),
        rung(32e3, 1400.0),
        rung(64e3, 1600.0),
        rung(192e3, 90e3),
    ];
    assert_eq!(ladder[3].tail_us(), 90e3);
    assert_eq!(sustained_rate(&ladder, LIMIT), Some(64e3));

    // A tail exactly at the limit meets it; just above does not.
    let at_limit = [rung(16e3, 1200.0), rung(64e3, LIMIT)];
    assert_eq!(sustained_rate(&at_limit, LIMIT), Some(64e3));
    let over = [rung(16e3, 1200.0), rung(64e3, LIMIT + 0.001)];
    assert_eq!(sustained_rate(&over, LIMIT), Some(16e3));
}

#[test]
fn refusals_beyond_the_quiet_quarter_or_a_growing_backlog_fail_a_rung() {
    // 8 segments: the quiet quarter is the second-best segment, so a rung
    // fails once more than 6 segments refused or failed a request.
    let shaken = with_missing(rung(64e3, 1600.0), 6);
    assert!(shaken.meets(LIMIT));
    let refusing = with_missing(rung(64e3, 1600.0), 7);
    assert!(!refusing.meets(LIMIT));
    assert!(refusing.tail_us().is_infinite());
    let mut backlog = rung(64e3, 1600.0);
    backlog.backlog_growing = true;
    for top in [refusing, backlog] {
        assert!(!top.meets(LIMIT));
        assert_eq!(
            sustained_rate(&[rung(16e3, 1200.0), top], LIMIT),
            Some(16e3)
        );
    }
    // No rung sustained: no rate.
    assert_eq!(sustained_rate(&[rung(16e3, 9000.0)], LIMIT), None);
    assert_eq!(sustained_rate(&[], LIMIT), None);
}

#[test]
fn a_rung_reports_its_quiet_quarter_so_host_stalls_do_not_move_it() {
    let mut r = rung(64e3, 1600.0);
    for stalled in &mut r.segments[..6] {
        *stalled = segment(40_000.0);
    }
    assert_eq!(r.tail_us(), 1600.0);
    assert!(r.meets(LIMIT));
    r.segments[6] = segment(40_000.0);
    assert_eq!(r.tail_us(), 40_000.0);
    assert!(!r.meets(LIMIT));
}

#[test]
fn the_highest_passing_rung_counts_even_above_a_failing_one() {
    // The definition is the highest rung that meets the conditions, not
    // the top of an unbroken run of passing rungs.
    let ladder = [rung(16e3, 9000.0), rung(64e3, 1600.0)];
    assert_eq!(sustained_rate(&ladder, LIMIT), Some(64e3));
}

#[test]
fn backlog_growth_compares_the_last_quarter_with_the_first() {
    assert!(!backlog_growing(&[100; 40], 256.0));
    let ramp: Vec<u64> = (0..40).map(|i| i * 100).collect();
    assert!(backlog_growing(&ramp, 256.0));
    // Growth within the floor is a batch forming, not a backlog.
    let small: Vec<u64> = (0..40).map(|i| i * 5).collect();
    assert!(!backlog_growing(&small, 256.0));
    // A depth pinned at the admission bound from the start is refusal, not
    // growth (refusals fail the rung on their own).
    assert!(!backlog_growing(&[4096; 40], 1024.0));
    assert!(!backlog_growing(&[0, 9999, 9999], 0.0));
}

#[test]
fn a_series_is_cut_into_segments_of_at_least_a_thousand_samples() {
    let series: Vec<f64> = (0..25_000).map(|i| f64::from(i % 1000)).collect();
    let cut = segments(&series).unwrap();
    assert_eq!(cut.len(), SEGMENTS);
    assert!(cut
        .iter()
        .all(|s| s.samples == 1250 && s.tail_level == 0.99));
    assert_eq!(cut.iter().map(|s| s.samples).sum::<usize>(), 25_000);
    // Fewer than two thousand samples stay one segment.
    assert_eq!(segments(&series[..1999]).unwrap().len(), 1);
    assert_eq!(segments(&series[..999]).unwrap()[0].tail_level, 0.95);
    assert!(segments(&series[..19]).is_none());
    // The bounds tile the series exactly.
    let bounds = segment_bounds(1003, 100, 7);
    assert_eq!(bounds.len(), 7);
    assert_eq!(bounds.first().unwrap().start, 0);
    assert_eq!(bounds.last().unwrap().end, 1003);
    assert!(bounds.windows(2).all(|w| w[0].end == w[1].start));
}

#[test]
fn the_quiet_quarter_is_the_first_or_third_quartile() {
    let values: Vec<f64> = (1..=20).map(f64::from).rev().collect();
    assert_eq!(quiet_low(&values), 5.0);
    assert_eq!(quiet_high(&values), 15.0);
    // Stalls in up to three quarters of the repeats leave it unmoved.
    let mut stalled = values.clone();
    for v in stalled.iter_mut().filter(|v| **v > 5.0) {
        *v *= 10.0;
    }
    assert_eq!(quiet_low(&stalled), 5.0);
    assert_eq!(quiet_low(&[]), 0.0);
}
