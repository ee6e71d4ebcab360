//! Trace-overhead acceptance: end-to-end stage tracing at the production
//! 1-in-64 sampling rate must cost less than 3% of closed-loop gateway
//! throughput versus tracing disabled.
//!
//! Ignored by default (it is a timed benchmark); CI's bench job runs it on
//! 4+ core runners with:
//!
//! ```text
//! cargo test -p vtm-bench --release -- --ignored --nocapture
//! ```

use std::time::Duration;

use vtm_bench::load_bench::bare_gateway_qps;
use vtm_gateway::{GatewayConfig, TracerConfig};
use vtm_obs::median;

/// Paired, interleaved timing: untraced and traced runs alternate so CPU
/// frequency drift hits both arms equally; the medians are compared.
#[test]
#[ignore = "timed acceptance benchmark; run with --ignored on quiet multi-core machines"]
fn tracing_overhead_stays_under_three_percent() {
    let duration = Duration::from_millis(600);
    let base_config = GatewayConfig::default()
        .with_executors(2)
        .with_max_batch(16)
        .with_max_delay(Duration::from_micros(200))
        .with_queue_capacity(4096);
    let traced_config = base_config
        .clone()
        .with_tracing(TracerConfig::default().with_sample_every(64));
    let qps = |config: &GatewayConfig| bare_gateway_qps(config.clone(), duration).unwrap();

    // Warm-up pass (page cache, thread pools, branch predictors).
    qps(&base_config);

    const REPEATS: usize = 5;
    let mut untraced = Vec::with_capacity(REPEATS);
    let mut traced = Vec::with_capacity(REPEATS);
    for _ in 0..REPEATS {
        untraced.push(qps(&base_config));
        traced.push(qps(&traced_config));
    }

    let untraced_qps = median(&mut untraced);
    let traced_qps = median(&mut traced);
    let overhead = 1.0 - traced_qps / untraced_qps;
    println!(
        "closed-loop gateway: untraced {untraced_qps:.0} quotes/s, traced(1/64) \
         {traced_qps:.0} quotes/s, overhead {:.1}%",
        overhead * 100.0
    );
    assert!(
        overhead < 0.03,
        "tracing overhead {:.1}% exceeds the 3% budget \
         (untraced {untraced_qps:.0} qps, traced {traced_qps:.0} qps)",
        overhead * 100.0
    );
}
