//! Journal overhead acceptance: appending every admitted request to the
//! audit journal must cost less than 10% of closed-loop gateway throughput.
//!
//! Ignored by default (it is a timed benchmark); CI's bench job runs it on
//! 4+ core runners with:
//!
//! ```text
//! cargo test -p vtm-bench --release -- --ignored --nocapture
//! ```

use std::path::PathBuf;
use std::time::Duration;

use vtm_bench::load_bench::bare_gateway_qps;
use vtm_gateway::GatewayConfig;
use vtm_journal::{find_snapshots, JournalOptions};
use vtm_obs::median;

/// Paired, interleaved timing: plain and journaling runs alternate so CPU
/// frequency drift hits both arms equally; the medians are compared.
#[test]
#[ignore = "timed acceptance benchmark; run with --ignored on quiet multi-core machines"]
fn journaling_overhead_stays_under_ten_percent() {
    let journal: PathBuf =
        std::env::temp_dir().join(format!("vtm_overhead_{}.vtmj", std::process::id()));
    let duration = Duration::from_millis(600);
    let base_config = GatewayConfig::default()
        .with_executors(2)
        .with_max_batch(16)
        .with_max_delay(Duration::from_micros(200))
        .with_queue_capacity(4096);
    // Buffered appends (flush every 32) — the production cadence; the
    // journal is recreated from scratch each run.
    let journaled_config = base_config
        .clone()
        .with_journal(JournalOptions::new(&journal).with_flush_every(32));
    let qps = |config: &GatewayConfig| bare_gateway_qps(config.clone(), duration).unwrap();

    // Warm-up pass (page cache, thread pools, branch predictors).
    qps(&base_config);

    const REPEATS: usize = 5;
    let mut plain = Vec::with_capacity(REPEATS);
    let mut journaled = Vec::with_capacity(REPEATS);
    for _ in 0..REPEATS {
        plain.push(qps(&base_config));
        journaled.push(qps(&journaled_config));
    }
    for (_, path) in find_snapshots(&journal) {
        let _ = std::fs::remove_file(path);
    }
    let _ = std::fs::remove_file(&journal);

    let plain_qps = median(&mut plain);
    let journaled_qps = median(&mut journaled);
    let overhead = 1.0 - journaled_qps / plain_qps;
    println!(
        "closed-loop gateway: plain {plain_qps:.0} quotes/s, journaled {journaled_qps:.0} \
         quotes/s, overhead {:.1}%",
        overhead * 100.0
    );
    assert!(
        overhead < 0.10,
        "journaling overhead {:.1}% exceeds the 10% budget \
         (plain {plain_qps:.0} qps, journaled {journaled_qps:.0} qps)",
        overhead * 100.0
    );
}
