//! The metric vocabulary and the one-line JSON result.
//!
//! Every workload fills a [`Metrics`] map; [`result_line`] then emits the
//! declared metrics of the requested kind, in declaration order, and
//! refuses a map that misses a declared name or carries an undeclared one.

use std::collections::BTreeMap;

/// End-to-end metrics `(name, unit)`: printed by every run with tracing
/// off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("throughput_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p90_us", "us"),
    ("ok_share", "ratio"),
    ("equilibrium_ratio", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics `(name, unit)`: printed by every traced run. A layer
/// that is not on a workload's path reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("gateway.admission_us.p50", "us"),
    ("gateway.admission_us.mean", "us"),
    ("gateway.journal_append_us.p50", "us"),
    ("gateway.journal_append_us.mean", "us"),
    ("gateway.queue_wait_us.p50", "us"),
    ("gateway.queue_wait_us.mean", "us"),
    ("gateway.batch_form_us.p50", "us"),
    ("gateway.batch_form_us.mean", "us"),
    ("gateway.inference_us.p50", "us"),
    ("gateway.inference_us.mean", "us"),
    ("gateway.resolve_us.p50", "us"),
    ("gateway.resolve_us.mean", "us"),
    ("gateway.client_wake_us.p50", "us"),
    ("gateway.client_wake_us.mean", "us"),
    ("gateway.client_latency_us.mean", "us"),
    ("gateway.stage_coverage", "ratio"),
    ("gateway.traced_requests", "count"),
    ("gateway.batch_size_mean", "count"),
    ("gateway.batch_fill", "ratio"),
    ("gateway.rejected", "count"),
    ("gateway.trace_overhead", "ratio"),
    ("serve.quote_refs_ns_per_quote.b1", "ns"),
    ("serve.quote_refs_ns_per_quote.b8", "ns"),
    ("serve.quote_refs_ns_per_quote.b32", "ns"),
    ("serve.session_evictions", "count"),
    ("serve.sessions_live", "count"),
    ("nn.forward_ns_per_row.f64.b1", "ns"),
    ("nn.forward_ns_per_row.f64.b32", "ns"),
    ("nn.forward_ns_per_row.f32.b1", "ns"),
    ("nn.forward_ns_per_row.f32.b32", "ns"),
    ("nn.flops_per_row", "flop"),
    ("nn.weight_bytes", "B"),
    ("journal.append_ns", "ns"),
    ("journal.bytes_per_quote", "B"),
    ("journal.replay_frames_per_s", "1/s"),
    ("fabric.route_ns", "ns"),
    ("fabric.shard_skew", "ratio"),
    ("rl.collect_s", "s"),
    ("rl.gae_s", "s"),
    ("rl.update_s", "s"),
    ("rl.transitions", "count"),
    ("rl.grad_steps", "count"),
    ("env.step_ns", "ns"),
    ("loadgen.lag_p99_us", "us"),
];

/// Measured values by metric name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// What one run did, ready to print.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations attempted (quotes offered, or PPO iterations).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Every metric the run measured.
    pub metrics: Metrics,
}

/// Renders the final result line for the declared metrics of `declared`.
///
/// # Errors
///
/// Names a declared metric the run did not measure, a measured metric
/// that is not declared, or a value that is not finite.
pub fn result_line(outcome: &Outcome, declared: &[(&str, &str)]) -> Result<String, String> {
    if let Some(extra) = outcome
        .metrics
        .keys()
        .find(|name| !declared.iter().any(|(d, _)| d == *name))
    {
        return Err(format!("metric {extra} is not declared"));
    }
    let mut fields = Vec::with_capacity(declared.len());
    for (name, unit) in declared {
        let value = *outcome
            .metrics
            .get(name)
            .ok_or_else(|| format!("declared metric {name} was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite ({value})"));
        }
        fields.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        ));
    }
    Ok(format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        fields.join(", ")
    ))
}

/// A finite f64 as a JSON number with every digit Rust's shortest
/// round-trip form keeps.
fn json_number(value: f64) -> String {
    let text = format!("{value}");
    if text.contains(['.', 'e', 'E']) {
        text
    } else {
        format!("{text}.0")
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
///
/// # Errors
///
/// When `/proc/self/status` is unreadable or has no `VmHWM` line.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kib| kib.parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}
