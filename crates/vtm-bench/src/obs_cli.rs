//! The observability subcommands: `experiments metrics-dump` and
//! `experiments slo-check`.
//!
//! `metrics-dump` drives a small traced gateway run in **logical-clock
//! mode** — every tracer timestamp is a monotonically increasing integer
//! tick instead of wall time — so the per-stage latency decomposition it
//! prints is bit-reproducible across machines. The run submits requests
//! serially (submit, then wait), which pins the tick order per request and
//! makes the telescoping identity `admission + queue_wait + batch_form +
//! inference + resolve == total` checkable exactly. The resulting metrics
//! registry (gateway counters, stage histograms, service session stats) is
//! rendered in both the Prometheus text exposition format and JSON and
//! saved under `results/`.
//!
//! `slo-check` compares fresh `BENCH_gateway.json` / `BENCH_fabric.json`
//! reports against the committed baselines in `results/baselines/` with an
//! explicit noise band: throughput regressions beyond the band fail (exit
//! 1), latency regressions only warn (shared-runner latency is too noisy to
//! gate on — see `docs/OBSERVABILITY.md` for the baseline update
//! procedure).

use std::path::PathBuf;
use std::sync::Arc;

use vtm_obs::{DeltaWindow, JsonValue, MetricsRegistry, TraceRecord, TracerConfig};
use vtm_rl::env::ActionSpace;
use vtm_rl::ppo::{PpoAgent, PpoConfig};
use vtm_serve::{PricingService, QuoteRequest, ServiceConfig};

use vtm_gateway::{Gateway, GatewayConfig};

use crate::results_dir;

/// Options of one `experiments metrics-dump` run.
#[derive(Debug, Clone)]
pub struct MetricsDumpOptions {
    /// Distinct VMU sessions in the deterministic stream.
    pub sessions: usize,
    /// Rounds (one request per session per round).
    pub rounds: usize,
    /// Trace 1-in-N sampling (1 = every request).
    pub sample_every: u64,
    /// Policy seed for the throwaway snapshot.
    pub seed: u64,
    /// Write `metrics.prom` / `metrics.json` / `TRACE_gateway.json` under
    /// `results/`.
    pub save: bool,
}

impl Default for MetricsDumpOptions {
    fn default() -> Self {
        Self {
            sessions: 8,
            rounds: 8,
            sample_every: 1,
            seed: 11,
            save: true,
        }
    }
}

/// What one `metrics-dump` run produced.
#[derive(Debug, Clone)]
pub struct MetricsDumpResult {
    /// Requests submitted (and completed — the run is serial).
    pub completed: u64,
    /// Trace records captured in the ring.
    pub records: Vec<TraceRecord>,
    /// Whether every record satisfied the telescoping stage identity.
    pub identity_ok: bool,
    /// The deterministic per-stage decomposition report (logical ticks).
    pub stage_report: String,
    /// Prometheus text exposition of the final registry.
    pub text: String,
    /// JSON rendering of the final registry.
    pub json: String,
    /// Completions observed in the *second half* of the run, measured via a
    /// rotating [`DeltaWindow`] over the cumulative registry.
    pub window_completed: u64,
    /// Files written (empty with `save: false`).
    pub saved: Vec<PathBuf>,
}

const HISTORY: usize = 4;
const FEATURES: usize = 3;

/// Runs the deterministic traced gateway run and renders its metrics.
///
/// # Errors
///
/// Returns a human-readable message for gateway/service construction
/// failures, submission errors or report I/O failures.
pub fn run_metrics_dump(opts: &MetricsDumpOptions) -> Result<MetricsDumpResult, String> {
    let sessions = opts.sessions.max(1);
    let rounds = opts.rounds.max(1);
    let agent = PpoAgent::new(
        PpoConfig::new(HISTORY * FEATURES, 1).with_seed(opts.seed),
        ActionSpace::scalar(5.0, 50.0),
    );
    let service = Arc::new(
        PricingService::from_snapshot(&agent.snapshot(), ServiceConfig::new(HISTORY, FEATURES))
            .map_err(|e| format!("cannot build service: {e}"))?,
    );
    let tracing = TracerConfig::default()
        .with_sample_every(opts.sample_every)
        .with_capacity((sessions * rounds).next_power_of_two())
        .with_logical_clock(true);
    let gateway = Gateway::start(
        Arc::clone(&service),
        GatewayConfig::default()
            .with_max_batch(4)
            .with_tracing(tracing),
    );

    // Serial submit → wait: each request's tracer ticks land in a fixed
    // global order, so the decomposition below is bit-reproducible.
    let mut window = DeltaWindow::new();
    let mut completed = 0u64;
    for round in 0..rounds {
        for s in 0..sessions {
            let features: Vec<f64> = (0..FEATURES)
                .map(|f| ((round * 31 + s * 7 + f) % 97) as f64 / 97.0)
                .collect();
            let ticket = gateway
                .submit(QuoteRequest::new(s as u64, features))
                .map_err(|e| format!("submit failed: {e}"))?;
            ticket.wait().map_err(|e| format!("wait failed: {e}"))?;
            completed += 1;
        }
        if round + 1 == rounds / 2 {
            // First rotation of the delta window: the second half of the
            // run will be reported as a windowed delta.
            let mut registry = MetricsRegistry::new();
            gateway.telemetry().register_metrics(&mut registry, &[]);
            window.rotate(registry);
        }
    }

    let records = gateway.trace_records();
    let snapshot = gateway.shutdown();
    let mut registry = MetricsRegistry::new();
    snapshot.register_metrics(&mut registry, &[]);
    service.stats().register_metrics(&mut registry, &[]);
    let delta = window.rotate(registry.clone());
    let window_completed = registry_counter(&delta, "vtm_gateway_completed_total");

    let (stage_report, identity_ok) = decompose(&records, completed);
    let text = registry.render_text();
    let json = registry.render_json();

    let mut saved = Vec::new();
    if opts.save {
        let dir = results_dir();
        let traces: Vec<String> = records.iter().map(TraceRecord::to_json).collect();
        let trace_json = format!(
            "{{\"traced\": {}, \"identity_ok\": {}, \"records\": [\n  {}\n]}}\n",
            records.len(),
            identity_ok,
            traces.join(",\n  ")
        );
        for (name, body) in [
            ("metrics.prom", &text),
            ("metrics.json", &json),
            ("TRACE_gateway.json", &trace_json),
        ] {
            let path = dir.join(name);
            std::fs::write(&path, body).map_err(|e| format!("cannot write {name}: {e}"))?;
            saved.push(path);
        }
    }

    Ok(MetricsDumpResult {
        completed,
        records,
        identity_ok,
        stage_report,
        text,
        json,
        window_completed,
        saved,
    })
}

/// Sums a counter family's samples in a rendered registry.
fn registry_counter(registry: &MetricsRegistry, name: &str) -> u64 {
    registry
        .families()
        .iter()
        .filter(|f| f.name == name)
        .flat_map(|f| &f.samples)
        .map(|s| match &s.value {
            vtm_obs::MetricValue::Counter(v) => *v,
            _ => 0,
        })
        .sum()
}

/// Builds the per-stage decomposition report and checks the telescoping
/// identity on every record.
fn decompose(records: &[TraceRecord], completed: u64) -> (String, bool) {
    let mut sums = [0u64; 6];
    let mut identity_ok = true;
    for record in records {
        let stages = record.stages();
        let parts = [
            stages.admission_us,
            stages.queue_wait_us,
            stages.batch_form_us,
            stages.inference_us,
            stages.resolve_us,
            stages.total_us,
        ];
        for (sum, part) in sums.iter_mut().zip(parts) {
            *sum += part;
        }
        if stages.admission_us
            + stages.queue_wait_us
            + stages.batch_form_us
            + stages.inference_us
            + stages.resolve_us
            != stages.total_us
        {
            identity_ok = false;
        }
    }
    let n = records.len().max(1) as f64;
    let names = [
        "admission",
        "queue_wait",
        "batch_form",
        "inference",
        "resolve",
        "total",
    ];
    let mut report = format!(
        "stage decomposition ({} traced of {} completed, logical ticks):\n",
        records.len(),
        completed
    );
    for (name, sum) in names.iter().zip(sums) {
        report.push_str(&format!(
            "  {name:<11} sum={sum:<6} mean={:.2}\n",
            sum as f64 / n
        ));
    }
    report.push_str(&format!(
        "  identity admission+queue_wait+batch_form+inference+resolve == total: {}\n",
        if identity_ok { "HOLDS" } else { "VIOLATED" }
    ));
    (report, identity_ok)
}

/// Options of one `experiments slo-check` run.
#[derive(Debug, Clone)]
pub struct SloOptions {
    /// Directory holding the fresh `BENCH_*.json` reports.
    pub current_dir: PathBuf,
    /// Directory holding the committed baseline reports.
    pub baseline_dir: PathBuf,
    /// Benches to check (`gateway`, `fabric`); empty means both.
    pub benches: Vec<String>,
    /// Allowed fractional throughput drop before failing (0.30 = -30%).
    pub qps_band: f64,
    /// Allowed fractional p99-latency growth before *warning*.
    pub latency_band: f64,
    /// Absolute latency slack (µs) added to the warn threshold — sub-floor
    /// wobble on shared runners is never worth a warning.
    pub latency_floor_us: f64,
    /// Report failures but exit 0 (for noisy 1-core CI runners).
    pub warn_only: bool,
}

impl Default for SloOptions {
    fn default() -> Self {
        Self {
            current_dir: results_dir(),
            baseline_dir: results_dir().join("baselines"),
            benches: Vec::new(),
            qps_band: 0.30,
            latency_band: 0.50,
            latency_floor_us: 500.0,
            warn_only: false,
        }
    }
}

/// Severity of one SLO comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SloStatus {
    /// Within the band.
    Ok,
    /// Out of band on a warn-only metric (latency).
    Warn,
    /// Out of band on an enforced metric (throughput).
    Fail,
}

/// One baseline-vs-current comparison.
#[derive(Debug, Clone)]
pub struct SloFinding {
    /// Which bench the metric came from (`gateway` / `fabric`).
    pub bench: String,
    /// Metric name inside the bench report.
    pub metric: String,
    /// Committed baseline value.
    pub baseline: f64,
    /// Freshly measured value.
    pub current: f64,
    /// `current / baseline`.
    pub ratio: f64,
    /// Outcome of the comparison.
    pub status: SloStatus,
}

/// Every comparison of one `slo-check` run.
#[derive(Debug, Clone)]
pub struct SloReport {
    /// All comparisons, in bench order.
    pub findings: Vec<SloFinding>,
}

impl SloReport {
    /// Whether no enforced metric regressed.
    pub fn passed(&self) -> bool {
        self.findings.iter().all(|f| f.status != SloStatus::Fail)
    }
}

/// The qps metrics enforced per bench (path, both files must have them).
const QPS_METRICS: &[&str] = &["baseline_qps", "scaled_qps"];

/// Compares fresh bench reports against the committed baselines.
///
/// # Errors
///
/// Returns a human-readable message when a report or baseline file is
/// missing or unparseable — the caller maps that to exit code 2 (usage/io),
/// distinct from exit 1 (SLO regression).
pub fn run_slo_check(opts: &SloOptions) -> Result<SloReport, String> {
    let benches: Vec<String> = if opts.benches.is_empty() {
        vec!["gateway".to_string(), "fabric".to_string()]
    } else {
        opts.benches.clone()
    };
    let mut findings = Vec::new();
    for bench in &benches {
        if bench != "gateway" && bench != "fabric" {
            return Err(format!("unknown bench `{bench}` (expected gateway|fabric)"));
        }
        let file = format!("BENCH_{bench}.json");
        let current = load_json(&opts.current_dir.join(&file))?;
        let baseline = load_json(&opts.baseline_dir.join(&file))?;
        for metric in QPS_METRICS {
            let (base, cur) = match (number_at(&baseline, metric), number_at(&current, metric)) {
                (Some(b), Some(c)) => (b, c),
                _ => return Err(format!("{file}: metric `{metric}` missing")),
            };
            let ratio = if base > 0.0 { cur / base } else { 1.0 };
            let status = if cur < base * (1.0 - opts.qps_band) {
                SloStatus::Fail
            } else {
                SloStatus::Ok
            };
            findings.push(SloFinding {
                bench: bench.clone(),
                metric: (*metric).to_string(),
                baseline: base,
                current: cur,
                ratio,
                status,
            });
        }
        // f32 throughput is gateway-only and optional in older baselines.
        if let (Some(base), Some(cur)) = (
            number_at(&baseline, "f32_scaled_qps"),
            number_at(&current, "f32_scaled_qps"),
        ) {
            let status = if cur < base * (1.0 - opts.qps_band) {
                SloStatus::Fail
            } else {
                SloStatus::Ok
            };
            findings.push(SloFinding {
                bench: bench.clone(),
                metric: "f32_scaled_qps".to_string(),
                baseline: base,
                current: cur,
                ratio: if base > 0.0 { cur / base } else { 1.0 },
                status,
            });
        }
        // Client p99 of the first (baseline-closed) run: warn-only.
        if let (Some(base), Some(cur)) = (
            number_at(&baseline, "runs.0.client_p99_us"),
            number_at(&current, "runs.0.client_p99_us"),
        ) {
            let threshold = (base * (1.0 + opts.latency_band)).max(base + opts.latency_floor_us);
            let status = if cur > threshold {
                SloStatus::Warn
            } else {
                SloStatus::Ok
            };
            findings.push(SloFinding {
                bench: bench.clone(),
                metric: "client_p99_us".to_string(),
                baseline: base,
                current: cur,
                ratio: if base > 0.0 { cur / base } else { 1.0 },
                status,
            });
        }
    }
    Ok(SloReport { findings })
}

/// Reads and parses one JSON report.
fn load_json(path: &std::path::Path) -> Result<JsonValue, String> {
    let body = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    JsonValue::parse(&body).map_err(|e| format!("cannot parse {}: {e}", path.display()))
}

/// A finite number at a dot-separated path, if present.
fn number_at(value: &JsonValue, path: &str) -> Option<f64> {
    value.path(path).and_then(JsonValue::as_f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write(dir: &std::path::Path, name: &str, body: &str) {
        std::fs::create_dir_all(dir).unwrap();
        std::fs::write(dir.join(name), body).unwrap();
    }

    fn bench_report(baseline_qps: f64, scaled_qps: f64, p99: f64) -> String {
        format!(
            "{{\"baseline_qps\": {baseline_qps}, \"scaled_qps\": {scaled_qps}, \
             \"runs\": [{{\"label\": \"baseline-closed\", \"client_p99_us\": {p99}}}]}}"
        )
    }

    fn temp_dirs(tag: &str) -> (PathBuf, PathBuf) {
        let root = std::env::temp_dir().join(format!("vtm_slo_{tag}_{}", std::process::id()));
        (root.join("current"), root.join("baselines"))
    }

    #[test]
    fn slo_check_passes_inside_the_noise_band() {
        let (current, baselines) = temp_dirs("pass");
        write(
            &baselines,
            "BENCH_gateway.json",
            &bench_report(1000.0, 900.0, 2000.0),
        );
        write(
            &current,
            "BENCH_gateway.json",
            &bench_report(850.0, 800.0, 2100.0),
        );
        let report = run_slo_check(&SloOptions {
            current_dir: current,
            baseline_dir: baselines,
            benches: vec!["gateway".to_string()],
            ..SloOptions::default()
        })
        .unwrap();
        assert!(report.passed(), "{:?}", report.findings);
        assert_eq!(report.findings.len(), 3);
    }

    #[test]
    fn slo_check_fails_on_synthetic_throughput_regression() {
        let (current, baselines) = temp_dirs("fail");
        write(
            &baselines,
            "BENCH_gateway.json",
            &bench_report(1000.0, 1000.0, 2000.0),
        );
        // 40% drop — outside the 30% band.
        write(
            &current,
            "BENCH_gateway.json",
            &bench_report(600.0, 600.0, 2000.0),
        );
        let report = run_slo_check(&SloOptions {
            current_dir: current,
            baseline_dir: baselines,
            benches: vec!["gateway".to_string()],
            ..SloOptions::default()
        })
        .unwrap();
        assert!(!report.passed());
        assert!(report
            .findings
            .iter()
            .any(|f| f.metric == "baseline_qps" && f.status == SloStatus::Fail));
    }

    #[test]
    fn latency_regressions_warn_but_never_fail() {
        let (current, baselines) = temp_dirs("warn");
        write(
            &baselines,
            "BENCH_gateway.json",
            &bench_report(1000.0, 1000.0, 1000.0),
        );
        // Throughput fine, p99 tripled — warn, not fail.
        write(
            &current,
            "BENCH_gateway.json",
            &bench_report(1000.0, 1000.0, 3000.0),
        );
        let report = run_slo_check(&SloOptions {
            current_dir: current,
            baseline_dir: baselines,
            benches: vec!["gateway".to_string()],
            ..SloOptions::default()
        })
        .unwrap();
        assert!(report.passed());
        assert!(report
            .findings
            .iter()
            .any(|f| f.metric == "client_p99_us" && f.status == SloStatus::Warn));
    }

    #[test]
    fn missing_baseline_is_an_io_error_not_a_regression() {
        let (current, baselines) = temp_dirs("missing");
        write(
            &current,
            "BENCH_gateway.json",
            &bench_report(1000.0, 1000.0, 1000.0),
        );
        let err = run_slo_check(&SloOptions {
            current_dir: current,
            baseline_dir: baselines,
            benches: vec!["gateway".to_string()],
            ..SloOptions::default()
        })
        .unwrap_err();
        assert!(err.contains("cannot read"), "{err}");
    }

    /// The metrics-dump run is deterministic in logical-clock mode: the
    /// stage identity holds exactly and every traced request decomposes
    /// into five unit-tick stages (serial submit → wait).
    #[test]
    fn metrics_dump_decomposition_is_deterministic() {
        let opts = MetricsDumpOptions {
            sessions: 4,
            rounds: 3,
            save: false,
            ..MetricsDumpOptions::default()
        };
        let a = run_metrics_dump(&opts).unwrap();
        let b = run_metrics_dump(&opts).unwrap();
        assert!(a.identity_ok);
        assert_eq!(a.completed, 12);
        assert_eq!(a.records.len(), 12);
        for record in &a.records {
            let stages = record.stages();
            assert_eq!(stages.total_us, 5, "{record:?}");
            assert_eq!(stages.queue_wait_us, 1);
            assert_eq!(stages.inference_us, 1);
        }
        assert_eq!(a.stage_report, b.stage_report);
        assert!(
            a.text.contains("vtm_gateway_completed_total 12"),
            "{}",
            a.text
        );
        assert!(
            a.text
                .contains("vtm_gateway_stage_us_count{stage=\"inference\"} 12"),
            "{}",
            a.text
        );
        assert!(a.json.contains("vtm_serve_quotes_total"), "{}", a.json);
        // The delta window saw only the second half of the run.
        assert!(a.window_completed < a.completed, "{}", a.window_completed);
        assert!(a.window_completed > 0);
    }
}
