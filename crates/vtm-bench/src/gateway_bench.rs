//! The gateway load generator behind `experiments gateway-bench`.
//!
//! Measures the end-to-end quote throughput and latency of a
//! [`Gateway`] (micro-batching executor pool over a shared
//! frozen [`PricingService`]) under two canonical load shapes:
//!
//! * **closed loop** — `N` ingress worker threads each submit one request
//!   and block for its quote before sending the next, replaying a
//!   realistic per-environment request stream
//!   ([`EnvRegistry::request_stream`]); throughput is self-clocked by
//!   service latency, so this measures capacity without overload;
//! * **open loop** — requests are *offered* at a fixed rate regardless of
//!   completions (the fleet does not wait for the MSP); rates beyond
//!   capacity exercise admission control, and the reject count shows the
//!   backpressure doing its job.
//!
//! Every run reports the gateway's own telemetry (p50/p95/p99 latency,
//! batch-size distribution, rejects), and the whole result is written to
//! `results/BENCH_gateway.json`. The ≥ 2x multi-core acceptance
//! (`tests/gateway_speedup.rs`) compares the scaled closed loop against a
//! 1-ingress/1-executor baseline.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use vtm_core::registry::{EnvBuildOptions, EnvRegistry, RequestFrame};
use vtm_gateway::{Gateway, GatewayConfig, GatewayError, TelemetrySnapshot};
use vtm_serve::{Precision, PricingService, QuoteRequest, ServiceConfig};

use crate::results_dir;
use crate::serve_bench::{resolve_snapshot, BenchPrecision};
use crate::timing::{available_cores, percentile};

/// Options of one gateway-bench run.
#[derive(Debug, Clone)]
pub struct GatewayBenchOptions {
    /// Registry preset the policy prices (decides the feature geometry and
    /// the request-stream dynamics).
    pub env: String,
    /// Optional checkpoint to load; when absent a policy is trained on the
    /// spot for `train_episodes` episodes.
    pub checkpoint: Option<PathBuf>,
    /// Episodes for the fallback on-the-spot training.
    pub train_episodes: usize,
    /// Wall-clock seconds per timed run.
    pub duration_s: f64,
    /// Distinct VMU sessions in the replayed stream.
    pub sessions: usize,
    /// Environment rounds generated per session (the stream cycles).
    pub stream_rounds: usize,
    /// Closed-loop ingress worker threads (`0` = one per core).
    pub ingress: usize,
    /// Gateway executor threads (`0` = one per core).
    pub executors: usize,
    /// Batch flush threshold.
    pub max_batch: usize,
    /// Batch flush deadline in microseconds.
    pub max_delay_us: u64,
    /// Admission bound (in-flight requests).
    pub queue_capacity: usize,
    /// Open-loop offered loads, as multiples of the scaled closed-loop
    /// throughput (empty = skip the open-loop sweep).
    pub open_loop_factors: Vec<f64>,
    /// Precision modes to measure: with
    /// [`BenchPrecision::WithF32`] a second scaled closed loop runs over
    /// an f32 service, so `BENCH_gateway.json` records gateway capacity in
    /// both numeric modes.
    pub precision: BenchPrecision,
}

impl Default for GatewayBenchOptions {
    fn default() -> Self {
        Self {
            env: "static".to_string(),
            checkpoint: None,
            train_episodes: 2,
            duration_s: 2.0,
            sessions: 64,
            stream_rounds: 32,
            ingress: 0,
            executors: 0,
            max_batch: 32,
            max_delay_us: 1000,
            queue_capacity: 4096,
            open_loop_factors: vec![0.5, 1.0, 2.0],
            precision: BenchPrecision::default(),
        }
    }
}

/// One timed run (one gateway lifetime) inside a gateway-bench.
#[derive(Debug, Clone, PartialEq)]
pub struct GatewayRunResult {
    /// Human label (`baseline-closed`, `scaled-closed`, `open-x2.0`, …).
    pub label: String,
    /// `"closed"` or `"open"`.
    pub mode: &'static str,
    /// Ingress worker threads driving load.
    pub ingress: usize,
    /// Gateway executor threads.
    pub executors: usize,
    /// Offered load (requests/s); `None` for closed loops.
    pub offered_qps: Option<f64>,
    /// Completed quotes per second over the run.
    pub achieved_qps: f64,
    /// Client-side exact p50 latency in µs (closed loops only — open-loop
    /// clients do not wait, so only the gateway histogram applies).
    pub client_p50_us: Option<f64>,
    /// Client-side exact p99 latency in µs (closed loops only).
    pub client_p99_us: Option<f64>,
    /// The gateway's final telemetry (latency percentiles, batch sizes,
    /// rejects, queue depth).
    pub telemetry: TelemetrySnapshot,
}

/// The measured outcome of one gateway-bench invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct GatewayBenchResult {
    /// Preset name the stream came from.
    pub env: String,
    /// Distinct sessions in the stream.
    pub sessions: usize,
    /// Feature-block width per round.
    pub features_per_round: usize,
    /// Observation history length.
    pub history_length: usize,
    /// Seconds per timed run.
    pub duration_s: f64,
    /// Batch flush threshold.
    pub max_batch: usize,
    /// Batch flush deadline (µs).
    pub max_delay_us: u64,
    /// Closed-loop throughput of the 1-ingress/1-executor baseline.
    pub baseline_qps: f64,
    /// Closed-loop throughput at the configured ingress/executor counts.
    pub scaled_qps: f64,
    /// `scaled_qps / baseline_qps` — the concurrency speedup.
    pub speedup: f64,
    /// Scaled closed-loop throughput over the quantized f32 service (when
    /// measured).
    pub f32_scaled_qps: Option<f64>,
    /// `f32_scaled_qps / scaled_qps` — what quantization buys the gateway
    /// on top of concurrency (when measured).
    pub f32_speedup: Option<f64>,
    /// Every timed run, in execution order.
    pub runs: Vec<GatewayRunResult>,
}

impl GatewayBenchResult {
    /// Renders the result as the `results/BENCH_gateway.json` document.
    pub fn to_json(&self) -> String {
        let runs: Vec<String> = self
            .runs
            .iter()
            .map(|run| {
                let opt = |v: Option<f64>| v.map_or("null".to_string(), |x| format!("{x:.1}"));
                format!(
                    "    {{\"label\": \"{}\", \"mode\": \"{}\", \"ingress\": {}, \
                     \"executors\": {}, \"offered_qps\": {}, \"achieved_qps\": {:.1}, \
                     \"client_p50_us\": {}, \"client_p99_us\": {}, \
                     \"telemetry\": {}}}",
                    run.label,
                    run.mode,
                    run.ingress,
                    run.executors,
                    opt(run.offered_qps),
                    run.achieved_qps,
                    opt(run.client_p50_us),
                    opt(run.client_p99_us),
                    run.telemetry.to_json(),
                )
            })
            .collect();
        format!(
            "{{\n  \"bench\": \"gateway\",\n  \"env\": \"{env}\",\n  \"shapes\": {{\n    \
             \"sessions\": {sessions},\n    \"history_length\": {hist},\n    \
             \"features_per_round\": {feat},\n    \"max_batch\": {max_batch},\n    \
             \"max_delay_us\": {delay},\n    \"duration_s\": {dur}\n  }},\n  \
             \"baseline_qps\": {base:.1},\n  \"scaled_qps\": {scaled:.1},\n  \
             \"speedup\": {speedup:.3},{f32}\n  \"runs\": [\n{runs}\n  ]\n}}\n",
            env = self.env,
            sessions = self.sessions,
            hist = self.history_length,
            feat = self.features_per_round,
            max_batch = self.max_batch,
            delay = self.max_delay_us,
            dur = self.duration_s,
            base = self.baseline_qps,
            scaled = self.scaled_qps,
            speedup = self.speedup,
            f32 = match (self.f32_scaled_qps, self.f32_speedup) {
                (Some(qps), Some(speedup)) => format!(
                    "\n  \"f32_scaled_qps\": {qps:.1},\n  \"f32_speedup_vs_f64\": {speedup:.3},"
                ),
                _ => String::new(),
            },
            runs = runs.join(",\n"),
        )
    }

    /// Writes `results/BENCH_gateway.json` and returns its path.
    ///
    /// # Errors
    ///
    /// Propagates the filesystem error when the file cannot be written.
    pub fn save(&self) -> std::io::Result<PathBuf> {
        let path = results_dir().join("BENCH_gateway.json");
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }
}

/// Outcome of one closed-loop run: throughput plus the clients' own
/// exactly-measured latency percentiles (microseconds), which cross-check
/// the gateway's bucketed histogram.
struct ClosedLoopOutcome {
    achieved_qps: f64,
    client_p50_us: f64,
    client_p99_us: f64,
    telemetry: TelemetrySnapshot,
}

/// Closed loop: `ingress` threads each own a session slice of the stream
/// and submit-and-wait until the deadline.
fn closed_loop(
    service: &Arc<PricingService>,
    config: GatewayConfig,
    ingress: usize,
    stream: &[Vec<RequestFrame>],
    duration: Duration,
) -> Result<ClosedLoopOutcome, String> {
    let gateway = Arc::new(Gateway::start(Arc::clone(service), config));
    // Never spawn more workers than there are sessions to slice between
    // them: a worker with an empty slice would find no frame to price (and
    // its deadline check lives in the per-frame loop).
    let ingress = ingress.min(stream.first().map_or(1, Vec::len)).max(1);
    let start = Instant::now();
    let deadline = start + duration;
    let outcomes: Vec<Result<Vec<f64>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..ingress)
            .map(|t| {
                let gateway = Arc::clone(&gateway);
                scope.spawn(move || {
                    let mut latencies_us = Vec::new();
                    'run: for round in 0.. {
                        if Instant::now() >= deadline {
                            break 'run;
                        }
                        let frames: &Vec<RequestFrame> = &stream[round % stream.len()];
                        // Each ingress thread prices its own session slice,
                        // so per-session request order stays FIFO.
                        for frame in frames.iter().skip(t).step_by(ingress) {
                            if Instant::now() >= deadline {
                                break 'run;
                            }
                            let request = QuoteRequest::new(frame.session, frame.features.clone());
                            let sent = Instant::now();
                            match gateway.quote(request) {
                                Ok(_) => latencies_us.push(sent.elapsed().as_secs_f64() * 1e6),
                                Err(GatewayError::Overloaded { .. }) => {
                                    std::thread::yield_now();
                                }
                                Err(err) => return Err(err.to_string()),
                            }
                        }
                    }
                    Ok(latencies_us)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("ingress worker panicked"))
            .collect()
    });
    let elapsed = start.elapsed().as_secs_f64().max(1e-9);
    let mut latencies_us = Vec::new();
    for outcome in outcomes {
        latencies_us.extend(outcome?);
    }
    let telemetry = Arc::into_inner(gateway)
        .expect("ingress workers have exited")
        .shutdown();
    latencies_us.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    let (client_p50_us, client_p99_us) = if latencies_us.is_empty() {
        (0.0, 0.0)
    } else {
        (
            percentile(&latencies_us, 0.50),
            percentile(&latencies_us, 0.99),
        )
    };
    Ok(ClosedLoopOutcome {
        achieved_qps: latencies_us.len() as f64 / elapsed,
        client_p50_us,
        client_p99_us,
        telemetry,
    })
}

/// Open loop: offer requests at `rate_qps` without waiting for quotes;
/// overload is absorbed by admission control (rejects), never by queues
/// growing without bound.
fn open_loop(
    service: &Arc<PricingService>,
    config: GatewayConfig,
    rate_qps: f64,
    stream: &[Vec<RequestFrame>],
    duration: Duration,
) -> Result<(f64, TelemetrySnapshot), String> {
    let gateway = Gateway::start(Arc::clone(service), config);
    let start = Instant::now();
    let mut frames = stream.iter().flatten().cycle();
    let mut offered = 0u64;
    loop {
        let elapsed = start.elapsed();
        if elapsed >= duration {
            break;
        }
        // Pace submissions against the wall clock instead of sleeping a
        // fixed interval per request (robust at rates far beyond 1/sleep).
        let target = (elapsed.as_secs_f64() * rate_qps) as u64;
        while offered < target {
            let frame = frames.next().expect("stream is non-empty");
            match gateway.submit(QuoteRequest::new(frame.session, frame.features.clone())) {
                // The ticket is dropped: open-loop clients do not wait.
                // Completion still lands in telemetry.
                Ok(_) | Err(GatewayError::Overloaded { .. }) => offered += 1,
                Err(err) => return Err(err.to_string()),
            }
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    // Measure throughput over the offered window only: the shutdown drain
    // below finishes the in-flight tail *after* the window, and counting
    // it against the pre-drain elapsed time would inflate achieved_qps at
    // overload (up to queue_capacity extra completions).
    let in_window = gateway.telemetry().completed;
    let elapsed = start.elapsed().as_secs_f64().max(1e-9);
    let telemetry = gateway.shutdown(); // drains all admitted requests
    Ok((in_window as f64 / elapsed, telemetry))
}

/// Runs the benchmark: resolve the policy, generate the request stream,
/// time the 1/1 baseline, the scaled closed loop, then the open-loop
/// offered-load sweep.
///
/// # Errors
///
/// Returns a human-readable message for unknown presets, unreadable
/// checkpoints or internal gateway errors.
pub fn run_gateway_bench(opts: &GatewayBenchOptions) -> Result<GatewayBenchResult, String> {
    let build = EnvBuildOptions::default();
    let registry = EnvRegistry::builtin();
    let features = registry
        .get(&opts.env)
        .ok_or_else(|| format!("unknown environment preset `{}`", opts.env))?
        .features_per_round();
    let snapshot = resolve_snapshot(
        &opts.env,
        opts.checkpoint.as_deref(),
        opts.train_episodes,
        &build,
    )?;
    let sessions = opts.sessions.max(1);
    let stream = registry
        .request_stream(&opts.env, &build, sessions, opts.stream_rounds.max(1))
        .ok_or_else(|| format!("unknown environment preset `{}`", opts.env))?;

    // One frozen service shared by every run: executor parallelism comes
    // from the gateway pool, so the inner forward pass stays single-thread.
    let service = Arc::new(
        PricingService::from_snapshot(
            &snapshot,
            ServiceConfig::new(build.history_length, features),
        )
        .map_err(|e| format!("cannot build service: {e}"))?,
    );
    let ingress = if opts.ingress == 0 {
        available_cores()
    } else {
        opts.ingress
    };
    let executors = if opts.executors == 0 {
        available_cores()
    } else {
        opts.executors
    };
    let gateway_config = GatewayConfig::default()
        .with_max_batch(opts.max_batch)
        .with_max_delay(Duration::from_micros(opts.max_delay_us))
        .with_queue_capacity(opts.queue_capacity);
    let duration = Duration::from_secs_f64(opts.duration_s.max(0.01));

    let mut runs = Vec::new();

    // 1-ingress/1-executor closed-loop baseline (the acceptance anchor).
    let baseline = closed_loop(
        &service,
        gateway_config.clone().with_executors(1),
        1,
        &stream,
        duration,
    )?;
    let baseline_qps = baseline.achieved_qps;
    runs.push(GatewayRunResult {
        label: "baseline-closed".to_string(),
        mode: "closed",
        ingress: 1,
        executors: 1,
        offered_qps: None,
        achieved_qps: baseline_qps,
        client_p50_us: Some(baseline.client_p50_us),
        client_p99_us: Some(baseline.client_p99_us),
        telemetry: baseline.telemetry,
    });

    // Scaled closed loop at the configured concurrency.
    let scaled = closed_loop(
        &service,
        gateway_config.clone().with_executors(executors),
        ingress,
        &stream,
        duration,
    )?;
    let scaled_qps = scaled.achieved_qps;
    runs.push(GatewayRunResult {
        label: "scaled-closed".to_string(),
        mode: "closed",
        ingress,
        executors,
        offered_qps: None,
        achieved_qps: scaled_qps,
        client_p50_us: Some(scaled.client_p50_us),
        client_p99_us: Some(scaled.client_p99_us),
        telemetry: scaled.telemetry,
    });

    // Quantized mode: the same scaled closed loop over an f32 service, so
    // the report shows what precision buys at the same concurrency (the
    // per-run telemetry carries the precision label).
    let mut f32_scaled_qps = None;
    if opts.precision == BenchPrecision::WithF32 {
        let f32_service = Arc::new(
            PricingService::from_snapshot(
                &snapshot,
                ServiceConfig::new(build.history_length, features).with_precision(Precision::F32),
            )
            .map_err(|e| format!("cannot build f32 service: {e}"))?,
        );
        let f32_scaled = closed_loop(
            &f32_service,
            gateway_config.clone().with_executors(executors),
            ingress,
            &stream,
            duration,
        )?;
        f32_scaled_qps = Some(f32_scaled.achieved_qps);
        runs.push(GatewayRunResult {
            label: "scaled-closed-f32".to_string(),
            mode: "closed",
            ingress,
            executors,
            offered_qps: None,
            achieved_qps: f32_scaled.achieved_qps,
            client_p50_us: Some(f32_scaled.client_p50_us),
            client_p99_us: Some(f32_scaled.client_p99_us),
            telemetry: f32_scaled.telemetry,
        });
    }

    // Open-loop sweep: offered load as multiples of the measured capacity.
    for &factor in &opts.open_loop_factors {
        let rate = (scaled_qps * factor).max(1.0);
        let (achieved, telemetry) = open_loop(
            &service,
            gateway_config.clone().with_executors(executors),
            rate,
            &stream,
            duration,
        )?;
        runs.push(GatewayRunResult {
            label: format!("open-x{factor:.2}"),
            mode: "open",
            ingress: 1,
            executors,
            offered_qps: Some(rate),
            achieved_qps: achieved,
            client_p50_us: None,
            client_p99_us: None,
            telemetry,
        });
    }

    Ok(GatewayBenchResult {
        env: opts.env.clone(),
        sessions,
        features_per_round: features,
        history_length: build.history_length,
        duration_s: opts.duration_s,
        max_batch: opts.max_batch,
        max_delay_us: opts.max_delay_us,
        baseline_qps,
        scaled_qps,
        speedup: scaled_qps / baseline_qps.max(1e-9),
        f32_scaled_qps,
        f32_speedup: f32_scaled_qps.map(|qps| qps / scaled_qps.max(1e-9)),
        runs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_opts() -> GatewayBenchOptions {
        GatewayBenchOptions {
            duration_s: 0.05,
            sessions: 8,
            stream_rounds: 4,
            ingress: 2,
            executors: 1,
            max_batch: 8,
            max_delay_us: 200,
            open_loop_factors: vec![1.0],
            ..GatewayBenchOptions::default()
        }
    }

    #[test]
    fn gateway_bench_runs_and_reports_consistent_numbers() {
        let result = run_gateway_bench(&smoke_opts()).unwrap();
        assert_eq!(result.sessions, 8);
        assert!(result.baseline_qps > 0.0);
        assert!(result.scaled_qps > 0.0);
        assert!(result.speedup > 0.0);
        // baseline + scaled + scaled-f32 + one open
        assert_eq!(result.runs.len(), 4);
        assert!(result.f32_scaled_qps.unwrap() > 0.0);
        assert!(result.f32_speedup.unwrap() > 0.0);
        let f32_run = result
            .runs
            .iter()
            .find(|r| r.label == "scaled-closed-f32")
            .unwrap();
        assert_eq!(f32_run.telemetry.precision, "f32");
        for run in &result.runs {
            let t = &run.telemetry;
            assert_eq!(t.submitted, t.completed + t.failed, "books must balance");
            assert_eq!(t.failed, 0);
            assert_eq!(t.queue_depth, 0, "shutdown must drain");
            if t.completed > 0 {
                assert!(t.latency_p99_us >= t.latency_p50_us);
                assert!(t.batches > 0);
            }
        }
        let json = result.to_json();
        assert!(json.contains("\"bench\": \"gateway\""));
        assert!(json.contains("\"baseline_qps\""));
        assert!(json.contains("\"open-x1.00\""));
        assert!(json.contains("\"f32_scaled_qps\""));
        assert!(json.contains("\"scaled-closed-f32\""));
        assert!(json.contains("\"client_p50_us\""));
        assert!(json.contains("\"p99\""));
        assert!(json.contains("\"batch_size_buckets\""));
    }

    #[test]
    fn unknown_presets_are_rejected() {
        let opts = GatewayBenchOptions {
            env: "not-a-preset".to_string(),
            ..smoke_opts()
        };
        assert!(run_gateway_bench(&opts).is_err());
    }
}
