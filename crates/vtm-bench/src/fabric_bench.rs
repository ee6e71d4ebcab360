//! The fabric load generator behind `experiments fabric-bench`.
//!
//! Measures what sharding buys on top of one gateway: the same two load
//! shapes as the gateway bench (closed-loop capacity, open-loop offered
//! load), but driven through a [`Fabric`] — N independent gateway shards
//! per policy arm, with deterministic session-hash routing. The headline
//! number is `scaled_qps / baseline_qps`: the N-shard closed loop against
//! a 1-shard fabric at otherwise identical settings (the multi-core
//! acceptance in `tests/fabric_speedup.rs` pins it at ≥ 1.7× for 2
//! shards on ≥ 4 cores).
//!
//! Every run reports the full [`FabricSnapshot`] — per-arm quote counts,
//! client-observed latency percentiles, revenue-proxy sums and every
//! per-shard gateway telemetry — and the whole result is written to
//! `results/BENCH_fabric.json`. Per-arm counters are recorded at ticket
//! resolution, so only closed-loop runs (whose clients wait) populate
//! them; open-loop runs still carry full per-shard gateway telemetry.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use vtm_core::registry::{EnvBuildOptions, EnvRegistry, RequestFrame};
use vtm_fabric::{ArmSpec, Fabric, FabricConfig, FabricError, FabricSnapshot};
use vtm_gateway::{GatewayConfig, GatewayError};
use vtm_serve::{QuoteRequest, ServiceConfig, SharedPolicy};

use crate::results_dir;
use crate::serve_bench::resolve_snapshot;
use crate::timing::{available_cores, percentile};

/// Options of one fabric-bench run.
#[derive(Debug, Clone)]
pub struct FabricBenchOptions {
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
    /// Gateway shards per arm in the scaled runs (`0` = one per core).
    pub shards: usize,
    /// The policy arms and their session split (the same snapshot serves
    /// every arm — the bench measures routing and sharding, not policies).
    pub arms: Vec<ArmSpec>,
    /// Closed-loop ingress worker threads (`0` = one per core).
    pub ingress: usize,
    /// Executor threads *per shard gateway* (parallelism comes from the
    /// shards; 1 keeps each shard at the deterministic baseline shape).
    pub executors: usize,
    /// Batch flush threshold per shard.
    pub max_batch: usize,
    /// Batch flush deadline in microseconds.
    pub max_delay_us: u64,
    /// Admission bound (in-flight requests) per shard.
    pub queue_capacity: usize,
    /// Open-loop offered loads, as multiples of the scaled closed-loop
    /// throughput (empty = skip the open-loop sweep).
    pub open_loop_factors: Vec<f64>,
}

impl Default for FabricBenchOptions {
    fn default() -> Self {
        Self {
            env: "static".to_string(),
            checkpoint: None,
            train_episodes: 2,
            duration_s: 2.0,
            sessions: 64,
            stream_rounds: 32,
            shards: 0,
            arms: vec![ArmSpec::new("a", 90), ArmSpec::new("b", 10)],
            ingress: 0,
            executors: 1,
            max_batch: 32,
            max_delay_us: 1000,
            queue_capacity: 4096,
            open_loop_factors: vec![0.5, 1.0, 2.0],
        }
    }
}

/// One timed run (one fabric lifetime) inside a fabric-bench.
#[derive(Debug, Clone, PartialEq)]
pub struct FabricRunResult {
    /// Human label (`baseline-1shard`, `scaled-2shards`, `open-x2.0`, …).
    pub label: String,
    /// `"closed"` or `"open"`.
    pub mode: &'static str,
    /// Gateway shards per arm in this run.
    pub shards: usize,
    /// Ingress worker threads driving load.
    pub ingress: usize,
    /// Offered load (requests/s); `None` for closed loops.
    pub offered_qps: Option<f64>,
    /// Completed quotes per second over the run.
    pub achieved_qps: f64,
    /// Client-side exact p50 latency in µs (closed loops only).
    pub client_p50_us: Option<f64>,
    /// Client-side exact p99 latency in µs (closed loops only).
    pub client_p99_us: Option<f64>,
    /// The fabric's final snapshot: per-arm counters/percentiles plus
    /// every per-shard gateway telemetry.
    pub fabric: FabricSnapshot,
}

/// The measured outcome of one fabric-bench invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct FabricBenchResult {
    /// Preset name the stream came from.
    pub env: String,
    /// Distinct sessions in the stream.
    pub sessions: usize,
    /// Seconds per timed run.
    pub duration_s: f64,
    /// Gateway shards per arm in the scaled runs.
    pub shards: usize,
    /// The arm split, as `name=percent` tokens.
    pub arms: Vec<ArmSpec>,
    /// Closed-loop throughput of the 1-shard fabric.
    pub baseline_qps: f64,
    /// Closed-loop throughput of the `shards`-shard fabric.
    pub scaled_qps: f64,
    /// `scaled_qps / baseline_qps` — what sharding buys.
    pub speedup: f64,
    /// Every timed run, in execution order.
    pub runs: Vec<FabricRunResult>,
}

impl FabricBenchResult {
    /// Renders the result as the `results/BENCH_fabric.json` document.
    pub fn to_json(&self) -> String {
        let opt = |v: Option<f64>| v.map_or("null".to_string(), |x| format!("{x:.1}"));
        let arms: Vec<String> = self
            .arms
            .iter()
            .map(|a| format!("\"{}={}\"", a.name, a.percent))
            .collect();
        let runs: Vec<String> = self
            .runs
            .iter()
            .map(|run| {
                format!(
                    "    {{\"label\": \"{}\", \"mode\": \"{}\", \"shards\": {}, \
                     \"ingress\": {}, \"offered_qps\": {}, \"achieved_qps\": {:.1}, \
                     \"client_p50_us\": {}, \"client_p99_us\": {}, \
                     \"fabric\": {}}}",
                    run.label,
                    run.mode,
                    run.shards,
                    run.ingress,
                    opt(run.offered_qps),
                    run.achieved_qps,
                    opt(run.client_p50_us),
                    opt(run.client_p99_us),
                    run.fabric.to_json(),
                )
            })
            .collect();
        format!(
            "{{\n  \"bench\": \"fabric\",\n  \"env\": \"{env}\",\n  \"shapes\": {{\n    \
             \"sessions\": {sessions},\n    \"shards\": {shards},\n    \
             \"arms\": [{arms}],\n    \"duration_s\": {dur}\n  }},\n  \
             \"baseline_qps\": {base:.1},\n  \"scaled_qps\": {scaled:.1},\n  \
             \"speedup\": {speedup:.3},\n  \"runs\": [\n{runs}\n  ]\n}}\n",
            env = self.env,
            sessions = self.sessions,
            shards = self.shards,
            arms = arms.join(", "),
            dur = self.duration_s,
            base = self.baseline_qps,
            scaled = self.scaled_qps,
            speedup = self.speedup,
            runs = runs.join(",\n"),
        )
    }

    /// Writes `results/BENCH_fabric.json` and returns its path.
    ///
    /// # Errors
    ///
    /// Propagates the filesystem error when the file cannot be written.
    pub fn save(&self) -> std::io::Result<PathBuf> {
        let path = results_dir().join("BENCH_fabric.json");
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }
}

/// Outcome of one closed-loop run against a fabric.
struct ClosedLoopOutcome {
    achieved_qps: f64,
    client_p50_us: f64,
    client_p99_us: f64,
    fabric: FabricSnapshot,
}

/// Closed loop: `ingress` threads each own a session slice of the stream
/// and submit-and-wait against the fabric until the deadline.
fn closed_loop(
    policy: &SharedPolicy,
    config: FabricConfig,
    ingress: usize,
    stream: &[Vec<RequestFrame>],
    duration: Duration,
) -> Result<ClosedLoopOutcome, String> {
    let fabric = Fabric::start_shared(policy, config).map_err(|e| e.to_string())?;
    let ingress = ingress.min(stream.first().map_or(1, Vec::len)).max(1);
    let start = Instant::now();
    let deadline = start + duration;
    let outcomes: Vec<Result<Vec<f64>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..ingress)
            .map(|t| {
                let fabric = &fabric;
                scope.spawn(move || {
                    let mut latencies_us = Vec::new();
                    'run: for round in 0.. {
                        if Instant::now() >= deadline {
                            break 'run;
                        }
                        let frames: &Vec<RequestFrame> = &stream[round % stream.len()];
                        // Per-session order stays FIFO: each ingress thread
                        // owns its session slice, and the fabric routes a
                        // session to exactly one shard.
                        for frame in frames.iter().skip(t).step_by(ingress) {
                            if Instant::now() >= deadline {
                                break 'run;
                            }
                            let request = QuoteRequest::new(frame.session, frame.features.clone());
                            let sent = Instant::now();
                            match fabric.quote(request) {
                                Ok(_) => latencies_us.push(sent.elapsed().as_secs_f64() * 1e6),
                                Err(FabricError::Gateway(GatewayError::Overloaded { .. })) => {
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
    let snapshot = fabric.shutdown();
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
        fabric: snapshot,
    })
}

/// Open loop: offer requests at `rate_qps` without waiting for quotes
/// (tickets are dropped; per-shard completions still land in gateway
/// telemetry). Overload is absorbed per shard by admission control.
fn open_loop(
    policy: &SharedPolicy,
    config: FabricConfig,
    rate_qps: f64,
    stream: &[Vec<RequestFrame>],
    duration: Duration,
) -> Result<(f64, FabricSnapshot), String> {
    let fabric = Fabric::start_shared(policy, config).map_err(|e| e.to_string())?;
    let start = Instant::now();
    let mut frames = stream.iter().flatten().cycle();
    let mut offered = 0u64;
    loop {
        let elapsed = start.elapsed();
        if elapsed >= duration {
            break;
        }
        let target = (elapsed.as_secs_f64() * rate_qps) as u64;
        while offered < target {
            let frame = frames.next().expect("stream is non-empty");
            match fabric.submit(QuoteRequest::new(frame.session, frame.features.clone())) {
                Ok(_) | Err(FabricError::Gateway(GatewayError::Overloaded { .. })) => offered += 1,
                Err(err) => return Err(err.to_string()),
            }
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    // Count only the offered window (the shutdown drain finishes the tail
    // after it; see the gateway bench for the rationale).
    let in_window: u64 = fabric
        .telemetry()
        .gateways
        .iter()
        .map(|g| g.telemetry.completed)
        .sum();
    let elapsed = start.elapsed().as_secs_f64().max(1e-9);
    let snapshot = fabric.shutdown();
    Ok((in_window as f64 / elapsed, snapshot))
}

/// Runs the benchmark: resolve the policy once (the shared snapshot serves
/// every shard of every arm), generate the request stream, time the
/// 1-shard baseline, the `shards`-shard scaled closed loop, then the
/// open-loop offered-load sweep.
///
/// # Errors
///
/// Returns a human-readable message for unknown presets, unreadable
/// checkpoints, invalid arm splits or internal fabric errors.
pub fn run_fabric_bench(opts: &FabricBenchOptions) -> Result<FabricBenchResult, String> {
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
    let policy = SharedPolicy::from_snapshot(&snapshot)
        .map_err(|e| format!("cannot build shared policy: {e}"))?;
    let sessions = opts.sessions.max(1);
    let stream = registry
        .request_stream(&opts.env, &build, sessions, opts.stream_rounds.max(1))
        .ok_or_else(|| format!("unknown environment preset `{}`", opts.env))?;

    let shards = if opts.shards == 0 {
        available_cores()
    } else {
        opts.shards
    };
    let ingress = if opts.ingress == 0 {
        available_cores()
    } else {
        opts.ingress
    };
    let gateway = GatewayConfig::default()
        .with_max_batch(opts.max_batch)
        .with_max_delay(Duration::from_micros(opts.max_delay_us))
        .with_queue_capacity(opts.queue_capacity)
        .with_executors(opts.executors.max(1));
    let service = ServiceConfig::new(build.history_length, features);
    let config = |shards: usize| {
        FabricConfig::new(shards, service)
            .with_arms(opts.arms.clone())
            .with_gateway(gateway.clone())
    };
    let duration = Duration::from_secs_f64(opts.duration_s.max(0.01));

    let mut runs = Vec::new();

    // 1-shard closed-loop baseline (the speedup anchor).
    let baseline = closed_loop(&policy, config(1), ingress, &stream, duration)?;
    let baseline_qps = baseline.achieved_qps;
    runs.push(FabricRunResult {
        label: "baseline-1shard".to_string(),
        mode: "closed",
        shards: 1,
        ingress,
        offered_qps: None,
        achieved_qps: baseline_qps,
        client_p50_us: Some(baseline.client_p50_us),
        client_p99_us: Some(baseline.client_p99_us),
        fabric: baseline.fabric,
    });

    // Scaled closed loop at the configured shard count.
    let scaled = closed_loop(&policy, config(shards), ingress, &stream, duration)?;
    let scaled_qps = scaled.achieved_qps;
    runs.push(FabricRunResult {
        label: format!("scaled-{shards}shards"),
        mode: "closed",
        shards,
        ingress,
        offered_qps: None,
        achieved_qps: scaled_qps,
        client_p50_us: Some(scaled.client_p50_us),
        client_p99_us: Some(scaled.client_p99_us),
        fabric: scaled.fabric,
    });

    // Open-loop sweep: offered load as multiples of the measured capacity.
    for &factor in &opts.open_loop_factors {
        let rate = (scaled_qps * factor).max(1.0);
        let (achieved, fabric) = open_loop(&policy, config(shards), rate, &stream, duration)?;
        runs.push(FabricRunResult {
            label: format!("open-x{factor:.2}"),
            mode: "open",
            shards,
            ingress: 1,
            offered_qps: Some(rate),
            achieved_qps: achieved,
            client_p50_us: None,
            client_p99_us: None,
            fabric,
        });
    }

    Ok(FabricBenchResult {
        env: opts.env.clone(),
        sessions,
        duration_s: opts.duration_s,
        shards,
        arms: opts.arms.clone(),
        baseline_qps,
        scaled_qps,
        speedup: scaled_qps / baseline_qps.max(1e-9),
        runs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_opts() -> FabricBenchOptions {
        FabricBenchOptions {
            duration_s: 0.05,
            sessions: 16,
            stream_rounds: 4,
            shards: 2,
            ingress: 2,
            max_batch: 8,
            max_delay_us: 200,
            open_loop_factors: vec![1.0],
            ..FabricBenchOptions::default()
        }
    }

    #[test]
    fn fabric_bench_runs_and_reports_consistent_numbers() {
        let result = run_fabric_bench(&smoke_opts()).unwrap();
        assert_eq!(result.shards, 2);
        assert!(result.baseline_qps > 0.0);
        assert!(result.scaled_qps > 0.0);
        assert!(result.speedup > 0.0);
        // baseline + scaled + one open
        assert_eq!(result.runs.len(), 3);
        for run in &result.runs {
            // Gateway-side books balance across every shard of every arm.
            for gateway in &run.fabric.gateways {
                let t = &gateway.telemetry;
                assert_eq!(t.submitted, t.completed + t.failed, "books must balance");
                assert_eq!(t.failed, 0);
                assert_eq!(t.queue_depth, 0, "shutdown must drain");
            }
            assert_eq!(run.fabric.arms.len(), 2);
            if run.mode == "closed" {
                // Closed-loop clients wait, so arm counters are populated
                // and agree with the per-shard completions.
                let arm_quotes: u64 = run.fabric.arms.iter().map(|a| a.quotes).sum();
                let completed: u64 = run
                    .fabric
                    .gateways
                    .iter()
                    .map(|g| g.telemetry.completed)
                    .sum();
                assert_eq!(arm_quotes, completed);
                let majority = &run.fabric.arms[0];
                assert!(majority.revenue > 0.0, "revenue proxy must accumulate");
                assert!(majority.latency_p99_us >= majority.latency_p50_us);
            }
        }
        let scaled = &result.runs[1];
        assert_eq!(scaled.fabric.gateways.len(), 4, "2 shards × 2 arms");
        let json = result.to_json();
        assert!(json.contains("\"bench\": \"fabric\""));
        assert!(json.contains("\"arms\": [\"a=90\", \"b=10\"]"));
        assert!(json.contains("\"baseline_qps\""));
        assert!(json.contains("\"open-x1.00\""));
        assert!(json.contains("\"revenue\""));
        assert!(json.contains("\"generation\""));
    }

    #[test]
    fn unknown_presets_and_bad_splits_are_rejected() {
        let opts = FabricBenchOptions {
            env: "not-a-preset".to_string(),
            ..smoke_opts()
        };
        assert!(run_fabric_bench(&opts).is_err());
        let opts = FabricBenchOptions {
            arms: vec![ArmSpec::new("a", 30)],
            ..smoke_opts()
        };
        assert!(run_fabric_bench(&opts).is_err());
    }
}
