//! The load driver behind `experiments gateway-bench` and
//! `experiments fabric-bench`.
//!
//! Both subcommands measure end-to-end quote throughput and latency through
//! a [`Fabric`] (a 1-shard/1-arm fabric is bit-identical to a bare gateway,
//! pinned by `vtm-fabric/tests/determinism.rs`) under two canonical load
//! shapes:
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
//! The two subcommands ([`LoadBench`]) differ only in their default
//! options, the closed-loop baseline their scaled run is compared against,
//! and the file they write:
//!
//! * `gateway-bench` — one shard of the single default arm; the baseline
//!   is 1 executor fed by 1 ingress thread, and the scaled run grows both
//!   (plus an f32 repeat). Writes `results/BENCH_gateway.json`; the ≥ 2x
//!   multi-core acceptance is `tests/gateway_speedup.rs`.
//! * `fabric-bench` — grows shards per arm from a 1-shard baseline at the
//!   same executors and ingress. Writes `results/BENCH_fabric.json`; the
//!   ≥ 1.7x 2-shard acceptance is `tests/fabric_speedup.rs`.
//!
//! Every run reports the full [`FabricSnapshot`]: per-arm quote counts,
//! client-observed latency percentiles and revenue-proxy sums next to every
//! per-shard gateway telemetry (latency percentiles, batch sizes, rejects).
//! Per-arm counters are recorded at ticket resolution, so only closed-loop
//! runs (whose clients wait) populate them.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use vtm_core::registry::{EnvBuildOptions, EnvRegistry, RequestFrame};
use vtm_fabric::{ArmSpec, Fabric, FabricConfig, FabricError, FabricSnapshot};
use vtm_gateway::{Gateway, GatewayConfig, GatewayError};
use vtm_obs::{percentile_sorted, MetricsRegistry};
use vtm_serve::{Precision, PricingService, Quote, QuoteRequest, ServiceConfig, SharedPolicy};

use crate::serve_bench::{resolve_snapshot, BenchPrecision};
use crate::timing::available_cores;
use crate::{results_dir, rollout_bench_agent};

/// Which serving bench runs: the subcommand decides the default options,
/// the closed-loop baseline and the output file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadBench {
    /// `experiments gateway-bench`: concurrency inside one gateway.
    Gateway,
    /// `experiments fabric-bench`: gateway shards per policy arm.
    Fabric,
}

impl LoadBench {
    /// `"gateway"` or `"fabric"`: the report's `bench` field and its
    /// `results/BENCH_<name>.json` file.
    pub fn name(self) -> &'static str {
        match self {
            LoadBench::Gateway => "gateway",
            LoadBench::Fabric => "fabric",
        }
    }

    /// The subcommand's default options.
    pub fn options(self) -> LoadBenchOptions {
        let gateway = LoadBenchOptions {
            env: "static".to_string(),
            checkpoint: None,
            train_episodes: 2,
            duration_s: 2.0,
            sessions: 64,
            stream_rounds: 32,
            shards: 1,
            arms: vec![ArmSpec::new("default", 100)],
            ingress: 0,
            executors: 0,
            max_batch: 32,
            max_delay_us: 1000,
            queue_capacity: 4096,
            open_loop_factors: vec![0.5, 1.0, 2.0],
            precision: BenchPrecision::WithF32,
        };
        match self {
            LoadBench::Gateway => gateway,
            LoadBench::Fabric => LoadBenchOptions {
                shards: 0,
                arms: vec![ArmSpec::new("a", 90), ArmSpec::new("b", 10)],
                executors: 1,
                precision: BenchPrecision::F64Only,
                ..gateway
            },
        }
    }
}

/// Options of one load-bench invocation (defaults: [`LoadBench::options`]).
#[derive(Debug, Clone)]
pub struct LoadBenchOptions {
    /// Registry preset the policy prices (decides the feature geometry and
    /// the request-stream dynamics).
    pub env: String,
    /// Optional checkpoint to load; when absent a policy is trained on the
    /// spot for `train_episodes` episodes.
    pub checkpoint: Option<PathBuf>,
    /// Episodes for the fallback on-the-spot training.
    pub train_episodes: usize,
    /// Wall-clock seconds per timed run (see [`run_length`]).
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
    /// Closed-loop ingress worker threads in the scaled runs (`0` = one per
    /// core; never more than there are sessions).
    pub ingress: usize,
    /// Executor threads per shard gateway in the scaled runs (`0` = one per
    /// core).
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
    /// With [`BenchPrecision::WithF32`] the scaled closed loop runs a second
    /// time over f32 services, so the report records capacity in both
    /// numeric modes.
    pub precision: BenchPrecision,
}

/// One timed run (one fabric lifetime) inside a load bench.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadRun {
    /// Human label (`baseline-closed`, `scaled-2shards`, `open-x2.00`, …).
    pub label: String,
    /// `"closed"` or `"open"`.
    pub mode: &'static str,
    /// Gateway shards per arm.
    pub shards: usize,
    /// Ingress worker threads that drove load.
    pub ingress: usize,
    /// Executor threads per shard gateway.
    pub executors: usize,
    /// Offered load (requests/s); `None` for closed loops.
    pub offered_qps: Option<f64>,
    /// Completed quotes per second over the run.
    pub achieved_qps: f64,
    /// Client-side exact p50 latency in µs (closed loops only — open-loop
    /// clients do not wait, so only the gateway histograms apply).
    pub client_p50_us: Option<f64>,
    /// Client-side exact p99 latency in µs (closed loops only).
    pub client_p99_us: Option<f64>,
    /// The fabric's final snapshot: per-arm counters/percentiles plus
    /// every per-shard gateway telemetry.
    pub fabric: FabricSnapshot,
}

/// The measured outcome of one load-bench invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadBenchResult {
    /// Which bench ran (names the report and its file).
    pub bench: LoadBench,
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
    /// Gateway shards per arm in the scaled runs.
    pub shards: usize,
    /// The arm split.
    pub arms: Vec<ArmSpec>,
    /// Batch flush threshold.
    pub max_batch: usize,
    /// Batch flush deadline (µs).
    pub max_delay_us: u64,
    /// Closed-loop throughput of the baseline shape (`runs[0]`).
    pub baseline_qps: f64,
    /// Closed-loop throughput of the scaled shape (`runs[1]`).
    pub scaled_qps: f64,
    /// `scaled_qps / baseline_qps` — what concurrency or sharding buys.
    pub speedup: f64,
    /// Scaled closed-loop throughput over f32 services (when measured).
    pub f32_scaled_qps: Option<f64>,
    /// `f32_scaled_qps / scaled_qps` — what quantization buys on top
    /// (when measured).
    pub f32_speedup: Option<f64>,
    /// Every timed run, in execution order.
    pub runs: Vec<LoadRun>,
}

impl LoadBenchResult {
    /// Renders the result as the `results/BENCH_<bench>.json` document.
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
                let mut fabric = MetricsRegistry::new();
                run.fabric.register_metrics(&mut fabric);
                format!(
                    "    {{\"label\": \"{}\", \"mode\": \"{}\", \"shards\": {}, \
                     \"ingress\": {}, \"executors\": {}, \"offered_qps\": {}, \
                     \"achieved_qps\": {:.1}, \"client_p50_us\": {}, \"client_p99_us\": {}, \
                     \"fabric\": {}}}",
                    run.label,
                    run.mode,
                    run.shards,
                    run.ingress,
                    run.executors,
                    opt(run.offered_qps),
                    run.achieved_qps,
                    opt(run.client_p50_us),
                    opt(run.client_p99_us),
                    fabric.render_json(),
                )
            })
            .collect();
        format!(
            "{{\n  \"bench\": \"{bench}\",\n  \"env\": \"{env}\",\n  \"shapes\": {{\n    \
             \"sessions\": {sessions},\n    \"history_length\": {hist},\n    \
             \"features_per_round\": {feat},\n    \"shards\": {shards},\n    \
             \"arms\": [{arms}],\n    \"max_batch\": {max_batch},\n    \
             \"max_delay_us\": {delay},\n    \"duration_s\": {dur}\n  }},\n  \
             \"baseline_qps\": {base:.1},\n  \"scaled_qps\": {scaled:.1},\n  \
             \"speedup\": {speedup:.3},{f32}\n  \"runs\": [\n{runs}\n  ]\n}}\n",
            bench = self.bench.name(),
            env = self.env,
            sessions = self.sessions,
            hist = self.history_length,
            feat = self.features_per_round,
            shards = self.shards,
            arms = arms.join(", "),
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

    /// Writes `results/BENCH_<bench>.json` and returns its path.
    ///
    /// # Errors
    ///
    /// Propagates the filesystem error when the file cannot be written.
    pub fn save(&self) -> std::io::Result<PathBuf> {
        let path = results_dir().join(format!("BENCH_{}.json", self.bench.name()));
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }
}

/// The run length for `duration_s` seconds (floored at 10 ms).
///
/// # Errors
///
/// Rejects a value no [`Duration`] holds (infinite, or as large as
/// `1e300`) or that would overflow the monotonic clock as a deadline.
pub fn run_length(duration_s: f64) -> Result<Duration, String> {
    Duration::try_from_secs_f64(duration_s.max(0.01))
        .ok()
        .filter(|duration| Instant::now().checked_add(*duration).is_some())
        .ok_or_else(|| format!("{duration_s} s is not a usable run length"))
}

/// What one closed-loop run measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClosedRun {
    /// Ingress workers that ran: the requested count, clamped to the
    /// sessions per round.
    pub ingress: usize,
    /// Completed quotes per second.
    pub achieved_qps: f64,
    /// Client-side exact p50 latency in µs (0 when nothing completed).
    pub client_p50_us: f64,
    /// Client-side exact p99 latency in µs (0 when nothing completed).
    pub client_p99_us: f64,
}

/// Closed loop: `ingress` threads each own a session slice of the stream
/// and submit-and-wait through `quote` until `duration` elapses. An
/// `Overloaded` rejection yields and moves on; any other error ends the
/// run.
///
/// # Errors
///
/// The first non-`Overloaded` error a worker saw.
///
/// # Panics
///
/// If `duration` overflows the clock as a deadline ([`run_length`] rules
/// that out) or a worker panics.
pub fn closed_loop<F>(
    stream: &[Vec<RequestFrame>],
    ingress: usize,
    duration: Duration,
    quote: F,
) -> Result<ClosedRun, String>
where
    F: Fn(QuoteRequest) -> Result<Quote, FabricError> + Sync,
{
    // Never spawn more workers than there are sessions to slice between
    // them: a worker with an empty slice would find no frame to price (and
    // its deadline check lives in the per-frame loop).
    let ingress = ingress.min(stream.first().map_or(1, Vec::len)).max(1);
    let quote = &quote;
    let start = Instant::now();
    let deadline = start + duration;
    let outcomes: Vec<Result<Vec<f64>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..ingress)
            .map(|t| {
                scope.spawn(move || {
                    let mut latencies_us = Vec::new();
                    'run: for frames in stream.iter().cycle() {
                        if Instant::now() >= deadline {
                            break 'run;
                        }
                        // Per-session order stays FIFO: each ingress thread
                        // owns its session slice, and the fabric routes a
                        // session to exactly one shard.
                        for frame in frames.iter().skip(t).step_by(ingress) {
                            if Instant::now() >= deadline {
                                break 'run;
                            }
                            let request = QuoteRequest::new(frame.session, frame.features.clone());
                            let sent = Instant::now();
                            match quote(request) {
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
    latencies_us.sort_by(f64::total_cmp);
    let percentile = |q| {
        if latencies_us.is_empty() {
            0.0
        } else {
            percentile_sorted(&latencies_us, q)
        }
    };
    Ok(ClosedRun {
        ingress,
        achieved_qps: latencies_us.len() as f64 / elapsed,
        client_p50_us: percentile(0.50),
        client_p99_us: percentile(0.99),
    })
}

/// Open loop: offer requests at `rate_qps` without waiting for quotes
/// (tickets are dropped; completions still land in per-shard telemetry).
/// Overload is absorbed per shard by admission control (rejects), never by
/// queues growing without bound. Returns completions per second inside the
/// offered window.
fn open_loop(
    fabric: &Fabric,
    stream: &[Vec<RequestFrame>],
    rate_qps: f64,
    duration: Duration,
) -> Result<f64, String> {
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
            match fabric.submit(QuoteRequest::new(frame.session, frame.features.clone())) {
                Ok(_) | Err(FabricError::Gateway(GatewayError::Overloaded { .. })) => offered += 1,
                Err(err) => return Err(err.to_string()),
            }
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    // Measure throughput over the offered window only: the shutdown drain
    // finishes the in-flight tail *after* the window, and counting it
    // against the pre-drain elapsed time would inflate achieved_qps at
    // overload (up to queue_capacity extra completions per shard).
    let in_window: u64 = fabric
        .telemetry()
        .gateways
        .iter()
        .map(|g| g.telemetry.completed)
        .sum();
    Ok(in_window as f64 / start.elapsed().as_secs_f64().max(1e-9))
}

/// One closed-loop shape: shards per arm, executors per shard, ingress
/// workers.
#[derive(Debug, Clone, Copy)]
struct Shape {
    shards: usize,
    executors: usize,
    ingress: usize,
}

/// Runs the bench: resolve the policy once (the shared snapshot serves
/// every shard of every arm), generate the request stream, time the
/// baseline and scaled closed loops (plus the f32 repeat when asked), then
/// the open-loop offered-load sweep at the scaled shape.
///
/// # Errors
///
/// Returns a human-readable message for an unusable `duration_s` (before
/// any training), unknown presets, unreadable checkpoints, invalid arm
/// splits or internal fabric errors.
pub fn run_load_bench(
    bench: LoadBench,
    opts: &LoadBenchOptions,
) -> Result<LoadBenchResult, String> {
    let duration = run_length(opts.duration_s)?;
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

    let per_core = |n: usize| if n == 0 { available_cores() } else { n };
    let scaled = Shape {
        shards: per_core(opts.shards),
        executors: per_core(opts.executors),
        ingress: per_core(opts.ingress),
    };
    let (baseline, labels) = match bench {
        LoadBench::Gateway => (
            Shape {
                shards: 1,
                executors: 1,
                ingress: 1,
            },
            ["baseline-closed".to_string(), "scaled-closed".to_string()],
        ),
        LoadBench::Fabric => (
            Shape {
                shards: 1,
                ..scaled
            },
            [
                "baseline-1shard".to_string(),
                format!("scaled-{}shards", scaled.shards),
            ],
        ),
    };
    let gateway = GatewayConfig::default()
        .with_max_batch(opts.max_batch)
        .with_max_delay(Duration::from_micros(opts.max_delay_us))
        .with_queue_capacity(opts.queue_capacity);
    let service = ServiceConfig::new(build.history_length, features);
    let start = |shape: Shape, service: ServiceConfig| {
        let config = FabricConfig::new(shape.shards, service)
            .with_arms(opts.arms.clone())
            .with_gateway(gateway.clone().with_executors(shape.executors));
        Fabric::start_shared(&policy, config).map_err(|e| e.to_string())
    };
    let closed = |label: &str, shape: Shape, service: ServiceConfig| {
        let fabric = start(shape, service)?;
        let run = closed_loop(&stream, shape.ingress, duration, |request| {
            fabric.quote(request)
        })?;
        Ok::<_, String>(LoadRun {
            label: label.to_string(),
            mode: "closed",
            shards: shape.shards,
            ingress: run.ingress,
            executors: shape.executors,
            offered_qps: None,
            achieved_qps: run.achieved_qps,
            client_p50_us: Some(run.client_p50_us),
            client_p99_us: Some(run.client_p99_us),
            fabric: fabric.shutdown(),
        })
    };

    let mut runs = vec![
        closed(&labels[0], baseline, service)?,
        closed(&labels[1], scaled, service)?,
    ];
    if opts.precision == BenchPrecision::WithF32 {
        let f32_service = service.with_precision(Precision::F32);
        runs.push(closed(&format!("{}-f32", labels[1]), scaled, f32_service)?);
    }
    let (baseline_qps, scaled_qps) = (runs[0].achieved_qps, runs[1].achieved_qps);
    let f32_scaled_qps = runs.get(2).map(|run| run.achieved_qps);

    // Open-loop sweep: offered load as multiples of the measured capacity.
    for &factor in &opts.open_loop_factors {
        let rate = (scaled_qps * factor).max(1.0);
        let fabric = start(scaled, service)?;
        let achieved_qps = open_loop(&fabric, &stream, rate, duration)?;
        runs.push(LoadRun {
            label: format!("open-x{factor:.2}"),
            mode: "open",
            shards: scaled.shards,
            ingress: 1,
            executors: scaled.executors,
            offered_qps: Some(rate),
            achieved_qps,
            client_p50_us: None,
            client_p99_us: None,
            fabric: fabric.shutdown(),
        });
    }

    Ok(LoadBenchResult {
        bench,
        env: opts.env.clone(),
        sessions,
        features_per_round: features,
        history_length: build.history_length,
        duration_s: opts.duration_s,
        shards: scaled.shards,
        arms: opts.arms.clone(),
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

/// Closed-loop quotes per second of a fresh bare [`Gateway`] started on
/// `config`: 4 ingress threads over 64 sessions of the 12-dim
/// [`rollout_bench_agent`] policy (history 4 × 3 features), whose features
/// `((round·31 + session·7 + f) mod 97) / 97` repeat every 97 rounds. The
/// paired measurement behind the tracing and journaling overhead
/// acceptances (`tests/{trace,journal}_overhead.rs`).
///
/// # Errors
///
/// A gateway error other than `Overloaded`, or any failed request.
pub fn bare_gateway_qps(config: GatewayConfig, duration: Duration) -> Result<f64, String> {
    const SESSIONS: usize = 64;
    const FEATURES: usize = 3;
    let stream: Vec<Vec<RequestFrame>> = (0..97)
        .map(|round| {
            (0..SESSIONS)
                .map(|s| RequestFrame {
                    session: s as u64,
                    features: (0..FEATURES)
                        .map(|f| ((round * 31 + s * 7 + f) % 97) as f64 / 97.0)
                        .collect(),
                })
                .collect()
        })
        .collect();
    let service = PricingService::from_snapshot(
        &rollout_bench_agent().snapshot(),
        ServiceConfig::new(4, FEATURES),
    )
    .map_err(|e| format!("cannot build service: {e}"))?;
    let gateway = Gateway::start(Arc::new(service), config);
    let run = closed_loop(&stream, 4, duration, |request| Ok(gateway.quote(request)?))?;
    match gateway.shutdown().failed {
        0 => Ok(run.achieved_qps),
        failed => Err(format!("{failed} requests failed")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_opts(bench: LoadBench) -> LoadBenchOptions {
        LoadBenchOptions {
            duration_s: 0.05,
            stream_rounds: 4,
            max_batch: 8,
            max_delay_us: 200,
            open_loop_factors: vec![1.0],
            ..bench.options()
        }
    }

    #[test]
    fn gateway_bench_runs_and_reports_consistent_numbers() {
        // More ingress threads than sessions: the report must carry the
        // clamped count that actually ran.
        let result = run_load_bench(
            LoadBench::Gateway,
            &LoadBenchOptions {
                sessions: 8,
                ingress: 16,
                executors: 1,
                ..smoke_opts(LoadBench::Gateway)
            },
        )
        .unwrap();
        assert_eq!(result.sessions, 8);
        assert!(result.baseline_qps > 0.0);
        assert!(result.scaled_qps > 0.0);
        assert!(result.speedup > 0.0);
        // baseline + scaled + scaled-f32 + one open
        assert_eq!(result.runs.len(), 4);
        assert_eq!(result.runs[0].ingress, 1);
        assert_eq!(result.runs[1].ingress, 8, "ingress is clamped to sessions");
        assert!(result.f32_scaled_qps.unwrap() > 0.0);
        assert!(result.f32_speedup.unwrap() > 0.0);
        let f32_run = result
            .runs
            .iter()
            .find(|r| r.label == "scaled-closed-f32")
            .unwrap();
        assert_eq!(f32_run.fabric.gateways[0].telemetry.precision, "f32");
        for run in &result.runs {
            assert_eq!(run.fabric.gateways.len(), 1, "one shard of one arm");
            let t = &run.fabric.gateways[0].telemetry;
            assert_eq!(t.submitted, t.completed + t.failed, "books must balance");
            assert_eq!(t.failed, 0);
            assert_eq!(t.queue_depth, 0, "shutdown must drain");
            if t.completed > 0 {
                assert!(t.latency.p99_us() >= t.latency.p50_us());
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
        assert!(json.contains("\"p99_us\""));
        assert!(json.contains("\"vtm_gateway_batch_size_total\""));
    }

    #[test]
    fn fabric_bench_runs_and_reports_consistent_numbers() {
        let result = run_load_bench(
            LoadBench::Fabric,
            &LoadBenchOptions {
                sessions: 16,
                shards: 2,
                ingress: 2,
                ..smoke_opts(LoadBench::Fabric)
            },
        )
        .unwrap();
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
                assert!(majority.latency.p99_us() >= majority.latency.p50_us());
            }
        }
        let scaled = &result.runs[1];
        assert_eq!(scaled.label, "scaled-2shards");
        assert_eq!(scaled.fabric.gateways.len(), 4, "2 shards × 2 arms");
        let json = result.to_json();
        assert!(json.contains("\"bench\": \"fabric\""));
        assert!(json.contains("\"arms\": [\"a=90\", \"b=10\"]"));
        assert!(json.contains("\"baseline_qps\""));
        assert!(json.contains("\"open-x1.00\""));
        assert!(json.contains("\"vtm_fabric_arm_revenue\""));
        assert!(json.contains("\"generation\""));
    }

    #[test]
    fn unknown_presets_are_rejected() {
        let opts = LoadBenchOptions {
            env: "not-a-preset".to_string(),
            ..smoke_opts(LoadBench::Gateway)
        };
        assert!(run_load_bench(LoadBench::Gateway, &opts).is_err());
    }

    #[test]
    fn unknown_presets_and_bad_splits_are_rejected() {
        let opts = LoadBenchOptions {
            env: "not-a-preset".to_string(),
            ..smoke_opts(LoadBench::Fabric)
        };
        assert!(run_load_bench(LoadBench::Fabric, &opts).is_err());
        let opts = LoadBenchOptions {
            arms: vec![ArmSpec::new("a", 30)],
            ..smoke_opts(LoadBench::Fabric)
        };
        assert!(run_load_bench(LoadBench::Fabric, &opts).is_err());
    }

    #[test]
    fn unusable_durations_are_rejected() {
        // Run lengths no Duration or deadline can hold are an error, not a
        // panic.
        for bench in [LoadBench::Gateway, LoadBench::Fabric] {
            for duration_s in [f64::INFINITY, 1e300, 1e19] {
                let opts = LoadBenchOptions {
                    duration_s,
                    ..smoke_opts(bench)
                };
                assert!(run_load_bench(bench, &opts).is_err(), "{duration_s}");
            }
        }
    }
}
