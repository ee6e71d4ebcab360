//! The serving throughput benchmark behind `experiments serve-bench`.
//!
//! Measures the end-to-end quote throughput of a [`PricingService`] loaded
//! from a policy checkpoint, comparing the batched path (one
//! [`PricingService::quote_batch`] call per pricing round) against the
//! per-request baseline (one [`PricingService::quote_one`] call per session
//! per round) over identical request streams. Since both paths produce
//! bit-identical greedy quotes, the measured ratio is pure batching
//! speedup — the same lever the training-side rollout engine uses, now on
//! the serving side. Results are written to `results/BENCH_serve.json`.

use std::path::{Path, PathBuf};
use std::time::Instant;

use vtm_core::registry::{EnvBuildOptions, EnvRegistry};
use vtm_obs::median;
use vtm_rl::env::Environment;
use vtm_rl::ppo::PpoAgent;
use vtm_rl::snapshot::PolicySnapshot;
use vtm_rl::trainer::Trainer;
use vtm_serve::{Precision, PricingService, QuoteRequest, ServiceConfig};

use crate::results_dir;
use crate::timing::available_cores;

/// Which precision modes one serve-bench run measures.
///
/// The f64 reference path is always measured (it is the committed baseline
/// the quantized path is compared against); the question is whether the
/// f32 fast path rides along, agreement-checked and paired-timed against
/// it. See `docs/NUMERICS.md` for the contract behind the comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BenchPrecision {
    /// Measure the f64 reference path only (the pre-f32 behaviour).
    F64Only,
    /// Measure f64 *and* the quantized f32 path: greedy decision agreement
    /// is asserted, the max absolute price divergence recorded, and both
    /// modes land in `BENCH_serve.json`. The default.
    #[default]
    WithF32,
}

impl BenchPrecision {
    /// Parses a `--precision` argument (`f64`, `f32` or `both`; measuring
    /// f32 always keeps the f64 baseline for the agreement check).
    pub fn parse(arg: &str) -> Result<Self, String> {
        match arg {
            "f64" => Ok(BenchPrecision::F64Only),
            "f32" | "both" => Ok(BenchPrecision::WithF32),
            other => Err(format!(
                "unknown precision `{other}` (expected f64, f32 or both)"
            )),
        }
    }
}

/// Options of one serve-bench run.
#[derive(Debug, Clone)]
pub struct ServeBenchOptions {
    /// Registry preset the policy prices (decides the feature geometry).
    pub env: String,
    /// Optional checkpoint to load; when absent a policy is trained on the
    /// spot for `train_episodes` episodes.
    pub checkpoint: Option<PathBuf>,
    /// Concurrent VMU sessions per round.
    pub sessions: usize,
    /// Pricing rounds per timed pass.
    pub rounds: usize,
    /// Timed passes; the reported numbers are the per-path medians.
    pub repeats: usize,
    /// Episodes for the fallback on-the-spot training.
    pub train_episodes: usize,
    /// Inference worker threads for the batched path (`0` = one per core).
    pub inference_threads: usize,
    /// Precision modes to measure.
    pub precision: BenchPrecision,
}

impl Default for ServeBenchOptions {
    fn default() -> Self {
        Self {
            env: "static".to_string(),
            checkpoint: None,
            sessions: 64,
            rounds: 20,
            repeats: 5,
            train_episodes: 2,
            inference_threads: 0,
            precision: BenchPrecision::default(),
        }
    }
}

/// The measured outcome of one serve-bench run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeBenchResult {
    /// Preset name the geometry came from.
    pub env: String,
    /// Sessions per round.
    pub sessions: usize,
    /// Rounds per pass.
    pub rounds: usize,
    /// Feature-block width per round.
    pub features_per_round: usize,
    /// Observation history length.
    pub history_length: usize,
    /// Inference threads the batched path resolved to.
    pub inference_threads: usize,
    /// Median seconds per pass, batched path.
    pub batched_s: f64,
    /// Median seconds per pass, per-request path.
    pub per_request_s: f64,
    /// Batched throughput (quotes per second).
    pub batched_qps: f64,
    /// Per-request throughput (quotes per second).
    pub per_request_qps: f64,
    /// `batched_qps / per_request_qps`.
    pub speedup: f64,
    /// Median seconds per pass, batched f32 path (when measured).
    pub f32_batched_s: Option<f64>,
    /// Batched f32 throughput in quotes per second (when measured).
    pub f32_batched_qps: Option<f64>,
    /// Batched f64 time over batched f32 time (when measured) — the
    /// quantization speedup the `serve_f32_speedup` acceptance test gates.
    pub f32_speedup: Option<f64>,
    /// Largest absolute price divergence between the f32 and f64 greedy
    /// quotes over the whole request stream (when measured).
    pub f32_max_price_err: Option<f64>,
    /// Whether every f32 greedy quote picked the same argmax action
    /// dimension as its f64 counterpart (when measured; `run_serve_bench`
    /// fails instead of reporting `false`).
    pub f32_argmax_agree: Option<bool>,
}

impl ServeBenchResult {
    /// Renders the result as the `results/BENCH_serve.json` document. The
    /// top-level `batched`/`per_request` numbers are always the f64
    /// reference path; when the f32 fast path was measured it appears as a
    /// `precision_f32` block alongside them, so the committed f64 baseline
    /// never moves when the quantized mode is toggled.
    pub fn to_json(&self) -> String {
        let f32_block = match (self.f32_batched_s, self.f32_batched_qps, self.f32_speedup) {
            (Some(s), Some(qps), Some(speedup)) => format!(
                ",\n  \"precision_f32\": {{\n    \"seconds_per_pass\": {s:.6},\n    \
                 \"quotes_per_s\": {qps:.1},\n    \"speedup_vs_f64\": {speedup:.3},\n    \
                 \"max_abs_price_err\": {err:.3e},\n    \"argmax_agree\": {agree}\n  }}",
                err = self.f32_max_price_err.unwrap_or(0.0),
                agree = self.f32_argmax_agree.unwrap_or(false),
            ),
            _ => String::new(),
        };
        format!(
            "{{\n  \"bench\": \"serve\",\n  \"env\": \"{env}\",\n  \"shapes\": {{\n    \
             \"sessions\": {sessions},\n    \"rounds\": {rounds},\n    \
             \"history_length\": {hist},\n    \"features_per_round\": {feat},\n    \
             \"inference_threads\": {threads}\n  }},\n  \"precision\": \"f64\",\n  \
             \"batched\": {{\n    \"seconds_per_pass\": {bs:.6},\n    \
             \"quotes_per_s\": {bqps:.1}\n  }},\n  \"per_request\": {{\n    \
             \"seconds_per_pass\": {ps:.6},\n    \"quotes_per_s\": {pqps:.1}\n  }},\n  \
             \"speedup\": {speedup:.3}{f32_block}\n}}\n",
            env = self.env,
            sessions = self.sessions,
            rounds = self.rounds,
            hist = self.history_length,
            feat = self.features_per_round,
            threads = self.inference_threads,
            bs = self.batched_s,
            bqps = self.batched_qps,
            ps = self.per_request_s,
            pqps = self.per_request_qps,
            speedup = self.speedup,
        )
    }

    /// Writes `results/BENCH_serve.json` and returns its path.
    ///
    /// # Errors
    ///
    /// Propagates the filesystem error when the file cannot be written.
    pub fn save(&self) -> std::io::Result<PathBuf> {
        let path = results_dir().join("BENCH_serve.json");
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }
}

/// Deterministic synthetic feature block for `(round, session, width)` —
/// the request stream both timed paths replay.
fn feature_block(round: usize, session: usize, width: usize) -> Vec<f64> {
    (0..width)
        .map(|f| ((round * 131 + session * 31 + f * 7) % 97) as f64 / 97.0)
        .collect()
}

/// Builds the per-round request batches.
fn request_stream(opts: &ServeBenchOptions, width: usize) -> Vec<Vec<QuoteRequest>> {
    (0..opts.rounds)
        .map(|round| {
            (0..opts.sessions)
                .map(|s| QuoteRequest::new(s as u64, feature_block(round, s, width)))
                .collect()
        })
        .collect()
}

/// Resolves a serving policy snapshot: load the checkpoint when given,
/// otherwise train a small policy on the named preset right here (shared by
/// `serve-bench` and the load driver behind `gateway-bench` and
/// `fabric-bench`).
pub(crate) fn resolve_snapshot(
    env_name: &str,
    checkpoint: Option<&Path>,
    train_episodes: usize,
    build: &EnvBuildOptions,
) -> Result<PolicySnapshot, String> {
    if let Some(path) = checkpoint {
        return PolicySnapshot::load_from(path)
            .map_err(|e| format!("cannot load checkpoint {}: {e}", path.display()));
    }
    let registry = EnvRegistry::builtin();
    let env = registry
        .build(env_name, build)
        .ok_or_else(|| format!("unknown environment preset `{env_name}`"))?;
    let ppo = vtm_rl::ppo::PpoConfig::new(env.observation_dim(), 1).with_seed(7);
    let mut agent = PpoAgent::new(ppo, env.action_space());
    let report = Trainer::for_env(env)
        .episodes(train_episodes)
        .max_steps(build.rounds_per_episode)
        .run(&mut agent)
        .map_err(|e| format!("fallback training failed: {e}"))?;
    Ok(agent.snapshot().with_trained_rounds(report.next_round()))
}

/// Runs the benchmark: builds (or loads) the policy, replays the same
/// request stream through the batched and the per-request path, checks they
/// quote identically, and reports the throughput of each.
///
/// # Errors
///
/// Returns a human-readable message for unknown presets, unreadable
/// checkpoints or geometry mismatches.
pub fn run_serve_bench(opts: &ServeBenchOptions) -> Result<ServeBenchResult, String> {
    let build = EnvBuildOptions::default();
    let registry = EnvRegistry::builtin();
    let spec = registry
        .get(&opts.env)
        .ok_or_else(|| format!("unknown environment preset `{}`", opts.env))?;
    let features = spec.features_per_round();
    let snapshot = resolve_snapshot(
        &opts.env,
        opts.checkpoint.as_deref(),
        opts.train_episodes,
        &build,
    )?;
    let resolved_threads = match opts.inference_threads {
        0 => available_cores(),
        t => t,
    };
    // The batched service fans its forward pass out across cores; the
    // per-request baseline is one single-row forward pass per call.
    let service_config =
        ServiceConfig::new(build.history_length, features).with_inference_threads(resolved_threads);
    let make_service = || {
        PricingService::from_snapshot(&snapshot, service_config)
            .map_err(|e| format!("cannot build service: {e}"))
    };
    let make_f32_service = || {
        PricingService::from_snapshot(&snapshot, service_config.with_precision(Precision::F32))
            .map_err(|e| format!("cannot build f32 service: {e}"))
    };
    let with_f32 = opts.precision == BenchPrecision::WithF32;
    let stream = request_stream(opts, features);

    // Correctness first: both paths must quote identically.
    {
        let batched = make_service()?;
        let sequential = make_service()?;
        for batch in &stream {
            let a = batched.quote_batch(batch).map_err(|e| e.to_string())?;
            let b: Result<Vec<_>, _> = batch.iter().map(|r| sequential.quote_one(r)).collect();
            let b = b.map_err(|e| e.to_string())?;
            if a != b {
                return Err("batched and per-request quotes diverged".to_string());
            }
        }
    }

    // When the f32 mode rides along, pin its decision agreement against
    // the f64 reference over the same stream before timing anything.
    let mut f32_max_price_err = 0.0f64;
    if with_f32 {
        let reference = make_service()?;
        let quantized = make_f32_service()?;
        for batch in &stream {
            let wide = reference.quote_batch(batch).map_err(|e| e.to_string())?;
            let narrow = quantized.quote_batch(batch).map_err(|e| e.to_string())?;
            for (w, n) in wide.iter().zip(&narrow) {
                if argmax(&w.action) != argmax(&n.action) {
                    return Err(format!(
                        "f32 greedy decision diverged from f64 for session {}",
                        w.session
                    ));
                }
                f32_max_price_err = f32_max_price_err.max((w.price() - n.price()).abs());
            }
        }
    }

    // Interleaved paired timing (one pass of each per repeat), so CPU
    // frequency drift on shared machines hits both paths equally.
    let mut batched_times = Vec::with_capacity(opts.repeats);
    let mut per_request_times = Vec::with_capacity(opts.repeats);
    let mut f32_times = Vec::with_capacity(opts.repeats);
    for _ in 0..opts.repeats {
        let service = make_service()?;
        let t = Instant::now();
        for batch in &stream {
            service.quote_batch(batch).map_err(|e| e.to_string())?;
        }
        batched_times.push(t.elapsed().as_secs_f64());

        if with_f32 {
            let service = make_f32_service()?;
            let t = Instant::now();
            for batch in &stream {
                service.quote_batch(batch).map_err(|e| e.to_string())?;
            }
            f32_times.push(t.elapsed().as_secs_f64());
        }

        let service = make_service()?;
        let t = Instant::now();
        for batch in &stream {
            for request in batch {
                service.quote_one(request).map_err(|e| e.to_string())?;
            }
        }
        per_request_times.push(t.elapsed().as_secs_f64());
    }
    let batched_s = median(&mut batched_times).max(1e-12);
    let per_request_s = median(&mut per_request_times).max(1e-12);
    let quotes = (opts.sessions * opts.rounds) as f64;
    let f32_batched_s = with_f32.then(|| median(&mut f32_times).max(1e-12));
    Ok(ServeBenchResult {
        env: opts.env.clone(),
        sessions: opts.sessions,
        rounds: opts.rounds,
        features_per_round: features,
        history_length: build.history_length,
        inference_threads: resolved_threads,
        batched_s,
        per_request_s,
        batched_qps: quotes / batched_s,
        per_request_qps: quotes / per_request_s,
        speedup: per_request_s / batched_s,
        f32_batched_s,
        f32_batched_qps: f32_batched_s.map(|s| quotes / s),
        f32_speedup: f32_batched_s.map(|s| batched_s / s),
        f32_max_price_err: with_f32.then_some(f32_max_price_err),
        f32_argmax_agree: with_f32.then_some(true),
    })
}

/// Index of the largest action dimension — the greedy "which action wins"
/// witness the precision agreement check compares.
fn argmax(values: &[f64]) -> usize {
    values
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
        .map(|(i, _)| i)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_bench_runs_and_reports_consistent_numbers() {
        let opts = ServeBenchOptions {
            sessions: 8,
            rounds: 3,
            repeats: 1,
            ..ServeBenchOptions::default()
        };
        let result = run_serve_bench(&opts).unwrap();
        assert_eq!(result.sessions, 8);
        assert_eq!(result.rounds, 3);
        assert!(result.batched_qps > 0.0);
        assert!(result.per_request_qps > 0.0);
        assert!(result.speedup > 0.0);
        // The default measures both precision modes, agreement-checked.
        assert!(result.f32_batched_qps.unwrap() > 0.0);
        assert!(result.f32_speedup.unwrap() > 0.0);
        assert!(result.f32_max_price_err.unwrap() < 1e-2);
        assert_eq!(result.f32_argmax_agree, Some(true));
        let json = result.to_json();
        assert!(json.contains("\"bench\": \"serve\""));
        assert!(json.contains("\"speedup\""));
        assert!(json.contains("\"precision_f32\""));
        assert!(json.contains("\"argmax_agree\": true"));
    }

    #[test]
    fn f64_only_mode_omits_the_f32_block() {
        let opts = ServeBenchOptions {
            sessions: 4,
            rounds: 2,
            repeats: 1,
            precision: BenchPrecision::F64Only,
            ..ServeBenchOptions::default()
        };
        let result = run_serve_bench(&opts).unwrap();
        assert_eq!(result.f32_batched_s, None);
        assert!(!result.to_json().contains("precision_f32"));
    }

    #[test]
    fn precision_arguments_parse() {
        assert_eq!(BenchPrecision::parse("f64"), Ok(BenchPrecision::F64Only));
        assert_eq!(BenchPrecision::parse("f32"), Ok(BenchPrecision::WithF32));
        assert_eq!(BenchPrecision::parse("both"), Ok(BenchPrecision::WithF32));
        assert!(BenchPrecision::parse("f16").is_err());
    }

    #[test]
    fn unknown_presets_are_rejected() {
        let opts = ServeBenchOptions {
            env: "not-a-preset".to_string(),
            ..ServeBenchOptions::default()
        };
        assert!(run_serve_bench(&opts).is_err());
    }
}
