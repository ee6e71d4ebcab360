//! Single-layer rungs, each timing one layer's public function on the
//! workload's own inputs from outside: the service (`quote_refs`), the
//! kernel (`Mlp::forward_rows`, `InferenceModel::forward_rows`), the
//! journal (`JournalWriter::append`, `replay_fabric`), routing and the
//! environment step.

use std::path::Path;
use std::time::Instant;

use vtm_core::registry::RequestFrame;
use vtm_core::routing::session_shard;
use vtm_fabric::{ArmSpec, ArmTable};
use vtm_journal::{replay_fabric, shard_journal_path, JournalOptions, ReplayOptions};
use vtm_nn::inference::InferenceModel;
use vtm_nn::mlp::Mlp;
use vtm_rl::env::Environment;
use vtm_serve::{PricingService, QuoteRequest, ServiceConfig, SharedPolicy};

use crate::report::Metrics;
use crate::stats::median;

/// Timed passes per rung; a rung reports the median pass.
const PASSES: usize = 7;

/// Times `PASSES` calls of `pass` (each returns the items it processed)
/// and returns the median ns per item.
fn ns_per_item(mut pass: impl FnMut() -> Result<usize, String>) -> Result<f64, String> {
    pass()?; // warm caches and lazy set-up
    let mut per_item = Vec::with_capacity(PASSES);
    for _ in 0..PASSES {
        let t = Instant::now();
        let items = pass()?;
        per_item.push(t.elapsed().as_nanos() as f64 / items.max(1) as f64);
    }
    Ok(median(&per_item))
}

/// `serve.quote_refs_ns_per_quote.b{1,8,32}`: `quote_refs` over the
/// requests in batches of 1, 8 and 32, on a fresh service per pass.
///
/// # Errors
///
/// On a service error.
pub fn serve(
    policy: &SharedPolicy,
    config: ServiceConfig,
    requests: &[QuoteRequest],
    metrics: &mut Metrics,
) -> Result<(), String> {
    for (batch, name) in [
        (1, "serve.quote_refs_ns_per_quote.b1"),
        (8, "serve.quote_refs_ns_per_quote.b8"),
        (32, "serve.quote_refs_ns_per_quote.b32"),
    ] {
        let ns = ns_per_item(|| {
            let service = PricingService::from_shared(policy, config).map_err(|e| e.to_string())?;
            for chunk in requests.chunks(batch) {
                let refs: Vec<&QuoteRequest> = chunk.iter().collect();
                std::hint::black_box(service.quote_refs(&refs).map_err(|e| e.to_string())?);
            }
            Ok(requests.len())
        })?;
        metrics.insert(name, ns);
    }
    Ok(())
}

/// `nn.forward_ns_per_row.{f64,f32}.b{1,32}` over observation rows, plus
/// `nn.flops_per_row` and `nn.weight_bytes`, both computed from the layer
/// shapes (2 flops per multiply-add; f64 weights and biases).
///
/// # Errors
///
/// On a shape error.
pub fn kernel(actor: &Mlp, rows: &[Vec<f64>], metrics: &mut Metrics) -> Result<(), String> {
    let f32_model = InferenceModel::from_mlp(actor);
    let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
    for (batch, f64_name, f32_name) in [
        (
            1,
            "nn.forward_ns_per_row.f64.b1",
            "nn.forward_ns_per_row.f32.b1",
        ),
        (
            32,
            "nn.forward_ns_per_row.f64.b32",
            "nn.forward_ns_per_row.f32.b32",
        ),
    ] {
        let f64_ns = ns_per_item(|| {
            for chunk in refs.chunks(batch) {
                std::hint::black_box(actor.forward_rows(chunk).map_err(|e| e.to_string())?);
            }
            Ok(refs.len())
        })?;
        let f32_ns = ns_per_item(|| {
            for chunk in refs.chunks(batch) {
                std::hint::black_box(f32_model.forward_rows(chunk).map_err(|e| e.to_string())?);
            }
            Ok(refs.len())
        })?;
        metrics.insert(f64_name, f64_ns);
        metrics.insert(f32_name, f32_ns);
    }
    let flops: usize = actor
        .layers()
        .iter()
        .map(|l| 2 * l.fan_in() * l.fan_out())
        .sum();
    metrics.insert("nn.flops_per_row", flops as f64);
    metrics.insert("nn.weight_bytes", (actor.parameter_count() * 8) as f64);
    Ok(())
}

/// Observation rows as the service assembles them: each session's last
/// `history` feature blocks, oldest first, for every round that has them.
pub fn observation_rows(
    stream: &[Vec<RequestFrame>],
    history: usize,
    limit: usize,
) -> Vec<Vec<f64>> {
    let mut rows = Vec::new();
    for window in stream.windows(history) {
        let newest = window.last().map_or(0, Vec::len);
        for session in 0..newest {
            let row: Vec<f64> = window
                .iter()
                .flat_map(|round| round[session].features.iter().copied())
                .collect();
            rows.push(row);
            if rows.len() == limit {
                return rows;
            }
        }
    }
    rows
}

/// `journal.append_ns`, `journal.bytes_per_quote` and
/// `journal.replay_frames_per_s`: appends the requests to a fresh journal
/// with the gateway's default options, then replays it into a fresh
/// service, whose digest must equal a service that quoted the same
/// requests live.
///
/// # Errors
///
/// On an i/o error or a replay digest that differs.
pub fn journal(
    policy: &SharedPolicy,
    config: ServiceConfig,
    requests: &[QuoteRequest],
    dir: &Path,
    metrics: &mut Metrics,
) -> Result<(), String> {
    let base = dir.join("journal-rung.vtmj");
    let mut writer = JournalOptions::new(shard_journal_path(&base, 0))
        .open()
        .map_err(|e| e.to_string())?;
    let t = Instant::now();
    for request in requests {
        writer.append(request).map_err(|e| e.to_string())?;
    }
    let append_ns = t.elapsed().as_nanos() as f64 / requests.len().max(1) as f64;
    writer.sync().map_err(|e| e.to_string())?;
    let bytes_per_quote = writer.bytes_written() as f64 / writer.frames().max(1) as f64;
    drop(writer);

    let live = PricingService::from_shared(policy, config).map_err(|e| e.to_string())?;
    live.quote_batch(requests).map_err(|e| e.to_string())?;
    let fresh = PricingService::from_shared(policy, config).map_err(|e| e.to_string())?;
    let t = Instant::now();
    let report =
        replay_fabric(&[&fresh], &base, &ReplayOptions::default()).map_err(|e| e.to_string())?;
    let replay_s = t.elapsed().as_secs_f64();
    if report.shards[0].state_digest != live.state_digest() {
        return Err("the journal rung replayed to a different state than it quoted".to_string());
    }
    metrics.insert("journal.append_ns", append_ns);
    metrics.insert("journal.bytes_per_quote", bytes_per_quote);
    metrics.insert(
        "journal.replay_frames_per_s",
        report.total_frames() as f64 / replay_s,
    );
    Ok(())
}

/// `fabric.route_ns`: the fabric's two routing hashes (arm, then shard)
/// per session id, for the given topology.
///
/// # Errors
///
/// For an invalid arm split.
pub fn route(
    arms: Vec<ArmSpec>,
    shards: usize,
    sessions: &[u64],
    metrics: &mut Metrics,
) -> Result<(), String> {
    let table = ArmTable::new(arms).map_err(|e| e.to_string())?;
    let ns = ns_per_item(|| {
        for _ in 0..64 {
            for &session in sessions {
                std::hint::black_box((
                    table.arm_of(std::hint::black_box(session)),
                    session_shard(session, shards),
                ));
            }
        }
        Ok(64 * sessions.len())
    })?;
    metrics.insert("fabric.route_ns", ns);
    Ok(())
}

/// `env.step_ns`: the environment step under the policy-neutral midpoint
/// price, resetting at episode ends.
pub fn env_step<E: Environment + Clone>(env: &E, metrics: &mut Metrics) -> Result<(), String> {
    let mut env = env.clone();
    let midpoint = env
        .action_space()
        .squash(&vec![0.0; env.action_space().dim()]);
    env.reset();
    let ns = ns_per_item(|| {
        for _ in 0..4096 {
            if std::hint::black_box(env.step(&midpoint)).done {
                env.reset();
            }
        }
        Ok(4096)
    })?;
    metrics.insert("env.step_ns", ns);
    Ok(())
}
