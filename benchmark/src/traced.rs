//! The traced run (`--trace 1`): per-layer numbers, measured apart from the
//! end-to-end runs, which run with tracing off.
//!
//! `Fabric` does not expose raw trace records, so the gateway stages come
//! from a bare `Gateway` with the workload's gateway configuration (a
//! 1-shard, 1-arm fabric is pinned bit-identical to one), driven at one
//! shard's share of the load. Stages are computed from the raw
//! `TraceRecord`s, not from the log₂ histogram buckets. The other layers
//! are timed by calling their public functions on the workload's inputs.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use vtm_core::registry::{EnvBuildOptions, EnvRegistry, RequestFrame};
use vtm_gateway::{Gateway, GatewayConfig, TelemetrySnapshot, TraceRecord, TracerConfig};
use vtm_journal::{shard_journal_path, JournalOptions};
use vtm_serve::{PricingService, QuoteRequest, ServiceConfig, SharedPolicy};

use crate::checks::{books, journal_replay, reprice};
use crate::drive::{closed_loop, open_loop, ClosedRun, Fate, Schedule};
use crate::layers;
use crate::policy::{TrainSplit, PRESET};
use crate::quote::{set_up, QuoteWorkload, Setup, CLIENTS};
use crate::report::{Metrics, Outcome, PER_LAYER};
use crate::stats::{mean, median, Percentiles};
use crate::train;
use crate::Ctx;

/// Trace 1 request in this many (by trace id).
pub const SAMPLE_EVERY: u64 = 16;

/// Trace-ring capacity, large enough to keep every sampled record.
pub const RING: usize = 1 << 16;

/// Requests each single-layer rung works through.
const RUNG_REQUESTS: usize = 4096;

/// One answered request as its client saw it.
#[derive(Debug, Clone, Copy)]
struct ClientSample {
    session: u64,
    sent: Instant,
    received: Instant,
}

impl ClientSample {
    fn latency_us(&self) -> f64 {
        (self.received - self.sent).as_secs_f64() * 1e6
    }
}

/// A started bare gateway and the instants bracketing its start (its
/// tracer's clock starts in between).
struct Started {
    gateway: Gateway,
    before: Instant,
    after: Instant,
}

fn start(setup: &Setup, journal: Option<&Path>, tracing: bool) -> Result<Started, String> {
    let mut config = setup.gateway.clone();
    if let Some(base) = journal {
        config = config.with_journal(JournalOptions::new(shard_journal_path(base, 0)));
    }
    if tracing {
        config = config.with_tracing(
            TracerConfig::default()
                .with_sample_every(SAMPLE_EVERY)
                .with_capacity(RING),
        );
    }
    let service =
        PricingService::from_shared(&setup.policy, setup.service).map_err(|e| e.to_string())?;
    let before = Instant::now();
    let gateway = Gateway::try_start(Arc::new(service), config).map_err(|e| e.to_string())?;
    Ok(Started {
        gateway,
        before,
        after: Instant::now(),
    })
}

fn closed_samples(run: &ClosedRun) -> Vec<ClientSample> {
    run.all()
        .filter(|s| s.price.is_some())
        .map(|s| ClientSample {
            session: u64::from(s.session),
            sent: s.sent,
            received: s.received,
        })
        .collect()
}

/// The stage metrics from raw trace records, plus the client-wake share
/// found by matching each record to the client request it traced.
fn stages(
    records: &[TraceRecord],
    clients: &[ClientSample],
    started: (Instant, Instant),
    metrics: &mut Metrics,
) -> Result<String, String> {
    if records.is_empty() {
        return Err("the traced run published no trace records".to_string());
    }
    let mut by_session: HashMap<u64, Vec<&ClientSample>> = HashMap::new();
    for sample in clients {
        by_session.entry(sample.session).or_default().push(sample);
    }
    // The tracer's clock starts between `before` and `after`; a record's
    // admission therefore lies in [before + admit - 1 µs, after + admit],
    // and falls inside exactly one request of its session.
    let (before, after) = started;
    let mut wake = Vec::new();
    for record in records {
        let lo = before + Duration::from_micros(record.admit_us.saturating_sub(1));
        let hi = after + Duration::from_micros(record.admit_us);
        let mut matches = by_session
            .get(&record.session)
            .into_iter()
            .flatten()
            .filter(|c| c.sent <= hi && c.received >= lo);
        if let (Some(client), None) = (matches.next(), matches.next()) {
            wake.push(client.latency_us() - record.stages().total_us as f64);
        }
    }
    let column = |f: &dyn Fn(&TraceRecord) -> Option<u64>| -> Vec<f64> {
        records.iter().filter_map(f).map(|v| v as f64).collect()
    };
    let journaled =
        |r: &TraceRecord| (r.journal_start_us != 0).then(|| r.stages().journal_append_us);
    let table: [(&str, &str, Vec<f64>); 7] = [
        (
            "gateway.admission_us.p50",
            "gateway.admission_us.mean",
            column(&|r| Some(r.stages().admission_us)),
        ),
        (
            "gateway.journal_append_us.p50",
            "gateway.journal_append_us.mean",
            column(&journaled),
        ),
        (
            "gateway.queue_wait_us.p50",
            "gateway.queue_wait_us.mean",
            column(&|r| Some(r.stages().queue_wait_us)),
        ),
        (
            "gateway.batch_form_us.p50",
            "gateway.batch_form_us.mean",
            column(&|r| Some(r.stages().batch_form_us)),
        ),
        (
            "gateway.inference_us.p50",
            "gateway.inference_us.mean",
            column(&|r| Some(r.stages().inference_us)),
        ),
        (
            "gateway.resolve_us.p50",
            "gateway.resolve_us.mean",
            column(&|r| Some(r.stages().resolve_us)),
        ),
        (
            "gateway.client_wake_us.p50",
            "gateway.client_wake_us.mean",
            wake,
        ),
    ];
    let mut lines = Vec::new();
    let mut stage_sum = 0.0;
    for (p50_name, mean_name, values) in &table {
        let (p50, avg) = (median(values), mean(values));
        metrics.insert(*p50_name, p50);
        metrics.insert(*mean_name, avg);
        if *p50_name != "gateway.journal_append_us.p50" {
            // The journal append lies inside admission; the rest telescope.
            stage_sum += avg;
        }
        lines.push(format!(
            "    {:<28} p50 {p50:>9.1} us  mean {avg:>9.1} us  (n={})",
            mean_name.trim_end_matches(".mean"),
            values.len()
        ));
    }
    let client_mean = mean(
        &clients
            .iter()
            .map(ClientSample::latency_us)
            .collect::<Vec<_>>(),
    );
    metrics.insert("gateway.client_latency_us.mean", client_mean);
    metrics.insert("gateway.stage_coverage", stage_sum / client_mean);
    metrics.insert("gateway.traced_requests", records.len() as f64);
    lines.push(format!(
        "    stage means + client wake = {stage_sum:.1} us of a {client_mean:.1} us client mean (n={}): coverage {:.4}",
        clients.len(),
        stage_sum / client_mean
    ));
    Ok(lines.join("\n"))
}

fn gateway_counters(telemetry: &TelemetrySnapshot, metrics: &mut Metrics) {
    metrics.insert("gateway.batch_size_mean", telemetry.mean_batch_size);
    metrics.insert(
        "gateway.batch_fill",
        telemetry.mean_batch_size / GatewayConfig::default().max_batch as f64,
    );
    metrics.insert("gateway.rejected", telemetry.rejected as f64);
}

fn split_metrics(split: &TrainSplit, metrics: &mut Metrics) {
    metrics.insert("rl.collect_s", split.collect_s);
    metrics.insert("rl.gae_s", split.gae_s);
    metrics.insert("rl.update_s", split.update_s);
    metrics.insert("rl.transitions", split.transitions as f64);
    metrics.insert("rl.grad_steps", split.grad_steps as f64);
}

/// The single-layer rungs shared by every workload.
fn layer_rungs(
    policy: &SharedPolicy,
    actor: &vtm_nn::mlp::Mlp,
    service: ServiceConfig,
    stream: &[Vec<RequestFrame>],
    dir: &Path,
    metrics: &mut Metrics,
) -> Result<(), String> {
    let requests: Vec<QuoteRequest> = stream
        .iter()
        .flatten()
        .take(RUNG_REQUESTS)
        .map(|f| QuoteRequest::new(f.session, f.features.clone()))
        .collect();
    layers::serve(policy, service, &requests, metrics)?;
    layers::journal(policy, service, &requests, dir, metrics)?;
    let rows = layers::observation_rows(stream, service.history_length, RUNG_REQUESTS);
    layers::kernel(actor, &rows, metrics)?;
    let open = QuoteWorkload::Open;
    let sessions: Vec<u64> = stream
        .first()
        .map_or_else(Vec::new, |r| r.iter().map(|f| f.session).collect());
    layers::route(open.arms(), open.shards(), &sessions, metrics)
}

/// Max over arms of (max / mean) requests per shard, for the requests a
/// workload offers.
fn shard_skew(kind: QuoteWorkload, routes: &[usize], sessions: impl Iterator<Item = u64>) -> f64 {
    let shards = kind.shards();
    let mut counts = vec![0u64; kind.arms().len() * shards];
    for session in sessions {
        counts[routes[session as usize]] += 1;
    }
    counts
        .chunks(shards)
        .map(|arm| {
            let avg = arm.iter().sum::<u64>() as f64 / shards as f64;
            *arm.iter().max().unwrap_or(&0) as f64 / avg.max(1.0)
        })
        .fold(0.0, f64::max)
}

/// Quotes per second of a closed loop through a bare gateway with the
/// workload's configuration, with tracing off or on; books checked.
fn closed_qps(
    setup: &Setup,
    journal: Option<PathBuf>,
    tracing: bool,
    time: Duration,
) -> Result<(f64, ClosedRun, Started), String> {
    let started = start(setup, journal.as_deref(), tracing)?;
    let run = closed_loop(&started.gateway, &setup.stream, CLIENTS, time);
    Ok((run.completed() as f64 / run.elapsed_s, run, started))
}

/// The traced run of a quote workload.
///
/// # Errors
///
/// On a failed set-up or output check.
pub fn quote(ctx: &Ctx, kind: QuoteWorkload) -> Result<Outcome, String> {
    let setup = set_up(kind, ctx.seed)?;
    let routes = kind.routes()?;
    let mut metrics = Metrics::new();
    let mut notes = Vec::new();
    split_metrics(&setup.split, &mut metrics);
    let journal = |name: &str| kind.journaled().then(|| ctx.work.join(name));
    let (stage_time, overhead_time) = match kind {
        QuoteWorkload::Closed => (ctx.seconds / 2.0, ctx.seconds / 2.0),
        QuoteWorkload::Open => (ctx.seconds / 2.0, ctx.seconds / 4.0),
    };
    let overhead_time = Duration::from_secs_f64(overhead_time);

    let (untraced_qps, untraced, bare) =
        closed_qps(&setup, journal("untraced.vtmj"), false, overhead_time)?;
    books(&[bare.gateway.shutdown()], untraced.completed(), ctx.fault)?;
    let (traced_qps, traced, bare) =
        closed_qps(&setup, journal("traced-closed.vtmj"), true, overhead_time)?;
    let mut attempted = (untraced.all().count() + traced.all().count()) as u64;
    let mut answered = untraced.completed() + traced.completed();
    metrics.insert("gateway.trace_overhead", untraced_qps / traced_qps);

    let (table, telemetry, stats) = match kind {
        QuoteWorkload::Closed => {
            let records = bare.gateway.trace_records();
            let stats = bare.gateway.service().stats();
            let table = stages(
                &records,
                &closed_samples(&traced),
                (bare.before, bare.after),
                &mut metrics,
            )?;
            let telemetry = bare.gateway.shutdown();
            books(
                std::slice::from_ref(&telemetry),
                traced.completed(),
                ctx.fault,
            )?;
            let quotes = traced.all().filter_map(|s| {
                s.price
                    .map(|p| (&setup.stream[s.round as usize][s.session as usize], p))
            });
            reprice(&setup.policy, setup.service, quotes, ctx.fault)?;
            metrics.insert("loadgen.lag_p99_us", 0.0);
            let sessions = setup.stream.iter().flatten().map(|f| f.session);
            metrics.insert("fabric.shard_skew", shard_skew(kind, &routes, sessions));
            (table, telemetry, stats)
        }
        QuoteWorkload::Open => {
            books(&[bare.gateway.shutdown()], traced.completed(), ctx.fault)?;
            // One shard's share of the reference rate: the requests the
            // fabric routes to arm a, shard 0, at the times they are due.
            let frames: Vec<RequestFrame> = setup.stream.concat();
            let time = Duration::from_secs_f64(stage_time);
            let full = Schedule::fixed_rate(frames.len(), 0, ctx.reference, time, |_| true);
            let sessions = full.frames.iter().map(|&f| frames[f as usize].session);
            metrics.insert("fabric.shard_skew", shard_skew(kind, &routes, sessions));
            let mine = Schedule::fixed_rate(frames.len(), 0, ctx.reference, time, |f| {
                routes[frames[f].session as usize] == 0
            });
            let base = ctx.work.join("traced-open.vtmj");
            let bare = start(&setup, Some(&base), true)?;
            let run = open_loop(&bare.gateway, &frames, mine);
            let records = bare.gateway.trace_records();
            let stats = bare.gateway.service().stats();
            let digest = bare.gateway.service().state_digest();
            let samples: Vec<ClientSample> = run
                .offers
                .iter()
                .enumerate()
                .filter(|(_, o)| matches!(o.fate, Fate::Quoted(_)))
                .map(|(i, o)| ClientSample {
                    session: frames[run.schedule.frames[i] as usize].session,
                    sent: run.start + Duration::from_nanos(o.sent_ns),
                    received: run.start + Duration::from_nanos(o.received_ns),
                })
                .collect();
            let table = stages(&records, &samples, (bare.before, bare.after), &mut metrics)?;
            let telemetry = bare.gateway.shutdown();
            books(
                std::slice::from_ref(&telemetry),
                samples.len() as u64,
                ctx.fault,
            )?;
            journal_replay(&setup.policy, setup.service, &base, &[digest], ctx.fault)?;
            let quotes = run
                .offers
                .iter()
                .enumerate()
                .filter_map(|(i, o)| match o.fate {
                    Fate::Quoted(p) => Some((&frames[run.schedule.frames[i] as usize], p)),
                    _ => None,
                });
            reprice(&setup.policy, setup.service, quotes, ctx.fault)?;
            let mut lag: Vec<f64> = (0..run.offers.len()).map(|i| run.lag_us(i)).collect();
            let lag = Percentiles::of(&mut lag).ok_or("too few requests for the generator lag")?;
            notes.push(format!("  loadgen lag: {}", lag.describe("us")));
            metrics.insert("loadgen.lag_p99_us", lag.tail);
            attempted += run.offers.len() as u64;
            answered += samples.len() as u64;
            (table, telemetry, stats)
        }
    };
    gateway_counters(&telemetry, &mut metrics);
    metrics.insert("serve.session_evictions", stats.evicted as f64);
    metrics.insert("serve.sessions_live", stats.sessions as f64);
    let actor = &setup.snapshot.actor;
    layer_rungs(
        &setup.policy,
        actor,
        setup.service,
        &setup.stream,
        &ctx.work,
        &mut metrics,
    )?;
    let build = EnvBuildOptions {
        seed: ctx.seed,
        ..EnvBuildOptions::default()
    };
    let env = EnvRegistry::builtin()
        .build(PRESET, &build)
        .ok_or_else(|| format!("unknown preset {PRESET}"))?;
    layers::env_step(&env, &mut metrics)?;

    println!(
        "{} traced: bare gateway, 1 in {SAMPLE_EVERY} requests traced, {:.3} s",
        kind.name(),
        stage_time
    );
    println!("{table}");
    for note in &notes {
        println!("{note}");
    }
    println!(
        "  tracing overhead: {untraced_qps:.1} q/s untraced vs {traced_qps:.1} q/s traced (closed loop, {:.3} s each)",
        overhead_time.as_secs_f64()
    );
    print_layers(&metrics);
    Ok(Outcome {
        attempted,
        failed: attempted - answered,
        metrics,
    })
}

/// The traced run of `train`: the training loop driven by hand with each
/// step timed, checked bit-equal against `Trainer::run`, plus the
/// single-layer rungs on the trained policy.
///
/// # Errors
///
/// When the hand-driven loop differs from `Trainer::run`, or a rung fails.
pub fn train(ctx: &Ctx) -> Result<Outcome, String> {
    let config = train::config(ctx.seed);
    let (split, snapshot) = train::hand_run_matches_trainer(&config, ctx.fault)?;
    let mut metrics = Metrics::new();
    split_metrics(&split, &mut metrics);
    let policy = SharedPolicy::from_snapshot(&snapshot).map_err(|e| e.to_string())?;
    let registry = EnvRegistry::builtin();
    let build = EnvBuildOptions {
        seed: ctx.seed,
        ..EnvBuildOptions::default()
    };
    let stream = registry
        .request_stream(PRESET, &build, 64, RUNG_REQUESTS / 64)
        .ok_or_else(|| format!("unknown preset {PRESET}"))?;
    let features = stream[0][0].features.len();
    let service = ServiceConfig::new(config.drl.history_length, features);
    layer_rungs(
        &policy,
        &snapshot.actor,
        service,
        &stream,
        &ctx.work,
        &mut metrics,
    )?;
    let (env, _) = train::env_and_agent(&config);
    layers::env_step(&env, &mut metrics)?;
    // Layers the training workload never touches.
    for (name, _) in PER_LAYER {
        if name.starts_with("gateway.")
            || name.starts_with("loadgen.")
            || name.starts_with("serve.session")
            || *name == "fabric.shard_skew"
        {
            metrics.insert(*name, 0.0);
        }
    }
    println!(
        "train traced: {} episodes by hand, bit-equal to Trainer::run; collect {:.3} s, gae {:.3} s, update {:.3} s, {} transitions, {} gradient steps",
        train::EPISODES,
        split.collect_s,
        split.gae_s,
        split.update_s,
        split.transitions,
        split.grad_steps
    );
    print_layers(&metrics);
    Ok(Outcome {
        attempted: split.rounds,
        failed: 0,
        metrics,
    })
}

fn print_layers(metrics: &Metrics) {
    for (name, unit) in PER_LAYER {
        if let Some(value) = metrics.get(name) {
            println!("  {name:<36} {value:>14.3} {unit}");
        }
    }
}
