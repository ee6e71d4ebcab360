//! The quote workloads, measured end to end through the fabric.
//!
//! * `quote-closed` — two closed-loop clients, a 1-shard fabric with one
//!   arm, 64 resident sessions, the default gateway configuration, f64, no
//!   journal. Latency here is the flush timer and the thread hand-offs.
//! * `quote-open` — one generator offering a fixed ladder of absolute
//!   rates to a 2-shard fabric with arms `a=90,b=10` and per-shard
//!   journals; 4096 sessions against a smaller session capacity, so the
//!   session store evicts. Batches fill, so inference, journal appends,
//!   routing and eviction dominate.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use vtm_core::config::ExperimentConfig;
use vtm_core::registry::{EnvBuildOptions, EnvRegistry, RequestFrame};
use vtm_core::stackelberg::AotmStackelbergGame;
use vtm_fabric::{ArmSpec, Fabric, FabricConfig};
use vtm_gateway::{GatewayConfig, TelemetrySnapshot};
use vtm_journal::{tagged_journal_path, JournalOptions};
use vtm_rl::snapshot::PolicySnapshot;
use vtm_serve::{ServiceConfig, SharedPolicy};

use crate::checks::{books, journal_replay, reprice};
use crate::drive::{closed_loop, open_loop, Fate, OpenRun, Schedule, Served};
use crate::policy::{serving_policy, TrainSplit, PRESET};
use crate::report::{peak_rss_mb, Outcome};
use crate::stats::{
    backlog_growing, beyond, quiet_high, quiet_low, segment_bounds, segments, sustained_rate,
    Percentiles, RungOutcome, RungSegment, SEGMENTS, SEGMENT_SAMPLES,
};
use crate::Ctx;

/// Closed-loop clients (one per core of the reference machine).
pub const CLIENTS: usize = 2;

/// The tail-latency limit of a sustained rung, µs.
pub const TAIL_LIMIT_US: f64 = 5_000.0;

/// Set-ups per run; `setup_s` is their quiet quarter.
pub const SETUPS: usize = 9;

/// In-flight requests each open-loop gateway admits. Deep enough that a
/// host stall of a second or two at the ladder's rates delays requests
/// instead of refusing them, so every offered request is answered.
pub const OPEN_QUEUE_CAPACITY: usize = 1 << 16;

/// In-flight depth per gateway that a healthy rung may reach while its
/// batches form ([`backlog_growing`]'s floor).
pub const BACKLOG_FLOOR_PER_GATEWAY: f64 = 256.0;

/// Which quote workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuoteWorkload {
    /// Closed loop through a 1-shard fabric.
    Closed,
    /// Open-loop rate ladder through a 2-shard, 2-arm journaled fabric.
    Open,
}

impl QuoteWorkload {
    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            QuoteWorkload::Closed => "quote-closed",
            QuoteWorkload::Open => "quote-open",
        }
    }

    /// Sessions in the request stream.
    pub fn sessions(self) -> usize {
        match self {
            QuoteWorkload::Closed => 64,
            QuoteWorkload::Open => 4096,
        }
    }

    /// Rounds in the request stream (the drivers cycle through it).
    pub fn rounds(self) -> usize {
        match self {
            QuoteWorkload::Closed => 32,
            QuoteWorkload::Open => 16,
        }
    }

    /// Gateway shards per arm.
    pub fn shards(self) -> usize {
        match self {
            QuoteWorkload::Closed => 1,
            QuoteWorkload::Open => 2,
        }
    }

    /// The policy arms.
    pub fn arms(self) -> Vec<ArmSpec> {
        match self {
            QuoteWorkload::Closed => vec![ArmSpec::new("a", 100)],
            QuoteWorkload::Open => vec![ArmSpec::new("a", 90), ArmSpec::new("b", 10)],
        }
    }

    /// The per-gateway service: unbounded sessions for the closed loop;
    /// 64 per store shard (1024 per gateway) for the open loop, fewer than
    /// the sessions its busiest gateway serves.
    pub fn service(self, features: usize) -> ServiceConfig {
        let service = ServiceConfig::new(EnvBuildOptions::default().history_length, features);
        match self {
            QuoteWorkload::Closed => service,
            QuoteWorkload::Open => service.with_session_capacity(64),
        }
    }

    /// Whether every shard journals its admissions.
    pub fn journaled(self) -> bool {
        self == QuoteWorkload::Open
    }

    /// The per-gateway configuration: the default, with an
    /// [`OPEN_QUEUE_CAPACITY`]-deep admission queue for the open loop.
    pub fn gateway_config(self) -> GatewayConfig {
        match self {
            QuoteWorkload::Closed => GatewayConfig::default(),
            QuoteWorkload::Open => {
                GatewayConfig::default().with_queue_capacity(OPEN_QUEUE_CAPACITY)
            }
        }
    }

    /// The fabric configuration; `journal` is the journal base path when
    /// the workload journals.
    pub fn fabric_config(self, service: ServiceConfig, journal: Option<&Path>) -> FabricConfig {
        let config = FabricConfig::new(self.shards(), service)
            .with_arms(self.arms())
            .with_gateway(self.gateway_config());
        match journal {
            Some(base) => config.with_journal(JournalOptions::new(base)),
            None => config,
        }
    }

    /// The gateway index (`arm * shards + shard`) serving each session.
    pub fn routes(self) -> Result<Vec<usize>, String> {
        let table = vtm_fabric::ArmTable::new(self.arms()).map_err(|e| e.to_string())?;
        Ok((0..self.sessions() as u64)
            .map(|s| {
                table.arm_of(s) * self.shards() + vtm_core::routing::session_shard(s, self.shards())
            })
            .collect())
    }
}

/// What a quote workload prepares before it measures.
pub struct Setup {
    /// The serving policy as trained.
    pub snapshot: PolicySnapshot,
    /// The frozen serving policy.
    pub policy: SharedPolicy,
    /// Where training the serving policy spent its time.
    pub split: TrainSplit,
    /// The request stream, `[round][session]`.
    pub stream: Vec<Vec<RequestFrame>>,
    /// The per-gateway service configuration.
    pub service: ServiceConfig,
    /// The per-gateway configuration ([`QuoteWorkload::gateway_config`]).
    pub gateway: GatewayConfig,
}

/// Resolves the serving policy and generates the workload's request
/// stream from `seed`.
///
/// # Errors
///
/// When the preset is unknown or the policy does not validate.
pub fn set_up(kind: QuoteWorkload, seed: u64) -> Result<Setup, String> {
    let (snapshot, split) = serving_policy()?;
    let policy = SharedPolicy::from_snapshot(&snapshot).map_err(|e| e.to_string())?;
    let registry = EnvRegistry::builtin();
    let features = registry
        .get(PRESET)
        .ok_or_else(|| format!("unknown preset {PRESET}"))?
        .features_per_round();
    let build = EnvBuildOptions {
        seed,
        ..EnvBuildOptions::default()
    };
    let stream = registry
        .request_stream(PRESET, &build, kind.sessions(), kind.rounds())
        .ok_or_else(|| format!("unknown preset {PRESET}"))?;
    Ok(Setup {
        snapshot,
        policy,
        split,
        stream,
        service: kind.service(features),
        gateway: kind.gateway_config(),
    })
}

/// Sets the workload up [`SETUPS`] times (policy, stream, fabric) and
/// keeps the last; returns it with its journal base and the quiet-quarter
/// set-up time in seconds.
fn timed_setups(ctx: &Ctx, kind: QuoteWorkload) -> Result<(Setup, Fabric, PathBuf, f64), String> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut kept = None;
    for k in 0..SETUPS {
        let base = ctx.work.join(format!("setup{k}.vtmj"));
        let t = Instant::now();
        let setup = set_up(kind, ctx.seed)?;
        let config = kind.fabric_config(setup.service, kind.journaled().then_some(base.as_path()));
        let fabric = Fabric::start_shared(&setup.policy, config).map_err(|e| e.to_string())?;
        times.push(t.elapsed().as_secs_f64());
        if let Some((_, old, _)) = kept.replace((setup, fabric, base)) {
            Fabric::shutdown(&old);
        }
    }
    let (setup, fabric, base) = kept.expect("at least one set-up");
    Ok((setup, fabric, base, quiet_low(&times)))
}

/// Mean MSP utility of the quoted prices over the closed-form Stackelberg
/// utility of the paper's two-VMU market.
pub fn quote_quality(prices: impl Iterator<Item = f64>) -> f64 {
    let game = AotmStackelbergGame::from_config(&ExperimentConfig::paper_two_vmus());
    let equilibrium = game.closed_form_equilibrium().msp_utility;
    let (sum, n) = prices.fold((0.0, 0u64), |(sum, n), p| {
        (sum + game.msp_utility_at(p), n + 1)
    });
    sum / n.max(1) as f64 / equilibrium
}

/// Segment percentiles ([`segments`]) whose tail is p99.
///
/// # Errors
///
/// When there are fewer than 1000 samples, so p99 would have fewer than
/// 10 samples beyond it.
pub fn p99_segments(series: &[f64], what: &str) -> Result<Vec<Percentiles>, String> {
    match segments(series) {
        Some(segments) if segments.iter().all(|s| s.tail_level >= 0.99) => Ok(segments),
        _ => Err(format!(
            "{what}: {} samples are too few for a p99 with 10 beyond it",
            series.len()
        )),
    }
}

fn telemetry_of(fabric: &Fabric) -> Vec<TelemetrySnapshot> {
    fabric
        .shutdown()
        .gateways
        .into_iter()
        .map(|g| g.telemetry)
        .collect()
}

/// `quote-closed`, end to end.
///
/// # Errors
///
/// On a failed set-up or output check.
pub fn closed(ctx: &Ctx) -> Result<Outcome, String> {
    let kind = QuoteWorkload::Closed;
    let (setup, fabric, _, setup_s) = timed_setups(ctx, kind)?;
    let run = closed_loop(
        &fabric,
        &setup.stream,
        CLIENTS,
        Duration::from_secs_f64(ctx.seconds),
    );
    books(&telemetry_of(&fabric), run.completed(), ctx.fault)?;
    // Sessions are never evicted here and each belongs to one client, so
    // each client's own order is each session's order.
    let quotes = run.all().filter_map(|s| {
        s.price
            .map(|p| (&setup.stream[s.round as usize][s.session as usize], p))
    });
    let checked = reprice(&setup.policy, setup.service, quotes, ctx.fault)?;

    let attempted = run.all().count() as u64;
    let completed = run.completed();
    let mut in_order: Vec<&Served> = run.all().collect();
    in_order.sort_by_key(|s| s.sent);
    let series: Vec<f64> = in_order.iter().map(|s| s.latency_us()).collect();
    let latency = p99_segments(&series, "quote-closed latency")?;
    let p50 = quiet_low(&latency.iter().map(|s| s.p50).collect::<Vec<_>>());
    let p90 = quiet_low(&latency.iter().map(|s| s.p90).collect::<Vec<_>>());
    let tail = quiet_low(&latency.iter().map(|s| s.tail).collect::<Vec<_>>());
    let rates: Vec<f64> = segment_bounds(in_order.len(), SEGMENT_SAMPLES, SEGMENTS)
        .into_iter()
        .map(|range| {
            let segment = &in_order[range];
            let span = segment[segment.len() - 1].received - segment[0].sent;
            segment.iter().filter(|s| s.price.is_some()).count() as f64 / span.as_secs_f64()
        })
        .collect();
    let quotes_per_s = quiet_high(&rates);
    println!("quote-closed: {CLIENTS} clients, 1 shard, arm a=100, 64 sessions, f64, no journal");
    println!(
        "  quotes_per_s {quotes_per_s:.1} in the quiet quarter of {} segments ({completed} quotes in {:.3} s)",
        rates.len(),
        run.elapsed_s
    );
    println!(
        "  latency send->reply, quiet quarter of {} segments: p50 {p50:.1} us, p90 {p90:.1} us, p99 {tail:.1} us (n={} per segment, {} beyond p99)",
        latency.len(),
        latency[0].samples,
        beyond(latency[0].samples, latency[0].tail_level)
    );
    println!(
        "  failed_share {:.6}; re-priced {checked} quotes bit-equal; books balance",
        (attempted - completed) as f64 / attempted.max(1) as f64
    );
    let mut outcome = Outcome {
        attempted,
        failed: attempted - completed,
        ..Outcome::default()
    };
    let m = &mut outcome.metrics;
    m.insert("throughput_per_s", quotes_per_s);
    m.insert("latency_p50_us", p50);
    m.insert("latency_p90_us", p90);
    m.insert("ok_share", completed as f64 / attempted.max(1) as f64);
    m.insert(
        "equilibrium_ratio",
        quote_quality(run.all().filter_map(|s| s.price)),
    );
    m.insert("setup_s", setup_s);
    m.insert("peak_rss_mb", peak_rss_mb()?);
    Ok(outcome)
}

/// The rung outcome of one open-loop run at `rate_qps`, with latency from
/// due time summarised per segment ([`segments`]).
pub fn rung_outcome(
    run: &OpenRun,
    rate_qps: f64,
    backlog_floor: f64,
) -> Result<RungOutcome, String> {
    let series: Vec<f64> = (0..run.offers.len())
        .map(|i| run.latency_from_due_us(i))
        .collect();
    let latencies = p99_segments(&series, &format!("rung {rate_qps} q/s"))?;
    let bounds = segment_bounds(series.len(), SEGMENT_SAMPLES, SEGMENTS);
    let segments = latencies
        .into_iter()
        .zip(bounds)
        .map(|(latency, range)| RungSegment {
            latency,
            missing: run.offers[range]
                .iter()
                .filter(|o| !matches!(o.fate, Fate::Quoted(_)))
                .count() as u64,
        })
        .collect();
    Ok(RungOutcome {
        rate_qps,
        attempted: run.offers.len() as u64,
        rejected: run.rejected(),
        failed: run.failed(),
        segments,
        backlog_growing: backlog_growing(&run.depths, backlog_floor),
    })
}

/// `quote-open`, end to end.
///
/// # Errors
///
/// On a failed set-up or output check, or when the reference rung has too
/// few answers for its percentiles.
pub fn open(ctx: &Ctx) -> Result<Outcome, String> {
    let kind = QuoteWorkload::Open;
    let (setup, fabric, base, setup_s) = timed_setups(ctx, kind)?;
    let frames: Vec<RequestFrame> = setup.stream.concat();
    let routes = kind.routes()?;
    let rung_time = Duration::from_secs_f64(ctx.seconds / ctx.ladder.len() as f64);
    let mut runs = Vec::with_capacity(ctx.ladder.len());
    let mut first = 0;
    for &rate in &ctx.ladder {
        let schedule = Schedule::fixed_rate(frames.len(), first, rate, rung_time, |_| true);
        first += schedule.len();
        runs.push(open_loop(&fabric, &frames, schedule));
    }
    // Every ticket has been answered, so the live state is final.
    let live: Vec<(String, Vec<u64>)> = kind
        .arms()
        .into_iter()
        .map(|arm| {
            let digests = fabric.shard_digests(&arm.name).unwrap_or_default();
            (arm.name, digests)
        })
        .collect();
    let telemetry = telemetry_of(&fabric);
    let quoted = |run: &OpenRun| {
        run.offers
            .iter()
            .filter(|o| matches!(o.fate, Fate::Quoted(_)))
            .count() as u64
    };
    books(&telemetry, runs.iter().map(quoted).sum(), ctx.fault)?;
    let refused: u64 = telemetry.iter().map(|t| t.rejected).sum();
    if refused != runs.iter().map(OpenRun::rejected).sum::<u64>() {
        return Err(format!(
            "gateways refused {refused} requests, the generator saw a different count"
        ));
    }
    // The checks are independent: replay each arm's journals and
    // re-price each gateway's quotes concurrently.
    let (frames, routes, runs) = (&frames, &routes, &runs);
    let (setup_ref, base, fault) = (&setup, &base, ctx.fault);
    let (replayed, checked) = std::thread::scope(|scope| {
        let replays: Vec<_> = live
            .iter()
            .map(|(arm, digests)| {
                scope.spawn(move || {
                    let arm_base = tagged_journal_path(base, &format!("{arm}-g0"));
                    journal_replay(
                        &setup_ref.policy,
                        setup_ref.service,
                        &arm_base,
                        digests,
                        fault,
                    )
                })
            })
            .collect();
        let reprices: Vec<_> = (0..kind.arms().len() * kind.shards())
            .map(|gateway| {
                scope.spawn(move || {
                    let quotes = runs.iter().flat_map(|run| {
                        run.offers.iter().enumerate().filter_map(move |(i, offer)| {
                            let frame = &frames[run.schedule.frames[i] as usize];
                            match offer.fate {
                                Fate::Quoted(price)
                                    if routes[frame.session as usize] == gateway =>
                                {
                                    Some((frame, price))
                                }
                                _ => None,
                            }
                        })
                    });
                    reprice(&setup_ref.policy, setup_ref.service, quotes, fault)
                })
            })
            .collect();
        let total = |handles: Vec<std::thread::ScopedJoinHandle<'_, Result<u64, String>>>| {
            handles
                .into_iter()
                .map(|h| h.join().expect("check thread panicked"))
                .sum::<Result<u64, String>>()
        };
        (total(replays), total(reprices))
    });
    let (replayed, checked) = (replayed?, checked?);

    let backlog_floor = telemetry.len() as f64 * BACKLOG_FLOOR_PER_GATEWAY;
    let rungs = runs
        .iter()
        .zip(&ctx.ladder)
        .map(|(run, &rate)| rung_outcome(run, rate, backlog_floor))
        .collect::<Result<Vec<_>, _>>()?;
    let reference = ctx
        .ladder
        .iter()
        .position(|&r| r == ctx.reference)
        .ok_or("the reference rate is not a rung of the ladder")?;
    println!(
        "quote-open: ladder {:?} q/s, {:.3} s per rung; 2 shards x arms a=90,b=10, 4096 sessions, journaled",
        ctx.ladder,
        rung_time.as_secs_f64()
    );
    for (rung, run) in rungs.iter().zip(runs) {
        let mut lag: Vec<f64> = (0..run.offers.len()).map(|i| run.lag_us(i)).collect();
        let lag = Percentiles::of(&mut lag).ok_or("empty rung")?;
        let segment = &rung.segments[0].latency;
        println!(
            "  {:>8.0} q/s: attempted {} rejected {} failed {}; from due, quiet quarter of {} segments: p50 {:.1} us, p90 {:.1} us, {} {:.1} us (n={} per segment, {} beyond); backlog {}; loadgen lag {}; {}",
            rung.rate_qps,
            rung.attempted,
            rung.rejected,
            rung.failed,
            rung.segments.len(),
            rung.p50_us(),
            rung.p90_us(),
            segment.tail_name(),
            rung.tail_us(),
            segment.samples,
            beyond(segment.samples, segment.tail_level),
            if rung.backlog_growing { "growing" } else { "steady" },
            lag.describe("us"),
            if rung.meets(TAIL_LIMIT_US) { "sustained" } else { "not sustained" },
        );
    }
    let sustained =
        sustained_rate(&rungs, TAIL_LIMIT_US).ok_or("no rung of the ladder was sustained")?;
    // The quotes the sustained rung completed per second, from its start
    // to its last answer: the rung's rate as measured.
    let top = &runs[ctx
        .ladder
        .iter()
        .position(|&r| r == sustained)
        .expect("a ladder rate")];
    let answered_s = top.offers.iter().map(|o| o.received_ns).max().unwrap_or(0) as f64 / 1e9;
    let sustained_qps = quoted(top) as f64 / answered_s.max(rung_time.as_secs_f64());
    let at_ref = &rungs[reference];
    if !at_ref.tail_us().is_finite() {
        return Err(format!(
            "more than 1% of the reference rung failed or was refused ({} of {})",
            at_ref.rejected + at_ref.failed,
            at_ref.attempted
        ));
    }
    let attempted: u64 = rungs.iter().map(|r| r.attempted).sum();
    let failed: u64 = rungs.iter().map(|r| r.rejected + r.failed).sum();
    let ok_share = quoted(&runs[reference]) as f64 / at_ref.attempted.max(1) as f64;
    println!(
        "  sustained_qps {sustained_qps:.1} (rung {sustained}); failed_share {:.6} at the reference rate; re-priced {checked} quotes bit-equal; replayed {replayed} journal frames to the live digests; books balance",
        1.0 - ok_share
    );
    let mut outcome = Outcome {
        attempted,
        failed,
        ..Outcome::default()
    };
    let m = &mut outcome.metrics;
    m.insert("throughput_per_s", sustained_qps);
    m.insert("latency_p50_us", at_ref.p50_us());
    m.insert("latency_p90_us", at_ref.p90_us());
    m.insert("ok_share", ok_share);
    // Prices up to the reference rung, where nothing is refused, depend
    // only on the seed.
    let prices = runs
        .iter()
        .zip(&ctx.ladder)
        .filter(|(_, &rate)| rate <= ctx.reference)
        .flat_map(|(run, _)| run.offers.iter())
        .filter_map(|o| match o.fate {
            Fate::Quoted(p) => Some(p),
            _ => None,
        });
    m.insert("equilibrium_ratio", quote_quality(prices));
    m.insert("setup_s", setup_s);
    m.insert("peak_rss_mb", peak_rss_mb()?);
    Ok(outcome)
}
