//! The chaos-injection harness behind `experiments chaos`.
//!
//! Each named plan arms a deterministic [`FaultPlan`] (fixed seed, fixed
//! fault indices derived from the request count), drives a journaling
//! gateway through the preset's request stream and checks two properties
//! besides the plan's exact fault counters:
//!
//! 1. **Liveness** — every obtained ticket resolves within a bounded wait;
//!    no `QuoteTicket::wait` hangs under any injected fault.
//! 2. **Replay equivalence** — replaying the plan's journal into a freshly
//!    built service reconstructs exactly the live service's state: a
//!    request that expired or whose pricing panicked still advanced its
//!    session, and a request whose append failed was never admitted.
//!
//! Violations are collected per plan (not panicked), so one run can report
//! every broken invariant; the `experiments chaos` subcommand exits non-zero
//! when any plan reports a violation.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use vtm_core::registry::{EnvBuildOptions, EnvRegistry};
use vtm_gateway::{FaultPlan, Gateway, GatewayConfig, TelemetrySnapshot};
use vtm_journal::{find_snapshots, replay_journal, JournalOptions, ReplayOptions, ScanMode};
use vtm_serve::QuoteRequest;

use crate::journal_cli::build_service;
use crate::results_dir;

/// Every named fault plan the harness can run, in presentation order.
pub const PLANS: &[&str] = &[
    "executor-panic",
    "journal-io",
    "deadline-storm",
    "slow-batch",
];

/// Options of one `experiments chaos` run.
#[derive(Debug, Clone)]
pub struct ChaosOptions {
    /// Registry preset whose request stream is replayed under faults.
    pub env: String,
    /// Optional checkpoint; absent means the deterministic fixed-seed
    /// fallback training (same resolution as `journal-demo`).
    pub checkpoint: Option<PathBuf>,
    /// Episodes for the fallback on-the-spot training.
    pub train_episodes: usize,
    /// Plans to run; empty means all of [`PLANS`].
    pub plans: Vec<String>,
    /// Requests per plan (fault indices scale with this count).
    pub requests: usize,
    /// Distinct VMU sessions in the stream.
    pub sessions: usize,
    /// Journal path stem (`<stem>.<plan>` per plan).
    pub journal: PathBuf,
    /// Liveness bound: a ticket that does not resolve within this wait is a
    /// violation.
    pub wait_timeout: Duration,
}

impl Default for ChaosOptions {
    fn default() -> Self {
        Self {
            env: "static".to_string(),
            checkpoint: None,
            train_episodes: 2,
            plans: Vec::new(),
            requests: 48,
            sessions: 8,
            journal: results_dir().join("chaos.vtmj"),
            wait_timeout: Duration::from_secs(30),
        }
    }
}

/// What one plan's run observed.
#[derive(Debug, Clone)]
pub struct ChaosPlanResult {
    /// Plan name.
    pub plan: String,
    /// Tickets obtained (submissions the gateway admitted).
    pub admitted: u64,
    /// Waits that returned a quote.
    pub quoted: u64,
    /// Waits that returned a typed error (still liveness-correct).
    pub errored: u64,
    /// Submissions rejected synchronously (overloaded, journal).
    pub rejected: u64,
    /// Final gateway telemetry.
    pub stats: TelemetrySnapshot,
    /// Whether replaying the plan's journal reproduced the live state.
    pub replay_equivalent: bool,
    /// Every broken invariant, human-readable. Empty means the plan passed.
    pub violations: Vec<String>,
}

impl ChaosPlanResult {
    /// Whether every invariant held.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// The deterministic request stream the plans replay: the preset's stream,
/// flattened and truncated to `requests` frames.
fn stream_requests(opts: &ChaosOptions) -> Result<Vec<QuoteRequest>, String> {
    let build = EnvBuildOptions::default();
    let sessions = opts.sessions.max(1);
    let requests = opts.requests.max(4);
    let rounds = requests.div_ceil(sessions);
    let stream = EnvRegistry::builtin()
        .request_stream(&opts.env, &build, sessions, rounds)
        .ok_or_else(|| format!("unknown environment preset `{}`", opts.env))?;
    let mut out = Vec::with_capacity(requests);
    'rounds: for round in &stream {
        for frame in round {
            if out.len() == requests {
                break 'rounds;
            }
            out.push(QuoteRequest::new(frame.session, frame.features.clone()));
        }
    }
    Ok(out)
}

/// The gateway configuration for one plan. Every plan journals to
/// `journal` and runs single-request batches, submitted one at a time, so
/// batch index N is exactly request N and the armed fault indices are
/// deterministic.
fn plan_config(plan: &str, total: u64, journal: &PathBuf) -> Result<GatewayConfig, String> {
    let config = GatewayConfig::default()
        .with_max_batch(1)
        .with_max_delay(Duration::from_micros(100))
        .with_journal(
            JournalOptions::new(journal)
                .with_flush_every(4)
                .with_snapshot_every(0),
        );
    Ok(match plan {
        "executor-panic" => config.with_faults(FaultPlan::new(11).with_executor_panic(total / 2)),
        // Two transient append errors, far enough apart that each heals with
        // exactly one retry.
        "journal-io" => config
            .with_journal_retries(2)
            .with_journal_backoff(Duration::from_micros(200))
            .with_faults(
                FaultPlan::new(12)
                    .with_journal_error(total / 3, std::io::ErrorKind::Interrupted)
                    .with_journal_error(2 * total / 3, std::io::ErrorKind::WouldBlock),
            ),
        "deadline-storm" => config.with_default_deadline(Duration::ZERO),
        "slow-batch" => config.with_faults(
            FaultPlan::new(14).with_batch_delay(Duration::from_millis(5), (total / 4).max(1)),
        ),
        other => {
            return Err(format!(
                "unknown chaos plan `{other}` (known: {})",
                PLANS.join(", ")
            ))
        }
    })
}

fn cleanup_journal(path: &PathBuf) {
    for (_, snap) in find_snapshots(path) {
        let _ = std::fs::remove_file(snap);
    }
    let _ = std::fs::remove_file(path);
}

/// Runs one named plan end to end.
fn run_plan(plan: &str, opts: &ChaosOptions) -> Result<ChaosPlanResult, String> {
    let requests = stream_requests(opts)?;
    let total = requests.len() as u64;
    let mut name = opts
        .journal
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "chaos.vtmj".to_string());
    name.push('.');
    name.push_str(plan);
    let journal_path = opts.journal.with_file_name(name);
    cleanup_journal(&journal_path);
    let config = plan_config(plan, total, &journal_path)?;
    let service = Arc::new(build_service(
        &opts.env,
        opts.checkpoint.as_deref(),
        opts.train_episodes,
    )?);
    let gateway = Gateway::try_start(Arc::clone(&service), config).map_err(|e| e.to_string())?;

    let mut violations = Vec::new();
    let (mut admitted, mut quoted, mut errored, mut rejected) = (0u64, 0u64, 0u64, 0u64);
    for (i, request) in requests.iter().enumerate() {
        match gateway.submit(request.clone()) {
            Ok(ticket) => {
                admitted += 1;
                match ticket.wait_timeout(opts.wait_timeout) {
                    Some(Ok(_)) => quoted += 1,
                    Some(Err(_)) => errored += 1,
                    None => violations.push(format!(
                        "liveness: ticket {i} did not resolve within {:?}",
                        opts.wait_timeout
                    )),
                }
            }
            Err(_) => rejected += 1,
        }
    }
    let stats = gateway.shutdown();

    // Structural accounting that must hold under every plan.
    if admitted != quoted + errored + (violations.len() as u64) {
        violations.push(format!(
            "accounting: {admitted} admitted but {quoted} quoted + {errored} errored"
        ));
    }
    if stats.queue_depth != 0 {
        violations.push(format!(
            "accounting: {} requests still in flight after shutdown",
            stats.queue_depth
        ));
    }

    // Plan-specific counters.
    match plan {
        "executor-panic" => {
            if stats.panics != 1 {
                violations.push(format!(
                    "isolation: expected 1 caught panic, got {}",
                    stats.panics
                ));
            }
            if stats.completed != total - 1 || errored != 1 {
                violations.push(format!(
                    "isolation: the panic must fail exactly its own ticket \
                     ({} completed of {total}, {errored} errored)",
                    stats.completed
                ));
            }
        }
        "journal-io" => {
            if stats.journal_retries != 2 {
                violations.push(format!(
                    "journal: expected 2 healed retries, got {}",
                    stats.journal_retries
                ));
            }
            if stats.journal_frames != total || stats.completed != total {
                violations.push(format!(
                    "journal: retries must not lose frames ({} frames, {} completed of {total})",
                    stats.journal_frames, stats.completed
                ));
            }
        }
        "deadline-storm" if stats.expired != total || stats.completed != 0 => {
            violations.push(format!(
                "deadlines: every request must expire unpriced \
                 ({} expired, {} completed of {total})",
                stats.expired, stats.completed
            ));
        }
        "slow-batch" => {
            if stats.completed != total {
                violations.push(format!(
                    "slow batches must still complete ({} of {total})",
                    stats.completed
                ));
            }
            if stats.latency.max_us < 5_000 {
                violations.push(format!(
                    "injected 5ms batch delay not visible in latency (max {} us)",
                    stats.latency.max_us
                ));
            }
        }
        _ => {}
    }

    // Replay equivalence: the journal alone reproduces the live state,
    // whatever the plan injected.
    let report = replay_journal(
        &build_service(&opts.env, opts.checkpoint.as_deref(), opts.train_episodes)?,
        &journal_path,
        None,
        &ReplayOptions {
            mode: ScanMode::RecoverTail,
            ..ReplayOptions::default()
        },
    )
    .map_err(|e| format!("replay failed: {e}"))?;
    cleanup_journal(&journal_path);
    let replay_equivalent = report.state_digest == service.state_digest();
    if !replay_equivalent {
        violations.push(format!(
            "replay: journal digest 0x{:016x} != live digest 0x{:016x}",
            report.state_digest,
            service.state_digest()
        ));
    }

    Ok(ChaosPlanResult {
        plan: plan.to_string(),
        admitted,
        quoted,
        errored,
        rejected,
        stats,
        replay_equivalent,
        violations,
    })
}

/// Runs the selected plans (all of [`PLANS`] when none are named) and
/// returns one result per plan, in order.
///
/// # Errors
///
/// Returns a human-readable message for unknown presets or plans,
/// unreadable checkpoints and journal I/O failures. Invariant *violations*
/// are not errors — they are collected per plan so a single run reports all
/// of them.
pub fn run_chaos(opts: &ChaosOptions) -> Result<Vec<ChaosPlanResult>, String> {
    let plans: Vec<String> = if opts.plans.is_empty() {
        PLANS.iter().map(|p| p.to_string()).collect()
    } else {
        opts.plans.clone()
    };
    plans.iter().map(|plan| run_plan(plan, opts)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(tag: &str) -> ChaosOptions {
        ChaosOptions {
            requests: 12,
            journal: std::env::temp_dir()
                .join(format!("vtm_chaos_{tag}_{}.vtmj", std::process::id())),
            ..ChaosOptions::default()
        }
    }

    #[test]
    fn deadline_storm_plan_passes_its_invariants() {
        let mut o = opts("storm");
        o.plans = vec!["deadline-storm".to_string()];
        let results = run_chaos(&o).unwrap();
        assert_eq!(results.len(), 1);
        assert!(
            results[0].passed(),
            "violations: {:?}",
            results[0].violations
        );
        assert_eq!(results[0].stats.expired, 12);
        assert!(results[0].replay_equivalent);
    }

    #[test]
    fn unknown_plans_and_presets_are_rejected() {
        let mut o = opts("bad");
        o.plans = vec!["not-a-plan".to_string()];
        assert!(run_chaos(&o).unwrap_err().contains("unknown chaos plan"));
        let mut o = opts("bad_env");
        o.env = "not-a-preset".to_string();
        o.plans = vec!["deadline-storm".to_string()];
        assert!(run_chaos(&o).is_err());
    }
}
