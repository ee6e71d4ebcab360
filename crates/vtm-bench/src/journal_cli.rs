//! The audit-journal lifecycle behind `experiments journal-demo` and
//! `experiments replay`.
//!
//! `journal-demo` records a deterministic gateway run into an append-only
//! request journal (plus periodic state snapshots) and prints the final
//! service-state digest. `replay` rebuilds the *same* policy (checkpoint or
//! the deterministic fixed-seed fallback), replays the journal — optionally
//! resuming from the latest snapshot — and checks the reconstructed state
//! digest against an expected value. Killing the demo mid-run (or truncating
//! the journal mid-frame) leaves a torn tail that replay recovers from: the
//! state is reconstructed up to the last complete frame.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use vtm_core::registry::{EnvBuildOptions, EnvRegistry};
use vtm_gateway::{Gateway, GatewayConfig};
use vtm_journal::{
    find_latest_snapshot, find_snapshots, replay_journal, JournalOptions, ReplayOptions,
    ReplayReport, ScanMode, StateSnapshot,
};
use vtm_serve::{PricingService, QuoteRequest, ServiceConfig};

use crate::results_dir;
use crate::serve_bench::resolve_snapshot;

/// Options of one `journal-demo` recording run.
#[derive(Debug, Clone)]
pub struct JournalDemoOptions {
    /// Registry preset the policy prices (decides the feature geometry and
    /// the request-stream dynamics).
    pub env: String,
    /// Optional checkpoint to load; when absent a policy is trained on the
    /// spot with a fixed seed, so `replay` can rebuild the identical policy.
    pub checkpoint: Option<PathBuf>,
    /// Episodes for the fallback on-the-spot training.
    pub train_episodes: usize,
    /// Journal path (snapshots land next to it as `<name>.snap.<frames>`).
    pub journal: PathBuf,
    /// Total requests to record.
    pub requests: usize,
    /// Distinct VMU sessions in the replayed stream.
    pub sessions: usize,
    /// Batch flush threshold.
    pub max_batch: usize,
    /// Journal fsync-less flush cadence (appends per `flush`).
    pub flush_every: u64,
    /// Snapshot cadence in processed frames (`0` = no periodic snapshots).
    pub snapshot_every: u64,
}

impl Default for JournalDemoOptions {
    fn default() -> Self {
        Self {
            env: "static".to_string(),
            checkpoint: None,
            train_episodes: 2,
            journal: results_dir().join("journal_demo.vtmj"),
            requests: 512,
            sessions: 32,
            max_batch: 16,
            flush_every: 8,
            snapshot_every: 128,
        }
    }
}

/// What one `journal-demo` run recorded.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalDemoResult {
    /// Preset name the stream came from.
    pub env: String,
    /// The journal that was written.
    pub journal: PathBuf,
    /// Frames appended (== requests admitted).
    pub frames: u64,
    /// Journal bytes written.
    pub bytes: u64,
    /// Periodic snapshots taken during the run.
    pub snapshots: u64,
    /// FNV-1a digest of the live service state after the run — the value
    /// `replay --expect-digest` reconstructs.
    pub state_digest: u64,
}

/// Which snapshot `replay` starts from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotChoice {
    /// Use the latest `<journal>.snap.<frames>` next to the journal, if any.
    Auto,
    /// Replay the whole journal from genesis.
    None,
    /// Load this exact snapshot file.
    Path(PathBuf),
}

/// Options of one `replay` invocation.
#[derive(Debug, Clone)]
pub struct ReplayCliOptions {
    /// Must match the recording run (policy geometry and fallback training).
    pub env: String,
    /// Must match the recording run's checkpoint (or absence thereof).
    pub checkpoint: Option<PathBuf>,
    /// Episodes for the fallback on-the-spot training (must match the demo).
    pub train_episodes: usize,
    /// Journal to replay.
    pub journal: PathBuf,
    /// Where to start from.
    pub snapshot: SnapshotChoice,
    /// Refuse torn tails instead of recovering to the last complete frame.
    pub strict: bool,
    /// When set, the reconstructed state digest must equal this value.
    pub expect_digest: Option<u64>,
}

impl Default for ReplayCliOptions {
    fn default() -> Self {
        Self {
            env: "static".to_string(),
            checkpoint: None,
            train_episodes: 2,
            journal: results_dir().join("journal_demo.vtmj"),
            snapshot: SnapshotChoice::Auto,
            strict: false,
            expect_digest: None,
        }
    }
}

/// What one `replay` invocation reconstructed.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayCliResult {
    /// The replay engine's report (frames applied, torn tail, digest).
    pub report: ReplayReport,
    /// Frame count of the snapshot that was restored, if any.
    pub snapshot_frames: Option<u64>,
    /// `Some(true/false)` when `expect_digest` was given.
    pub digest_matches: Option<bool>,
}

/// Builds the pricing service both the demo and the replay run on: same
/// policy resolution (checkpoint or fixed-seed fallback training) and same
/// geometry, so the snapshot fingerprint and state digests are comparable.
pub(crate) fn build_service(
    env: &str,
    checkpoint: Option<&std::path::Path>,
    train_episodes: usize,
) -> Result<PricingService, String> {
    let build = EnvBuildOptions::default();
    let registry = EnvRegistry::builtin();
    let features = registry
        .get(env)
        .ok_or_else(|| format!("unknown environment preset `{env}`"))?
        .features_per_round();
    let snapshot = resolve_snapshot(env, checkpoint, train_episodes, &build)?;
    PricingService::from_snapshot(
        &snapshot,
        ServiceConfig::new(build.history_length, features),
    )
    .map_err(|e| format!("cannot build service: {e}"))
}

/// Records a journaling gateway run over the preset's deterministic
/// request stream.
///
/// # Errors
///
/// Returns a human-readable message for unknown presets, unreadable
/// checkpoints, journal I/O failures or gateway errors.
pub fn run_journal_demo(opts: &JournalDemoOptions) -> Result<JournalDemoResult, String> {
    let build = EnvBuildOptions::default();
    let registry = EnvRegistry::builtin();
    let service = Arc::new(build_service(
        &opts.env,
        opts.checkpoint.as_deref(),
        opts.train_episodes,
    )?);
    let sessions = opts.sessions.max(1);
    let requests = opts.requests.max(1);
    let rounds = requests.div_ceil(sessions);
    let stream = registry
        .request_stream(&opts.env, &build, sessions, rounds)
        .ok_or_else(|| format!("unknown environment preset `{}`", opts.env))?;

    // A fresh recording: drop stale snapshots from previous demos so that
    // `replay --snapshot auto` cannot pick up a snapshot that claims more
    // frames than the new journal holds.
    for (_, path) in find_snapshots(&opts.journal) {
        std::fs::remove_file(&path)
            .map_err(|e| format!("cannot remove stale snapshot {}: {e}", path.display()))?;
    }

    let gateway = Gateway::try_start(
        Arc::clone(&service),
        GatewayConfig::default()
            .with_max_batch(opts.max_batch.max(1))
            .with_max_delay(Duration::from_micros(500))
            .with_journal(
                JournalOptions::new(&opts.journal)
                    .with_flush_every(opts.flush_every)
                    .with_snapshot_every(opts.snapshot_every),
            ),
    )
    .map_err(|e| e.to_string())?;
    // Sliding submission window: wait the oldest ticket once 256 are in
    // flight, so arbitrarily large --requests counts stay under the
    // gateway's admission bound instead of tripping Overloaded.
    let mut submitted = 0usize;
    let mut tickets = std::collections::VecDeque::with_capacity(256);
    'rounds: for round in &stream {
        for frame in round {
            if submitted == requests {
                break 'rounds;
            }
            let request = QuoteRequest::new(frame.session, frame.features.clone());
            tickets.push_back(gateway.submit(request).map_err(|e| e.to_string())?);
            submitted += 1;
            if tickets.len() >= 256 {
                let ticket = tickets.pop_front().expect("window is non-empty");
                ticket.wait().map_err(|e| e.to_string())?;
            }
        }
    }
    for ticket in tickets {
        ticket.wait().map_err(|e| e.to_string())?;
    }
    let stats = gateway.shutdown();
    Ok(JournalDemoResult {
        env: opts.env.clone(),
        journal: opts.journal.clone(),
        frames: stats.journal_frames,
        bytes: stats.journal_bytes,
        snapshots: stats.snapshots,
        state_digest: service.state_digest(),
    })
}

/// Replays a journal into a freshly built service and reports the
/// reconstructed state.
///
/// # Errors
///
/// Returns a human-readable message for unknown presets, unreadable
/// checkpoints or snapshots, corrupt journals (in `--strict` mode any torn
/// tail is corrupt) and policy/geometry mismatches.
pub fn run_replay(opts: &ReplayCliOptions) -> Result<ReplayCliResult, String> {
    let service = build_service(&opts.env, opts.checkpoint.as_deref(), opts.train_episodes)?;
    let (snapshot, snapshot_frames) = match &opts.snapshot {
        SnapshotChoice::None => (None, None),
        SnapshotChoice::Auto => match find_latest_snapshot(&opts.journal) {
            Some((frames, path)) => {
                let snap = StateSnapshot::load_from(&path)
                    .map_err(|e| format!("cannot load snapshot {}: {e}", path.display()))?;
                (Some(snap), Some(frames))
            }
            None => (None, None),
        },
        SnapshotChoice::Path(path) => {
            let snap = StateSnapshot::load_from(path)
                .map_err(|e| format!("cannot load snapshot {}: {e}", path.display()))?;
            let frames = snap.frames_applied;
            (Some(snap), Some(frames))
        }
    };
    let replay_options = ReplayOptions {
        mode: if opts.strict {
            ScanMode::Strict
        } else {
            ScanMode::RecoverTail
        },
        ..ReplayOptions::default()
    };
    let report = replay_journal(&service, &opts.journal, snapshot.as_ref(), &replay_options)
        .map_err(|e| format!("replay failed: {e}"))?;
    let digest_matches = opts.expect_digest.map(|want| want == report.state_digest);
    Ok(ReplayCliResult {
        report,
        snapshot_frames,
        digest_matches,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_journal(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("vtm_journal_cli_{tag}_{}.vtmj", std::process::id()))
    }

    fn cleanup(journal: &PathBuf) {
        for (_, path) in find_snapshots(journal) {
            let _ = std::fs::remove_file(path);
        }
        let _ = std::fs::remove_file(journal);
    }

    fn demo_opts(journal: &std::path::Path) -> JournalDemoOptions {
        JournalDemoOptions {
            journal: journal.to_path_buf(),
            requests: 60,
            sessions: 8,
            snapshot_every: 25,
            ..JournalDemoOptions::default()
        }
    }

    #[test]
    fn demo_then_replay_reconstructs_the_recorded_digest() {
        let journal = temp_journal("roundtrip");
        let demo = run_journal_demo(&demo_opts(&journal)).unwrap();
        assert_eq!(demo.frames, 60);
        assert!(demo.bytes > 0);
        assert!(demo.snapshots >= 1);

        // From genesis, from the latest snapshot, and in strict mode — all
        // must reconstruct the recorded digest (the journal is intact).
        for (snapshot, strict) in [
            (SnapshotChoice::None, false),
            (SnapshotChoice::Auto, false),
            (SnapshotChoice::None, true),
        ] {
            let replay = run_replay(&ReplayCliOptions {
                journal: journal.clone(),
                snapshot: snapshot.clone(),
                strict,
                expect_digest: Some(demo.state_digest),
                ..ReplayCliOptions::default()
            })
            .unwrap();
            assert_eq!(replay.report.state_digest, demo.state_digest);
            assert_eq!(replay.digest_matches, Some(true));
            assert_eq!(replay.report.truncated_tail, 0);
            if snapshot == SnapshotChoice::Auto {
                let frames = replay.snapshot_frames.unwrap();
                assert!(frames > 0);
                assert_eq!(replay.report.start_seq, frames);
            } else {
                assert_eq!(replay.report.frames_applied, 60);
            }
        }

        // A wrong expected digest is reported, not silently accepted.
        let mismatch = run_replay(&ReplayCliOptions {
            journal: journal.clone(),
            expect_digest: Some(demo.state_digest ^ 1),
            ..ReplayCliOptions::default()
        })
        .unwrap();
        assert_eq!(mismatch.digest_matches, Some(false));
        cleanup(&journal);
    }

    #[test]
    fn replay_recovers_a_torn_tail_after_a_simulated_crash() {
        let journal = temp_journal("torn");
        let demo = run_journal_demo(&demo_opts(&journal)).unwrap();

        // "Crash": chop 13 bytes off the last frame.
        let bytes = std::fs::read(&journal).unwrap();
        std::fs::write(&journal, &bytes[..bytes.len() - 13]).unwrap();

        let recovered = run_replay(&ReplayCliOptions {
            journal: journal.clone(),
            snapshot: SnapshotChoice::None,
            ..ReplayCliOptions::default()
        })
        .unwrap();
        assert_eq!(recovered.report.frames_applied, demo.frames - 1);
        assert!(recovered.report.truncated_tail > 0);
        assert_ne!(recovered.report.state_digest, demo.state_digest);

        // Strict mode refuses the torn tail instead.
        let strict = run_replay(&ReplayCliOptions {
            journal: journal.clone(),
            snapshot: SnapshotChoice::None,
            strict: true,
            ..ReplayCliOptions::default()
        });
        assert!(strict.unwrap_err().contains("replay failed"));
        cleanup(&journal);
    }

    #[test]
    fn unknown_presets_and_missing_journals_are_rejected() {
        let opts = JournalDemoOptions {
            env: "not-a-preset".to_string(),
            journal: temp_journal("bad_env"),
            ..JournalDemoOptions::default()
        };
        assert!(run_journal_demo(&opts).is_err());
        let replay = run_replay(&ReplayCliOptions {
            journal: temp_journal("does_not_exist"),
            ..ReplayCliOptions::default()
        });
        assert!(replay.unwrap_err().contains("replay failed"));
    }
}
