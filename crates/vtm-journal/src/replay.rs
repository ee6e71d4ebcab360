//! The replay engine: reconstructs service state from a snapshot plus a
//! journal suffix.

use std::path::Path;

use vtm_serve::{PricingService, QuoteRequest};

use crate::error::JournalError;
use crate::journal::{scan_journal, JournalFrame, ScanMode};
use crate::snapshot::StateSnapshot;

/// Knobs for [`replay_journal`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplayOptions {
    /// Requests re-quoted per [`PricingService::quote_batch`] call. Batch
    /// slicing is state-invariant (the store's logical clocks advance per
    /// request, not per batch), so any chunk size reconstructs identical
    /// state — bigger chunks just replay faster.
    pub chunk: usize,
    /// How to treat a torn trailing frame (crash artifact vs corruption).
    pub mode: ScanMode,
}

impl Default for ReplayOptions {
    fn default() -> Self {
        Self {
            chunk: 256,
            mode: ScanMode::RecoverTail,
        }
    }
}

/// What a replay did, including the digest that pins byte-identical state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplayReport {
    /// Complete frames found in the journal.
    pub total_frames: u64,
    /// The first sequence number re-quoted (frames before it were covered
    /// by the snapshot).
    pub start_seq: u64,
    /// Frames actually re-quoted (`total_frames - start_seq`).
    pub frames_applied: u64,
    /// Bytes of torn partial frame dropped at the journal tail
    /// (only in [`ScanMode::RecoverTail`]).
    pub truncated_tail: u64,
    /// [`PricingService::state_digest`] after the replay finished.
    pub state_digest: u64,
}

/// Re-quotes the scanned frames with `seq >= start_seq` against `service`
/// in `chunk`-sized batches, returning how many were applied. This is the
/// core replay step once frames are already in memory; most callers want
/// [`replay_journal`].
///
/// # Errors
///
/// Returns [`JournalError::Serve`] when a re-quoted request is rejected by
/// the serving layer (e.g. a feature block whose width does not match the
/// replaying service's configuration).
pub fn replay_frames(
    service: &PricingService,
    frames: &[JournalFrame],
    start_seq: u64,
    chunk: usize,
) -> Result<u64, JournalError> {
    let skip = usize::try_from(start_seq)
        .unwrap_or(usize::MAX)
        .min(frames.len());
    let suffix = &frames[skip..];
    let chunk = chunk.max(1);
    for batch in suffix.chunks(chunk) {
        let requests: Vec<QuoteRequest> = batch.iter().map(|f| f.request.clone()).collect();
        service.quote_batch(&requests)?;
    }
    Ok(suffix.len() as u64)
}

/// Reconstructs service state from a journal: scans and validates every
/// frame, optionally restores a [`StateSnapshot`] (validated against the
/// service's policy fingerprint, geometry and the journal length), then
/// re-quotes the journal suffix in admission order.
///
/// Because the serving layer is deterministic and batch-slicing invariant,
/// the resulting state is *byte-identical* to the state the original
/// process held after admitting the same prefix — the returned
/// [`ReplayReport::state_digest`] is the witness.
///
/// With `snapshot = None` the journal is replayed from the beginning; the
/// caller should pass a freshly built service (replay applies *on top of*
/// whatever state the service holds).
///
/// # Errors
///
/// Returns the scan's typed errors for journal corruption, the snapshot's
/// validation errors ([`JournalError::PolicyMismatch`],
/// [`JournalError::GeometryMismatch`]),
/// [`JournalError::SnapshotAheadOfJournal`] when the snapshot claims more
/// frames than the journal holds, and [`JournalError::Serve`] when a
/// replayed request is rejected. The service state is unspecified after a
/// mid-replay error — restart replay on a fresh service.
pub fn replay_journal(
    service: &PricingService,
    journal: impl AsRef<Path>,
    snapshot: Option<&StateSnapshot>,
    options: &ReplayOptions,
) -> Result<ReplayReport, JournalError> {
    let scanned = scan_journal(journal, options.mode)?;
    let total_frames = scanned.frames.len() as u64;
    let start_seq = match snapshot {
        Some(snap) => {
            if snap.frames_applied > total_frames {
                return Err(JournalError::SnapshotAheadOfJournal {
                    frames_applied: snap.frames_applied,
                    journal_frames: total_frames,
                });
            }
            snap.restore_into(service)?;
            snap.frames_applied
        }
        None => 0,
    };
    let frames_applied = replay_frames(service, &scanned.frames, start_seq, options.chunk)?;
    Ok(ReplayReport {
        total_frames,
        start_seq,
        frames_applied,
        truncated_tail: scanned.truncated_tail,
        state_digest: service.state_digest(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::JournalWriter;
    use std::path::PathBuf;
    use vtm_rl::env::ActionSpace;
    use vtm_rl::ppo::{PpoAgent, PpoConfig};
    use vtm_rl::snapshot::PolicySnapshot;
    use vtm_serve::ServiceConfig;

    fn policy(seed: u64) -> PolicySnapshot {
        PpoAgent::new(
            PpoConfig::new(4, 1).with_seed(seed),
            ActionSpace::scalar(5.0, 50.0),
        )
        .snapshot()
    }

    fn config() -> ServiceConfig {
        ServiceConfig::new(2, 2).with_session_capacity(12)
    }

    fn request(i: u64) -> QuoteRequest {
        QuoteRequest::new(i % 7, vec![(i % 5) as f64 * 0.2, (i % 3) as f64 * 0.3])
    }

    fn temp_journal(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("vtm_replay_{tag}_{}.vtmj", std::process::id()))
    }

    /// Runs a live service that journals every request before quoting it,
    /// capturing a snapshot after `snap_at` requests. Returns the journal
    /// path, the final live digest and the mid-run snapshot.
    fn record(
        tag: &str,
        snap: &PolicySnapshot,
        total: u64,
        snap_at: u64,
    ) -> (PathBuf, u64, StateSnapshot) {
        let live = PricingService::from_snapshot(snap, config()).unwrap();
        let path = temp_journal(tag);
        let mut journal = JournalWriter::create(&path).unwrap();
        let mut mid = None;
        for i in 0..total {
            let req = request(i);
            journal.append(&req).unwrap();
            live.quote_batch(std::slice::from_ref(&req)).unwrap();
            if i + 1 == snap_at {
                mid = Some(StateSnapshot::capture(&live, i + 1));
            }
        }
        journal.sync().unwrap();
        (path, live.state_digest(), mid.expect("snap_at <= total"))
    }

    #[test]
    fn replay_from_genesis_and_from_snapshot_reach_the_live_digest() {
        let snap = policy(31);
        let (path, live_digest, mid) = record("genesis", &snap, 40, 17);

        // From genesis, with a chunk size that does not divide the total.
        let fresh = PricingService::from_snapshot(&snap, config()).unwrap();
        let opts = ReplayOptions {
            chunk: 7,
            ..ReplayOptions::default()
        };
        let report = replay_journal(&fresh, &path, None, &opts).unwrap();
        assert_eq!(report.total_frames, 40);
        assert_eq!(report.start_seq, 0);
        assert_eq!(report.frames_applied, 40);
        assert_eq!(report.truncated_tail, 0);
        assert_eq!(report.state_digest, live_digest);
        assert_eq!(fresh.state_digest(), live_digest);

        // From the mid-run snapshot: only the suffix is re-quoted, the
        // digest is identical.
        let resumed = PricingService::from_snapshot(&snap, config()).unwrap();
        let report =
            replay_journal(&resumed, &path, Some(&mid), &ReplayOptions::default()).unwrap();
        assert_eq!(report.start_seq, 17);
        assert_eq!(report.frames_applied, 23);
        assert_eq!(report.state_digest, live_digest);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn replay_recovers_across_a_torn_tail() {
        let snap = policy(32);
        let (path, _, _) = record("torn", &snap, 10, 5);
        // Crash mid-write of an 11th frame: append half a frame of garbage
        // that starts like a real header.
        let mut bytes = std::fs::read(&path).unwrap();
        let full = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&full[..20]);
        std::fs::write(&path, &bytes).unwrap();

        // The reference digest: 10 requests applied directly.
        let reference = PricingService::from_snapshot(&snap, config()).unwrap();
        let reqs: Vec<QuoteRequest> = (0..10).map(request).collect();
        reference.quote_batch(&reqs).unwrap();

        let fresh = PricingService::from_snapshot(&snap, config()).unwrap();
        let report = replay_journal(&fresh, &path, None, &ReplayOptions::default()).unwrap();
        assert_eq!(report.total_frames, 10);
        assert_eq!(report.truncated_tail, 20);
        assert_eq!(report.state_digest, reference.state_digest());

        // Strict mode refuses the same journal.
        let strict = ReplayOptions {
            mode: ScanMode::Strict,
            ..ReplayOptions::default()
        };
        let fresh = PricingService::from_snapshot(&snap, config()).unwrap();
        assert!(matches!(
            replay_journal(&fresh, &path, None, &strict),
            Err(JournalError::Frame { index: 10, .. })
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn snapshot_ahead_of_journal_is_rejected() {
        let snap = policy(33);
        let (path, _, _) = record("ahead", &snap, 6, 3);
        let live = PricingService::from_snapshot(&snap, config()).unwrap();
        let reqs: Vec<QuoteRequest> = (0..6).map(request).collect();
        live.quote_batch(&reqs).unwrap();
        let overreaching = StateSnapshot::capture(&live, 99);
        let fresh = PricingService::from_snapshot(&snap, config()).unwrap();
        assert!(matches!(
            replay_journal(
                &fresh,
                &path,
                Some(&overreaching),
                &ReplayOptions::default()
            ),
            Err(JournalError::SnapshotAheadOfJournal {
                frames_applied: 99,
                journal_frames: 6
            })
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn replayed_requests_with_wrong_geometry_are_serve_errors() {
        let snap = policy(34);
        let path = temp_journal("badgeom");
        let mut journal = JournalWriter::create(&path).unwrap();
        journal
            .append(&QuoteRequest::new(1, vec![0.1, 0.2, 0.3]))
            .unwrap();
        journal.sync().unwrap();
        let service = PricingService::from_snapshot(&snap, config()).unwrap();
        assert!(matches!(
            replay_journal(&service, &path, None, &ReplayOptions::default()),
            Err(JournalError::Serve(_))
        ));
        std::fs::remove_file(&path).unwrap();
    }
}
