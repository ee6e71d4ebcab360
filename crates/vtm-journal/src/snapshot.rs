//! Point-in-time service-state snapshots taken at journal frame boundaries.

use std::path::{Path, PathBuf};

use vtm_nn::codec::{
    fnv1a, CodecError, PayloadReader, PayloadWriter, WeightCodec, KIND_STATE_SNAPSHOT,
};
use vtm_serve::PricingService;

use crate::error::JournalError;

/// A captured [`PricingService`] state plus everything needed to validate
/// that restoring it is sound: the policy-version fingerprint it was served
/// under, the service geometry, and the journal position (`frames_applied`)
/// it is consistent with. Replay restores the snapshot and then re-applies
/// only the journal suffix `frames_applied..`.
#[derive(Debug, Clone, PartialEq)]
pub struct StateSnapshot {
    /// FNV-1a fingerprint of the policy snapshot the service was built from
    /// (see [`PricingService::policy_fingerprint`]).
    pub policy_fingerprint: u64,
    /// Journal frames already applied when the snapshot was captured — the
    /// snapshot is byte-identical to replaying exactly this prefix.
    pub frames_applied: u64,
    /// The service's configured observation history length `L`.
    pub history_length: u64,
    /// The service's configured feature-block width per round.
    pub features_per_round: u64,
    /// The canonical service-state payload from
    /// [`PricingService::save_state`].
    pub state: Vec<u8>,
}

impl StateSnapshot {
    /// Captures the service's current state, tagged as consistent with
    /// `frames_applied` journal frames. The caller must quiesce quoting
    /// while capturing if that tag has to be exact.
    pub fn capture(service: &PricingService, frames_applied: u64) -> Self {
        let config = service.config();
        Self {
            policy_fingerprint: service.policy_fingerprint(),
            frames_applied,
            history_length: config.history_length as u64,
            features_per_round: config.features_per_round as u64,
            state: service.save_state(),
        }
    }

    /// Restores the captured state into `service`, first validating that the
    /// snapshot belongs to the same policy version and service geometry.
    ///
    /// # Errors
    ///
    /// Returns [`JournalError::PolicyMismatch`] /
    /// [`JournalError::GeometryMismatch`] when the snapshot belongs to a
    /// different policy or configuration, and [`JournalError::Serve`] when
    /// the state payload itself is corrupt. The service is left unchanged
    /// on every error path.
    pub fn restore_into(&self, service: &PricingService) -> Result<(), JournalError> {
        if self.policy_fingerprint != service.policy_fingerprint() {
            return Err(JournalError::PolicyMismatch {
                expected: service.policy_fingerprint(),
                found: self.policy_fingerprint,
            });
        }
        let config = service.config();
        let geometry = [
            (
                "history length",
                self.history_length,
                config.history_length as u64,
            ),
            (
                "feature width",
                self.features_per_round,
                config.features_per_round as u64,
            ),
        ];
        for (what, snapshot, service_value) in geometry {
            if snapshot != service_value {
                return Err(JournalError::GeometryMismatch {
                    what,
                    snapshot,
                    service: service_value,
                });
            }
        }
        service.restore_state(&self.state)?;
        Ok(())
    }

    /// FNV-1a digest of the captured state payload — equals
    /// [`PricingService::state_digest`] at capture time.
    pub fn state_digest(&self) -> u64 {
        fnv1a(&self.state)
    }

    /// Serializes the snapshot into a checksummed `VTMW` container of kind
    /// [`KIND_STATE_SNAPSHOT`].
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = PayloadWriter::new();
        w.write_u64(self.policy_fingerprint);
        w.write_u64(self.frames_applied);
        w.write_u64(self.history_length);
        w.write_u64(self.features_per_round);
        w.write_bytes(&self.state);
        WeightCodec::encode(KIND_STATE_SNAPSHOT, w.as_bytes())
    }

    /// Decodes a snapshot container written by [`StateSnapshot::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`JournalError::Snapshot`] for corrupt, truncated or
    /// wrong-kind containers — never panics.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, JournalError> {
        let payload =
            WeightCodec::decode(bytes, KIND_STATE_SNAPSHOT).map_err(JournalError::Snapshot)?;
        let mut r = PayloadReader::new(payload);
        let parse = |r: &mut PayloadReader<'_>| -> Result<Self, CodecError> {
            let policy_fingerprint = r.read_u64()?;
            let frames_applied = r.read_u64()?;
            let history_length = r.read_u64()?;
            let features_per_round = r.read_u64()?;
            let state = r.read_bytes()?.to_vec();
            if !r.is_exhausted() {
                return Err(CodecError::Invalid(format!(
                    "{} trailing bytes after state snapshot",
                    r.remaining()
                )));
            }
            Ok(Self {
                policy_fingerprint,
                frames_applied,
                history_length,
                features_per_round,
                state,
            })
        };
        parse(&mut r).map_err(JournalError::Snapshot)
    }

    /// Writes the snapshot container to `path`.
    ///
    /// # Errors
    ///
    /// Returns [`JournalError::Io`] when the file cannot be written.
    pub fn save_to(&self, path: impl AsRef<Path>) -> Result<(), JournalError> {
        std::fs::write(path, self.to_bytes())?;
        Ok(())
    }

    /// Reads and validates a snapshot container from `path`.
    ///
    /// # Errors
    ///
    /// Returns [`JournalError::Io`] when the file cannot be read and
    /// [`JournalError::Snapshot`] when its contents are corrupt.
    pub fn load_from(path: impl AsRef<Path>) -> Result<Self, JournalError> {
        let bytes = std::fs::read(path)?;
        Self::from_bytes(&bytes)
    }
}

/// The canonical sibling path for a snapshot taken after `frames_applied`
/// journal frames: `<journal>.snap.<frames_applied>`.
pub fn snapshot_path(journal: &Path, frames_applied: u64) -> PathBuf {
    let mut name = journal.file_name().unwrap_or_default().to_os_string();
    name.push(format!(".snap.{frames_applied}"));
    journal.with_file_name(name)
}

/// Lists the `(frames_applied, path)` of every sibling snapshot of
/// `journal`, sorted ascending by frame count. Files whose suffix is not a
/// number are ignored; a missing parent directory yields an empty list.
pub fn find_snapshots(journal: &Path) -> Vec<(u64, PathBuf)> {
    let Some(stem) = journal.file_name().map(|n| {
        let mut s = n.to_os_string();
        s.push(".snap.");
        s.to_string_lossy().into_owned()
    }) else {
        return Vec::new();
    };
    let dir = journal.parent().filter(|p| !p.as_os_str().is_empty());
    let Ok(entries) = std::fs::read_dir(dir.unwrap_or(Path::new("."))) else {
        return Vec::new();
    };
    let mut found: Vec<(u64, PathBuf)> = entries
        .filter_map(Result::ok)
        .filter_map(|entry| {
            let name = entry.file_name().to_string_lossy().into_owned();
            let frames: u64 = name.strip_prefix(&stem)?.parse().ok()?;
            Some((frames, entry.path()))
        })
        .collect();
    found.sort_by_key(|(frames, _)| *frames);
    found
}

/// The sibling snapshot of `journal` with the highest frame count, if any.
pub fn find_latest_snapshot(journal: &Path) -> Option<(u64, PathBuf)> {
    find_snapshots(journal).pop()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vtm_rl::env::ActionSpace;
    use vtm_rl::ppo::{PpoAgent, PpoConfig};
    use vtm_rl::snapshot::PolicySnapshot;
    use vtm_serve::{QuoteRequest, ServiceConfig};

    fn policy(obs_dim: usize, seed: u64) -> PolicySnapshot {
        PpoAgent::new(
            PpoConfig::new(obs_dim, 1).with_seed(seed),
            ActionSpace::scalar(5.0, 50.0),
        )
        .snapshot()
    }

    fn serve_some(service: &PricingService, rounds: u64) {
        for round in 0..rounds {
            let reqs: Vec<QuoteRequest> = (0..4)
                .map(|s| QuoteRequest::new(s, vec![round as f64 * 0.1, 0.5]))
                .collect();
            service.quote_batch(&reqs).unwrap();
        }
    }

    #[test]
    fn capture_restore_round_trips_through_bytes() {
        let snap = policy(4, 21);
        let config = ServiceConfig::new(2, 2).with_session_capacity(3);
        let source = PricingService::from_snapshot(&snap, config).unwrap();
        serve_some(&source, 3);

        let captured = StateSnapshot::capture(&source, 12);
        assert_eq!(captured.frames_applied, 12);
        assert_eq!(captured.state_digest(), source.state_digest());

        let decoded = StateSnapshot::from_bytes(&captured.to_bytes()).unwrap();
        assert_eq!(decoded, captured);

        let target = PricingService::from_snapshot(&snap, config).unwrap();
        decoded.restore_into(&target).unwrap();
        assert_eq!(target.state_digest(), source.state_digest());
    }

    #[test]
    fn file_round_trip_and_corruption_errors() {
        let snap = policy(4, 22);
        let service = PricingService::from_snapshot(&snap, ServiceConfig::new(2, 2)).unwrap();
        serve_some(&service, 2);
        let captured = StateSnapshot::capture(&service, 8);
        let path = std::env::temp_dir().join(format!(
            "vtm_journal_snapshot_file_{}.snap.8",
            std::process::id()
        ));
        captured.save_to(&path).unwrap();
        assert_eq!(StateSnapshot::load_from(&path).unwrap(), captured);

        // Flip one byte inside the container: checksum mismatch.
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        assert!(matches!(
            StateSnapshot::from_bytes(&bytes),
            Err(JournalError::Snapshot(_))
        ));
        // Truncation is also typed.
        assert!(matches!(
            StateSnapshot::from_bytes(&bytes[..bytes.len() - 9]),
            Err(JournalError::Snapshot(CodecError::Truncated { .. }))
        ));
        std::fs::remove_file(&path).unwrap();
        assert!(matches!(
            StateSnapshot::load_from(&path),
            Err(JournalError::Io(_))
        ));
    }

    /// A snapshot in the kind-4 layout (per-session quote counters and
    /// last actions, a store expiry counter) or the kind-5 layout (a shard
    /// count in the header and the state) fails on its container kind,
    /// before any state byte is read.
    #[test]
    fn kind_4_snapshots_fail_with_a_typed_wrong_kind() {
        // 3 quotes served; 1 shard at tick 3 holding 1 session: id 7, last
        // touched at tick 2, its quote counter 3, 1 feature block and a
        // last action; then the eviction and expiry counters.
        let mut kind_4 = PayloadWriter::new();
        for field in [3, 1, 3, 1, 7, 2, 3, 1] {
            kind_4.write_u64(field);
        }
        kind_4.write_f64_vec(&[0.5, 0.25]);
        kind_4.write_u64(1); // last-action tag
        kind_4.write_f64_vec(&[12.5]);
        kind_4.write_u64(0);
        kind_4.write_u64(0);
        // The same session without its quote counter and last action, and
        // only the eviction counter.
        let mut kind_5 = PayloadWriter::new();
        for field in [3, 1, 3, 1, 7, 2, 1] {
            kind_5.write_u64(field);
        }
        kind_5.write_f64_vec(&[0.5, 0.25]);
        kind_5.write_u64(0);
        for (kind, state) in [(4, kind_4), (5, kind_5)] {
            let mut w = PayloadWriter::new();
            // Fingerprint, frames applied, history length, features, shards.
            for field in [0xfeed, 3, 2, 2, 1] {
                w.write_u64(field);
            }
            w.write_bytes(state.as_bytes());
            let old = WeightCodec::encode(kind, w.as_bytes());
            assert!(matches!(
                StateSnapshot::from_bytes(&old),
                Err(JournalError::Snapshot(CodecError::WrongKind {
                    expected: 6,
                    found
                })) if found == kind
            ));
        }
    }

    #[test]
    fn restore_refuses_wrong_policy_and_geometry() {
        let config = ServiceConfig::new(2, 2);
        let source = PricingService::from_snapshot(&policy(4, 23), config).unwrap();
        serve_some(&source, 2);
        let captured = StateSnapshot::capture(&source, 8);

        // Different policy weights, same geometry.
        let other_policy = PricingService::from_snapshot(&policy(4, 24), config).unwrap();
        assert!(matches!(
            captured.restore_into(&other_policy),
            Err(JournalError::PolicyMismatch { .. })
        ));
        // Same policy, a different history length.
        let other_geometry =
            PricingService::from_snapshot(&policy(4, 23), ServiceConfig::new(4, 1)).unwrap();
        assert!(matches!(
            captured.restore_into(&other_geometry),
            Err(JournalError::GeometryMismatch {
                what: "history length",
                ..
            })
        ));
        // A failed restore leaves the target untouched.
        let digest_before = other_geometry.state_digest();
        let _ = captured.restore_into(&other_geometry);
        assert_eq!(other_geometry.state_digest(), digest_before);
    }

    #[test]
    fn snapshot_discovery_sorts_numerically() {
        let dir =
            std::env::temp_dir().join(format!("vtm_journal_snap_discovery_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let journal = dir.join("requests.vtmj");
        std::fs::write(&journal, b"").unwrap();
        // 9 vs 10: numeric order must win over lexicographic order.
        for frames in [10u64, 2, 9] {
            std::fs::write(snapshot_path(&journal, frames), b"x").unwrap();
        }
        // Distractors that must be ignored.
        std::fs::write(dir.join("requests.vtmj.snap.notanumber"), b"x").unwrap();
        std::fs::write(dir.join("other.vtmj.snap.99"), b"x").unwrap();

        let found = find_snapshots(&journal);
        let frames: Vec<u64> = found.iter().map(|(f, _)| *f).collect();
        assert_eq!(frames, vec![2, 9, 10]);
        let (latest, latest_path) = find_latest_snapshot(&journal).unwrap();
        assert_eq!(latest, 10);
        assert_eq!(latest_path, snapshot_path(&journal, 10));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
