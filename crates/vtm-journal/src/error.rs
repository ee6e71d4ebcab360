//! Typed failure modes of the journal, snapshot and replay layers.

use std::fmt;
use std::io;

use vtm_nn::codec::CodecError;
use vtm_serve::ServeError;

/// Every way a journal operation can fail. Corrupt, truncated or mismatched
/// inputs are always reported through this enum — never a panic — and frame
/// errors carry the index of the exact offending frame so an operator can
/// locate the damage in the file.
#[derive(Debug)]
pub enum JournalError {
    /// Reading or writing a journal/snapshot file failed.
    Io(io::Error),
    /// A specific journal frame is corrupt (bad magic, checksum mismatch,
    /// truncation mid-stream, malformed payload, …).
    Frame {
        /// Zero-based index of the frame that failed to decode.
        index: usize,
        /// The underlying codec failure.
        source: CodecError,
    },
    /// A journal frame's recorded sequence number disagrees with its
    /// position in the file — the journal was spliced, reordered or written
    /// by two writers.
    SequenceGap {
        /// Zero-based index (file position) of the offending frame.
        index: usize,
        /// The sequence number the position implies.
        expected: u64,
        /// The sequence number the frame actually carries.
        found: u64,
    },
    /// A snapshot file is corrupt or structurally invalid.
    Snapshot(CodecError),
    /// The snapshot was captured under a different policy version than the
    /// service replaying it — restoring would silently change every quote.
    PolicyMismatch {
        /// Fingerprint of the replaying service's policy.
        expected: u64,
        /// Fingerprint recorded in the snapshot.
        found: u64,
    },
    /// The snapshot's service geometry (history length or feature width)
    /// disagrees with the replaying service's configuration.
    GeometryMismatch {
        /// Which dimension disagrees.
        what: &'static str,
        /// The value recorded in the snapshot.
        snapshot: u64,
        /// The replaying service's configured value.
        service: u64,
    },
    /// The snapshot claims more applied frames than the journal holds — it
    /// belongs to a longer journal (or the journal lost data).
    SnapshotAheadOfJournal {
        /// Frames the snapshot claims were applied before it was taken.
        frames_applied: u64,
        /// Complete frames actually present in the journal.
        journal_frames: u64,
    },
    /// Re-quoting a journaled request failed in the serving layer.
    Serve(ServeError),
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io(err) => write!(f, "journal i/o error: {err}"),
            JournalError::Frame { index, source } => {
                write!(f, "journal frame {index}: {source}")
            }
            JournalError::SequenceGap {
                index,
                expected,
                found,
            } => write!(
                f,
                "journal frame {index}: sequence gap (expected seq {expected}, found {found})"
            ),
            JournalError::Snapshot(err) => write!(f, "state snapshot error: {err}"),
            JournalError::PolicyMismatch { expected, found } => write!(
                f,
                "snapshot belongs to policy {found:#018x}, service runs {expected:#018x}"
            ),
            JournalError::GeometryMismatch {
                what,
                snapshot,
                service,
            } => write!(
                f,
                "snapshot {what} is {snapshot}, service is configured with {service}"
            ),
            JournalError::SnapshotAheadOfJournal {
                frames_applied,
                journal_frames,
            } => write!(
                f,
                "snapshot claims {frames_applied} applied frames but the journal holds only \
                 {journal_frames}"
            ),
            JournalError::Serve(err) => write!(f, "replay serve error: {err}"),
        }
    }
}

impl std::error::Error for JournalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JournalError::Io(err) => Some(err),
            JournalError::Frame { source, .. } => Some(source),
            JournalError::Snapshot(err) => Some(err),
            JournalError::Serve(err) => Some(err),
            _ => None,
        }
    }
}

impl From<io::Error> for JournalError {
    fn from(err: io::Error) -> Self {
        JournalError::Io(err)
    }
}

impl From<ServeError> for JournalError {
    fn from(err: ServeError) -> Self {
        JournalError::Serve(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let cases: Vec<JournalError> = vec![
            JournalError::Io(io::Error::new(io::ErrorKind::NotFound, "gone")),
            JournalError::Frame {
                index: 7,
                source: CodecError::ChecksumMismatch {
                    expected: 1,
                    found: 2,
                },
            },
            JournalError::SequenceGap {
                index: 3,
                expected: 3,
                found: 9,
            },
            JournalError::Snapshot(CodecError::Invalid("bad".into())),
            JournalError::PolicyMismatch {
                expected: 0xA,
                found: 0xB,
            },
            JournalError::GeometryMismatch {
                what: "history length",
                snapshot: 4,
                service: 16,
            },
            JournalError::SnapshotAheadOfJournal {
                frames_applied: 10,
                journal_frames: 4,
            },
        ];
        for err in cases {
            assert!(!err.to_string().is_empty());
        }
        assert!(JournalError::Frame {
            index: 7,
            source: CodecError::Invalid("x".into()),
        }
        .to_string()
        .contains("frame 7"));
    }
}
