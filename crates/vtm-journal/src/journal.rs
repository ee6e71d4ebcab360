//! The append-only request journal: writer and scanners.

use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

use vtm_nn::codec::{CodecError, PayloadReader, PayloadWriter, WeightCodec, KIND_JOURNAL_FRAME};
use vtm_serve::QuoteRequest;

use crate::error::JournalError;

/// Journaling configuration a host (e.g. the gateway) opens a
/// [`JournalWriter`] from: where the journal lives, how eagerly frames are
/// flushed, and how often a state snapshot should be taken.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalOptions {
    /// Journal file path (snapshots are written next to it as
    /// `<path>.snap.<frames>`).
    pub path: PathBuf,
    /// Appends per automatic userspace flush (`0` = flush only explicitly,
    /// `1` = flush after every append; see
    /// [`JournalWriter::with_flush_every`]).
    pub flush_every: u64,
    /// Take a state snapshot every this many processed requests
    /// (`0` = never). Snapshots bound replay time after a crash: recovery
    /// restores the latest snapshot and re-quotes only the journal suffix.
    pub snapshot_every: u64,
}

impl JournalOptions {
    /// Options journaling to `path`, flushing every append, no snapshots.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        Self {
            path: path.into(),
            flush_every: 1,
            snapshot_every: 0,
        }
    }

    /// Overrides the appends-per-flush cadence.
    pub fn with_flush_every(mut self, appends: u64) -> Self {
        self.flush_every = appends;
        self
    }

    /// Overrides the snapshot cadence (`0` = never).
    pub fn with_snapshot_every(mut self, requests: u64) -> Self {
        self.snapshot_every = requests;
        self
    }

    /// Creates the fresh journal these options describe.
    ///
    /// # Errors
    ///
    /// Returns [`JournalError::Io`] when the file cannot be created.
    pub fn open(&self) -> Result<JournalWriter, JournalError> {
        Ok(JournalWriter::create(&self.path)?.with_flush_every(self.flush_every))
    }
}

/// One journaled admission: the request plus its zero-based sequence number
/// (which must equal the frame's position in the file).
#[derive(Debug, Clone, PartialEq)]
pub struct JournalFrame {
    /// Zero-based admission sequence number.
    pub seq: u64,
    /// The admitted quote request, bit-exact as submitted.
    pub request: QuoteRequest,
}

impl JournalFrame {
    /// Encodes the frame payload (seq, session, features).
    fn payload(seq: u64, request: &QuoteRequest) -> Vec<u8> {
        let mut w = PayloadWriter::new();
        w.write_u64(seq);
        w.write_u64(request.session);
        w.write_f64_vec(&request.features);
        w.into_bytes()
    }

    /// Decodes a frame payload produced by [`JournalFrame::payload`].
    fn from_payload(payload: &[u8]) -> Result<Self, CodecError> {
        let mut r = PayloadReader::new(payload);
        let seq = r.read_u64()?;
        let session = r.read_u64()?;
        let features = r.read_f64_vec()?;
        if !r.is_exhausted() {
            return Err(CodecError::Invalid(format!(
                "{} trailing bytes after journal frame",
                r.remaining()
            )));
        }
        Ok(Self {
            seq,
            request: QuoteRequest::new(session, features),
        })
    }

    /// The exact on-disk size of a frame for a request with
    /// `features` feature values: container framing plus the
    /// seq/session/feature-count words and the raw `f64` features.
    pub fn framed_len(features: usize) -> usize {
        WeightCodec::framed_len(8 + 8 + 8 + 8 * features)
    }
}

/// Append-only writer for a request journal. Frames are buffered through a
/// [`BufWriter`]; [`JournalWriter::flush`] pushes them to the OS (cheap,
/// bounds loss to in-kernel buffers) and [`JournalWriter::sync`] forces them
/// to stable storage (crash-durable).
#[derive(Debug)]
pub struct JournalWriter {
    file: BufWriter<File>,
    path: PathBuf,
    next_seq: u64,
    bytes_written: u64,
    appends_since_flush: u64,
    flush_every: u64,
    appends_timed: u64,
    append_sum_us: u64,
    append_max_us: u64,
}

/// Cumulative wall-clock cost of [`JournalWriter::append`] calls, measured
/// inside the writer (encode + buffered write + any automatic flush) so
/// hosts can report journal overhead without instrumenting their own call
/// sites.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AppendLatency {
    /// Appends measured by this writer instance.
    pub appends: u64,
    /// Total time spent appending (µs).
    pub sum_us: u64,
    /// Slowest single append (µs).
    pub max_us: u64,
}

impl AppendLatency {
    /// Mean append cost (µs); 0.0 — never NaN — before the first append.
    pub fn mean_us(&self) -> f64 {
        if self.appends == 0 {
            0.0
        } else {
            self.sum_us as f64 / self.appends as f64
        }
    }
}

impl JournalWriter {
    /// Creates (or truncates) a journal at `path` and starts at sequence 0.
    ///
    /// # Errors
    ///
    /// Returns [`JournalError::Io`] when the file cannot be created.
    pub fn create(path: impl AsRef<Path>) -> Result<Self, JournalError> {
        let path = path.as_ref().to_path_buf();
        let file = File::create(&path)?;
        Ok(Self {
            file: BufWriter::new(file),
            path,
            next_seq: 0,
            bytes_written: 0,
            appends_since_flush: 0,
            flush_every: 1,
            appends_timed: 0,
            append_sum_us: 0,
            append_max_us: 0,
        })
    }

    /// Opens an existing journal for appending, first truncating any torn
    /// partial frame a crash left at the tail. The writer resumes at the
    /// sequence number after the last complete frame.
    ///
    /// # Errors
    ///
    /// Returns [`JournalError::Io`] on i/o failures, or the scan's typed
    /// error when the journal body (not just its tail) is corrupt.
    pub fn recover(path: impl AsRef<Path>) -> Result<Self, JournalError> {
        let path = path.as_ref().to_path_buf();
        let scanned = scan_journal(&path, ScanMode::RecoverTail)?;
        let valid_len = scanned.bytes_total - scanned.truncated_tail;
        let mut file = OpenOptions::new().write(true).open(&path)?;
        file.set_len(valid_len)?;
        file.seek(SeekFrom::End(0))?;
        Ok(Self {
            file: BufWriter::new(file),
            path,
            next_seq: scanned.frames.len() as u64,
            bytes_written: valid_len,
            appends_since_flush: 0,
            flush_every: 1,
            appends_timed: 0,
            append_sum_us: 0,
            append_max_us: 0,
        })
    }

    /// Sets how many appends may accumulate in the userspace buffer before
    /// an automatic [`JournalWriter::flush`] (`0` = only flush explicitly,
    /// default `1` = flush after every append).
    pub fn with_flush_every(mut self, appends: u64) -> Self {
        self.flush_every = appends;
        self
    }

    /// Appends one admitted request and returns its sequence number.
    ///
    /// # Errors
    ///
    /// Returns [`JournalError::Io`] when the write fails.
    pub fn append(&mut self, request: &QuoteRequest) -> Result<u64, JournalError> {
        let started = Instant::now();
        let seq = self.next_seq;
        let frame = WeightCodec::encode(KIND_JOURNAL_FRAME, &JournalFrame::payload(seq, request));
        self.file.write_all(&frame)?;
        self.next_seq += 1;
        self.bytes_written += frame.len() as u64;
        self.appends_since_flush += 1;
        if self.flush_every > 0 && self.appends_since_flush >= self.flush_every {
            self.flush()?;
        }
        let elapsed_us = started.elapsed().as_micros() as u64;
        self.appends_timed += 1;
        self.append_sum_us += elapsed_us;
        self.append_max_us = self.append_max_us.max(elapsed_us);
        Ok(seq)
    }

    /// Cumulative append-path wall-clock cost of the appends *this writer
    /// instance* performed (a recovered writer does not claim the cost of
    /// frames written before the crash); see [`AppendLatency`].
    pub fn append_latency(&self) -> AppendLatency {
        AppendLatency {
            appends: self.appends_timed,
            sum_us: self.append_sum_us,
            max_us: self.append_max_us,
        }
    }

    /// Flushes buffered frames to the operating system.
    ///
    /// # Errors
    ///
    /// Returns [`JournalError::Io`] when the flush fails.
    pub fn flush(&mut self) -> Result<(), JournalError> {
        self.file.flush()?;
        self.appends_since_flush = 0;
        Ok(())
    }

    /// Flushes and then forces the journal to stable storage (`fsync`).
    ///
    /// # Errors
    ///
    /// Returns [`JournalError::Io`] when the flush or sync fails.
    pub fn sync(&mut self) -> Result<(), JournalError> {
        self.flush()?;
        self.file.get_ref().sync_all()?;
        Ok(())
    }

    /// Frames appended so far (equivalently: the next sequence number).
    pub fn frames(&self) -> u64 {
        self.next_seq
    }

    /// Total bytes appended so far (including container framing).
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// The journal's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// How a scanner treats an incomplete trailing frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanMode {
    /// Any anomaly — including a truncated tail — is an error naming the
    /// offending frame. Use for integrity audits, where a short file means
    /// data loss, not a crash artifact.
    Strict,
    /// A frame cut short at the end of the file is treated as a torn write
    /// from a crash: every complete frame is returned and the torn tail's
    /// byte count is reported. Mid-file corruption is still an error.
    RecoverTail,
}

/// The result of scanning a journal.
#[derive(Debug, Clone, PartialEq)]
pub struct ScannedJournal {
    /// Every complete, checksum-valid frame in admission order.
    pub frames: Vec<JournalFrame>,
    /// Bytes of torn partial frame at the tail (always `0` in
    /// [`ScanMode::Strict`], which errors instead).
    pub truncated_tail: u64,
    /// Total bytes in the scanned input, torn tail included.
    pub bytes_total: u64,
}

/// Reads and validates a journal file. See [`scan_journal_bytes`].
///
/// # Errors
///
/// Returns [`JournalError::Io`] when the file cannot be read, plus every
/// error [`scan_journal_bytes`] reports.
pub fn scan_journal(
    path: impl AsRef<Path>,
    mode: ScanMode,
) -> Result<ScannedJournal, JournalError> {
    let bytes = std::fs::read(path)?;
    scan_journal_bytes(&bytes, mode)
}

/// Validates a journal byte stream frame by frame: container framing,
/// checksum and payload structure of every frame, plus the invariant that
/// frame `i` carries sequence number `i`.
///
/// # Errors
///
/// Returns [`JournalError::Frame`] (with the exact frame index) for any
/// corrupt frame, [`JournalError::SequenceGap`] for a reordered or spliced
/// journal. In [`ScanMode::Strict`], a truncated trailing frame is also a
/// [`JournalError::Frame`]; in [`ScanMode::RecoverTail`] it ends the scan
/// and is reported via [`ScannedJournal::truncated_tail`].
pub fn scan_journal_bytes(bytes: &[u8], mode: ScanMode) -> Result<ScannedJournal, JournalError> {
    let mut frames = Vec::new();
    let mut offset = 0usize;
    let mut truncated_tail = 0u64;
    while offset < bytes.len() {
        let index = frames.len();
        match WeightCodec::decode_prefix(&bytes[offset..], KIND_JOURNAL_FRAME) {
            Ok((payload, consumed)) => {
                let frame = JournalFrame::from_payload(payload)
                    .map_err(|source| JournalError::Frame { index, source })?;
                let expected = index as u64;
                if frame.seq != expected {
                    return Err(JournalError::SequenceGap {
                        index,
                        expected,
                        found: frame.seq,
                    });
                }
                frames.push(frame);
                offset += consumed;
            }
            Err(CodecError::Truncated { .. }) if mode == ScanMode::RecoverTail => {
                // The stream ends (or a corrupted length field points) past
                // the end of the file: everything before this frame is
                // intact, so recover to here and report the torn tail.
                truncated_tail = (bytes.len() - offset) as u64;
                break;
            }
            Err(source) => return Err(JournalError::Frame { index, source }),
        }
    }
    Ok(ScannedJournal {
        frames,
        truncated_tail,
        bytes_total: bytes.len() as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("vtm_journal_{tag}_{}.vtmj", std::process::id()))
    }

    fn request(round: u64) -> QuoteRequest {
        QuoteRequest::new(round % 3, vec![round as f64 * 0.5, -1.25])
    }

    #[test]
    fn append_scan_round_trip_is_bit_exact() {
        let path = temp_path("round_trip");
        let mut journal = JournalWriter::create(&path).unwrap();
        for round in 0..5 {
            assert_eq!(journal.append(&request(round)).unwrap(), round);
        }
        journal.sync().unwrap();
        assert_eq!(journal.frames(), 5);
        assert_eq!(
            journal.bytes_written(),
            5 * JournalFrame::framed_len(2) as u64
        );
        assert_eq!(journal.path(), path.as_path());

        let scanned = scan_journal(&path, ScanMode::Strict).unwrap();
        assert_eq!(scanned.frames.len(), 5);
        assert_eq!(scanned.truncated_tail, 0);
        assert_eq!(scanned.bytes_total, journal.bytes_written());
        for (i, frame) in scanned.frames.iter().enumerate() {
            assert_eq!(frame.seq, i as u64);
            assert_eq!(frame.request, request(i as u64));
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn recover_truncates_torn_tail_and_resumes_sequence() {
        let path = temp_path("recover");
        let mut journal = JournalWriter::create(&path).unwrap();
        for round in 0..4 {
            journal.append(&request(round)).unwrap();
        }
        journal.sync().unwrap();
        drop(journal);
        // Simulate a crash mid-write: chop 5 bytes off the last frame.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();

        let scanned = scan_journal(&path, ScanMode::RecoverTail).unwrap();
        assert_eq!(scanned.frames.len(), 3);
        assert_eq!(
            scanned.truncated_tail,
            JournalFrame::framed_len(2) as u64 - 5
        );
        // Strict mode reports the same tail as a frame error instead.
        assert!(matches!(
            scan_journal(&path, ScanMode::Strict),
            Err(JournalError::Frame {
                index: 3,
                source: CodecError::Truncated { .. }
            })
        ));

        // Recovery drops the torn frame and resumes at seq 3.
        let mut recovered = JournalWriter::recover(&path).unwrap();
        assert_eq!(recovered.frames(), 3);
        assert_eq!(recovered.append(&request(9)).unwrap(), 3);
        recovered.sync().unwrap();
        let scanned = scan_journal(&path, ScanMode::Strict).unwrap();
        assert_eq!(scanned.frames.len(), 4);
        assert_eq!(scanned.frames[3].request, request(9));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corruption_is_a_typed_error_with_the_frame_index() {
        let mut bytes = Vec::new();
        for round in 0..3 {
            bytes.extend_from_slice(&WeightCodec::encode(
                KIND_JOURNAL_FRAME,
                &JournalFrame::payload(round, &request(round)),
            ));
        }
        let frame_len = JournalFrame::framed_len(2);
        // Flip a payload byte inside frame 1: checksum mismatch at index 1.
        let mut corrupt = bytes.clone();
        corrupt[frame_len + 20] ^= 0xFF;
        assert!(matches!(
            scan_journal_bytes(&corrupt, ScanMode::Strict),
            Err(JournalError::Frame {
                index: 1,
                source: CodecError::ChecksumMismatch { .. }
            })
        ));
        // RecoverTail only forgives *tail* truncation, not mid-file damage.
        assert!(matches!(
            scan_journal_bytes(&corrupt, ScanMode::RecoverTail),
            Err(JournalError::Frame { index: 1, .. })
        ));
        // Break the magic of frame 2.
        let mut corrupt = bytes.clone();
        corrupt[2 * frame_len] = b'X';
        assert!(matches!(
            scan_journal_bytes(&corrupt, ScanMode::Strict),
            Err(JournalError::Frame {
                index: 2,
                source: CodecError::BadMagic { .. }
            })
        ));
        // A checksum-valid frame whose feature count no payload can hold:
        // a typed error whose `needed` is not wrapped below `available`.
        let mut hostile = PayloadWriter::new();
        hostile.write_u64(1);
        hostile.write_u64(4);
        hostile.write_usize(usize::MAX / 8);
        let mut corrupt = bytes[..frame_len].to_vec();
        corrupt.extend_from_slice(&WeightCodec::encode(
            KIND_JOURNAL_FRAME,
            &hostile.into_bytes(),
        ));
        for mode in [ScanMode::Strict, ScanMode::RecoverTail] {
            match scan_journal_bytes(&corrupt, mode) {
                Err(JournalError::Frame {
                    index: 1,
                    source: CodecError::Truncated { needed, available },
                }) => assert!(needed >= available, "{needed} < {available}"),
                other => panic!("{mode:?}: expected a Truncated frame 1, got {other:?}"),
            }
        }
        // An empty journal is valid and holds no frames.
        let scanned = scan_journal_bytes(&[], ScanMode::Strict).unwrap();
        assert!(scanned.frames.is_empty());
        assert_eq!(scanned.bytes_total, 0);
    }

    #[test]
    fn spliced_journals_are_rejected_as_sequence_gaps() {
        // A journal whose frames were reordered passes every checksum but
        // violates the seq == position invariant.
        let frame = |seq| {
            WeightCodec::encode(
                KIND_JOURNAL_FRAME,
                &JournalFrame::payload(seq, &request(seq)),
            )
        };
        let mut spliced = Vec::new();
        spliced.extend_from_slice(&frame(0));
        spliced.extend_from_slice(&frame(2));
        assert!(matches!(
            scan_journal_bytes(&spliced, ScanMode::Strict),
            Err(JournalError::SequenceGap {
                index: 1,
                expected: 1,
                found: 2
            })
        ));
    }

    #[test]
    fn flush_every_batches_userspace_flushes() {
        let path = temp_path("flush_every");
        let mut journal = JournalWriter::create(&path).unwrap().with_flush_every(0);
        for round in 0..3 {
            journal.append(&request(round)).unwrap();
        }
        // Nothing flushed yet: the file on disk is still empty.
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 0);
        journal.flush().unwrap();
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            journal.bytes_written()
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_journal_is_an_io_error() {
        let path = temp_path("missing_nonexistent");
        assert!(matches!(
            scan_journal(&path, ScanMode::Strict),
            Err(JournalError::Io(_))
        ));
        assert!(matches!(
            JournalWriter::recover(&path),
            Err(JournalError::Io(_))
        ));
    }
}
