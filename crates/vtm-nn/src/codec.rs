//! Versioned, dependency-free binary codec for network weights and training
//! state.
//!
//! The workspace deliberately carries no serde (the build environment is
//! offline), so persistent policy checkpoints use this small hand-rolled
//! container instead:
//!
//! ```text
//! +---------+----------+---------+---------------+---------+-------------+
//! | "VTMW"  | version  |  kind   |  payload_len  | payload |  checksum   |
//! | 4 bytes | u16 LE   | u16 LE  |    u64 LE     |  bytes  |   u64 LE    |
//! +---------+----------+---------+---------------+---------+-------------+
//! ```
//!
//! The checksum is FNV-1a over the payload bytes, so a truncated or
//! bit-flipped file is rejected with a typed [`CodecError`] instead of
//! producing a silently corrupt network. `kind` tags what the payload
//! encodes ([`KIND_MLP`] for a bare network, [`KIND_POLICY`] for a full
//! policy snapshot), so loading a file as the wrong type fails loudly.
//!
//! Payloads are composed with [`PayloadWriter`] / [`PayloadReader`]: all
//! integers are `u64` little-endian and all floats are `f64` bit patterns,
//! which makes every round-trip bit-exact — the checkpoint tests rely on
//! save → load → evaluate being indistinguishable from the in-memory
//! network.
//!
//! # Examples
//!
//! ```
//! use vtm_nn::codec::{PayloadReader, PayloadWriter, WeightCodec, KIND_MLP};
//!
//! let mut w = PayloadWriter::new();
//! w.write_f64_vec(&[1.0, -2.5]);
//! let bytes = WeightCodec::encode(KIND_MLP, w.as_bytes());
//! let payload = WeightCodec::decode(&bytes, KIND_MLP).unwrap();
//! let mut r = PayloadReader::new(payload);
//! assert_eq!(r.read_f64_vec().unwrap(), vec![1.0, -2.5]);
//! ```

use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

use crate::matrix::Matrix;

/// File magic identifying the VTM weight container.
pub const MAGIC: [u8; 4] = *b"VTMW";

/// Current container format version.
pub const VERSION: u16 = 1;

/// Payload kind: a bare [`Mlp`](crate::mlp::Mlp) written by
/// [`Mlp::save_to`](crate::mlp::Mlp::save_to).
pub const KIND_MLP: u16 = 1;

/// Payload kind: a full policy snapshot (actor, critic, optimizer state);
/// written by `vtm_rl::snapshot::PolicySnapshot`.
pub const KIND_POLICY: u16 = 2;

/// Payload kind: one admitted quote-request frame in an append-only request
/// journal; written by `vtm-journal`'s `JournalWriter`.
pub const KIND_JOURNAL_FRAME: u16 = 3;

/// Payload kind: a point-in-time service-state snapshot (session store +
/// serving counters) taken at a journal frame boundary; written by
/// `vtm-journal`'s `StateSnapshot`. Kinds 4 and 5 held earlier layouts:
/// kind 4 had a quote counter and last action per session and an expiry
/// counter per store, and kind 5 a store of lock shards, with a shard count
/// in the header and the state. Decoding such a file fails with
/// [`CodecError::WrongKind`].
pub const KIND_STATE_SNAPSHOT: u16 = 6;

/// Size of the fixed container header (magic + version + kind + payload len).
const HEADER_LEN: usize = 4 + 2 + 2 + 8;

/// Size of the trailing checksum.
const CHECKSUM_LEN: usize = 8;

/// Typed failure modes of the weight codec. Corrupt or truncated files are
/// always reported through this enum — never a panic.
#[derive(Debug)]
pub enum CodecError {
    /// Reading or writing the file failed.
    Io(io::Error),
    /// The file does not start with the `VTMW` magic.
    BadMagic {
        /// The four bytes found where the magic was expected.
        found: [u8; 4],
    },
    /// The container was written by an unknown format version.
    UnsupportedVersion {
        /// The version found in the header.
        found: u16,
    },
    /// The container holds a different payload kind than requested.
    WrongKind {
        /// The kind the caller asked for.
        expected: u16,
        /// The kind found in the header.
        found: u16,
    },
    /// The payload bytes do not hash to the stored checksum.
    ChecksumMismatch {
        /// Checksum stored in the file.
        expected: u64,
        /// Checksum recomputed over the payload.
        found: u64,
    },
    /// The file ends before the encoded structure does.
    Truncated {
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes actually available.
        available: usize,
    },
    /// The payload decoded but its contents are structurally invalid.
    Invalid(String),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Io(err) => write!(f, "i/o error: {err}"),
            CodecError::BadMagic { found } => {
                write!(f, "bad magic {found:?} (expected {MAGIC:?})")
            }
            CodecError::UnsupportedVersion { found } => {
                write!(
                    f,
                    "unsupported container version {found} (supported: {VERSION})"
                )
            }
            CodecError::WrongKind { expected, found } => {
                write!(f, "wrong payload kind {found} (expected {expected})")
            }
            CodecError::ChecksumMismatch { expected, found } => write!(
                f,
                "checksum mismatch: stored {expected:#018x}, computed {found:#018x}"
            ),
            CodecError::Truncated { needed, available } => {
                write!(f, "truncated input: needed {needed} bytes, had {available}")
            }
            CodecError::Invalid(msg) => write!(f, "invalid payload: {msg}"),
        }
    }
}

impl std::error::Error for CodecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CodecError::Io(err) => Some(err),
            _ => None,
        }
    }
}

impl From<io::Error> for CodecError {
    fn from(err: io::Error) -> Self {
        CodecError::Io(err)
    }
}

/// FNV-1a over a byte slice (the workspace's standard fingerprint hash).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// The container codec: frames a payload with magic, version, kind and an
/// FNV-1a checksum. See the module docs for the byte layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WeightCodec;

impl WeightCodec {
    /// Frames `payload` into a self-describing byte container.
    pub fn encode(kind: u16, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN + payload.len() + CHECKSUM_LEN);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&kind.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(payload);
        out.extend_from_slice(&fnv1a(payload).to_le_bytes());
        out
    }

    /// Validates the container framing and returns the payload slice.
    ///
    /// Trailing bytes beyond the container are ignored; use
    /// [`WeightCodec::decode_prefix`] when the container is one frame of a
    /// longer stream and the consumed length matters.
    ///
    /// # Errors
    ///
    /// Returns the matching [`CodecError`] for a bad magic, an unsupported
    /// version, a payload-kind mismatch, a truncated file or a checksum
    /// mismatch.
    pub fn decode(bytes: &[u8], expected_kind: u16) -> Result<&[u8], CodecError> {
        Self::decode_prefix(bytes, expected_kind).map(|(payload, _)| payload)
    }

    /// Validates one container at the *front* of `bytes` — which may be
    /// followed by further frames — and returns the payload slice together
    /// with the total number of bytes the container occupies (header +
    /// payload + checksum). This is the streaming entry point the
    /// append-only request journal iterates frames with.
    ///
    /// # Errors
    ///
    /// Same as [`WeightCodec::decode`]; a [`CodecError::Truncated`] whose
    /// `available` equals `bytes.len()` means the stream ends mid-frame.
    pub fn decode_prefix(bytes: &[u8], expected_kind: u16) -> Result<(&[u8], usize), CodecError> {
        if bytes.len() < HEADER_LEN {
            return Err(CodecError::Truncated {
                needed: HEADER_LEN,
                available: bytes.len(),
            });
        }
        let mut magic = [0u8; 4];
        magic.copy_from_slice(&bytes[0..4]);
        if magic != MAGIC {
            return Err(CodecError::BadMagic { found: magic });
        }
        let version = u16::from_le_bytes([bytes[4], bytes[5]]);
        if version != VERSION {
            return Err(CodecError::UnsupportedVersion { found: version });
        }
        let kind = u16::from_le_bytes([bytes[6], bytes[7]]);
        if kind != expected_kind {
            return Err(CodecError::WrongKind {
                expected: expected_kind,
                found: kind,
            });
        }
        let payload_len = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes")) as usize;
        let needed = HEADER_LEN
            .checked_add(payload_len)
            .and_then(|n| n.checked_add(CHECKSUM_LEN))
            .ok_or(CodecError::Invalid("payload length overflows".to_string()))?;
        if bytes.len() < needed {
            return Err(CodecError::Truncated {
                needed,
                available: bytes.len(),
            });
        }
        let payload = &bytes[HEADER_LEN..HEADER_LEN + payload_len];
        let stored = u64::from_le_bytes(
            bytes[HEADER_LEN + payload_len..needed]
                .try_into()
                .expect("8 bytes"),
        );
        let computed = fnv1a(payload);
        if stored != computed {
            return Err(CodecError::ChecksumMismatch {
                expected: stored,
                found: computed,
            });
        }
        Ok((payload, needed))
    }

    /// The total on-disk size of a container holding `payload_len` payload
    /// bytes (header + payload + checksum).
    pub fn framed_len(payload_len: usize) -> usize {
        HEADER_LEN + payload_len + CHECKSUM_LEN
    }

    /// Frames `payload` and writes it to `path`.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Io`] when the file cannot be written.
    pub fn write_file(path: &Path, kind: u16, payload: &[u8]) -> Result<(), CodecError> {
        fs::write(path, Self::encode(kind, payload))?;
        Ok(())
    }

    /// Reads `path`, validates the framing and returns the payload.
    ///
    /// # Errors
    ///
    /// Returns the matching [`CodecError`] for i/o failures and every form of
    /// file corruption (see [`WeightCodec::decode`]).
    pub fn read_file(path: &Path, expected_kind: u16) -> Result<Vec<u8>, CodecError> {
        let bytes = fs::read(path)?;
        Self::decode(&bytes, expected_kind).map(<[u8]>::to_vec)
    }
}

/// Append-only payload builder. All values are little-endian; floats are
/// stored as raw `f64` bit patterns so round-trips are bit-exact.
#[derive(Debug, Clone, Default)]
pub struct PayloadWriter {
    buf: Vec<u8>,
}

impl PayloadWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The bytes written so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Consumes the writer, returning the payload bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends a `u64`.
    pub fn write_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` (stored as `u64`).
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Appends a boolean (one byte, 0 or 1).
    pub fn write_bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Appends an `f64` bit pattern.
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Appends a length-prefixed `f64` slice.
    pub fn write_f64_vec(&mut self, values: &[f64]) {
        self.write_usize(values.len());
        for &v in values {
            self.write_f64(v);
        }
    }

    /// Appends a length-prefixed raw byte slice (e.g. a nested payload).
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        self.write_usize(bytes.len());
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a length-prefixed `usize` slice.
    pub fn write_usize_vec(&mut self, values: &[usize]) {
        self.write_usize(values.len());
        for &v in values {
            self.write_usize(v);
        }
    }

    /// Appends a matrix: rows, cols, then the row-major data.
    pub fn write_matrix(&mut self, m: &Matrix) {
        self.write_usize(m.rows());
        self.write_usize(m.cols());
        for &v in m.as_slice() {
            self.write_f64(v);
        }
    }
}

/// Sequential payload decoder matching [`PayloadWriter`]'s encoding. Every
/// read validates the remaining length first and reports shortfalls as
/// [`CodecError::Truncated`].
#[derive(Debug, Clone)]
pub struct PayloadReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> PayloadReader<'a> {
    /// Creates a reader over a decoded payload.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Whether every byte has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(self.truncated(n));
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads a `u64`.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Truncated`] when fewer than 8 bytes remain.
    pub fn read_u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Reads a `usize` (stored as `u64`).
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Truncated`] on a short read, or
    /// [`CodecError::Invalid`] when the value does not fit a `usize`.
    pub fn read_usize(&mut self) -> Result<usize, CodecError> {
        let v = self.read_u64()?;
        usize::try_from(v).map_err(|_| CodecError::Invalid(format!("length {v} overflows usize")))
    }

    /// Reads a boolean.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Truncated`] on a short read, or
    /// [`CodecError::Invalid`] when the byte is neither 0 nor 1.
    pub fn read_bool(&mut self) -> Result<bool, CodecError> {
        match self.take(1)?[0] {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(CodecError::Invalid(format!("invalid boolean byte {other}"))),
        }
    }

    /// Reads an `f64` bit pattern.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Truncated`] when fewer than 8 bytes remain.
    pub fn read_f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.read_u64()?))
    }

    /// Reads a length-prefixed `f64` vector.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Truncated`] when the declared length exceeds the
    /// remaining bytes.
    pub fn read_f64_vec(&mut self) -> Result<Vec<f64>, CodecError> {
        let len = self.read_usize()?;
        self.check_capacity(len)?;
        (0..len).map(|_| self.read_f64()).collect()
    }

    /// Reads a length-prefixed raw byte slice written by
    /// [`PayloadWriter::write_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Truncated`] when the declared length exceeds the
    /// remaining bytes.
    pub fn read_bytes(&mut self) -> Result<&'a [u8], CodecError> {
        let len = self.read_usize()?;
        self.take(len)
    }

    /// Reads a length-prefixed `usize` vector.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Truncated`] when the declared length exceeds the
    /// remaining bytes.
    pub fn read_usize_vec(&mut self) -> Result<Vec<usize>, CodecError> {
        let len = self.read_usize()?;
        self.check_capacity(len)?;
        (0..len).map(|_| self.read_usize()).collect()
    }

    /// Reads a matrix written by [`PayloadWriter::write_matrix`].
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Truncated`] on a short read or
    /// [`CodecError::Invalid`] when the dimensions are inconsistent.
    pub fn read_matrix(&mut self) -> Result<Matrix, CodecError> {
        let rows = self.read_usize()?;
        let cols = self.read_usize()?;
        let len = rows
            .checked_mul(cols)
            .ok_or_else(|| CodecError::Invalid(format!("matrix {rows}x{cols} overflows")))?;
        self.check_capacity(len)?;
        let data: Vec<f64> = (0..len)
            .map(|_| self.read_f64())
            .collect::<Result<_, _>>()?;
        Matrix::from_vec(rows, cols, data)
            .map_err(|e| CodecError::Invalid(format!("matrix shape error: {e}")))
    }

    /// Rejects declared element counts that cannot fit the remaining bytes,
    /// so a corrupted length prefix fails fast instead of attempting a huge
    /// allocation.
    fn check_capacity(&self, elements: usize) -> Result<(), CodecError> {
        let needed = elements.saturating_mul(8);
        if needed > self.remaining() {
            return Err(self.truncated(needed));
        }
        Ok(())
    }

    /// The error for a read of `n` more bytes than remain. The sum
    /// saturates: `n` comes from a length prefix in the input, so it can be
    /// anything up to `usize::MAX`.
    fn truncated(&self, n: usize) -> CodecError {
        CodecError::Truncated {
            needed: self.pos.saturating_add(n),
            available: self.bytes.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_payload() -> Vec<u8> {
        let mut w = PayloadWriter::new();
        w.write_u64(42);
        w.write_bool(true);
        w.write_f64(-1.25);
        w.write_f64_vec(&[1.0, 2.0, 3.0]);
        w.write_usize_vec(&[64, 64]);
        w.write_matrix(&Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap());
        w.into_bytes()
    }

    #[test]
    fn payload_round_trips_bit_exactly() {
        let payload = sample_payload();
        let mut r = PayloadReader::new(&payload);
        assert_eq!(r.read_u64().unwrap(), 42);
        assert!(r.read_bool().unwrap());
        assert_eq!(r.read_f64().unwrap().to_bits(), (-1.25f64).to_bits());
        assert_eq!(r.read_f64_vec().unwrap(), vec![1.0, 2.0, 3.0]);
        assert_eq!(r.read_usize_vec().unwrap(), vec![64, 64]);
        let m = r.read_matrix().unwrap();
        assert_eq!(m.shape(), (2, 2));
        assert_eq!(m[(1, 0)], 3.0);
        assert!(r.is_exhausted());
    }

    #[test]
    fn container_round_trips() {
        let payload = sample_payload();
        let framed = WeightCodec::encode(KIND_MLP, &payload);
        let decoded = WeightCodec::decode(&framed, KIND_MLP).unwrap();
        assert_eq!(decoded, payload.as_slice());
    }

    #[test]
    fn decode_prefix_iterates_concatenated_frames() {
        let payloads: [&[u8]; 3] = [b"first", b"second frame", b""];
        let mut stream = Vec::new();
        for payload in payloads {
            stream.extend_from_slice(&WeightCodec::encode(KIND_JOURNAL_FRAME, payload));
        }
        let mut offset = 0;
        for payload in payloads {
            let (decoded, consumed) =
                WeightCodec::decode_prefix(&stream[offset..], KIND_JOURNAL_FRAME).unwrap();
            assert_eq!(decoded, payload);
            assert_eq!(consumed, WeightCodec::framed_len(payload.len()));
            offset += consumed;
        }
        assert_eq!(offset, stream.len());
        // A partial trailing frame reports Truncated with the stream's
        // remaining length, so a scanner can tell "ends mid-frame" apart
        // from mid-stream corruption.
        stream.extend_from_slice(&WeightCodec::encode(KIND_JOURNAL_FRAME, b"tail")[..7]);
        match WeightCodec::decode_prefix(&stream[offset..], KIND_JOURNAL_FRAME) {
            Err(CodecError::Truncated { available, .. }) => assert_eq!(available, 7),
            other => panic!("expected Truncated, got {other:?}"),
        }
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut framed = WeightCodec::encode(KIND_MLP, b"abc");
        framed[0] = b'X';
        match WeightCodec::decode(&framed, KIND_MLP) {
            Err(CodecError::BadMagic { found }) => assert_eq!(found[0], b'X'),
            other => panic!("expected BadMagic, got {other:?}"),
        }
    }

    #[test]
    fn unsupported_version_is_rejected() {
        let mut framed = WeightCodec::encode(KIND_MLP, b"abc");
        framed[4] = 99;
        assert!(matches!(
            WeightCodec::decode(&framed, KIND_MLP),
            Err(CodecError::UnsupportedVersion { found: 99 })
        ));
    }

    #[test]
    fn wrong_kind_is_rejected() {
        let framed = WeightCodec::encode(KIND_POLICY, b"abc");
        assert!(matches!(
            WeightCodec::decode(&framed, KIND_MLP),
            Err(CodecError::WrongKind {
                expected: KIND_MLP,
                found: KIND_POLICY,
            })
        ));
    }

    #[test]
    fn flipped_payload_bit_fails_the_checksum() {
        let payload = sample_payload();
        let mut framed = WeightCodec::encode(KIND_MLP, &payload);
        framed[HEADER_LEN + 3] ^= 0x40;
        assert!(matches!(
            WeightCodec::decode(&framed, KIND_MLP),
            Err(CodecError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn truncation_is_reported_at_every_level() {
        let payload = sample_payload();
        let framed = WeightCodec::encode(KIND_MLP, &payload);
        // Shorter than the header.
        assert!(matches!(
            WeightCodec::decode(&framed[..7], KIND_MLP),
            Err(CodecError::Truncated { .. })
        ));
        // Header intact, payload cut short.
        assert!(matches!(
            WeightCodec::decode(&framed[..framed.len() - 12], KIND_MLP),
            Err(CodecError::Truncated { .. })
        ));
        // Reader-level truncation.
        let mut r = PayloadReader::new(&payload[..4]);
        assert!(matches!(r.read_u64(), Err(CodecError::Truncated { .. })));
    }

    #[test]
    fn oversized_length_prefix_is_rejected_without_allocating() {
        type Read = fn(&mut PayloadReader<'_>) -> Result<(), CodecError>;
        let readers: [(&str, Read); 4] = [
            ("read_bytes", |r| r.read_bytes().map(drop)),
            ("read_f64_vec", |r| r.read_f64_vec().map(drop)),
            ("read_usize_vec", |r| r.read_usize_vec().map(drop)),
            // A column vector: the row count is the hostile prefix.
            ("read_matrix", |r| r.read_matrix().map(drop)),
        ];
        let prefixes = [usize::MAX, usize::MAX - 1, usize::MAX / 8, usize::MAX / 2];
        for (name, read) in readers {
            for prefix in prefixes {
                // At pos 0 the prefix is the first word; past it, one u64
                // precedes it.
                for lead in [0usize, 1] {
                    let mut w = PayloadWriter::new();
                    for _ in 0..lead {
                        w.write_u64(7);
                    }
                    w.write_usize(prefix);
                    if name == "read_matrix" {
                        w.write_usize(1);
                    }
                    let bytes = w.into_bytes();
                    let mut r = PayloadReader::new(&bytes);
                    for _ in 0..lead {
                        r.read_u64().unwrap();
                    }
                    match read(&mut r) {
                        Err(CodecError::Truncated { needed, available }) => assert!(
                            needed >= available,
                            "{name}, prefix {prefix}, lead {lead}: needed {needed} < {available}"
                        ),
                        other => panic!("{name}, prefix {prefix}, lead {lead}: got {other:?}"),
                    }
                }
            }
        }
    }

    #[test]
    fn file_round_trip_and_io_error() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("vtm_codec_test_{}.vtm", std::process::id()));
        WeightCodec::write_file(&path, KIND_MLP, b"hello").unwrap();
        assert_eq!(WeightCodec::read_file(&path, KIND_MLP).unwrap(), b"hello");
        std::fs::remove_file(&path).unwrap();
        assert!(matches!(
            WeightCodec::read_file(&path, KIND_MLP),
            Err(CodecError::Io(_))
        ));
    }

    #[test]
    fn errors_display_helpfully() {
        let msgs = [
            CodecError::BadMagic { found: *b"NOPE" }.to_string(),
            CodecError::UnsupportedVersion { found: 9 }.to_string(),
            CodecError::WrongKind {
                expected: 1,
                found: 2,
            }
            .to_string(),
            CodecError::ChecksumMismatch {
                expected: 1,
                found: 2,
            }
            .to_string(),
            CodecError::Truncated {
                needed: 8,
                available: 3,
            }
            .to_string(),
            CodecError::Invalid("x".to_string()).to_string(),
        ];
        for msg in msgs {
            assert!(!msg.is_empty());
        }
    }
}
