//! Per-VMU session state: the rolling observation history a policy needs to
//! price one client across rounds.

use std::collections::VecDeque;

use vtm_nn::codec::{CodecError, PayloadReader, PayloadWriter};

/// One VMU session's serving-side state. The policy observes the last `L`
/// rounds of features, so the session only has to buffer feature blocks —
/// the client ships one block per round, never the full observation.
#[derive(Debug, Clone, PartialEq)]
pub struct Session {
    /// The most recent feature blocks, oldest first (at most `L`).
    history: VecDeque<Vec<f64>>,
    /// Quotes served to this session so far.
    pub quotes: u64,
    /// The raw policy action behind the most recent quote served to this
    /// session — the degraded-mode answer when the pricing pipeline is
    /// unavailable.
    last_action: Option<Vec<f64>>,
}

impl Session {
    /// Creates an empty session sized for a `history_length`-round window.
    pub fn new(history_length: usize) -> Self {
        Self {
            history: VecDeque::with_capacity(history_length),
            quotes: 0,
            last_action: None,
        }
    }

    /// Records the raw action behind the latest quote served to this
    /// session (the degraded-mode cache).
    pub fn set_last_action(&mut self, action: Vec<f64>) {
        self.last_action = Some(action);
    }

    /// The raw action behind the latest quote, if one was ever served.
    pub fn last_action(&self) -> Option<&[f64]> {
        self.last_action.as_deref()
    }

    /// Appends the newest round's feature block, dropping the oldest once the
    /// window is full.
    pub fn push(&mut self, features: Vec<f64>, history_length: usize) {
        if self.history.len() == history_length {
            self.history.pop_front();
        }
        self.history.push_back(features);
    }

    /// Whether the rolling window holds a full `L` rounds of real features.
    pub fn warmed(&self, history_length: usize) -> bool {
        self.history.len() >= history_length
    }

    /// Flattens the window into the policy observation. Until the session is
    /// warm the *oldest* block is repeated to fill the window — a
    /// deterministic stand-in for the random warm-up rounds the training
    /// environment plays.
    pub fn observation(&self, history_length: usize, features: usize) -> Vec<f64> {
        let mut obs = Vec::with_capacity(history_length * features);
        let missing = history_length - self.history.len();
        if let Some(first) = self.history.front() {
            for _ in 0..missing {
                obs.extend_from_slice(first);
            }
        }
        for block in &self.history {
            obs.extend_from_slice(block);
        }
        obs
    }

    /// Serializes the session into a payload: the quote counter followed by
    /// the buffered feature blocks, oldest first. Floats are stored as raw
    /// bit patterns, so save → load → observe is bit-exact.
    pub fn save_payload(&self, w: &mut PayloadWriter) {
        w.write_u64(self.quotes);
        w.write_usize(self.history.len());
        for block in &self.history {
            w.write_f64_vec(block);
        }
        match &self.last_action {
            Some(action) => {
                w.write_u64(1);
                w.write_f64_vec(action);
            }
            None => w.write_u64(0),
        }
    }

    /// Reconstructs a session written by [`Session::save_payload`].
    ///
    /// # Errors
    ///
    /// Returns the underlying [`CodecError`] for truncated or structurally
    /// invalid payloads — never panics on corrupt input.
    pub fn load_payload(
        r: &mut PayloadReader<'_>,
        history_length: usize,
    ) -> Result<Self, CodecError> {
        let quotes = r.read_u64()?;
        let blocks = r.read_usize()?;
        if blocks > history_length {
            return Err(CodecError::Invalid(format!(
                "session holds {blocks} blocks, window is {history_length}"
            )));
        }
        let mut history = VecDeque::with_capacity(history_length);
        for _ in 0..blocks {
            history.push_back(r.read_f64_vec()?);
        }
        let last_action = match r.read_u64()? {
            0 => None,
            1 => Some(r.read_f64_vec()?),
            tag => {
                return Err(CodecError::Invalid(format!(
                    "session last-action tag must be 0 or 1, got {tag}"
                )))
            }
        };
        Ok(Self {
            history,
            quotes,
            last_action,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_rolls_and_pads() {
        let mut s = Session::new(3);
        s.push(vec![1.0], 3);
        assert!(!s.warmed(3));
        assert_eq!(s.observation(3, 1), vec![1.0, 1.0, 1.0]);
        s.push(vec![2.0], 3);
        s.push(vec![3.0], 3);
        assert!(s.warmed(3));
        assert_eq!(s.observation(3, 1), vec![1.0, 2.0, 3.0]);
        s.push(vec![4.0], 3);
        assert_eq!(s.observation(3, 1), vec![2.0, 3.0, 4.0]);
    }

    #[test]
    fn payload_round_trip_is_bit_exact() {
        let mut s = Session::new(3);
        s.push(vec![0.1, -2.5], 3);
        s.push(vec![f64::MIN_POSITIVE, 7.75], 3);
        s.quotes = 42;
        s.set_last_action(vec![13.25, -0.5]);
        let mut w = PayloadWriter::new();
        s.save_payload(&mut w);
        let bytes = w.into_bytes();
        let mut r = PayloadReader::new(&bytes);
        let restored = Session::load_payload(&mut r, 3).unwrap();
        assert!(r.is_exhausted());
        assert_eq!(restored, s);
        assert_eq!(restored.observation(3, 2), s.observation(3, 2));
        assert_eq!(restored.last_action(), Some(&[13.25, -0.5][..]));
    }

    #[test]
    fn corrupt_payloads_are_typed_errors() {
        let mut w = PayloadWriter::new();
        Session::new(2).save_payload(&mut w);
        let bytes = w.into_bytes();
        // Truncation mid-payload.
        let mut r = PayloadReader::new(&bytes[..4]);
        assert!(matches!(
            Session::load_payload(&mut r, 2),
            Err(CodecError::Truncated { .. })
        ));
        // A block count beyond the window is structurally invalid.
        let mut w = PayloadWriter::new();
        w.write_u64(0);
        w.write_usize(9);
        let bytes = w.into_bytes();
        let mut r = PayloadReader::new(&bytes);
        assert!(matches!(
            Session::load_payload(&mut r, 2),
            Err(CodecError::Invalid(_))
        ));
        // A last-action tag other than 0/1 is structurally invalid.
        let mut w = PayloadWriter::new();
        w.write_u64(0);
        w.write_usize(0);
        w.write_u64(7);
        let bytes = w.into_bytes();
        let mut r = PayloadReader::new(&bytes);
        assert!(matches!(
            Session::load_payload(&mut r, 2),
            Err(CodecError::Invalid(_))
        ));
    }
}
