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
}

impl Session {
    /// Creates an empty session sized for a `history_length`-round window.
    pub fn new(history_length: usize) -> Self {
        Self {
            history: VecDeque::with_capacity(history_length),
        }
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

    /// Serializes the session into a payload: the buffered feature blocks,
    /// oldest first. Floats are stored as raw bit patterns, so save → load
    /// → observe is bit-exact.
    pub fn save_payload(&self, w: &mut PayloadWriter) {
        w.write_usize(self.history.len());
        for block in &self.history {
            w.write_f64_vec(block);
        }
    }

    /// Reconstructs a session written by [`Session::save_payload`] for a
    /// window of `history_length` blocks of `features` values each. Every
    /// block is held to what admission holds a request to: exactly
    /// `features` wide, every value finite.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`CodecError`] for truncated payloads and
    /// [`CodecError::Invalid`] for too many blocks, a block of the wrong
    /// width or a non-finite value — never panics on corrupt input.
    pub fn load_payload(
        r: &mut PayloadReader<'_>,
        history_length: usize,
        features: usize,
    ) -> Result<Self, CodecError> {
        let blocks = r.read_usize()?;
        if blocks > history_length {
            return Err(CodecError::Invalid(format!(
                "session holds {blocks} blocks, window is {history_length}"
            )));
        }
        let mut history = VecDeque::with_capacity(history_length);
        for _ in 0..blocks {
            let block = r.read_f64_vec()?;
            if block.len() != features || !block.iter().all(|f| f.is_finite()) {
                return Err(CodecError::Invalid(format!(
                    "session block of {} values is not {features} finite features",
                    block.len()
                )));
            }
            history.push_back(block);
        }
        Ok(Self { history })
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
        let mut w = PayloadWriter::new();
        s.save_payload(&mut w);
        let bytes = w.into_bytes();
        let mut r = PayloadReader::new(&bytes);
        let restored = Session::load_payload(&mut r, 3, 2).unwrap();
        assert!(r.is_exhausted());
        assert_eq!(restored, s);
        assert_eq!(restored.observation(3, 2), s.observation(3, 2));
    }

    #[test]
    fn corrupt_payloads_are_typed_errors() {
        let mut w = PayloadWriter::new();
        Session::new(2).save_payload(&mut w);
        let bytes = w.into_bytes();
        // Truncation mid-payload.
        let mut r = PayloadReader::new(&bytes[..4]);
        assert!(matches!(
            Session::load_payload(&mut r, 2, 1),
            Err(CodecError::Truncated { .. })
        ));
        // A block count beyond the window is structurally invalid.
        let mut w = PayloadWriter::new();
        w.write_usize(9);
        let bytes = w.into_bytes();
        let mut r = PayloadReader::new(&bytes);
        assert!(matches!(
            Session::load_payload(&mut r, 2, 1),
            Err(CodecError::Invalid(_))
        ));
    }
}
