//! Capacity-bounded session store with LRU eviction.
//!
//! The serving layer keeps one rolling observation window per VMU session.
//! At fleet scale ("millions of users") an unbounded map is a memory leak
//! with extra steps: trips end, vehicles park, ids are never seen again.
//! [`SessionStore`] bounds that state by **capacity**: it holds at most
//! `capacity` sessions, and inserting a new session into a full store
//! evicts the least-recently-touched one.
//!
//! Time is *logical*, not wall-clock: the store advances one tick per
//! request it serves, so a session's recency is "requests served since it
//! was last touched". The store sees its requests in submission order no
//! matter how the caller slices the stream into batches, so every eviction
//! decision that affects quote output is a pure function of the request
//! sequence — which is what lets the gateway's determinism contract
//! (gateway ≡ direct batch calls, at any executor count) extend to stores
//! with eviction enabled.

use std::collections::{BTreeSet, HashMap};
use std::sync::{Mutex, MutexGuard};

use vtm_nn::codec::{CodecError, PayloadReader, PayloadWriter};

use crate::session::Session;

/// Aggregate counters of a [`SessionStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// Live sessions.
    pub sessions: usize,
    /// Sessions evicted because the store hit capacity.
    pub evicted: u64,
}

/// One live session plus the tick of its last visit.
#[derive(Debug)]
struct Entry {
    session: Session,
    last_touched: u64,
}

/// Everything the store's one lock guards.
#[derive(Debug, Default)]
struct State {
    sessions: HashMap<u64, Entry>,
    /// `(last_touched, id)` of every live session, least recent first: the
    /// first element is the eviction victim.
    recency: BTreeSet<(u64, u64)>,
    /// The logical clock: one tick per visit (see the module docs).
    tick: u64,
    evicted: u64,
}

/// A map from session id to rolling observation state, bounded by capacity
/// (LRU eviction). See the module docs.
#[derive(Debug)]
pub struct SessionStore {
    history_length: usize,
    capacity: usize,
    state: Mutex<State>,
}

impl SessionStore {
    /// Creates an empty store for sessions with the given history window,
    /// holding at most `capacity` sessions (`0` = unbounded).
    ///
    /// # Panics
    ///
    /// Panics if `history_length` is zero.
    pub fn new(history_length: usize, capacity: usize) -> Self {
        assert!(history_length > 0, "history length must be positive");
        Self {
            history_length,
            capacity,
            state: Mutex::new(State::default()),
        }
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect("session store poisoned")
    }

    /// Whether a session is currently alive (does not touch it).
    pub fn contains(&self, session: u64) -> bool {
        self.lock().sessions.contains_key(&session)
    }

    /// Live sessions.
    pub fn len(&self) -> usize {
        self.lock().sessions.len()
    }

    /// Whether no session is alive.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Aggregate counters.
    pub fn stats(&self) -> StoreStats {
        let state = self.lock();
        StoreStats {
            sessions: state.sessions.len(),
            evicted: state.evicted,
        }
    }

    /// Serializes the complete store state into a payload in a *canonical*
    /// form: the logical clock, the entries sorted by session id (each its
    /// id, LRU stamp and window), then the eviction counter. Two stores
    /// holding the same logical state always serialize to identical bytes,
    /// so the payload doubles as the store's determinism digest input
    /// (replay tests hash it with FNV-1a).
    pub fn save_payload(&self, w: &mut PayloadWriter) {
        let state = self.lock();
        w.write_u64(state.tick);
        let mut ids: Vec<u64> = state.sessions.keys().copied().collect();
        ids.sort_unstable();
        w.write_usize(ids.len());
        for id in ids {
            let entry = &state.sessions[&id];
            w.write_u64(id);
            w.write_u64(entry.last_touched);
            entry.session.save_payload(w);
        }
        w.write_u64(state.evicted);
    }

    /// Replaces the store's entire state with one written by
    /// [`SessionStore::save_payload`] for sessions of `features` values per
    /// round, which must be the rest of `r`. It refuses what live serving
    /// never produces: ids out of strictly ascending order, more sessions
    /// than the capacity (eviction only keeps a full store full, so it
    /// would never shrink back), an LRU stamp at or after the clock (live
    /// serving stamps each visit and then advances the clock) and a session
    /// [`Session::load_payload`] refuses — the same width and finiteness
    /// admission holds a request to.
    ///
    /// # Errors
    ///
    /// Returns a typed [`CodecError`] for truncated or structurally invalid
    /// payloads and for trailing bytes — never panics. The payload is
    /// decoded and checked in full before it replaces anything, so on error
    /// the store is left unchanged.
    pub fn restore_payload(
        &self,
        r: &mut PayloadReader<'_>,
        features: usize,
    ) -> Result<(), CodecError> {
        let mut state = State {
            tick: r.read_u64()?,
            ..State::default()
        };
        let count = r.read_usize()?;
        if self.capacity > 0 && count > self.capacity {
            return Err(CodecError::Invalid(format!(
                "payload lists {count} sessions, capacity is {}",
                self.capacity
            )));
        }
        let mut previous = None;
        for _ in 0..count {
            let id = r.read_u64()?;
            if previous.is_some_and(|previous| previous >= id) {
                return Err(CodecError::Invalid(format!(
                    "session {id} is listed out of ascending order"
                )));
            }
            previous = Some(id);
            let last_touched = r.read_u64()?;
            if last_touched >= state.tick {
                return Err(CodecError::Invalid(format!(
                    "session {id} was last touched at tick {last_touched}, the clock reads {}",
                    state.tick
                )));
            }
            let session = Session::load_payload(r, self.history_length, features)?;
            state.recency.insert((last_touched, id));
            state.sessions.insert(
                id,
                Entry {
                    session,
                    last_touched,
                },
            );
        }
        state.evicted = r.read_u64()?;
        if !r.is_exhausted() {
            return Err(CodecError::Invalid(format!(
                "{} trailing bytes after the session store",
                r.remaining()
            )));
        }
        *self.lock() = state;
        Ok(())
    }

    /// Visits (creating on demand) the session of every id in `ids`, in
    /// order and under one lock, calling `f(index_into_ids, &mut Session)`
    /// once per id (so repeated requests for the same session apply in
    /// request order). Every visit advances the logical clock by one tick
    /// and stamps the session with it. Inserting into a full store first
    /// evicts its least-recently-touched session; the choice uses only
    /// request ticks, so it is invariant to how the request stream is
    /// sliced into batches.
    pub fn touch(&self, ids: &[u64], mut f: impl FnMut(usize, &mut Session)) {
        let mut guard = self.lock();
        let state = &mut *guard;
        for (idx, &id) in ids.iter().enumerate() {
            let now = state.tick;
            state.tick += 1;
            let entry = match state.sessions.get_mut(&id) {
                Some(entry) => {
                    state.recency.remove(&(entry.last_touched, id));
                    entry.last_touched = now;
                    entry
                }
                None => {
                    if self.capacity > 0 && state.sessions.len() >= self.capacity {
                        if let Some((_, victim)) = state.recency.pop_first() {
                            state.sessions.remove(&victim);
                            state.evicted += 1;
                        }
                    }
                    state.sessions.entry(id).or_insert(Entry {
                        session: Session::new(self.history_length),
                        last_touched: now,
                    })
                }
            };
            state.recency.insert((now, id));
            f(idx, &mut entry.session);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store(capacity: usize) -> SessionStore {
        SessionStore::new(2, capacity)
    }

    #[test]
    fn capacity_evicts_the_lru_session() {
        let store = store(2);
        store.touch(&[1, 2], |_, _| {});
        store.touch(&[1], |_, _| {}); // 2 becomes the LRU
        store.touch(&[3], |_, _| {});
        assert!(store.contains(1) && store.contains(3));
        assert!(!store.contains(2));
        assert_eq!(store.stats().evicted, 1);
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn eviction_behaviour_is_invariant_to_batch_slicing() {
        // The same request sequence, submitted one-by-one vs as one big
        // batch, must leave every session with the same feature window
        // (the determinism contract the gateway leans on, with capacity
        // eviction enabled). Visit `i` pushes the block `[i]`, so a window
        // names the visits it kept, and an evicted session restarts empty.
        let singles = store(2);
        let batched = store(2);
        let sequence: Vec<u64> = vec![0, 9, 17, 3, 9, 0, 25, 3, 17, 9, 0, 33, 9, 41, 0];
        for (i, &id) in sequence.iter().enumerate() {
            singles.touch(&[id], |_, s| s.push(vec![i as f64], 2));
        }
        batched.touch(&sequence, |i, s| s.push(vec![i as f64], 2));
        assert!(batched.stats().evicted > 0, "the sequence never evicted");
        // Probe every id once and compare the observable session state.
        let mut probe: Vec<u64> = sequence.clone();
        probe.sort_unstable();
        probe.dedup();
        let windows = |store: &SessionStore| {
            let mut seen = Vec::new();
            store.touch(&probe, |idx, s| {
                seen.push((probe[idx], s.warmed(2), s.observation(2, 1)));
            });
            seen
        };
        assert_eq!(windows(&singles), windows(&batched));
    }

    #[test]
    fn grouped_visits_preserve_input_order_per_session() {
        let store = store(0);
        let mut seen = Vec::new();
        store.touch(&[5, 5, 5], |idx, session| {
            session.push(vec![idx as f64], 2);
            seen.push(session.observation(2, 1));
        });
        assert_eq!(seen, [[0.0, 0.0], [0.0, 1.0], [1.0, 2.0]]);
    }

    #[test]
    fn state_round_trip_is_byte_identical_and_behaviour_preserving() {
        let source = store(4);
        let sequence: Vec<u64> = vec![0, 9, 17, 3, 9, 0, 25, 3, 17, 9, 0, 33, 9, 41, 0];
        for &id in &sequence {
            source.touch(&[id], |_, s| {
                s.push(vec![id as f64, 0.5], 2);
            });
        }
        let mut w = PayloadWriter::new();
        source.save_payload(&mut w);
        let bytes = w.into_bytes();

        let restored = store(4);
        let mut r = PayloadReader::new(&bytes);
        restored.restore_payload(&mut r, 2).unwrap();
        assert_eq!(restored.stats(), source.stats());

        // Canonical serialization: the restored store re-serializes to the
        // exact same bytes even though its map and index were rebuilt.
        let mut w2 = PayloadWriter::new();
        restored.save_payload(&mut w2);
        assert_eq!(w2.as_bytes(), bytes.as_slice());

        // Behaviour equivalence: future touches (incl. LRU decisions, which
        // depend on the restored clock and LRU stamps) agree.
        let probe: Vec<u64> = vec![49, 9, 0, 57, 17];
        let visit = |store: &SessionStore| {
            let mut seen = Vec::new();
            store.touch(&probe, |idx, s| {
                s.push(vec![idx as f64, 1.0], 2);
                seen.push((probe[idx], s.observation(2, 2), s.warmed(2)));
            });
            seen
        };
        assert_eq!(visit(&source), visit(&restored));
        assert_eq!(source.stats(), restored.stats());
    }

    #[test]
    fn restore_rejects_corrupt_payloads_and_leaves_the_store_unchanged() {
        let source = store(0);
        source.touch(&[1, 2, 3], |_, _| {});
        let mut w = PayloadWriter::new();
        source.save_payload(&mut w);
        let bytes = w.into_bytes();

        // A truncated payload fails with a typed error, and a payload with
        // trailing bytes is refused; neither touches the target store.
        let target = store(0);
        target.touch(&[77], |_, _| {});
        let mut r = PayloadReader::new(&bytes[..bytes.len() - 5]);
        assert!(matches!(
            target.restore_payload(&mut r, 1),
            Err(CodecError::Truncated { .. })
        ));
        let mut padded = bytes.clone();
        padded.push(0);
        let mut r = PayloadReader::new(&padded);
        assert!(matches!(
            target.restore_payload(&mut r, 1),
            Err(CodecError::Invalid(_))
        ));
        assert!(target.contains(77), "failed restore must not clobber state");
        assert_eq!(target.len(), 1);
    }

    #[test]
    fn unbounded_store_never_evicts() {
        let store = store(0);
        let ids: Vec<u64> = (0..100).collect();
        store.touch(&ids, |_, _| {});
        assert_eq!(store.len(), 100);
        assert_eq!(store.stats().evicted, 0);
    }
}
