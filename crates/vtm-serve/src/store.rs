//! Sharded, capacity-bounded session store with LRU eviction.
//!
//! The serving layer keeps one rolling observation window per VMU session.
//! At fleet scale ("millions of users") an unbounded map is a memory leak
//! with extra steps: trips end, vehicles park, ids are never seen again.
//! [`SessionStore`] bounds that state by **capacity**: each shard holds at
//! most `capacity_per_shard` sessions, and inserting into a full shard
//! evicts the least-recently-touched session of *that shard only*
//! (eviction never crosses a shard boundary).
//!
//! Time is *logical*, not wall-clock, and **per shard**: each shard
//! advances one tick per request it serves, so a session's recency is
//! "requests its shard has served since it was last touched". Because a
//! shard always sees its requests in submission order no matter how the
//! caller slices the stream into batches, every eviction decision that
//! affects quote output is a pure function of the request sequence — which
//! is what lets the gateway's determinism contract (gateway ≡ direct batch
//! calls, at any executor count) extend to stores with eviction enabled.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use vtm_nn::codec::{CodecError, PayloadReader, PayloadWriter};

use crate::session::Session;

/// Sizing and eviction policy of a [`SessionStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreConfig {
    /// Number of independent mutex shards (lock granularity; clamped ≥ 1).
    pub shards: usize,
    /// Maximum live sessions per shard; `0` = unbounded. Inserting into a
    /// full shard evicts that shard's least-recently-touched session.
    pub capacity_per_shard: usize,
}

impl Default for StoreConfig {
    /// 16 shards, unbounded capacity — the pre-gateway behaviour.
    fn default() -> Self {
        Self {
            shards: 16,
            capacity_per_shard: 0,
        }
    }
}

impl StoreConfig {
    /// Overrides the shard count (clamped to at least 1).
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Overrides the per-shard session capacity (`0` = unbounded).
    pub fn with_capacity_per_shard(mut self, capacity: usize) -> Self {
        self.capacity_per_shard = capacity;
        self
    }
}

/// Aggregate counters of a [`SessionStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// Live sessions across all shards.
    pub sessions: usize,
    /// Sessions evicted because their shard hit capacity.
    pub evicted: u64,
}

/// One shard entry: the session plus its last-touched shard tick.
#[derive(Debug)]
struct Entry {
    session: Session,
    last_touched: u64,
}

/// One shard: its sessions plus its own logical clock (one tick per
/// request this shard has served — slicing-invariant, see module docs).
#[derive(Debug, Default)]
struct Shard {
    sessions: HashMap<u64, Entry>,
    tick: u64,
}

/// A sharded map from session id to rolling observation state, bounded by
/// per-shard capacity (LRU eviction). See the module docs.
#[derive(Debug)]
pub struct SessionStore {
    config: StoreConfig,
    history_length: usize,
    shards: Vec<Mutex<Shard>>,
    evicted: AtomicU64,
}

impl SessionStore {
    /// Creates an empty store for sessions with the given history window.
    ///
    /// # Panics
    ///
    /// Panics if `history_length` is zero.
    pub fn new(history_length: usize, config: StoreConfig) -> Self {
        assert!(history_length > 0, "history length must be positive");
        let shards = (0..config.shards.max(1))
            .map(|_| Mutex::new(Shard::default()))
            .collect();
        Self {
            config,
            history_length,
            shards,
            evicted: AtomicU64::new(0),
        }
    }

    /// The store's configuration.
    pub fn config(&self) -> &StoreConfig {
        &self.config
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Which shard a session id lands in: the workspace-wide
    /// [`vtm_core::routing::session_shard`] hash, so lock sharding here and
    /// gateway-shard routing in the fabric agree on one pure function.
    pub fn shard_of(&self, session: u64) -> usize {
        vtm_core::routing::session_shard(session, self.shards.len())
    }

    /// Live sessions in one shard.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn shard_len(&self, shard: usize) -> usize {
        self.shards[shard]
            .lock()
            .expect("shard poisoned")
            .sessions
            .len()
    }

    /// The session ids currently alive in one shard, in ascending order
    /// (test/diagnostic helper; takes the shard lock).
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn shard_sessions(&self, shard: usize) -> Vec<u64> {
        let mut ids: Vec<u64> = self.shards[shard]
            .lock()
            .expect("shard poisoned")
            .sessions
            .keys()
            .copied()
            .collect();
        ids.sort_unstable();
        ids
    }

    /// Whether a session is currently alive (does not touch it).
    pub fn contains(&self, session: u64) -> bool {
        self.shards[self.shard_of(session)]
            .lock()
            .expect("shard poisoned")
            .sessions
            .contains_key(&session)
    }

    /// Total live sessions across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("shard poisoned").sessions.len())
            .sum()
    }

    /// Whether no session is alive.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Aggregate counters.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            sessions: self.len(),
            evicted: self.evicted.load(Ordering::Relaxed),
        }
    }

    /// Drops one session; returns whether it existed.
    pub fn remove(&self, session: u64) -> bool {
        self.shards[self.shard_of(session)]
            .lock()
            .expect("shard poisoned")
            .sessions
            .remove(&session)
            .is_some()
    }

    /// Evicts the least-recently-touched entry of a locked shard.
    fn evict_lru(&self, sessions: &mut HashMap<u64, Entry>) {
        if let Some(&victim) = sessions
            .iter()
            .min_by_key(|(id, entry)| (entry.last_touched, **id))
            .map(|(id, _)| id)
        {
            sessions.remove(&victim);
            self.evicted.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Serializes the complete store state into a payload in a *canonical*
    /// form: shards in index order, each shard's logical clock followed by
    /// its entries sorted by session id, then the eviction counter. Two
    /// stores holding the same logical state always serialize to identical
    /// bytes, so the payload doubles as the store's determinism digest
    /// input (replay tests hash it with FNV-1a).
    ///
    /// Locks each shard in turn; the caller is responsible for quiescing
    /// concurrent traffic if a frame-consistent snapshot is required.
    pub fn save_payload(&self, w: &mut PayloadWriter) {
        w.write_usize(self.shards.len());
        for shard in &self.shards {
            let shard = shard.lock().expect("shard poisoned");
            w.write_u64(shard.tick);
            let mut ids: Vec<u64> = shard.sessions.keys().copied().collect();
            ids.sort_unstable();
            w.write_usize(ids.len());
            for id in ids {
                let entry = &shard.sessions[&id];
                w.write_u64(id);
                w.write_u64(entry.last_touched);
                entry.session.save_payload(w);
            }
        }
        w.write_u64(self.evicted.load(Ordering::Relaxed));
    }

    /// Replaces the store's entire state with one written by
    /// [`SessionStore::save_payload`] for sessions of `features` values per
    /// round. The shard count must match this store's configuration (shard
    /// assignment is a pure function of the shard count, so restoring
    /// across a different sharding would scatter sessions to the wrong
    /// locks), every id must be listed, in strictly ascending order, under
    /// the shard [`SessionStore::shard_of`] names, no shard may list more
    /// sessions than `capacity_per_shard` (eviction only keeps a full
    /// shard full, so it would never shrink back), and every session must
    /// pass [`Session::load_payload`]'s checks — the same width and
    /// finiteness admission holds a request to.
    ///
    /// # Errors
    ///
    /// Returns a typed [`CodecError`] for truncated or structurally invalid
    /// payloads, for a shard-count mismatch and for a shard over capacity —
    /// never panics. On error the store is left unchanged.
    pub fn restore_payload(
        &self,
        r: &mut PayloadReader<'_>,
        features: usize,
    ) -> Result<(), CodecError> {
        let shards = r.read_usize()?;
        if shards != self.shards.len() {
            return Err(CodecError::Invalid(format!(
                "snapshot has {shards} shards, store has {}",
                self.shards.len()
            )));
        }
        // Decode fully before touching the live shards so a corrupt tail
        // cannot leave the store half-restored.
        let mut decoded = Vec::with_capacity(shards);
        for index in 0..shards {
            let mut shard = Shard {
                sessions: HashMap::new(),
                tick: r.read_u64()?,
            };
            let count = r.read_usize()?;
            let capacity = self.config.capacity_per_shard;
            if capacity > 0 && count > capacity {
                return Err(CodecError::Invalid(format!(
                    "shard {index} lists {count} sessions, capacity is {capacity}"
                )));
            }
            let mut previous = None;
            for _ in 0..count {
                let id = r.read_u64()?;
                if previous.is_some_and(|previous| previous >= id) {
                    return Err(CodecError::Invalid(format!(
                        "shard {index} lists session {id} out of ascending order"
                    )));
                }
                if self.shard_of(id) != index {
                    return Err(CodecError::Invalid(format!(
                        "session {id} is listed under shard {index}, belongs to shard {}",
                        self.shard_of(id)
                    )));
                }
                previous = Some(id);
                let last_touched = r.read_u64()?;
                let session = Session::load_payload(r, self.history_length, features)?;
                shard.sessions.insert(
                    id,
                    Entry {
                        session,
                        last_touched,
                    },
                );
            }
            decoded.push(shard);
        }
        let evicted = r.read_u64()?;
        for (live, shard) in self.shards.iter().zip(decoded) {
            *live.lock().expect("shard poisoned") = shard;
        }
        self.evicted.store(evicted, Ordering::Relaxed);
        Ok(())
    }

    /// Visits (creating on demand) the session of every id in `ids`,
    /// calling `f(index_into_ids, &mut Session)` exactly once per id.
    ///
    /// Ids are grouped by shard so each touched shard is locked exactly
    /// once; within a shard, ids are visited in their `ids` order (so
    /// repeated requests for the same session apply in request order).
    /// Every visit advances the shard's logical clock by one tick and
    /// stamps the session with it. Inserting into a full shard evicts that
    /// shard's LRU entry first; the choice uses only per-shard request
    /// ticks, so it is invariant to how the request stream is sliced into
    /// batches.
    pub fn touch_grouped(&self, ids: &[u64], mut f: impl FnMut(usize, &mut Session)) {
        let mut by_shard: Vec<Vec<usize>> = vec![Vec::new(); self.shards.len()];
        for (idx, &id) in ids.iter().enumerate() {
            by_shard[self.shard_of(id)].push(idx);
        }
        let capacity = self.config.capacity_per_shard;
        for (shard, indices) in self.shards.iter().zip(by_shard.iter()) {
            if indices.is_empty() {
                continue;
            }
            let mut shard = shard.lock().expect("shard poisoned");
            for &idx in indices {
                let id = ids[idx];
                let now = shard.tick;
                shard.tick += 1;
                if !shard.sessions.contains_key(&id)
                    && capacity > 0
                    && shard.sessions.len() >= capacity
                {
                    self.evict_lru(&mut shard.sessions);
                }
                let entry = shard.sessions.entry(id).or_insert_with(|| Entry {
                    session: Session::new(self.history_length),
                    last_touched: now,
                });
                entry.last_touched = now;
                f(idx, &mut entry.session);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store(shards: usize, capacity: usize) -> SessionStore {
        SessionStore::new(
            2,
            StoreConfig::default()
                .with_shards(shards)
                .with_capacity_per_shard(capacity),
        )
    }

    #[test]
    fn capacity_evicts_the_lru_session() {
        let store = store(1, 2);
        store.touch_grouped(&[1, 2], |_, _| {});
        store.touch_grouped(&[1], |_, _| {}); // 2 becomes the LRU
        store.touch_grouped(&[3], |_, _| {});
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
        let singles = store(4, 2);
        let batched = store(4, 2);
        let sequence: Vec<u64> = vec![0, 9, 17, 3, 9, 0, 25, 3, 17, 9, 0, 33, 9, 41, 0];
        for (i, &id) in sequence.iter().enumerate() {
            singles.touch_grouped(&[id], |_, s| s.push(vec![i as f64], 2));
        }
        batched.touch_grouped(&sequence, |i, s| s.push(vec![i as f64], 2));
        assert!(batched.stats().evicted > 0, "the sequence never evicted");
        // Probe every id once and compare the observable session state.
        let mut probe: Vec<u64> = sequence.clone();
        probe.sort_unstable();
        probe.dedup();
        let windows = |store: &SessionStore| {
            let mut seen = Vec::new();
            store.touch_grouped(&probe, |idx, s| {
                seen.push((probe[idx], s.warmed(2), s.observation(2, 1)));
            });
            seen.sort_by_key(|&(id, ..)| id);
            seen
        };
        assert_eq!(windows(&singles), windows(&batched));
    }

    #[test]
    fn grouped_visits_preserve_input_order_per_session() {
        let store = store(4, 0);
        let mut seen = Vec::new();
        store.touch_grouped(&[5, 5, 5], |idx, session| {
            session.push(vec![idx as f64], 2);
            seen.push(session.observation(2, 1));
        });
        assert_eq!(seen, [[0.0, 0.0], [0.0, 1.0], [1.0, 2.0]]);
    }

    #[test]
    fn state_round_trip_is_byte_identical_and_behaviour_preserving() {
        let source = store(4, 2);
        let sequence: Vec<u64> = vec![0, 9, 17, 3, 9, 0, 25, 3, 17, 9, 0, 33, 9, 41, 0];
        for &id in &sequence {
            source.touch_grouped(&[id], |_, s| {
                s.push(vec![id as f64, 0.5], 2);
            });
        }
        let mut w = PayloadWriter::new();
        source.save_payload(&mut w);
        let bytes = w.into_bytes();

        let restored = store(4, 2);
        let mut r = PayloadReader::new(&bytes);
        restored.restore_payload(&mut r, 2).unwrap();
        assert!(r.is_exhausted());
        assert_eq!(restored.stats(), source.stats());

        // Canonical serialization: the restored store re-serializes to the
        // exact same bytes even though its HashMaps were rebuilt.
        let mut w2 = PayloadWriter::new();
        restored.save_payload(&mut w2);
        assert_eq!(w2.as_bytes(), bytes.as_slice());

        // Behaviour equivalence: future touches (incl. LRU decisions, which
        // depend on the restored ticks and LRU stamps) agree.
        let probe: Vec<u64> = vec![49, 9, 0, 57, 17];
        let visit = |store: &SessionStore| {
            let mut seen = Vec::new();
            store.touch_grouped(&probe, |idx, s| {
                s.push(vec![idx as f64, 1.0], 2);
                seen.push((probe[idx], s.observation(2, 2), s.warmed(2)));
            });
            seen
        };
        assert_eq!(visit(&source), visit(&restored));
        assert_eq!(source.stats(), restored.stats());
    }

    #[test]
    fn restore_rejects_mismatched_shard_count_and_corrupt_payloads() {
        let source = store(2, 0);
        source.touch_grouped(&[1, 2, 3], |_, _| {});
        let mut w = PayloadWriter::new();
        source.save_payload(&mut w);
        let bytes = w.into_bytes();

        let wrong_shards = store(4, 0);
        let mut r = PayloadReader::new(&bytes);
        assert!(matches!(
            wrong_shards.restore_payload(&mut r, 1),
            Err(CodecError::Invalid(_))
        ));

        // A truncated payload fails with a typed error and leaves the
        // target store untouched.
        let target = store(2, 0);
        target.touch_grouped(&[77], |_, _| {});
        let mut r = PayloadReader::new(&bytes[..bytes.len() - 5]);
        assert!(matches!(
            target.restore_payload(&mut r, 1),
            Err(CodecError::Truncated { .. })
        ));
        assert!(target.contains(77), "failed restore must not clobber state");
    }

    #[test]
    fn unbounded_store_never_evicts() {
        let store = store(4, 0);
        let ids: Vec<u64> = (0..100).collect();
        store.touch_grouped(&ids, |_, _| {});
        assert_eq!(store.len(), 100);
        assert_eq!(store.stats().evicted, 0);
        assert!(store.remove(42));
        assert!(!store.remove(42));
        assert_eq!(store.len(), 99);
    }
}
