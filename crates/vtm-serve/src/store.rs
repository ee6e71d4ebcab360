//! Sharded, capacity-bounded session store with LRU/TTL eviction.
//!
//! The serving layer keeps one rolling observation window per VMU session.
//! At fleet scale ("millions of users") an unbounded map is a memory leak
//! with extra steps: trips end, vehicles park, ids are never seen again.
//! [`SessionStore`] bounds that state in two independent ways:
//!
//! * **capacity** — each shard holds at most `capacity_per_shard` sessions;
//!   inserting into a full shard evicts the least-recently-touched session
//!   of *that shard only* (eviction never crosses a shard boundary);
//! * **TTL** — sessions untouched for more than `ttl_quotes` logical ticks
//!   are expired: authoritatively checked when the session is next touched,
//!   and lazily swept whenever the shard is locked (memory reclamation).
//!
//! Time is *logical*, not wall-clock, and **per shard**: each shard
//! advances one tick per request it serves, so a session's idle age is
//! "requests its shard has served since it was last touched". Because a
//! shard always sees its requests in submission order no matter how the
//! caller slices the stream into batches, every capacity/TTL decision that
//! affects quote output is a pure function of the request sequence — which
//! is what lets the gateway's determinism contract (single-executor
//! gateway ≡ direct batch calls) extend to stores with eviction enabled.

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
    /// Idle lifetime in logical ticks (one tick per request served *by the
    /// session's shard*); `0` = never expire.
    pub ttl_quotes: u64,
}

impl Default for StoreConfig {
    /// 16 shards, unbounded capacity, no TTL — the pre-gateway behaviour.
    fn default() -> Self {
        Self {
            shards: 16,
            capacity_per_shard: 0,
            ttl_quotes: 0,
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

    /// Overrides the idle TTL in logical ticks (`0` = never expire).
    pub fn with_ttl_quotes(mut self, ttl: u64) -> Self {
        self.ttl_quotes = ttl;
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
    /// Sessions purged because they exceeded the idle TTL.
    pub expired: u64,
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
/// per-shard capacity (LRU eviction) and an idle TTL. See the module docs.
#[derive(Debug)]
pub struct SessionStore {
    config: StoreConfig,
    history_length: usize,
    shards: Vec<Mutex<Shard>>,
    evicted: AtomicU64,
    expired: AtomicU64,
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
            expired: AtomicU64::new(0),
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
            expired: self.expired.load(Ordering::Relaxed),
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

    /// Sweeps every entry of a locked shard whose idle age exceeds the TTL
    /// (memory reclamation; quote-visible expiry is decided at touch time).
    fn purge_expired(&self, shard: &mut Shard) {
        let ttl = self.config.ttl_quotes;
        if ttl == 0 || shard.sessions.is_empty() {
            return;
        }
        let now = shard.tick;
        let before = shard.sessions.len();
        shard
            .sessions
            .retain(|_, entry| now.saturating_sub(entry.last_touched) <= ttl);
        let purged = before - shard.sessions.len();
        if purged > 0 {
            self.expired.fetch_add(purged as u64, Ordering::Relaxed);
        }
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
    /// its entries sorted by session id, then the eviction counters. Two
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
        w.write_u64(self.expired.load(Ordering::Relaxed));
    }

    /// Replaces the store's entire state with one written by
    /// [`SessionStore::save_payload`]. The shard count must match this
    /// store's configuration (shard assignment is a pure function of the
    /// shard count, so restoring across a different sharding would
    /// scatter sessions to the wrong locks).
    ///
    /// # Errors
    ///
    /// Returns a typed [`CodecError`] for truncated or structurally invalid
    /// payloads and for a shard-count mismatch — never panics. On error the
    /// store is left unchanged.
    pub fn restore_payload(&self, r: &mut PayloadReader<'_>) -> Result<(), CodecError> {
        let shards = r.read_usize()?;
        if shards != self.shards.len() {
            return Err(CodecError::Invalid(format!(
                "snapshot has {shards} shards, store has {}",
                self.shards.len()
            )));
        }
        // Decode fully before touching the live shards so a corrupt tail
        // cannot leave the store half-restored. One decoded shard is its
        // logical tick plus `(id, last_touched, session)` rows.
        type DecodedShard = (u64, Vec<(u64, u64, Session)>);
        let mut decoded: Vec<DecodedShard> = Vec::with_capacity(shards);
        for _ in 0..shards {
            let tick = r.read_u64()?;
            let entries = r.read_usize()?;
            let mut sessions = Vec::with_capacity(entries.min(1024));
            for _ in 0..entries {
                let id = r.read_u64()?;
                let last_touched = r.read_u64()?;
                let session = Session::load_payload(r, self.history_length)?;
                sessions.push((id, last_touched, session));
            }
            decoded.push((tick, sessions));
        }
        let evicted = r.read_u64()?;
        let expired = r.read_u64()?;
        for (shard, (tick, sessions)) in self.shards.iter().zip(decoded) {
            let mut shard = shard.lock().expect("shard poisoned");
            shard.tick = tick;
            shard.sessions = sessions
                .into_iter()
                .map(|(id, last_touched, session)| {
                    (
                        id,
                        Entry {
                            session,
                            last_touched,
                        },
                    )
                })
                .collect();
        }
        self.evicted.store(evicted, Ordering::Relaxed);
        self.expired.store(expired, Ordering::Relaxed);
        Ok(())
    }

    /// Records the raw actions behind freshly served quotes into their
    /// sessions' degraded-mode caches, grouping by shard so each touched
    /// shard is locked exactly once.
    ///
    /// This is a *pure write-back*: it advances no logical clock and
    /// refreshes no LRU stamp, so it cannot change any future TTL or
    /// eviction decision — the store's slicing-invariance (and with it the
    /// gateway determinism contract) is untouched. Ids whose session has
    /// already been evicted are skipped, never resurrected.
    pub fn record_last_actions(&self, updates: &[(u64, &[f64])]) {
        let mut by_shard: Vec<Vec<usize>> = vec![Vec::new(); self.shards.len()];
        for (idx, &(id, _)) in updates.iter().enumerate() {
            by_shard[self.shard_of(id)].push(idx);
        }
        for (shard, indices) in self.shards.iter().zip(by_shard.iter()) {
            if indices.is_empty() {
                continue;
            }
            let mut shard = shard.lock().expect("shard poisoned");
            for &idx in indices {
                let (id, action) = updates[idx];
                if let Some(entry) = shard.sessions.get_mut(&id) {
                    entry.session.set_last_action(action.to_vec());
                }
            }
        }
    }

    /// Reads a session's cached last action without touching it: no tick,
    /// no LRU refresh, and deliberately no TTL check — degraded mode would
    /// rather serve a stale quote than none. Returns the action together
    /// with whether the session's observation window was warm.
    pub fn peek_last_action(&self, session: u64) -> Option<(Vec<f64>, bool)> {
        let shard = self.shards[self.shard_of(session)]
            .lock()
            .expect("shard poisoned");
        let entry = shard.sessions.get(&session)?;
        let action = entry.session.last_action()?.to_vec();
        Some((action, entry.session.warmed(self.history_length)))
    }

    /// Visits (creating on demand) the session of every id in `ids`,
    /// calling `f(index_into_ids, &mut Session)` exactly once per id.
    ///
    /// Ids are grouped by shard so each touched shard is locked exactly
    /// once; within a shard, ids are visited in their `ids` order (so
    /// repeated requests for the same session apply in request order).
    /// Every visit advances the shard's logical clock by one tick. A
    /// touched session whose idle age exceeds the TTL restarts cold even
    /// if the lazy sweep has not reclaimed it yet — the expiry decision
    /// uses only per-shard request ticks, so quote-visible behaviour is
    /// invariant to how the request stream is sliced into batches.
    /// Inserting into a full shard evicts that shard's LRU entry first.
    pub fn touch_grouped(&self, ids: &[u64], mut f: impl FnMut(usize, &mut Session)) {
        let mut by_shard: Vec<Vec<usize>> = vec![Vec::new(); self.shards.len()];
        for (idx, &id) in ids.iter().enumerate() {
            by_shard[self.shard_of(id)].push(idx);
        }
        let capacity = self.config.capacity_per_shard;
        let ttl = self.config.ttl_quotes;
        for (shard, indices) in self.shards.iter().zip(by_shard.iter()) {
            if indices.is_empty() {
                continue;
            }
            let mut shard = shard.lock().expect("shard poisoned");
            self.purge_expired(&mut shard);
            for &idx in indices {
                let id = ids[idx];
                let now = shard.tick;
                shard.tick += 1;
                if ttl > 0 {
                    let stale = shard
                        .sessions
                        .get(&id)
                        .is_some_and(|e| now.saturating_sub(e.last_touched) > ttl);
                    if stale {
                        shard.sessions.remove(&id);
                        self.expired.fetch_add(1, Ordering::Relaxed);
                    }
                }
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

    fn store(shards: usize, capacity: usize, ttl: u64) -> SessionStore {
        SessionStore::new(
            2,
            StoreConfig::default()
                .with_shards(shards)
                .with_capacity_per_shard(capacity)
                .with_ttl_quotes(ttl),
        )
    }

    #[test]
    fn capacity_evicts_the_lru_session() {
        let store = store(1, 2, 0);
        store.touch_grouped(&[1, 2], |_, _| {});
        store.touch_grouped(&[1], |_, _| {}); // 2 becomes the LRU
        store.touch_grouped(&[3], |_, _| {});
        assert!(store.contains(1) && store.contains(3));
        assert!(!store.contains(2));
        assert_eq!(store.stats().evicted, 1);
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn ttl_purges_idle_sessions_lazily() {
        let store = store(1, 0, 3);
        store.touch_grouped(&[7], |_, _| {});
        // Ticks 1..=4 touch another id; id 7 ages past the 3-tick TTL.
        for _ in 0..4 {
            store.touch_grouped(&[8], |_, _| {});
        }
        store.touch_grouped(&[9], |_, _| {});
        assert!(!store.contains(7), "idle session must expire");
        assert!(store.contains(8));
        assert!(store.stats().expired >= 1);
    }

    #[test]
    fn ttl_and_eviction_behaviour_are_invariant_to_batch_slicing() {
        // The same request sequence, submitted one-by-one vs as one big
        // batch, must leave every session in the same quote-visible state
        // (the determinism contract the gateway leans on, with TTL and
        // capacity eviction enabled).
        let singles = store(4, 2, 2);
        let batched = store(4, 2, 2);
        let sequence: Vec<u64> = vec![0, 9, 17, 3, 9, 0, 25, 3, 17, 9, 0, 33, 9, 41, 0];
        for &id in &sequence {
            singles.touch_grouped(&[id], |_, s| s.quotes += 1);
        }
        batched.touch_grouped(&sequence, |_, s| s.quotes += 1);
        // Probe every id once and compare the observable session state.
        let mut probe: Vec<u64> = sequence.clone();
        probe.sort_unstable();
        probe.dedup();
        let mut seen_singles = Vec::new();
        singles.touch_grouped(&probe, |idx, s| {
            s.quotes += 1;
            seen_singles.push((probe[idx], s.quotes));
        });
        let mut seen_batched = Vec::new();
        batched.touch_grouped(&probe, |idx, s| {
            s.quotes += 1;
            seen_batched.push((probe[idx], s.quotes));
        });
        seen_singles.sort_unstable();
        seen_batched.sort_unstable();
        assert_eq!(seen_singles, seen_batched);
    }

    #[test]
    fn grouped_visits_preserve_input_order_per_session() {
        let store = store(4, 0, 0);
        let mut seen = Vec::new();
        store.touch_grouped(&[5, 5, 5], |idx, session| {
            session.quotes += 1;
            seen.push((idx, session.quotes));
        });
        assert_eq!(seen, vec![(0, 1), (1, 2), (2, 3)]);
    }

    #[test]
    fn last_action_write_back_is_invisible_to_eviction_and_ttl() {
        let store = store(1, 2, 0);
        store.touch_grouped(&[1, 2], |_, _| {});
        store.touch_grouped(&[1], |_, _| {}); // 2 becomes the LRU
        assert_eq!(store.peek_last_action(1), None);
        // Writing 2's last action must NOT refresh its LRU stamp…
        store.record_last_actions(&[(2, &[9.5][..]), (1, &[4.0][..])]);
        assert_eq!(store.peek_last_action(2), Some((vec![9.5], false)));
        // …and peeking must not either: inserting 3 still evicts 2.
        store.touch_grouped(&[3], |_, _| {});
        assert!(!store.contains(2));
        assert_eq!(store.peek_last_action(2), None);
        assert_eq!(store.peek_last_action(1), Some((vec![4.0], false)));
        // Absent sessions are skipped, never resurrected.
        store.record_last_actions(&[(99, &[1.0][..])]);
        assert!(!store.contains(99));
    }

    #[test]
    fn state_round_trip_is_byte_identical_and_behaviour_preserving() {
        let source = store(4, 2, 3);
        let sequence: Vec<u64> = vec![0, 9, 17, 3, 9, 0, 25, 3, 17, 9, 0, 33, 9, 41, 0];
        for &id in &sequence {
            source.touch_grouped(&[id], |_, s| {
                s.push(vec![id as f64, 0.5], 2);
            });
        }
        let mut w = PayloadWriter::new();
        source.save_payload(&mut w);
        let bytes = w.into_bytes();

        let restored = store(4, 2, 3);
        let mut r = PayloadReader::new(&bytes);
        restored.restore_payload(&mut r).unwrap();
        assert!(r.is_exhausted());
        assert_eq!(restored.stats(), source.stats());

        // Canonical serialization: the restored store re-serializes to the
        // exact same bytes even though its HashMaps were rebuilt.
        let mut w2 = PayloadWriter::new();
        restored.save_payload(&mut w2);
        assert_eq!(w2.as_bytes(), bytes.as_slice());

        // Behaviour equivalence: future touches (incl. TTL/LRU decisions,
        // which depend on the restored ticks and LRU stamps) agree.
        let probe: Vec<u64> = vec![49, 9, 0, 57, 17];
        let mut seen_source = Vec::new();
        source.touch_grouped(&probe, |idx, s| {
            s.quotes += 1;
            seen_source.push((probe[idx], s.quotes, s.warmed(2)));
        });
        let mut seen_restored = Vec::new();
        restored.touch_grouped(&probe, |idx, s| {
            s.quotes += 1;
            seen_restored.push((probe[idx], s.quotes, s.warmed(2)));
        });
        assert_eq!(seen_source, seen_restored);
        assert_eq!(source.stats(), restored.stats());
    }

    #[test]
    fn restore_rejects_mismatched_shard_count_and_corrupt_payloads() {
        let source = store(2, 0, 0);
        source.touch_grouped(&[1, 2, 3], |_, _| {});
        let mut w = PayloadWriter::new();
        source.save_payload(&mut w);
        let bytes = w.into_bytes();

        let wrong_shards = store(4, 0, 0);
        let mut r = PayloadReader::new(&bytes);
        assert!(matches!(
            wrong_shards.restore_payload(&mut r),
            Err(CodecError::Invalid(_))
        ));

        // A truncated payload fails with a typed error and leaves the
        // target store untouched.
        let target = store(2, 0, 0);
        target.touch_grouped(&[77], |_, _| {});
        let mut r = PayloadReader::new(&bytes[..bytes.len() - 5]);
        assert!(matches!(
            target.restore_payload(&mut r),
            Err(CodecError::Truncated { .. })
        ));
        assert!(target.contains(77), "failed restore must not clobber state");
    }

    #[test]
    fn unbounded_store_never_evicts() {
        let store = store(4, 0, 0);
        let ids: Vec<u64> = (0..100).collect();
        store.touch_grouped(&ids, |_, _| {});
        assert_eq!(store.len(), 100);
        assert_eq!(store.stats().evicted, 0);
        assert_eq!(store.stats().expired, 0);
        assert!(store.remove(42));
        assert!(!store.remove(42));
        assert_eq!(store.len(), 99);
    }
}
