//! Fixed-seed property loop for the sharded, bounded [`SessionStore`]
//! (originally a proptest-style suite; rewritten as deterministic seeded
//! loops like the rest of the workspace, so it runs offline and identically
//! on every machine).
//!
//! Invariants exercised across random insert/lookup/evict/remove traffic:
//!
//! * **capacity bound** — no shard ever exceeds `capacity_per_shard`;
//! * **LRU safety** — the most recently touched id is never the eviction
//!   victim;
//! * **shard isolation** — every live id lives in exactly the shard its
//!   hash maps to, so eviction in one shard cannot corrupt another;
//! * **LRU reclaim** — an id touched once and never again is evicted once
//!   its shard fills with more recently touched ids;
//! * **replay determinism** — the same op sequence on a fresh store yields
//!   bit-identical shard contents (the property the gateway's determinism
//!   contract leans on).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vtm_serve::{SessionStore, StoreConfig};

const SHARDS: usize = 4;
const CAPACITY: usize = 6;
const HISTORY: usize = 3;
const ID_SPACE: u64 = 64;
const COLD_ID: u64 = 1000;

fn bounded_store() -> SessionStore {
    SessionStore::new(
        HISTORY,
        StoreConfig::default()
            .with_shards(SHARDS)
            .with_capacity_per_shard(CAPACITY),
    )
}

/// One random batch of ids (1..8 ids drawn from the hot id space).
fn random_batch(rng: &mut StdRng) -> Vec<u64> {
    let len = rng.gen_range(1..8usize);
    (0..len).map(|_| rng.gen_range(0..ID_SPACE)).collect()
}

#[test]
fn property_loop_capacity_and_shard_isolation() {
    for seed in 0..4u64 {
        let store = bounded_store();
        let twin = bounded_store(); // replays the identical sequence
        let mut rng = StdRng::seed_from_u64(seed);

        // A session touched exactly once and never again: capacity
        // pressure must reclaim it by the end of the run.
        store.touch_grouped(&[COLD_ID], |_, _| {});
        twin.touch_grouped(&[COLD_ID], |_, _| {});

        for step in 0..400usize {
            let ids = random_batch(&mut rng);
            for s in [&store, &twin] {
                s.touch_grouped(&ids, |_, session| {
                    session.push(vec![step as f64; 1], HISTORY);
                });
            }

            // Capacity bound, per shard, after every batch.
            for shard in 0..store.shard_count() {
                assert!(
                    store.shard_len(shard) <= CAPACITY,
                    "seed {seed} step {step}: shard {shard} over capacity"
                );
            }
            // The most recently touched id must have survived its own batch.
            assert!(store.contains(*ids.last().unwrap()));
            // Shard isolation: every live id sits in the shard its hash
            // names, and nowhere else.
            let mut live = 0;
            for shard in 0..store.shard_count() {
                for id in store.shard_sessions(shard) {
                    assert_eq!(
                        store.shard_of(id),
                        shard,
                        "seed {seed} step {step}: id {id} leaked into shard {shard}"
                    );
                    live += 1;
                }
            }
            assert_eq!(live, store.len());

            // Occasional explicit removal (the `end_session` path).
            if rng.gen_range(0..4usize) == 0 {
                let id = rng.gen_range(0..ID_SPACE);
                let existed = store.contains(id);
                assert_eq!(store.remove(id), existed);
                assert!(!store.contains(id));
                let _ = twin.remove(id);
            }

            // Replay determinism: both stores always agree exactly.
            if step % 50 == 0 {
                for shard in 0..store.shard_count() {
                    assert_eq!(store.shard_sessions(shard), twin.shard_sessions(shard));
                }
            }
        }

        let stats = store.stats();
        assert!(stats.sessions <= SHARDS * CAPACITY);
        assert!(stats.evicted > 0, "seed {seed}: capacity never kicked in");
        assert!(
            !store.contains(COLD_ID),
            "seed {seed}: the cold session survived its shard's LRU eviction"
        );
    }
}

#[test]
fn unbounded_config_is_the_identity_policy() {
    // The pre-gateway default: no capacity — nothing is ever reclaimed
    // behind the caller's back.
    let store = SessionStore::new(HISTORY, StoreConfig::default().with_shards(SHARDS));
    let mut rng = StdRng::seed_from_u64(9);
    for _ in 0..100 {
        let ids = random_batch(&mut rng);
        store.touch_grouped(&ids, |_, _| {});
    }
    let stats = store.stats();
    assert_eq!(stats.evicted, 0);
    assert_eq!(stats.sessions as u64, {
        let mut distinct: Vec<u64> = (0..ID_SPACE).filter(|&id| store.contains(id)).collect();
        distinct.dedup();
        distinct.len() as u64
    });
}
