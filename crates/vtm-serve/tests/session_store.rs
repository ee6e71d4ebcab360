//! Fixed-seed property loop for the bounded [`SessionStore`] (originally a
//! proptest-style suite; rewritten as deterministic seeded loops like the
//! rest of the workspace, so it runs offline and identically on every
//! machine).
//!
//! Invariants exercised across random insert/lookup/evict traffic:
//!
//! * **capacity bound** — the store never holds more than `capacity`;
//! * **LRU victims** — the live sessions are exactly those of a reference
//!   LRU list, so every eviction picks the least-recently-touched id, and
//!   the ids of the latest batch are never the victim;
//! * **LRU reclaim** — an id touched once and never again is evicted once
//!   the store fills with more recently touched ids;
//! * **replay determinism** — the same op sequence on a fresh store yields
//!   a byte-identical payload (the property the gateway's determinism
//!   contract leans on).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vtm_nn::codec::PayloadWriter;
use vtm_serve::SessionStore;

const CAPACITY: usize = 24;
const HISTORY: usize = 3;
const ID_SPACE: u64 = 64;
const COLD_ID: u64 = 1000;

/// One random batch of ids (1..8 ids drawn from the hot id space).
fn random_batch(rng: &mut StdRng) -> Vec<u64> {
    let len = rng.gen_range(1..8usize);
    (0..len).map(|_| rng.gen_range(0..ID_SPACE)).collect()
}

fn payload(store: &SessionStore) -> Vec<u8> {
    let mut w = PayloadWriter::new();
    store.save_payload(&mut w);
    w.into_bytes()
}

#[test]
fn property_loop_capacity_lru_and_replay() {
    for seed in 0..4u64 {
        let store = SessionStore::new(HISTORY, CAPACITY);
        let twin = SessionStore::new(HISTORY, CAPACITY); // replays the identical sequence
        let mut rng = StdRng::seed_from_u64(seed);

        // A session touched exactly once and never again: capacity
        // pressure must reclaim it by the end of the run.
        store.touch(&[COLD_ID], |_, _| {});
        twin.touch(&[COLD_ID], |_, _| {});
        // The reference LRU list, least recently touched first.
        let mut model = vec![COLD_ID];

        for step in 0..400usize {
            let ids = random_batch(&mut rng);
            for s in [&store, &twin] {
                s.touch(&ids, |_, session| {
                    session.push(vec![step as f64; 1], HISTORY);
                });
            }
            for &id in &ids {
                model.retain(|&m| m != id);
                if model.len() == CAPACITY {
                    model.remove(0);
                }
                model.push(id);
            }

            assert!(
                store.len() <= CAPACITY,
                "seed {seed} step {step}: over capacity"
            );
            // The live sessions are exactly the reference list's, so the
            // latest batch survived and every victim was the LRU one.
            assert_eq!(store.len(), model.len(), "seed {seed} step {step}");
            for &id in &model {
                assert!(store.contains(id), "seed {seed} step {step}: {id} evicted");
            }
            // Replay determinism: both stores always agree exactly.
            if step % 50 == 0 {
                assert_eq!(payload(&store), payload(&twin));
            }
        }

        let stats = store.stats();
        assert_eq!(stats.sessions, CAPACITY);
        assert!(stats.evicted > 0, "seed {seed}: capacity never kicked in");
        assert!(
            !store.contains(COLD_ID),
            "seed {seed}: the cold session survived LRU eviction"
        );
        assert_eq!(payload(&store), payload(&twin));
    }
}

#[test]
fn unbounded_config_is_the_identity_policy() {
    // The pre-gateway default: no capacity — nothing is ever reclaimed
    // behind the caller's back.
    let store = SessionStore::new(HISTORY, 0);
    let mut rng = StdRng::seed_from_u64(9);
    for _ in 0..100 {
        let ids = random_batch(&mut rng);
        store.touch(&ids, |_, _| {});
    }
    let stats = store.stats();
    assert_eq!(stats.evicted, 0);
    assert_eq!(stats.sessions as u64, {
        let mut distinct: Vec<u64> = (0..ID_SPACE).filter(|&id| store.contains(id)).collect();
        distinct.dedup();
        distinct.len() as u64
    });
}
