//! Deterministic session-keyed routing: the single hash function that maps
//! a session id to a shard, shared by every layer that partitions
//! per-session state.
//!
//! The gateway fabric routes whole sessions to independent gateway shards
//! with this function, and fabric replay and load generation partition
//! request streams with it. Keeping one public pure function (instead of
//! ad-hoc copies) pins the contract the fabric relies on: the assignment
//! depends only on `(session, shard_count)`, so it is stable across
//! restarts that preserve the shard count, and per-session state never
//! crosses shards.

use crate::registry::RequestFrame;

/// 2⁶⁴ / φ — the golden-ratio increment used across the workspace for
/// multiplicative hashing and seed-stream decorrelation.
pub const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64 finalizer: a full-avalanche bijective mixer over `u64`.
///
/// Useful to derive *independent* routing decisions from one session id:
/// salting the input (`splitmix64(session ^ SALT)`) yields a hash stream
/// decorrelated from [`session_shard`], which is how the fabric assigns
/// A/B arms without correlating them with shard placement.
#[must_use]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(GOLDEN);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The session→shard hash: multiplicative (Fibonacci) hashing of the
/// session id, folded onto `0..shards`.
///
/// Pure in `(session, shards)`: the same session always lands on the same
/// shard for a given shard count, across threads, processes and restarts.
/// `shards == 0` is treated as one shard so the function is total.
#[must_use]
pub fn session_shard(session: u64, shards: usize) -> usize {
    if shards <= 1 {
        return 0;
    }
    (session.wrapping_add(1).wrapping_mul(GOLDEN) >> 32) as usize % shards
}

/// Splits one round of request frames into per-shard lanes keyed by
/// [`session_shard`], preserving the intra-shard submission order.
///
/// This is the load-generation dual of fabric routing: a bench driving N
/// gateway shards can pre-partition each `request_stream` round so every
/// ingress lane offers exactly the traffic its shard would receive.
#[must_use]
pub fn route_frames(frames: &[RequestFrame], shards: usize) -> Vec<Vec<RequestFrame>> {
    let lanes = shards.max(1);
    let mut routed: Vec<Vec<RequestFrame>> = (0..lanes).map(|_| Vec::new()).collect();
    for frame in frames {
        routed[session_shard(frame.session, lanes)].push(frame.clone());
    }
    routed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_shard_is_pure_total_and_in_range() {
        for shards in [0usize, 1, 2, 3, 7, 16] {
            for session in (0..2048u64).chain([u64::MAX, u64::MAX - 1]) {
                let shard = session_shard(session, shards);
                assert!(shard < shards.max(1));
                assert_eq!(shard, session_shard(session, shards), "pure function");
            }
        }
    }

    /// The exact assignment is part of the persistence contract (restores
    /// and replays assume it), so pin a few values.
    #[test]
    fn session_shard_matches_the_pinned_golden_formula() {
        for shards in [2usize, 4, 16] {
            for session in [0u64, 1, 2, 41, 1_000_003, u64::MAX] {
                let expected =
                    (session.wrapping_add(1).wrapping_mul(GOLDEN) >> 32) as usize % shards;
                assert_eq!(session_shard(session, shards), expected);
            }
        }
    }

    #[test]
    fn session_shard_spreads_sessions_evenly_enough() {
        let shards = 8;
        let mut counts = vec![0usize; shards];
        for session in 0..8000u64 {
            counts[session_shard(session, shards)] += 1;
        }
        for &count in &counts {
            assert!(
                (800..=1200).contains(&count),
                "shard load {count} outside ±20% of the 1000 mean: {counts:?}"
            );
        }
    }

    #[test]
    fn splitmix64_avalanches_and_is_deterministic() {
        // Reference values of the standard SplitMix64 finalizer.
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(1), 0x910A_2DEC_8902_5CC1);
        // Salting decorrelates: parity of the salted hash disagrees with the
        // unsalted shard parity on a healthy fraction of sessions.
        let mut disagree = 0;
        for session in 0..4096u64 {
            let a = session_shard(session, 2);
            let b = (splitmix64(session ^ GOLDEN) % 2) as usize;
            if a != b {
                disagree += 1;
            }
        }
        assert!((1024..=3072).contains(&disagree), "disagree = {disagree}");
    }

    #[test]
    fn route_frames_partitions_by_session_and_keeps_order() {
        let frames: Vec<RequestFrame> = (0..64u64)
            .map(|s| RequestFrame {
                session: s % 13,
                features: vec![s as f64],
            })
            .collect();
        let routed = route_frames(&frames, 4);
        assert_eq!(routed.len(), 4);
        assert_eq!(routed.iter().map(Vec::len).sum::<usize>(), frames.len());
        for (shard, lane) in routed.iter().enumerate() {
            let mut last_seen = [f64::NEG_INFINITY; 13];
            for frame in lane {
                assert_eq!(session_shard(frame.session, 4), shard);
                // Intra-session order is preserved (features increase).
                assert!(frame.features[0] > last_seen[frame.session as usize]);
                last_seen[frame.session as usize] = frame.features[0];
            }
        }
        // Zero shards degrades to a single lane.
        assert_eq!(route_frames(&frames, 0).len(), 1);
    }
}
