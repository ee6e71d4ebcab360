//! Quote and session-state bits every build of the serving path must
//! reproduce.
//!
//! A greedy f64 [`PricingService`] with an evicting session store serves a
//! fixed synthetic request stream, and the test compares an FNV-1a digest of
//! every quoted price, and the final [`PricingService::state_digest`], with
//! constants. The constants were computed by a baseline x86-64 (SSE2) build;
//! the test must pass unedited when the workspace is built for x86-64-v3
//! (AVX2), in debug and in release (see `docs/NUMERICS.md`, "Same bits at
//! every ISA level"). The greedy f64 path calls no libm function (`tanh` is
//! `vtm-nn`'s own, the normalizer uses `sqrt`), so the constants do not
//! depend on the C library either.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use vtm_nn::codec::fnv1a;
use vtm_rl::env::ActionSpace;
use vtm_rl::ppo::{PpoAgent, PpoConfig};
use vtm_rl::running_stat::RunningMeanStd;
use vtm_serve::{PricingService, QuoteRequest, ServiceConfig};

const HISTORY: usize = 4;
const FEATURES: usize = 3;
/// Twice what the store holds (4 shards x 3 sessions), so sessions evict.
const SESSIONS: u64 = 24;

fn service() -> PricingService {
    let obs_dim = HISTORY * FEATURES;
    let mut agent = PpoAgent::new(
        PpoConfig::new(obs_dim, 1).with_seed(11),
        ActionSpace::scalar(5.0, 50.0),
    );
    let mut rng = StdRng::seed_from_u64(12);
    let mut normalizer = RunningMeanStd::new(obs_dim);
    for _ in 0..64 {
        let obs: Vec<f64> = (0..obs_dim).map(|_| rng.gen_range(0.0..4.0)).collect();
        normalizer.update(&obs);
    }
    agent.set_obs_normalizer(Some(normalizer));
    let config = ServiceConfig::new(HISTORY, FEATURES)
        .with_shards(4)
        .with_session_capacity(3);
    PricingService::from_snapshot(&agent.snapshot(), config).unwrap()
}

#[test]
fn greedy_f64_quotes_and_state_digest_are_pinned() {
    let service = service();
    let mut rng = StdRng::seed_from_u64(13);
    let mut prices = Vec::new();
    for round in 0..40_u64 {
        // Batches of 1 to 16 requests over a drifting window of sessions;
        // every fifth round goes through the single-request path.
        let len = rng.gen_range(1..17_usize);
        let requests: Vec<QuoteRequest> = (0..len)
            .map(|_| {
                let session = (round + rng.gen_range(0..8_u64)) % SESSIONS;
                let features = (0..FEATURES).map(|_| rng.gen_range(0.0..4.0)).collect();
                QuoteRequest::new(session, features)
            })
            .collect();
        let quotes = if round % 5 == 0 {
            let one = |r: &QuoteRequest| service.quote_one(r).unwrap();
            requests.iter().map(one).collect()
        } else {
            service.quote_batch(&requests).unwrap()
        };
        prices.extend(quotes.iter().map(|q| q.price().to_bits()));
    }
    assert!(service.stats().evicted > 0, "the store never evicted");
    let bytes: Vec<u8> = prices.iter().flat_map(|p| p.to_le_bytes()).collect();
    assert_eq!(fnv1a(&bytes), 0x59d9_275d_f7ee_005e);
    assert_eq!(service.state_digest(), 0xf8c6_622f_b68d_5b59);
}
