//! Randomized property tests of the simulator substrate invariants.
//!
//! Originally written with `proptest`; the offline build has no access to
//! crates.io, so each property is checked over a fixed number of
//! pseudo-random cases drawn from a deterministically seeded generator.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use vtm_sim::mobility::{MobilityModel, PerturbedHighway, Position, RandomWaypoint, Velocity};
use vtm_sim::radio::{Db, Dbm, LinkBudget};
use vtm_sim::rsu::Corridor;

/// Runs `check` over `n` independent deterministic cases.
fn cases(n: usize, seed: u64, mut check: impl FnMut(&mut StdRng)) {
    for case in 0..n as u64 {
        let mut rng = StdRng::seed_from_u64(seed ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        check(&mut rng);
    }
}

/// dBm <-> mW conversion round-trips.
#[test]
fn dbm_round_trip() {
    cases(64, 0x21, |rng| {
        let value = rng.gen_range(-160.0..60.0);
        let back = Dbm(value).to_milliwatts().to_dbm();
        assert!((back.0 - value).abs() < 1e-9);
    });
}

/// dB <-> linear conversion round-trips.
#[test]
fn db_round_trip() {
    cases(64, 0x22, |rng| {
        let value = rng.gen_range(-60.0..60.0);
        let back = Db::from_linear(Db(value).to_linear());
        assert!((back.0 - value).abs() < 1e-9);
    });
}

/// Shannon rate is monotone: more bandwidth, more power or a shorter hop
/// never reduce the rate.
#[test]
fn rate_monotonicity() {
    cases(64, 0x23, |rng| {
        let bandwidth = rng.gen_range(1e3..1e8);
        let extra_bandwidth = rng.gen_range(1e3..1e7);
        let distance = rng.gen_range(10.0..5000.0);
        let extra_distance = rng.gen_range(1.0..5000.0);
        let link = LinkBudget::default().with_distance(distance);
        let further = LinkBudget::default().with_distance(distance + extra_distance);
        assert!(link.rate_bps(bandwidth + extra_bandwidth) >= link.rate_bps(bandwidth));
        assert!(link.rate_bps(bandwidth) >= further.rate_bps(bandwidth));
    });
}

/// The highway mobility model keeps vehicles on the road (y unchanged),
/// moving forward, and within its speed band.
#[test]
fn highway_mobility_invariants() {
    cases(64, 0x25, |rng| {
        let seed = rng.gen_range(0..1000u64);
        let speed = rng.gen_range(5.0..40.0);
        let steps = rng.gen_range(1..200usize);
        let model = PerturbedHighway::default();
        let mut mobility_rng = StdRng::seed_from_u64(seed);
        let mut pos = Position::new(0.0, 0.0);
        let mut vel = Velocity::new(speed, 0.0);
        for _ in 0..steps {
            let (p, v) = model.advance(pos, vel, 1.0, &mut mobility_rng);
            assert!(p.x >= pos.x);
            assert_eq!(p.y, 0.0);
            assert!(v.speed() >= model.min_speed - 1e-9);
            assert!(v.speed() <= model.max_speed + 1e-9);
            pos = p;
            vel = v;
        }
    });
}

/// Random-waypoint vehicles never leave their area.
#[test]
fn random_waypoint_stays_in_area() {
    cases(64, 0x26, |rng| {
        let seed = rng.gen_range(0..500u64);
        let steps = rng.gen_range(1..300usize);
        let model = RandomWaypoint::new(2000.0, 800.0, 5.0, 25.0);
        let mut mobility_rng = StdRng::seed_from_u64(seed);
        let mut pos = Position::new(1000.0, 400.0);
        let mut vel = Velocity::default();
        for _ in 0..steps {
            let (p, v) = model.advance(pos, vel, 1.0, &mut mobility_rng);
            assert!(p.x >= 0.0 && p.x <= 2000.0);
            assert!(p.y >= 0.0 && p.y <= 800.0);
            pos = p;
            vel = v;
        }
    });
}

/// The corridor's `covering` query returns an RSU that actually covers the
/// position, and `nearest` is never farther than any other RSU.
#[test]
fn corridor_queries_are_consistent() {
    cases(64, 0x27, |rng| {
        let count = rng.gen_range(1..10usize);
        let spacing = rng.gen_range(200.0..2000.0);
        let x = rng.gen_range(-500.0..20000.0);
        let y = rng.gen_range(-2000.0..2000.0);
        let corridor = Corridor::along_road(count, spacing, 600.0, 50e6, 100.0);
        let p = Position::new(x, y);
        let nearest = corridor.nearest(&p);
        for rsu in corridor.rsus() {
            assert!(nearest.distance_to(&p) <= rsu.distance_to(&p) + 1e-9);
        }
        if let Some(covering) = corridor.covering(&p) {
            assert!(covering.covers(&p));
        }
    });
}
