//! Pins the fused, allocation-free PPO update path bit-identical to the
//! pre-fusion reference implementation on a fixed-seed training run
//! (obs_dim 7, 64x64 MLP, mini-batch 20, M = 10 epochs), and across batch,
//! observation and action shapes. The paper's two-VMU market observes
//! `history_length × (1 + VMUs)` = 4 × 3 = 12 values (what the benchmark's
//! `train` workload trains on), which is the obs_dim 12 case below.
//!
//! Every kernel the fused path uses (the register-tiled products behind
//! `affine_into`, `matmul_at_b_into` and the packed `dZ · Wᵀ`, the batched
//! Gaussian row ops, the shared Adam slice kernel) accumulates in the same
//! floating-point order as the allocating reference, and the concurrently
//! run actor and critic halves share no parameter or optimizer state, so
//! the comparison below is exact equality, not a tolerance. The tiles'
//! vector code exists only in optimized builds, so CI also runs this file
//! with `--release`.

use vtm_bench::{update_bench_agent, update_bench_samples};
use vtm_rl::env::ActionSpace;
use vtm_rl::ppo::{PpoAgent, PpoConfig};

#[test]
fn fused_update_matches_reference_bitwise_over_training_run() {
    let mut fused = update_bench_agent(99);
    let mut reference = fused.clone();
    let probe: Vec<Vec<f64>> = (0..5)
        .map(|i| {
            (0..7)
                .map(|j| (i as f64 - 2.0) * 0.3 + j as f64 * 0.1)
                .collect()
        })
        .collect();

    // A multi-update training run: divergence anywhere would compound
    // through the Adam moments and surface in later rounds.
    for round in 0..5 {
        let samples = update_bench_samples(&fused, 200, 1000 + round);
        let sf = fused.update(&samples);
        let sr = reference.update_reference(&samples);
        assert_eq!(sf, sr, "update stats diverged at round {round}");
        assert_eq!(
            sf.gradient_steps,
            10 * 10,
            "M = 10 epochs x 200/20 minibatches"
        );
        assert_eq!(
            fused.log_std(),
            reference.log_std(),
            "log_std diverged at round {round}"
        );
        assert_eq!(
            fused.actor(),
            reference.actor(),
            "actor parameters diverged at round {round}"
        );
        assert_eq!(
            fused.critic(),
            reference.critic(),
            "critic parameters diverged at round {round}"
        );
        for obs in &probe {
            assert_eq!(
                fused.act_deterministic(obs),
                reference.act_deterministic(obs),
                "policy output diverged at round {round}"
            );
            assert_eq!(
                fused.value(obs),
                reference.value(obs),
                "value output diverged at round {round}"
            );
        }
    }
    // Full-state comparison (networks, optimizers, log-std, RNG counter).
    assert_eq!(fused, reference);
}

/// The fused update must beat the reference path by at least 1.5x at the
/// 7-64-64-1 shapes. `#[ignore]`d because timing assertions are
/// load-sensitive; run explicitly with
/// `cargo test -p vtm-bench --release -- --ignored --nocapture`.
#[test]
#[ignore = "wall-clock assertion; run explicitly in --release on an idle machine"]
fn fused_update_is_at_least_1_5x_faster_than_reference() {
    use std::time::Instant;
    let mut fused = update_bench_agent(3);
    let samples = update_bench_samples(&fused, 200, 42);
    let mut reference = fused.clone();
    for _ in 0..2 {
        fused.update(&samples);
        reference.update_reference(&samples);
    }
    // Interleaved pairs so CPU frequency drift hits both paths equally.
    let (mut fused_s, mut reference_s) = (0.0f64, 0.0f64);
    for _ in 0..10 {
        let t = Instant::now();
        fused.update(&samples);
        fused_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        reference.update_reference(&samples);
        reference_s += t.elapsed().as_secs_f64();
    }
    let speedup = reference_s / fused_s;
    println!(
        "fused {:.2} ms, reference {:.2} ms, speedup {speedup:.2}x",
        fused_s * 1e2,
        reference_s * 1e2
    );
    assert!(
        speedup >= 1.5,
        "fused update speedup {speedup:.2}x below the 1.5x acceptance target"
    );
}

#[test]
fn update_matches_reference_across_shapes() {
    // Samples per update, observation width and action space, with
    // |I| = 20:
    // - 33 samples leave a ragged final minibatch of 13, so the gather
    //   scratch must resize across batch sizes;
    // - 7 samples are fewer than one minibatch;
    // - a 2-dimensional action steps the log-std optimizer on a vector;
    // - obs_dim 12 is the paper's two-VMU observation (L = 4 rounds of the
    //   price and two demands), the shape the `train` workload runs.
    let cases = [
        (33, 7, ActionSpace::scalar(5.0, 50.0)),
        (7, 7, ActionSpace::scalar(5.0, 50.0)),
        (
            33,
            7,
            ActionSpace {
                low: vec![5.0, 0.0],
                high: vec![50.0, 1.0],
            },
        ),
        (33, 12, ActionSpace::scalar(5.0, 50.0)),
    ];
    for (n, obs_dim, space) in cases {
        let shape = format!("{n} samples x obs {obs_dim} x {}-dim action", space.dim());
        let config = PpoConfig::new(obs_dim, space.dim()).with_seed(7);
        let mut fused = PpoAgent::new(config, space);
        let mut reference = fused.clone();
        for round in 0..3 {
            let samples = update_bench_samples(&fused, n, 5 + round);
            let sf = fused.update(&samples);
            let sr = reference.update_reference(&samples);
            assert_eq!(sf, sr, "{shape}: stats diverged at round {round}");
            assert_eq!(fused, reference, "{shape}: agent diverged at round {round}");
        }
    }
}
