//! Output bits every build of the kernels must reproduce.
//!
//! Each test hashes (FNV-1a) the exact bits one kernel path produces on a
//! fixed input and compares the digest with a constant. The constants were
//! computed by a baseline x86-64 (SSE2) build, and the same tests must pass
//! unedited when the crate is built for x86-64-v3 (AVX2), in debug and in
//! release: a wider vector lane changes how many elements one instruction
//! handles, never the roundings one element goes through (see
//! `docs/NUMERICS.md`, "Same bits at every ISA level"). CI runs them at both
//! ISA levels.
//!
//! Every path here is free of libm calls (`tanh` is the crate's own, Adam
//! uses `sqrt` and `powi`), so the constants do not depend on the C library
//! either.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use vtm_nn::codec::fnv1a;
use vtm_nn::inference::InferenceModel;
use vtm_nn::loss::mse_grad;
use vtm_nn::matrix::Matrix;
use vtm_nn::mlp::{Mlp, MlpConfig, MlpGrads, TrainWorkspace};
use vtm_nn::optimizer::Adam;

/// Input width of the pinned network.
const INPUT: usize = 12;
/// 37 rows: nine full 4-row blocks and a ragged 1-row tail.
const ROWS: usize = 37;

/// The fixed-seed 12-64-64-1 tanh network every pin starts from.
fn network() -> Mlp {
    MlpConfig::new(INPUT, &[64, 64], 1).build(&mut StdRng::seed_from_u64(0x5eed_0001))
}

fn input_rows() -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(0x5eed_0002);
    (0..ROWS)
        .map(|_| (0..INPUT).map(|_| rng.gen_range(-3.0..3.0)).collect())
        .collect()
}

fn digest(values: impl IntoIterator<Item = f64>) -> u64 {
    let bytes: Vec<u8> = values
        .into_iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .collect();
    fnv1a(&bytes)
}

fn parameter_digest(net: &Mlp) -> u64 {
    digest(net.layers().iter().flat_map(|layer| {
        let weights = layer.weights().as_slice().iter();
        weights.chain(layer.bias().as_slice()).copied()
    }))
}

#[test]
fn f64_forward_rows_bits_are_pinned() {
    let rows = input_rows();
    let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
    let out = network().forward_rows(&refs).unwrap();
    assert_eq!(out.shape(), (ROWS, 1));
    assert_eq!(
        digest(out.as_slice().iter().copied()),
        0x1dd7_cc67_27d3_d07d
    );
}

#[test]
fn f32_inference_forward_rows_bits_are_pinned() {
    let rows = input_rows();
    let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
    let out = InferenceModel::from_mlp(&network())
        .forward_rows(&refs)
        .unwrap();
    assert_eq!(out.len(), ROWS);
    assert_eq!(digest(out.into_iter().flatten()), 0x3164_e212_37d8_08ab);
}

/// Trains the pinned network for `steps` steps of `forward_train_ws`,
/// `backward_ws`, `clip_global_norm` and `Adam` on a smooth regression
/// target of the first four features. Returns the network and each step's
/// gradient norm before clipping.
fn train(steps: usize) -> (Mlp, Vec<f64>) {
    let rows = input_rows();
    let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
    let x = Matrix::from_rows(&refs).unwrap();
    let targets: Vec<f64> = rows
        .iter()
        .map(|r| 0.5 * r[0] - 0.25 * r[1] + 0.125 * r[2] * r[3])
        .collect();
    let y = Matrix::from_vec(ROWS, 1, targets).unwrap();
    let mut net = network();
    let mut adam = Adam::new(3e-3);
    let mut ws = TrainWorkspace::new();
    let mut grads = MlpGrads::empty();
    let mut norms = Vec::new();
    for _ in 0..steps {
        let grad_out = mse_grad(net.forward_train_ws(&x, &mut ws).unwrap(), &y).unwrap();
        net.backward_ws(&x, &mut ws, &grad_out, &mut grads).unwrap();
        // A bound low enough that clipping scales the gradient (every one of
        // the first 10 steps, as `training_step_weights_are_pinned` checks).
        norms.push(grads.clip_global_norm(0.05));
        adam.step(&mut net, &grads);
    }
    (net, norms)
}

#[test]
fn training_step_weights_are_pinned() {
    let (net, norms) = train(10);
    assert!(norms.iter().all(|&n| n > 0.05), "clipping never engaged");
    assert_eq!(digest(norms), 0xf1b3_16b2_1326_ba79);
    assert_eq!(parameter_digest(&net), 0x95dc_fae1_b55a_d91b);
}

#[test]
fn training_400_steps_weights_are_pinned() {
    // Well past step 356, from which Adam's first-moment correction
    // `1 - 0.9^t` rounds to exactly 1.0.
    let (net, _) = train(400);
    assert_eq!(parameter_digest(&net), 0x37f1_9d8d_e917_f2de);
}
