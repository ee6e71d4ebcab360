//! Fixed-seed precision property tests: the quantized f32 serving path
//! must agree with the f64 reference — greedy decisions argmax-identical,
//! prices within the tested bound, session state byte-identical — across
//! **all five** scenario presets under `SessionStore` eviction pressure. A
//! per-layer error-bound test pins the divergence at
//! every stage of the paper's 64×64 actor shape. The bounds here are the
//! ones `docs/NUMERICS.md` documents; re-verify them with this suite after
//! any kernel change.

use vtm_core::registry::{EnvBuildOptions, EnvRegistry};
use vtm_core::scenario::ScenarioKind;
use vtm_nn::inference::InferenceModel;
use vtm_nn::matrix::Matrix;
use vtm_rl::env::{ActionSpace, Environment};
use vtm_rl::ppo::{PpoAgent, PpoConfig};
use vtm_rl::snapshot::PolicySnapshot;
use vtm_serve::{Precision, PricingService, QuoteRequest, ServiceConfig};

/// Absolute bound on |price_f32 - price_f64| for greedy quotes. Measured
/// maxima across the presets sit near 1e-4 (f32 unit roundoff ~6e-8
/// amplified by two 64-wide dot products and the ~22.5 price-units/raw-unit
/// squash slope); the bound carries ~two orders of margin.
const PRICE_BOUND: f64 = 1e-2;

/// Absolute per-output bound at every layer of the paper's actor shape
/// (obs -> 64 -> 64 -> 1, tanh hidden). Measured maxima are ~1e-6 on the
/// hidden layers (tanh contracts), ~1e-5 at the linear output head.
const LAYER_BOUND: f64 = 1e-3;

fn argmax(values: &[f64]) -> usize {
    values
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
        .map(|(i, _)| i)
        .unwrap()
}

/// A fresh fixed-seed policy for the named preset (fast: serving-precision
/// agreement is a property of the network shape, not of training quality).
fn snapshot_for(registry: &EnvRegistry, name: &str, build: &EnvBuildOptions) -> PolicySnapshot {
    let env = registry.build(name, build).expect("preset exists");
    PpoAgent::new(
        PpoConfig::new(env.observation_dim(), 1).with_seed(42),
        env.action_space(),
    )
    .snapshot()
}

/// A service config under capacity pressure, so agreement is also
/// exercised against eviction bookkeeping.
fn pressured(history_length: usize, features: usize) -> ServiceConfig {
    ServiceConfig::new(history_length, features).with_session_capacity(12)
}

/// The headline property: on every scenario preset, over a realistic
/// request stream and with evictions firing, every f32 greedy quote picks
/// the same argmax action as its f64 counterpart and its price stays
/// within [`PRICE_BOUND`]; session state (warm flags, stats, the state
/// digest) is bit-equal because the forward pass writes nothing into it.
#[test]
fn f32_decisions_agree_with_f64_on_all_scenario_presets_under_pressure() {
    let build = EnvBuildOptions::default();
    let registry = EnvRegistry::builtin();
    for kind in ScenarioKind::ALL {
        let name = kind.name();
        let snapshot = snapshot_for(&registry, name, &build);
        let features = registry.get(name).unwrap().features_per_round();
        let config = pressured(build.history_length, features);
        let reference = PricingService::from_snapshot(&snapshot, config).unwrap();
        let quantized =
            PricingService::from_snapshot(&snapshot, config.with_precision(Precision::F32))
                .unwrap();
        // 13 sessions with capacity 12 force evictions.
        let stream = registry
            .request_stream(name, &build, 13, 8)
            .expect("preset generates streams");
        let mut max_err = 0.0f64;
        let mut warmed = 0;
        for (round, frames) in stream.iter().enumerate() {
            let mut requests: Vec<QuoteRequest> = frames
                .iter()
                .map(|f| QuoteRequest::new(f.session, f.features.clone()))
                .collect();
            // Odd rounds run backwards, so the store keeps most sessions
            // warm: in one fixed order every request would evict.
            if round % 2 == 1 {
                requests.reverse();
            }
            let wide = reference.quote_batch(&requests).unwrap();
            let narrow = quantized.quote_batch(&requests).unwrap();
            for (w, n) in wide.iter().zip(&narrow) {
                assert_eq!(
                    argmax(&w.action),
                    argmax(&n.action),
                    "{name}: greedy decision diverged for session {}",
                    w.session
                );
                assert_eq!(
                    (w.session, w.warmed),
                    (n.session, n.warmed),
                    "{name}: quote metadata diverged"
                );
                max_err = max_err.max((w.price() - n.price()).abs());
                warmed += usize::from(w.warmed);
            }
        }
        assert!(
            max_err <= PRICE_BOUND,
            "{name}: max |price_f32 - price_f64| = {max_err:.3e} exceeds {PRICE_BOUND:.0e}"
        );
        assert!(
            max_err > 0.0,
            "{name}: f32 and f64 prices are bit-identical over the whole stream — \
             the fast path probably did not run"
        );
        // The pressure must have materialized, identically on both sides:
        // session state is precision-independent.
        let (wide_stats, narrow_stats) = (reference.stats(), quantized.stats());
        assert!(wide_stats.evicted > 0, "{name}: stream caused no evictions");
        assert!(warmed > 0, "{name}: no quote came from a full window");
        assert_eq!(
            wide_stats, narrow_stats,
            "{name}: store bookkeeping diverged"
        );
        assert_eq!(
            reference.state_digest(),
            quantized.state_digest(),
            "{name}: session state diverged"
        );
    }
}

/// The per-layer bound: walking the paper's actor shape layer by layer,
/// the f32 activations stay within [`LAYER_BOUND`] of the f64 reference at
/// every stage — not just at the output, so error cannot hide by
/// cancellation.
#[test]
fn per_layer_f32_error_is_bounded_on_the_paper_actor_shape() {
    for seed in [1u64, 7, 23] {
        let agent = PpoAgent::new(
            PpoConfig::new(24, 1).with_seed(seed),
            ActionSpace::scalar(5.0, 50.0),
        );
        let actor = &agent.snapshot().actor;
        let fast = InferenceModel::from_mlp(actor);
        assert_eq!(fast.layers().len(), 3, "paper shape: obs -> 64 -> 64 -> 1");
        for row in 0..16 {
            let obs: Vec<f64> = (0..24)
                .map(|f| ((row * 37 + f * 11 + seed as usize) % 41) as f64 / 41.0 - 0.5)
                .collect();
            let quantized_layers = fast.forward_layers(&obs).unwrap();
            let mut cur = Matrix::from_rows(&[&obs]).unwrap();
            for (li, layer) in actor.layers().iter().enumerate() {
                cur = layer.forward(&cur).unwrap();
                let layer_err = cur
                    .as_slice()
                    .iter()
                    .zip(&quantized_layers[li])
                    .map(|(a, b)| (a - b).abs())
                    .fold(0.0f64, f64::max);
                assert!(
                    layer_err <= LAYER_BOUND,
                    "seed {seed}, row {row}, layer {li}: per-output error {layer_err:.3e} \
                     exceeds {LAYER_BOUND:.0e}"
                );
            }
        }
    }
}

/// Batch-slicing invariance in f32 mode on a realistic preset stream:
/// quoting the same stream one request at a time is outcome-identical
/// (quotes *and* state digest) to batched quoting — the property that lets
/// the gateway slice micro-batches freely regardless of precision.
#[test]
fn f32_quotes_are_batch_invariant_on_a_scenario_stream() {
    let build = EnvBuildOptions::default();
    let registry = EnvRegistry::builtin();
    let name = ScenarioKind::Highway.name();
    let snapshot = snapshot_for(&registry, name, &build);
    let features = registry.get(name).unwrap().features_per_round();
    let config = pressured(build.history_length, features).with_precision(Precision::F32);
    let batched = PricingService::from_snapshot(&snapshot, config).unwrap();
    let sequential = PricingService::from_snapshot(&snapshot, config).unwrap();
    let stream = registry.request_stream(name, &build, 9, 6).unwrap();
    for frames in &stream {
        let requests: Vec<QuoteRequest> = frames
            .iter()
            .map(|f| QuoteRequest::new(f.session, f.features.clone()))
            .collect();
        let via_batch = batched.quote_batch(&requests).unwrap();
        let via_single: Vec<_> = requests
            .iter()
            .map(|r| sequential.quote_one(r).unwrap())
            .collect();
        assert_eq!(via_batch, via_single);
    }
    assert_eq!(batched.state_digest(), sequential.state_digest());
}
