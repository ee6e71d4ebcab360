//! Activation functions and their derivatives.
//!
//! Each activation is represented by the [`Activation`] enum so that layer
//! configurations are plain data (serialisable, comparable) rather than boxed
//! closures. The derivative is expressed with respect to the *pre-activation*
//! input `z`, which is what the dense-layer backward pass caches.
//!
//! [`tanh`] and [`tanh_f32`] are written here in plain IEEE arithmetic
//! rather than taken from the C library: they make no libm call, take no
//! branch and use no `mul_add`, so a loop over a slice of them
//! vectorizes and their bits do not depend on the platform's libm.
//! [`Activation::apply_slice`] branches once per group of 8 elements to
//! skip a `tanh` form no element of the group takes; each element's result
//! is still the one [`tanh`] selects.

use crate::matrix::Matrix;

/// Supported element-wise activation functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Activation {
    /// Identity: `f(z) = z`.
    #[default]
    Linear,
    /// Rectified linear unit: `f(z) = max(0, z)`.
    Relu,
    /// Hyperbolic tangent.
    Tanh,
    /// Logistic sigmoid: `f(z) = 1 / (1 + exp(-z))`.
    Sigmoid,
    /// Softplus: `f(z) = ln(1 + exp(z))`, a smooth approximation of ReLU.
    Softplus,
    /// Leaky ReLU with slope 0.01 for negative inputs.
    LeakyRelu,
}

impl Activation {
    /// Applies the activation to a scalar.
    pub fn apply_scalar(self, z: f64) -> f64 {
        match self {
            Activation::Linear => z,
            Activation::Relu => z.max(0.0),
            Activation::Tanh => tanh(z),
            Activation::Sigmoid => sigmoid(z),
            Activation::Softplus => softplus(z),
            Activation::LeakyRelu => {
                if z >= 0.0 {
                    z
                } else {
                    0.01 * z
                }
            }
        }
    }

    /// Applies the activation to an f32 scalar (frozen-serving fast path).
    ///
    /// Mirrors [`Activation::apply_scalar`] with the same numerical-
    /// stability branches, evaluated natively in f32, except that tanh is
    /// [`tanh_f32`], a cheaper rational than the f64 [`tanh`]. Used by the
    /// [`inference`](crate::inference) kernels; training always goes
    /// through the f64 path.
    pub fn apply_scalar_f32(self, z: f32) -> f32 {
        match self {
            Activation::Linear => z,
            Activation::Relu => z.max(0.0),
            Activation::Tanh => tanh_f32(z),
            Activation::Sigmoid => sigmoid_f32(z),
            Activation::Softplus => softplus_f32(z),
            Activation::LeakyRelu => {
                if z >= 0.0 {
                    z
                } else {
                    0.01 * z
                }
            }
        }
    }

    /// Derivative of the activation with respect to the pre-activation scalar `z`.
    pub fn derivative_scalar(self, z: f64) -> f64 {
        match self {
            Activation::Linear => 1.0,
            Activation::Relu => {
                if z > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Tanh => {
                let t = tanh(z);
                1.0 - t * t
            }
            Activation::Sigmoid => {
                let s = sigmoid(z);
                s * (1.0 - s)
            }
            Activation::Softplus => sigmoid(z),
            Activation::LeakyRelu => {
                if z >= 0.0 {
                    1.0
                } else {
                    0.01
                }
            }
        }
    }

    /// Derivative with respect to `z`, computed from the pre-activation `z`
    /// *and* the already-computed output `a = f(z)`.
    ///
    /// For activations whose derivative is a function of the output (tanh:
    /// `1 - a²`, sigmoid: `a(1-a)`, (leaky-)ReLU: sign tests on `a`) this
    /// avoids re-evaluating the transcendental, which is the hot cost of the
    /// backward pass; softplus falls back to the `z`-based formula. Results
    /// are bit-identical to [`Activation::derivative_scalar`]: `a` carries
    /// the exact bits of `f(z)`, so e.g. `1 - a*a` equals the reference's
    /// `let t = tanh(z); 1 - t*t` exactly.
    pub fn derivative_from_parts(self, z: f64, a: f64) -> f64 {
        match self {
            Activation::Linear => 1.0,
            // a = max(0, z): a > 0 exactly when z > 0.
            Activation::Relu => {
                if a > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Tanh => 1.0 - a * a,
            Activation::Sigmoid => a * (1.0 - a),
            Activation::Softplus => sigmoid(z),
            // Branch on z, not on a: a = 0.01 z underflows to -0.0 for tiny
            // negative z, which would flip an a-based sign test.
            Activation::LeakyRelu => {
                if z >= 0.0 {
                    1.0
                } else {
                    0.01
                }
            }
        }
    }

    /// Applies the activation element-wise to a matrix.
    pub fn apply(self, z: &Matrix) -> Matrix {
        z.map(|x| self.apply_scalar(x))
    }

    /// Applies the activation in place over a slice, bit-identical to
    /// [`Activation::apply_scalar`] per element. Tanh gets a loop of its
    /// own, free of the `match`, which is what lets it vectorize.
    ///
    /// The tanh loop walks the slice in groups of 8 elements. A group
    /// whose elements all take [`tanh`]'s rational form evaluates only
    /// that form; any other group and the tail evaluate both forms and
    /// select per element, as [`tanh`] does.
    pub fn apply_slice(self, values: &mut [f64]) {
        match self {
            Activation::Tanh => {
                let (groups, tail) = values.as_chunks_mut::<TANH_GROUP>();
                for group in groups {
                    let large = group.iter().filter(|v| v.abs() >= TANH_SWITCH).count();
                    if large == 0 {
                        group
                            .iter_mut()
                            .for_each(|v| *v = tanh_rational(v.abs()).copysign(*v));
                    } else {
                        group.iter_mut().for_each(|v| *v = tanh(*v));
                    }
                }
                tail.iter_mut().for_each(|v| *v = tanh(*v));
            }
            act => values.iter_mut().for_each(|v| *v = act.apply_scalar(*v)),
        }
    }

    /// [`Activation::apply_slice`] for the f32 serving path, bit-identical
    /// to [`Activation::apply_scalar_f32`] per element.
    pub fn apply_slice_f32(self, values: &mut [f32]) {
        match self {
            Activation::Tanh => values.iter_mut().for_each(|v| *v = tanh_f32(*v)),
            act => values
                .iter_mut()
                .for_each(|v| *v = act.apply_scalar_f32(*v)),
        }
    }

    /// Element-wise derivative with respect to the pre-activation matrix `z`.
    pub fn derivative(self, z: &Matrix) -> Matrix {
        z.map(|x| self.derivative_scalar(x))
    }

    /// Stable numeric tag used by the binary weight codec.
    pub fn tag(self) -> u8 {
        match self {
            Activation::Linear => 0,
            Activation::Relu => 1,
            Activation::Tanh => 2,
            Activation::Sigmoid => 3,
            Activation::Softplus => 4,
            Activation::LeakyRelu => 5,
        }
    }

    /// Inverse of [`Activation::tag`]; `None` for an unknown tag (e.g. a file
    /// written by a newer format revision).
    pub fn from_tag(tag: u8) -> Option<Self> {
        Some(match tag {
            0 => Activation::Linear,
            1 => Activation::Relu,
            2 => Activation::Tanh,
            3 => Activation::Sigmoid,
            4 => Activation::Softplus,
            5 => Activation::LeakyRelu,
            _ => return None,
        })
    }

    /// Human-readable name of the activation.
    pub fn name(self) -> &'static str {
        match self {
            Activation::Linear => "linear",
            Activation::Relu => "relu",
            Activation::Tanh => "tanh",
            Activation::Sigmoid => "sigmoid",
            Activation::Softplus => "softplus",
            Activation::LeakyRelu => "leaky_relu",
        }
    }
}

impl std::fmt::Display for Activation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Cephes' odd rational for `tanh` on `|x| < 0.625`:
/// `tanh(x) = x + x³ P(x²) / Q(x²)`, `Q` monic.
const TANH_P: [f64; 3] = [-0.9643991794250523, -99.28772310019185, -1614.6876844170845];
const TANH_Q: [f64; 3] = [112.81167849163293, 2235.4883906010045, 4844.063053251255];
/// Where `tanh` switches from the rational to the exponential form.
const TANH_SWITCH: f64 = 0.625;
/// `tanh` clamps `|x|` here; the exact result already rounds to 1 from
/// `|x| ≈ 19.1` on.
const TANH_SATURATE: f64 = 22.0;
/// Elements per group of [`Activation::apply_slice`]'s tanh loop: two
/// 4-lane f64 vectors in the x86-64-v3 build. Picked by measurement on the
/// hidden layers of the PPO actor and critic (2,560 pre-activations each
/// at mini-batch 20, one core of an AVX2 x86-64 VM, median over runs of
/// the best of 30 rounds): the actor's pass took 3.4 µs with groups of 8,
/// 3.6 µs with 16 and 6.0 µs with 4, the critic's 5.5, 6.6 and 7.9 µs.
const TANH_GROUP: usize = 8;

/// Hyperbolic tangent, libm-free and branch-free.
///
/// Below `|x| = 0.625` it is Cephes' odd rational; above, it is
/// `1 − 2 / (e^{2|x|} + 1)` with `e^{2|x|}` from a Cody–Waite `exp`, and
/// `|x|` is clamped at 22, where the result is exactly 1. Both forms are
/// evaluated and one is selected, and the sign is copied back from `x`, so
/// the result is odd bit for bit and a slice loop over it vectorizes.
/// The arithmetic is plain IEEE `+ − × ÷`, with no `mul_add`, so the bits
/// are the same on every platform and in every lane.
///
/// Accuracy: within 2 ulp of the C library's `tanh` (glibc, x86-64) over a
/// dense sweep of `[−25, 25]`, a geometric sweep of `[1e−300, 1]` and the
/// floats next to the switch and the clamp; monotone over the same
/// sweeps. ±0 keeps its sign, NaN stays NaN, ±∞ gives ±1 and subnormals
/// return `x`.
pub fn tanh(x: f64) -> f64 {
    let a = x.abs();
    let small = tanh_rational(a);
    let large = tanh_exponential(a);
    // NaN fails the comparison and takes the rational, which propagates it.
    let t = if a >= TANH_SWITCH { large } else { small };
    t.copysign(x)
}

/// `tanh`'s form for `a = |x| < 0.625` (and NaN): Cephes' odd rational,
/// one division.
fn tanh_rational(a: f64) -> f64 {
    let s = a * a;
    a + a * s * ((TANH_P[0] * s + TANH_P[1]) * s + TANH_P[2])
        / (((s + TANH_Q[0]) * s + TANH_Q[1]) * s + TANH_Q[2])
}

/// `tanh`'s form for `a = |x| >= 0.625`: `1 − 2 / (e^{2a} + 1)` with `a`
/// clamped at 22, two divisions.
fn tanh_exponential(a: f64) -> f64 {
    1.0 - 2.0 / (exp_reduced(2.0 * a.min(TANH_SATURATE)) + 1.0)
}

/// Cephes' Padé form for `e^r` on `|r| <= ln 2 / 2`:
/// `e^r = 1 + 2 r P(r²) / (Q(r²) − r P(r²))`.
const EXP_P: [f64; 3] = [0.00012617719307481058, 0.030299440770744195, 1.0];
const EXP_Q: [f64; 4] = [
    3.0019850513866446e-6,
    0.002524483403496841,
    0.22726554820815503,
    2.0,
];
/// Cody–Waite split of ln 2: `LN2_HI` has few enough bits that `k · LN2_HI`
/// is exact for every `k` this module reaches.
const LN2_HI: f64 = 0.693145751953125;
const LN2_LO: f64 = 1.4286068203094173e-6;
/// 1.5 · 2⁵²: adding it rounds a value of magnitude below 2⁵¹ to an
/// integer and leaves that integer in the low mantissa bits.
const ROUND_SHIFT: f64 = 6755399441055744.0;

/// `e^y` for `0 <= y <= 44`, the only range [`tanh`] calls it on.
///
/// Cody–Waite reduction `y = k ln 2 + r` with `|r| <= ln 2 / 2`, Cephes'
/// Padé form for `e^r`, and `2^k` built from exponent bits, all without a
/// branch or a float-to-int conversion.
fn exp_reduced(y: f64) -> f64 {
    let shifted = y * std::f64::consts::LOG2_E + ROUND_SHIFT;
    let k = shifted - ROUND_SHIFT;
    let r = (y - k * LN2_HI) - k * LN2_LO;
    let rr = r * r;
    let p = r * ((EXP_P[0] * rr + EXP_P[1]) * rr + EXP_P[2]);
    let q = ((EXP_Q[0] * rr + EXP_Q[1]) * rr + EXP_Q[2]) * rr + EXP_Q[3];
    let e_r = 1.0 + 2.0 * (p / (q - p));
    // The low 12 bits of `shifted` hold k, so this is (k + 1023) << 52: the
    // bit pattern of 2^k.
    e_r * f64::from_bits((shifted.to_bits() + 1023) << 52)
}

/// Odd numerator (`x · α(x²)`, α₁ first) and even denominator (β₀ first)
/// of the 13/6 rational in Eigen's `generic_fast_tanh_float`.
const TANH_F32_ALPHA: [f32; 7] = [
    0.0048935246,
    0.00063726195,
    1.48572235e-5,
    5.1222973e-8,
    -8.604672e-11,
    2.000188e-13,
    -2.7607684e-16,
];
const TANH_F32_BETA: [f32; 4] = [0.004893525, 0.0022684347, 0.00011853471, 1.1982584e-6];
/// The rational reaches exactly 1 here (evaluated without `mul_add`).
const TANH_F32_CLAMP: f32 = 7.905311;
/// Below this `|x|`, `tanh(x)` differs from `x` by about `x³/3`, less than
/// one f32 ulp of `x`, so `x` is returned.
const TANH_F32_TINY: f32 = 0.0004;

/// Hyperbolic tangent in f32 for the serving path: Eigen's clamped 13/6
/// rational, in plain arithmetic that vectorizes.
///
/// Accuracy: at most 4e-7 absolute error against the f64 `tanh` over
/// `[−25, 25]`. Odd bit for bit; ±0 keeps its sign, NaN stays NaN, ±∞
/// gives ±1 and subnormals return `x`. Unlike [`tanh`] it is not monotone
/// at the ulp scale.
pub fn tanh_f32(x: f32) -> f32 {
    let [a1, a3, a5, a7, a9, a11, a13] = TANH_F32_ALPHA;
    let [b0, b2, b4, b6] = TANH_F32_BETA;
    // `clamp` keeps NaN.
    let c = x.clamp(-TANH_F32_CLAMP, TANH_F32_CLAMP);
    let s = c * c;
    let p = c * ((((((a13 * s + a11) * s + a9) * s + a7) * s + a5) * s + a3) * s + a1);
    let q = ((b6 * s + b4) * s + b2) * s + b0;
    let t = p / q;
    if x.abs() < TANH_F32_TINY {
        x
    } else {
        t
    }
}

/// Numerically stable logistic sigmoid.
pub fn sigmoid(z: f64) -> f64 {
    if z >= 0.0 {
        1.0 / (1.0 + (-z).exp())
    } else {
        let e = z.exp();
        e / (1.0 + e)
    }
}

/// Numerically stable softplus `ln(1 + exp(z))`.
pub fn softplus(z: f64) -> f64 {
    if z > 30.0 {
        // exp(z) overflows long before this but the function is ~z there.
        z
    } else if z < -30.0 {
        z.exp()
    } else {
        (1.0 + z.exp()).ln()
    }
}

/// Numerically stable logistic sigmoid in f32 (serving fast path).
pub fn sigmoid_f32(z: f32) -> f32 {
    if z >= 0.0 {
        1.0 / (1.0 + (-z).exp())
    } else {
        let e = z.exp();
        e / (1.0 + e)
    }
}

/// Numerically stable softplus `ln(1 + exp(z))` in f32 (serving fast path).
pub fn softplus_f32(z: f32) -> f32 {
    if z > 30.0 {
        z
    } else if z < -30.0 {
        z.exp()
    } else {
        (1.0 + z.exp()).ln()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [Activation; 6] = [
        Activation::Linear,
        Activation::Relu,
        Activation::Tanh,
        Activation::Sigmoid,
        Activation::Softplus,
        Activation::LeakyRelu,
    ];

    #[test]
    fn sigmoid_symmetry_and_range() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-12);
        for z in [-25.0, -5.0, -0.5, 0.5, 5.0, 25.0] {
            let s = sigmoid(z);
            assert!(s > 0.0 && s < 1.0);
            assert!((s + sigmoid(-z) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn softplus_is_positive_and_close_to_relu_for_large_inputs() {
        assert!(softplus(-100.0) >= 0.0);
        assert!((softplus(100.0) - 100.0).abs() < 1e-9);
        assert!((softplus(0.0) - std::f64::consts::LN_2).abs() < 1e-12);
    }

    #[test]
    fn relu_and_leaky_relu_values() {
        assert_eq!(Activation::Relu.apply_scalar(-3.0), 0.0);
        assert_eq!(Activation::Relu.apply_scalar(2.0), 2.0);
        assert!((Activation::LeakyRelu.apply_scalar(-2.0) + 0.02).abs() < 1e-12);
    }

    #[test]
    fn derivatives_match_finite_differences() {
        let h = 1e-6;
        for act in ALL {
            for z in [-2.3, -0.7, 0.4, 1.9] {
                let numeric = (act.apply_scalar(z + h) - act.apply_scalar(z - h)) / (2.0 * h);
                let analytic = act.derivative_scalar(z);
                assert!(
                    (numeric - analytic).abs() < 1e-5,
                    "{act} derivative mismatch at {z}: {numeric} vs {analytic}"
                );
            }
        }
    }

    #[test]
    fn derivative_from_parts_matches_derivative_scalar_bitwise() {
        for act in ALL {
            // Includes -1e-323: 0.01 * z underflows to -0.0 there, which an
            // output-sign test would misclassify for LeakyRelu.
            for z in [
                -3.0, -1.2, -0.5, -0.0, 0.0, 0.3, 1.7, 25.0, -25.0, -1e-323, 1e-323,
            ] {
                let a = act.apply_scalar(z);
                assert_eq!(
                    act.derivative_from_parts(z, a),
                    act.derivative_scalar(z),
                    "{act} derivative-from-output mismatch at z = {z}"
                );
            }
        }
    }

    #[test]
    fn matrix_application_matches_scalar() {
        let z = Matrix::from_rows(&[&[-1.0, 0.0, 2.0]]).unwrap();
        for act in ALL {
            let applied = act.apply(&z);
            for (i, &zi) in z.as_slice().iter().enumerate() {
                assert_eq!(applied.as_slice()[i], act.apply_scalar(zi));
            }
        }
    }

    #[test]
    fn names_are_unique_and_nonempty() {
        let mut names: Vec<&str> = ALL.iter().map(|a| a.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ALL.len());
        assert!(ALL.iter().all(|a| !a.name().is_empty()));
    }

    #[test]
    fn codec_tags_round_trip_and_reject_unknowns() {
        for a in ALL {
            assert_eq!(Activation::from_tag(a.tag()), Some(a));
        }
        assert_eq!(Activation::from_tag(200), None);
    }

    #[test]
    fn f32_application_tracks_f64_within_f32_epsilon_scale() {
        for act in ALL {
            for z in [-31.0f64, -5.0, -0.5, -1e-4, 0.0, 1e-4, 0.5, 5.0, 31.0] {
                let wide = act.apply_scalar(z);
                let narrow = f64::from(act.apply_scalar_f32(z as f32));
                assert!(
                    (wide - narrow).abs() <= 1e-6 * wide.abs().max(1.0),
                    "{act} f32 divergence at z = {z}: {wide} vs {narrow}"
                );
            }
        }
    }

    /// Distance in ulp between two non-NaN f64 values: their bit patterns
    /// mapped onto one monotone integer line (±0 are the same point).
    fn ulp_distance(a: f64, b: f64) -> u64 {
        let key = |x: f64| {
            let bits = x.to_bits() as i64;
            if bits < 0 {
                i64::MIN - bits
            } else {
                bits
            }
        };
        key(a).abs_diff(key(b))
    }

    /// A dense, ascending sweep of [−25, 25].
    fn dense_sweep() -> impl Iterator<Item = f64> {
        (0..=200_000).map(|i| -25.0 + 50.0 * f64::from(i) / 200_000.0)
    }

    /// An ascending geometric sweep of [1e−300, 1].
    fn geometric_sweep() -> impl Iterator<Item = f64> {
        std::iter::successors(Some(1e-300_f64), |&x| Some(x * 1.01)).take_while(|&x| x <= 1.0)
    }

    /// `count` adjacent floats on each side of `centre`, ascending.
    fn adjacent(centre: f64, count: usize) -> Vec<f64> {
        let mut x = centre;
        for _ in 0..count {
            x = x.next_down();
        }
        (0..2 * count + 1)
            .map(|_| {
                let here = x;
                x = x.next_up();
                here
            })
            .collect()
    }

    #[test]
    fn tanh_stays_within_two_ulp_of_the_libm_oracle() {
        // `f64::tanh` appears only in tests, as the oracle. The edges put
        // inputs on both sides of the branch switch and of the clamp.
        let edges = [TANH_SWITCH, 1.0, TANH_SATURATE]
            .into_iter()
            .flat_map(|c| adjacent(c, 64));
        for x in dense_sweep().chain(geometric_sweep()).chain(edges) {
            let (ours, oracle) = (tanh(x), x.tanh());
            let d = ulp_distance(ours, oracle);
            assert!(d <= 2, "tanh({x:e}) = {ours:e} is {d} ulp from {oracle:e}");
        }
    }

    #[test]
    fn tanh_special_values() {
        assert_eq!(tanh(0.0).to_bits(), 0.0_f64.to_bits());
        assert_eq!(tanh(-0.0).to_bits(), (-0.0_f64).to_bits());
        assert!(tanh(f64::NAN).is_nan());
        assert_eq!(tanh(f64::INFINITY), 1.0);
        assert_eq!(tanh(f64::NEG_INFINITY), -1.0);
        for sub in [
            f64::from_bits(1),
            f64::MIN_POSITIVE / 3.0,
            f64::MIN_POSITIVE.next_down(),
        ] {
            assert_eq!(tanh(sub), sub);
            assert_eq!(tanh(-sub), -sub);
        }
        // Both sides of saturation are exactly ±1, as is the exact result.
        for x in [
            19.5,
            TANH_SATURATE.next_down(),
            TANH_SATURATE,
            22.5,
            f64::MAX,
        ] {
            assert_eq!(tanh(x), 1.0, "tanh({x})");
            assert_eq!(tanh(-x), -1.0, "tanh(-{x})");
        }
    }

    #[test]
    fn tanh_is_odd_bitwise_and_monotone() {
        let windows = [0.0, TANH_SWITCH, 1.0, 19.0, TANH_SATURATE].map(|c| adjacent(c, 2000));
        let sweeps = [
            dense_sweep().collect::<Vec<_>>(),
            geometric_sweep().collect(),
        ];
        for xs in sweeps.iter().chain(&windows) {
            for pair in xs.windows(2) {
                let (lo, hi) = (tanh(pair[0]), tanh(pair[1]));
                assert!(
                    lo <= hi,
                    "tanh drops from {lo:e} to {hi:e} at {:e}",
                    pair[1]
                );
            }
            for &x in xs {
                assert_eq!(tanh(-x).to_bits(), (-tanh(x)).to_bits(), "tanh(-{x:e})");
            }
        }
    }

    /// Inputs for the slice tests: both signs, both tanh forms, the switch
    /// and the float below it, saturation, ±0, ±∞, subnormals and NaN, one
    /// group of `TANH_GROUP` per row and a mixed tail. The tanh pass
    /// evaluates the rational form alone for the all-rational rows and
    /// both forms for the others.
    #[rustfmt::skip]
    const SLICE_INPUTS: [f64; 51] = [
        // Rational only (NaN takes the rational).
        -0.0, 0.3, f64::NAN, TANH_SWITCH.next_down(), 1e-310, -0.624, 0.0, -1e-9,
        // Exponential only.
        TANH_SWITCH, -30.0, f64::INFINITY, 3.0, -0.7, 22.0, f64::NEG_INFINITY, 21.5,
        // Rational but for the switch.
        0.1, -0.25, 1e-5, -TANH_SWITCH, 0.125, f64::MIN_POSITIVE, -0.5, 0.01,
        // Exponential but for a tiny input.
        0.9, -2.5, 40.0, -1e-9, -5.0, 1.0, -19.5, 7.0,
        // Rational only.
        0.5, -0.6, -1e-310, -TANH_SWITCH.next_down(), -0.4, 1e-300, 0.05, -0.125,
        // Exponential only.
        1.5, -0.75, 0.65, -2.0, 100.0, -1.0, 12.0, -0.9,
        // The tail.
        -0.3, 1.2, f64::NAN,
    ];

    #[test]
    fn slice_passes_equal_the_scalar_functions_bitwise() {
        // Each length 0..=51 is a prefix: every group is a whole group of
        // the tanh loop for the longer lengths and the scalar tail for the
        // lengths that end inside it.
        let large = |group: &[f64]| group.iter().filter(|x| x.abs() >= TANH_SWITCH).count();
        let kinds: Vec<usize> = SLICE_INPUTS.chunks_exact(TANH_GROUP).map(large).collect();
        assert_eq!(kinds, [0, TANH_GROUP, 1, TANH_GROUP - 1, 0, TANH_GROUP]);
        for act in ALL {
            for len in 0..=SLICE_INPUTS.len() {
                let xs = &SLICE_INPUTS[..len];
                let mut wide = xs.to_vec();
                act.apply_slice(&mut wide);
                for (&x, &got) in xs.iter().zip(&wide) {
                    let want = act.apply_scalar(x);
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "{act} f64, len {len}, x = {x}"
                    );
                }
                let xs: Vec<f32> = xs.iter().map(|&x| x as f32).collect();
                let mut narrow = xs.clone();
                act.apply_slice_f32(&mut narrow);
                for (&x, &got) in xs.iter().zip(&narrow) {
                    let want = act.apply_scalar_f32(x);
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "{act} f32, len {len}, x = {x}"
                    );
                }
            }
        }
    }

    #[test]
    fn tanh_output_bits_are_pinned() {
        // Any change to the arithmetic (a contracted multiply-add, another
        // coefficient, a reordered sum) moves this digest. If the change is
        // intended, re-measure the ulp bound and update docs/NUMERICS.md.
        let mut values: Vec<f64> = dense_sweep().chain(geometric_sweep()).collect();
        Activation::Tanh.apply_slice(&mut values);
        let bytes: Vec<u8> = values
            .iter()
            .flat_map(|v| v.to_bits().to_le_bytes())
            .collect();
        assert_eq!(crate::codec::fnv1a(&bytes), 0x1a5c_7fb6_3162_c3bd);
    }

    #[test]
    fn tanh_f32_stays_within_4e_7_of_the_f64_oracle() {
        let dense = (0..=200_000).map(|i| -25.0 + 50.0 * i as f32 / 200_000.0);
        let geometric =
            std::iter::successors(Some(1e-38_f32), |&x| Some(x * 1.01)).take_while(|&x| x <= 1.0);
        let edges = [TANH_F32_TINY, TANH_F32_CLAMP]
            .into_iter()
            .flat_map(|c| [c.next_down(), c, c.next_up()]);
        for x in dense.chain(geometric).chain(edges) {
            for x in [x, -x] {
                let err = (f64::from(tanh_f32(x)) - f64::from(x).tanh()).abs();
                assert!(err <= 4e-7, "tanh_f32({x:e}) is {err:e} off");
            }
        }
    }

    #[test]
    fn tanh_f32_special_values() {
        assert_eq!(tanh_f32(0.0).to_bits(), 0.0_f32.to_bits());
        assert_eq!(tanh_f32(-0.0).to_bits(), (-0.0_f32).to_bits());
        assert!(tanh_f32(f32::NAN).is_nan());
        assert_eq!(tanh_f32(f32::INFINITY), 1.0);
        assert_eq!(tanh_f32(f32::NEG_INFINITY), -1.0);
        for sub in [f32::from_bits(1), f32::MIN_POSITIVE / 3.0] {
            assert_eq!(tanh_f32(sub), sub);
            assert_eq!(tanh_f32(-sub), -sub);
        }
        // Below the tiny threshold the input comes back; from it on, the
        // rational does, and it is odd bit for bit.
        let below = TANH_F32_TINY.next_down();
        assert_eq!(tanh_f32(below), below);
        assert!(tanh_f32(TANH_F32_TINY) < TANH_F32_TINY);
        for x in [TANH_F32_TINY, 0.5, 3.0, TANH_F32_CLAMP.next_down()] {
            assert_eq!(tanh_f32(-x).to_bits(), (-tanh_f32(x)).to_bits());
        }
        // Both sides of the clamp: just below it is under 1, from it on exactly 1.
        assert!(tanh_f32(TANH_F32_CLAMP.next_down()) < 1.0);
        for x in [TANH_F32_CLAMP, TANH_F32_CLAMP.next_up(), 100.0, f32::MAX] {
            assert_eq!(tanh_f32(x), 1.0, "tanh_f32({x})");
            assert_eq!(tanh_f32(-x), -1.0, "tanh_f32(-{x})");
        }
    }

    #[test]
    fn tanh_derivative_peaks_at_zero() {
        let d0 = Activation::Tanh.derivative_scalar(0.0);
        assert!((d0 - 1.0).abs() < 1e-12);
        assert!(Activation::Tanh.derivative_scalar(3.0) < d0);
    }
}
