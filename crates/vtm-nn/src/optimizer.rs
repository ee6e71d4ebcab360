//! Adam (Kingma & Ba, 2015) for [`Mlp`] parameters and for flat `f64`
//! parameter vectors.

use crate::codec::{CodecError, PayloadReader, PayloadWriter};
use crate::matrix::Matrix;
use crate::mlp::{Mlp, MlpGrads};

/// Adam optimizer (Kingma & Ba, 2015), the optimizer used for the paper's PPO
/// actor-critic networks.
#[derive(Debug, Clone, PartialEq)]
pub struct Adam {
    learning_rate: f64,
    beta1: f64,
    beta2: f64,
    epsilon: f64,
    step: u64,
    first_moment: Vec<(Matrix, Matrix)>,
    second_moment: Vec<(Matrix, Matrix)>,
}

impl Adam {
    /// Creates an Adam optimizer with the conventional defaults
    /// `beta1 = 0.9`, `beta2 = 0.999`, `epsilon = 1e-8`.
    ///
    /// # Panics
    ///
    /// Panics if `learning_rate` is not finite and positive.
    pub fn new(learning_rate: f64) -> Self {
        Self::with_betas(learning_rate, 0.9, 0.999, 1e-8)
    }

    /// Creates an Adam optimizer with explicit hyper-parameters.
    ///
    /// # Panics
    ///
    /// Panics if any hyper-parameter is outside its valid range.
    pub fn with_betas(learning_rate: f64, beta1: f64, beta2: f64, epsilon: f64) -> Self {
        assert!(
            learning_rate.is_finite() && learning_rate > 0.0,
            "learning rate must be positive"
        );
        assert!((0.0..1.0).contains(&beta1), "beta1 must be in [0,1)");
        assert!((0.0..1.0).contains(&beta2), "beta2 must be in [0,1)");
        assert!(epsilon > 0.0, "epsilon must be positive");
        Self {
            learning_rate,
            beta1,
            beta2,
            epsilon,
            step: 0,
            first_moment: Vec::new(),
            second_moment: Vec::new(),
        }
    }

    fn ensure_state(&mut self, net: &Mlp) {
        if self.first_moment.len() != net.layers().len() {
            let zeros: Vec<(Matrix, Matrix)> = net
                .layers()
                .iter()
                .map(|l| {
                    (
                        Matrix::zeros(l.fan_in(), l.fan_out()),
                        Matrix::zeros(1, l.fan_out()),
                    )
                })
                .collect();
            self.first_moment = zeros.clone();
            self.second_moment = zeros;
            self.step = 0;
        }
    }

    /// Applies one update step. Updates follow the *descent* convention:
    /// the loss decreases along `-gradient` (callers maximising an
    /// objective negate gradients).
    ///
    /// # Panics
    ///
    /// Panics if `grads` does not match the network's parameter shapes
    /// (a programming error, not a data error).
    pub fn step(&mut self, net: &mut Mlp, grads: &MlpGrads) {
        self.ensure_state(net);
        self.step = self.step.saturating_add(1);
        let bias1 = bias_correction(self.beta1, self.step);
        let bias2 = bias_correction(self.beta2, self.step);
        for (idx, layer) in net.layers_mut().iter_mut().enumerate() {
            let g = &grads.layers[idx];
            assert_eq!(
                g.weights.shape(),
                layer.weights().shape(),
                "adam gradient shape mismatch"
            );
            let (mw, mb) = &mut self.first_moment[idx];
            let (vw, vb) = &mut self.second_moment[idx];
            Self::update_matrix(
                layer.weights_mut(),
                &g.weights,
                mw,
                vw,
                self.learning_rate,
                self.beta1,
                self.beta2,
                self.epsilon,
                bias1,
                bias2,
            );
            Self::update_matrix(
                layer.bias_mut(),
                &g.bias,
                mb,
                vb,
                self.learning_rate,
                self.beta1,
                self.beta2,
                self.epsilon,
                bias1,
                bias2,
            );
        }
    }

    /// Current learning rate.
    pub fn learning_rate(&self) -> f64 {
        self.learning_rate
    }

    /// Overrides the learning rate.
    pub fn set_learning_rate(&mut self, lr: f64) {
        self.learning_rate = lr;
    }

    /// Resets the accumulated moments and step counter.
    pub fn reset(&mut self) {
        self.first_moment.clear();
        self.second_moment.clear();
        self.step = 0;
    }

    /// Whether the optimizer's moment state is compatible with `net`: either
    /// still empty (lazily initialised on the first step) or matching every
    /// layer's parameter shapes exactly. Snapshot loaders use this to reject
    /// checkpoints whose optimizer state disagrees with their network,
    /// which would otherwise panic deep inside [`Adam::step`].
    pub fn state_matches(&self, net: &Mlp) -> bool {
        if self.first_moment.is_empty() && self.second_moment.is_empty() {
            return true;
        }
        let layers = net.layers();
        self.first_moment.len() == layers.len()
            && self.second_moment.len() == layers.len()
            && self
                .first_moment
                .iter()
                .zip(self.second_moment.iter())
                .zip(layers.iter())
                .all(|(((mw, mb), (vw, vb)), layer)| {
                    let w_shape = (layer.fan_in(), layer.fan_out());
                    let b_shape = (1, layer.fan_out());
                    mw.shape() == w_shape
                        && vw.shape() == w_shape
                        && mb.shape() == b_shape
                        && vb.shape() == b_shape
                })
    }

    /// Serializes the full optimizer state (hyper-parameters, step counter
    /// and both moment estimates) into a payload writer, so a resumed
    /// training run continues with bit-identical Adam updates.
    pub fn write_into(&self, w: &mut PayloadWriter) {
        w.write_f64(self.learning_rate);
        w.write_f64(self.beta1);
        w.write_f64(self.beta2);
        w.write_f64(self.epsilon);
        w.write_u64(self.step);
        w.write_usize(self.first_moment.len());
        for ((mw, mb), (vw, vb)) in self.first_moment.iter().zip(self.second_moment.iter()) {
            w.write_matrix(mw);
            w.write_matrix(mb);
            w.write_matrix(vw);
            w.write_matrix(vb);
        }
    }

    /// Deserializes an optimizer written by [`Adam::write_into`].
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] when the payload is truncated or the
    /// hyper-parameters are out of range.
    pub fn read_from(r: &mut PayloadReader<'_>) -> Result<Self, CodecError> {
        let learning_rate = r.read_f64()?;
        let beta1 = r.read_f64()?;
        let beta2 = r.read_f64()?;
        let epsilon = r.read_f64()?;
        let valid = learning_rate.is_finite()
            && learning_rate > 0.0
            && (0.0..1.0).contains(&beta1)
            && (0.0..1.0).contains(&beta2)
            && epsilon > 0.0;
        if !valid {
            return Err(CodecError::Invalid(
                "adam hyper-parameters out of range".to_string(),
            ));
        }
        let mut adam = Adam::with_betas(learning_rate, beta1, beta2, epsilon);
        adam.step = r.read_u64()?;
        let n = r.read_usize()?;
        for _ in 0..n {
            let mw = r.read_matrix()?;
            let mb = r.read_matrix()?;
            let vw = r.read_matrix()?;
            let vb = r.read_matrix()?;
            adam.first_moment.push((mw, mb));
            adam.second_moment.push((vw, vb));
        }
        Ok(adam)
    }

    #[allow(clippy::too_many_arguments)] // private kernel; all scalars are Adam state
    fn update_matrix(
        param: &mut Matrix,
        grad: &Matrix,
        m: &mut Matrix,
        v: &mut Matrix,
        lr: f64,
        beta1: f64,
        beta2: f64,
        eps: f64,
        bias1: f64,
        bias2: f64,
    ) {
        adam_step_slice(
            param.as_mut_slice(),
            grad.as_slice(),
            m.as_mut_slice(),
            v.as_mut_slice(),
            lr,
            beta1,
            beta2,
            eps,
            bias1,
            bias2,
        );
    }
}

/// Adam's bias correction `1 − β^t` at step `t`.
///
/// The exponent saturates at `i32::MAX`, so a step counter restored from a
/// checkpoint at any `u64` value gives a finite correction. That changes no
/// step up to `i32::MAX`; for the default betas it is exact beyond it too,
/// since `β₂^t` is already exactly 0 from `t ≈ 745,000`.
fn bias_correction(beta: f64, step: u64) -> f64 {
    1.0 - beta.powi(i32::try_from(step).unwrap_or(i32::MAX))
}

/// The element-wise Adam update on raw slices, shared by [`Adam`] (matrix
/// parameters) and [`VectorAdam`] (plain `Vec<f64>` parameters such as a
/// policy's log-std) so the two stay numerically identical by construction.
///
/// # Panics
///
/// Panics if the slice lengths differ.
#[allow(clippy::too_many_arguments)] // all scalars are Adam state
pub fn adam_step_slice(
    params: &mut [f64],
    grads: &[f64],
    m: &mut [f64],
    v: &mut [f64],
    lr: f64,
    beta1: f64,
    beta2: f64,
    eps: f64,
    bias1: f64,
    bias2: f64,
) {
    assert!(
        params.len() == grads.len() && params.len() == m.len() && params.len() == v.len(),
        "adam slice length mismatch"
    );
    // `1 − β₁ᵗ` rounds to exactly 1.0 from step 356 at β₁ = 0.9, and
    // `x / 1.0` is `x` bit for bit for every `x` arithmetic produces, so the
    // loop without that division gives the same bits. (`bias2` reaches 1.0
    // only at step 37,412 for β₂ = 0.999; it keeps its division.)
    if bias1 == 1.0 {
        adam_loop(params, grads, m, v, lr, beta1, beta2, eps, bias2, |mi| mi);
    } else {
        adam_loop(params, grads, m, v, lr, beta1, beta2, eps, bias2, |mi| {
            mi / bias1
        });
    }
}

/// The loop of [`adam_step_slice`], with `m_hat` the first moment's bias
/// correction.
#[allow(clippy::too_many_arguments)] // all scalars are Adam state
fn adam_loop(
    params: &mut [f64],
    grads: &[f64],
    m: &mut [f64],
    v: &mut [f64],
    lr: f64,
    beta1: f64,
    beta2: f64,
    eps: f64,
    bias2: f64,
    m_hat: impl Fn(f64) -> f64,
) {
    let moments = m.iter_mut().zip(v.iter_mut());
    for ((p, &g), (m, v)) in params.iter_mut().zip(grads).zip(moments) {
        let mi = beta1 * *m + (1.0 - beta1) * g;
        let vi = beta2 * *v + (1.0 - beta2) * g * g;
        *m = mi;
        *v = vi;
        let v_hat = vi / bias2;
        *p -= lr * m_hat(mi) / (v_hat.sqrt() + eps);
    }
}

/// Adam for a flat `f64` parameter vector (e.g. a Gaussian policy's
/// trainable log-std), sharing the element-wise kernel with [`Adam`].
///
/// Previously `vtm-rl` carried its own private copy of this optimizer next to
/// the PPO agent; it lives here so every crate uses one implementation.
#[derive(Debug, Clone, PartialEq)]
pub struct VectorAdam {
    learning_rate: f64,
    beta1: f64,
    beta2: f64,
    epsilon: f64,
    step: u64,
    m: Vec<f64>,
    v: Vec<f64>,
}

impl VectorAdam {
    /// Creates the optimizer for a `dim`-element parameter vector with the
    /// conventional defaults `beta1 = 0.9`, `beta2 = 0.999`, `epsilon = 1e-8`.
    ///
    /// # Panics
    ///
    /// Panics if `learning_rate` is not finite and positive.
    pub fn new(learning_rate: f64, dim: usize) -> Self {
        assert!(
            learning_rate.is_finite() && learning_rate > 0.0,
            "learning rate must be positive"
        );
        Self {
            learning_rate,
            beta1: 0.9,
            beta2: 0.999,
            epsilon: 1e-8,
            step: 0,
            m: vec![0.0; dim],
            v: vec![0.0; dim],
        }
    }

    /// Applies one Adam step to `params` given `grads`.
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths do not match the optimizer's dimension.
    pub fn step(&mut self, params: &mut [f64], grads: &[f64]) {
        self.step = self.step.saturating_add(1);
        let bias1 = bias_correction(self.beta1, self.step);
        let bias2 = bias_correction(self.beta2, self.step);
        adam_step_slice(
            params,
            grads,
            &mut self.m,
            &mut self.v,
            self.learning_rate,
            self.beta1,
            self.beta2,
            self.epsilon,
            bias1,
            bias2,
        );
    }

    /// Current learning rate.
    pub fn learning_rate(&self) -> f64 {
        self.learning_rate
    }

    /// Overrides the learning rate (used by schedules).
    pub fn set_learning_rate(&mut self, lr: f64) {
        self.learning_rate = lr;
    }

    /// Dimension of the parameter vector the optimizer was built for.
    pub fn dim(&self) -> usize {
        self.m.len()
    }

    /// Resets the accumulated moments and step counter.
    pub fn reset(&mut self) {
        self.m.fill(0.0);
        self.v.fill(0.0);
        self.step = 0;
    }

    /// Serializes the full optimizer state (hyper-parameters, step counter
    /// and both moment vectors) into a payload writer.
    pub fn write_into(&self, w: &mut PayloadWriter) {
        w.write_f64(self.learning_rate);
        w.write_f64(self.beta1);
        w.write_f64(self.beta2);
        w.write_f64(self.epsilon);
        w.write_u64(self.step);
        w.write_f64_vec(&self.m);
        w.write_f64_vec(&self.v);
    }

    /// Deserializes an optimizer written by [`VectorAdam::write_into`].
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] when the payload is truncated, the
    /// hyper-parameters are out of range or the moment vectors disagree in
    /// length.
    pub fn read_from(r: &mut PayloadReader<'_>) -> Result<Self, CodecError> {
        let learning_rate = r.read_f64()?;
        let beta1 = r.read_f64()?;
        let beta2 = r.read_f64()?;
        let epsilon = r.read_f64()?;
        let valid = learning_rate.is_finite()
            && learning_rate > 0.0
            && (0.0..1.0).contains(&beta1)
            && (0.0..1.0).contains(&beta2)
            && epsilon > 0.0;
        if !valid {
            return Err(CodecError::Invalid(
                "vector-adam hyper-parameters out of range".to_string(),
            ));
        }
        let step = r.read_u64()?;
        let m = r.read_f64_vec()?;
        let v = r.read_f64_vec()?;
        if m.len() != v.len() {
            return Err(CodecError::Invalid(
                "vector-adam moment vectors disagree in length".to_string(),
            ));
        }
        Ok(Self {
            learning_rate,
            beta1,
            beta2,
            epsilon,
            step,
            m,
            v,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Activation;
    use crate::mlp::MlpConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Trains `net` to fit y = f(x) on a fixed batch and returns the final MSE.
    fn train_regression(opt: &mut Adam, steps: usize, seed: u64) -> f64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut net = MlpConfig::new(1, &[16], 1)
            .hidden_activation(Activation::Tanh)
            .build(&mut rng);
        let xs: Vec<f64> = (0..32).map(|i| -1.0 + 2.0 * i as f64 / 31.0).collect();
        let targets: Vec<f64> = xs.iter().map(|x| 0.5 * x + 0.2).collect();
        let x = Matrix::column_vector(&xs);
        let t = Matrix::column_vector(&targets);
        let mut last_mse = f64::INFINITY;
        for _ in 0..steps {
            let (y, caches) = net.forward_train(&x).unwrap();
            let diff = y.sub_elem(&t).unwrap();
            last_mse = diff.map(|d| d * d).mean();
            // dMSE/dy = 2 (y - t) / n
            let grad = diff.scale(2.0 / xs.len() as f64);
            let (_, grads) = net.backward(&caches, &grad).unwrap();
            opt.step(&mut net, &grads);
        }
        last_mse
    }

    #[test]
    fn adam_reduces_regression_loss() {
        let mut opt = Adam::new(0.01);
        let mse = train_regression(&mut opt, 300, 2);
        assert!(mse < 1e-3, "adam failed to fit linear target, mse = {mse}");
    }

    #[test]
    fn adam_state_resets() {
        let mut opt = Adam::new(0.01);
        let _ = train_regression(&mut opt, 5, 3);
        opt.reset();
        assert_eq!(opt.first_moment.len(), 0);
        assert_eq!(opt.step, 0);
    }

    #[test]
    fn learning_rate_accessors() {
        let mut opt = Adam::new(0.001);
        assert_eq!(opt.learning_rate(), 0.001);
        opt.set_learning_rate(0.1);
        assert_eq!(opt.learning_rate(), 0.1);
    }

    #[test]
    #[should_panic(expected = "learning rate must be positive")]
    fn adam_rejects_nonpositive_lr() {
        let _ = Adam::new(0.0);
    }

    #[test]
    fn vector_adam_matches_matrix_adam_on_same_problem() {
        // A 1x1-weight, zero-bias "network" updated by Adam must evolve
        // exactly like a 1-element vector updated by VectorAdam with the
        // same gradients — they share the slice kernel.
        let w0 = 0.7;
        let layer = crate::layer::Dense::from_parameters(
            Matrix::filled(1, 1, w0),
            Matrix::zeros(1, 1),
            Activation::Linear,
        )
        .unwrap();
        let mut net = crate::mlp::Mlp::from_layers(vec![layer]).unwrap();
        let mut adam = Adam::new(0.05);
        let mut vadam = VectorAdam::new(0.05, 1);
        let mut params = [w0];
        for step in 0..25 {
            let g = 0.3 * (step as f64 + 1.0).sin();
            let grads = crate::mlp::MlpGrads {
                layers: vec![crate::layer::DenseGrads {
                    weights: Matrix::filled(1, 1, g),
                    bias: Matrix::zeros(1, 1),
                }],
            };
            adam.step(&mut net, &grads);
            vadam.step(&mut params, &[g]);
            assert_eq!(net.layers()[0].weights()[(0, 0)], params[0], "step {step}");
        }
        // Reset clears the moments.
        vadam.reset();
        let before = params[0];
        vadam.step(&mut params, &[0.0]);
        assert_eq!(params[0], before);
    }

    #[test]
    fn vector_adam_accessors_and_descent() {
        let mut opt = VectorAdam::new(0.1, 2);
        assert_eq!(opt.learning_rate(), 0.1);
        opt.set_learning_rate(0.05);
        assert_eq!(opt.learning_rate(), 0.05);
        // Constant gradient: parameters must move against it.
        let mut params = [1.0, -1.0];
        for _ in 0..50 {
            opt.step(&mut params, &[1.0, -1.0]);
        }
        assert!(params[0] < 1.0);
        assert!(params[1] > -1.0);
    }

    #[test]
    #[should_panic(expected = "adam slice length mismatch")]
    fn vector_adam_rejects_wrong_dim() {
        let mut opt = VectorAdam::new(0.1, 2);
        let mut params = [0.0];
        opt.step(&mut params, &[1.0]);
    }

    #[test]
    fn adam_state_round_trips_and_resumes_bit_identically() {
        // Train a few steps, serialize, deserialize, and check further steps
        // of the restored optimizer match the original exactly.
        let mut rng = StdRng::seed_from_u64(21);
        let mut net = MlpConfig::new(2, &[4], 1).build(&mut rng);
        let mut opt = Adam::new(0.01);
        let grads = {
            let x = Matrix::from_rows(&[&[0.5, -0.5]]).unwrap();
            let (y, caches) = net.forward_train(&x).unwrap();
            let (_, g) = net.backward(&caches, &y).unwrap();
            g
        };
        for _ in 0..5 {
            opt.step(&mut net, &grads);
        }
        let mut w = PayloadWriter::new();
        opt.write_into(&mut w);
        let bytes = w.into_bytes();
        let mut restored = Adam::read_from(&mut PayloadReader::new(&bytes)).unwrap();
        assert_eq!(opt, restored);
        let mut net_restored = net.clone();
        opt.step(&mut net, &grads);
        restored.step(&mut net_restored, &grads);
        assert_eq!(net, net_restored);

        // Truncated state is a typed error.
        assert!(matches!(
            Adam::read_from(&mut PayloadReader::new(&bytes[..10])),
            Err(CodecError::Truncated { .. })
        ));
    }

    #[test]
    fn a_restored_step_counter_near_or_past_i32_max_takes_a_finite_step() {
        // The bias-correction exponent saturates at i32::MAX and the counter
        // at u64::MAX, so every one of these restored counters takes the
        // same finite step (beta^t has underflowed to 0 for all of them).
        let grads = [0.5, -0.25];
        let mut vector_steps = Vec::new();
        let mut matrix_steps = Vec::new();
        for step in [i32::MAX as u64 - 1, i32::MAX as u64, u64::MAX] {
            let mut opt = VectorAdam::new(0.05, 2);
            opt.step = step;
            let mut w = PayloadWriter::new();
            opt.write_into(&mut w);
            let bytes = w.into_bytes();
            let mut restored = VectorAdam::read_from(&mut PayloadReader::new(&bytes)).unwrap();
            let mut params = [0.1, -0.2];
            restored.step(&mut params, &grads);
            assert!(params.iter().all(|p| p.is_finite()), "step {step}");
            assert_ne!(params, [0.1, -0.2], "step {step}: parameters did not move");
            vector_steps.push(params);

            let layer = crate::layer::Dense::from_parameters(
                Matrix::filled(1, 1, 0.7),
                Matrix::zeros(1, 1),
                Activation::Linear,
            )
            .unwrap();
            let mut net = crate::mlp::Mlp::from_layers(vec![layer]).unwrap();
            let mut adam = Adam::new(0.05);
            adam.ensure_state(&net);
            adam.step = step;
            let mut w = PayloadWriter::new();
            adam.write_into(&mut w);
            let bytes = w.into_bytes();
            let mut restored = Adam::read_from(&mut PayloadReader::new(&bytes)).unwrap();
            let grads = crate::mlp::MlpGrads {
                layers: vec![crate::layer::DenseGrads {
                    weights: Matrix::filled(1, 1, grads[0]),
                    bias: Matrix::filled(1, 1, grads[1]),
                }],
            };
            restored.step(&mut net, &grads);
            let moved = [
                net.layers()[0].weights()[(0, 0)],
                net.layers()[0].bias()[(0, 0)],
            ];
            assert!(moved.iter().all(|p| p.is_finite()), "step {step}");
            assert_ne!(moved, [0.7, 0.0], "step {step}: parameters did not move");
            matrix_steps.push(moved);
        }
        assert!(vector_steps.iter().all(|p| *p == vector_steps[0]));
        assert!(matrix_steps.iter().all(|p| *p == matrix_steps[0]));
    }

    #[test]
    fn vector_adam_state_round_trips() {
        let mut opt = VectorAdam::new(0.05, 3);
        let mut params = [0.1, -0.2, 0.3];
        for _ in 0..4 {
            opt.step(&mut params, &[0.5, -0.1, 0.2]);
        }
        let mut w = PayloadWriter::new();
        opt.write_into(&mut w);
        let bytes = w.into_bytes();
        let mut restored = VectorAdam::read_from(&mut PayloadReader::new(&bytes)).unwrap();
        assert_eq!(opt, restored);
        let mut params_restored = params;
        opt.step(&mut params, &[0.5, -0.1, 0.2]);
        restored.step(&mut params_restored, &[0.5, -0.1, 0.2]);
        assert_eq!(params, params_restored);
    }
}
