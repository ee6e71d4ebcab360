//! Fully connected (dense) layer with explicit forward / backward passes.

use rand::Rng;

use crate::activation::Activation;
use crate::init::Initializer;
use crate::matrix::{Matrix, ShapeError};

/// A fully connected layer computing `a = activation(x W + b)`.
///
/// Inputs are batches of row vectors: an input of shape `batch x fan_in`
/// produces an output of shape `batch x fan_out`.
#[derive(Debug, Clone, PartialEq)]
pub struct Dense {
    weights: Matrix,
    bias: Matrix,
    activation: Activation,
}

/// Values cached during the forward pass that the backward pass needs.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseCache {
    /// The layer input (`batch x fan_in`).
    pub input: Matrix,
    /// Pre-activation values `x W + b` (`batch x fan_out`).
    pub pre_activation: Matrix,
}

/// Gradients of the loss with respect to a dense layer's parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseGrads {
    /// Gradient w.r.t. the weight matrix (`fan_in x fan_out`).
    pub weights: Matrix,
    /// Gradient w.r.t. the bias row vector (`1 x fan_out`).
    pub bias: Matrix,
}

impl DenseGrads {
    /// A zero gradient with the same shapes as `layer`'s parameters.
    pub fn zeros_like(layer: &Dense) -> Self {
        Self {
            weights: Matrix::zeros(layer.fan_in(), layer.fan_out()),
            bias: Matrix::zeros(1, layer.fan_out()),
        }
    }

    /// Resizes the gradient buffers to match `layer`'s parameter shapes,
    /// reusing existing allocations. Contents are unspecified afterwards (the
    /// fused backward kernel overwrites them completely).
    pub fn ensure_like(&mut self, layer: &Dense) {
        self.weights.resize(layer.fan_in(), layer.fan_out());
        self.bias.resize(1, layer.fan_out());
    }

    /// Accumulates another gradient into this one (`self += other`).
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] when the gradient shapes differ.
    pub fn accumulate(&mut self, other: &DenseGrads) -> Result<(), ShapeError> {
        self.weights.axpy(1.0, &other.weights)?;
        self.bias.axpy(1.0, &other.bias)?;
        Ok(())
    }

    /// Scales the gradient in place.
    pub fn scale_inplace(&mut self, s: f64) {
        self.weights.map_inplace(|x| x * s);
        self.bias.map_inplace(|x| x * s);
    }

    /// Euclidean norm of the concatenated gradient (used for gradient clipping).
    pub fn norm(&self) -> f64 {
        (self.weights.frobenius_norm().powi(2) + self.bias.frobenius_norm().powi(2)).sqrt()
    }
}

impl Dense {
    /// Creates a new dense layer with random weights.
    pub fn new<R: Rng + ?Sized>(
        fan_in: usize,
        fan_out: usize,
        activation: Activation,
        initializer: Initializer,
        rng: &mut R,
    ) -> Self {
        Self {
            weights: initializer.sample(fan_in, fan_out, rng),
            bias: Matrix::zeros(1, fan_out),
            activation,
        }
    }

    /// Creates a layer from explicit parameters.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] when `bias` is not `1 x weights.cols()`.
    pub fn from_parameters(
        weights: Matrix,
        bias: Matrix,
        activation: Activation,
    ) -> Result<Self, ShapeError> {
        if bias.rows() != 1 || bias.cols() != weights.cols() {
            return Err(ShapeError {
                op: "dense_from_parameters",
                lhs: weights.shape(),
                rhs: bias.shape(),
            });
        }
        Ok(Self {
            weights,
            bias,
            activation,
        })
    }

    /// Number of input features.
    pub fn fan_in(&self) -> usize {
        self.weights.rows()
    }

    /// Number of output features.
    pub fn fan_out(&self) -> usize {
        self.weights.cols()
    }

    /// The layer's activation function.
    pub fn activation(&self) -> Activation {
        self.activation
    }

    /// Immutable view of the weight matrix.
    pub fn weights(&self) -> &Matrix {
        &self.weights
    }

    /// Immutable view of the bias row vector.
    pub fn bias(&self) -> &Matrix {
        &self.bias
    }

    /// Mutable access to the weight matrix (used by optimizers).
    pub fn weights_mut(&mut self) -> &mut Matrix {
        &mut self.weights
    }

    /// Mutable access to the bias row vector (used by optimizers).
    pub fn bias_mut(&mut self) -> &mut Matrix {
        &mut self.bias
    }

    /// Number of trainable scalars in the layer.
    pub fn parameter_count(&self) -> usize {
        self.weights.len() + self.bias.len()
    }

    /// Forward pass without caching (inference): the kernel of
    /// [`Dense::affine_into`] without keeping the pre-activations, so the
    /// output is bit-identical to [`Dense::forward_train`]'s.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] when `input.cols() != fan_in`.
    pub fn forward(&self, input: &Matrix) -> Result<Matrix, ShapeError> {
        let mut out = Matrix::zeros(0, 0);
        self.affine(input, &mut out)?;
        self.activation.apply_slice(out.as_mut_slice());
        Ok(out)
    }

    /// Forward pass that also returns the cache required by [`Dense::backward`].
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] when `input.cols() != fan_in`.
    pub fn forward_train(&self, input: &Matrix) -> Result<(Matrix, DenseCache), ShapeError> {
        let pre = input.matmul(&self.weights)?.add_row_broadcast(&self.bias)?;
        let out = self.activation.apply(&pre);
        Ok((
            out,
            DenseCache {
                input: input.clone(),
                pre_activation: pre,
            },
        ))
    }

    /// Fused training forward kernel writing into caller-owned buffers.
    ///
    /// Computes `pre = input · W + b` and `out = activation(pre)` without
    /// allocating: `pre` and `out` are resized in place (allocation-free
    /// once they reach steady-state capacity) and the input is *not*
    /// cloned — the caller keeps it alive for the backward pass instead,
    /// replacing the owning [`DenseCache`]. Results are bit-identical to
    /// [`Dense::forward_train`].
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] when `input.cols() != fan_in`.
    pub fn affine_into(
        &self,
        input: &Matrix,
        pre: &mut Matrix,
        out: &mut Matrix,
    ) -> Result<(), ShapeError> {
        self.affine(input, pre)?;
        out.resize(pre.rows(), pre.cols());
        out.as_mut_slice().copy_from_slice(pre.as_slice());
        self.activation.apply_slice(out.as_mut_slice());
        Ok(())
    }

    /// `z = input · W + b` into `z`: the product kernel with the bias added
    /// after each element's full `k` sum, so bit-identical to `matmul`
    /// followed by `add_row_broadcast`.
    fn affine(&self, input: &Matrix, z: &mut Matrix) -> Result<(), ShapeError> {
        if input.cols() != self.fan_in() {
            return Err(ShapeError {
                op: "affine_into",
                lhs: input.shape(),
                rhs: self.weights.shape(),
            });
        }
        input.matmul_bias_into(&self.weights, &self.bias, z)
    }

    /// Fused backward kernel writing into caller-owned buffers.
    ///
    /// `input`, `pre` and `output` must come from a matching
    /// [`Dense::affine_into`] (or [`Dense::forward_train`]) call; the cached
    /// output lets the activation derivative reuse the forward tanh/sigmoid
    /// via [`Activation::derivative_from_parts`] instead of re-evaluating it.
    /// `grad_pre` is scratch for `dL/dz`; `grads` is fully overwritten with
    /// the parameter gradients; when `grad_input` is `Some`, the gradient
    /// with respect to the layer input is written there (pass `None` for the
    /// first layer to skip the unused product). `dL/dW = xᵀ · dZ` uses
    /// [`Matrix::matmul_at_b_into`]; `dL/dx = dZ · Wᵀ` copies `Wᵀ` into the
    /// `weights_t` scratch and runs [`Matrix::matmul_into`]. Both are
    /// bit-identical to [`Dense::backward`].
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] when `pre`, `output` or `grad_output` is not
    /// `batch x fan_out`, or `input` is not `batch x fan_in`, where `batch`
    /// is `pre.rows()`.
    #[allow(clippy::too_many_arguments)] // backward kernel; every operand is a distinct cache
    pub fn backward_into(
        &self,
        input: &Matrix,
        pre: &Matrix,
        output: &Matrix,
        grad_output: &Matrix,
        grad_pre: &mut Matrix,
        grads: &mut DenseGrads,
        grad_input: Option<&mut Matrix>,
        weights_t: &mut Matrix,
    ) -> Result<(), ShapeError> {
        let batch = pre.rows();
        let outputs = (batch, self.fan_out());
        let operands = [
            (pre, outputs),
            (output, outputs),
            (grad_output, outputs),
            (input, (batch, self.fan_in())),
        ];
        for (operand, expected) in operands {
            if operand.shape() != expected {
                return Err(ShapeError {
                    op: "backward_into",
                    lhs: operand.shape(),
                    rhs: expected,
                });
            }
        }
        // dL/dz = dL/da * f'(z), fused with the activation derivative so no
        // intermediate derivative matrix is materialised.
        grad_pre.resize(batch, self.fan_out());
        let act = self.activation;
        for (((g, &go), &z), &a) in grad_pre
            .as_mut_slice()
            .iter_mut()
            .zip(grad_output.as_slice().iter())
            .zip(pre.as_slice().iter())
            .zip(output.as_slice().iter())
        {
            *g = go * act.derivative_from_parts(z, a);
        }
        grads.ensure_like(self);
        input.matmul_at_b_into(grad_pre, &mut grads.weights)?;
        grad_pre.sum_rows_into(&mut grads.bias);
        if let Some(gi) = grad_input {
            self.weights.transpose_into(weights_t);
            grad_pre.matmul_into(weights_t, gi)?;
        }
        Ok(())
    }

    /// Backward pass.
    ///
    /// `grad_output` is the gradient of the loss with respect to the layer's
    /// *activated* output (`batch x fan_out`). Returns the gradient with
    /// respect to the layer input together with the parameter gradients.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] when `grad_output` does not match the cached
    /// pre-activation shape.
    pub fn backward(
        &self,
        cache: &DenseCache,
        grad_output: &Matrix,
    ) -> Result<(Matrix, DenseGrads), ShapeError> {
        // dL/dz = dL/da * f'(z)
        let act_grad = self.activation.derivative(&cache.pre_activation);
        let grad_pre = grad_output.hadamard(&act_grad)?;
        // dL/dW = x^T (dL/dz), dL/db = column sums of dL/dz, dL/dx = (dL/dz) W^T
        let grad_weights = cache.input.transpose().matmul(&grad_pre)?;
        let grad_bias = grad_pre.sum_rows();
        let grad_input = grad_pre.matmul(&self.weights.transpose())?;
        Ok((
            grad_input,
            DenseGrads {
                weights: grad_weights,
                bias: grad_bias,
            },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn layer() -> Dense {
        let w = Matrix::from_rows(&[&[0.5, -0.25], &[1.0, 0.75], &[-0.5, 0.1]]).unwrap();
        let b = Matrix::row_vector(&[0.1, -0.2]);
        Dense::from_parameters(w, b, Activation::Tanh).unwrap()
    }

    #[test]
    fn forward_shapes_and_values() {
        let l = layer();
        let x = Matrix::from_rows(&[&[1.0, 2.0, 3.0]]).unwrap();
        let y = l.forward(&x).unwrap();
        assert_eq!(y.shape(), (1, 2));
        // z0 = 1*0.5 + 2*1.0 + 3*(-0.5) + 0.1 = 1.1, z1 = -0.25 + 1.5 + 0.3 - 0.2 = 1.35
        assert!((y[(0, 0)] - 1.1_f64.tanh()).abs() < 1e-12);
        assert!((y[(0, 1)] - 1.35_f64.tanh()).abs() < 1e-12);
    }

    #[test]
    fn forward_rejects_wrong_input_width() {
        let l = layer();
        let x = Matrix::from_rows(&[&[1.0, 2.0]]).unwrap();
        assert!(l.forward(&x).is_err());
    }

    #[test]
    fn from_parameters_rejects_bad_bias() {
        let w = Matrix::zeros(2, 3);
        let b = Matrix::zeros(1, 2);
        assert!(Dense::from_parameters(w, b, Activation::Linear).is_err());
    }

    #[test]
    fn backward_matches_numerical_gradient() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut l = Dense::new(4, 3, Activation::Tanh, Initializer::XavierUniform, &mut rng);
        let x = Matrix::from_rows(&[&[0.3, -0.8, 1.2, 0.05], &[0.9, 0.1, -0.4, -1.0]]).unwrap();
        // Scalar loss: sum of outputs.
        let loss = |l: &Dense, x: &Matrix| l.forward(x).unwrap().sum();

        let (_, cache) = l.forward_train(&x).unwrap();
        let grad_out = Matrix::ones(2, 3);
        let (grad_input, grads) = l.backward(&cache, &grad_out).unwrap();

        let h = 1e-6;
        // Check weight gradients.
        for r in 0..l.fan_in() {
            for c in 0..l.fan_out() {
                let orig = l.weights()[(r, c)];
                l.weights_mut()[(r, c)] = orig + h;
                let up = loss(&l, &x);
                l.weights_mut()[(r, c)] = orig - h;
                let down = loss(&l, &x);
                l.weights_mut()[(r, c)] = orig;
                let numeric = (up - down) / (2.0 * h);
                assert!(
                    (numeric - grads.weights[(r, c)]).abs() < 1e-5,
                    "dW({r},{c}) numeric {numeric} analytic {}",
                    grads.weights[(r, c)]
                );
            }
        }
        // Check bias gradients.
        for c in 0..l.fan_out() {
            let orig = l.bias()[(0, c)];
            l.bias_mut()[(0, c)] = orig + h;
            let up = loss(&l, &x);
            l.bias_mut()[(0, c)] = orig - h;
            let down = loss(&l, &x);
            l.bias_mut()[(0, c)] = orig;
            let numeric = (up - down) / (2.0 * h);
            assert!((numeric - grads.bias[(0, c)]).abs() < 1e-5);
        }
        // Check input gradients.
        for r in 0..2 {
            for c in 0..4 {
                let mut xp = x.clone();
                xp[(r, c)] += h;
                let mut xm = x.clone();
                xm[(r, c)] -= h;
                let numeric = (loss(&l, &xp) - loss(&l, &xm)) / (2.0 * h);
                assert!((numeric - grad_input[(r, c)]).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn affine_into_matches_forward_train_bitwise() {
        let mut rng = StdRng::seed_from_u64(42);
        let l = Dense::new(5, 4, Activation::Tanh, Initializer::XavierUniform, &mut rng);
        let x = Matrix::from_rows(&[
            &[0.3, -0.8, 1.2, 0.05, -1.4],
            &[0.9, 0.1, -0.4, -1.0, 0.6],
            &[0.0, 2.0, -2.0, 0.5, 0.0],
        ])
        .unwrap();
        let (out_ref, cache) = l.forward_train(&x).unwrap();
        let mut pre = Matrix::zeros(0, 0);
        let mut out = Matrix::zeros(0, 0);
        l.affine_into(&x, &mut pre, &mut out).unwrap();
        assert_eq!(pre, cache.pre_activation);
        assert_eq!(out, out_ref);
        // Rejects mismatched input width.
        let bad = Matrix::zeros(2, 3);
        assert!(l.affine_into(&bad, &mut pre, &mut out).is_err());
    }

    #[test]
    fn backward_into_matches_backward_bitwise() {
        let mut rng = StdRng::seed_from_u64(43);
        let l = Dense::new(4, 3, Activation::Tanh, Initializer::XavierUniform, &mut rng);
        let x = Matrix::from_rows(&[&[0.3, -0.8, 1.2, 0.05], &[0.9, 0.1, -0.4, -1.0]]).unwrap();
        let (out, cache) = l.forward_train(&x).unwrap();
        let grad_out = out.map(|v| 0.5 * v - 0.25);
        let (grad_input_ref, grads_ref) = l.backward(&cache, &grad_out).unwrap();

        let mut pre = Matrix::zeros(0, 0);
        let mut act = Matrix::zeros(0, 0);
        l.affine_into(&x, &mut pre, &mut act).unwrap();
        let mut grad_pre = Matrix::zeros(0, 0);
        let mut grads = DenseGrads::zeros_like(&l);
        let mut grad_input = Matrix::zeros(0, 0);
        let mut weights_t = Matrix::zeros(0, 0);
        l.backward_into(
            &x,
            &pre,
            &act,
            &grad_out,
            &mut grad_pre,
            &mut grads,
            Some(&mut grad_input),
            &mut weights_t,
        )
        .unwrap();
        assert_eq!(grads.weights, grads_ref.weights);
        assert_eq!(grads.bias, grads_ref.bias);
        assert_eq!(grad_input, grad_input_ref);
        assert_eq!(weights_t, l.weights().transpose());

        // `None` skips the input gradient but still produces parameter
        // grads. A mismatched upstream gradient, and an input whose batch or
        // width differs from the forward pass's, are rejected.
        let mut grads2 = DenseGrads::zeros_like(&l);
        let mut backward = |input: &Matrix, upstream: &Matrix| {
            let (gp, wt) = (&mut grad_pre, &mut weights_t);
            l.backward_into(input, &pre, &act, upstream, gp, &mut grads2, None, wt)?;
            Ok::<_, ShapeError>(grads2.weights.clone())
        };
        assert_eq!(backward(&x, &grad_out).unwrap(), grads_ref.weights);
        assert!(backward(&x, &Matrix::zeros(2, 5)).is_err());
        for bad_input in [Matrix::zeros(2, 5), Matrix::zeros(3, 4)] {
            let err = backward(&bad_input, &grad_out).unwrap_err();
            assert_eq!((err.lhs, err.rhs), (bad_input.shape(), (2, 4)));
        }
    }

    #[test]
    fn grads_accumulate_and_scale() {
        let l = layer();
        let mut g = DenseGrads::zeros_like(&l);
        let mut g2 = DenseGrads::zeros_like(&l);
        g2.weights.map_inplace(|_| 2.0);
        g2.bias.map_inplace(|_| 4.0);
        g.accumulate(&g2).unwrap();
        g.scale_inplace(0.5);
        assert!(g
            .weights
            .as_slice()
            .iter()
            .all(|&x| (x - 1.0).abs() < 1e-12));
        assert!(g.bias.as_slice().iter().all(|&x| (x - 2.0).abs() < 1e-12));
        assert!(g.norm() > 0.0);
    }

    #[test]
    fn parameter_count_is_consistent() {
        let l = layer();
        assert_eq!(l.parameter_count(), 3 * 2 + 2);
    }
}
