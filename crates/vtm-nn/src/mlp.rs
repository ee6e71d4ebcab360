//! Multi-layer perceptron built from [`Dense`] layers.

use std::path::Path;

use rand::Rng;

use crate::activation::Activation;
use crate::codec::{CodecError, PayloadReader, PayloadWriter, WeightCodec, KIND_MLP};
use crate::init::Initializer;
use crate::layer::{Dense, DenseCache, DenseGrads};
use crate::matrix::{Matrix, ShapeError};

/// Configuration for building an [`Mlp`].
///
/// # Examples
///
/// ```
/// use vtm_nn::mlp::MlpConfig;
/// use vtm_nn::activation::Activation;
///
/// let cfg = MlpConfig::new(8, &[64, 64], 1)
///     .hidden_activation(Activation::Tanh)
///     .output_activation(Activation::Linear);
/// assert_eq!(cfg.layer_sizes(), vec![8, 64, 64, 1]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MlpConfig {
    input_dim: usize,
    hidden_dims: Vec<usize>,
    output_dim: usize,
    hidden_activation: Activation,
    output_activation: Activation,
    hidden_initializer: Initializer,
    output_initializer: Initializer,
}

impl MlpConfig {
    /// Creates a configuration with tanh hidden layers and a linear output layer,
    /// which is the architecture the paper uses (two hidden layers of 64 units).
    pub fn new(input_dim: usize, hidden_dims: &[usize], output_dim: usize) -> Self {
        Self {
            input_dim,
            hidden_dims: hidden_dims.to_vec(),
            output_dim,
            hidden_activation: Activation::Tanh,
            output_activation: Activation::Linear,
            hidden_initializer: Initializer::XavierUniform,
            output_initializer: Initializer::ScaledXavier { gain: 0.01 },
        }
    }

    /// Sets the activation used by every hidden layer.
    pub fn hidden_activation(mut self, activation: Activation) -> Self {
        self.hidden_activation = activation;
        self
    }

    /// Sets the activation used by the output layer.
    pub fn output_activation(mut self, activation: Activation) -> Self {
        self.output_activation = activation;
        self
    }

    /// Sets the initializer used by hidden layers.
    pub fn hidden_initializer(mut self, init: Initializer) -> Self {
        self.hidden_initializer = init;
        self
    }

    /// Sets the initializer used by the output layer.
    pub fn output_initializer(mut self, init: Initializer) -> Self {
        self.output_initializer = init;
        self
    }

    /// Input dimensionality.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Output dimensionality.
    pub fn output_dim(&self) -> usize {
        self.output_dim
    }

    /// All layer sizes from input to output.
    pub fn layer_sizes(&self) -> Vec<usize> {
        let mut sizes = Vec::with_capacity(self.hidden_dims.len() + 2);
        sizes.push(self.input_dim);
        sizes.extend_from_slice(&self.hidden_dims);
        sizes.push(self.output_dim);
        sizes
    }

    /// Builds the network, sampling weights from `rng`.
    pub fn build<R: Rng + ?Sized>(&self, rng: &mut R) -> Mlp {
        let sizes = self.layer_sizes();
        let mut layers = Vec::with_capacity(sizes.len() - 1);
        for i in 0..sizes.len() - 1 {
            let last = i == sizes.len() - 2;
            let activation = if last {
                self.output_activation
            } else {
                self.hidden_activation
            };
            let init = if last {
                self.output_initializer
            } else {
                self.hidden_initializer
            };
            layers.push(Dense::new(sizes[i], sizes[i + 1], activation, init, rng));
        }
        Mlp { layers }
    }
}

/// Lanes of [`MlpGrads::global_norm`]'s sum of squares. A constant, not the
/// ISA's vector width, so every build sums in the same order.
const NORM_LANES: usize = 8;

/// Gradients for every layer of an [`Mlp`], ordered from input layer to output layer.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MlpGrads {
    /// Per-layer parameter gradients.
    pub layers: Vec<DenseGrads>,
}

impl MlpGrads {
    /// A zero gradient matching `net`'s parameter shapes.
    pub fn zeros_like(net: &Mlp) -> Self {
        Self {
            layers: net.layers.iter().map(DenseGrads::zeros_like).collect(),
        }
    }

    /// An empty gradient container, ready to be sized by
    /// [`MlpGrads::ensure_like`] (used for reusable scratch).
    pub fn empty() -> Self {
        Self { layers: Vec::new() }
    }

    /// Resizes the per-layer buffers to match `net`'s parameter shapes,
    /// reusing existing allocations. Contents are unspecified afterwards
    /// ([`Mlp::backward_ws`] overwrites them completely).
    pub fn ensure_like(&mut self, net: &Mlp) {
        self.layers.resize_with(net.layers.len(), || DenseGrads {
            weights: Matrix::zeros(0, 0),
            bias: Matrix::zeros(0, 0),
        });
        for (g, layer) in self.layers.iter_mut().zip(net.layers.iter()) {
            g.ensure_like(layer);
        }
    }

    /// Accumulates `other` into `self`.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] when the layer shapes differ.
    pub fn accumulate(&mut self, other: &MlpGrads) -> Result<(), ShapeError> {
        for (a, b) in self.layers.iter_mut().zip(other.layers.iter()) {
            a.accumulate(b)?;
        }
        Ok(())
    }

    /// Scales every gradient in place.
    pub fn scale_inplace(&mut self, s: f64) {
        for g in &mut self.layers {
            g.scale_inplace(s);
        }
    }

    /// Global L2 norm across all layers, in one pass: layer by layer,
    /// weights then bias, element `i` of each tensor adds its square to lane
    /// `i % NORM_LANES`; the lanes are summed from the first, then one square
    /// root. Each lane is one sequential sum, so the lanes may run in
    /// vector registers of any width with the same bits.
    pub fn global_norm(&self) -> f64 {
        let mut lanes = [0.0; NORM_LANES];
        let mut add = |values: &[f64]| {
            for (lane, &x) in lanes.iter_mut().zip(values) {
                *lane += x * x;
            }
        };
        for g in &self.layers {
            for tensor in [&g.weights, &g.bias] {
                let (groups, tail) = tensor.as_slice().as_chunks::<NORM_LANES>();
                groups.iter().for_each(|group| add(group));
                add(tail);
            }
        }
        lanes.iter().sum::<f64>().sqrt()
    }

    /// Clips the global norm to `max_norm`, returning the pre-clip norm.
    pub fn clip_global_norm(&mut self, max_norm: f64) -> f64 {
        let norm = self.global_norm();
        if norm > max_norm && norm > 0.0 {
            self.scale_inplace(max_norm / norm);
        }
        norm
    }
}

/// Reusable per-network training buffers for the allocation-free
/// [`Mlp::forward_train_ws`] / [`Mlp::backward_ws`] path.
///
/// The workspace owns one pre-activation and one activation matrix per layer
/// (replacing the per-call [`DenseCache`] clones of
/// [`Mlp::forward_train`], which also cloned the layer input) plus the
/// backward-pass scratch. All buffers are resized in place, so after the
/// first use at a given batch size no call allocates.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use rand::rngs::StdRng;
/// use vtm_nn::matrix::Matrix;
/// use vtm_nn::mlp::{MlpConfig, MlpGrads, TrainWorkspace};
///
/// let net = MlpConfig::new(3, &[8], 2).build(&mut StdRng::seed_from_u64(0));
/// let x = Matrix::zeros(4, 3);
/// let mut ws = TrainWorkspace::new();
/// let mut grads = MlpGrads::empty();
/// let out = net.forward_train_ws(&x, &mut ws).unwrap().clone();
/// net.backward_ws(&x, &mut ws, &out, &mut grads).unwrap();
/// assert_eq!(grads.layers.len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TrainWorkspace {
    /// Per-layer pre-activations `z = x W + b` (`batch x fan_out`).
    pre: Vec<Matrix>,
    /// Per-layer activated outputs (`batch x fan_out`).
    act: Vec<Matrix>,
    /// Per-layer `dL/dz` scratch for the backward pass.
    grad_pre: Vec<Matrix>,
    /// Per-layer `dL/d(input of layer)` scratch for the backward pass.
    grad_act: Vec<Matrix>,
    /// Per-layer `Wᵀ`, copied once per backward pass so that `dZ · Wᵀ`
    /// runs the same product kernel as every other product.
    weights_t: Vec<Matrix>,
    /// Batch size of the last forward pass (guards backward consistency).
    batch: usize,
}

impl TrainWorkspace {
    /// Creates an empty workspace; buffers are sized lazily on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// The activated output of the last [`Mlp::forward_train_ws`] call.
    ///
    /// # Panics
    ///
    /// Panics if no forward pass has populated the workspace yet.
    pub fn output(&self) -> &Matrix {
        self.act
            .last()
            .expect("workspace not populated by a forward pass")
    }

    fn ensure(&mut self, net: &Mlp) {
        let n = net.layers.len();
        self.pre.resize_with(n, || Matrix::zeros(0, 0));
        self.act.resize_with(n, || Matrix::zeros(0, 0));
        self.grad_pre.resize_with(n, || Matrix::zeros(0, 0));
        self.grad_act.resize_with(n, || Matrix::zeros(0, 0));
        self.weights_t.resize_with(n, || Matrix::zeros(0, 0));
    }
}

/// A feed-forward network of [`Dense`] layers operating on batches of row vectors.
#[derive(Debug, Clone, PartialEq)]
pub struct Mlp {
    layers: Vec<Dense>,
}

impl Mlp {
    /// Builds an MLP directly from layers.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] if consecutive layers have mismatched widths.
    pub fn from_layers(layers: Vec<Dense>) -> Result<Self, ShapeError> {
        for pair in layers.windows(2) {
            if pair[0].fan_out() != pair[1].fan_in() {
                return Err(ShapeError {
                    op: "mlp_from_layers",
                    lhs: (pair[0].fan_in(), pair[0].fan_out()),
                    rhs: (pair[1].fan_in(), pair[1].fan_out()),
                });
            }
        }
        Ok(Self { layers })
    }

    /// The layers of the network, input to output.
    pub fn layers(&self) -> &[Dense] {
        &self.layers
    }

    /// Mutable access to the layers (used by optimizers).
    pub fn layers_mut(&mut self) -> &mut [Dense] {
        &mut self.layers
    }

    /// Input dimensionality (0 if the network has no layers).
    pub fn input_dim(&self) -> usize {
        self.layers.first().map_or(0, Dense::fan_in)
    }

    /// Output dimensionality (0 if the network has no layers).
    pub fn output_dim(&self) -> usize {
        self.layers.last().map_or(0, Dense::fan_out)
    }

    /// Total number of trainable scalars.
    pub fn parameter_count(&self) -> usize {
        self.layers.iter().map(Dense::parameter_count).sum()
    }

    /// Forward pass for inference.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] when the input width does not match [`Mlp::input_dim`].
    pub fn forward(&self, input: &Matrix) -> Result<Matrix, ShapeError> {
        let Some((first, rest)) = self.layers.split_first() else {
            return Ok(input.clone());
        };
        let mut x = first.forward(input)?;
        for layer in rest {
            x = layer.forward(&x)?;
        }
        Ok(x)
    }

    /// Convenience forward pass for a single observation vector; returns the output row.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] when the slice length does not match [`Mlp::input_dim`].
    pub fn forward_vec(&self, input: &[f64]) -> Result<Vec<f64>, ShapeError> {
        let out = self.forward(&Matrix::row_vector(input))?;
        Ok(out.into_vec())
    }

    /// Batch inference over a set of observation rows in one forward pass.
    ///
    /// Stacks `rows` into a single matrix and runs [`Mlp::forward`] once, so a
    /// batch of `B` observations costs one matrix product per layer instead of
    /// `B` row-vector products. Because every output row of a matrix product
    /// is accumulated independently and in the same order as the row-vector
    /// path, the result is bit-identical to calling [`Mlp::forward_vec`] on
    /// each row — the vectorized rollout collector in `vtm-rl` relies on this
    /// for serial/parallel determinism.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] when rows are ragged or their width does not
    /// match [`Mlp::input_dim`]. An empty batch is not an error: it returns
    /// a `0 x output_dim` matrix.
    pub fn forward_rows(&self, rows: &[&[f64]]) -> Result<Matrix, ShapeError> {
        if rows.is_empty() {
            // `Matrix::from_rows` has no width to give zero rows.
            return Ok(Matrix::zeros(0, self.output_dim()));
        }
        self.forward(&Matrix::from_rows(rows)?)
    }

    /// Forward pass that caches intermediate values for [`Mlp::backward`].
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] when the input width does not match [`Mlp::input_dim`].
    pub fn forward_train(&self, input: &Matrix) -> Result<(Matrix, Vec<DenseCache>), ShapeError> {
        let mut x = input.clone();
        let mut caches = Vec::with_capacity(self.layers.len());
        for layer in &self.layers {
            let (out, cache) = layer.forward_train(&x)?;
            caches.push(cache);
            x = out;
        }
        Ok((x, caches))
    }

    /// Allocation-free training forward pass using a reusable workspace.
    ///
    /// Equivalent to [`Mlp::forward_train`] — results are bit-identical — but
    /// caches pre-activations and activations in `ws`'s buffers instead of
    /// allocating a fresh [`DenseCache`] (with its input clone) per layer.
    /// Returns the network output, which lives inside `ws` until the next
    /// forward pass. The caller must keep `input` alive and unchanged until
    /// the matching [`Mlp::backward_ws`] call.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] when the input width does not match
    /// [`Mlp::input_dim`].
    ///
    /// # Panics
    ///
    /// Panics if the network has no layers.
    pub fn forward_train_ws<'w>(
        &self,
        input: &Matrix,
        ws: &'w mut TrainWorkspace,
    ) -> Result<&'w Matrix, ShapeError> {
        assert!(!self.layers.is_empty(), "network must have layers");
        ws.ensure(self);
        ws.batch = input.rows();
        for (idx, layer) in self.layers.iter().enumerate() {
            if idx == 0 {
                layer.affine_into(input, &mut ws.pre[0], &mut ws.act[0])?;
            } else {
                let (before, after) = ws.act.split_at_mut(idx);
                layer.affine_into(&before[idx - 1], &mut ws.pre[idx], &mut after[0])?;
            }
        }
        Ok(ws.output())
    }

    /// Allocation-free backward pass over the caches of the last
    /// [`Mlp::forward_train_ws`] call.
    ///
    /// `input` must be the same matrix that was passed to the forward call and
    /// `grad_output` the loss gradient with respect to the network output.
    /// `grads` is fully overwritten (resized in place on first use). Unlike
    /// [`Mlp::backward`], the gradient with respect to the network *input* is
    /// not computed — PPO's update never consumes it, and skipping it saves
    /// one `batch x input_dim` product per step. Parameter gradients are
    /// bit-identical to [`Mlp::backward`].
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] when shapes are inconsistent with the cached
    /// forward pass.
    ///
    /// # Panics
    ///
    /// Panics if the workspace was not populated by a forward pass over a
    /// batch of the same size.
    pub fn backward_ws(
        &self,
        input: &Matrix,
        ws: &mut TrainWorkspace,
        grad_output: &Matrix,
        grads: &mut MlpGrads,
    ) -> Result<(), ShapeError> {
        assert_eq!(
            ws.act.len(),
            self.layers.len(),
            "workspace must be populated by a forward pass over this network"
        );
        assert_eq!(
            ws.batch,
            input.rows(),
            "workspace batch does not match the input batch"
        );
        grads.ensure_like(self);
        let last = self.layers.len() - 1;
        for (idx, layer) in self.layers.iter().enumerate().rev() {
            // Upstream gradient: the caller's for the last layer, otherwise
            // the input-gradient the layer above just wrote. Split borrows so
            // grad_act[idx + 1] can be read while grad_act[idx] is written.
            let (ga_head, ga_tail) = ws.grad_act.split_at_mut(idx + 1);
            let upstream = if idx == last {
                grad_output
            } else {
                &ga_tail[0]
            };
            let layer_input = if idx == 0 { input } else { &ws.act[idx - 1] };
            // Layer 0's input gradient is never used: skip the product.
            let grad_input = if idx == 0 {
                None
            } else {
                Some(&mut ga_head[idx])
            };
            layer.backward_into(
                layer_input,
                &ws.pre[idx],
                &ws.act[idx],
                upstream,
                &mut ws.grad_pre[idx],
                &mut grads.layers[idx],
                grad_input,
                &mut ws.weights_t[idx],
            )?;
        }
        Ok(())
    }

    /// Serializes the network into a payload writer (layer count, then
    /// per-layer activation tag, weights and bias). Used both by
    /// [`Mlp::save_to`] and by composite checkpoint formats (policy
    /// snapshots) that embed several networks in one file.
    pub fn write_into(&self, w: &mut PayloadWriter) {
        w.write_usize(self.layers.len());
        for layer in &self.layers {
            w.write_u64(u64::from(layer.activation().tag()));
            w.write_matrix(layer.weights());
            w.write_matrix(layer.bias());
        }
    }

    /// Deserializes a network written by [`Mlp::write_into`].
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] when the payload is truncated, an activation
    /// tag is unknown, or the decoded layer shapes are inconsistent.
    pub fn read_from(r: &mut PayloadReader<'_>) -> Result<Self, CodecError> {
        let n = r.read_usize()?;
        let mut layers = Vec::with_capacity(n.min(1024));
        for i in 0..n {
            let tag = r.read_u64()?;
            let activation = u8::try_from(tag)
                .ok()
                .and_then(Activation::from_tag)
                .ok_or_else(|| {
                    CodecError::Invalid(format!("layer {i}: unknown activation tag {tag}"))
                })?;
            let weights = r.read_matrix()?;
            let bias = r.read_matrix()?;
            let layer = Dense::from_parameters(weights, bias, activation)
                .map_err(|e| CodecError::Invalid(format!("layer {i}: {e}")))?;
            layers.push(layer);
        }
        Mlp::from_layers(layers).map_err(|e| CodecError::Invalid(format!("layer widths: {e}")))
    }

    /// Saves the network to `path` in the versioned binary weight format
    /// (see [`crate::codec`]). The file round-trips bit-exactly:
    /// [`Mlp::load_from`] reproduces a network whose outputs are
    /// indistinguishable from this one's.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError::Io`] when the file cannot be written.
    pub fn save_to(&self, path: impl AsRef<Path>) -> Result<(), CodecError> {
        let mut w = PayloadWriter::new();
        self.write_into(&mut w);
        WeightCodec::write_file(path.as_ref(), KIND_MLP, w.as_bytes())
    }

    /// Loads a network written by [`Mlp::save_to`].
    ///
    /// # Errors
    ///
    /// Returns the matching typed [`CodecError`] for i/o failures, bad magic,
    /// unsupported versions, checksum mismatches, truncation and structurally
    /// invalid payloads — never panics on corrupt input.
    pub fn load_from(path: impl AsRef<Path>) -> Result<Self, CodecError> {
        let payload = WeightCodec::read_file(path.as_ref(), KIND_MLP)?;
        let mut r = PayloadReader::new(&payload);
        let net = Self::read_from(&mut r)?;
        if !r.is_exhausted() {
            return Err(CodecError::Invalid(format!(
                "{} trailing bytes after the network",
                r.remaining()
            )));
        }
        Ok(net)
    }

    /// Backward pass through the whole network.
    ///
    /// `grad_output` is the gradient of the scalar loss with respect to the
    /// network output. Returns the gradient with respect to the network input
    /// together with per-layer parameter gradients.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] when shapes are inconsistent with the caches.
    pub fn backward(
        &self,
        caches: &[DenseCache],
        grad_output: &Matrix,
    ) -> Result<(Matrix, MlpGrads), ShapeError> {
        assert_eq!(
            caches.len(),
            self.layers.len(),
            "cache count must match layer count"
        );
        let mut grad = grad_output.clone();
        let mut layer_grads = vec![None; self.layers.len()];
        for (idx, layer) in self.layers.iter().enumerate().rev() {
            let (grad_input, grads) = layer.backward(&caches[idx], &grad)?;
            layer_grads[idx] = Some(grads);
            grad = grad_input;
        }
        Ok((
            grad,
            MlpGrads {
                layers: layer_grads.into_iter().map(Option::unwrap).collect(),
            },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn net(seed: u64) -> Mlp {
        MlpConfig::new(3, &[8, 8], 2).build(&mut StdRng::seed_from_u64(seed))
    }

    #[test]
    fn config_layer_sizes() {
        let cfg = MlpConfig::new(4, &[16, 32], 1);
        assert_eq!(cfg.layer_sizes(), vec![4, 16, 32, 1]);
        assert_eq!(cfg.input_dim(), 4);
        assert_eq!(cfg.output_dim(), 1);
    }

    #[test]
    fn build_produces_expected_dims() {
        let n = net(0);
        assert_eq!(n.input_dim(), 3);
        assert_eq!(n.output_dim(), 2);
        assert_eq!(n.layers().len(), 3);
        assert_eq!(n.parameter_count(), 3 * 8 + 8 + 8 * 8 + 8 + 8 * 2 + 2);
    }

    #[test]
    fn forward_shapes() {
        let n = net(1);
        let x = Matrix::zeros(5, 3);
        let y = n.forward(&x).unwrap();
        assert_eq!(y.shape(), (5, 2));
        let v = n.forward_vec(&[0.1, 0.2, 0.3]).unwrap();
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn forward_rejects_bad_width() {
        let n = net(2);
        assert!(n.forward(&Matrix::zeros(1, 4)).is_err());
    }

    #[test]
    fn from_layers_rejects_mismatched_widths() {
        let mut rng = StdRng::seed_from_u64(3);
        let a = Dense::new(3, 4, Activation::Tanh, Initializer::XavierUniform, &mut rng);
        let b = Dense::new(
            5,
            2,
            Activation::Linear,
            Initializer::XavierUniform,
            &mut rng,
        );
        assert!(Mlp::from_layers(vec![a, b]).is_err());
    }

    #[test]
    fn backward_matches_numerical_gradient() {
        let mut n = net(4);
        let x = Matrix::from_rows(&[&[0.4, -0.2, 0.9], &[-1.1, 0.3, 0.7]]).unwrap();
        let loss = |n: &Mlp, x: &Matrix| {
            // Loss = sum of squares of outputs / 2.
            let y = n.forward(x).unwrap();
            0.5 * y.as_slice().iter().map(|v| v * v).sum::<f64>()
        };
        let (y, caches) = n.forward_train(&x).unwrap();
        // dL/dy = y for this loss.
        let (_, grads) = n.backward(&caches, &y).unwrap();

        let h = 1e-6;
        for layer_idx in 0..n.layers().len() {
            for r in 0..n.layers()[layer_idx].fan_in() {
                for c in 0..n.layers()[layer_idx].fan_out() {
                    let orig = n.layers()[layer_idx].weights()[(r, c)];
                    n.layers_mut()[layer_idx].weights_mut()[(r, c)] = orig + h;
                    let up = loss(&n, &x);
                    n.layers_mut()[layer_idx].weights_mut()[(r, c)] = orig - h;
                    let down = loss(&n, &x);
                    n.layers_mut()[layer_idx].weights_mut()[(r, c)] = orig;
                    let numeric = (up - down) / (2.0 * h);
                    let analytic = grads.layers[layer_idx].weights[(r, c)];
                    assert!(
                        (numeric - analytic).abs() < 1e-4,
                        "layer {layer_idx} dW({r},{c}): numeric {numeric} analytic {analytic}"
                    );
                }
            }
        }
    }

    #[test]
    fn workspace_forward_matches_forward_train_bitwise() {
        let n = net(9);
        let x =
            Matrix::from_rows(&[&[0.4, -0.2, 0.9], &[-1.1, 0.3, 0.7], &[0.0, 0.0, 0.0]]).unwrap();
        let (y_ref, caches) = n.forward_train(&x).unwrap();
        let mut ws = TrainWorkspace::new();
        let y = n.forward_train_ws(&x, &mut ws).unwrap();
        assert_eq!(*y, y_ref);
        // Cached pre-activations match the allocating caches bit for bit.
        for (idx, cache) in caches.iter().enumerate() {
            assert_eq!(ws.pre[idx], cache.pre_activation);
        }
        // A second pass reuses the buffers and still agrees.
        let y2 = n.forward_train_ws(&x, &mut ws).unwrap().clone();
        assert_eq!(y2, y_ref);
    }

    #[test]
    fn workspace_backward_matches_backward_bitwise() {
        let n = net(10);
        let x = Matrix::from_rows(&[&[0.4, -0.2, 0.9], &[-1.1, 0.3, 0.7]]).unwrap();
        let (y, caches) = n.forward_train(&x).unwrap();
        let (_, grads_ref) = n.backward(&caches, &y).unwrap();

        let mut ws = TrainWorkspace::new();
        let mut grads = MlpGrads::empty();
        let grad_out = n.forward_train_ws(&x, &mut ws).unwrap().clone();
        n.backward_ws(&x, &mut ws, &grad_out, &mut grads).unwrap();
        assert_eq!(grads.layers.len(), grads_ref.layers.len());
        for (a, b) in grads.layers.iter().zip(grads_ref.layers.iter()) {
            assert_eq!(a.weights, b.weights);
            assert_eq!(a.bias, b.bias);
        }
        // Reused grads scratch across batch-size changes stays correct.
        let x2 = Matrix::from_rows(&[&[1.0, 2.0, 3.0]]).unwrap();
        let (y2, caches2) = n.forward_train(&x2).unwrap();
        let (_, grads_ref2) = n.backward(&caches2, &y2).unwrap();
        let grad_out2 = n.forward_train_ws(&x2, &mut ws).unwrap().clone();
        n.backward_ws(&x2, &mut ws, &grad_out2, &mut grads).unwrap();
        for (a, b) in grads.layers.iter().zip(grads_ref2.layers.iter()) {
            assert_eq!(a.weights, b.weights);
            assert_eq!(a.bias, b.bias);
        }
        // An input of the forward batch but the wrong width is rejected
        // instead of becoming a mis-shaped layer-0 weight gradient.
        let wide = Matrix::zeros(1, 5);
        let err = n
            .backward_ws(&wide, &mut ws, &grad_out2, &mut grads)
            .unwrap_err();
        assert_eq!((err.lhs, err.rhs), ((1, 5), (1, 3)));
    }

    #[test]
    fn workspace_backward_matches_numerical_gradient() {
        use crate::gradcheck::check_gradients;
        let n = net(11);
        let x = Matrix::from_rows(&[&[0.4, -0.2, 0.9], &[-1.1, 0.3, 0.7]]).unwrap();
        // Loss = 0.5 * sum(y^2), so dL/dy = y.
        let mut ws = TrainWorkspace::new();
        let mut grads = MlpGrads::empty();
        let grad_out = n.forward_train_ws(&x, &mut ws).unwrap().clone();
        n.backward_ws(&x, &mut ws, &grad_out, &mut grads).unwrap();
        let report = check_gradients(
            &n,
            &grads,
            |net| {
                0.5 * net
                    .forward(&x)
                    .unwrap()
                    .as_slice()
                    .iter()
                    .map(|v| v * v)
                    .sum::<f64>()
            },
            1e-6,
        );
        assert!(
            report.passes(1e-4),
            "fused-path gradcheck failed: max rel error {}",
            report.max_rel_error
        );
        assert_eq!(report.checked, n.parameter_count());
    }

    #[test]
    #[should_panic(expected = "workspace batch")]
    fn workspace_backward_rejects_stale_batch() {
        let n = net(12);
        let x = Matrix::zeros(3, 3);
        let mut ws = TrainWorkspace::new();
        let _ = n.forward_train_ws(&x, &mut ws).unwrap();
        let wrong = Matrix::zeros(2, 3);
        let grad = Matrix::zeros(2, 2);
        let mut grads = MlpGrads::empty();
        let _ = n.backward_ws(&wrong, &mut ws, &grad, &mut grads);
    }

    #[test]
    fn grads_zero_accumulate_clip() {
        let n = net(5);
        let mut g = MlpGrads::zeros_like(&n);
        assert_eq!(g.global_norm(), 0.0);
        let mut g2 = MlpGrads::zeros_like(&n);
        for layer in &mut g2.layers {
            layer.weights.map_inplace(|_| 1.0);
        }
        g.accumulate(&g2).unwrap();
        let norm_before = g.global_norm();
        assert!(norm_before > 1.0);
        let returned = g.clip_global_norm(1.0);
        assert!((returned - norm_before).abs() < 1e-12);
        assert!((g.global_norm() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn global_norm_is_within_4_ulp_of_a_compensated_sum() {
        // Against Neumaier's compensated sum of the same squares, over
        // 12-64-64-1 gradients (the PPO networks' shape) whose six tensors
        // each take their own scale. While those scales lie within 10⁶ of
        // each other, the lane sum stays within 4 ulp. Further apart, the
        // squares of a small tensor that follows a large one round away
        // one by one, all in the same direction (docs/NUMERICS.md).
        let n = MlpConfig::new(12, &[64, 64], 1).build(&mut StdRng::seed_from_u64(0));
        let mut rng = StdRng::seed_from_u64(0x6e6f_726d);
        for (decades, bound) in [(6.0, 4), (10.0, 42)] {
            let mut worst = 0;
            for _ in 0..1000 {
                let mut g = MlpGrads::zeros_like(&n);
                let base = 10f64.powf(rng.gen_range(-4.0..0.0));
                for layer in &mut g.layers {
                    for tensor in [&mut layer.weights, &mut layer.bias] {
                        let scale = base * 10f64.powf(decades * rng.gen_range(-0.5..0.5));
                        for x in tensor.as_mut_slice() {
                            *x = scale * rng.gen_range(-1.0..1.0);
                        }
                    }
                }
                let (mut sum, mut carry) = (0.0_f64, 0.0);
                for layer in &g.layers {
                    for &x in layer.weights.as_slice().iter().chain(layer.bias.as_slice()) {
                        let (square, next) = (x * x, sum + x * x);
                        carry += if sum >= square {
                            (sum - next) + square
                        } else {
                            (square - next) + sum
                        };
                        sum = next;
                    }
                }
                let reference = (sum + carry).sqrt();
                worst = worst.max(g.global_norm().to_bits().abs_diff(reference.to_bits()));
            }
            assert!(worst <= bound, "scales 10^{decades} apart: {worst} ulp");
        }
    }

    #[test]
    fn batched_inference_matches_per_sample() {
        let n = net(7);
        let mut rng = StdRng::seed_from_u64(99);
        let rows_data: Vec<Vec<f64>> = (0..17)
            .map(|_| (0..3).map(|_| rng.gen_range(-2.0..2.0)).collect())
            .collect();
        let rows: Vec<&[f64]> = rows_data.iter().map(Vec::as_slice).collect();
        let batched = n.forward_rows(&rows).unwrap();
        assert_eq!(batched.shape(), (17, 2));
        for (i, row) in rows.iter().enumerate() {
            let single = n.forward_vec(row).unwrap();
            for (a, b) in batched.row(i).iter().zip(single.iter()) {
                assert!(
                    (a - b).abs() <= 1e-12,
                    "batched row {i} diverges: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let n = net(8);
        let empty = n.forward_rows(&[]).unwrap();
        assert_eq!(empty.shape(), (0, n.output_dim()));
        assert_eq!(empty, n.forward(&Matrix::zeros(0, n.input_dim())).unwrap());
    }

    #[test]
    fn forward_rows_rejects_ragged_input() {
        let n = net(8);
        assert!(n.forward_rows(&[&[0.0, 0.0, 0.0], &[0.0]]).is_err());
        assert!(n.forward_rows(&[&[0.0, 0.0]]).is_err());
    }

    #[test]
    fn save_load_round_trip_is_bit_exact() {
        let n = net(13);
        let path = std::env::temp_dir().join(format!("vtm_mlp_{}.vtm", std::process::id()));
        n.save_to(&path).unwrap();
        let back = Mlp::load_from(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(n, back);
        let x = Matrix::from_rows(&[&[0.4, -0.2, 0.9]]).unwrap();
        let a = n.forward(&x).unwrap();
        let b = back.forward(&x).unwrap();
        for (p, q) in a.as_slice().iter().zip(b.as_slice().iter()) {
            assert_eq!(p.to_bits(), q.to_bits());
        }
    }

    #[test]
    fn corrupt_network_files_fail_with_typed_errors() {
        use crate::codec::CodecError;
        let n = net(14);
        let path = std::env::temp_dir().join(format!("vtm_mlp_corrupt_{}.vtm", std::process::id()));
        n.save_to(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a payload byte: checksum mismatch, not a panic.
        bytes[40] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            Mlp::load_from(&path),
            Err(CodecError::ChecksumMismatch { .. })
        ));
        // Truncate mid-payload.
        bytes[40] ^= 0xFF;
        bytes.truncate(bytes.len() / 2);
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            Mlp::load_from(&path),
            Err(CodecError::Truncated { .. })
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn clone_preserves_outputs() {
        let n = net(6);
        let back = n.clone();
        let x = Matrix::from_rows(&[&[0.5, 0.5, 0.5]]).unwrap();
        assert!(n
            .forward(&x)
            .unwrap()
            .approx_eq(&back.forward(&x).unwrap(), 1e-15));
    }
}
