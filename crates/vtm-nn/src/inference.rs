//! Frozen-serving f32 inference path.
//!
//! Training in this workspace is strictly `f64` — the PPO update, journal
//! replay and state-digest guarantees are all pinned at double precision.
//! A *frozen* policy has no such constraint: once weights stop changing,
//! the serving forward pass may trade precision for throughput as long as
//! greedy pricing decisions are unaffected (see `docs/NUMERICS.md` for the
//! full contract).
//!
//! [`InferenceModel`] is that trade: an [`Mlp`] converted
//! once, at snapshot-load time, into per-layer contiguous f32 blocks
//! (structure-of-arrays: one weight slab and one bias slab per layer) and
//! evaluated by a fused affine+activation kernel that register-blocks four
//! batch rows per pass. The f32 element type halves memory traffic on the
//! dominant 64×64 layers and doubles the useful SIMD lane width, which is
//! where the serving speedup comes from. Like the f64
//! [`matmul_into`](crate::matrix::Matrix::matmul_into) tile, the blocking
//! fixes no element's accumulation order.
//!
//! Like the f64 kernels, every output element accumulates its `fan_in`
//! terms in increasing order starting from the bias, regardless of batch
//! size or of where the row sits inside a block. Quoting a session alone
//! therefore produces bit-identical f32 results to quoting it inside any
//! batch — the same batch-slicing invariance the serving determinism tests
//! pin for the f64 path.

use crate::activation::Activation;
use crate::layer::Dense;
use crate::matrix::ShapeError;
use crate::mlp::Mlp;

/// One dense layer frozen into contiguous f32 parameter blocks.
///
/// Weights are row-major `fan_in × fan_out` (same orientation as the f64
/// [`Dense`] layer): row `k` holds the `fan_out` outgoing weights of input
/// feature `k`, so the kernel streams whole weight rows with unit stride.
#[derive(Debug, Clone, PartialEq)]
pub struct InferenceLayer {
    weights: Vec<f32>,
    bias: Vec<f32>,
    fan_in: usize,
    fan_out: usize,
    activation: Activation,
}

impl InferenceLayer {
    /// Converts a trained f64 layer by rounding every parameter to the
    /// nearest f32.
    pub fn from_dense(layer: &Dense) -> Self {
        Self {
            weights: layer
                .weights()
                .as_slice()
                .iter()
                .map(|&w| w as f32)
                .collect(),
            bias: layer.bias().as_slice().iter().map(|&b| b as f32).collect(),
            fan_in: layer.fan_in(),
            fan_out: layer.fan_out(),
            activation: layer.activation(),
        }
    }

    /// Number of input features.
    pub fn fan_in(&self) -> usize {
        self.fan_in
    }

    /// Number of output features.
    pub fn fan_out(&self) -> usize {
        self.fan_out
    }

    /// The layer's activation function.
    pub fn activation(&self) -> Activation {
        self.activation
    }

    /// Fused affine + activation forward over a row-major f32 batch:
    /// `out = activation(input · W + b)`, written into `out` (resized in
    /// place, so steady-state calls are allocation-free).
    ///
    /// Four batch rows are processed per pass so each weight row is
    /// streamed once per row *block*; the inner loop is a unit-stride
    /// multiply-accumulate over `fan_out` f32 lanes, the shape
    /// autovectorizers map onto SIMD registers (8 f32 lanes in the
    /// repository's x86-64-v3 build, 4 in a portable SSE2 one). The
    /// activation is one slice pass at the end
    /// ([`Activation::apply_slice_f32`]). Every output element
    /// starts from the bias and accumulates its `fan_in` terms in
    /// increasing order — identical per-element operation order for every
    /// batch size, which is what makes f32 serving batch-slicing
    /// invariant.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] when `input.len() != batch * fan_in`.
    pub fn forward_into(
        &self,
        input: &[f32],
        batch: usize,
        out: &mut Vec<f32>,
    ) -> Result<(), ShapeError> {
        let (k, n) = (self.fan_in, self.fan_out);
        if input.len() != batch * k {
            return Err(ShapeError {
                op: "inference_forward",
                lhs: (batch, input.len().checked_div(batch).unwrap_or(0)),
                rhs: (k, n),
            });
        }
        out.clear();
        out.resize(batch * n, 0.0);
        let mut i = 0;
        while i + 4 <= batch {
            let (o01, o23) = out[i * n..(i + 4) * n].split_at_mut(2 * n);
            let (o0, o1) = o01.split_at_mut(n);
            let (o2, o3) = o23.split_at_mut(n);
            o0.copy_from_slice(&self.bias);
            o1.copy_from_slice(&self.bias);
            o2.copy_from_slice(&self.bias);
            o3.copy_from_slice(&self.bias);
            for kk in 0..k {
                let a0 = input[i * k + kk];
                let a1 = input[(i + 1) * k + kk];
                let a2 = input[(i + 2) * k + kk];
                let a3 = input[(i + 3) * k + kk];
                let w_row = &self.weights[kk * n..(kk + 1) * n];
                for ((((&w, o0), o1), o2), o3) in w_row
                    .iter()
                    .zip(o0.iter_mut())
                    .zip(o1.iter_mut())
                    .zip(o2.iter_mut())
                    .zip(o3.iter_mut())
                {
                    *o0 += a0 * w;
                    *o1 += a1 * w;
                    *o2 += a2 * w;
                    *o3 += a3 * w;
                }
            }
            i += 4;
        }
        while i < batch {
            let out_row = &mut out[i * n..(i + 1) * n];
            out_row.copy_from_slice(&self.bias);
            for kk in 0..k {
                let a = input[i * k + kk];
                let w_row = &self.weights[kk * n..(kk + 1) * n];
                for (o, &w) in out_row.iter_mut().zip(w_row.iter()) {
                    *o += a * w;
                }
            }
            i += 1;
        }
        self.activation.apply_slice_f32(out);
        Ok(())
    }
}

/// A frozen [`Mlp`] converted to structure-of-arrays f32 blocks for the
/// serving fast path.
///
/// Conversion happens once (at snapshot-load time in the serving layer);
/// the f64 network stays the source of truth for training, checkpoints and
/// equivalence testing. See the [module docs](self) for the numerics
/// contract this type lives under.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use rand::rngs::StdRng;
/// use vtm_nn::prelude::*;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut rng = StdRng::seed_from_u64(7);
/// // The paper's actor shape: obs -> 64 -> 64 -> action.
/// let net = MlpConfig::new(8, &[64, 64], 1).build(&mut rng);
/// let fast = InferenceModel::from_mlp(&net);
/// assert_eq!(fast.input_dim(), 8);
/// assert_eq!(fast.output_dim(), 1);
///
/// let obs = vec![0.25; 8];
/// let reference = net.forward_vec(&obs)?;
/// let quantized = fast.forward_rows(&[&obs])?;
/// assert!((reference[0] - quantized[0][0]).abs() < 1e-4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct InferenceModel {
    layers: Vec<InferenceLayer>,
    input_dim: usize,
    output_dim: usize,
}

impl InferenceModel {
    /// Converts a trained f64 network by rounding every parameter to the
    /// nearest f32, laid out as per-layer contiguous blocks.
    pub fn from_mlp(net: &Mlp) -> Self {
        Self {
            layers: net
                .layers()
                .iter()
                .map(InferenceLayer::from_dense)
                .collect(),
            input_dim: net.input_dim(),
            output_dim: net.output_dim(),
        }
    }

    /// Number of input features.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Number of output features.
    pub fn output_dim(&self) -> usize {
        self.output_dim
    }

    /// The frozen layers, input to output.
    pub fn layers(&self) -> &[InferenceLayer] {
        &self.layers
    }

    /// Number of frozen scalars (weights + biases).
    pub fn parameter_count(&self) -> usize {
        self.layers
            .iter()
            .map(|l| l.fan_in * l.fan_out + l.fan_out)
            .sum()
    }

    /// Batched forward pass over f64 observation rows: rounds the batch to
    /// f32 once, runs every layer through the fused kernel, and widens the
    /// final activations back to f64 for the (f64) action-space squash.
    ///
    /// Per-element operation order is independent of the batch size, so a
    /// row produces bit-identical output whether it is quoted alone or
    /// inside any batch.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] when any row's length differs from
    /// [`input_dim`](Self::input_dim).
    pub fn forward_rows(&self, rows: &[&[f64]]) -> Result<Vec<Vec<f64>>, ShapeError> {
        for row in rows {
            if row.len() != self.input_dim {
                return Err(ShapeError {
                    op: "inference_forward_rows",
                    lhs: (rows.len(), row.len()),
                    rhs: (self.input_dim, self.output_dim),
                });
            }
        }
        let batch = rows.len();
        let mut cur: Vec<f32> = Vec::with_capacity(batch * self.input_dim);
        for row in rows {
            cur.extend(row.iter().map(|&v| v as f32));
        }
        let mut next = Vec::new();
        for layer in &self.layers {
            layer.forward_into(&cur, batch, &mut next)?;
            std::mem::swap(&mut cur, &mut next);
        }
        Ok(cur
            .chunks(self.output_dim.max(1))
            .map(|c| c.iter().map(|&v| v as f64).collect())
            .collect())
    }

    /// Single-row forward pass returning every layer's activated output
    /// (widened to f64), input side first. Used by the per-layer
    /// error-bound tests that compare each stage against the f64 reference
    /// network.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] when `input.len() != input_dim`.
    pub fn forward_layers(&self, input: &[f64]) -> Result<Vec<Vec<f64>>, ShapeError> {
        let mut cur: Vec<f32> = input.iter().map(|&v| v as f32).collect();
        if cur.len() != self.input_dim {
            return Err(ShapeError {
                op: "inference_forward_layers",
                lhs: (1, cur.len()),
                rhs: (self.input_dim, self.output_dim),
            });
        }
        let mut next = Vec::new();
        let mut outs = Vec::with_capacity(self.layers.len());
        for layer in &self.layers {
            layer.forward_into(&cur, 1, &mut next)?;
            outs.push(next.iter().map(|&v| v as f64).collect());
            std::mem::swap(&mut cur, &mut next);
        }
        Ok(outs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mlp::MlpConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const ACTIVATIONS: [Activation; 6] = [
        Activation::Linear,
        Activation::Relu,
        Activation::Tanh,
        Activation::Sigmoid,
        Activation::Softplus,
        Activation::LeakyRelu,
    ];

    fn paper_net(seed: u64, hidden: Activation) -> Mlp {
        MlpConfig::new(8, &[64, 64], 2)
            .hidden_activation(hidden)
            .build(&mut StdRng::seed_from_u64(seed))
    }

    fn rows(count: usize) -> Vec<Vec<f64>> {
        (0..count)
            .map(|r| {
                (0..8)
                    .map(|f| ((r * 13 + f * 7) % 29) as f64 / 29.0 - 0.5)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn conversion_preserves_shape_metadata() {
        let net = paper_net(1, Activation::Tanh);
        let fast = InferenceModel::from_mlp(&net);
        assert_eq!(fast.input_dim(), net.input_dim());
        assert_eq!(fast.output_dim(), net.output_dim());
        assert_eq!(fast.parameter_count(), net.parameter_count());
        assert_eq!(fast.layers().len(), net.layers().len());
        for (fl, dl) in fast.layers().iter().zip(net.layers()) {
            assert_eq!((fl.fan_in(), fl.fan_out()), (dl.fan_in(), dl.fan_out()));
            assert_eq!(fl.activation(), dl.activation());
        }
    }

    #[test]
    fn f32_forward_tracks_f64_reference_for_every_activation() {
        for (i, act) in ACTIVATIONS.into_iter().enumerate() {
            let net = paper_net(10 + i as u64, act);
            let fast = InferenceModel::from_mlp(&net);
            for row in rows(16) {
                let reference = net.forward_vec(&row).unwrap();
                let quantized = fast.forward_rows(&[&row]).unwrap();
                for (r, q) in reference.iter().zip(&quantized[0]) {
                    assert!(
                        (r - q).abs() < 1e-3,
                        "{act}: f32 output {q} too far from f64 reference {r}"
                    );
                }
            }
        }
    }

    #[test]
    fn batched_forward_is_bit_identical_to_single_rows() {
        let net = paper_net(3, Activation::Tanh);
        let fast = InferenceModel::from_mlp(&net);
        // 7 rows: exercises one full 4-row block plus a 3-row tail.
        let batch = rows(7);
        let refs: Vec<&[f64]> = batch.iter().map(Vec::as_slice).collect();
        let batched = fast.forward_rows(&refs).unwrap();
        for (row, out) in batch.iter().zip(&batched) {
            assert_eq!(
                out,
                &fast.forward_rows(&[row]).unwrap()[0],
                "batch membership changed f32 output bits"
            );
        }
    }

    #[test]
    fn per_layer_outputs_chain_to_the_final_output() {
        let net = paper_net(4, Activation::Tanh);
        let fast = InferenceModel::from_mlp(&net);
        let row = &rows(1)[0];
        let layers = fast.forward_layers(row).unwrap();
        assert_eq!(layers.len(), net.layers().len());
        assert_eq!(
            layers.last().unwrap(),
            &fast.forward_rows(&[row]).unwrap()[0]
        );
    }

    #[test]
    fn shape_errors_are_typed_not_panics() {
        let fast = InferenceModel::from_mlp(&paper_net(5, Activation::Tanh));
        let short = vec![0.0; 3];
        assert!(fast.forward_rows(&[&short]).is_err());
        let bad_batch = vec![0.0f32; 5];
        let mut out = Vec::new();
        assert!(fast.layers()[0]
            .forward_into(&bad_batch, 2, &mut out)
            .is_err());
    }

    #[test]
    fn empty_batch_is_fine() {
        let fast = InferenceModel::from_mlp(&paper_net(6, Activation::Tanh));
        assert!(fast.forward_rows(&[]).unwrap().is_empty());
    }
}
