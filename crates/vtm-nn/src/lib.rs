//! # vtm-nn — minimal neural-network substrate
//!
//! A small, dependency-light neural-network library written for the
//! reproduction of *"Learning-based Incentive Mechanism for Task
//! Freshness-aware Vehicular Twin Migration"* (ICDCS 2023). The paper's DRL
//! solution uses a two-hidden-layer (64 × 64) actor-critic network trained
//! with PPO; no suitable pure-Rust deep-learning stack is available offline,
//! so this crate provides exactly the pieces that stack needs:
//!
//! * [`matrix::Matrix`] — dense row-major `f64` matrices with the linear
//!   algebra required by fully connected networks,
//! * [`activation::Activation`] — element-wise activations and derivatives,
//! * [`layer::Dense`] / [`mlp::Mlp`] — fully connected layers and networks
//!   with explicit forward/backward passes,
//! * [`inference::InferenceModel`] — a frozen network converted once to
//!   contiguous f32 blocks for the serving fast path (training stays f64),
//! * [`optimizer`] — Adam, for networks and for flat parameter vectors,
//! * [`loss`] — the MSE loss with its gradient,
//! * [`gradcheck`] — numerical gradient checking used by the test suites.
//!
//! # Example
//!
//! ```
//! use rand::SeedableRng;
//! use rand::rngs::StdRng;
//! use vtm_nn::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut rng = StdRng::seed_from_u64(0);
//! // The actor network architecture used by the paper: obs -> 64 -> 64 -> action.
//! let net = MlpConfig::new(8, &[64, 64], 1).build(&mut rng);
//! let obs = vec![0.0; 8];
//! let action = net.forward_vec(&obs)?;
//! assert_eq!(action.len(), 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod activation;
pub mod codec;
pub mod gradcheck;
pub mod inference;
pub mod init;
pub mod layer;
pub mod loss;
pub mod matrix;
pub mod mlp;
pub mod optimizer;

/// Convenient glob-import of the most commonly used items.
pub mod prelude {
    pub use crate::activation::Activation;
    pub use crate::codec::{CodecError, PayloadReader, PayloadWriter, WeightCodec};
    pub use crate::inference::{InferenceLayer, InferenceModel};
    pub use crate::init::Initializer;
    pub use crate::layer::{Dense, DenseGrads};
    pub use crate::matrix::{Matrix, ShapeError};
    pub use crate::mlp::{Mlp, MlpConfig, MlpGrads, TrainWorkspace};
    pub use crate::optimizer::{Adam, VectorAdam};
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_exports_compile() {
        use crate::prelude::*;
        let m = Matrix::identity(2);
        assert_eq!(m.shape(), (2, 2));
        let _ = Activation::Tanh;
    }
}
