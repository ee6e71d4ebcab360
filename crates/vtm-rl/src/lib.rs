//! # vtm-rl — deep-reinforcement-learning substrate
//!
//! The learning machinery used by the paper's incentive mechanism (§IV):
//! a partially observable environment abstraction, rollout storage,
//! Generalized Advantage Estimation, a diagonal-Gaussian policy, a PPO
//! actor-critic agent built on the [`vtm_nn`] network substrate, and a
//! vectorized rollout engine ([`vec_env`]) that collects episodes from many
//! environment replicas with batched forward passes and chunk-level thread
//! parallelism — deterministically for a fixed seed.
//!
//! The crate is deliberately domain-agnostic: the Stackelberg pricing
//! environment itself lives in `vtm-core`, which plugs into the
//! [`env::Environment`] trait defined here.
//!
//! # Example
//!
//! ```
//! use vtm_rl::prelude::*;
//!
//! // A one-step environment: reward is highest when the action is 0.25.
//! #[derive(Clone)]
//! struct Toy;
//! impl Environment for Toy {
//!     fn observation_dim(&self) -> usize { 1 }
//!     fn action_space(&self) -> ActionSpace { ActionSpace::scalar(0.0, 1.0) }
//!     fn reset(&mut self) -> Vec<f64> { vec![0.0] }
//!     fn step(&mut self, action: &[f64]) -> Step {
//!         Step { observation: vec![0.0], reward: -(action[0] - 0.25).powi(2), done: true }
//!     }
//! }
//!
//! let config = PpoConfig::new(1, 1).with_seed(1);
//! let mut agent = PpoAgent::new(config, Toy.action_space());
//! // One tiny training round of 4 episodes (a real run uses many more).
//! let report = Trainer::for_env(Toy)
//!     .episodes(4)
//!     .collectors(4)
//!     .max_steps(1)
//!     .run(&mut agent)
//!     .unwrap();
//! assert_eq!(report.rounds, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod buffer;
pub mod distribution;
pub mod env;
pub mod gae;
pub mod ppo;
pub mod running_stat;
pub mod snapshot;
pub mod trainer;
pub mod vec_env;

/// Convenient glob-import of the most commonly used items.
pub mod prelude {
    pub use crate::buffer::{ProcessedSample, RolloutBuffer, Transition};
    pub use crate::distribution::DiagGaussian;
    pub use crate::env::{ActionSpace, Environment, Step};
    pub use crate::gae::{discounted_returns, gae_advantages, normalize_advantages};
    pub use crate::ppo::{ActionSample, PpoAgent, PpoConfig, PpoUpdateStats};
    pub use crate::running_stat::RunningMeanStd;
    pub use crate::snapshot::{PolicySnapshot, SnapshotError};
    pub use crate::trainer::{EpisodeEvent, Trainer, TrainerReport};
    pub use crate::vec_env::{
        CollectedRollouts, CollectorConfig, EnvRollout, ParallelCollector, VecEnv,
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_exports_compile() {
        use crate::prelude::*;
        let space = ActionSpace::scalar(0.0, 1.0);
        assert_eq!(space.dim(), 1);
    }
}
