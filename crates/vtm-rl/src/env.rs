//! Environment abstractions for episodic reinforcement learning.

use vtm_nn::activation::tanh;

/// Inclusive box bounds for a continuous action space.
#[derive(Debug, Clone, PartialEq)]
pub struct ActionSpace {
    /// Lower bound of every action dimension.
    pub low: Vec<f64>,
    /// Upper bound of every action dimension.
    pub high: Vec<f64>,
}

impl ActionSpace {
    /// Creates a one-dimensional action space `[low, high]`.
    ///
    /// # Panics
    ///
    /// Panics if `low >= high` or either bound is not finite.
    pub fn scalar(low: f64, high: f64) -> Self {
        assert!(
            low.is_finite() && high.is_finite() && low < high,
            "scalar action space requires finite low < high"
        );
        Self {
            low: vec![low],
            high: vec![high],
        }
    }

    /// Number of action dimensions.
    pub fn dim(&self) -> usize {
        self.low.len()
    }

    /// Clamps an action into the box, element-wise.
    pub fn clamp(&self, action: &[f64]) -> Vec<f64> {
        action
            .iter()
            .zip(self.low.iter().zip(self.high.iter()))
            .map(|(&a, (&lo, &hi))| a.clamp(lo, hi))
            .collect()
    }

    /// Maps an unconstrained vector into the box using a scaled `tanh` squash
    /// (the libm-free [`vtm_nn::activation::tanh`] the networks use).
    pub fn squash(&self, raw: &[f64]) -> Vec<f64> {
        raw.iter()
            .zip(self.low.iter().zip(self.high.iter()))
            .map(|(&x, (&lo, &hi))| lo + (hi - lo) * 0.5 * (tanh(x) + 1.0))
            .collect()
    }

    /// Returns `true` if `action` lies inside the box (within `1e-12` slack).
    pub fn contains(&self, action: &[f64]) -> bool {
        action.len() == self.dim()
            && action
                .iter()
                .zip(self.low.iter().zip(self.high.iter()))
                .all(|(&a, (&lo, &hi))| a >= lo - 1e-12 && a <= hi + 1e-12)
    }
}

/// Result of a single environment step.
#[derive(Debug, Clone, PartialEq)]
pub struct Step {
    /// Observation after the transition.
    pub observation: Vec<f64>,
    /// Scalar reward for the transition.
    pub reward: f64,
    /// Whether the episode terminated with this transition.
    pub done: bool,
}

/// An episodic, partially observable environment with continuous actions.
///
/// Observations and actions are plain `Vec<f64>` so that environments do not
/// depend on the network substrate.
pub trait Environment {
    /// Dimensionality of the observation vector.
    fn observation_dim(&self) -> usize;

    /// The action space.
    fn action_space(&self) -> ActionSpace;

    /// Resets the environment and returns the initial observation.
    fn reset(&mut self) -> Vec<f64>;

    /// Resets the environment after reseeding its internal randomness.
    ///
    /// Snapshot tests, the [`Trainer`](crate::trainer::Trainer)'s
    /// round-addressed seed schedule and replicated-experiment harnesses use
    /// this to pin an episode to an exact random stream regardless of how
    /// many episodes the environment has already played.
    ///
    /// **Default behaviour:** the seed is *ignored* and a plain
    /// [`Environment::reset`] runs. That is correct only for environments
    /// with no internal randomness; any stochastic environment must override
    /// this method (reseed its RNG, then reset), or checkpoint-resumed
    /// training will silently diverge from an uninterrupted run. The
    /// `reset_seed_contract` integration tests in `vtm-core` assert the
    /// override for both shipped pricing environments.
    fn reset_with_seed(&mut self, _seed: u64) -> Vec<f64> {
        self.reset()
    }

    /// Applies `action` and returns the resulting transition.
    ///
    /// Implementations may clamp the action into the action space; callers
    /// should not rely on out-of-range actions having meaningful effects.
    fn step(&mut self, action: &[f64]) -> Step;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_space_has_dim_one() {
        let space = ActionSpace::scalar(-1.0, 1.0);
        assert_eq!(space.dim(), 1);
        assert!(space.contains(&[0.0]));
        assert!(!space.contains(&[2.0]));
        assert!(!space.contains(&[0.0, 0.0]));
    }

    #[test]
    #[should_panic(expected = "finite low < high")]
    fn scalar_space_rejects_inverted_bounds() {
        let _ = ActionSpace::scalar(1.0, -1.0);
    }

    #[test]
    fn clamp_limits_each_dimension() {
        let space = ActionSpace {
            low: vec![0.0, -1.0],
            high: vec![1.0, 1.0],
        };
        assert_eq!(space.clamp(&[5.0, -7.0]), vec![1.0, -1.0]);
    }

    #[test]
    fn squash_maps_into_bounds() {
        let space = ActionSpace::scalar(5.0, 50.0);
        for raw in [-100.0, -1.0, 0.0, 1.0, 100.0] {
            let a = space.squash(&[raw]);
            assert!(space.contains(&a), "{a:?} outside bounds for raw {raw}");
        }
        // Zero maps to the midpoint.
        assert!((space.squash(&[0.0])[0] - 27.5).abs() < 1e-12);
    }

    #[test]
    fn reset_with_seed_defaults_to_plain_reset() {
        struct Counter {
            resets: usize,
        }
        impl Environment for Counter {
            fn observation_dim(&self) -> usize {
                1
            }
            fn action_space(&self) -> ActionSpace {
                ActionSpace::scalar(0.0, 1.0)
            }
            fn reset(&mut self) -> Vec<f64> {
                self.resets += 1;
                vec![self.resets as f64]
            }
            fn step(&mut self, _action: &[f64]) -> Step {
                Step {
                    observation: vec![0.0],
                    reward: 0.0,
                    done: true,
                }
            }
        }
        let mut env = Counter { resets: 0 };
        assert_eq!(env.reset_with_seed(7), vec![1.0]);
        assert_eq!(env.reset_with_seed(7), vec![2.0]);
    }

    #[test]
    fn step_is_inspectable() {
        let s = Step {
            observation: vec![1.0],
            reward: 0.5,
            done: false,
        };
        let debug = format!("{s:?}");
        assert!(debug.contains("reward"));
    }
}
