//! Streaming observation statistics.

/// Numerically stable streaming mean / variance (Welford's algorithm) over
/// vectors, used for optional observation normalisation.
#[derive(Debug, Clone, PartialEq)]
pub struct RunningMeanStd {
    count: f64,
    mean: Vec<f64>,
    m2: Vec<f64>,
}

impl RunningMeanStd {
    /// Creates a tracker for `dim`-dimensional vectors.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "dimension must be positive");
        Self {
            count: 0.0,
            mean: vec![0.0; dim],
            m2: vec![0.0; dim],
        }
    }

    /// Dimensionality of tracked vectors.
    pub fn dim(&self) -> usize {
        self.mean.len()
    }

    /// Number of observed vectors.
    pub fn count(&self) -> f64 {
        self.count
    }

    /// Current mean estimate.
    pub fn mean(&self) -> &[f64] {
        &self.mean
    }

    /// Current (population) variance estimate; all zeros before two samples.
    pub fn variance(&self) -> Vec<f64> {
        if self.count < 2.0 {
            vec![0.0; self.mean.len()]
        } else {
            self.m2.iter().map(|m| m / self.count).collect()
        }
    }

    /// The raw accumulator state `(count, mean, m2)`, used by the policy
    /// snapshot codec to persist a normalizer exactly.
    pub fn state(&self) -> (f64, &[f64], &[f64]) {
        (self.count, &self.mean, &self.m2)
    }

    /// Rebuilds a tracker from a state captured by [`RunningMeanStd::state`].
    ///
    /// # Panics
    ///
    /// Panics if the vectors are empty or disagree in length, or the count is
    /// negative / non-finite.
    pub fn from_state(count: f64, mean: Vec<f64>, m2: Vec<f64>) -> Self {
        assert!(!mean.is_empty(), "dimension must be positive");
        assert_eq!(mean.len(), m2.len(), "state vectors must agree in length");
        assert!(
            count.is_finite() && count >= 0.0,
            "count must be a non-negative finite number"
        );
        Self { count, mean, m2 }
    }

    /// Updates the statistics with one observation.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.dim()`.
    pub fn update(&mut self, x: &[f64]) {
        assert_eq!(x.len(), self.dim(), "observation dimension mismatch");
        self.count += 1.0;
        for (i, &xi) in x.iter().enumerate() {
            let delta = xi - self.mean[i];
            self.mean[i] += delta / self.count;
            let delta2 = xi - self.mean[i];
            self.m2[i] += delta * delta2;
        }
    }

    /// Normalises an observation to approximately zero mean / unit variance
    /// using the running statistics. Returns the input unchanged before any
    /// update has been recorded.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.dim()`.
    pub fn normalize(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.dim(), "observation dimension mismatch");
        if self.count < 2.0 {
            return x.to_vec();
        }
        let var = self.variance();
        x.iter()
            .enumerate()
            .map(|(i, &v)| (v - self.mean[i]) / (var[i].sqrt() + 1e-8))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn running_stats_match_batch_statistics() {
        let data = [
            vec![1.0, 10.0],
            vec![2.0, 20.0],
            vec![3.0, 30.0],
            vec![4.0, 40.0],
        ];
        let mut rs = RunningMeanStd::new(2);
        for x in &data {
            rs.update(x);
        }
        assert_eq!(rs.count(), 4.0);
        assert!((rs.mean()[0] - 2.5).abs() < 1e-12);
        assert!((rs.mean()[1] - 25.0).abs() < 1e-12);
        let var = rs.variance();
        assert!((var[0] - 1.25).abs() < 1e-12);
        assert!((var[1] - 125.0).abs() < 1e-12);
    }

    #[test]
    fn normalisation_centres_data() {
        let mut rs = RunningMeanStd::new(1);
        for i in 0..100 {
            rs.update(&[i as f64]);
        }
        let z = rs.normalize(&[49.5]);
        assert!(z[0].abs() < 1e-9);
    }

    #[test]
    fn normalisation_is_identity_before_updates() {
        let rs = RunningMeanStd::new(2);
        assert_eq!(rs.normalize(&[3.0, -4.0]), vec![3.0, -4.0]);
    }

    #[test]
    #[should_panic(expected = "dimension must be positive")]
    fn zero_dim_rejected() {
        let _ = RunningMeanStd::new(0);
    }

    #[test]
    fn state_round_trips_exactly() {
        let mut rs = RunningMeanStd::new(2);
        for i in 0..7 {
            rs.update(&[i as f64, -2.0 * i as f64]);
        }
        let (count, mean, m2) = rs.state();
        let back = RunningMeanStd::from_state(count, mean.to_vec(), m2.to_vec());
        assert_eq!(rs, back);
        assert_eq!(rs.normalize(&[3.0, 1.0]), back.normalize(&[3.0, 1.0]));
    }
}
