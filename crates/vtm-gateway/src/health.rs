//! The gateway's three-state health controller: Healthy → Shedding →
//! Degraded, driven by queue depth and the live latency histogram.
//!
//! The controller is evaluated on the submit path (one short mutex hold per
//! submission — executors may legitimately block waiting for a batch to
//! fill, so they cannot drive health decisions). Two signals feed it:
//!
//! * **queue depth** — the admission gauge as a fraction of
//!   `queue_capacity`; crossing [`HealthConfig::shed_depth`] targets
//!   Shedding, crossing [`HealthConfig::degrade_depth`] targets Degraded;
//! * **latency** — the cumulative completion histogram is differenced
//!   against the last evaluated window; once at least [`MIN_WINDOW`] new
//!   completions accumulate, the window's p99 (bucket upper bound) is
//!   compared to [`HealthConfig::p99_slo_us`]: above the SLO targets
//!   Shedding, above [`SEVERE_SLO_FACTOR`]× the SLO targets Degraded. The
//!   signal is *sticky* between windows and is cleared by a calm window or
//!   by an idle pipeline (nothing queued, nothing completing).
//!
//! Escalation is immediate; recovery is hysteretic: the controller steps
//! *down* one state only after [`HealthConfig::recovery_observations`]
//! consecutive calm observations, so a gateway hovering at a threshold does
//! not flap between serving and shedding.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Mutex;

use crate::telemetry::{percentile_from_buckets, LATENCY_BUCKETS};

/// Minimum completions in a histogram delta before its p99 is trusted.
pub(crate) const MIN_WINDOW: u64 = 4;

/// A windowed p99 above `SEVERE_SLO_FACTOR * p99_slo_us` targets Degraded
/// directly instead of Shedding.
pub(crate) const SEVERE_SLO_FACTOR: u64 = 8;

/// The gateway's degradation ladder, most to least healthy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum HealthState {
    /// Normal operation: every well-formed request is admitted and priced.
    #[default]
    Healthy,
    /// Overload: new submissions are rejected with
    /// [`GatewayError::Shed`](crate::GatewayError::Shed) carrying a
    /// `retry_after` hint, and already-expired queued work is dropped.
    Shedding,
    /// Severe overload: submissions are answered from the session-local
    /// last-quote cache (marked `degraded`) instead of being priced;
    /// sessions without a cached quote are shed.
    Degraded,
}

impl HealthState {
    /// Stable lowercase label (used in telemetry JSON).
    pub fn as_str(&self) -> &'static str {
        match self {
            HealthState::Healthy => "healthy",
            HealthState::Shedding => "shedding",
            HealthState::Degraded => "degraded",
        }
    }

    fn from_u8(raw: u8) -> Self {
        match raw {
            2 => HealthState::Degraded,
            1 => HealthState::Shedding,
            _ => HealthState::Healthy,
        }
    }

    fn step_down(self) -> Self {
        match self {
            HealthState::Degraded => HealthState::Shedding,
            _ => HealthState::Healthy,
        }
    }
}

/// Thresholds and hysteresis of the [`HealthState`] ladder.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthConfig {
    /// Queue-depth fraction of `queue_capacity` at which Shedding begins
    /// (values above 1.0 effectively disable depth-driven shedding).
    pub shed_depth: f64,
    /// Queue-depth fraction of `queue_capacity` at which Degraded begins.
    pub degrade_depth: f64,
    /// p99 completion-latency SLO in microseconds (compared against bucket
    /// upper bounds, so it is conservative by at most 2×); `None` disables
    /// the latency signal.
    pub p99_slo_us: Option<u64>,
    /// Consecutive calm observations required before stepping down one
    /// state (clamped ≥ 1).
    pub recovery_observations: u32,
}

impl Default for HealthConfig {
    /// Shed at 75 % depth, degrade at 95 %, no latency SLO, step down
    /// after 8 calm observations.
    fn default() -> Self {
        Self {
            shed_depth: 0.75,
            degrade_depth: 0.95,
            p99_slo_us: None,
            recovery_observations: 8,
        }
    }
}

impl HealthConfig {
    /// Overrides the Shedding depth fraction (clamped ≥ 0).
    pub fn with_shed_depth(mut self, fraction: f64) -> Self {
        self.shed_depth = fraction.max(0.0);
        self
    }

    /// Overrides the Degraded depth fraction (clamped ≥ 0).
    pub fn with_degrade_depth(mut self, fraction: f64) -> Self {
        self.degrade_depth = fraction.max(0.0);
        self
    }

    /// Sets the p99 latency SLO in microseconds (`None` = depth only).
    pub fn with_p99_slo_us(mut self, slo_us: Option<u64>) -> Self {
        self.p99_slo_us = slo_us;
        self
    }

    /// Overrides the step-down hysteresis (clamped ≥ 1).
    pub fn with_recovery_observations(mut self, observations: u32) -> Self {
        self.recovery_observations = observations.max(1);
        self
    }
}

/// Sticky latency evaluation state plus the recovery streak, all under one
/// short-lived mutex (the lock-free `state` cell is the published output).
#[derive(Debug)]
struct HealthWindow {
    /// The cumulative histogram at the last evaluated window boundary.
    last_buckets: Vec<u64>,
    /// Last evaluated window blew the SLO (sticky between windows).
    latency_hot: bool,
    /// Last evaluated window blew the SLO by [`SEVERE_SLO_FACTOR`]×.
    latency_severe: bool,
    /// Consecutive observations whose instantaneous target was below the
    /// current state.
    calm_streak: u32,
}

/// The live controller: one per gateway, evaluated per submission.
#[derive(Debug)]
pub(crate) struct HealthController {
    config: HealthConfig,
    state: AtomicU8,
    window: Mutex<HealthWindow>,
}

impl HealthController {
    pub(crate) fn new(config: HealthConfig) -> Self {
        Self {
            config,
            state: AtomicU8::new(HealthState::Healthy as u8),
            window: Mutex::new(HealthWindow {
                last_buckets: vec![0; LATENCY_BUCKETS],
                latency_hot: false,
                latency_severe: false,
                calm_streak: 0,
            }),
        }
    }

    /// The last published state (lock-free; telemetry reads this).
    pub(crate) fn current(&self) -> HealthState {
        HealthState::from_u8(self.state.load(Ordering::Acquire))
    }

    /// Feeds one observation (current queue depth, the admission capacity
    /// and the live cumulative latency histogram) and returns the state the
    /// triggering submission must be handled under.
    pub(crate) fn observe(&self, depth: u64, capacity: u64, buckets: &[u64]) -> HealthState {
        let mut w = self.window.lock().expect("health window poisoned");
        if let Some(slo) = self.config.p99_slo_us {
            let delta: Vec<u64> = buckets
                .iter()
                .zip(&w.last_buckets)
                .map(|(now, then)| now.saturating_sub(*then))
                .collect();
            let completions: u64 = delta.iter().sum();
            if completions >= MIN_WINDOW {
                let p99 = percentile_from_buckets(&delta, 0.99);
                w.latency_hot = p99 > slo;
                w.latency_severe = p99 > slo.saturating_mul(SEVERE_SLO_FACTOR);
                w.last_buckets.copy_from_slice(buckets);
            } else if depth == 0 && completions == 0 {
                // Idle pipeline: nothing queued and nothing completing —
                // the sticky latency signal has nothing left to measure.
                w.latency_hot = false;
                w.latency_severe = false;
                w.last_buckets.copy_from_slice(buckets);
            }
        }
        let shed_at = (self.config.shed_depth * capacity as f64).ceil() as u64;
        let degrade_at = (self.config.degrade_depth * capacity as f64).ceil() as u64;
        let target = if depth >= degrade_at.max(1) || w.latency_severe {
            HealthState::Degraded
        } else if depth >= shed_at.max(1) || w.latency_hot {
            HealthState::Shedding
        } else {
            HealthState::Healthy
        };
        let current = self.current();
        let next = if target >= current {
            // Escalation (or holding level) is immediate and resets the
            // recovery streak.
            w.calm_streak = 0;
            target
        } else {
            w.calm_streak += 1;
            if w.calm_streak >= self.config.recovery_observations.max(1) {
                w.calm_streak = 0;
                current.step_down()
            } else {
                current
            }
        };
        self.state.store(next as u8, Ordering::Release);
        next
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::latency_bucket;

    fn buckets(completions_at_us: &[(u64, u64)]) -> Vec<u64> {
        let mut b = vec![0u64; LATENCY_BUCKETS];
        for &(us, count) in completions_at_us {
            b[latency_bucket(us)] += count;
        }
        b
    }

    #[test]
    fn depth_drives_the_ladder_up_immediately() {
        let hc = HealthController::new(
            HealthConfig::default()
                .with_shed_depth(0.5)
                .with_degrade_depth(0.9)
                .with_recovery_observations(2),
        );
        let idle = buckets(&[]);
        assert_eq!(hc.observe(0, 10, &idle), HealthState::Healthy);
        assert_eq!(hc.observe(5, 10, &idle), HealthState::Shedding);
        assert_eq!(hc.observe(9, 10, &idle), HealthState::Degraded);
        assert_eq!(hc.current(), HealthState::Degraded);
    }

    #[test]
    fn recovery_steps_down_one_state_with_hysteresis() {
        let hc = HealthController::new(
            HealthConfig::default()
                .with_shed_depth(0.5)
                .with_degrade_depth(0.9)
                .with_recovery_observations(2),
        );
        let idle = buckets(&[]);
        hc.observe(9, 10, &idle);
        assert_eq!(hc.current(), HealthState::Degraded);
        // One calm observation is not enough; two step down exactly once.
        assert_eq!(hc.observe(0, 10, &idle), HealthState::Degraded);
        assert_eq!(hc.observe(0, 10, &idle), HealthState::Shedding);
        // A fresh escalation resets the streak.
        assert_eq!(hc.observe(5, 10, &idle), HealthState::Shedding);
        assert_eq!(hc.observe(0, 10, &idle), HealthState::Shedding);
        assert_eq!(hc.observe(0, 10, &idle), HealthState::Healthy);
    }

    #[test]
    fn latency_slo_breach_sheds_and_severe_breach_degrades() {
        // SLO 512 µs: a p99 bucket bound of 1024 is hot but below the 8x
        // severe factor (4096), so the target is Shedding.
        let hot = HealthController::new(
            HealthConfig::default()
                .with_p99_slo_us(Some(512))
                .with_shed_depth(2.0)
                .with_degrade_depth(2.0),
        );
        assert_eq!(
            hot.observe(1, 10, &buckets(&[(1000, 4)])),
            HealthState::Shedding
        );
        // SLO 100 µs: the same window is > 8x over — straight to Degraded.
        let severe = HealthController::new(
            HealthConfig::default()
                .with_p99_slo_us(Some(100))
                .with_shed_depth(2.0)
                .with_degrade_depth(2.0),
        );
        assert_eq!(
            severe.observe(1, 10, &buckets(&[(1000, 4)])),
            HealthState::Degraded
        );
    }

    #[test]
    fn latency_windows_below_min_completions_are_not_evaluated() {
        let hc = HealthController::new(
            HealthConfig::default()
                .with_p99_slo_us(Some(10))
                .with_shed_depth(2.0)
                .with_degrade_depth(2.0),
        );
        // Only 3 completions since the last window: signal untouched.
        assert_eq!(
            hc.observe(1, 10, &buckets(&[(50_000, 3)])),
            HealthState::Healthy
        );
        // The 4th completion closes the window and trips the signal.
        assert_eq!(
            hc.observe(1, 10, &buckets(&[(50_000, 4)])),
            HealthState::Degraded
        );
    }

    #[test]
    fn idle_pipeline_clears_the_sticky_latency_signal() {
        let hc = HealthController::new(
            HealthConfig::default()
                .with_p99_slo_us(Some(512))
                .with_shed_depth(2.0)
                .with_degrade_depth(2.0)
                .with_recovery_observations(1),
        );
        let slow = buckets(&[(1000, 4)]);
        assert_eq!(hc.observe(1, 10, &slow), HealthState::Shedding);
        // Sticky while work is still in flight, even without a new window.
        assert_eq!(hc.observe(1, 10, &slow), HealthState::Shedding);
        // Idle (depth 0, no new completions) clears it; with a 1-observation
        // recovery streak the controller steps straight down.
        assert_eq!(hc.observe(0, 10, &slow), HealthState::Healthy);
    }

    #[test]
    fn labels_and_ordering_are_stable() {
        assert!(HealthState::Healthy < HealthState::Shedding);
        assert!(HealthState::Shedding < HealthState::Degraded);
        assert_eq!(HealthState::Healthy.as_str(), "healthy");
        assert_eq!(HealthState::Shedding.as_str(), "shedding");
        assert_eq!(HealthState::Degraded.as_str(), "degraded");
        assert_eq!(HealthState::Healthy.step_down(), HealthState::Healthy);
    }
}
