//! Deterministic fault injection for the gateway chaos harness.
//!
//! A [`FaultPlan`] is a *seeded, reproducible* description of what should go
//! wrong during a gateway run: which batch makes its executor panic, which
//! journal append attempts fail with which [`std::io::ErrorKind`], and how
//! much artificial latency early batches suffer. The plan is pure data —
//! attaching it to a gateway via
//! [`GatewayConfig::with_faults`](crate::GatewayConfig::with_faults) arms the
//! runtime [`FaultState`], whose atomic counters decide, deterministically,
//! when each fault fires.
//!
//! Everything here is `std`-only and test-oriented: a gateway without a plan
//! pays a single `Option` check per injection point.

use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// A deterministic plan of faults to inject into a running gateway.
///
/// Indices are zero-based and deterministic given a deterministic workload:
/// batch indices are assigned in flush order under the ingress lock, so
/// with `max_batch == 1` and sequential submission, batch `N` is request
/// `N`; journal indices count append *attempts* (retries included), so an
/// injected error can be healed by the gateway's bounded retry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed identifying the plan (used by the derived-fault helpers, and
    /// recorded so chaos reports can name the exact plan they ran).
    pub seed: u64,
    /// Batch indices whose executor panics while pricing the batch, after
    /// the serial step advanced its sessions (the batch loses its quotes,
    /// never its place in the session history).
    pub executor_panics: Vec<u64>,
    /// `(append_attempt, kind)` pairs: the given journal append attempt
    /// fails with an [`io::Error`] of that kind instead of writing a frame.
    pub journal_errors: Vec<(u64, io::ErrorKind)>,
    /// `(delay, first_n)`: batches with index `< first_n` sleep `delay`
    /// before pricing (artificial executor latency).
    pub batch_delay: Option<(Duration, u64)>,
}

impl FaultPlan {
    /// An empty plan with the given seed — nothing fails until faults are
    /// added with the builder methods.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            executor_panics: Vec::new(),
            journal_errors: Vec::new(),
            batch_delay: None,
        }
    }

    /// Panics the executor that picks up batch `batch_index`.
    pub fn with_executor_panic(mut self, batch_index: u64) -> Self {
        self.executor_panics.push(batch_index);
        self
    }

    /// Adds `count` seed-derived executor panics over the first `within`
    /// batches (splitmix64 over the plan seed, so the same seed always
    /// plans the same panics).
    pub fn with_random_executor_panics(mut self, count: u64, within: u64) -> Self {
        let mut state = self.seed;
        for _ in 0..count.min(within) {
            state = splitmix64(state);
            let batch = state % within.max(1);
            if !self.executor_panics.contains(&batch) {
                self.executor_panics.push(batch);
            }
        }
        self
    }

    /// Fails journal append attempt `attempt` with an error of `kind`.
    pub fn with_journal_error(mut self, attempt: u64, kind: io::ErrorKind) -> Self {
        self.journal_errors.push((attempt, kind));
        self
    }

    /// Sleeps `delay` before pricing each of the first `first_n` batches.
    pub fn with_batch_delay(mut self, delay: Duration, first_n: u64) -> Self {
        self.batch_delay = Some((delay, first_n));
        self
    }

    /// Whether the plan injects nothing at all.
    pub fn is_empty(&self) -> bool {
        self.executor_panics.is_empty()
            && self.journal_errors.is_empty()
            && self.batch_delay.is_none()
    }
}

/// The classic splitmix64 mixer — the same generator the training stack's
/// seed decorrelation uses, good enough to scatter derived fault indices.
fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The armed runtime of a [`FaultPlan`]: the plan plus the atomic counter
/// that tracks how far the journal-append fault stream has advanced.
#[derive(Debug)]
pub(crate) struct FaultState {
    plan: FaultPlan,
    journal_attempts: AtomicU64,
}

impl FaultState {
    pub(crate) fn new(plan: FaultPlan) -> Self {
        Self {
            plan,
            journal_attempts: AtomicU64::new(0),
        }
    }

    /// Whether the executor picking up `batch_index` must panic.
    pub(crate) fn executor_panic(&self, batch_index: u64) -> bool {
        self.plan.executor_panics.contains(&batch_index)
    }

    /// The artificial latency `batch_index` must suffer, if any.
    pub(crate) fn batch_delay(&self, batch_index: u64) -> Option<Duration> {
        match self.plan.batch_delay {
            Some((delay, first_n)) if batch_index < first_n => Some(delay),
            _ => None,
        }
    }

    /// Consumes one journal append attempt; `Some(kind)` when this attempt
    /// must fail with an injected i/o error of that kind.
    pub(crate) fn next_journal_append(&self) -> Option<io::ErrorKind> {
        let attempt = self.journal_attempts.fetch_add(1, Ordering::Relaxed);
        self.plan
            .journal_errors
            .iter()
            .find(|(a, _)| *a == attempt)
            .map(|(_, kind)| *kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_builders_accumulate_faults() {
        let plan = FaultPlan::new(7)
            .with_executor_panic(3)
            .with_journal_error(2, io::ErrorKind::Other)
            .with_batch_delay(Duration::from_millis(5), 4);
        assert_eq!(plan.seed, 7);
        assert!(!plan.is_empty());
        assert!(FaultPlan::new(7).is_empty());
        assert_eq!(plan.executor_panics, vec![3]);
        assert_eq!(plan.journal_errors, vec![(2, io::ErrorKind::Other)]);
    }

    #[test]
    fn derived_panics_are_seed_deterministic() {
        let a = FaultPlan::new(42).with_random_executor_panics(3, 100);
        let b = FaultPlan::new(42).with_random_executor_panics(3, 100);
        assert_eq!(a, b);
        assert!(!a.executor_panics.is_empty());
        assert!(a.executor_panics.iter().all(|&p| p < 100));
        let c = FaultPlan::new(43).with_random_executor_panics(3, 100);
        assert_ne!(a.executor_panics, c.executor_panics);
    }

    #[test]
    fn fault_state_fires_at_exactly_the_planned_indices() {
        let state = FaultState::new(
            FaultPlan::new(1)
                .with_executor_panic(2)
                .with_journal_error(1, io::ErrorKind::WouldBlock)
                .with_batch_delay(Duration::from_millis(3), 2),
        );
        assert!(!state.executor_panic(1));
        assert!(state.executor_panic(2));
        assert_eq!(state.batch_delay(0), Some(Duration::from_millis(3)));
        assert_eq!(state.batch_delay(2), None);
        // Append attempts 0, 1, 2: only attempt 1 fails.
        assert_eq!(state.next_journal_append(), None);
        assert_eq!(state.next_journal_append(), Some(io::ErrorKind::WouldBlock));
        assert_eq!(state.next_journal_append(), None);
    }
}
