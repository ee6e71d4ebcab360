//! Output checks. A run that fails any of them exits non-zero and prints
//! no numbers.

use std::path::Path;

use vtm_core::registry::RequestFrame;
use vtm_gateway::TelemetrySnapshot;
use vtm_journal::{replay_fabric, ReplayOptions};
use vtm_serve::{PricingService, QuoteRequest, ServiceConfig, SharedPolicy};

/// A check the benchmark's own tests break on purpose, to see the run
/// fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Fault {
    /// Break nothing.
    #[default]
    None,
    /// Perturb one observed price before re-pricing.
    Reprice,
    /// Perturb one live shard digest before the journal replay check.
    Journal,
    /// Perturb one gateway's submission count before the books check.
    Books,
    /// Perturb the hand-driven training snapshot before comparing it.
    Snapshot,
}

impl Fault {
    /// Parses an `--inject-fault` value.
    ///
    /// # Errors
    ///
    /// For an unknown check name.
    pub fn parse(name: &str) -> Result<Self, String> {
        match name {
            "none" => Ok(Fault::None),
            "reprice" => Ok(Fault::Reprice),
            "journal" => Ok(Fault::Journal),
            "books" => Ok(Fault::Books),
            "snapshot" => Ok(Fault::Snapshot),
            other => Err(format!(
                "unknown check {other:?} (expected reprice, journal, books or snapshot)"
            )),
        }
    }
}

/// Re-prices `quotes` — `(request frame, observed price)` in the order
/// their gateway admitted them — with `quote_one` on a fresh service, and
/// requires every price to be bit-equal. Returns how many were checked.
///
/// # Errors
///
/// On the first price that differs, or a service error.
pub fn reprice<'a>(
    policy: &SharedPolicy,
    config: ServiceConfig,
    quotes: impl IntoIterator<Item = (&'a RequestFrame, f64)>,
    fault: Fault,
) -> Result<u64, String> {
    let service = PricingService::from_shared(policy, config).map_err(|e| e.to_string())?;
    let mut checked = 0u64;
    for (frame, mut observed) in quotes {
        if fault == Fault::Reprice && checked == 0 {
            observed = f64::from_bits(observed.to_bits() ^ 1);
        }
        let quote = service
            .quote_one(&QuoteRequest::new(frame.session, frame.features.clone()))
            .map_err(|e| e.to_string())?;
        if quote.price().to_bits() != observed.to_bits() {
            return Err(format!(
                "re-priced quote {checked} of session {} is {} but {} was served",
                frame.session,
                quote.price(),
                observed
            ));
        }
        checked += 1;
    }
    Ok(checked)
}

/// The books balance on every gateway (submitted = completed + failed,
/// queue depth 0 after shutdown), and together the gateways completed
/// exactly the quotes the clients received.
///
/// # Errors
///
/// Names the first gateway or total that does not balance.
pub fn books(
    gateways: &[TelemetrySnapshot],
    quotes_received: u64,
    fault: Fault,
) -> Result<(), String> {
    for (i, t) in gateways.iter().enumerate() {
        let submitted = t.submitted + u64::from(fault == Fault::Books && i == 0);
        if submitted != t.completed + t.failed {
            return Err(format!(
                "gateway {i}: submitted {submitted} != completed {} + failed {}",
                t.completed, t.failed
            ));
        }
        if t.queue_depth != 0 {
            return Err(format!(
                "gateway {i}: queue depth {} after shutdown",
                t.queue_depth
            ));
        }
    }
    let completed: u64 = gateways.iter().map(|t| t.completed).sum();
    if completed != quotes_received {
        return Err(format!(
            "gateways completed {completed} quotes but clients received {quotes_received}"
        ));
    }
    Ok(())
}

/// Replays one arm's shard journals under `base` into fresh services and
/// requires each shard's digest to equal the live digest. Returns the
/// frames replayed.
///
/// # Errors
///
/// On a replay error or a digest that differs.
pub fn journal_replay(
    policy: &SharedPolicy,
    config: ServiceConfig,
    base: &Path,
    live: &[u64],
    fault: Fault,
) -> Result<u64, String> {
    let services = live
        .iter()
        .map(|_| PricingService::from_shared(policy, config))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    let refs: Vec<&PricingService> = services.iter().collect();
    let report =
        replay_fabric(&refs, base, &ReplayOptions::default()).map_err(|e| e.to_string())?;
    for (shard, (replayed, &live)) in report.shards.iter().zip(live).enumerate() {
        let live = live ^ u64::from(fault == Fault::Journal && shard == 0);
        if replayed.state_digest != live {
            return Err(format!(
                "{}: shard {shard} replays to digest {:#x} but the live shard held {live:#x}",
                base.display(),
                replayed.state_digest
            ));
        }
    }
    Ok(report.total_frames())
}
