//! Fabric-level telemetry: per-arm counters and the aggregated snapshot.
//!
//! Each gateway shard already keeps its own [`TelemetrySnapshot`]; what the
//! fabric adds is the *arm* axis — counters that survive hot-swaps (a
//! promotion replaces an arm's gateways, not its history) and a
//! revenue-proxy sum so an A/B experiment can read off which policy earns
//! more. Latencies are recorded client-side at ticket resolution into the
//! same log₂-µs histogram the gateway uses, so per-arm percentiles follow
//! the exact bucket convention of the per-shard ones.

use std::sync::atomic::{AtomicU64, Ordering};

use vtm_gateway::{GatewayError, StageSnapshot, TelemetrySnapshot};
use vtm_obs::{HistogramSnapshot, LogHistogram, MetricsRegistry};

/// Lock-free per-arm counters (one per arm, shared by every ticket).
#[derive(Debug, Default)]
pub(crate) struct ArmTelemetry {
    quotes: AtomicU64,
    degraded: AtomicU64,
    shed: AtomicU64,
    rejected: AtomicU64,
    failed: AtomicU64,
    promotions: AtomicU64,
    /// Bit-packed f64 sum of quoted prices (CAS loop; see `add_revenue`).
    revenue_bits: AtomicU64,
    latency: LogHistogram,
}

impl ArmTelemetry {
    /// Records a resolved quote: completion, degradation, revenue proxy
    /// and client-observed latency.
    pub(crate) fn record_quote(&self, price: f64, degraded: bool, latency_us: u64) {
        self.quotes.fetch_add(1, Ordering::Relaxed);
        if degraded {
            self.degraded.fetch_add(1, Ordering::Relaxed);
        }
        self.add_revenue(price);
        self.latency.record(latency_us);
    }

    /// Records a typed failure, bucketed the way an experiment reads it:
    /// load-shedding and backpressure separately from hard failures.
    pub(crate) fn record_error(&self, error: &GatewayError) {
        let counter = match error {
            GatewayError::Shed { .. } => &self.shed,
            GatewayError::Overloaded { .. } => &self.rejected,
            _ => &self.failed,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one completed promotion (hot-swap) of this arm.
    pub(crate) fn record_promotion(&self) {
        self.promotions.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds a price to the revenue-proxy sum. f64 addition via a CAS loop
    /// on the bit pattern — contention is per-arm and the loop is two
    /// instructions, so this never serializes the quote path measurably.
    fn add_revenue(&self, price: f64) {
        let mut current = self.revenue_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(current) + price).to_bits();
            match self.revenue_bits.compare_exchange_weak(
                current,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(actual) => current = actual,
            }
        }
    }

    /// A point-in-time copy. Gateway-side fault counters and stage
    /// histograms start zeroed/absent here — they are folded in from the
    /// per-gateway snapshots by [`fold_gateway_rollups`].
    pub(crate) fn snapshot(&self, name: &str, percent: u32) -> ArmSnapshot {
        ArmSnapshot {
            name: name.to_string(),
            percent,
            quotes: self.quotes.load(Ordering::Relaxed),
            degraded: self.degraded.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            promotions: self.promotions.load(Ordering::Relaxed),
            expired: 0,
            journal_bypassed: 0,
            revenue: f64::from_bits(self.revenue_bits.load(Ordering::Relaxed)),
            latency: self.latency.snapshot(),
            stages: None,
        }
    }
}

/// Folds per-gateway fault counters and stage histograms into the arm
/// snapshots they belong to. The fault counters (`expired`,
/// `journal_bypassed`) live in the *gateway* telemetry — the arm axis
/// would otherwise drop them at rollup. `gateways` is whatever
/// set the caller assembled: live slots for [`crate::Fabric::telemetry`],
/// live plus retired generations at [`crate::Fabric::shutdown`].
pub(crate) fn fold_gateway_rollups(arms: &mut [ArmSnapshot], gateways: &[ShardTelemetry]) {
    for arm in arms.iter_mut() {
        for gateway in gateways.iter().filter(|g| g.arm == arm.name) {
            arm.expired += gateway.telemetry.expired;
            arm.journal_bypassed += gateway.telemetry.journal_bypassed;
            if let Some(stages) = &gateway.telemetry.stages {
                arm.stages
                    .get_or_insert_with(StageSnapshot::default)
                    .merge(stages);
            }
        }
    }
}

/// A point-in-time copy of one arm's fabric-level counters.
#[derive(Debug, Clone, PartialEq)]
pub struct ArmSnapshot {
    /// The arm's name.
    pub name: String,
    /// The arm's configured session share, in percent.
    pub percent: u32,
    /// Quotes resolved for this arm (across promotions).
    pub quotes: u64,
    /// Resolved quotes answered from the degraded last-quote cache.
    pub degraded: u64,
    /// Submissions rejected by load shedding.
    pub shed: u64,
    /// Submissions rejected by admission backpressure.
    pub rejected: u64,
    /// Tickets resolved with any other typed error.
    pub failed: u64,
    /// Completed hot-swap promotions of this arm.
    pub promotions: u64,
    /// Requests expired before batch formation, summed over the arm's
    /// gateways (live generations for a live snapshot; retired generations
    /// folded in at shutdown).
    pub expired: u64,
    /// Admissions that bypassed the journal, summed over the arm's
    /// gateways.
    pub journal_bypassed: u64,
    /// Revenue proxy: the sum of quoted prices ([`vtm_serve::Quote::price`])
    /// over every resolved quote — the A/B comparison metric.
    pub revenue: f64,
    /// Client-observed ticket-resolution latency (percentiles via
    /// [`HistogramSnapshot::p50_us`] and friends).
    pub latency: HistogramSnapshot,
    /// Per-stage latency decomposition merged across the arm's traced
    /// gateways; `None` when no gateway had tracing enabled.
    pub stages: Option<StageSnapshot>,
}

impl ArmSnapshot {
    /// Registers the arm's counters, share and revenue gauges, latency
    /// histogram and (when traced) stage histograms into `registry` under
    /// the `vtm_fabric_arm_*` namespace, labelled with the arm name.
    pub fn register_metrics(&self, registry: &mut MetricsRegistry) {
        let labels: [(&str, &str); 1] = [("arm", &self.name)];
        let counters: [(&str, &str, u64); 8] = [
            (
                "vtm_fabric_arm_quotes_total",
                "Quotes resolved for the arm.",
                self.quotes,
            ),
            (
                "vtm_fabric_arm_degraded_total",
                "Quotes from the degraded cache.",
                self.degraded,
            ),
            (
                "vtm_fabric_arm_shed_total",
                "Submissions shed by the health controller.",
                self.shed,
            ),
            (
                "vtm_fabric_arm_rejected_total",
                "Submissions rejected by backpressure.",
                self.rejected,
            ),
            (
                "vtm_fabric_arm_failed_total",
                "Tickets resolved with a hard error.",
                self.failed,
            ),
            (
                "vtm_fabric_arm_promotions_total",
                "Completed hot-swap promotions.",
                self.promotions,
            ),
            (
                "vtm_fabric_arm_expired_total",
                "Requests expired before batch formation.",
                self.expired,
            ),
            (
                "vtm_fabric_arm_journal_bypassed_total",
                "Admissions without a journal frame.",
                self.journal_bypassed,
            ),
        ];
        for (name, help, value) in counters {
            registry.counter(name, help, &labels, value);
        }
        registry.gauge(
            "vtm_fabric_arm_percent",
            "Configured session share of the arm, in percent.",
            &labels,
            f64::from(self.percent),
        );
        registry.gauge(
            "vtm_fabric_arm_revenue",
            "Sum of quoted prices resolved for the arm.",
            &labels,
            self.revenue,
        );
        registry.histogram(
            "vtm_fabric_arm_latency_us",
            "Client-observed ticket-resolution latency (log2 us buckets).",
            &labels,
            &self.latency,
        );
        if let Some(stages) = &self.stages {
            stages.register_metrics(registry, "vtm_fabric_arm", &labels);
        }
    }
}

/// One gateway's telemetry, tagged with its fabric coordinates.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardTelemetry {
    /// The arm the gateway belongs to.
    pub arm: String,
    /// The gateway's shard index within the arm.
    pub shard: usize,
    /// The arm generation the gateway was started under (0 = the fabric's
    /// initial policy; each promotion of the arm increments it).
    pub generation: u64,
    /// The gateway's own counters, histograms and percentiles.
    pub telemetry: TelemetrySnapshot,
}

/// A point-in-time copy of the whole fabric's telemetry: the per-arm axis
/// plus every live (or, at shutdown, every drained) gateway's snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct FabricSnapshot {
    /// Shards per arm.
    pub shards: usize,
    /// Per-arm fabric-level counters, in arm declaration order.
    pub arms: Vec<ArmSnapshot>,
    /// Per-gateway snapshots, sorted by (arm declaration order,
    /// generation, shard).
    pub gateways: Vec<ShardTelemetry>,
}

impl FabricSnapshot {
    /// Registers the whole fabric into `registry`: per-arm rollups under
    /// `vtm_fabric_arm_*` plus every gateway's own `vtm_gateway_*` families
    /// labelled by fabric coordinates (arm, shard, generation). This is the
    /// snapshot's only exposition; the bench reports embed its JSON.
    pub fn register_metrics(&self, registry: &mut MetricsRegistry) {
        registry.gauge(
            "vtm_fabric_shards",
            "Configured gateway shards per arm.",
            &[],
            self.shards as f64,
        );
        for arm in &self.arms {
            arm.register_metrics(registry);
        }
        for gateway in &self.gateways {
            let shard = gateway.shard.to_string();
            let generation = gateway.generation.to_string();
            let labels: [(&str, &str); 3] = [
                ("arm", &gateway.arm),
                ("shard", &shard),
                ("generation", &generation),
            ];
            gateway.telemetry.register_metrics(registry, &labels);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arm_counters_accumulate_and_summarize() {
        let telemetry = ArmTelemetry::default();
        telemetry.record_quote(10.0, false, 100);
        telemetry.record_quote(20.0, true, 200);
        telemetry.record_error(&GatewayError::Shed { retry_after_us: 50 });
        telemetry.record_error(&GatewayError::Overloaded { queue_capacity: 8 });
        telemetry.record_error(&GatewayError::ShuttingDown);
        telemetry.record_promotion();
        let snap = telemetry.snapshot("a", 90);
        assert_eq!(snap.quotes, 2);
        assert_eq!(snap.degraded, 1);
        assert_eq!(snap.shed, 1);
        assert_eq!(snap.rejected, 1);
        assert_eq!(snap.failed, 1);
        assert_eq!(snap.promotions, 1);
        assert!((snap.revenue - 30.0).abs() < 1e-12);
        assert_eq!(snap.latency.mean_us(), 150.0);
        assert!(snap.latency.p50_us() >= 100);
        assert!(snap.latency.p99_us() >= snap.latency.p50_us());
        assert_eq!(snap.percent, 90);
    }

    /// The revenue CAS loop survives concurrent adders without losing
    /// updates (the whole point of packing an f64 into an atomic).
    #[test]
    fn revenue_sum_is_exact_under_contention() {
        let telemetry = ArmTelemetry::default();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..1000 {
                        telemetry.record_quote(0.25, false, 1);
                    }
                });
            }
        });
        let snap = telemetry.snapshot("a", 100);
        assert_eq!(snap.quotes, 4000);
        // 0.25 sums exactly in binary floating point.
        assert_eq!(snap.revenue, 1000.0);
    }

    /// Gateway-side fault counters and stage histograms roll up into the
    /// owning arm (and only that arm), across generations.
    #[test]
    fn gateway_faults_and_stages_fold_into_their_arm() {
        let mut arms = vec![
            ArmTelemetry::default().snapshot("a", 90),
            ArmTelemetry::default().snapshot("b", 10),
        ];
        let mut shard_a = vtm_gateway::Telemetry::new().snapshot();
        shard_a.expired = 3;
        shard_a.journal_bypassed = 7;
        let mut stages = StageSnapshot {
            traced: 5,
            ..StageSnapshot::default()
        };
        stages.queue_wait.count = 5;
        shard_a.stages = Some(stages);
        let mut retired_a = vtm_gateway::Telemetry::new().snapshot();
        retired_a.expired = 2;
        retired_a.journal_bypassed = 1;
        let mut shard_b = vtm_gateway::Telemetry::new().snapshot();
        shard_b.expired = 11;
        let gateways = vec![
            ShardTelemetry {
                arm: "a".into(),
                shard: 0,
                generation: 1,
                telemetry: shard_a,
            },
            ShardTelemetry {
                arm: "a".into(),
                shard: 0,
                generation: 0,
                telemetry: retired_a,
            },
            ShardTelemetry {
                arm: "b".into(),
                shard: 0,
                generation: 0,
                telemetry: shard_b,
            },
        ];
        fold_gateway_rollups(&mut arms, &gateways);
        assert_eq!(arms[0].expired, 5);
        assert_eq!(arms[0].journal_bypassed, 8);
        let stages = arms[0].stages.as_ref().expect("arm a was traced");
        assert_eq!(stages.traced, 5);
        assert_eq!(stages.queue_wait.count, 5);
        assert_eq!(arms[1].expired, 11);
        assert!(arms[1].stages.is_none());
    }

    /// The fabric-level registry carries every arm family (a traced arm
    /// adds the stage families) plus per-gateway families with fabric
    /// coordinates as labels.
    #[test]
    fn fabric_metrics_registry_has_arm_and_gateway_families() {
        let arm = ArmTelemetry::default();
        arm.record_quote(12.0, false, 64);
        let traced = ArmSnapshot {
            degraded: 2,
            shed: 3,
            rejected: 4,
            failed: 5,
            promotions: 6,
            expired: 7,
            journal_bypassed: 8,
            stages: Some(StageSnapshot::default()),
            ..arm.snapshot("traced", 10)
        };
        let snapshot = FabricSnapshot {
            shards: 2,
            arms: vec![arm.snapshot("steady", 90), traced],
            gateways: vec![ShardTelemetry {
                arm: "steady".into(),
                shard: 1,
                generation: 3,
                telemetry: vtm_gateway::Telemetry::new().snapshot(),
            }],
        };
        let mut registry = MetricsRegistry::new();
        snapshot.register_metrics(&mut registry);
        let text = registry.render_text();
        let counters = "quotes degraded shed rejected failed promotions expired journal_bypassed";
        for (value, counter) in (1..).zip(counters.split(' ')) {
            let line = format!("vtm_fabric_arm_{counter}_total{{arm=\"traced\"}} {value}\n");
            assert!(text.contains(&line), "{line}{text}");
        }
        for line in [
            "vtm_fabric_arm_percent{arm=\"traced\"} 10\n",
            "vtm_fabric_arm_revenue{arm=\"traced\"} 12\n",
            "vtm_fabric_arm_latency_us_count{arm=\"traced\"} 1\n",
            "vtm_fabric_arm_traced_total{arm=\"traced\"} 0\n",
            "vtm_fabric_arm_stage_us_count{arm=\"traced\",stage=\"inference\"} 0\n",
            "vtm_gateway_submitted_total{arm=\"steady\",shard=\"1\",generation=\"3\"} 0\n",
        ] {
            assert!(text.contains(line), "{line}{text}");
        }
        assert!(!text.contains("vtm_fabric_arm_traced_total{arm=\"steady\"}"));
    }
}
