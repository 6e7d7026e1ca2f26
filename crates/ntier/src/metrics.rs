//! The streaming telemetry registry and the online millibottleneck
//! detector.
//!
//! [`LiveMetrics`] bundles one [`Registry`] (every layer's instruments,
//! registered by name at construction in a fixed order, aggregated into
//! [`REGISTRY_WINDOW`]s) with one [`MillibottleneckDetector`]. It is an
//! optional part of [`crate::telemetry::Telemetry`]: the system feeds
//! `Telemetry` alone, and `Telemetry` hands the registry and detector
//! the same per-event hooks and the same monitor snapshot, with the CPU
//! counters already differenced to integer per-window deltas. Like
//! tracing, the subsystem is **observational** by default: it never
//! schedules events or perturbs any random stream, so enabling it
//! leaves a run's trace digests byte-identical — an invariant the
//! observability integration tests assert. The one opt-in exception is
//! `SystemConfig::detector_feedback`, which routes freshly closed
//! detector flags (via [`LiveMetrics::drain_new_flags`]) back into the
//! balancers' `DetectorDriven` eligibility masks — a deliberate closing
//! of the loop that changes routing, never the clock or RNGs.
//!
//! Instrument map (registration order):
//!
//! | layer | instrument | kind |
//! |-------|-----------|------|
//! | simkernel | `sim.events` (handled per window) | counter |
//! | simkernel | `sim.event_queue_depth` | gauge |
//! | netmodel | `net.drops`, `net.retransmits` | counters |
//! | ntier | `ntier.completions`, `ntier.failures` | counters |
//! | ntier | `ntier.rt_us` (response times) | histogram |
//! | per server | `<server>.queue_depth`, `<server>.dirty_bytes`, `<server>.iowait_us` | gauges |
//! | per backend | `lb.tomcat<i>` (policy lb_value) | gauge |

use mlb_metrics::detector::{DetectorFlag, MillibottleneckDetector};
use mlb_metrics::registry::{JsonlSink, MetricId, Registry};
use mlb_metrics::spans::StallWindow;
use mlb_simkernel::time::{SimDuration, SimTime};

use crate::telemetry::MonitorSnapshot;

/// The registry's aggregation window. The paper's monitoring resolution
/// argument (millibottlenecks last 10s–100s of ms) wants sub-50 ms
/// windows.
pub const REGISTRY_WINDOW: SimDuration = SimDuration::from_millis(25);

/// Configuration of the streaming telemetry subsystem.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsConfig {
    /// Master switch. When off, the system carries no registry and every
    /// hook is a single `Option` check.
    pub enabled: bool,
}

impl MetricsConfig {
    /// Telemetry off (the default).
    pub fn disabled() -> Self {
        MetricsConfig { enabled: false }
    }

    /// Telemetry on.
    pub fn enabled_default() -> Self {
        MetricsConfig { enabled: true }
    }
}

/// Instrument handles, registered once at construction.
#[derive(Debug)]
struct Instruments {
    events: MetricId,
    event_queue_depth: MetricId,
    drops: MetricId,
    retransmits: MetricId,
    completions: MetricId,
    failures: MetricId,
    rt_us: MetricId,
    /// Per server slot: queue depth, dirty bytes, iowait delta.
    queue: Vec<MetricId>,
    dirty: Vec<MetricId>,
    iowait: Vec<MetricId>,
    /// Per backend: policy lb_value.
    lb: Vec<MetricId>,
}

/// The live telemetry bundle carried by a running `NTierSystem`.
#[derive(Debug)]
pub struct LiveMetrics {
    registry: Registry,
    detector: MillibottleneckDetector,
    ids: Instruments,
    /// Monitor tick interval (= detector window width).
    interval: SimDuration,
    /// Drain cursor into the detector's flag log for the feedback path:
    /// flags at indices `>= flag_cursor` have not been consumed yet.
    flag_cursor: usize,
}

impl LiveMetrics {
    /// Builds the registry + detector for an `apaches`×`tomcats`×1
    /// topology sampled every `interval` (the system's
    /// `sample_interval`).
    pub fn new(apaches: usize, tomcats: usize, interval: SimDuration) -> Self {
        let mut labels: Vec<String> = Vec::with_capacity(apaches + tomcats + 1);
        for i in 0..apaches {
            labels.push(format!("apache{}", i + 1));
        }
        for i in 0..tomcats {
            labels.push(format!("tomcat{}", i + 1));
        }
        labels.push("mysql".to_owned());

        let mut registry = Registry::new(REGISTRY_WINDOW);
        let ids = Instruments {
            events: registry.register_counter("sim.events"),
            event_queue_depth: registry.register_gauge("sim.event_queue_depth"),
            drops: registry.register_counter("net.drops"),
            retransmits: registry.register_counter("net.retransmits"),
            completions: registry.register_counter("ntier.completions"),
            failures: registry.register_counter("ntier.failures"),
            rt_us: registry.register_histogram("ntier.rt_us"),
            queue: labels
                .iter()
                .map(|l| registry.register_gauge(&format!("{l}.queue_depth")))
                .collect(),
            dirty: labels
                .iter()
                .map(|l| registry.register_gauge(&format!("{l}.dirty_bytes")))
                .collect(),
            iowait: labels
                .iter()
                .map(|l| registry.register_gauge(&format!("{l}.iowait_us")))
                .collect(),
            lb: (0..tomcats)
                .map(|i| registry.register_gauge(&format!("lb.tomcat{}", i + 1)))
                .collect(),
        };
        LiveMetrics {
            registry,
            detector: MillibottleneckDetector::new(interval, labels),
            ids,
            interval,
            flag_cursor: 0,
        }
    }

    /// One simulation event was handled.
    #[inline]
    pub fn on_event(&mut self, now: SimTime) {
        self.registry.incr(self.ids.events, now, 1);
    }

    /// An accept-queue drop happened.
    pub fn on_drop(&mut self, now: SimTime) {
        self.registry.incr(self.ids.drops, now, 1);
    }

    /// A TCP retransmission was scheduled.
    pub fn on_retransmit(&mut self, now: SimTime) {
        self.registry.incr(self.ids.retransmits, now, 1);
    }

    /// A request completed with response time `rt_us`.
    pub fn on_completion(&mut self, now: SimTime, rt_us: u64) {
        self.registry.incr(self.ids.completions, now, 1);
        self.registry.observe(self.ids.rt_us, now, rt_us);
    }

    /// A request terminally failed.
    pub fn on_failure(&mut self, now: SimTime) {
        self.registry.incr(self.ids.failures, now, 1);
    }

    /// Records one monitor tick: the event-loop depth, each server's
    /// levels and CPU deltas (feeding the detector the closed window),
    /// then Apache 1's lb_values. `cpu_deltas[slot]` holds the busy and
    /// iowait core-µs the server accrued over the window.
    pub fn record_monitor(
        &mut self,
        now: SimTime,
        snap: &MonitorSnapshot<'_>,
        cpu_deltas: &[(u64, u64)],
    ) {
        self.registry
            .gauge_set(self.ids.event_queue_depth, now, snap.pending as u64);
        // The tick at t = k·interval closes window k−1.
        let window = (now.as_micros() / self.interval.as_micros()).saturating_sub(1);
        for (slot, (s, &(busy, iowait))) in snap.servers.iter().zip(cpu_deltas).enumerate() {
            self.registry.gauge_set(self.ids.queue[slot], now, s.queue);
            self.registry
                .gauge_set(self.ids.dirty[slot], now, s.dirty_bytes);
            self.registry.gauge_set(self.ids.iowait[slot], now, iowait);
            self.detector
                .observe(window, slot, iowait, busy, s.queue, s.dirty_bytes);
        }
        for (&id, &v) in self.ids.lb.iter().zip(snap.lb_values) {
            self.registry.gauge_set(id, now, v);
        }
    }

    /// The registry (e.g. for incremental draining mid-run).
    pub fn registry_mut(&mut self) -> &mut Registry {
        &mut self.registry
    }

    /// The online detector's current state.
    pub fn detector(&self) -> &MillibottleneckDetector {
        &self.detector
    }

    /// Drains detector flags that appeared since the previous drain —
    /// the feed for `detector_feedback` routing. Each call returns only
    /// fresh flags and advances the cursor, so a tick with no new flags
    /// yields an empty slice (which the feedback path reads as
    /// "re-admit everything").
    pub fn drain_new_flags(&mut self) -> &[DetectorFlag] {
        let from = self.flag_cursor;
        let flags = self.detector.flags_since(from);
        self.flag_cursor = from + flags.len();
        flags
    }

    /// Closes the tail window and any open detector runs, drains the
    /// remaining records into a JSONL sink, and packages the outcome.
    pub fn into_report(mut self) -> MetricsReport {
        self.registry.finish();
        self.detector.finish();
        let mut sink = JsonlSink::new();
        self.registry.drain_into(&mut sink);
        MetricsReport {
            jsonl: sink.into_string(),
            stalls: self.detector.stalls().to_vec(),
            flags: self.detector.flags().to_vec(),
            window: self.interval,
            last_window: self.detector.last_window(),
        }
    }
}

/// End-of-run telemetry outcome, carried by
/// [`crate::experiment::ExperimentResult`].
#[derive(Debug, Clone)]
pub struct MetricsReport {
    /// JSONL export of every closed registry window (integer-only,
    /// byte-stable; see `mlb_metrics::registry::JsonlSink`).
    pub jsonl: String,
    /// Stall windows the online detector emitted.
    pub stalls: Vec<StallWindow>,
    /// Per-window flags (iowait-saturated / queue-spike / frozen-backend).
    pub flags: Vec<DetectorFlag>,
    /// Detector window width (the system's sample interval).
    pub window: SimDuration,
    /// Highest window ordinal the detector observed.
    pub last_window: Option<u64>,
}

impl MetricsReport {
    /// FNV-1a digest of the JSONL export — the golden value the
    /// observability tests pin per seed.
    pub fn digest(&self) -> u64 {
        mlb_metrics::registry::fnv1a(self.jsonl.as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::ServerSample;

    #[test]
    fn registration_order_is_stable_and_layers_are_covered() {
        let lm = LiveMetrics::new(2, 2, SimDuration::from_millis(50));
        assert_eq!(lm.registry.name(lm.ids.events), "sim.events");
        assert_eq!(lm.registry.name(lm.ids.queue[0]), "apache1.queue_depth");
        assert_eq!(lm.registry.name(lm.ids.dirty[2]), "tomcat1.dirty_bytes");
        assert_eq!(lm.registry.name(lm.ids.iowait[4]), "mysql.iowait_us");
        assert_eq!(lm.registry.name(lm.ids.lb[1]), "lb.tomcat2");
        // 7 global + 3 gauges × 5 servers + 2 lb gauges.
        assert_eq!(lm.registry.len(), 24);
    }

    #[test]
    fn drain_new_flags_returns_each_flag_exactly_once() {
        let mut lm = LiveMetrics::new(1, 1, SimDuration::from_millis(50));
        // Tomcat1 (slot 1) frozen with a queue: one window of iowait.
        let tick = |lm: &mut LiveMetrics, ms: u64, queue: u64| {
            let mut servers = [ServerSample::default(); 3];
            servers[1] = ServerSample {
                queue,
                dirty_bytes: 1_000,
                ..ServerSample::default()
            };
            let snap = MonitorSnapshot {
                servers: &servers,
                lb_values: &[0],
                pending: 0,
            };
            lm.record_monitor(
                SimTime::from_millis(ms),
                &snap,
                &[(0, 0), (0, 30_000), (0, 0)],
            );
        };
        assert!(lm.drain_new_flags().is_empty());
        tick(&mut lm, 50, 5);
        let fresh = lm.drain_new_flags();
        assert!(!fresh.is_empty());
        assert!(fresh.iter().all(|f| f.window == 0 && f.server == 1));
        // Nothing new until another window closes with activity.
        assert!(lm.drain_new_flags().is_empty());
        tick(&mut lm, 100, 7);
        let fresh = lm.drain_new_flags();
        assert!(fresh.iter().all(|f| f.window == 1));
        assert!(lm.drain_new_flags().is_empty());
    }
}
