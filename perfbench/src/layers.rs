//! Per-layer metrics from the kernel profile (`prof.*`).
//!
//! The kernel times every handled event by kind; each kind is charged to
//! the crate its handler mainly calls. The kernel itself (`simkernel`)
//! owns the drain and schedule phases.

use mlb_simkernel::prof::{KernelProfile, Phase};

use crate::episode::Episode;
use crate::report::Metric;
use crate::stats::ratio;

/// Layers that own event kinds, in report order.
pub const LAYERS: [&str; 6] = [
    "workload", "netmodel", "core", "ntier", "osmodel", "metrics",
];

/// Every event kind of the n-tier model and the layer its handler mainly
/// calls into.
pub const KIND_LAYER: [(&str, &str); 22] = [
    ("client_issue", "workload"),
    ("client_done", "workload"),
    ("client_retransmit", "netmodel"),
    ("arrive_apache", "netmodel"),
    ("route_request", "core"),
    ("endpoint_retry", "core"),
    ("arrive_probe", "core"),
    ("probe_reply", "core"),
    ("probe_timeout", "core"),
    ("arrive_tomcat", "ntier"),
    ("db_dispatch", "ntier"),
    ("arrive_mysql", "ntier"),
    ("db_reply", "ntier"),
    ("apache_reply", "ntier"),
    ("apache_cpu_done", "osmodel"),
    ("tomcat_cpu_done", "osmodel"),
    ("mysql_cpu_done", "osmodel"),
    ("pdflush_wake", "osmodel"),
    ("flush_end", "osmodel"),
    ("gc_start", "osmodel"),
    ("gc_end", "osmodel"),
    ("monitor_sample", "metrics"),
];

/// Kernel profiles of several runs added together.
#[derive(Debug, Default)]
pub struct ProfileSum {
    runs: u64,
    kind_names: Vec<&'static str>,
    kind_counts: Vec<u64>,
    kind_ns: Vec<u64>,
    phase_counts: [u64; 3],
    phase_ns: [u64; 3],
}

impl ProfileSum {
    /// Adds one run's profile.
    pub fn add(&mut self, p: &KernelProfile) {
        if self.kind_names.is_empty() {
            self.kind_names = p.kind_names.to_vec();
            self.kind_counts = vec![0; p.kind_names.len()];
            self.kind_ns = vec![0; p.kind_names.len()];
        }
        assert_eq!(self.kind_names, p.kind_names, "one model per profile sum");
        self.runs += 1;
        for i in 0..self.kind_names.len() {
            self.kind_counts[i] += p.kind_counts[i];
            self.kind_ns[i] += p.kind_wall_ns[i];
        }
        for (i, phase) in Phase::ALL.into_iter().enumerate() {
            self.phase_counts[i] += p.phase_count(phase);
            self.phase_ns[i] += p.phase_ns(phase);
        }
    }

    /// Handled events and handler wall ns summed over `kinds`.
    fn kinds(&self, kinds: &[&str]) -> (f64, f64) {
        self.kind_names
            .iter()
            .enumerate()
            .filter(|(_, n)| kinds.contains(n))
            .fold((0.0, 0.0), |(c, ns), (i, _)| {
                (c + self.kind_counts[i] as f64, ns + self.kind_ns[i] as f64)
            })
    }

    /// Handled events and handler wall ns of every kind charged to `layer`.
    fn layer(&self, layer: &str) -> (f64, f64) {
        let kinds: Vec<&str> = KIND_LAYER
            .iter()
            .filter(|(_, l)| *l == layer)
            .map(|(k, _)| *k)
            .collect();
        self.kinds(&kinds)
    }

    fn phase(&self, phase: Phase) -> (f64, f64) {
        let i = Phase::ALL
            .iter()
            .position(|&p| p == phase)
            .expect("Phase::ALL lists every phase");
        (self.phase_counts[i] as f64, self.phase_ns[i] as f64)
    }

    /// Profiled kinds no layer is charged with; empty when the map is
    /// complete for this model.
    pub fn unmapped_kinds(&self) -> Vec<&'static str> {
        self.kind_names
            .iter()
            .copied()
            .filter(|k| !KIND_LAYER.iter().any(|(m, _)| m == k))
            .collect()
    }

    /// Whether the layers' handler ns add up to the `handle` phase
    /// exactly, so the per-layer shares account for all handler time.
    pub fn layers_cover_handle(&self) -> bool {
        let layered: u64 = LAYERS.iter().map(|l| self.layer(l).1 as u64).sum();
        layered == self.phase(Phase::Handle).1 as u64 && self.unmapped_kinds().is_empty()
    }
}

/// What the traced run measured, besides the profile.
#[derive(Debug)]
pub struct TracedRun<'a> {
    /// Profiles of every profiled run, summed.
    pub prof: &'a ProfileSum,
    /// One profiled run (its counters are deterministic).
    pub run: &'a Episode,
    /// Median host seconds of the untraced runs.
    pub untraced_wall_s: f64,
    /// Median host seconds of the profiled runs.
    pub traced_wall_s: f64,
    /// Median host seconds with the trace log and registry on.
    pub observed_wall_s: f64,
    /// Median host seconds with them off.
    pub unobserved_wall_s: f64,
    /// Traces retained by the run with the trace log on.
    pub traces_retained: u64,
}

/// Every per-layer metric, in report order.
pub fn per_layer(t: &TracedRun<'_>) -> Vec<Metric> {
    let p = t.prof;
    let o = &t.run.outcome;
    let (events, handle_ns) = p.phase(Phase::Handle);
    let (_, drain_ns) = p.phase(Phase::Drain);
    let (pushes, schedule_ns) = p.phase(Phase::Schedule);
    let share = |layer: &str| 100.0 * ratio(p.layer(layer).1, handle_ns);
    let ns_per = |kinds: &[&str]| {
        let (c, ns) = p.kinds(kinds);
        ratio(ns, c)
    };
    let wheel = t.run.profile.as_ref().and_then(|k| k.wheel);
    let count = |v: u64| v as f64;
    let (route, _) = p.kinds(&["route_request", "endpoint_retry"]);
    let runs = p.runs as f64;
    vec![
        Metric::new("simkernel.events", "count", count(o.events)),
        Metric::new(
            "simkernel.events_per_wall_s",
            "1/s",
            ratio(o.events as f64, t.untraced_wall_s),
        ),
        Metric::new(
            "simkernel.drain_ns_per_event",
            "ns",
            ratio(drain_ns, events),
        ),
        Metric::new(
            "simkernel.schedule_ns_per_push",
            "ns",
            ratio(schedule_ns, pushes),
        ),
        Metric::new(
            "simkernel.share_pct",
            "%",
            100.0 * ratio(drain_ns + schedule_ns, drain_ns + handle_ns),
        ),
        Metric::new(
            "simkernel.cascade_entries",
            "count",
            count(wheel.map_or(0, |w| w.cascade_entries)),
        ),
        Metric::new(
            "simkernel.node_peak_live",
            "count",
            count(wheel.map_or(0, |w| w.node_peak_live)),
        ),
        Metric::new("simkernel.peak_pending", "count", count(t.run.peak_pending)),
        Metric::new("core.route_ns_per_event", "ns", ns_per(&["route_request"])),
        Metric::new(
            "core.route_events_per_completion",
            "ratio",
            ratio(route / runs, o.completed as f64),
        ),
        Metric::new("core.giveups", "count", count(t.run.giveups)),
        Metric::new(
            "core.pool_exhaustions",
            "count",
            count(t.run.pool_exhaustions),
        ),
        Metric::new("core.share_pct", "%", share("core")),
        Metric::new(
            "netmodel.arrive_ns_per_event",
            "ns",
            ns_per(&["arrive_apache"]),
        ),
        Metric::new("netmodel.drops", "count", count(o.drops)),
        Metric::new("netmodel.retransmits", "count", count(o.retransmits)),
        Metric::new(
            "netmodel.arrivals_per_issue",
            "ratio",
            ratio(p.kinds(&["arrive_apache"]).0, p.kinds(&["client_issue"]).0),
        ),
        Metric::new("netmodel.share_pct", "%", share("netmodel")),
        Metric::new(
            "ntier.handle_self_ns_per_event",
            "ns",
            ratio(handle_ns - schedule_ns, events),
        ),
        Metric::new(
            "ntier.db_ns_per_event",
            "ns",
            ns_per(&["db_dispatch", "arrive_mysql", "db_reply"]),
        ),
        Metric::new(
            "ntier.arena_peak_live",
            "count",
            count(t.run.arena_peak_live),
        ),
        Metric::new(
            "ntier.completions_per_event",
            "ratio",
            ratio(o.completed as f64, o.events as f64),
        ),
        Metric::new("ntier.requests_failed", "count", count(o.failed)),
        Metric::new("ntier.share_pct", "%", share("ntier")),
        Metric::new(
            "osmodel.cpu_ns_per_event",
            "ns",
            ns_per(&["apache_cpu_done", "tomcat_cpu_done", "mysql_cpu_done"]),
        ),
        Metric::new(
            "osmodel.flush_ns_per_event",
            "ns",
            ns_per(&["pdflush_wake", "flush_end"]),
        ),
        Metric::new(
            "osmodel.millibottlenecks",
            "count",
            count(t.run.millibottlenecks),
        ),
        Metric::new("osmodel.share_pct", "%", share("osmodel")),
        Metric::new(
            "workload.client_ns_per_event",
            "ns",
            ns_per(&["client_issue", "client_done"]),
        ),
        Metric::new("workload.share_pct", "%", share("workload")),
        Metric::new(
            "metrics.monitor_ns_per_event",
            "ns",
            ns_per(&["monitor_sample"]),
        ),
        Metric::new(
            "metrics.observer_overhead_pct",
            "%",
            100.0 * (ratio(t.observed_wall_s, t.unobserved_wall_s) - 1.0),
        ),
        Metric::new("metrics.traces_retained", "count", count(t.traces_retained)),
        Metric::new("metrics.share_pct", "%", share("metrics")),
        Metric::new(
            "bench.trace_overhead_ratio",
            "ratio",
            ratio(t.traced_wall_s, t.untraced_wall_s),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlb_ntier::events::Event;

    #[test]
    fn every_event_kind_is_charged_to_exactly_one_layer() {
        assert_eq!(KIND_LAYER.len(), Event::KIND_NAMES.len());
        for kind in Event::KIND_NAMES {
            let layers: Vec<&str> = KIND_LAYER
                .iter()
                .filter(|(k, _)| k == kind)
                .map(|(_, l)| *l)
                .collect();
            assert_eq!(layers.len(), 1, "{kind} is charged to {layers:?}");
        }
        for (kind, layer) in KIND_LAYER {
            assert!(
                Event::KIND_NAMES.contains(&kind),
                "{kind} is not an event kind"
            );
            assert!(LAYERS.contains(&layer), "{layer} is not a layer");
        }
    }

    #[test]
    fn layer_shares_cover_the_handle_phase() {
        let profile = KernelProfile {
            kind_names: Event::KIND_NAMES,
            kind_counts: (1..=22).collect(),
            kind_wall_ns: (1..=22).map(|i| i * 100).collect(),
            phase_counts: [5, 253, 7],
            phase_wall_ns: [50, 25_300, 70],
            wheel: None,
        };
        let mut sum = ProfileSum::default();
        sum.add(&profile);
        assert!(sum.unmapped_kinds().is_empty());
        assert!(sum.layers_cover_handle());
    }
}
