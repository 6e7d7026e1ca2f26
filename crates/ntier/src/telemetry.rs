//! Experiment telemetry.
//!
//! One [`Telemetry`] instance collects everything the paper's figures and
//! Table I need, at the paper's 50 ms granularity. It is a passive data
//! sink and the system's single telemetry entry point:
//! [`crate::system::NTierSystem`] pushes every hook and one
//! [`MonitorSnapshot`] per monitor tick into it, and the figure harness
//! reads the series back out. When metrics are on, `Telemetry` also
//! carries the streaming registry and online detector ([`LiveMetrics`])
//! and hands them the same samples, with the CPU counters differenced
//! once for both.

use mlb_metrics::detector::MillibottleneckDetector;
use mlb_metrics::histogram::ResponseTimeHistogram;
use mlb_metrics::series::{WindowedCounter, WindowedSeries};
use mlb_metrics::summary::{ResponseStats, VLRT_THRESHOLD};
use mlb_osmodel::machine::Machine;
use mlb_simkernel::time::{SimDuration, SimTime};

use crate::metrics::{LiveMetrics, MetricsConfig, MetricsReport};

/// One server as a monitor tick reads it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerSample {
    /// Cumulative busy core-µs.
    pub busy_us: u64,
    /// Cumulative iowait core-µs.
    pub iowait_us: u64,
    /// CPU cores.
    pub cores: usize,
    /// Queued requests (the paper's per-server queue length).
    pub queue: u64,
    /// Dirty page-cache bytes.
    pub dirty_bytes: u64,
}

impl ServerSample {
    /// Reads `machine` at `now`, with `queue` requests attributed to it.
    pub fn from_machine(machine: &Machine, now: SimTime, queue: usize) -> Self {
        ServerSample {
            busy_us: machine.cpu.busy_core_micros(now),
            iowait_us: machine.cpu.iowait_core_micros(now),
            cores: machine.cpu.cores(),
            queue: queue as u64,
            dirty_bytes: machine.dirty_bytes(),
        }
    }
}

/// Everything one monitor tick reads from the system, read once.
#[derive(Debug, Clone, Copy)]
pub struct MonitorSnapshot<'a> {
    /// Every server in slot order: Apaches, Tomcats, MySQL.
    pub servers: &'a [ServerSample],
    /// Apache 1's lb_value per Tomcat (the paper's instrumented server).
    pub lb_values: &'a [u64],
    /// Events pending in the scheduler.
    pub pending: usize,
}

/// Where completed requests spent their time, averaged over the run.
///
/// The segments partition a request's response time end to end:
///
/// 1. `retransmit_wait` — from first transmission to the last arrival at
///    Apache (zero unless the request was dropped);
/// 2. `apache_admission` — accept-queue wait for a worker thread;
/// 3. `apache_cpu` — run-queue wait plus the parsing/proxy burst;
/// 4. `routing` — balancer selection, `get_endpoint` polling, probing;
/// 5. `backend` — endpoint acquisition to response at Apache (Tomcat
///    queueing + servlet + MySQL + AJP hops);
/// 6. `response` — Apache back to the client.
///
/// The paper's central claim is visible here directly: under the unstable
/// policies the tail lives in `retransmit_wait` and `routing`, not in
/// `backend` service.
#[derive(Debug, Clone, Default)]
pub struct PhaseBreakdown {
    /// Completed requests folded in.
    pub count: u64,
    /// Σ retransmission wait (µs).
    pub retransmit_wait_us: u64,
    /// Σ accept-queue wait (µs).
    pub apache_admission_us: u64,
    /// Σ Apache CPU queue + burst (µs).
    pub apache_cpu_us: u64,
    /// Σ routing / get_endpoint / probing (µs).
    pub routing_us: u64,
    /// Σ backend (Tomcat + MySQL + AJP hops) (µs).
    pub backend_us: u64,
    /// Σ response delivery (µs).
    pub response_us: u64,
}

impl PhaseBreakdown {
    /// Folds in one completed request's six segments (µs, in the order
    /// documented on the type).
    pub fn add(&mut self, segments_us: [u64; 6]) {
        let [retransmit_wait, apache_admission, apache_cpu, routing, backend, response] =
            segments_us;
        self.count += 1;
        self.retransmit_wait_us += retransmit_wait;
        self.apache_admission_us += apache_admission;
        self.apache_cpu_us += apache_cpu;
        self.routing_us += routing;
        self.backend_us += backend;
        self.response_us += response;
    }

    /// Mean microseconds per request for each segment, in the order
    /// documented on the type. Returns `None` if nothing was recorded.
    pub fn means_us(&self) -> Option<[f64; 6]> {
        if self.count == 0 {
            return None;
        }
        let n = self.count as f64;
        Some([
            self.retransmit_wait_us as f64 / n,
            self.apache_admission_us as f64 / n,
            self.apache_cpu_us as f64 / n,
            self.routing_us as f64 / n,
            self.backend_us as f64 / n,
            self.response_us as f64 / n,
        ])
    }

    /// Segment labels matching [`PhaseBreakdown::means_us`].
    pub fn labels() -> [&'static str; 6] {
        [
            "retransmit wait",
            "apache admission",
            "apache cpu",
            "routing/get_endpoint",
            "backend (tomcat+db)",
            "response",
        ]
    }

    /// Renders a one-segment-per-line table of mean milliseconds.
    pub fn render(&self) -> String {
        let Some(means) = self.means_us() else {
            return "no completed requests".to_owned();
        };
        let total: f64 = means.iter().sum();
        let mut out = String::new();
        for (label, mean) in Self::labels().iter().zip(means) {
            out.push_str(&format!(
                "  {label:<22} {:>9.3} ms  ({:>5.1}%)
",
                mean / 1_000.0,
                if total > 0.0 {
                    mean / total * 100.0
                } else {
                    0.0
                }
            ));
        }
        out.push_str(&format!(
            "  {:<22} {:>9.3} ms
",
            "total",
            total / 1_000.0
        ));
        out
    }
}

/// All measurements of one experiment run.
#[derive(Debug)]
pub struct Telemetry {
    /// Table I statistics (all completed requests).
    pub response: ResponseStats,
    /// Fig. 4: response-time frequency histogram.
    pub histogram: ResponseTimeHistogram,
    /// Fig. 2a/6a/7a: VLRT (> 1 s) completions per 50 ms window.
    pub vlrt_per_window: WindowedCounter,
    /// Fig. 1/3: point-in-time response time (ms) per window.
    pub rt_trace: WindowedSeries,
    /// Fig. 2b/8/12: queued requests per Apache per window.
    pub apache_queues: Vec<WindowedSeries>,
    /// Fig. 2b/8/9a/10a/12/13a: queued requests per Tomcat per window.
    pub tomcat_queues: Vec<WindowedSeries>,
    /// Queued requests in MySQL per window.
    pub mysql_queue: WindowedSeries,
    /// Fig. 2c: per-Apache CPU utilization (busy fraction incl. iowait).
    pub apache_util: Vec<WindowedSeries>,
    /// Fig. 5/6b/7b: per-Tomcat CPU utilization (busy fraction incl. iowait).
    pub tomcat_util: Vec<WindowedSeries>,
    /// MySQL CPU utilization.
    pub mysql_util: WindowedSeries,
    /// Fig. 2d: per-Apache iowait fraction.
    pub apache_iowait: Vec<WindowedSeries>,
    /// Per-Tomcat iowait fraction.
    pub tomcat_iowait: Vec<WindowedSeries>,
    /// Fig. 2e: per-Apache dirty page-cache bytes.
    pub apache_dirty: Vec<WindowedSeries>,
    /// Per-Tomcat dirty page-cache bytes.
    pub tomcat_dirty: Vec<WindowedSeries>,
    /// Fig. 10b/11b: Apache1's lb_value per Tomcat, sampled per window.
    pub lb_values: Vec<WindowedSeries>,
    /// Fig. 6c/7c/9b/13b: Apache1's requests assigned per Tomcat per
    /// window. Only Apache1 is kept, as for `lb_values`: the figures
    /// plot it alone, and the other Apaches' assignments record nothing.
    pub distribution: Vec<WindowedCounter>,
    /// Accept-queue drops per window (all Apaches).
    pub drops_per_window: WindowedCounter,
    /// Total accept-queue drops.
    pub drops: u64,
    /// Total TCP retransmissions issued.
    pub retransmits: u64,
    /// Requests that exhausted their RTO schedule or routing budget.
    pub failed_requests: u64,
    /// Requests that could not be routed within the routing budget.
    pub routing_failures: u64,
    /// Millibottlenecks (flushes) observed across all servers.
    pub millibottlenecks: u64,
    /// Where completed requests spent their time.
    pub phase_breakdown: PhaseBreakdown,

    sample_interval: SimDuration,
    // Cumulative CPU counters at the previous sample, for differencing:
    // (busy, iowait) per server slot.
    last_cpu: Vec<(u64, u64)>,
    // (busy, iowait) core-µs per server slot over the last closed window.
    cpu_delta: Vec<(u64, u64)>,
    // The streaming registry + online detector, when metrics are on.
    live: Option<LiveMetrics>,
}

impl Telemetry {
    /// Creates an empty collector for `apaches` × `tomcats` (+1 MySQL),
    /// sampling at `sample_interval`.
    pub fn new(apaches: usize, tomcats: usize, sample_interval: SimDuration) -> Self {
        let wc = || WindowedCounter::new(sample_interval);
        let ws = || WindowedSeries::new(sample_interval);
        Telemetry {
            response: ResponseStats::new(),
            histogram: ResponseTimeHistogram::paper_buckets(),
            vlrt_per_window: wc(),
            rt_trace: ws(),
            apache_queues: (0..apaches).map(|_| ws()).collect(),
            tomcat_queues: (0..tomcats).map(|_| ws()).collect(),
            mysql_queue: ws(),
            apache_util: (0..apaches).map(|_| ws()).collect(),
            tomcat_util: (0..tomcats).map(|_| ws()).collect(),
            mysql_util: ws(),
            apache_iowait: (0..apaches).map(|_| ws()).collect(),
            tomcat_iowait: (0..tomcats).map(|_| ws()).collect(),
            apache_dirty: (0..apaches).map(|_| ws()).collect(),
            tomcat_dirty: (0..tomcats).map(|_| ws()).collect(),
            lb_values: (0..tomcats).map(|_| ws()).collect(),
            distribution: (0..tomcats).map(|_| wc()).collect(),
            drops_per_window: wc(),
            drops: 0,
            retransmits: 0,
            failed_requests: 0,
            routing_failures: 0,
            millibottlenecks: 0,
            phase_breakdown: PhaseBreakdown::default(),
            sample_interval,
            last_cpu: vec![(0, 0); apaches + tomcats + 1],
            cpu_delta: vec![(0, 0); apaches + tomcats + 1],
            live: None,
        }
    }

    /// Adds the streaming registry and online detector when `cfg` turns
    /// metrics on; they then see every sample this collector takes.
    pub fn with_metrics(mut self, cfg: &MetricsConfig) -> Self {
        if cfg.enabled {
            self.live = Some(LiveMetrics::new(
                self.apache_queues.len(),
                self.tomcat_queues.len(),
                self.sample_interval,
            ));
        }
        self
    }

    /// One simulation event was handled.
    #[inline]
    pub fn on_event(&mut self, now: SimTime) {
        if let Some(m) = self.live.as_mut() {
            m.on_event(now);
        }
    }

    /// Records a completed request.
    pub fn record_completion(&mut self, now: SimTime, rt: SimDuration) {
        self.response.record(rt);
        self.histogram.record(rt);
        self.rt_trace.record(now, rt.as_millis_f64());
        if rt > VLRT_THRESHOLD {
            self.vlrt_per_window.incr(now);
        }
        if let Some(m) = self.live.as_mut() {
            m.on_completion(now, rt.as_micros());
        }
    }

    /// Records an accept-queue drop.
    pub fn record_drop(&mut self, now: SimTime) {
        self.drops += 1;
        self.drops_per_window.incr(now);
        if let Some(m) = self.live.as_mut() {
            m.on_drop(now);
        }
    }

    /// Records a scheduled TCP retransmission.
    pub fn record_retransmit(&mut self, now: SimTime) {
        self.retransmits += 1;
        if let Some(m) = self.live.as_mut() {
            m.on_retransmit(now);
        }
    }

    /// Records a terminally failed request.
    pub fn record_failure(&mut self, now: SimTime) {
        self.failed_requests += 1;
        if let Some(m) = self.live.as_mut() {
            m.on_failure(now);
        }
    }

    /// Records a request assignment (endpoint acquired) from `apache` to
    /// `tomcat`; only Apache1's (`apache == 0`) are kept.
    pub fn record_assignment(&mut self, now: SimTime, apache: usize, tomcat: usize) {
        if apache == 0 {
            self.distribution[tomcat].incr(now);
        }
    }

    /// Records one monitor tick. Queue depths, dirty bytes and lb_values
    /// are levels; the CPU counters are cumulative and differenced here,
    /// once, into the busy (and iowait) fraction of the window just
    /// closed. Series samples are timestamped inside that window. The
    /// registry and detector, when on, get the same levels and deltas.
    pub fn on_monitor(&mut self, now: SimTime, snap: &MonitorSnapshot<'_>) {
        let stamp = self.window_stamp(now);
        let (apaches, tomcats) = (self.apache_queues.len(), self.tomcat_queues.len());
        for (slot, s) in snap.servers.iter().enumerate() {
            let (prev_busy, prev_iowait) = self.last_cpu[slot];
            let delta = (
                s.busy_us.saturating_sub(prev_busy),
                s.iowait_us.saturating_sub(prev_iowait),
            );
            self.last_cpu[slot] = (s.busy_us, s.iowait_us);
            self.cpu_delta[slot] = delta;
            let denom = (self.sample_interval.as_micros() * s.cores as u64) as f64;
            let busy_frac = delta.0 as f64 / denom;
            let iowait_frac = delta.1 as f64 / denom;
            // The paper's CPU plots show saturation during iowait, so "util"
            // includes the iowait share; the iowait series isolates it.
            let util = (busy_frac + iowait_frac).min(1.0);
            let (queue, dirty) = (s.queue as f64, s.dirty_bytes as f64);
            if slot < apaches {
                self.apache_queues[slot].record(stamp, queue);
                self.apache_dirty[slot].record(stamp, dirty);
                self.apache_util[slot].record(stamp, util);
                self.apache_iowait[slot].record(stamp, iowait_frac.min(1.0));
            } else if slot < apaches + tomcats {
                let t = slot - apaches;
                self.tomcat_queues[t].record(stamp, queue);
                self.tomcat_dirty[t].record(stamp, dirty);
                self.tomcat_util[t].record(stamp, util);
                self.tomcat_iowait[t].record(stamp, iowait_frac.min(1.0));
            } else {
                self.mysql_queue.record(stamp, queue);
                self.mysql_util.record(stamp, util);
            }
        }
        for (series, &v) in self.lb_values.iter_mut().zip(snap.lb_values) {
            series.record(stamp, v as f64);
        }
        if let Some(m) = self.live.as_mut() {
            m.record_monitor(now, snap, &self.cpu_delta);
        }
    }

    /// Tomcats the detector flagged in the windows closed since the
    /// previous call — the feed for `detector_feedback` routing. A
    /// Tomcat with no fresh flag reads `false`, which re-admits it.
    /// `None` when metrics are off.
    pub fn drain_stalled_tomcats(&mut self) -> Option<Vec<bool>> {
        let (apaches, tomcats) = (self.apache_queues.len(), self.tomcat_queues.len());
        let m = self.live.as_mut()?;
        let mut stalled = vec![false; tomcats];
        for f in m.drain_new_flags() {
            // Detector slot order is apaches, tomcats, mysql; only
            // Tomcat flags map to routing backends.
            if (apaches..apaches + tomcats).contains(&f.server) {
                stalled[f.server - apaches] = true;
            }
        }
        Some(stalled)
    }

    /// The registry and detector, when metrics are on — for incremental
    /// draining of the registry mid-run.
    pub fn live_metrics_mut(&mut self) -> Option<&mut LiveMetrics> {
        self.live.as_mut()
    }

    /// The online detector's state so far, when metrics are on.
    pub fn detector(&self) -> Option<&MillibottleneckDetector> {
        self.live.as_ref().map(LiveMetrics::detector)
    }

    /// Splits off the registry and detector's end-of-run report (when
    /// metrics are on), closing their tail windows.
    pub fn into_parts(mut self) -> (Telemetry, Option<MetricsReport>) {
        let report = self.live.take().map(LiveMetrics::into_report);
        (self, report)
    }

    /// Timestamp that lands a sample taken at a window boundary inside the
    /// window it describes.
    pub fn window_stamp(&self, now: SimTime) -> SimTime {
        if now.as_micros() >= self.sample_interval.as_micros() {
            now - SimDuration::from_micros(1)
        } else {
            now
        }
    }

    /// Mean CPU utilization over the whole run for one series.
    pub fn mean_util(series: &WindowedSeries) -> f64 {
        let windows = series.windows();
        let mut sum = 0.0;
        let mut n = 0u64;
        for w in windows {
            if let Some(m) = w.mean() {
                // simlint::allow(no-float-accum): read-side index-order fold for a display-only mean; never feeds a digest
                sum += m;
                n += 1;
            }
        }
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlb_metrics::spans::StallKind;

    fn telemetry() -> Telemetry {
        Telemetry::new(2, 2, SimDuration::from_millis(50))
    }

    #[test]
    fn phase_breakdown_means_and_render() {
        let b = PhaseBreakdown {
            count: 2,
            retransmit_wait_us: 2_000,
            apache_admission_us: 0,
            apache_cpu_us: 500,
            routing_us: 100,
            backend_us: 4_000,
            response_us: 400,
        };
        let means = b.means_us().unwrap();
        assert_eq!(means[0], 1_000.0);
        assert_eq!(means[4], 2_000.0);
        let txt = b.render();
        assert!(txt.contains("retransmit wait"));
        assert!(txt.contains("total"));
        // Percentages must sum to ~100.
        let total: f64 = means.iter().sum();
        assert!((total - 3_500.0).abs() < 1e-9);
    }

    #[test]
    fn phase_breakdown_empty_is_graceful() {
        let b = PhaseBreakdown::default();
        assert!(b.means_us().is_none());
        assert_eq!(b.render(), "no completed requests");
    }

    #[test]
    fn completion_feeds_all_sinks() {
        let mut t = telemetry();
        t.record_completion(SimTime::from_millis(60), SimDuration::from_millis(1_500));
        t.record_completion(SimTime::from_millis(70), SimDuration::from_millis(5));
        assert_eq!(t.response.total(), 2);
        assert_eq!(t.response.vlrt_count(), 1);
        assert_eq!(t.histogram.count(), 2);
        assert_eq!(t.vlrt_per_window.total(), 1);
        assert_eq!(t.rt_trace.sample_count(), 2);
    }

    #[test]
    fn drops_counted_per_window_and_total() {
        let mut t = telemetry();
        t.record_drop(SimTime::from_millis(10));
        t.record_drop(SimTime::from_millis(12));
        t.record_drop(SimTime::from_millis(60));
        assert_eq!(t.drops, 3);
        assert_eq!(t.drops_per_window.counts(), &[2, 1]);
    }

    #[test]
    fn assignments_recorded_for_apache1_only() {
        let mut t = telemetry();
        t.record_assignment(SimTime::from_millis(10), 0, 1);
        t.record_assignment(SimTime::from_millis(10), 0, 1);
        t.record_assignment(SimTime::from_millis(60), 0, 0);
        assert_eq!(t.distribution[1].total(), 2);
        assert_eq!(t.distribution[0].total(), 1);
        assert_eq!(t.distribution[0].counts(), &[0, 1]);
        // Another Apache's assignments leave the series untouched.
        t.record_assignment(SimTime::from_millis(10), 1, 0);
        t.record_assignment(SimTime::from_millis(60), 1, 1);
        assert_eq!(t.distribution[0].total(), 1);
        assert_eq!(t.distribution[1].total(), 2);
        assert_eq!(t.distribution[1].counts(), &[2]);
    }

    /// Feeds `t` one monitor tick at `ms` over `servers` (slot order).
    fn tick(t: &mut Telemetry, ms: u64, servers: &[ServerSample]) {
        let snap = MonitorSnapshot {
            servers,
            lb_values: &[3, 4],
            pending: 0,
        };
        t.on_monitor(SimTime::from_millis(ms), &snap);
    }

    /// A 4-core server with only the given cumulative counters set.
    fn cpu(busy_us: u64, iowait_us: u64) -> ServerSample {
        ServerSample {
            busy_us,
            iowait_us,
            cores: 4,
            ..ServerSample::default()
        }
    }

    fn mean_at(series: &WindowedSeries, ms: u64) -> f64 {
        series
            .window_at(SimTime::from_millis(ms))
            .and_then(|w| w.mean())
            .unwrap()
    }

    #[test]
    fn cpu_sampling_differs_cumulative_counters() {
        let mut t = telemetry();
        let mut servers = [cpu(0, 0); 5];
        // Slot 0 (apache 0), 2 cores: busy 25 ms of 100 core-ms → 25%.
        servers[0] = ServerSample {
            cores: 2,
            ..cpu(25_000, 0)
        };
        tick(&mut t, 50, &servers);
        assert!((mean_at(&t.apache_util[0], 49) - 0.25).abs() < 1e-9);
        // Next window: cumulative 35 ms busy → delta 10 ms, plus 50 ms
        // of iowait: 60 of 100 core-ms.
        servers[0].busy_us = 35_000;
        servers[0].iowait_us = 50_000;
        tick(&mut t, 100, &servers);
        assert!((mean_at(&t.apache_util[0], 99) - 0.6).abs() < 1e-9);
        assert!((mean_at(&t.apache_iowait[0], 99) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn cpu_sampling_routes_to_correct_tier() {
        let mut t = telemetry();
        let mut servers = [cpu(0, 0); 5];
        servers[2] = cpu(200_000, 0); // tomcat 0 @ 100%
        servers[2].queue = 7;
        servers[2].dirty_bytes = 4_096;
        servers[4] = cpu(100_000, 0); // mysql @ 50%
        servers[4].queue = 2;
        tick(&mut t, 50, &servers);
        assert!((mean_at(&t.tomcat_util[0], 49) - 1.0).abs() < 1e-9);
        assert_eq!(mean_at(&t.tomcat_queues[0], 49), 7.0);
        assert_eq!(mean_at(&t.tomcat_dirty[0], 49), 4_096.0);
        assert!((mean_at(&t.mysql_util, 49) - 0.5).abs() < 1e-9);
        assert_eq!(mean_at(&t.mysql_queue, 49), 2.0);
        assert_eq!(mean_at(&t.apache_util[0], 49), 0.0);
        assert_eq!(mean_at(&t.lb_values[1], 49), 4.0);
    }

    #[test]
    fn one_snapshot_feeds_series_registry_and_detector() {
        let mut t = Telemetry::new(1, 1, SimDuration::from_millis(50))
            .with_metrics(&MetricsConfig::enabled_default());
        // Tomcat1 (slot 1), 2 cores. Window 0: 30 ms of iowait, no busy
        // time, a queue: frozen.
        let mut servers = [cpu(0, 0); 3];
        servers[1] = ServerSample {
            busy_us: 0,
            iowait_us: 30_000,
            cores: 2,
            queue: 5,
            dirty_bytes: 1_000,
        };
        tick(&mut t, 50, &servers);
        assert_eq!(t.drain_stalled_tomcats(), Some(vec![true]));
        // Window 1: thawed (iowait delta 0), dirty dropped (flush done).
        servers[1].busy_us = 20_000;
        servers[1].queue = 0;
        servers[1].dirty_bytes = 100;
        tick(&mut t, 100, &servers);
        assert_eq!(t.drain_stalled_tomcats(), Some(vec![false]));

        // The series: 30 000 of 100 000 core-µs, then nothing.
        assert!((mean_at(&t.tomcat_iowait[0], 49) - 0.3).abs() < 1e-9);
        assert_eq!(mean_at(&t.tomcat_iowait[0], 99), 0.0);
        let detector = t.detector().unwrap();
        assert_eq!(detector.frozen_windows(1), vec![0]);
        let (_, report) = t.into_parts();
        let report = report.unwrap();
        // The detector: one window-aligned flush stall over window 0.
        assert_eq!(report.stalls.len(), 1);
        assert_eq!(report.stalls[0].server, "tomcat1");
        assert_eq!(report.stalls[0].kind, StallKind::Flush);
        assert_eq!(report.stalls[0].end, SimTime::from_millis(50));
        // The registry gauge: the same deltas, at each tick.
        for (start_us, delta) in [(50_000, 30_000), (100_000, 0)] {
            let line = format!(
                "\"start_us\":{start_us},\"metric\":\"tomcat1.iowait_us\",\"kind\":\"gauge\",\
                 \"count\":1,\"sum\":{delta},"
            );
            assert!(report.jsonl.contains(&line), "missing {line}");
        }
    }

    #[test]
    fn window_stamp_lands_in_closed_window() {
        let t = telemetry();
        let stamp = t.window_stamp(SimTime::from_millis(50));
        assert!(stamp < SimTime::from_millis(50));
        assert_eq!(t.window_stamp(SimTime::ZERO), SimTime::ZERO);
    }

    #[test]
    fn mean_util_averages_nonempty_windows() {
        let mut s = WindowedSeries::new(SimDuration::from_millis(50));
        s.record(SimTime::from_millis(10), 0.2);
        s.record(SimTime::from_millis(110), 0.4);
        assert!((Telemetry::mean_util(&s) - 0.3).abs() < 1e-12);
    }
}
