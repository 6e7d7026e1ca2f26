//! Deterministic streaming telemetry registry.
//!
//! A milliScope-style telemetry bus: typed instruments (counters, gauges,
//! log-scale histograms) are registered **by name** up front, every
//! recording is aggregated into fixed sub-50 ms windows using pure
//! integer-µs arithmetic (no float summation order hazards), and closed
//! windows are drained incrementally into a [`JsonlSink`] — one JSON
//! object per line for offline analysis.
//!
//! Determinism is structural, not aspirational:
//!
//! * instruments live in a `Vec` indexed by registration order — there is
//!   no name hashing anywhere, so identical runs drain identical records
//!   in identical order;
//! * all accumulators are `u64` (counts, integer sums, mins, maxes,
//!   power-of-two histogram buckets), so window aggregates are exact and
//!   platform-independent;
//! * the JSONL export is hand-rolled with a fixed key order, making its
//!   FNV-1a digest a golden value that can be pinned in tests.
//!
//! The hot-path cost of a recording is one window-roll check plus a few
//! integer ops on a pre-allocated cell; `registry_overhead` in
//! `crates/bench` keeps the end-to-end cost honest.

use std::collections::VecDeque;

use mlb_simkernel::time::{SimDuration, SimTime};

/// The three instrument types the registry understands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonic event count; the window aggregate sums the increments.
    Counter,
    /// Sampled level (queue depth, dirty bytes); the window aggregate
    /// keeps min/max/last of the sampled values.
    Gauge,
    /// Streaming distribution of integer-µs (or byte) observations with
    /// log₂-scale buckets.
    Histogram,
}

impl MetricKind {
    /// Stable lowercase label used in exports.
    pub fn label(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// Opaque handle returned by registration; indexes the registry's
/// instrument table (registration order, no hashing).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricId(usize);

/// One closed aggregation window for one instrument.
///
/// All fields are integers so the record is exact and its serialized
/// form is bit-stable across platforms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowRecord {
    /// Index of the instrument in registration order.
    pub metric: usize,
    /// Window ordinal (window `w` covers `[w·W, (w+1)·W)`).
    pub window: u64,
    /// Window start in integer µs (`w · W`).
    pub start_us: u64,
    /// Number of recordings that landed in the window.
    pub count: u64,
    /// Integer sum of recorded values (increments / samples / µs).
    pub sum: u64,
    /// Smallest recorded value.
    pub min: u64,
    /// Largest recorded value.
    pub max: u64,
    /// Last recorded value (gauges: the level at window close).
    pub last: u64,
    /// Non-empty log₂ buckets as `(bit_width, count)` pairs, ascending.
    /// Bucket `b` holds values whose bit width is `b` (0 holds the value
    /// zero). Empty for counters and gauges.
    pub buckets: Vec<(u8, u64)>,
}

#[derive(Debug)]
struct MetricDef {
    name: String,
    kind: MetricKind,
}

/// Live accumulator for one instrument in the currently open window.
#[derive(Debug, Clone)]
struct Cell {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    last: u64,
    /// 65 buckets (bit widths 0..=64) for histograms, empty otherwise.
    buckets: Vec<u64>,
}

impl Cell {
    fn new(kind: MetricKind) -> Self {
        Cell {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            last: 0,
            buckets: match kind {
                MetricKind::Histogram => vec![0; 65],
                _ => Vec::new(),
            },
        }
    }

    fn reset(&mut self) {
        self.count = 0;
        self.sum = 0;
        self.min = u64::MAX;
        self.max = 0;
        self.last = 0;
        for b in &mut self.buckets {
            *b = 0;
        }
    }

    fn record(&mut self, value: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.last = value;
        if !self.buckets.is_empty() {
            let width = (u64::BITS - value.leading_zeros()) as usize;
            self.buckets[width] += 1;
        }
    }
}

/// The streaming registry: instruments, the open window, and the queue
/// of closed-but-undrained [`WindowRecord`]s.
#[derive(Debug)]
pub struct Registry {
    window: SimDuration,
    defs: Vec<MetricDef>,
    cells: Vec<Cell>,
    /// Ordinal of the currently open window; `None` until first record.
    open: Option<u64>,
    pending: VecDeque<WindowRecord>,
    finished: bool,
}

impl Registry {
    /// Creates a registry aggregating into fixed windows of `window`.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero — a zero-width window cannot bucket
    /// time.
    pub fn new(window: SimDuration) -> Self {
        assert!(
            window.as_micros() > 0,
            "registry window must be a positive duration"
        );
        Registry {
            window,
            defs: Vec::new(),
            cells: Vec::new(),
            open: None,
            pending: VecDeque::new(),
            finished: false,
        }
    }

    /// Number of registered instruments.
    pub fn len(&self) -> usize {
        self.defs.len()
    }

    /// Whether no instruments are registered.
    pub fn is_empty(&self) -> bool {
        self.defs.is_empty()
    }

    /// Name of an instrument (registration order).
    pub fn name(&self, id: MetricId) -> &str {
        &self.defs[id.0].name
    }

    fn register(&mut self, name: &str, kind: MetricKind) -> MetricId {
        debug_assert!(
            !self.defs.iter().any(|d| d.name == name),
            "metric `{name}` registered twice"
        );
        self.defs.push(MetricDef {
            name: name.to_owned(),
            kind,
        });
        self.cells.push(Cell::new(kind));
        MetricId(self.defs.len() - 1)
    }

    /// Registers a counter.
    pub fn register_counter(&mut self, name: &str) -> MetricId {
        self.register(name, MetricKind::Counter)
    }

    /// Registers a gauge.
    pub fn register_gauge(&mut self, name: &str) -> MetricId {
        self.register(name, MetricKind::Gauge)
    }

    /// Registers a log₂-bucket streaming histogram.
    pub fn register_histogram(&mut self, name: &str) -> MetricId {
        self.register(name, MetricKind::Histogram)
    }

    /// Closes the open window (if any) and pushes its non-empty cells
    /// onto the pending queue in registration order.
    fn close_open(&mut self) {
        let Some(w) = self.open else { return };
        let start_us = w * self.window.as_micros();
        for (i, cell) in self.cells.iter_mut().enumerate() {
            if cell.count == 0 {
                continue;
            }
            let buckets: Vec<(u8, u64)> = cell
                .buckets
                .iter()
                .enumerate()
                .filter(|(_, n)| **n > 0)
                .map(|(b, n)| (b as u8, *n))
                .collect();
            self.pending.push_back(WindowRecord {
                metric: i,
                window: w,
                start_us,
                count: cell.count,
                sum: cell.sum,
                min: cell.min,
                max: cell.max,
                last: cell.last,
                buckets,
            });
            cell.reset();
        }
    }

    /// Rolls the open window forward to the one containing `now`.
    fn roll(&mut self, now: SimTime) {
        let w = now.as_micros() / self.window.as_micros();
        match self.open {
            Some(open) if open == w => {}
            Some(open) => {
                debug_assert!(w > open, "registry time went backwards");
                self.close_open();
                self.open = Some(w);
            }
            None => self.open = Some(w),
        }
    }

    fn record(&mut self, id: MetricId, now: SimTime, value: u64) {
        debug_assert!(!self.finished, "recording into a finished registry");
        self.roll(now);
        self.cells[id.0].record(value);
    }

    /// Adds `n` to a counter at simulated time `now`.
    pub fn incr(&mut self, id: MetricId, now: SimTime, n: u64) {
        debug_assert_eq!(self.defs[id.0].kind, MetricKind::Counter);
        self.record(id, now, n);
    }

    /// Samples a gauge level at simulated time `now`.
    pub fn gauge_set(&mut self, id: MetricId, now: SimTime, value: u64) {
        debug_assert_eq!(self.defs[id.0].kind, MetricKind::Gauge);
        self.record(id, now, value);
    }

    /// Observes one integer value (µs, bytes, …) into a histogram.
    pub fn observe(&mut self, id: MetricId, now: SimTime, value: u64) {
        debug_assert_eq!(self.defs[id.0].kind, MetricKind::Histogram);
        self.record(id, now, value);
    }

    /// Closes the tail window. Call once when the run ends; further
    /// recordings are a logic error (debug-asserted).
    pub fn finish(&mut self) {
        self.close_open();
        self.open = None;
        self.finished = true;
    }

    /// Drains every pending closed window into `sink`, oldest first, in
    /// deterministic order (window, then registration order).
    /// Incremental: safe to call mid-run as often as desired.
    pub fn drain_into(&mut self, sink: &mut JsonlSink) {
        while let Some(rec) = self.pending.pop_front() {
            let def = &self.defs[rec.metric];
            sink.on_window(&def.name, def.kind, &rec);
        }
    }
}

/// FNV-1a over a byte slice — same constants as `TraceLog::digest`, so
/// golden values from both subsystems live in one hash family.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Sink that renders each record as one JSON object per line.
///
/// The JSON is hand-rolled (the build environment has no serde): fixed
/// key order, integer-only values, no whitespace variance — so the
/// export is byte-stable and [`JsonlSink::digest`] can be pinned as a
/// golden value.
#[derive(Debug, Default)]
pub struct JsonlSink {
    out: String,
}

impl JsonlSink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// The export so far.
    pub fn as_str(&self) -> &str {
        &self.out
    }

    /// Consumes the sink, returning the export.
    pub fn into_string(self) -> String {
        self.out
    }

    /// FNV-1a digest of the export bytes.
    pub fn digest(&self) -> u64 {
        fnv1a(self.out.as_bytes())
    }

    /// Appends one closed (metric, window) record as a JSON line.
    fn on_window(&mut self, name: &str, kind: MetricKind, r: &WindowRecord) {
        use std::fmt::Write as _;
        let _ = write!(
            self.out,
            "{{\"window\":{},\"start_us\":{},\"metric\":\"{}\",\"kind\":\"{}\",\
             \"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"last\":{}",
            r.window,
            r.start_us,
            name,
            kind.label(),
            r.count,
            r.sum,
            r.min,
            r.max,
            r.last
        );
        if kind == MetricKind::Histogram {
            self.out.push_str(",\"buckets\":[");
            for (i, (b, n)) in r.buckets.iter().enumerate() {
                if i > 0 {
                    self.out.push(',');
                }
                let _ = write!(self.out, "[{b},{n}]");
            }
            self.out.push(']');
        }
        self.out.push_str("}\n");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    fn drain(reg: &mut Registry) -> Vec<String> {
        let mut sink = JsonlSink::new();
        reg.drain_into(&mut sink);
        sink.into_string().lines().map(str::to_owned).collect()
    }

    #[test]
    fn windows_roll_and_aggregate_with_integer_math() {
        let mut reg = Registry::new(SimDuration::from_millis(25));
        let c = reg.register_counter("events");
        let g = reg.register_gauge("queue");
        let h = reg.register_histogram("rt_us");

        reg.incr(c, t(1_000), 1);
        reg.incr(c, t(2_000), 3);
        reg.gauge_set(g, t(3_000), 7);
        reg.observe(h, t(4_000), 1_500);
        // Crossing into window 1 closes window 0.
        reg.incr(c, t(26_000), 1);
        reg.finish();

        let lines = drain(&mut reg);
        assert_eq!(
            lines,
            [
                "{\"window\":0,\"start_us\":0,\"metric\":\"events\",\"kind\":\"counter\",\
                 \"count\":2,\"sum\":4,\"min\":1,\"max\":3,\"last\":3}",
                "{\"window\":0,\"start_us\":0,\"metric\":\"queue\",\"kind\":\"gauge\",\
                 \"count\":1,\"sum\":7,\"min\":7,\"max\":7,\"last\":7}",
                // 1500 has bit width 11.
                "{\"window\":0,\"start_us\":0,\"metric\":\"rt_us\",\"kind\":\"histogram\",\
                 \"count\":1,\"sum\":1500,\"min\":1500,\"max\":1500,\"last\":1500,\
                 \"buckets\":[[11,1]]}",
                "{\"window\":1,\"start_us\":25000,\"metric\":\"events\",\"kind\":\"counter\",\
                 \"count\":1,\"sum\":1,\"min\":1,\"max\":1,\"last\":1}",
            ]
        );
    }

    #[test]
    fn jsonl_export_is_deterministic_and_digestible() {
        let build = || {
            let mut reg = Registry::new(SimDuration::from_millis(10));
            let h = reg.register_histogram("lat");
            reg.observe(h, t(0), 0);
            reg.observe(h, t(5), 9);
            reg.observe(h, t(12_000), 1024);
            reg.finish();
            let mut sink = JsonlSink::new();
            reg.drain_into(&mut sink);
            sink
        };
        let a = build();
        let b = build();
        assert_eq!(a.as_str(), b.as_str());
        assert_eq!(a.digest(), b.digest());
        assert!(a.as_str().starts_with("{\"window\":0,"));
        // Value 0 lands in bucket 0, 9 in bucket 4, 1024 in bucket 11.
        assert!(a.as_str().contains("\"buckets\":[[0,1],[4,1]]"));
        assert!(a.as_str().contains("\"buckets\":[[11,1]]"));
    }

    #[test]
    fn empty_windows_produce_no_records() {
        let mut reg = Registry::new(SimDuration::from_millis(10));
        let c = reg.register_counter("sparse");
        reg.incr(c, t(0), 1);
        // A long quiet gap: windows 1..99 must not appear.
        reg.incr(c, t(1_000_000), 1);
        reg.finish();
        let lines = drain(&mut reg);
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"window\":0,"));
        assert!(lines[1].starts_with("{\"window\":100,"));
    }

    #[test]
    fn incremental_drain_matches_one_shot_drain() {
        let run = |drain_every: bool| {
            let mut reg = Registry::new(SimDuration::from_millis(10));
            let c = reg.register_counter("n");
            let mut sink = JsonlSink::new();
            for k in 0..50u64 {
                reg.incr(c, t(k * 7_000), 1);
                if drain_every {
                    reg.drain_into(&mut sink);
                }
            }
            reg.finish();
            reg.drain_into(&mut sink);
            sink.into_string()
        };
        assert_eq!(run(true), run(false));
    }
}
