//! # mlb-metrics — measurement substrate
//!
//! Everything the figure/table harness needs to regenerate the paper's
//! evaluation artifacts:
//!
//! * [`series`] — fixed-window (50 ms) counters and float series for queue
//!   lengths, VLRT counts, CPU utilization, dirty-page size, workload
//!   distribution and lb_value traces.
//! * [`histogram`] — the response-time histogram behind Fig. 4.
//! * [`summary`] — Table I statistics: total requests, average RT, % VLRT,
//!   % normal, plus table rendering.
//! * [`spans`] — per-request span traces (milliScope-style) and VLRT
//!   root-cause attribution against millibottleneck windows.
//! * [`registry`] — the streaming telemetry bus: named counters, gauges
//!   and log-scale histograms aggregated into fixed sub-50 ms windows
//!   with integer-µs accumulation, drained incrementally as JSONL.
//! * [`detector`] — online millibottleneck detection over the registry's
//!   window stream (iowait-saturated / queue-spike / frozen-backend
//!   flags, merged into window-aligned `StallWindow`s).
//! * [`heatmap`] — per-window × per-segment VLRT attribution heatmap
//!   (ASCII + `fig_attribution_heatmap.csv`).
//! * [`csv`] — plain CSV emission for external re-plotting.
//! * [`ascii`] — terminal line/bar charts and the shared column-aligned
//!   [`Table`] writer, so every figure is visible directly in the
//!   harness output.
//! * [`prof`] — the `prof.*` namespace: kernel self-profiles exported
//!   through the registry's sinks with a wall-ns-excluding deterministic
//!   digest.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod ascii;
pub mod csv;
pub mod detector;
pub mod heatmap;
pub mod histogram;
pub mod prof;
pub mod registry;
pub mod series;
pub mod spans;
pub mod summary;

pub use ascii::{Align, Table};
pub use csv::CsvTable;
pub use detector::{DetectorFlag, FlagKind, MillibottleneckDetector};
pub use heatmap::AttributionHeatmap;
pub use histogram::ResponseTimeHistogram;
pub use registry::{fnv1a, JsonlSink, MetricId, MetricKind, Registry, WindowRecord};
pub use series::{WindowAggregate, WindowedCounter, WindowedSeries};
pub use spans::{
    AttributionSummary, RequestTrace, Segment, SpanEvent, SpanKind, StallKind, StallWindow,
    TraceLog, VlrtCause,
};
pub use summary::{render_table, ResponseStats, TableRow, NORMAL_THRESHOLD, VLRT_THRESHOLD};
