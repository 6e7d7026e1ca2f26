//! Per-window × per-segment VLRT attribution heatmap.
//!
//! The post-hoc trace log already attributes each very-long-response-time
//! request to the latency segment that dominated it; this module folds
//! those attributions onto the time axis. Each retained VLRT chain is
//! keyed by the window its response completed in, and its six segment
//! latencies are summed per window with integer-µs arithmetic. The
//! result renders two ways: an ASCII density grid for the harness
//! output, and a `fig_attribution_heatmap.csv` table for re-plotting —
//! the reproduction's analogue of the paper's fine-grained timeline
//! figures, showing *when* each cause (retransmit clusters, admission
//! queuing, backend stalls) dominated.

use std::collections::BTreeMap;

use mlb_simkernel::time::SimDuration;

use crate::csv::CsvTable;
use crate::spans::{Segment, TraceLog};

/// Density ramp for the ASCII rendering, lightest to darkest.
const RAMP: [char; 6] = [' ', '.', ':', '*', '#', '@'];

/// Integer-µs segment sums per completion window.
#[derive(Debug, Clone)]
pub struct AttributionHeatmap {
    window: SimDuration,
    /// Window ordinal → per-segment µs sums (Segment::ALL order).
    rows: BTreeMap<u64, [u64; 6]>,
    /// VLRT chains folded in (those retained by the trace log).
    chains: u64,
}

impl AttributionHeatmap {
    /// An empty heatmap with the given window width.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: SimDuration) -> Self {
        assert!(window.as_micros() > 0, "heatmap window must be positive");
        AttributionHeatmap {
            window,
            rows: BTreeMap::new(),
            chains: 0,
        }
    }

    /// Folds every retained VLRT cause of `log` into a heatmap, keyed by
    /// the window each request completed in.
    ///
    /// The trace log retains at most its configured VLRT capacity, so
    /// on very long runs the heatmap covers the retained subset (the
    /// log's `vlrt_total` says how many occurred overall).
    pub fn from_trace_log(log: &TraceLog, window: SimDuration) -> Self {
        let mut hm = AttributionHeatmap::new(window);
        for cause in log.vlrt_causes() {
            let Some(done) = cause.trace.last_at() else {
                continue;
            };
            hm.add(done.as_micros(), &cause.segments_us);
        }
        hm
    }

    /// Adds one request's segment latencies at completion time
    /// `done_us`.
    pub fn add(&mut self, done_us: u64, segments_us: &[u64; 6]) {
        let w = done_us / self.window.as_micros();
        let row = self.rows.entry(w).or_insert([0; 6]);
        for (acc, s) in row.iter_mut().zip(segments_us) {
            *acc = acc.saturating_add(*s);
        }
        self.chains += 1;
    }

    /// Number of VLRT chains folded in.
    pub fn chains(&self) -> u64 {
        self.chains
    }

    /// Non-empty rows in window order.
    pub fn rows(&self) -> impl Iterator<Item = (u64, &[u64; 6])> {
        self.rows.iter().map(|(w, r)| (*w, r))
    }

    /// The CSV table behind `fig_attribution_heatmap.csv`: one row per
    /// window from the first to the last non-empty one (contiguous, so
    /// external plotters get a complete time axis), six µs columns in
    /// [`Segment::ALL`] order.
    pub fn to_csv(&self) -> CsvTable {
        let mut cols = vec!["window".to_owned(), "start_s".to_owned()];
        cols.extend(Segment::ALL.iter().map(|s| format!("{}_us", s.label())));
        let mut table = CsvTable::new(cols);
        let (Some(first), Some(last)) = (
            self.rows.keys().next().copied(),
            self.rows.keys().next_back().copied(),
        ) else {
            return table;
        };
        let width_s = self.window.as_secs_f64();
        for w in first..=last {
            let row = self.rows.get(&w).copied().unwrap_or([0; 6]);
            let mut cells = vec![w as f64, w as f64 * width_s];
            cells.extend(row.iter().map(|v| *v as f64));
            table.push_row(cells);
        }
        table
    }

    /// ASCII density grid: one row per window band (adjacent windows are
    /// merged so at most `max_rows` bands print), one column per
    /// segment, cell darkness proportional to the band's share of the
    /// heatmap's peak cell.
    pub fn render_ascii(&self, max_rows: usize) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "VLRT attribution heatmap ({} chains, {} ms windows)",
            self.chains,
            self.window.as_micros() / 1_000
        );
        if self.rows.is_empty() {
            out.push_str("  (no VLRT requests)\n");
            return out;
        }
        let first = *self.rows.keys().next().unwrap_or(&0);
        let last = *self.rows.keys().next_back().unwrap_or(&0);
        let span = last - first + 1;
        let per_band = span.div_ceil(max_rows.max(1) as u64);

        // Merge windows into bands.
        let mut bands: BTreeMap<u64, [u64; 6]> = BTreeMap::new();
        for (w, row) in &self.rows {
            let band = (w - first) / per_band;
            let acc = bands.entry(band).or_insert([0; 6]);
            for (a, v) in acc.iter_mut().zip(row) {
                *a = a.saturating_add(*v);
            }
        }
        let peak = bands
            .values()
            .flat_map(|r| r.iter())
            .copied()
            .max()
            .unwrap_or(1)
            .max(1);

        let _ = writeln!(
            out,
            "  {:>10}  {}  total_ms",
            "t(s)",
            Segment::ALL
                .iter()
                .map(|s| format!("{:>4}", &s.label()[..3.min(s.label().len())]))
                .collect::<Vec<_>>()
                .join("")
        );
        let width_us = self.window.as_micros();
        for (band, row) in &bands {
            let t0 = (first + band * per_band) * width_us;
            let mut cells = String::new();
            for v in row {
                // Linear ramp against the peak cell; any nonzero value
                // gets at least the lightest visible mark.
                let idx = if *v == 0 {
                    0
                } else {
                    let scaled = (*v * (RAMP.len() as u64 - 1)).div_ceil(peak);
                    scaled.clamp(1, RAMP.len() as u64 - 1) as usize
                };
                let _ = write!(cells, "   {}", RAMP[idx]);
            }
            let total: u64 = row.iter().sum();
            let _ = writeln!(
                out,
                "  {:>9.2}s {}  {:>8}",
                t0 as f64 / 1e6,
                cells,
                total / 1_000
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spans::{RequestTrace, SpanKind, StallKind};
    use mlb_simkernel::time::SimTime;

    fn window() -> SimDuration {
        SimDuration::from_millis(50)
    }

    #[test]
    fn add_folds_into_completion_windows() {
        let mut hm = AttributionHeatmap::new(window());
        hm.add(10_000, &[1, 2, 3, 4, 5, 6]);
        hm.add(49_999, &[10, 0, 0, 0, 0, 0]);
        hm.add(50_000, &[0, 0, 0, 0, 0, 7]);
        assert_eq!(hm.chains(), 3);
        let rows: Vec<(u64, [u64; 6])> = hm.rows().map(|(w, r)| (w, *r)).collect();
        assert_eq!(
            rows,
            vec![(0, [11, 2, 3, 4, 5, 6]), (1, [0, 0, 0, 0, 0, 7])]
        );
    }

    #[test]
    fn csv_is_contiguous_and_labeled() {
        let mut hm = AttributionHeatmap::new(window());
        hm.add(0, &[1, 0, 0, 0, 0, 0]);
        hm.add(150_000, &[0, 0, 0, 0, 0, 2]);
        let table = hm.to_csv();
        assert_eq!(table.headers()[0], "window");
        assert_eq!(
            table.headers()[2],
            format!("{}_us", Segment::ALL[0].label())
        );
        // Windows 0..=3 inclusive, even though 1 and 2 are empty.
        assert_eq!(table.row_count(), 4);
    }

    #[test]
    fn ascii_marks_nonzero_cells() {
        let mut hm = AttributionHeatmap::new(window());
        hm.add(0, &[1_000_000, 0, 0, 0, 0, 0]);
        let text = hm.render_ascii(40);
        assert!(text.contains('@'), "{text}");
        assert!(text.contains("1 chains"), "{text}");
    }

    #[test]
    fn from_trace_log_uses_vlrt_chains() {
        let mut log = TraceLog::new(16, 16);
        log.record_stall(
            "tomcat1".to_owned(),
            StallKind::Flush,
            SimTime::from_millis(0),
            SimTime::from_millis(200),
        );
        let mut tr = RequestTrace::new(1);
        let at = SimTime::from_millis;
        tr.push(
            at(0),
            SpanKind::Issued {
                client: 0,
                apache: 0,
            },
        );
        tr.push(at(1), SpanKind::Arrived { attempt: 1 });
        tr.push(at(2), SpanKind::Admitted);
        tr.push(at(3), SpanKind::RoutingStarted);
        tr.push(
            at(4),
            SpanKind::EndpointAcquired {
                backend: 0,
                lb_value: 1,
            },
        );
        tr.push(at(1_490), SpanKind::RepliedFrontend);
        tr.push(
            at(1_500),
            SpanKind::Completed {
                rt: SimDuration::from_millis(1_500),
            },
        );
        let segments = tr.segments_us();
        log.record_completed(
            at(0),
            at(1_500),
            segments,
            Some(tr),
            SimDuration::from_secs(1),
        );
        let hm = AttributionHeatmap::from_trace_log(&log, window());
        assert_eq!(hm.chains(), 1);
        // Completed at 1.5 s → window 30.
        assert_eq!(hm.rows().next().map(|(w, _)| w), Some(30));
    }
}
