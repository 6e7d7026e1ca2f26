//! Fixed-window time series.
//!
//! The paper's figures are all built from 50 ms-granularity series: VLRT
//! counts per window (Fig. 2a/6a/7a), queue lengths (Fig. 2b/8/10a/12),
//! fine-grained CPU utilization (Fig. 2c/6b), dirty-page size (Fig. 2e),
//! per-backend workload distribution (Fig. 6c/9b/13b) and lb_values
//! (Fig. 10b/11b). Two container types cover them:
//!
//! * [`WindowedCounter`] — integer event counts per window;
//! * [`WindowedSeries`] — float samples per window with sum/count/max/min.

use mlb_simkernel::time::{SimDuration, SimTime};

/// Integer event counts bucketed by fixed time windows.
///
/// # Examples
///
/// ```
/// use mlb_metrics::series::WindowedCounter;
/// use mlb_simkernel::time::{SimDuration, SimTime};
///
/// let mut c = WindowedCounter::new(SimDuration::from_millis(50));
/// c.incr(SimTime::from_millis(10));   // window 0
/// c.incr(SimTime::from_millis(49));   // window 0
/// c.incr(SimTime::from_millis(50));   // window 1
/// assert_eq!(c.counts(), &[2, 1]);
/// assert_eq!(c.total(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct WindowedCounter {
    window: SimDuration,
    counts: Vec<u64>,
    total: u64,
}

impl WindowedCounter {
    /// Creates a counter with the given window width.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: SimDuration) -> Self {
        assert!(!window.is_zero(), "window width must be positive");
        WindowedCounter {
            window,
            counts: Vec::new(),
            total: 0,
        }
    }

    /// Window width.
    pub fn window(&self) -> SimDuration {
        self.window
    }

    /// Adds one event at `t`.
    pub fn incr(&mut self, t: SimTime) {
        self.add(t, 1);
    }

    /// Adds `n` events at `t`.
    pub fn add(&mut self, t: SimTime, n: u64) {
        let idx = self.index_of(t);
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += n;
        self.total += n;
    }

    /// Window index containing `t`.
    pub fn index_of(&self, t: SimTime) -> usize {
        (t.as_micros() / self.window.as_micros()) as usize
    }

    /// Counts per window, from window 0 to the last touched window.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total events across all windows.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Counts as `f64` (handy for charting).
    pub fn to_f64(&self) -> Vec<f64> {
        self.counts.iter().map(|&c| c as f64).collect()
    }
}

/// Per-window aggregate of one float bucket.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowAggregate {
    /// Number of samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: f64,
    /// Largest sample.
    pub max: f64,
    /// Smallest sample.
    pub min: f64,
}

impl WindowAggregate {
    const EMPTY: WindowAggregate = WindowAggregate {
        count: 0,
        sum: 0.0,
        max: f64::NEG_INFINITY,
        min: f64::INFINITY,
    };

    /// Mean of the samples in this window, or `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }
}

/// Float samples bucketed by fixed time windows, keeping sum/count/max/min
/// per window.
///
/// # Examples
///
/// ```
/// use mlb_metrics::series::WindowedSeries;
/// use mlb_simkernel::time::{SimDuration, SimTime};
///
/// let mut s = WindowedSeries::new(SimDuration::from_millis(50));
/// s.record(SimTime::from_millis(10), 3.0);
/// s.record(SimTime::from_millis(20), 5.0);
/// let w = s.window_at(SimTime::from_millis(40)).unwrap();
/// assert_eq!(w.count, 2);
/// assert_eq!(w.mean(), Some(4.0));
/// assert_eq!(w.max, 5.0);
/// ```
#[derive(Debug, Clone)]
pub struct WindowedSeries {
    window: SimDuration,
    buckets: Vec<WindowAggregate>,
}

impl WindowedSeries {
    /// Creates a series with the given window width.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: SimDuration) -> Self {
        assert!(!window.is_zero(), "window width must be positive");
        WindowedSeries {
            window,
            buckets: Vec::new(),
        }
    }

    /// Window width.
    pub fn window(&self) -> SimDuration {
        self.window
    }

    /// Records a sample at `t`.
    pub fn record(&mut self, t: SimTime, value: f64) {
        let idx = (t.as_micros() / self.window.as_micros()) as usize;
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, WindowAggregate::EMPTY);
        }
        let b = &mut self.buckets[idx];
        b.count += 1;
        // simlint::allow(no-float-accum): deterministic arrival-order fold within one window; digests hash derived counters, not this field
        b.sum += value;
        b.max = b.max.max(value);
        b.min = b.min.min(value);
    }

    /// Aggregate of the window containing `t` (if any sample landed there).
    pub fn window_at(&self, t: SimTime) -> Option<&WindowAggregate> {
        let idx = (t.as_micros() / self.window.as_micros()) as usize;
        self.buckets.get(idx).filter(|b| b.count > 0)
    }

    /// All window aggregates from window 0 to the last touched one.
    pub fn windows(&self) -> &[WindowAggregate] {
        &self.buckets
    }

    /// Per-window means; empty windows yield `fill`.
    pub fn means(&self, fill: f64) -> Vec<f64> {
        self.buckets
            .iter()
            .map(|b| b.mean().unwrap_or(fill))
            .collect()
    }

    /// Per-window maxima; empty windows yield `fill`.
    pub fn maxima(&self, fill: f64) -> Vec<f64> {
        self.buckets
            .iter()
            .map(|b| if b.count > 0 { b.max } else { fill })
            .collect()
    }

    /// Total samples recorded.
    pub fn sample_count(&self) -> u64 {
        self.buckets.iter().map(|b| b.count).sum()
    }

    /// Global maximum across every window, if any sample exists.
    pub fn global_max(&self) -> Option<f64> {
        self.buckets
            .iter()
            .filter(|b| b.count > 0)
            .map(|b| b.max)
            .fold(None, |acc, v| Some(acc.map_or(v, |a: f64| a.max(v))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn counter_buckets_by_window() {
        let mut c = WindowedCounter::new(SimDuration::from_millis(100));
        c.incr(t(0));
        c.incr(t(99));
        c.incr(t(100));
        c.incr(t(250));
        assert_eq!(c.counts(), &[2, 1, 1]);
    }

    #[test]
    fn counter_add_n() {
        let mut c = WindowedCounter::new(SimDuration::from_millis(50));
        c.add(t(10), 5);
        c.add(t(49), 2);
        assert_eq!(c.counts(), &[7]);
        assert_eq!(c.total(), 7);
    }

    #[test]
    fn counter_peak_and_total() {
        let mut c = WindowedCounter::new(SimDuration::from_millis(10));
        c.add(t(0), 3);
        c.add(t(15), 7);
        c.add(t(25), 2);
        assert_eq!(c.counts().iter().max(), Some(&7));
        assert_eq!(c.total(), 12);
        assert_eq!(c.to_f64(), vec![3.0, 7.0, 2.0]);
    }

    #[test]
    fn counter_window_start_roundtrip() {
        // Every instant of window 2, from its start to its last µs, maps
        // back to index 2.
        let c = WindowedCounter::new(SimDuration::from_millis(50));
        assert_eq!(c.index_of(t(100)), 2);
        assert_eq!(c.index_of(t(125)), 2);
        assert_eq!(c.index_of(SimTime::from_micros(149_999)), 2);
        assert_eq!(c.index_of(t(150)), 3);
    }

    #[test]
    fn series_aggregates() {
        let mut s = WindowedSeries::new(SimDuration::from_millis(10));
        s.record(t(1), 2.0);
        s.record(t(2), 4.0);
        s.record(t(3), -1.0);
        let w = s.window_at(t(5)).unwrap();
        assert_eq!(w.count, 3);
        assert_eq!(w.sum, 5.0);
        assert_eq!(w.max, 4.0);
        assert_eq!(w.min, -1.0);
        assert!((w.mean().unwrap() - 5.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn series_empty_windows_filled() {
        let mut s = WindowedSeries::new(SimDuration::from_millis(10));
        s.record(t(0), 1.0);
        s.record(t(25), 3.0);
        assert_eq!(s.means(0.0), vec![1.0, 0.0, 3.0]);
        assert_eq!(s.maxima(-1.0), vec![1.0, -1.0, 3.0]);
    }

    #[test]
    fn series_global_max() {
        let mut s = WindowedSeries::new(SimDuration::from_millis(50));
        assert_eq!(s.global_max(), None);
        s.record(t(1), 1.5);
        s.record(t(500), 9.5);
        assert_eq!(s.global_max(), Some(9.5));
        assert_eq!(s.sample_count(), 2);
    }

    #[test]
    fn window_at_empty_is_none() {
        let s = WindowedSeries::new(SimDuration::from_millis(50));
        assert!(s.window_at(t(0)).is_none());
    }

    #[test]
    #[should_panic(expected = "width must be positive")]
    fn zero_window_counter_panics() {
        WindowedCounter::new(SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "width must be positive")]
    fn zero_window_series_panics() {
        WindowedSeries::new(SimDuration::ZERO);
    }
}
