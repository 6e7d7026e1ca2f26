//! Property tests: counting laws of the measurement substrate.

use mlb_metrics::histogram::ResponseTimeHistogram;
use mlb_metrics::series::{WindowedCounter, WindowedSeries};
use mlb_metrics::summary::ResponseStats;
use mlb_simkernel::time::{SimDuration, SimTime};
use proptest::prelude::*;

proptest! {
    /// A histogram's buckets always sum to its count, and below/above any
    /// edge partition the samples.
    #[test]
    fn histogram_partitions_samples(
        samples_ms in proptest::collection::vec(0u64..20_000, 1..300),
    ) {
        let mut h = ResponseTimeHistogram::paper_buckets();
        for &ms in &samples_ms {
            h.record(SimDuration::from_millis(ms));
        }
        prop_assert_eq!(h.buckets().iter().sum::<u64>(), samples_ms.len() as u64);
        for &edge in h.edges() {
            prop_assert_eq!(
                h.count_below(edge) + h.count_at_or_above(edge),
                h.count()
            );
        }
        // Exact mean check against a direct computation.
        let exact = samples_ms.iter().map(|&v| v * 1_000).sum::<u64>() / samples_ms.len() as u64;
        prop_assert_eq!(h.mean().unwrap().as_micros(), exact);
    }

    /// count_at_or_above at an edge is exactly the number of samples >=
    /// that edge.
    #[test]
    fn histogram_edge_counts_are_exact(
        samples_ms in proptest::collection::vec(0u64..10_000, 1..200),
        edge_idx in 0usize..20,
    ) {
        let mut h = ResponseTimeHistogram::paper_buckets();
        for &ms in &samples_ms {
            h.record(SimDuration::from_millis(ms));
        }
        let edge = h.edges()[edge_idx.min(h.edges().len() - 1)];
        let expected = samples_ms
            .iter()
            .filter(|&&ms| SimDuration::from_millis(ms) >= edge)
            .count() as u64;
        prop_assert_eq!(h.count_at_or_above(edge), expected);
    }

    /// Merging histograms equals recording the concatenation.
    #[test]
    fn histogram_merge_is_concat(
        a_ms in proptest::collection::vec(0u64..5_000, 0..100),
        b_ms in proptest::collection::vec(0u64..5_000, 0..100),
    ) {
        let mut ha = ResponseTimeHistogram::paper_buckets();
        let mut hb = ResponseTimeHistogram::paper_buckets();
        let mut hc = ResponseTimeHistogram::paper_buckets();
        for &ms in &a_ms {
            ha.record(SimDuration::from_millis(ms));
            hc.record(SimDuration::from_millis(ms));
        }
        for &ms in &b_ms {
            hb.record(SimDuration::from_millis(ms));
            hc.record(SimDuration::from_millis(ms));
        }
        ha.merge(&hb);
        prop_assert_eq!(ha.buckets(), hc.buckets());
        prop_assert_eq!(ha.count(), hc.count());
        prop_assert_eq!(ha.max(), hc.max());
    }

    /// Quantiles are monotone in q.
    #[test]
    fn histogram_quantiles_are_monotone(
        samples_ms in proptest::collection::vec(0u64..20_000, 1..200),
    ) {
        let mut h = ResponseTimeHistogram::paper_buckets();
        for &ms in &samples_ms {
            h.record(SimDuration::from_millis(ms));
        }
        let qs = [0.0, 0.25, 0.5, 0.9, 0.99, 1.0];
        for w in qs.windows(2) {
            prop_assert!(h.quantile(w[0]).unwrap() <= h.quantile(w[1]).unwrap());
        }
    }

    /// Windowed counter totals equal the sum of its windows, and every
    /// event lands in the window that contains its timestamp.
    #[test]
    fn counter_total_is_sum_of_windows(
        events_ms in proptest::collection::vec(0u64..5_000, 0..300),
    ) {
        let mut c = WindowedCounter::new(SimDuration::from_millis(50));
        for &ms in &events_ms {
            c.incr(SimTime::from_millis(ms));
        }
        prop_assert_eq!(c.counts().iter().sum::<u64>(), events_ms.len() as u64);
        prop_assert_eq!(c.total(), events_ms.len() as u64);
        for &ms in &events_ms {
            prop_assert!(c.counts()[c.index_of(SimTime::from_millis(ms))] > 0);
        }
    }

    /// WindowedSeries per-window count/sum agree with a direct grouping.
    #[test]
    fn series_aggregates_match_reference(
        samples in proptest::collection::vec((0u64..2_000, -100i32..100), 1..200),
    ) {
        let window = SimDuration::from_millis(50);
        let mut s = WindowedSeries::new(window);
        let mut sums: std::collections::HashMap<usize, (u64, f64)> = std::collections::HashMap::new();
        for &(ms, v) in &samples {
            s.record(SimTime::from_millis(ms), f64::from(v));
            let idx = (ms * 1_000 / window.as_micros()) as usize;
            let e = sums.entry(idx).or_insert((0, 0.0));
            e.0 += 1;
            e.1 += f64::from(v);
        }
        for (idx, (count, sum)) in sums {
            let w = &s.windows()[idx];
            prop_assert_eq!(w.count, count);
            prop_assert!((w.sum - sum).abs() < 1e-9);
        }
        prop_assert_eq!(s.sample_count(), samples.len() as u64);
    }

    /// ResponseStats percentages always lie in [0, 100] and are consistent
    /// with its counters.
    #[test]
    fn response_stats_percentages_consistent(
        samples_ms in proptest::collection::vec(0u64..5_000, 1..300),
    ) {
        let mut st = ResponseStats::new();
        for &ms in &samples_ms {
            st.record(SimDuration::from_millis(ms));
        }
        prop_assert_eq!(st.total(), samples_ms.len() as u64);
        prop_assert!((0.0..=100.0).contains(&st.pct_vlrt()));
        prop_assert!((0.0..=100.0).contains(&st.pct_normal()));
        let vlrt = samples_ms.iter().filter(|&&ms| ms > 1_000).count() as u64;
        let normal = samples_ms.iter().filter(|&&ms| ms < 10).count() as u64;
        prop_assert_eq!(st.vlrt_count(), vlrt);
        prop_assert_eq!(st.normal_count(), normal);
    }

    /// Merging stats equals recording the concatenation.
    #[test]
    fn response_stats_merge_is_concat(
        a_ms in proptest::collection::vec(0u64..3_000, 0..100),
        b_ms in proptest::collection::vec(0u64..3_000, 0..100),
    ) {
        let mut sa = ResponseStats::new();
        let mut sb = ResponseStats::new();
        let mut sc = ResponseStats::new();
        for &ms in &a_ms {
            sa.record(SimDuration::from_millis(ms));
            sc.record(SimDuration::from_millis(ms));
        }
        for &ms in &b_ms {
            sb.record(SimDuration::from_millis(ms));
            sc.record(SimDuration::from_millis(ms));
        }
        sa.merge(&sb);
        prop_assert_eq!(sa.total(), sc.total());
        prop_assert_eq!(sa.vlrt_count(), sc.vlrt_count());
        prop_assert_eq!(sa.normal_count(), sc.normal_count());
        prop_assert!((sa.avg_ms() - sc.avg_ms()).abs() < 1e-9);
    }
}
