//! The figure/table harness end to end at tiny scale: every artifact
//! builds, renders non-trivially, and produces well-formed CSV.

use mlb_bench::{all_artifacts, build, required_runs, RunCache, RunKey};

/// One shared tiny run cache for the whole test binary (building it is the
/// expensive part).
fn cache() -> &'static RunCache {
    use std::sync::OnceLock;
    static CACHE: OnceLock<RunCache> = OnceLock::new();
    CACHE.get_or_init(|| RunCache::execute(&RunKey::all(), 20, false))
}

#[test]
fn every_artifact_builds_and_renders() {
    let cache = cache();
    for id in all_artifacts() {
        let fig = build(id, cache);
        assert_eq!(fig.id, id);
        assert!(!fig.title.is_empty());
        assert!(
            fig.text.len() > 200,
            "{id} rendered suspiciously little text ({} bytes)",
            fig.text.len()
        );
        assert!(
            fig.text.contains("Shape check vs paper") || id == "table1",
            "{id} is missing its shape check"
        );
        assert!(!fig.csvs.is_empty(), "{id} produced no CSV");
        for (stem, csv) in &fig.csvs {
            assert!(!stem.is_empty());
            assert!(csv.row_count() > 0, "{id}/{stem} CSV is empty");
            let text = csv.to_csv_string();
            let header_cols = text.lines().next().unwrap().split(',').count();
            for line in text.lines().skip(1) {
                assert_eq!(
                    line.split(',').count(),
                    header_cols,
                    "{id}/{stem} has a ragged CSV row"
                );
            }
        }
    }
}

#[test]
fn required_runs_cover_every_artifact() {
    for id in all_artifacts() {
        let runs = required_runs(id);
        assert!(!runs.is_empty(), "{id} requires no runs?");
    }
}

#[test]
fn table1_needs_exactly_the_six_comparison_runs() {
    let runs = required_runs("table1");
    assert_eq!(runs.len(), 6);
    assert!(!runs.contains(&RunKey::BaselineNoMb));
    assert!(!runs.contains(&RunKey::OneByOne));
}

#[test]
fn table1_text_contains_all_six_labels() {
    let fig = build("table1", cache());
    for label in [
        "Original total_request",
        "Original total_traffic",
        "Original current_load",
        "total_request with modified get_endpoint",
        "total_traffic with modified get_endpoint",
        "current_load with modified get_endpoint",
    ] {
        assert!(fig.text.contains(label), "table1 is missing row {label}");
    }
}

#[test]
fn table1_shape_holds_even_at_tiny_scale() {
    let cache = cache();
    let avg = |k: RunKey| cache.get(k).telemetry.response.avg_ms();
    assert!(
        avg(RunKey::CurrentLoad) < avg(RunKey::TotalRequest),
        "current_load must beat total_request even in a 20 s run"
    );
    assert!(
        avg(RunKey::TotalRequestFixed) < avg(RunKey::TotalRequest),
        "the mechanism remedy must beat the original even in a 20 s run"
    );
}

#[test]
#[should_panic(expected = "unknown artifact id")]
fn unknown_artifact_panics() {
    let _ = required_runs("fig99");
}
