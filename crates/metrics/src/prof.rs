//! `prof.*` — exporting kernel self-profiles through the registry.
//!
//! The kernel's [`KernelProfile`] is plain integers; this module gives it
//! the same export surface as every other measurement in the workspace:
//! stable metric names, JSONL through [`crate::registry::JsonlSink`], an
//! ASCII rendering, and a digest. One wrinkle is determinism: the
//! `.count` metrics are pure functions of the event stream, while the
//! `.wall_ns` metrics are host timing and differ run to run — so
//! [`deterministic_digest`] hashes only the lines whose metric name does
//! not end in `.wall_ns`, and golden tests pin that digest across
//! repeats.

use mlb_simkernel::prof::{KernelProfile, Phase};
use mlb_simkernel::time::{SimDuration, SimTime};

use crate::ascii::{Align, Table};
use crate::registry::{fnv1a, JsonlSink, Registry};

/// Suffix marking host-timing metrics excluded from deterministic
/// digests.
pub const WALL_NS_SUFFIX: &str = ".wall_ns";

/// Flattens a kernel profile into ordered `(metric name, value)` pairs:
/// `prof.phase.*`, `prof.kind.*`, then `prof.wheel.*` (when the run used
/// the wheel backend), with the per-level cascade split as
/// `prof.wheel.cascade_entries.l1` … `.l5` (level 0 never cascades).
/// Order is stable so exports are byte-stable.
pub fn kernel_pairs(profile: &KernelProfile) -> Vec<(String, u64)> {
    let mut pairs = Vec::new();
    for phase in Phase::ALL {
        let label = phase.label();
        pairs.push((
            format!("prof.phase.{label}.count"),
            profile.phase_count(phase),
        ));
        pairs.push((
            format!("prof.phase.{label}{WALL_NS_SUFFIX}"),
            profile.phase_ns(phase),
        ));
    }
    for (i, name) in profile.kind_names.iter().enumerate() {
        pairs.push((format!("prof.kind.{name}.count"), profile.kind_counts[i]));
        pairs.push((
            format!("prof.kind.{name}{WALL_NS_SUFFIX}"),
            profile.kind_wall_ns[i],
        ));
    }
    if let Some(w) = profile.wheel {
        for (name, value) in [
            ("cascades", w.cascades),
            ("cascade_entries", w.cascade_entries),
            ("level0_jumps", w.level0_jumps),
            ("level_jumps", w.level_jumps),
            ("overflow_pushes", w.overflow_pushes),
            ("overflow_rebases", w.overflow_rebases),
            ("cursor_appends", w.cursor_appends),
            ("cursor_sorted_inserts", w.cursor_sorted_inserts),
            ("max_bucket_len", w.max_bucket_len),
            ("chunk_allocs", w.chunk_allocs),
            ("chunk_reuses", w.chunk_reuses),
            ("node_peak_live", w.node_peak_live),
        ] {
            pairs.push((format!("prof.wheel.{name}"), value));
        }
        for (level, &value) in w.cascade_entries_by_level.iter().enumerate().skip(1) {
            pairs.push((format!("prof.wheel.cascade_entries.l{level}"), value));
        }
    }
    pairs
}

/// Exports name/value pairs as registry JSONL: each pair becomes one
/// counter recorded at `SimTime::ZERO`, so the output reuses the exact
/// line format (and hand-rolled JSON) of every other registry export.
pub fn pairs_to_jsonl(pairs: &[(String, u64)]) -> String {
    let mut reg = Registry::new(SimDuration::from_millis(50));
    let ids: Vec<_> = pairs
        .iter()
        .map(|(name, _)| reg.register_counter(name))
        .collect();
    for (id, (_, value)) in ids.into_iter().zip(pairs) {
        reg.incr(id, SimTime::ZERO, *value);
    }
    reg.finish();
    let mut sink = JsonlSink::new();
    reg.drain_into(&mut sink);
    sink.into_string()
}

/// FNV-1a digest of a profile export, skipping every line whose metric
/// name carries [`WALL_NS_SUFFIX`] — the digest of what *must* be
/// deterministic for a fixed seed.
pub fn deterministic_digest(jsonl: &str) -> u64 {
    let mut kept = String::new();
    for line in jsonl.lines() {
        if !line.contains(WALL_NS_SUFFIX) {
            kept.push_str(line);
            kept.push('\n');
        }
    }
    fnv1a(kept.as_bytes())
}

/// Renders pairs as an aligned two-column ASCII block under `title`.
pub fn render_pairs(title: &str, pairs: &[(String, u64)]) -> String {
    let name_w = pairs.iter().map(|(n, _)| n.len()).max().unwrap_or(6);
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    let mut table = Table::new("  ", "  ", vec![(Align::Left, name_w), (Align::Right, 14)]);
    for (name, value) in pairs {
        table.row(&[name.clone(), value.to_string()]);
    }
    out.push_str(table.as_str());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlb_simkernel::queue::WheelStats;

    fn sample_profile(wall: u64) -> KernelProfile {
        KernelProfile {
            kind_names: &["tick", "tock"],
            kind_counts: vec![3, 4],
            kind_wall_ns: vec![wall, wall * 2],
            phase_counts: [7, 7, 5],
            phase_wall_ns: [wall, wall, wall],
            wheel: Some(WheelStats {
                cascades: 2,
                cascade_entries: 10,
                cascade_entries_by_level: [0, 7, 3, 0, 0, 0],
                level0_jumps: 5,
                level_jumps: 1,
                overflow_rebases: 0,
                overflow_pushes: 0,
                cursor_appends: 9,
                cursor_sorted_inserts: 1,
                max_bucket_len: 4,
                chunk_allocs: 2,
                chunk_reuses: 6,
                node_peak_live: 4,
            }),
        }
    }

    #[test]
    fn pairs_cover_phases_kinds_and_wheel_in_stable_order() {
        let pairs = kernel_pairs(&sample_profile(100));
        let names: Vec<&str> = pairs.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names[0], "prof.phase.drain.count");
        assert_eq!(names[1], "prof.phase.drain.wall_ns");
        assert!(names.contains(&"prof.kind.tick.count"));
        assert!(names.contains(&"prof.wheel.cascades"));
        // 3 phases × 2 + 2 kinds × 2 + 12 wheel counters + 5 levels.
        assert_eq!(pairs.len(), 6 + 4 + 12 + 5);
        let get = |name: &str| pairs.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
        assert_eq!(get("prof.wheel.cascade_entries.l1"), Some(7));
        assert_eq!(get("prof.wheel.cascade_entries.l2"), Some(3));
        assert_eq!(get("prof.wheel.cascade_entries.l5"), Some(0));
        assert_eq!(get("prof.wheel.cascade_entries.l0"), None);
    }

    #[test]
    fn jsonl_reuses_the_registry_line_format() {
        let jsonl = pairs_to_jsonl(&kernel_pairs(&sample_profile(100)));
        let first = jsonl.lines().next().unwrap();
        assert!(first.starts_with("{\"window\":0,\"start_us\":0,"));
        assert!(first.contains("\"metric\":\"prof.phase.drain.count\""));
        assert!(first.contains("\"sum\":7"));
    }

    #[test]
    fn digest_ignores_wall_ns_but_not_counts() {
        let a = pairs_to_jsonl(&kernel_pairs(&sample_profile(100)));
        let b = pairs_to_jsonl(&kernel_pairs(&sample_profile(999)));
        assert_ne!(a, b, "wall-ns differences must show in the raw export");
        assert_eq!(
            deterministic_digest(&a),
            deterministic_digest(&b),
            "wall-ns differences must not move the deterministic digest"
        );
        let mut counts_changed = sample_profile(100);
        counts_changed.kind_counts[0] += 1;
        let c = pairs_to_jsonl(&kernel_pairs(&counts_changed));
        assert_ne!(
            deterministic_digest(&a),
            deterministic_digest(&c),
            "count differences must move the digest"
        );
    }

    #[test]
    fn render_is_aligned_and_complete() {
        let pairs = kernel_pairs(&sample_profile(100));
        let out = render_pairs("kernel profile", &pairs);
        assert!(out.starts_with("kernel profile\n"));
        assert!(out.contains("prof.wheel.max_bucket_len"));
        assert_eq!(out.lines().count(), 1 + pairs.len());
    }

    #[test]
    fn heap_runs_export_no_wheel_metrics() {
        let mut p = sample_profile(100);
        p.wheel = None;
        let pairs = kernel_pairs(&p);
        assert!(pairs.iter().all(|(n, _)| !n.starts_with("prof.wheel.")));
    }
}
