//! The fixture corpus contract: every registered rule ships one
//! triggering and one clean snippet under `fixtures/<rule>/`, and each
//! behaves as labeled when linted under its rule's natural context.
//! Adding a rule without fixtures fails the meta-test; a rule whose
//! heuristic rots fails the trigger test.

use std::fs;
use std::path::{Path, PathBuf};

use mlb_simlint::lint_source;
use mlb_simlint::rules::RULES;
use mlb_simlint::workspace::FileRole;

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures")
}

/// The lint context each rule's fixtures are evaluated under:
/// (crate name, role, workspace-relative path, is-crate-root).
fn context(rule: &str) -> (&'static str, FileRole, &'static str, bool) {
    match rule {
        "no-wall-clock" | "no-system-io" | "no-hash-order" | "no-ambient-rng" => (
            "mlb-simkernel",
            FileRole::Lib,
            "crates/simkernel/src/fixture.rs",
            false,
        ),
        // The AST/dataflow families run in any sim crate's library code;
        // the match-exhaustive fixtures declare their own `QueueKind` so
        // the single-file symbol table knows the variant set. The shard
        // family shares the same natural habitat.
        "nondet-taint" | "time-unit" | "match-exhaustive" | "shard-cross-thread"
        | "shard-shared-state" => (
            "mlb-simkernel",
            FileRole::Lib,
            "crates/simkernel/src/fixture.rs",
            false,
        ),
        // panic-hygiene only binds the event-loop hot paths, so the
        // fixture borrows one of their paths.
        "panic-hygiene" => (
            "mlb-ntier",
            FileRole::Lib,
            "crates/ntier/src/system.rs",
            false,
        ),
        "crate-header" => (
            "mlb-simkernel",
            FileRole::Lib,
            "crates/simkernel/src/lib.rs",
            true,
        ),
        "span-attribution" => (
            "mlb-metrics",
            FileRole::Lib,
            "crates/metrics/src/fixture.rs",
            false,
        ),
        "bad-suppression" => (
            "mlb-ntier",
            FileRole::Lib,
            "crates/ntier/src/fixture.rs",
            false,
        ),
        // no-float-accum only binds the telemetry/metrics accumulation
        // paths, so the fixture borrows one of them.
        "no-float-accum" => (
            "mlb-metrics",
            FileRole::Lib,
            "crates/metrics/src/registry.rs",
            false,
        ),
        other => panic!(
            "rule `{other}` has no fixture context — register one here and add \
             fixtures/{other}/{{trigger,clean}}.rs"
        ),
    }
}

fn read(rule: &str, which: &str) -> String {
    let path = fixture_dir().join(rule).join(format!("{which}.rs"));
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("every rule needs {}: {e}", path.display()))
}

#[test]
fn every_rule_has_a_triggering_and_a_clean_fixture() {
    for rule in RULES {
        let dir = fixture_dir().join(rule.name);
        assert!(
            dir.join("trigger.rs").is_file(),
            "rule `{}` lacks fixtures/{}/trigger.rs",
            rule.name,
            rule.name
        );
        assert!(
            dir.join("clean.rs").is_file(),
            "rule `{}` lacks fixtures/{}/clean.rs",
            rule.name,
            rule.name
        );
    }
}

#[test]
fn trigger_fixtures_trigger_their_rule() {
    for rule in RULES {
        let (krate, role, rel, root) = context(rule.name);
        let findings = lint_source(&read(rule.name, "trigger"), krate, role, rel, root);
        assert!(
            findings.iter().any(|f| f.rule == rule.name),
            "fixtures/{}/trigger.rs did not trigger `{}`; findings: {findings:?}",
            rule.name,
            rule.name
        );
    }
}

#[test]
fn clean_fixtures_are_clean() {
    for rule in RULES {
        let (krate, role, rel, root) = context(rule.name);
        let findings = lint_source(&read(rule.name, "clean"), krate, role, rel, root);
        assert!(
            findings.is_empty(),
            "fixtures/{}/clean.rs has findings: {findings:?}",
            rule.name
        );
    }
}

/// Fixtures beyond the mandatory `{trigger,clean}.rs` pair, with the
/// *exact* number of findings of the owning rule each must produce.
/// Exactness matters for the interprocedural ones: a finding per hop
/// (instead of one at the sink) would drown real reports in echoes.
const EXTRA_FIXTURES: [(&str, &str, usize); 6] = [
    ("nondet-taint", "two_hop_trigger", 1),
    ("nondet-taint", "two_hop_clean", 0),
    // Declared units propagate through function RETURN values.
    ("time-unit", "return_unit_trigger", 1),
    ("time-unit", "return_unit_clean", 0),
    // A written static is caught where it is declared: safe code can
    // only write one through interior mutability (here an atomic).
    ("shard-shared-state", "static_write_trigger", 1),
    ("shard-shared-state", "static_write_clean", 0),
];

/// Trigger fixtures that must produce *exactly one* finding overall —
/// the violation under test and no collateral noise.
const EXACTLY_ONE: [&str; 1] = ["shard-cross-thread"];

#[test]
fn extra_fixtures_produce_exact_finding_counts() {
    for (rule, stem, expected) in EXTRA_FIXTURES {
        let (krate, role, rel, root) = context(rule);
        let findings = lint_source(&read(rule, stem), krate, role, rel, root);
        let hits = findings.iter().filter(|f| f.rule == rule).count();
        assert_eq!(
            hits, expected,
            "fixtures/{rule}/{stem}.rs: want exactly {expected} `{rule}` finding(s), got {findings:?}"
        );
        assert_eq!(
            findings.len(),
            expected,
            "fixtures/{rule}/{stem}.rs must not raise other rules: {findings:?}"
        );
    }
}

#[test]
fn single_violation_triggers_stay_single() {
    for rule in EXACTLY_ONE {
        let (krate, role, rel, root) = context(rule);
        let findings = lint_source(&read(rule, "trigger"), krate, role, rel, root);
        assert_eq!(
            findings.len(),
            1,
            "fixtures/{rule}/trigger.rs must produce exactly one finding: {findings:?}"
        );
        assert_eq!(findings[0].rule, rule, "{findings:?}");
    }
}

/// Every `.rs` file under `fixtures/` must be referenced by a test —
/// either a rule's `{trigger,clean}.rs` pair or an `EXTRA_FIXTURES`
/// row. An orphaned fixture is dead weight that silently stops
/// asserting anything.
#[test]
fn every_fixture_file_is_referenced() {
    for dir in fs::read_dir(fixture_dir()).expect("fixtures dir") {
        let dir = dir.unwrap();
        let rule = dir.file_name().into_string().unwrap();
        assert!(
            RULES.iter().any(|r| r.name == rule),
            "fixtures/{rule}/ does not match any registered rule"
        );
        for file in fs::read_dir(dir.path()).unwrap() {
            let name = file.unwrap().file_name().into_string().unwrap();
            let stem = name.strip_suffix(".rs").unwrap_or_else(|| {
                panic!("fixtures/{rule}/{name} is not a .rs file");
            });
            let referenced = stem == "trigger"
                || stem == "clean"
                || EXTRA_FIXTURES
                    .iter()
                    .any(|(r, s, _)| *r == rule && *s == stem);
            assert!(
                referenced,
                "fixtures/{rule}/{name} is not referenced by any fixture test; \
                 add it to EXTRA_FIXTURES or delete it"
            );
        }
    }
}
