//! Regression home for the dropped-symbols accounting: a planted
//! same-name/different-arity pair must be counted and surfaced in both
//! report renderings instead of silently vanishing.

use std::fs;
use std::path::PathBuf;

use mlb_simlint::{lint_workspace, lint_workspace_full};

/// Builds a one-crate workspace whose lib defines `poll` twice with
/// different arities — the interprocedural layers cannot key such a
/// name, so both definitions are excluded from summaries.
fn scaffold_conflict() -> PathBuf {
    let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("dropped-syms");
    if root.exists() {
        fs::remove_dir_all(&root).unwrap();
    }
    fs::create_dir_all(root.join("crates/sim/src")).unwrap();
    fs::write(
        root.join("Cargo.toml"),
        "[workspace]\nmembers = [\"crates/sim\"]\n",
    )
    .unwrap();
    fs::write(
        root.join("crates/sim/Cargo.toml"),
        "[package]\nname = \"mlb-simkernel\"\nversion = \"0.1.0\"\n",
    )
    .unwrap();
    fs::write(
        root.join("crates/sim/src/lib.rs"),
        "#![forbid(unsafe_code)]\n//! Scaffold crate with a planted arity conflict.\n\n\
         pub mod a {\n    pub fn poll(now_us: u64) -> u64 {\n        now_us\n    }\n}\n\n\
         pub mod b {\n    pub fn poll(now_us: u64, budget: u64) -> u64 {\n        now_us + budget\n    }\n}\n",
    )
    .unwrap();
    root
}

#[test]
fn conflicting_arity_symbols_are_counted_not_silently_dropped() {
    let root = scaffold_conflict();

    let (report, _) = lint_workspace_full(&root).unwrap();
    assert!(
        report.dropped_symbols >= 1,
        "planted arity conflict was not counted: {}",
        report.dropped_symbols
    );

    // Both renderings surface the count: JSON unconditionally (so a
    // dashboard can trend it), human only when non-zero.
    let json = report.render_json();
    assert!(
        json.contains(&format!("\"dropped_symbols\": {},", report.dropped_symbols)),
        "JSON lost the count: {json}"
    );
    let human = report.render_human();
    assert!(
        human.contains("excluded from interprocedural summaries"),
        "human rendering lost the note: {human}"
    );

    // Sanity: the conflict itself is not a finding — the exclusion is
    // an analysis-coverage fact, not a lint violation.
    assert!(lint_workspace(&root).unwrap().is_clean());

    fs::remove_dir_all(&root).unwrap();
}
