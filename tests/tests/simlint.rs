//! Tier-1 determinism-hygiene gate: the whole workspace must lint clean
//! under `mlb-simlint`. This is the same scan CI runs via
//! `cargo run -p mlb-simlint -- --workspace --json`; keeping it in the
//! tier-1 suite means a plain `cargo test` refuses wall-clock reads,
//! hash-order iteration, ambient RNG, unjustified hot-path panics,
//! missing `#![forbid(unsafe_code)]` headers, and unattributed
//! `SpanKind` variants before they can perturb the paper's numbers.

use std::path::Path;

#[test]
fn workspace_is_simlint_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("tests crate sits directly under the workspace root");
    let report = mlb_simlint::lint_workspace(root).expect("workspace discovery");
    assert!(
        report.is_clean(),
        "the workspace has simlint findings — fix them or add a justified \
         `// simlint::allow(<rule>): <why>` suppression:\n{}",
        report.render_human()
    );
    // The scan must actually be scanning: a discovery regression that
    // silently skips crates would pass `is_clean` vacuously.
    assert!(
        report.files_scanned.len() >= 40,
        "suspiciously few files scanned ({}); workspace discovery regressed?",
        report.files_scanned.len()
    );
    // Symbols whose same-named definitions have conflicting arities are
    // dropped from the interprocedural summaries, so taint through
    // them goes unseen. The count may only fall.
    assert!(
        report.dropped_symbols <= 16,
        "simlint now drops {} symbols with conflicting arities (ceiling 16): \
         rename the new same-named function or resolve the conflict, \
         rather than raising the ceiling",
        report.dropped_symbols
    );
}

/// The tier-1 gate must stay cheap enough to run on every `cargo test`:
/// a full workspace scan (lex → parse → symbols → dataflow → rules on
/// ~100 files) has a hard 5-second budget. Blowing it means a rule or
/// the parser went accidentally super-linear, which would push the lint
/// out of the inner dev loop.
#[test]
fn workspace_scan_fits_the_runtime_budget() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("tests crate sits directly under the workspace root");
    let started = std::time::Instant::now();
    let report = mlb_simlint::lint_workspace(root).expect("workspace discovery");
    let elapsed = started.elapsed();
    assert!(report.files_scanned.len() >= 40);
    assert!(
        elapsed < std::time::Duration::from_secs(5),
        "simlint workspace scan took {elapsed:?}; the tier-1 budget is 5s"
    );
}
