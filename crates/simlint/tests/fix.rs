//! End-to-end `--fix` semantics against a real workspace on disk: stale
//! suppressions are findings (the lint run fails), one fix pass repairs
//! everything mechanical, the re-lint comes back clean, and a second
//! pass is a no-op. This pins the CLI exit-code contract the fix mode
//! rides on.

use std::fs;
use std::path::PathBuf;

use mlb_simlint::fix::apply_fixes;
use mlb_simlint::{lint_workspace, lint_workspace_full};

/// Builds a one-crate workspace whose lib.rs has a missing
/// `#![forbid(unsafe_code)]` header and one stale suppression.
fn scaffold(tag: &str) -> PathBuf {
    let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("fixws-{tag}"));
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
        "//! Scaffold crate.\n\n\
         // simlint::allow(no-wall-clock): nothing here reads a clock anymore\n\
         pub fn step(now_us: u64) -> u64 {\n    now_us + 1\n}\n",
    )
    .unwrap();
    root
}

#[test]
fn stale_suppressions_fail_the_lint_and_fix_repairs_them() {
    let root = scaffold("main");

    // Before the fix: the stale allow and the missing header are both
    // findings, so the report that drives the CLI exit code is dirty.
    let report = lint_workspace(&root).unwrap();
    assert!(!report.is_clean(), "stale suppression must fail the run");
    let json = report.render_json();
    assert!(
        json.contains("bad-suppression"),
        "missing stale finding: {json}"
    );
    assert!(
        json.contains("crate-header"),
        "missing header finding: {json}"
    );

    // One fix pass repairs both.
    let (_, fixes) = lint_workspace_full(&root).unwrap();
    let summary = apply_fixes(&fixes).unwrap();
    assert_eq!(summary.files_changed, 1);
    assert_eq!(summary.suppressions_removed, 1);
    assert_eq!(summary.headers_added, 1);

    let fixed = fs::read_to_string(root.join("crates/sim/src/lib.rs")).unwrap();
    assert!(fixed.starts_with("#![forbid(unsafe_code)]\n"), "{fixed}");
    assert!(!fixed.contains("simlint::allow"), "{fixed}");

    // The re-lint (what the CLI runs after fixing) is clean, and a
    // second fix pass has nothing left to do.
    assert!(lint_workspace(&root).unwrap().is_clean());
    let (_, fixes) = lint_workspace_full(&root).unwrap();
    assert_eq!(apply_fixes(&fixes).unwrap().files_changed, 0);

    fs::remove_dir_all(&root).unwrap();
}

/// Reads every file under `root` into a path→contents map so two tree
/// states can be compared exactly.
fn tree_snapshot(root: &PathBuf) -> std::collections::BTreeMap<PathBuf, String> {
    fn walk(dir: &PathBuf, out: &mut std::collections::BTreeMap<PathBuf, String>) {
        for entry in fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                walk(&path, out);
            } else {
                out.insert(path.clone(), fs::read_to_string(&path).unwrap());
            }
        }
    }
    let mut out = std::collections::BTreeMap::new();
    walk(root, &mut out);
    out
}

#[test]
fn fix_is_idempotent_across_the_whole_tree() {
    // The property that makes `--fix` safe to run from a pre-commit
    // hook: once it has fixed everything mechanical, running it again
    // must not touch a single byte anywhere in the tree — not the fixed
    // file, not its neighbors. A fix that oscillates (removes a line,
    // then re-wraps the file differently on the next pass) would churn
    // diffs forever.
    let root = scaffold("idem");
    // A second file stacks every mechanical fix: two stale allows (one
    // partially stale, one fully) around a live one.
    fs::write(
        root.join("crates/sim/src/util.rs"),
        "//! Scaffold module.\n\n\
         // simlint::allow(no-hash-order): keyed access only\n\
         pub fn lookup(m: &HashMap<u64, u64>, k: u64) -> u64 {\n    m[&k]\n}\n\n\
         // simlint::allow(no-ambient-rng, no-wall-clock): rng is real, clock is not\n\
         pub fn jitter() -> u64 {\n    thread_rng()\n}\n",
    )
    .unwrap();

    let (_, fixes) = lint_workspace_full(&root).unwrap();
    apply_fixes(&fixes).unwrap();
    let after_first = tree_snapshot(&root);

    let (_, fixes) = lint_workspace_full(&root).unwrap();
    let summary = apply_fixes(&fixes).unwrap();
    assert_eq!(summary.files_changed, 0, "second fix pass must be a no-op");
    let after_second = tree_snapshot(&root);
    assert_eq!(
        after_first, after_second,
        "a second --fix changed bytes somewhere in the tree"
    );

    fs::remove_dir_all(&root).unwrap();
}

#[test]
fn stale_write_effect_suppressions_are_fixed() {
    // The write-effect rules `observer-purity` and `frozen-config` are
    // retired (the compiler proves what they checked), so a leftover
    // allow for either names an unknown rule: it is a finding, one fix
    // pass removes it, and a second pass is a no-op.
    let root = scaffold("effects");
    fs::write(
        root.join("crates/sim/src/obs.rs"),
        "//! Scaffold module.\n\n\
         // simlint::allow(observer-purity): tracing no longer advances the clock\n\
         pub fn snapshot(steps: u64) -> u64 {\n    steps\n}\n\n\
         // simlint::allow(frozen-config): the builder was inlined away\n\
         pub fn default_population() -> u64 {\n    50\n}\n",
    )
    .unwrap();

    let report = lint_workspace(&root).unwrap();
    let json = report.render_json();
    assert!(
        json.contains("observer-purity") && json.contains("frozen-config"),
        "stale write-effect allows must be findings: {json}"
    );

    // One pass clears the two planted allows plus the scaffold's own
    // stale one; the re-lint is clean and a second pass changes nothing.
    let (_, fixes) = lint_workspace_full(&root).unwrap();
    let summary = apply_fixes(&fixes).unwrap();
    assert_eq!(summary.suppressions_removed, 3);
    let after_first = tree_snapshot(&root);

    assert!(lint_workspace(&root).unwrap().is_clean());
    let (_, fixes) = lint_workspace_full(&root).unwrap();
    assert_eq!(apply_fixes(&fixes).unwrap().files_changed, 0);
    assert_eq!(after_first, tree_snapshot(&root));

    fs::remove_dir_all(&root).unwrap();
}

#[test]
fn live_dataflow_suppressions_survive_the_fix() {
    // An allow that actually silences a `nondet-taint` finding (a
    // tainted value laundered through a helper into a scheduling sink)
    // is live and must not be pruned by `--fix`. The wall-clock read
    // carries its own live allow.
    let root = scaffold("dataflow-live");
    fs::write(
        root.join("crates/sim/src/lib.rs"),
        "#![forbid(unsafe_code)]\n//! Scaffold crate.\n\n\
         fn hop(v: u64) -> u64 {\n    v\n}\n\n\
         pub fn tick(q: &mut Vec<u64>) {\n\
         \x20   // simlint::allow(no-wall-clock): fixture needs a nondeterministic source\n\
         \x20   let t = std::time::Instant::now().elapsed().as_micros() as u64;\n\
         \x20   // simlint::allow(nondet-taint): fixture exercises a live allow\n\
         \x20   q.push(hop(t));\n\
         }\n",
    )
    .unwrap();

    assert!(lint_workspace(&root).unwrap().is_clean());
    let (_, fixes) = lint_workspace_full(&root).unwrap();
    let summary = apply_fixes(&fixes).unwrap();
    assert_eq!(summary.files_changed, 0, "live allow must not be touched");
    let src = fs::read_to_string(root.join("crates/sim/src/lib.rs")).unwrap();
    assert!(src.contains("simlint::allow(nondet-taint)"));

    fs::remove_dir_all(&root).unwrap();
}

#[test]
fn live_suppressions_survive_the_fix() {
    let root = scaffold("live");
    // Make the suppression earn its keep: the function now calls a
    // wall clock on the line the allow covers.
    fs::write(
        root.join("crates/sim/src/lib.rs"),
        "#![forbid(unsafe_code)]\n//! Scaffold crate.\n\n\
         // simlint::allow(no-wall-clock): fixture exercises a live allow\n\
         pub fn step() -> std::time::Instant {\n    std::time::Instant::now()\n}\n",
    )
    .unwrap();

    assert!(lint_workspace(&root).unwrap().is_clean());
    let (_, fixes) = lint_workspace_full(&root).unwrap();
    let summary = apply_fixes(&fixes).unwrap();
    assert_eq!(summary.files_changed, 0, "live allow must not be touched");
    let src = fs::read_to_string(root.join("crates/sim/src/lib.rs")).unwrap();
    assert!(src.contains("simlint::allow(no-wall-clock)"));

    fs::remove_dir_all(&root).unwrap();
}
