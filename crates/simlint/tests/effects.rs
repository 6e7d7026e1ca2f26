//! Pins the write-effect engine's computed summaries on a small
//! fixture workspace: the golden rendering below is the effect set the
//! engine is *supposed* to compute, so any change to classification,
//! composition, or the fixpoint shows up as a readable string diff.
//! Also the regression home for the dropped-symbols accounting: a
//! planted same-name/different-arity pair must be counted and surfaced
//! in both report renderings instead of silently vanishing.

use std::fs;
use std::path::PathBuf;

use mlb_simlint::callgraph;
use mlb_simlint::effects::StateModel;
use mlb_simlint::lexer::lex;
use mlb_simlint::parser::parse_file;
use mlb_simlint::symbols::{parse_state_annotations, parse_unit_annotations, Symbols};
use mlb_simlint::{lint_workspace, lint_workspace_full};

/// The fixture workspace the snapshot is computed over: one observer
/// type (built-in), one annotated observer, sim state reached through
/// `self`, a `&mut` parameter, a helper hop, and a process global.
const FIXTURE: &str = "\
use std::sync::atomic::{AtomicU64, Ordering};

static TOTAL: AtomicU64 = AtomicU64::new(0);

pub struct Tracer {
    pub events: u64,
}

// simlint::state(observer)
pub struct Probe {
    pub queue_len: u64,
}

pub struct Gauge {
    pub depth: u64,
}

pub struct Sys {
    pub tracer: Tracer,
    pub gauge: Gauge,
    pub steps: u64,
}

impl Sys {
    pub fn advance(&mut self) {
        self.steps += 1;
    }

    pub fn note(&mut self) {
        self.tracer.events += 1;
    }
}

pub fn bump(g: &mut Gauge) {
    g.depth += 1;
}

pub fn relay(g: &mut Gauge) {
    bump(g);
}

pub fn sample(p: &mut Probe) {
    p.queue_len += 1;
}

pub fn record() {
    TOTAL.fetch_add(1, Ordering::SeqCst);
}

pub fn twice(x: u64) -> u64 {
    x * 2
}
";

#[test]
fn effect_summaries_match_the_golden_snapshot() {
    let tokens = lex(FIXTURE);
    let file = parse_file(&tokens);
    let (anns, malformed) = parse_state_annotations(&tokens);
    assert!(malformed.is_empty(), "fixture annotations must parse");

    let model = StateModel::build(&[(&file, &anns)]);
    let units = [(&file, &parse_unit_annotations(&tokens).0)];
    let table = callgraph::build(&units, &Symbols::build(&units), &model);

    // What each line asserts:
    //   advance — a direct `self` field write is a sim effect.
    //   bump    — a `&mut` parameter write names the projected field.
    //   note    — writes landing on an observer-typed field vanish.
    //   record  — a SCREAMING static mutation is a static effect.
    //   relay   — effects flow through a helper call, field intact.
    //   sample  — the `simlint::state(observer)` annotation erases the
    //             whole parameter's writes, same as a built-in type.
    //   twice   — a value-only function is pure.
    let golden = "\
advance: self.steps
bump: param 0.depth
note: pure
record: static TOTAL
relay: param 0.depth
sample: pure
twice: pure
";
    assert_eq!(table.render(), golden, "effect summaries drifted");
}

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
