#![forbid(unsafe_code)]
//! `mlb-simlint` — a workspace determinism & simulation-hygiene linter.
//!
//! The reproduction's headline results (VLRT retransmission clusters,
//! the policy-remedy improvement factor, bit-identical FNV-1a trace
//! digests) are only as credible as the simulator's determinism. This
//! crate enforces the invariants that determinism rests on, as named,
//! suppressible static-analysis rules over the whole workspace:
//!
//! | rule | invariant |
//! |------|-----------|
//! | `no-wall-clock` | sim-crate library code never reads the host clock |
//! | `no-system-io` | sim-crate library code never touches `std::fs`/`std::env` |
//! | `no-hash-order` | no iteration over `HashMap`/`HashSet` in sim-crate library code |
//! | `no-ambient-rng` | all randomness flows from seeded `simkernel::rng` streams |
//! | `panic-hygiene` | `unwrap`/`expect` in event-loop hot paths carry a written invariant |
//! | `crate-header` | every crate root carries `#![forbid(unsafe_code)]` |
//! | `span-attribution` | every `SpanKind` variant is constructed by the tracer |
//! | `no-float-accum` | telemetry/metrics paths accumulate integers, not `f64` sums |
//! | `bad-suppression` | suppressions are justified and actually used |
//! | `shard-shared-state` | no `static mut`, interior-mutable or atomic statics, or `Relaxed` atomics |
//! | `nondet-taint` | nondeterministic values never flow into event scheduling |
//! | `time-unit` | µs/ms/s units agree across literals, consts, params, and `SimTime` |
//! | `match-exhaustive` | sim-enum matches name every variant, no `_` catch-alls |
//! | `shard-cross-thread` | tainted values never cross thread boundaries (closures, channels) |
//!
//! The first ten are token-stream heuristics; the other four run on a
//! real (if lightweight) syntax tree: [`parser`] builds an [`ast`] from
//! the lexer's tokens and [`symbols`] collects cross-file facts (enum
//! variants, hash-returning functions, declared time units). One
//! summary engine then does the interprocedural work: [`callgraph`]
//! solves one summary per function — taint masks and return unit — as
//! a fixpoint over the call graph's strongly connected components, and
//! [`dataflow`]'s single body walker, run in summarize mode by that
//! solver and in check mode by the rules, pushes taint, unit and
//! thread-crossing facts through each function body. So nondeterminism
//! laundered through helper functions is still caught. What the types
//! already prove is left to rustc: a validated `SystemConfig` is a
//! read-only `Frozen` value, and the observers own no sim state.
//! Everything is hand-rolled (lexer included) because the build
//! environment has no registry access: no `syn`, no `proc-macro2`, no
//! `serde`.
//!
//! # Suppressions
//!
//! A finding is silenced by a comment attached to the enclosing syntax
//! node — the suppression covers the smallest item, statement, or
//! match arm that starts on the comment's line or the line below, so
//! one justified allow above a multi-line statement covers the whole
//! statement:
//!
//! ```text
//! // simlint::allow(panic-hygiene): a live RequestId always maps to a request
//! .expect("unknown live request");
//! ```
//!
//! The justification after the colon is mandatory, and each *rule* in a
//! suppression that never matches a finding is itself reported
//! (`bad-suppression`), so stale allowances cannot accumulate — not
//! even by hiding in the rule list of an otherwise-used suppression.
//! `mlb-simlint --workspace --fix` removes them mechanically.
//!
//! # Entry points
//!
//! * [`lint_workspace`] — lint a whole workspace rooted at a path (this
//!   is what the tier-1 integration test and the CI step call);
//! * [`lint_workspace_full`] — same, but also returns the per-file
//!   [`fix::FileFix`] plans that `--fix` applies;
//! * [`lint_source`] — lint one in-memory file under an explicit
//!   [`rules::FileInput`]-style context (what the fixture tests use);
//! * the `mlb-simlint` binary — `cargo run -p mlb-simlint -- --workspace
//!   [--json] [--fix]`.

pub mod ast;
pub mod baseline;
pub mod callgraph;
pub mod dataflow;
pub mod fix;
pub mod json;
pub mod lexer;
pub mod parser;
pub mod report;
pub mod rules;
pub mod sarif;
pub mod symbols;
pub mod workspace;

use std::fs;
use std::path::Path;

use fix::{FileFix, StaleAllow};
use lexer::{lex, Token};
use report::{parse_suppressions, Finding, Report, Suppression};
use rules::{
    check_ast, check_file, rule_named, span_attribution, FileInput, SPAN_DECL_PATH, SPAN_REF_PATHS,
};
use symbols::{parse_unit_annotations, Symbols, UnitAnnotations};
use workspace::{DiscoverError, FileRole, Workspace};

/// Whether `rel_path` is a crate root (`src/lib.rs` or `src/main.rs`).
fn is_crate_root(rel_path: &str) -> bool {
    rel_path.ends_with("src/lib.rs") || rel_path.ends_with("src/main.rs")
}

/// Runs `f` over `items` on up to 8 threads, preserving input order in
/// the output. Each worker owns one contiguous chunk, so results land
/// in pre-assigned slots and the caller sees exactly the sequential
/// order — parallelism must never be observable in the report. Small
/// inputs run inline.
fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .min(8)
        .min(items.len());
    if threads <= 1 {
        return items.iter().map(f).collect();
    }
    let mut slots: Vec<Option<R>> = Vec::new();
    slots.resize_with(items.len(), || None);
    let chunk = items.len().div_ceil(threads);
    let f = &f;
    std::thread::scope(|scope| {
        for (in_chunk, out_chunk) in items.chunks(chunk).zip(slots.chunks_mut(chunk)) {
            scope.spawn(move || {
                for (item, slot) in in_chunk.iter().zip(out_chunk.iter_mut()) {
                    *slot = Some(f(item));
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("every par_map slot is written by exactly one worker"))
        .collect()
}

/// Folds `bytes` into an FNV-1a 64-bit state.
fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x100_0000_01b3);
    }
}

/// Structural fingerprint for one finding: FNV-1a over the rule name,
/// the workspace-relative path, and the non-comment token texts of the
/// smallest enclosing item. Line numbers never enter the hash, so a
/// baselined finding keeps its identity when unrelated code is added or
/// removed above it; it changes identity exactly when the enclosing
/// item's code changes — which is when a human should re-triage it.
/// Findings outside any item (crate-header, malformed directives) hash
/// only (rule, path).
fn compute_fingerprint(
    rule: &str,
    rel_path: &str,
    line: u32,
    tokens: &[Token],
    item_spans: &[ast::Span],
) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    fnv1a(&mut h, rule.as_bytes());
    fnv1a(&mut h, b"\0");
    fnv1a(&mut h, rel_path.as_bytes());
    fnv1a(&mut h, b"\0");
    let enclosing = item_spans
        .iter()
        .filter(|sp| sp.line <= line && line <= sp.end_line)
        .min_by_key(|sp| (sp.end_line - sp.line, sp.line));
    if let Some(sp) = enclosing {
        for t in tokens {
            if !t.is_comment() && t.line >= sp.line && t.line <= sp.end_line {
                fnv1a(&mut h, t.text.as_bytes());
                fnv1a(&mut h, b"\x01");
            }
        }
    }
    h
}

/// Suppression scoping: the inclusive line range a suppression on
/// `s_line` covers. The smallest collected node span (item, statement,
/// or match arm) starting on the suppression's line or the line below
/// wins; when nothing starts there, the comment falls back to covering
/// its own line and the next — the pre-AST behavior.
fn suppression_scope(s_line: u32, spans: &[ast::Span]) -> (u32, u32) {
    spans
        .iter()
        .filter(|sp| sp.line == s_line || sp.line == s_line + 1)
        .min_by_key(|sp| (sp.end_line - sp.line, sp.line))
        .map(|sp| (sp.line.min(s_line), sp.end_line))
        .unwrap_or((s_line, s_line + 1))
}

struct FileData {
    rel_path: String,
    abs_path: std::path::PathBuf,
    tokens: Vec<Token>,
    suppressions: Vec<Suppression>,
    /// Per-suppression inclusive line coverage.
    scopes: Vec<(u32, u32)>,
    /// Per-suppression, per-rule "silenced something" flags, aligned
    /// with `Suppression::rules`.
    used: Vec<Vec<bool>>,
    is_crate_root: bool,
}

/// Shared front half of comment handling: parses the suppression and
/// unit-annotation comments, reports the malformed ones into `raw`,
/// and computes each suppression's node scope.
fn parse_comment_directives(
    tokens: &[Token],
    file: &ast::File,
    rel_path: &str,
    raw: &mut Vec<Finding>,
) -> (Vec<Suppression>, Vec<(u32, u32)>, UnitAnnotations) {
    let (suppressions, malformed) = parse_suppressions(tokens);
    for (line, col, msg) in malformed {
        raw.push(Finding {
            rule: "bad-suppression",
            path: rel_path.to_owned(),
            line,
            col,
            message: msg,
            fingerprint: 0,
        });
    }
    for s in &suppressions {
        for r in &s.rules {
            if rule_named(r).is_none() {
                raw.push(Finding {
                    rule: "bad-suppression",
                    path: rel_path.to_owned(),
                    line: s.line,
                    col: 1,
                    message: format!("suppression names unknown rule `{r}`"),
                    fingerprint: 0,
                });
            }
        }
    }
    let (anns, bad_anns) = parse_unit_annotations(tokens);
    for (line, col, msg) in bad_anns {
        raw.push(Finding {
            rule: "time-unit",
            path: rel_path.to_owned(),
            line,
            col,
            message: msg,
            fingerprint: 0,
        });
    }
    let spans = ast::collect_scope_spans(file);
    let scopes = suppressions
        .iter()
        .map(|s| suppression_scope(s.line, &spans))
        .collect();
    (suppressions, scopes, anns)
}

/// Applies suppressions to one finding: the first suppression whose
/// scope covers the finding's line and whose rule list names the rule
/// silences it, marking that (suppression, rule) slot used.
/// `bad-suppression` findings are unsuppressible. Returns the
/// justification when silenced.
fn try_suppress(
    finding: &Finding,
    suppressions: &[Suppression],
    scopes: &[(u32, u32)],
    used: &mut [Vec<bool>],
) -> Option<String> {
    if finding.rule == "bad-suppression" {
        return None;
    }
    for (i, s) in suppressions.iter().enumerate() {
        let (lo, hi) = scopes[i];
        if finding.line < lo || finding.line > hi {
            continue;
        }
        for (j, r) in s.rules.iter().enumerate() {
            if r == finding.rule {
                used[i][j] = true;
                return Some(s.justification.clone());
            }
        }
    }
    None
}

/// Splits a suppression's rules into (stale, kept) by usage and renders
/// the staleness finding message, or `None` when nothing is stale.
fn stale_message(s: &Suppression, used: &[bool]) -> Option<(Vec<String>, Vec<String>, String)> {
    let stale: Vec<String> = s
        .rules
        .iter()
        .zip(used)
        .filter(|(_, u)| !**u)
        .map(|(r, _)| r.clone())
        .collect();
    if stale.is_empty() {
        return None;
    }
    let keep: Vec<String> = s
        .rules
        .iter()
        .filter(|r| !stale.contains(r))
        .cloned()
        .collect();
    let message = if keep.is_empty() {
        format!(
            "suppression for `{}` never matched a finding; delete it",
            s.rules.join(", ")
        )
    } else {
        format!(
            "suppression rule{} `{}` never matched a finding; keep only `{}`",
            if stale.len() == 1 { "" } else { "s" },
            stale.join(", "),
            keep.join(", ")
        )
    };
    Some((stale, keep, message))
}

/// Lints the workspace rooted at `root` and returns the full report,
/// sorted for stable output.
///
/// # Errors
///
/// Returns [`DiscoverError`] when the workspace layout cannot be read
/// (missing manifests, unreadable directories) — *not* for findings,
/// which are data in the report.
pub fn lint_workspace(root: &Path) -> Result<Report, DiscoverError> {
    lint_workspace_full(root).map(|(report, _)| report)
}

/// [`lint_workspace`], plus the mechanical fix plans (`--fix` input):
/// stale suppression removals and missing `#![forbid(unsafe_code)]`
/// headers, one entry per file that needs work.
pub fn lint_workspace_full(root: &Path) -> Result<(Report, Vec<FileFix>), DiscoverError> {
    let ws = Workspace::discover(root)?;
    let mut report = Report::default();
    let mut files: Vec<FileData> = Vec::new();
    let mut parsed: Vec<(ast::File, UnitAnnotations)> = Vec::new();
    let mut raw: Vec<Finding> = Vec::new();

    // Pass 1: read, lex, parse every file, fanned out across threads —
    // this is where the scan spends its time. Everything that writes
    // shared state (directive findings, file bookkeeping) stays in the
    // sequential loop below, in discovery order, so the report is
    // byte-identical to a single-threaded scan.
    type LexedFile = Result<(Vec<Token>, ast::File), DiscoverError>;
    let lexed: Vec<LexedFile> = par_map(&ws.files, |f| {
        let src = fs::read_to_string(&f.abs_path)
            .map_err(|e| DiscoverError(format!("reading {}: {e}", f.rel_path)))?;
        let tokens = lex(&src);
        let file = parser::parse_file(&tokens);
        Ok((tokens, file))
    });
    for (f, lexed) in ws.files.iter().zip(lexed) {
        let (tokens, file) = lexed?;
        let (suppressions, scopes, anns) =
            parse_comment_directives(&tokens, &file, &f.rel_path, &mut raw);
        let used = suppressions
            .iter()
            .map(|s| vec![false; s.rules.len()])
            .collect();
        report.files_scanned.push(f.rel_path.clone());
        files.push(FileData {
            rel_path: f.rel_path.clone(),
            abs_path: f.abs_path.clone(),
            tokens,
            suppressions,
            scopes,
            used,
            is_crate_root: is_crate_root(&f.rel_path),
        });
        parsed.push((file, anns));
    }

    // The symbol table sees every library file — sim crates for the
    // rules, the rest so name collisions degrade to "no facts" instead
    // of wrong facts.
    let symbol_inputs: Vec<(&ast::File, &UnitAnnotations)> = ws
        .files
        .iter()
        .zip(&parsed)
        .filter(|(f, _)| f.role == FileRole::Lib)
        .map(|(_, (file, anns))| (file, anns))
        .collect();
    let symbols = Symbols::build(&symbol_inputs);

    // Function summaries span exactly the files the dataflow rules will
    // visit (sim-crate libraries plus the bench library), so a helper
    // defined in one crate is understood at call sites in another.
    let flow_inputs: Vec<(&ast::File, &UnitAnnotations)> = ws
        .files
        .iter()
        .zip(&parsed)
        .filter(|(f, _)| rules::flow_families_for(&f.crate_name, f.role).is_some())
        .map(|(_, (file, anns))| (file, anns))
        .collect();
    let summaries = callgraph::build(&flow_inputs, &symbols);
    report.dropped_symbols = summaries.dropped();

    // Pass 2: token rules + AST/dataflow rules per file, fanned out the
    // same way; per-file finding vectors are re-joined in file order.
    let indices: Vec<usize> = (0..ws.files.len()).collect();
    let per_file: Vec<Vec<Finding>> = par_map(&indices, |&i| {
        let f = &ws.files[i];
        let fd = &files[i];
        let (file, anns) = &parsed[i];
        let input = FileInput {
            crate_name: &f.crate_name,
            role: f.role,
            rel_path: &f.rel_path,
            tokens: &fd.tokens,
            is_crate_root: fd.is_crate_root,
        };
        let mut out = check_file(&input);
        out.extend(check_ast(&input, file, &symbols, anns, &summaries));
        out
    });
    for findings in per_file {
        raw.extend(findings);
    }

    // Workspace-level rule: span-attribution.
    if let Some(decl) = files.iter().find(|f| f.rel_path == SPAN_DECL_PATH) {
        let refs: Vec<(String, Vec<Token>)> = SPAN_REF_PATHS
            .iter()
            .filter_map(|p| {
                files
                    .iter()
                    .find(|f| f.rel_path == *p)
                    .map(|f| (f.rel_path.clone(), f.tokens.clone()))
            })
            .collect();
        raw.extend(span_attribution(SPAN_DECL_PATH, &decl.tokens, &refs));
    }

    // Apply suppressions per owning file.
    for finding in raw {
        let silenced = files
            .iter_mut()
            .find(|fd| fd.rel_path == finding.path)
            .and_then(|fd| try_suppress(&finding, &fd.suppressions, &fd.scopes, &mut fd.used));
        match silenced {
            Some(why) => report.suppressed.push((finding, why)),
            None => report.findings.push(finding),
        }
    }

    // Stale rule slots become findings + fix plans; missing crate
    // headers become fix plans off their (unsuppressed) findings.
    let mut fixes = Vec::new();
    for fd in &files {
        let mut stale_plans = Vec::new();
        for (s, used) in fd.suppressions.iter().zip(&fd.used) {
            if let Some((_, keep, message)) = stale_message(s, used) {
                report.findings.push(Finding {
                    rule: "bad-suppression",
                    path: fd.rel_path.clone(),
                    line: s.line,
                    col: 1,
                    message,
                    fingerprint: 0,
                });
                stale_plans.push(StaleAllow { line: s.line, keep });
            }
        }
        let missing_header = report
            .findings
            .iter()
            .any(|f| f.rule == "crate-header" && f.path == fd.rel_path);
        if !stale_plans.is_empty() || missing_header {
            fixes.push(FileFix {
                rel_path: fd.rel_path.clone(),
                abs_path: fd.abs_path.clone(),
                stale: stale_plans,
                missing_header,
            });
        }
    }

    // Fingerprints: anchor every finding (suppressed ones too, so a
    // future un-suppression matches the baseline) to the token stream
    // of its enclosing item.
    let item_spans: Vec<Vec<ast::Span>> = parsed
        .iter()
        .map(|(file, _)| ast::collect_item_spans(file))
        .collect();
    let stamp = |f: &mut Finding| {
        if let Some(i) = files.iter().position(|fd| fd.rel_path == f.path) {
            f.fingerprint =
                compute_fingerprint(f.rule, &f.path, f.line, &files[i].tokens, &item_spans[i]);
        }
    };
    for f in &mut report.findings {
        stamp(f);
    }
    for (f, _) in &mut report.suppressed {
        stamp(f);
    }

    report.sort();
    Ok((report, fixes))
}

/// Lints one in-memory source file under an explicit context, applying
/// the same suppression semantics as [`lint_workspace`]. Used by the
/// fixture tests; the `span-attribution` rule (workspace-level) treats
/// the file as both the declaration and the attribution site, and the
/// symbol table is built from the file itself, so a self-contained
/// fixture can exercise every rule.
pub fn lint_source(
    src: &str,
    crate_name: &str,
    role: FileRole,
    rel_path: &str,
    crate_root: bool,
) -> Vec<Finding> {
    let tokens = lex(src);
    let file = parser::parse_file(&tokens);
    let mut raw: Vec<Finding> = Vec::new();
    let (suppressions, scopes, anns) = parse_comment_directives(&tokens, &file, rel_path, &mut raw);
    let symbols = Symbols::build(&[(&file, &anns)]);
    let input = FileInput {
        crate_name,
        role,
        rel_path,
        tokens: &tokens,
        is_crate_root: crate_root,
    };
    let summaries = callgraph::build(&[(&file, &anns)], &symbols);
    raw.extend(check_file(&input));
    raw.extend(check_ast(&input, &file, &symbols, &anns, &summaries));
    if !rules::span_variants(&tokens).is_empty() {
        raw.extend(span_attribution(
            rel_path,
            &tokens,
            &[(rel_path.to_owned(), tokens.clone())],
        ));
    }
    let mut used: Vec<Vec<bool>> = suppressions
        .iter()
        .map(|s| vec![false; s.rules.len()])
        .collect();
    let mut out = Vec::new();
    for finding in raw {
        if try_suppress(&finding, &suppressions, &scopes, &mut used).is_none() {
            out.push(finding);
        }
    }
    for (s, used) in suppressions.iter().zip(&used) {
        if let Some((_, _, message)) = stale_message(s, used) {
            out.push(Finding {
                rule: "bad-suppression",
                path: rel_path.to_owned(),
                line: s.line,
                col: 1,
                message,
                fingerprint: 0,
            });
        }
    }
    let spans = ast::collect_item_spans(&file);
    for f in &mut out {
        f.fingerprint = compute_fingerprint(f.rule, rel_path, f.line, &tokens, &spans);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suppression_on_previous_line_silences_and_is_used() {
        let src = "\
// simlint::allow(no-ambient-rng): fixture demonstrating suppression
let r = thread_rng();
";
        let f = lint_source(
            src,
            "mlb-ntier",
            FileRole::Lib,
            "crates/ntier/src/x.rs",
            false,
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn unused_suppression_is_reported() {
        let src = "// simlint::allow(no-wall-clock): nothing here uses the clock\nlet x = 1;\n";
        let f = lint_source(
            src,
            "mlb-ntier",
            FileRole::Lib,
            "crates/ntier/src/x.rs",
            false,
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "bad-suppression");
    }

    #[test]
    fn unknown_rule_in_suppression_is_reported() {
        // The retired rules are unknown now: a leftover allow for one
        // fails loudly instead of silencing nothing forever.
        for rule in [
            "no-such-rule",
            "observer-purity",
            "frozen-config",
            "shard-order-agg",
        ] {
            let src = format!("// simlint::allow({rule}): hmm\nlet r = thread_rng();\n");
            let f = lint_source(
                &src,
                "mlb-ntier",
                FileRole::Lib,
                "crates/ntier/src/x.rs",
                false,
            );
            assert!(
                f.iter().any(|f| f.rule == "bad-suppression"
                    && f.message == format!("suppression names unknown rule `{rule}`")),
                "{rule}: {f:?}"
            );
            assert!(
                f.iter().any(|f| f.rule == "no-ambient-rng"),
                "{rule}: {f:?}"
            );
        }
    }

    #[test]
    fn suppression_scopes_to_the_whole_statement() {
        // The offending call sits two lines below the allow comment; a
        // line-scoped suppression would miss it, node scoping covers the
        // enclosing statement.
        let src = "\
pub fn f(v: u64) {
    // simlint::allow(no-ambient-rng): seeded at the harness boundary
    consume(
        v,
        thread_rng(),
    );
}
";
        let f = lint_source(
            src,
            "mlb-ntier",
            FileRole::Lib,
            "crates/ntier/src/x.rs",
            false,
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn partially_stale_suppression_rule_is_reported() {
        // `no-ambient-rng` fires and is silenced; `no-wall-clock` never
        // fires, so its slot in the same allow list is stale — the bug
        // this catches is a dead rule hiding behind a live one.
        let src = "\
// simlint::allow(no-ambient-rng, no-wall-clock): only the rng part is real
let r = thread_rng();
";
        let f = lint_source(
            src,
            "mlb-ntier",
            FileRole::Lib,
            "crates/ntier/src/x.rs",
            false,
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "bad-suppression");
        assert!(f[0].message.contains("no-wall-clock"), "{}", f[0].message);
    }

    #[test]
    fn whole_workspace_is_clean() {
        // The repository itself must lint clean — this is the same gate
        // the tier-1 integration test enforces, kept here as a unit test
        // so `cargo test -p mlb-simlint` alone proves it.
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(Path::parent)
            .expect("simlint lives two levels under the root");
        let report = lint_workspace(root).expect("workspace discovery");
        assert!(
            report.is_clean(),
            "workspace has simlint findings:\n{}",
            report.render_human()
        );
    }
}
