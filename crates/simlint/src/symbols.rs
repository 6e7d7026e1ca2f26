//! Cross-file symbol table built from the workspace's parsed ASTs.
//!
//! The dataflow rules need a few global facts that no single file can
//! answer: which functions return hash-ordered collections (so a call
//! chain like `self.endpoints().iter()` taints), which struct fields
//! hold them, which enums exist with which variants (match
//! exhaustiveness), and which functions/consts carry a declared time
//! unit in their name (`fn drain_window_us`, `const RETRY_MS`). The
//! table is name-keyed rather than fully path-resolved — the workspace
//! forbids glob imports of colliding names, and when two same-named
//! functions disagree on parameter units the table reports *no* units
//! for that name instead of guessing.

use std::collections::{BTreeMap, BTreeSet};

use crate::ast::{self, File, Item, ItemKind};

/// A declared time unit, per the workspace naming convention.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unit {
    /// Microseconds (`_us`, `_micros`).
    Us,
    /// Milliseconds (`_ms`, `_millis`).
    Ms,
    /// Seconds (`_secs`).
    Secs,
}

impl Unit {
    /// Human-readable unit name for messages.
    pub fn label(&self) -> &'static str {
        match self {
            Unit::Us => "µs",
            Unit::Ms => "ms",
            Unit::Secs => "s",
        }
    }

    /// Parses a `simlint::unit(...)` argument.
    pub fn from_annotation(s: &str) -> Option<Unit> {
        match s.trim() {
            "us" | "micros" => Some(Unit::Us),
            "ms" | "millis" => Some(Unit::Ms),
            "secs" | "s" => Some(Unit::Secs),
            _ => None,
        }
    }
}

/// Infers a unit from an identifier per the suffix convention. Works
/// for snake_case (`window_ms`) and SCREAMING_CASE (`RETRY_MS`) names,
/// and for the bare words the `SimTime` constructors use as parameter
/// names (`micros`, `millis`, `secs`).
pub fn unit_from_name(name: &str) -> Option<Unit> {
    let lower = name.to_ascii_lowercase();
    let l = lower.as_str();
    if l.ends_with("_us") || l.ends_with("_micros") || l == "us" || l == "micros" {
        Some(Unit::Us)
    } else if l.ends_with("_ms") || l.ends_with("_millis") || l == "ms" || l == "millis" {
        Some(Unit::Ms)
    } else if l.ends_with("_secs") || l == "secs" {
        Some(Unit::Secs)
    } else {
        None
    }
}

/// Collection types whose iteration order is nondeterministic.
pub const HASH_TYPES: [&str; 2] = ["HashMap", "HashSet"];

/// Per-line unit annotations parsed from `// simlint::unit(<u>)`
/// comments; key is the comment's 1-based line. An annotation covers a
/// declaration on the same line or the line below.
pub type UnitAnnotations = BTreeMap<u32, Unit>;

/// The marker that introduces a unit annotation inside a comment.
pub const UNIT_MARKER: &str = "simlint::unit";

/// Extracts `// simlint::unit(us)` annotations from a file's comment
/// tokens. Malformed arguments are reported as `(line, col, message)`
/// errors so a typo'd unit cannot silently disable checking.
pub fn parse_unit_annotations(
    tokens: &[crate::lexer::Token],
) -> (UnitAnnotations, Vec<(u32, u32, String)>) {
    let mut anns = BTreeMap::new();
    let mut bad = Vec::new();
    for t in tokens.iter().filter(|t| t.is_comment()) {
        let trimmed = t.text.trim_start();
        let Some(rest) = trimmed.strip_prefix(UNIT_MARKER) else {
            continue;
        };
        // `simlint::unit(us)`, nothing else on the marker.
        let arg = rest
            .trim_start()
            .strip_prefix('(')
            .and_then(|r| r.split_once(')'))
            .map(|(inner, _)| inner);
        match arg.and_then(Unit::from_annotation) {
            Some(u) => {
                anns.insert(t.line, u);
            }
            None => bad.push((
                t.line,
                t.col,
                "malformed simlint::unit annotation (expected `simlint::unit(us|ms|secs)`)"
                    .to_owned(),
            )),
        }
    }
    (anns, bad)
}

/// Looks up the declared unit for a name defined at `line`: an explicit
/// annotation on the same or the previous line wins over the name's
/// suffix.
pub fn declared_unit(name: &str, line: u32, anns: &UnitAnnotations) -> Option<Unit> {
    anns.get(&line)
        .or_else(|| line.checked_sub(1).and_then(|l| anns.get(&l)))
        .copied()
        .or_else(|| unit_from_name(name))
}

/// Workspace-wide, name-keyed symbol facts.
#[derive(Debug, Default)]
pub struct Symbols {
    /// Enum name → variant names, for exhaustiveness checking.
    pub enums: BTreeMap<String, Vec<String>>,
    /// Functions whose return type mentions a hash-ordered collection.
    pub hash_fns: BTreeSet<String>,
    /// Struct fields whose type mentions a hash-ordered collection.
    pub hash_fields: BTreeSet<String>,
    /// Function name → per-parameter declared units. Present only when
    /// every same-named function in the workspace agrees.
    fn_param_units: BTreeMap<String, Option<Vec<Option<Unit>>>>,
    /// Const/static name → declared unit.
    pub const_units: BTreeMap<String, Unit>,
}

impl Symbols {
    /// Builds a table from a set of parsed files with their unit
    /// annotations.
    pub fn build(files: &[(&File, &UnitAnnotations)]) -> Symbols {
        let mut s = Symbols::default();
        for (file, anns) in files {
            s.add_items(&file.items, anns);
        }
        s
    }

    /// Declared per-parameter units for `fn_name`, when unambiguous.
    pub fn param_units(&self, fn_name: &str) -> Option<&[Option<Unit>]> {
        match self.fn_param_units.get(fn_name) {
            Some(Some(units)) if units.iter().any(Option::is_some) => Some(units),
            _ => None,
        }
    }

    fn add_items(&mut self, items: &[Item], anns: &UnitAnnotations) {
        for item in items {
            match &item.kind {
                ItemKind::Fn(f) => self.add_fn(f, anns),
                ItemKind::Struct(st) => {
                    for field in &st.fields {
                        if field.ty.mentions(&HASH_TYPES) {
                            self.hash_fields.insert(field.name.clone());
                        }
                    }
                }
                ItemKind::Enum(e) => {
                    self.enums.insert(
                        e.name.clone(),
                        e.variants.iter().map(|v| v.0.clone()).collect(),
                    );
                }
                ItemKind::Impl(imp) => self.add_items(&imp.items, anns),
                ItemKind::Mod(m) if !m.cfg_test => {
                    self.add_items(&m.items, anns);
                }
                ItemKind::Const(c) => {
                    if let Some(u) = declared_unit(&c.name, c.line, anns) {
                        self.const_units.insert(c.name.clone(), u);
                    }
                }
                _ => {}
            }
        }
    }

    fn add_fn(&mut self, f: &ast::Func, anns: &UnitAnnotations) {
        if f.ret.as_ref().is_some_and(|t| t.mentions(&HASH_TYPES)) {
            self.hash_fns.insert(f.name.clone());
        }
        let units: Vec<Option<Unit>> = f
            .params
            .iter()
            .map(|p| {
                p.name
                    .as_deref()
                    .and_then(|n| declared_unit(n, p.line, anns))
            })
            .collect();
        self.fn_param_units
            .entry(f.name.clone())
            .and_modify(|existing| {
                // Same-named functions that disagree get no units at all.
                if existing.as_deref() != Some(units.as_slice()) {
                    *existing = None;
                }
            })
            .or_insert(Some(units));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse_file;

    fn table(src: &str) -> (Symbols, UnitAnnotations) {
        let toks = lex(src);
        let file = parse_file(&toks);
        let (anns, bad) = parse_unit_annotations(&toks);
        assert!(bad.is_empty(), "{bad:?}");
        (Symbols::build(&[(&file, &anns)]), anns)
    }

    #[test]
    fn suffixes_infer_units() {
        assert_eq!(unit_from_name("window_ms"), Some(Unit::Ms));
        assert_eq!(unit_from_name("RETRY_US"), Some(Unit::Us));
        assert_eq!(unit_from_name("busy_cum_us"), Some(Unit::Us));
        assert_eq!(unit_from_name("drain_secs"), Some(Unit::Secs));
        assert_eq!(unit_from_name("millis"), Some(Unit::Ms));
        assert_eq!(unit_from_name("count"), None);
        assert_eq!(unit_from_name("terms"), None, "no underscore boundary");
    }

    #[test]
    fn hash_returning_fns_and_fields_are_collected() {
        let (s, _) = table(
            "pub struct T { pending: HashMap<u64, u32>, done: Vec<u64> }\n\
             impl T { pub fn index(&self) -> &HashMap<u64, u32> { &self.pending } }\n\
             pub fn plain() -> Vec<u64> { Vec::new() }",
        );
        assert!(s.hash_fields.contains("pending"));
        assert!(!s.hash_fields.contains("done"));
        assert!(s.hash_fns.contains("index"));
        assert!(!s.hash_fns.contains("plain"));
    }

    #[test]
    fn enums_and_annotated_consts_are_collected() {
        let (s, _) = table(
            "pub enum QueueKind { Wheel, Heap }\n\
             // simlint::unit(us)\n\
             pub const WINDOW: u64 = 50_000;\n\
             pub const RETRY_MS: u64 = 20;",
        );
        assert_eq!(s.enums["QueueKind"], vec!["Wheel", "Heap"]);
        assert_eq!(s.const_units.get("WINDOW"), Some(&Unit::Us));
        assert_eq!(s.const_units.get("RETRY_MS"), Some(&Unit::Ms));
    }

    #[test]
    fn conflicting_fn_signatures_report_no_units() {
        let (s, _) = table(
            "pub fn record(rt_us: u64) {}\n\
             mod other { pub fn record(rt_ms: u64) {} }",
        );
        assert!(s.param_units("record").is_none());
    }

    #[test]
    fn agreeing_fn_signatures_report_units() {
        let (s, _) = table("pub fn on_window(start_us: u64, len: usize) {}");
        let units = s.param_units("on_window").unwrap();
        assert_eq!(units, &[Some(Unit::Us), None]);
    }

    #[test]
    fn malformed_unit_annotation_is_reported() {
        let toks = lex("// simlint::unit(hours)\npub const X: u64 = 1;");
        let (anns, bad) = parse_unit_annotations(&toks);
        assert!(anns.is_empty());
        assert_eq!(bad.len(), 1);
    }

    #[test]
    fn test_mods_do_not_pollute_the_table() {
        let (s, _) =
            table("#[cfg(test)] mod tests { pub fn h() -> HashMap<u64, u64> { HashMap::new() } }");
        assert!(!s.hash_fns.contains("h"));
    }
}
