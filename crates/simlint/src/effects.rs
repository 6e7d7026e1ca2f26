//! Write effects: the state classification and the write half of the
//! body walker.
//!
//! The golden-digest suite proves the observer layers (tracing, live
//! metrics, kernel profiling) are behavior-preserving *dynamically*, on
//! three lucky seeds. This module is the static counterpart. The
//! [`StateModel`] classifies every piece of workspace state as **sim**
//! state (anything that feeds the event stream) or **observer** state
//! (the `Tracer` / `LiveMetrics` / `KernelProfiler` / `TraceLog`
//! family, extensible via `// simlint::state(observer)` annotations on
//! a struct, field, or static). The body walker (`dataflow.rs`) calls
//! the methods below to resolve what each write lands on, and records
//! every sim-classified write — by parameter index and first projected
//! field, or by static — in the function's `FnSummary`, transitively
//! through helpers, method calls, and closures. Three rules consume
//! the summaries:
//!
//! * `observer-purity` — code that only runs when observation is on
//!   (under a `cfg.trace` / `cfg.metrics` / `cfg.prof` guard, an
//!   `if let Some(m) = self.metrics.as_mut()` unwrap, or anywhere in an
//!   `impl` of an observer type) must not write sim state. The report
//!   lands once, at the outermost gated call, like two-hop taint: the
//!   helper that actually performs the write is summarized, not echoed.
//! * `frozen-config` — a `SystemConfig` is mutable while it is being
//!   built and frozen the moment `validate()` returns; field writes
//!   after the freeze (or through a stored `cfg` field, which is always
//!   post-validate) are findings. `impl SystemConfig` itself (the
//!   builder methods) is exempt.
//! * field-precise upgrades for the shard-safety family: a *write* to a
//!   `static` in sim code is reported at the write site
//!   (`shard-shared-state`), and a closure handed to
//!   `spawn`/`scope`/`par_runs` that writes a captured binding is a
//!   cross-thread mutation (`shard-cross-thread`) even when no taint is
//!   involved.
//!
//! The analysis is deliberately heuristic: `let alias = &mut
//! self.field` is tracked, a `&mut` smuggled through an untracked
//! accessor return is not, and by-value rebinding (`x = 3` on a plain
//! binding) is never an effect because it cannot escape the function.

use std::collections::{BTreeMap, BTreeSet};

use crate::ast::{walk_expr, Expr, ExprKind, File, Item, ItemKind, TypeRef};
use crate::callgraph::FnSummary;
use crate::dataflow::{Facts, Walker};

/// Rule name for observation-gated sim-state writes.
pub const OBSERVER_PURITY: &str = "observer-purity";
/// Rule name for post-`validate()` `SystemConfig` mutation.
pub const FROZEN_CONFIG: &str = "frozen-config";
/// Rule name for process-global state; the walker reports static
/// writes under it.
pub const SHARD_SHARED_STATE: &str = "shard-shared-state";
/// Rule name for values and writes crossing a thread boundary.
pub const SHARD_CROSS_THREAD: &str = "shard-cross-thread";

/// The built-in observer types: state owned by these never feeds the
/// simulation, only reports on it.
pub const OBSERVER_TYPES: [&str; 4] = ["Tracer", "LiveMetrics", "KernelProfiler", "TraceLog"];

/// Config fields whose truthiness gates observation code paths.
const GATE_FLAGS: [&str; 3] = ["trace", "metrics", "prof"];

/// Methods that project a reference out of their receiver without
/// changing what it points into: the origin of `x.as_mut()` is the
/// origin of `x`.
const PROJECTION_METHODS: [&str; 8] = [
    "as_mut",
    "as_ref",
    "as_deref_mut",
    "borrow_mut",
    "get_mut",
    "unwrap",
    "expect",
    "last_mut",
];

/// Methods assumed to mutate their receiver when the callee has no
/// workspace summary (std collections, atomics, the event-queue API).
const MUTATING_METHODS: [&str; 26] = [
    "push",
    "push_back",
    "push_front",
    "push_at",
    "pop",
    "pop_back",
    "pop_front",
    "insert",
    "remove",
    "clear",
    "set",
    "store",
    "fetch_add",
    "fetch_sub",
    "extend",
    "append",
    "drain",
    "truncate",
    "retain",
    "resize",
    "fill",
    "swap",
    "replace",
    "sort",
    "schedule",
    "schedule_at",
];

/// The sim-vs-observer classification of a piece of state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StateClass {
    /// State the event stream depends on; writing it changes the run.
    Sim,
    /// Pure observation state; writing it must never change the run.
    Observer,
}

impl StateClass {
    /// Parses a `simlint::state(...)` argument.
    pub fn from_annotation(s: &str) -> Option<StateClass> {
        match s.trim() {
            "sim" => Some(StateClass::Sim),
            "observer" => Some(StateClass::Observer),
            _ => None,
        }
    }
}

/// Per-line `// simlint::state(<class>)` annotations, keyed by the
/// comment's 1-based line; covers a declaration on the same line or the
/// line below (same convention as `UnitAnnotations`).
pub type StateAnnotations = BTreeMap<u32, StateClass>;

/// The workspace's state classification: which types are observers,
/// what class each named field resolves to.
#[derive(Debug, Default)]
pub struct StateModel {
    /// Type names classified observer (built-ins plus annotated).
    observer_types: BTreeSet<String>,
    /// Field name → class. Same-named fields declared with conflicting
    /// classes resolve to `Sim`: a sim write must never hide behind a
    /// name it shares with an observer field.
    field_class: BTreeMap<String, StateClass>,
    /// Fields whose declared type mentions `SystemConfig` — writes
    /// *through* them are always post-validate (`frozen-config`).
    config_fields: BTreeSet<String>,
    /// Fields whose declared type mentions an observer type *somewhere*
    /// in the workspace. Kept separately from `field_class` because the
    /// name-granular conflict rule demotes shared names to `Sim` (sound
    /// for write classification) — but a `self.metrics.as_mut()` gate
    /// and the binding it produces are identified by the declaration's
    /// *type*, and must survive a sim field elsewhere sharing the name.
    gate_fields: BTreeSet<String>,
    /// Statics/consts annotated `simlint::state(observer)`.
    observer_statics: BTreeSet<String>,
}

impl StateModel {
    /// Builds the model from parsed files and their state annotations.
    pub fn build(files: &[(&File, &StateAnnotations)]) -> StateModel {
        let mut m = StateModel::default();
        m.observer_types
            .extend(OBSERVER_TYPES.iter().map(|s| (*s).to_owned()));
        // Pass 1: collect annotated observer types, so pass 2 can
        // classify fields whose type mentions them (declaration order
        // across files must not matter).
        for (file, anns) in files {
            collect_types(&file.items, anns, &mut m);
        }
        for (file, anns) in files {
            collect_fields(&file.items, anns, &mut m);
        }
        m
    }

    /// Whether `name` is a type whose state is observation-only.
    pub fn is_observer_type(&self, name: &str) -> bool {
        self.observer_types.contains(name)
    }

    /// The class of a named field anywhere in the workspace. Unknown
    /// fields are sim state: everything is load-bearing until proven
    /// observational.
    pub fn field_class(&self, name: &str) -> StateClass {
        self.field_class
            .get(name)
            .copied()
            .unwrap_or(StateClass::Sim)
    }

    /// Whether `name` is declared (anywhere) as a field of observer
    /// type, or resolves observer outright — the set of fields whose
    /// `as_mut`/`as_ref`/`is_some` unwrapping counts as an observation
    /// gate, and whose unwrapped binding is the observer itself.
    pub fn is_gate_field(&self, name: &str) -> bool {
        self.gate_fields.contains(name) || self.field_class(name) == StateClass::Observer
    }

    fn static_class(&self, name: &str) -> StateClass {
        if self.observer_statics.contains(name) {
            StateClass::Observer
        } else {
            StateClass::Sim
        }
    }
}

fn annotation_for(line: u32, anns: &StateAnnotations) -> Option<StateClass> {
    anns.get(&line)
        .or_else(|| line.checked_sub(1).and_then(|l| anns.get(&l)))
        .copied()
}

fn collect_types(items: &[Item], anns: &StateAnnotations, m: &mut StateModel) {
    for item in items {
        match &item.kind {
            ItemKind::Struct(st)
                if annotation_for(item.span.line, anns) == Some(StateClass::Observer) =>
            {
                m.observer_types.insert(st.name.clone());
            }
            ItemKind::Const(c) if annotation_for(c.line, anns) == Some(StateClass::Observer) => {
                m.observer_statics.insert(c.name.clone());
            }
            ItemKind::Mod(md) if !md.cfg_test => collect_types(&md.items, anns, m),
            _ => {}
        }
    }
}

fn collect_fields(items: &[Item], anns: &StateAnnotations, m: &mut StateModel) {
    for item in items {
        match &item.kind {
            ItemKind::Struct(st) => {
                let owner_observer = m.observer_types.contains(&st.name);
                for field in &st.fields {
                    if field.ty.idents.iter().any(|i| i == "SystemConfig") {
                        m.config_fields.insert(field.name.clone());
                    }
                    if field.ty.idents.iter().any(|i| m.observer_types.contains(i))
                        || annotation_for(field.line, anns) == Some(StateClass::Observer)
                    {
                        m.gate_fields.insert(field.name.clone());
                    }
                    let class = annotation_for(field.line, anns).unwrap_or({
                        let ty_observer =
                            field.ty.idents.iter().any(|i| m.observer_types.contains(i));
                        if owner_observer || ty_observer {
                            StateClass::Observer
                        } else {
                            StateClass::Sim
                        }
                    });
                    m.field_class
                        .entry(field.name.clone())
                        .and_modify(|c| {
                            if *c != class {
                                *c = StateClass::Sim;
                            }
                        })
                        .or_insert(class);
                }
            }
            ItemKind::Mod(md) if !md.cfg_test => collect_fields(&md.items, anns, m),
            _ => {}
        }
    }
}

/// Where a tracked value points: the root the analysis can name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Origin {
    /// A plain local; writes cannot escape the function.
    Local,
    /// Derived from parameter `idx`, optionally through one projected
    /// field (`self.tracer.log` keeps the *first* projection,
    /// `tracer` — the classification anchor).
    Param { idx: usize, field: Option<String> },
    /// A module-level `static`.
    Static(String),
}

/// `origin_of`'s result: the origin plus the root binding (name and
/// scope depth) when the lvalue is rooted at a named binding — the
/// capture-write check needs the depth even for plain locals.
#[derive(Debug)]
struct Resolved {
    origin: Option<Origin>,
    root: Option<(String, usize)>,
}

/// The write half of the body walker.
impl Walker<'_> {
    /// Resolves what an lvalue (or reference expression) names. Walks
    /// through field projections, indexing, `&`/`*`, `?`, casts, and
    /// reference-projecting methods.
    fn origin_of(&self, e: &Expr) -> Resolved {
        match &e.kind {
            ExprKind::Path(segs) if segs.len() == 1 => {
                let name = &segs[0];
                if let Some((depth, origin)) = self.resolve(name) {
                    Resolved {
                        origin: Some(origin),
                        root: Some((name.clone(), depth)),
                    }
                } else {
                    Resolved {
                        origin: is_screaming(name).then(|| Origin::Static(name.clone())),
                        root: None,
                    }
                }
            }
            ExprKind::Field { recv, name } => {
                let mut r = self.origin_of(recv);
                if let Some(Origin::Param { field, .. }) = &mut r.origin {
                    if field.is_none() {
                        *field = Some(name.clone());
                    }
                }
                r
            }
            ExprKind::Index { recv, .. } => self.origin_of(recv),
            ExprKind::Unary { expr } | ExprKind::Try { expr } => self.origin_of(expr),
            ExprKind::Cast { expr, .. } => self.origin_of(expr),
            ExprKind::MethodCall { recv, method, .. }
                if PROJECTION_METHODS.contains(&method.as_str()) =>
            {
                self.origin_of(recv)
            }
            _ => Resolved {
                origin: None,
                root: None,
            },
        }
    }

    /// The origin a `let` binding takes from its initializer. Only
    /// reference-like initializers alias their source: `&mut x`, a
    /// rebound reference, a projecting method. A bare field/method read
    /// is a copy or a move — writes to it stay local.
    pub(crate) fn let_origin(&self, init: &Expr) -> Origin {
        let origin = match &init.kind {
            ExprKind::Unary { expr } => self.origin_of(expr).origin,
            ExprKind::Path(segs) if segs.len() == 1 => self.resolve(&segs[0]).map(|(_, o)| o),
            ExprKind::MethodCall { recv, method, .. }
                if PROJECTION_METHODS.contains(&method.as_str()) =>
            {
                self.origin_of(recv).origin
            }
            _ => None,
        };
        origin.unwrap_or(Origin::Local)
    }

    /// Classifies a composed write through parameter `idx` (first
    /// projection `field`, empty = the pointee itself).
    fn write_class(&self, idx: usize, field: &str) -> StateClass {
        if self.param_observer.get(idx).copied().unwrap_or(false) {
            return StateClass::Observer;
        }
        if field.is_empty() {
            StateClass::Sim
        } else {
            self.ctx.model.field_class(field)
        }
    }

    /// Reports a write to binding `root` (at scope `depth`) from inside
    /// a thread-crossing closure that captured it.
    fn capture_write(&mut self, root: &str, depth: usize, at: &Expr) {
        if self.crossing(depth).is_some() {
            let msg = format!(
                "closure passed to a thread-crossing call writes captured `{root}` — \
                 per-shard results must be merged by index, not by shared mutation"
            );
            self.report_once(SHARD_CROSS_THREAD, at, msg);
        }
    }

    /// Records a direct write through `resolved` at `e` (an assignment
    /// target or a mutated receiver), updating the summary and firing
    /// the check-mode rules.
    fn record_write(&mut self, resolved: &Resolved, e: &Expr, what: &str) {
        if let Some((root, depth)) = &resolved.root {
            self.capture_write(root, *depth, e);
        }
        match resolved.origin.clone() {
            Some(Origin::Param { idx, field }) => {
                let field = field.unwrap_or_default();
                if self.write_class(idx, &field) == StateClass::Sim {
                    if self.gated() {
                        let target = self.describe_param_write(idx, &field);
                        self.report_once(
                            OBSERVER_PURITY,
                            e,
                            format!(
                                "observation-gated code writes sim state {target} ({what}) — \
                                 observer layers must not perturb the simulation"
                            ),
                        );
                    }
                    self.summary.sim_writes.insert((idx, field));
                }
            }
            Some(Origin::Static(name)) => {
                if self.ctx.model.static_class(&name) == StateClass::Sim {
                    self.report_once(
                        SHARD_SHARED_STATE,
                        e,
                        format!(
                            "static `{name}` is written here ({what}) — per-shard runs \
                             must not communicate through process globals"
                        ),
                    );
                    if self.gated() {
                        self.report_once(
                            OBSERVER_PURITY,
                            e,
                            format!("observation-gated code writes static `{name}` ({what})"),
                        );
                    }
                    self.summary.sim_statics.insert(name);
                }
            }
            Some(Origin::Local) | None => {}
        }
    }

    fn describe_param_write(&self, idx: usize, field: &str) -> String {
        if idx == 0 && self.summary.has_self {
            if field.is_empty() {
                "`self`".to_owned()
            } else {
                format!("`self.{field}`")
            }
        } else if field.is_empty() {
            format!("parameter {idx}")
        } else {
            format!("`.{field}` of parameter {idx}")
        }
    }

    /// Applies a known callee's write effects at a call site: its
    /// parameter writes compose onto the expressions bound to those
    /// parameters (`slots`, as the flow half binds them).
    pub(crate) fn apply_writes(
        &mut self,
        e: &Expr,
        callee: &str,
        s: &FnSummary,
        slots: &[(usize, &Expr, Facts)],
    ) {
        let mut gated_hits: Vec<String> = Vec::new();
        for (j, f) in &s.sim_writes {
            let Some(&(_, target, _)) = slots.iter().find(|(idx, ..)| idx == j) else {
                continue;
            };
            match self.origin_of(target).origin {
                Some(Origin::Param { idx, field }) => {
                    // The caller's projection is the classification
                    // anchor: writing `callee(&mut self.stats)` where the
                    // callee touches `.count` is a write to `self.stats`.
                    let field = field.or_else(|| (!f.is_empty()).then(|| f.clone()));
                    let field = field.unwrap_or_default();
                    if self.write_class(idx, &field) == StateClass::Sim {
                        if self.gated() {
                            gated_hits.push(self.describe_param_write(idx, &field));
                        }
                        self.summary.sim_writes.insert((idx, field));
                    }
                }
                Some(Origin::Static(name))
                    if self.ctx.model.static_class(&name) == StateClass::Sim =>
                {
                    if self.gated() {
                        gated_hits.push(format!("static `{name}`"));
                    }
                    self.summary.sim_statics.insert(name);
                }
                Some(Origin::Static(_) | Origin::Local) => {}
                // An unresolvable target (a temporary, an untracked
                // accessor return): conservatively assume the callee's
                // sim write lands somewhere real when observation-gated.
                None if self.gated() => {
                    gated_hits.push(format!("`{}`", describe_expr(target)));
                }
                None => {}
            }
        }
        for name in &s.sim_statics {
            if self.ctx.model.static_class(name) == StateClass::Sim {
                if self.gated() {
                    gated_hits.push(format!("static `{name}`"));
                }
                self.summary.sim_statics.insert(name.clone());
            }
        }
        if !gated_hits.is_empty() {
            gated_hits.dedup();
            let msg = format!(
                "observation-gated call to `{callee}` may write sim state ({}) — \
                 observer layers must not perturb the simulation",
                gated_hits.join(", ")
            );
            self.report_once(OBSERVER_PURITY, e, msg);
        }
    }

    /// The write side of a method call: a `validate()` freeze, the
    /// callee's summarized writes, or — for a method the workspace does
    /// not define — the mutating-method heuristic on the receiver.
    pub(crate) fn method_writes(
        &mut self,
        e: &Expr,
        recv: &Expr,
        method: &str,
        argc: usize,
        summary: Option<&FnSummary>,
        slots: &[(usize, &Expr, Facts)],
    ) {
        if method == "validate" && argc == 0 {
            if let (ExprKind::Path(segs), Some(c)) = (&recv.kind, self.check.as_mut()) {
                if let [name] = segs.as_slice() {
                    if let Some(frozen) = c.cfg_bindings.get_mut(name) {
                        *frozen = true;
                    }
                }
            }
        }
        match summary {
            Some(s) if s.has_self => self.apply_writes(e, method, s, slots),
            Some(_) => {}
            None if is_mutating_method(method, argc) => {
                let resolved = self.origin_of(recv);
                self.record_write(&resolved, e, &format!("`.{method}(..)`"));
            }
            None => {}
        }
    }

    /// The write side of an assignment. A plain-path assignment rebinds
    /// a local or by-value parameter, which cannot escape the function
    /// — unless the binding was captured across a thread boundary.
    /// Writes through a projection or deref are effects.
    pub(crate) fn assign_writes(&mut self, lhs: &Expr) {
        let resolved = self.origin_of(lhs);
        if matches!(&lhs.kind, ExprKind::Path(_)) {
            if let Some((root, depth)) = &resolved.root {
                self.capture_write(root, *depth, lhs);
            }
        } else {
            self.check_frozen_config(lhs);
            self.record_write(&resolved, lhs, "assignment");
        }
    }

    /// Opens an observation gate if `cond` is one (check mode only);
    /// returns whether it did, for [`exit_gate`](Self::exit_gate).
    pub(crate) fn enter_gate(&mut self, cond: &Expr) -> bool {
        let Some(c) = self.check.as_mut() else {
            return false;
        };
        let gate = is_gated_cond(cond, self.ctx.model);
        c.gate_depth += u32::from(gate);
        gate
    }

    pub(crate) fn exit_gate(&mut self, gate: bool) {
        if let Some(c) = self.check.as_mut() {
            c.gate_depth -= u32::from(gate);
        }
    }

    /// Tracks `let` bindings that hold a `SystemConfig` for the
    /// frozen-config rule (by type ascription, constructor path, or a
    /// clone of an already-tracked binding).
    pub(crate) fn track_config_binding(
        &mut self,
        name: &str,
        ty: Option<&TypeRef>,
        init: Option<&Expr>,
    ) {
        let Some(c) = self.check.as_mut() else { return };
        let is_config = ty.is_some_and(|t| t.idents.iter().any(|i| i == "SystemConfig"))
            || init.is_some_and(|e| match &e.kind {
                ExprKind::Call { callee, .. } => match &callee.kind {
                    ExprKind::Path(segs) => segs.iter().any(|s| s == "SystemConfig"),
                    _ => false,
                },
                ExprKind::StructLit { path, .. } => path.iter().any(|s| s == "SystemConfig"),
                ExprKind::MethodCall { recv, method, .. } if method == "clone" => {
                    matches!(&recv.kind, ExprKind::Path(segs)
                        if segs.len() == 1 && c.cfg_bindings.contains_key(&segs[0]))
                }
                _ => false,
            });
        if is_config {
            c.cfg_bindings.insert(name.to_owned(), false);
        }
    }

    /// The frozen-config check for an assignment target: a field write
    /// into a validated binding, or through a stored config field.
    fn check_frozen_config(&mut self, lhs: &Expr) {
        let Some(c) = self.check.as_ref() else { return };
        if self.owner == Some("SystemConfig") {
            return;
        }
        let (root, fields) = field_chain(lhs);
        if fields.is_empty() {
            return;
        }
        // The written field is the last element; everything before it
        // is the access path. A config anywhere on the path means the
        // write lands inside a stored (hence validated) config.
        let path = &fields[..fields.len() - 1];
        let via_stored = path
            .iter()
            .any(|f| self.ctx.model.config_fields.contains(f));
        let via_frozen = root.is_some_and(|r| c.cfg_bindings.get(&r).copied().unwrap_or(false));
        if via_stored || via_frozen {
            let target = fields.join(".");
            let why = if via_frozen {
                "after `validate()` returned"
            } else {
                "through a stored config (post-validate by construction)"
            };
            self.report_once(
                FROZEN_CONFIG,
                lhs,
                format!(
                    "`SystemConfig` field `{target}` is mutated {why} — validated \
                     configs are frozen; build, then validate, then run"
                ),
            );
        }
    }

    /// Names bound by `if let` / `while let` conditions, with the
    /// origin of the unwrapped scrutinee: `if let Some(m) =
    /// self.metrics.as_mut()` binds `m` to `self.metrics`, so writes
    /// through `m` classify by the `metrics` field.
    pub(crate) fn cond_bindings(&self, cond: &Expr, out: &mut Vec<(String, Origin)>) {
        match &cond.kind {
            ExprKind::LetCond { names, expr } => {
                // A binding unwrapped out of an observer-typed field
                // (`if let Some(m) = self.metrics.as_mut()`) IS the
                // observer: writes through it are observation state no
                // matter what class the field *name* resolves to under
                // the workspace-wide conflict rule.
                let mut origin = self.origin_of(expr).origin.unwrap_or(Origin::Local);
                if let Origin::Param { field: Some(f), .. } = &origin {
                    if self.ctx.model.is_gate_field(f) {
                        origin = Origin::Local;
                    }
                }
                for n in names {
                    out.push((n.clone(), origin.clone()));
                }
            }
            ExprKind::Binary { lhs, rhs, .. } => {
                self.cond_bindings(lhs, out);
                self.cond_bindings(rhs, out);
            }
            ExprKind::Unary { expr } => self.cond_bindings(expr, out),
            _ => {}
        }
    }
}

/// Whether an unknown method mutates its receiver. `take` only counts
/// with no arguments (`Option::take`), not `Iterator::take(n)`.
fn is_mutating_method(method: &str, argc: usize) -> bool {
    if method == "take" {
        return argc == 0;
    }
    MUTATING_METHODS.contains(&method)
}

/// SCREAMING_CASE test for bare paths that name statics/consts.
fn is_screaming(name: &str) -> bool {
    name.len() > 1
        && name
            .chars()
            .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_')
        && name.chars().any(|c| c.is_ascii_uppercase())
}

/// Decomposes an lvalue into its root binding and field path, e.g.
/// `self.cfg.population` → (`Some("self")`, `["cfg", "population"]`).
fn field_chain(e: &Expr) -> (Option<String>, Vec<String>) {
    match &e.kind {
        ExprKind::Path(segs) if segs.len() == 1 => (Some(segs[0].clone()), Vec::new()),
        ExprKind::Field { recv, name } => {
            let (root, mut fields) = field_chain(recv);
            fields.push(name.clone());
            (root, fields)
        }
        ExprKind::Index { recv, .. } | ExprKind::Unary { expr: recv } => field_chain(recv),
        _ => (None, Vec::new()),
    }
}

/// Whether a condition gates on observation being enabled: it reads a
/// `cfg.trace` / `cfg.metrics` / `cfg.prof` flag, or unwraps an
/// observer-classified optional field (`self.metrics.as_mut()`).
fn is_gated_cond(cond: &Expr, model: &StateModel) -> bool {
    let mut gated = false;
    walk_expr(cond, &mut |e| {
        gated |= match &e.kind {
            ExprKind::Field { recv, name } => {
                GATE_FLAGS.contains(&name.as_str()) && mentions_cfg(recv)
            }
            ExprKind::MethodCall { recv, method, .. } => {
                matches!(method.as_str(), "as_mut" | "as_ref" | "is_some")
                    && matches!(&recv.kind, ExprKind::Field { name, .. } if model.is_gate_field(name))
            }
            _ => false,
        };
    });
    gated
}

/// Whether an expression mentions a config receiver (`cfg`, `self.cfg`,
/// `sim.model().cfg`, ...).
fn mentions_cfg(e: &Expr) -> bool {
    let mut found = false;
    walk_expr(e, &mut |sub| match &sub.kind {
        ExprKind::Path(segs) if segs.iter().any(|s| s == "cfg" || s == "config") => found = true,
        ExprKind::Field { name, .. } if name == "cfg" || name == "config" => found = true,
        _ => {}
    });
    found
}

/// Short rendering of a call target for messages.
fn describe_expr(e: &Expr) -> String {
    match &e.kind {
        ExprKind::Path(segs) => segs.join("::"),
        ExprKind::Field { recv, name } => format!("{}.{name}", describe_expr(recv)),
        ExprKind::MethodCall { recv, method, .. } => {
            format!("{}.{method}(..)", describe_expr(recv))
        }
        ExprKind::Unary { expr } | ExprKind::Try { expr } => describe_expr(expr),
        ExprKind::Index { recv, .. } => format!("{}[..]", describe_expr(recv)),
        _ => "<expr>".to_owned(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::walk_fns;
    use crate::callgraph::{build, Summaries};
    use crate::dataflow::{check_fn, Ctx, FlowFamilies};
    use crate::lexer::lex;
    use crate::parser::parse_file;
    use crate::report::Finding;
    use crate::symbols::{parse_state_annotations, parse_unit_annotations, Symbols};

    /// Full single-file pipeline: model, summaries, then the checker
    /// with both sim and shard scope enabled.
    fn run(src: &str) -> (StateModel, Summaries, Vec<Finding>) {
        let toks = lex(src);
        let file = parse_file(&toks);
        let (state_anns, bad) = parse_state_annotations(&toks);
        assert!(bad.is_empty(), "{bad:?}");
        let anns = parse_unit_annotations(&toks).0;
        let symbols = Symbols::build(&[(&file, &anns)]);
        let model = StateModel::build(&[(&file, &state_anns)]);
        let table = build(&[(&file, &anns)], &symbols, &model);
        let ctx = Ctx {
            symbols: &symbols,
            anns: &anns,
            model: &model,
            summaries: &table,
        };
        let mut out = Vec::new();
        walk_fns(&file, &mut |owner, f| {
            out.extend(check_fn(f, owner, ctx, FlowFamilies::all(), true, "x.rs"));
        });
        (model, table, out)
    }

    #[test]
    fn conflicting_field_classes_resolve_to_sim() {
        let (model, _, _) = run("// simlint::state(observer)\n\
             pub struct Probe { pub depth: u64 }\n\
             pub struct Queue { pub depth: u64 }\n");
        assert!(model.is_observer_type("Probe"));
        // `depth` is observer state on Probe but sim state on Queue;
        // the name-granular model must keep the load-bearing class.
        assert_eq!(model.field_class("depth"), StateClass::Sim);
    }

    #[test]
    fn annotated_static_is_observer_and_its_writes_vanish() {
        let (model, table, _) = run("// simlint::state(observer)\n\
             pub static SAMPLE_COUNT: AtomicU64 = AtomicU64::new(0);\n\
             pub fn bump() {\n    SAMPLE_COUNT.fetch_add(1, Ordering::Relaxed);\n}\n");
        assert_eq!(model.static_class("SAMPLE_COUNT"), StateClass::Observer);
        assert_eq!(table.get("bump").unwrap().describe(), "pure");
    }

    #[test]
    fn frozen_config_follows_clones() {
        let (_, _, findings) = run("pub struct SystemConfig { pub retries: u64 }\n\
             pub fn setup() -> u64 {\n\
                 let cfg = SystemConfig { retries: 0 };\n\
                 let mut copy = cfg.clone();\n\
                 copy.validate();\n\
                 copy.retries = 3;\n\
                 copy.retries\n\
             }\n");
        let frozen: Vec<_> = findings
            .iter()
            .filter(|f| f.rule == "frozen-config")
            .collect();
        assert_eq!(frozen.len(), 1, "{findings:?}");
        assert_eq!(frozen[0].line, 6, "{frozen:?}");
    }

    #[test]
    fn gate_survives_a_name_conflict_with_sim_state() {
        // The workspace has `metrics` both as an observer handle
        // (`Option<LiveMetrics>`) and as plain config state
        // (`MetricsConfig` on `SystemConfig`). The name-granular class
        // demotes `metrics` to sim — but `self.metrics.as_mut()` must
        // stay an observation gate (declaration *type* decides), and
        // writes through the unwrapped binding must stay pure.
        let src = "\
            pub struct MetricsConfig { pub window_us: u64 }\n\
            pub struct SystemConfig { pub metrics: MetricsConfig }\n\
            pub struct Sys { pub metrics: Option<LiveMetrics>, pub ticks: u64 }\n\
            impl Sys {\n\
                fn step(&mut self) {\n\
                    self.ticks += 1;\n\
                }\n\
                pub fn sample(&mut self) {\n\
                    if let Some(m) = self.metrics.as_mut() {\n\
                        m.record(1);\n\
                        self.step();\n\
                    }\n\
                }\n\
            }\n";
        let (model, _, findings) = run(src);
        assert_eq!(model.field_class("metrics"), StateClass::Sim);
        assert!(model.is_gate_field("metrics"));
        let purity: Vec<_> = findings
            .iter()
            .filter(|f| f.rule == "observer-purity")
            .collect();
        // Exactly one finding: the gated `self.step()` helper call.
        // `m.record(1)` writes the observer and must not be flagged.
        assert_eq!(purity.len(), 1, "{findings:?}");
        assert!(purity[0].message.contains("step"), "{:?}", purity[0]);
    }

    #[test]
    fn render_marks_conflicting_arities() {
        let (_, table, _) = run("pub mod a { pub fn poll(x: u64) -> u64 { x } }\n\
             pub mod b { pub fn poll(x: u64, y: u64) -> u64 { x + y } }\n");
        assert!(table.get("poll").is_none());
        assert!(
            table.render().contains("poll: <conflicting arities>"),
            "{}",
            table.render()
        );
    }

    #[test]
    fn observer_impl_methods_may_not_write_sim_state() {
        // An observer type's own methods are observation context from
        // line one — no `cfg.trace` guard needed for their writes to
        // foreign sim state to count.
        let (_, _, findings) = run("pub struct Tracer { pub events: u64 }\n\
             pub struct Wheel { pub slots: u64 }\n\
             impl Tracer {\n\
                 pub fn poke(&mut self, w: &mut Wheel) {\n\
                     self.events += 1;\n\
                     w.slots += 1;\n\
                 }\n\
             }\n");
        let purity: Vec<_> = findings
            .iter()
            .filter(|f| f.rule == "observer-purity")
            .collect();
        assert_eq!(purity.len(), 1, "{findings:?}");
        assert!(purity[0].message.contains("slots"), "{:?}", purity[0]);
    }
}
