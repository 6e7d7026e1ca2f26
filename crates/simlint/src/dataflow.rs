//! The body walker: nondeterminism taint, time units, shard safety and
//! write effects, in one forward pass per function body.
//!
//! The walk maintains one scope stack whose bindings carry both the
//! value's [`Facts`] and the write [`Origin`] of what it points into:
//!
//! * **taint** — the value (transitively) originates from a
//!   nondeterministic source: hash-collection iteration, `Instant`/
//!   `SystemTime` wall-clock reads, or ambient RNG. Taint propagates
//!   through lets, operators, calls, struct fields and loop bindings,
//!   and is reported when it reaches an event-scheduling sink
//!   (`schedule`/`push`) or a `SimTime`/`SimDuration` construction.
//! * **unit** — the declared time unit (µs/ms/s) carried by the value,
//!   inferred from the naming convention (`_us`/`_ms`/`_secs` suffixes,
//!   `micros`/`millis`/`secs` parameter names) or an explicit
//!   `// simlint::unit(us)` annotation, and from unit-typed accessors
//!   (`.as_micros()` yields µs). Mismatches are reported where units
//!   meet: constructor arguments, unit-suffixed parameters and fields,
//!   additive arithmetic and comparisons. Multiplication and division
//!   legitimately change units, so they erase the fact instead.
//! * **shard safety** — values that cross a thread boundary. A tainted
//!   or hash-ordered binding captured by a closure passed to
//!   `thread::scope`/`spawn`/`par_runs`, or sent through a channel, is
//!   a `shard-cross-thread` finding, and so is such a closure *writing*
//!   a captured binding; a value received from a channel carries a
//!   *completion-order* fact, and aggregating it by arrival
//!   (`.push`/`.extend`) instead of by index is a `shard-order-agg`
//!   finding.
//! * **write effects** — which parameters and statics the body may
//!   write sim state through. The write half of the walker (lvalue
//!   resolution, sim-vs-observer classification, observation gates,
//!   the frozen-config tracker) lives in `effects.rs`.
//!
//! The walker runs in two modes. In *summarize* mode — inside the
//! solver in `callgraph.rs` — it reports nothing: parameters are seeded
//! with one bit each, and the bits surviving to `return` / sink
//! positions, the return unit and the sim writes become the function's
//! [`FnSummary`]. In *check* mode — from `rules::check_ast` — it
//! reports, consulting the summaries at call sites: a taint laundered
//! through helper calls still reaches its sink, a helper whose body
//! schedules its argument turns every call site into a sink, and an
//! observation-gated call to a helper that writes sim state is an
//! `observer-purity` finding.
//!
//! The analysis stays deliberately conservative in the other direction:
//! one pass per body, branch facts don't merge back, and unknown calls
//! propagate argument taint but never invent it. Under the workspace's
//! other lint rules the sources are individually banned, so this layer
//! is defense-in-depth: it catches flows from *suppressed* sources and
//! from future code the lexer rules can't see.

use std::collections::{BTreeMap, BTreeSet};

use crate::ast::{Block, Expr, ExprKind, Func, Lit, StmtKind};
use crate::callgraph::{FnSummary, Summaries};
use crate::effects::{Origin, StateModel, SHARD_CROSS_THREAD};
use crate::report::Finding;
use crate::symbols::{declared_unit, unit_from_name, Symbols, Unit, UnitAnnotations, HASH_TYPES};

/// Rule name for nondeterminism reaching event scheduling.
pub const NONDET_TAINT: &str = "nondet-taint";
/// Rule name for time-unit mismatches.
pub const TIME_UNIT: &str = "time-unit";
/// Rule name for completion-order aggregation of fan-out results.
pub const SHARD_ORDER_AGG: &str = "shard-order-agg";

/// Which finding families a given file gets reports for. Tracking
/// always runs in full; only *reporting* is gated, so e.g. taint facts
/// still feed the cross-thread rule in files where plain `nondet-taint`
/// is off.
#[derive(Debug, Clone, Copy)]
pub struct FlowFamilies {
    /// Report `nondet-taint`.
    pub taint: bool,
    /// Report `time-unit`.
    pub unit: bool,
    /// Report `shard-cross-thread` / `shard-order-agg`.
    pub shard: bool,
}

impl FlowFamilies {
    /// Every family — sim-crate library code.
    pub fn all() -> FlowFamilies {
        FlowFamilies {
            taint: true,
            unit: true,
            shard: true,
        }
    }

    /// Shard safety only — the bench crate legitimately reads the wall
    /// clock for throughput numbers, but its fan-outs must still keep
    /// nondeterminism out of cross-thread traffic.
    pub fn shard_only() -> FlowFamilies {
        FlowFamilies {
            taint: false,
            unit: false,
            shard: true,
        }
    }
}

/// What kind of nondeterminism a taint originates from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaintKind {
    /// Iteration order of a hash-keyed collection.
    HashIter,
    /// `Instant`/`SystemTime` wall-clock reads.
    WallClock,
    /// Ambient (OS-seeded) RNG.
    Rng,
}

impl TaintKind {
    fn label(self) -> &'static str {
        match self {
            TaintKind::HashIter => "hash-ordered iteration",
            TaintKind::WallClock => "wall-clock time",
            TaintKind::Rng => "ambient RNG",
        }
    }
}

/// A taint fact: what and where it came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Taint {
    kind: TaintKind,
    origin_line: u32,
}

/// Abstract value carried by an expression or binding.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Facts {
    taint: Option<Taint>,
    unit: Option<Unit>,
    /// The value is (or contains) a hash-ordered collection.
    hashy: bool,
    /// Bitmask of enclosing-function parameters this value depends on
    /// (param *i* is seeded with bit *i*; check mode keeps the bits
    /// flowing so summaries compose, but never reports them).
    params: u32,
    /// The value was received from a channel, so its identity depends
    /// on cross-thread completion order.
    completion: bool,
    /// The value is a channel endpoint (`channel()` / `sync_channel()`).
    channel: bool,
}

impl Facts {
    fn tainted(kind: TaintKind, line: u32) -> Facts {
        Facts {
            taint: Some(Taint {
                kind,
                origin_line: line,
            }),
            ..Facts::default()
        }
    }

    /// Merges two control-flow alternatives (taint wins, units must
    /// agree to survive).
    fn join(self, other: Facts) -> Facts {
        Facts {
            taint: self.taint.or(other.taint),
            unit: if self.unit == other.unit {
                self.unit
            } else {
                None
            },
            hashy: self.hashy || other.hashy,
            params: self.params | other.params,
            completion: self.completion || other.completion,
            channel: self.channel || other.channel,
        }
    }
}

/// Methods whose result order depends on hash state when the receiver
/// is a hash-ordered collection.
const ORDER_SENSITIVE: [&str; 10] = [
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "drain",
    "entries",
    "into_keys",
    "into_values",
];

/// Methods that preserve the receiver's unit (and whose first argument,
/// if unit-carrying, must agree with the receiver).
const UNIT_PRESERVING: [&str; 12] = [
    "min",
    "max",
    "clamp",
    "saturating_add",
    "saturating_sub",
    "wrapping_add",
    "wrapping_sub",
    "checked_add",
    "checked_sub",
    "abs_diff",
    "clone",
    "unwrap_or",
];

/// Method/function names that schedule events or enqueue work — the
/// taint sinks.
const SINK_METHODS: [&str; 4] = ["schedule", "schedule_at", "push", "push_at"];

/// Functions/methods whose closure argument runs on another thread.
const CROSS_THREAD_FNS: [&str; 3] = ["spawn", "scope", "par_runs"];

/// Channel receives: the value's identity depends on completion order.
const RECV_METHODS: [&str; 3] = ["recv", "try_recv", "recv_timeout"];

/// Aggregation methods that append in call order; feeding them a
/// completion-ordered value makes the aggregate order-sensitive.
const AGG_METHODS: [&str; 5] = ["push", "extend", "insert", "push_back", "append"];

/// Workspace-wide inputs a body walk reads.
#[derive(Debug, Clone, Copy)]
pub struct Ctx<'a> {
    /// Cross-file symbol facts (units, hash-returning functions).
    pub symbols: &'a Symbols,
    /// The unit annotations of the file the body lives in.
    pub anns: &'a UnitAnnotations,
    /// The sim-vs-observer state classification.
    pub model: &'a StateModel,
    /// Callee summaries (partial while the solver is running).
    pub summaries: &'a Summaries,
}

/// Computes one function's [`FnSummary`]: the walker in summarize mode
/// (no findings, the trailing expression counted as a return).
pub fn summarize_fn(func: &Func, owner: Option<&str>, ctx: Ctx<'_>) -> FnSummary {
    let mut w = Walker::new(func, owner, ctx, None);
    if let Some(body) = &func.body {
        let trailing = w.run_block(body);
        w.record_return(trailing);
    }
    w.summary
}

/// Checks one function body, returning its findings attributed to
/// `path`. `families` gates the flow rules; `sim` (sim-crate library
/// code) enables `observer-purity`, `frozen-config` and the static-write
/// upgrade of `shard-shared-state`.
pub fn check_fn(
    func: &Func,
    owner: Option<&str>,
    ctx: Ctx<'_>,
    families: FlowFamilies,
    sim: bool,
    path: &str,
) -> Vec<Finding> {
    let Some(body) = &func.body else {
        return Vec::new();
    };
    let check = Check {
        path,
        families,
        sim,
        gate_depth: 0,
        cfg_bindings: BTreeMap::new(),
        reported_captures: BTreeSet::new(),
        reported_writes: BTreeSet::new(),
        findings: Vec::new(),
    };
    let mut w = Walker::new(func, owner, ctx, Some(check));
    w.run_block(body);
    w.check.map(|c| c.findings).unwrap_or_default()
}

/// Check-mode state: what reports, and per-body bookkeeping.
pub(crate) struct Check<'a> {
    path: &'a str,
    families: FlowFamilies,
    sim: bool,
    /// Observation-gate nesting depth; > 0 means this code only runs
    /// when tracing/metrics/profiling is enabled.
    pub(crate) gate_depth: u32,
    /// `SystemConfig` bindings in this body → frozen (validate seen)?
    pub(crate) cfg_bindings: BTreeMap<String, bool>,
    /// (boundary id, name) pairs already reported, so one captured
    /// binding used five times yields one finding.
    reported_captures: BTreeSet<(usize, String)>,
    /// `(line, col, rule)` write findings already reported.
    reported_writes: BTreeSet<(u32, u32, &'static str)>,
    findings: Vec<Finding>,
}

impl Check<'_> {
    fn enables(&self, rule: &str) -> bool {
        match rule {
            NONDET_TAINT => self.families.taint,
            TIME_UNIT => self.families.unit,
            SHARD_CROSS_THREAD | SHARD_ORDER_AGG => self.families.shard,
            // The write rules: observer-purity, frozen-config and the
            // static-write upgrade of shard-shared-state.
            _ => self.sim,
        }
    }
}

/// One binding on the walker's scope stack.
#[derive(Debug, Clone)]
struct Binding {
    facts: Facts,
    /// Where writes through the binding land. `None` marks a flow-only
    /// binding — a tracked assignment target, or an `if let` name
    /// outliving its block — that write resolution looks through.
    origin: Option<Origin>,
}

/// The one walker over function bodies (see the module docs).
pub(crate) struct Walker<'a> {
    pub(crate) ctx: Ctx<'a>,
    pub(crate) owner: Option<&'a str>,
    /// Per parameter: its declared type mentions an observer type (or
    /// it is `self` of an observer impl), so writes through it are
    /// observer-class regardless of field.
    pub(crate) param_observer: Vec<bool>,
    scopes: Vec<BTreeMap<String, Binding>>,
    /// Active thread-crossing closures: (scope depth at entry, id).
    /// A binding resolved from a scope *below* the entry depth was
    /// captured across the thread boundary.
    boundaries: Vec<(usize, usize)>,
    next_boundary: usize,
    /// The summary accumulated so far (kept in both modes).
    pub(crate) summary: FnSummary,
    /// Two return paths disagreed on their unit, so `returns_unit`
    /// stays `None`.
    returns_unit_conflict: bool,
    /// `Some` in check mode.
    pub(crate) check: Option<Check<'a>>,
}

impl<'a> Walker<'a> {
    fn new(
        func: &Func,
        owner: Option<&'a str>,
        ctx: Ctx<'a>,
        mut check: Option<Check<'a>>,
    ) -> Walker<'a> {
        let owner_observer = owner.is_some_and(|o| ctx.model.is_observer_type(o));
        if let Some(c) = check.as_mut() {
            // Everything inside an observer impl only runs in service
            // of observation: the whole body is gated.
            c.gate_depth = u32::from(owner_observer);
        }
        let param_observer = func
            .params
            .iter()
            .map(|p| {
                let ty = p.ty.as_ref();
                (owner_observer && p.name.as_deref() == Some("self"))
                    || ty.is_some_and(|t| t.idents.iter().any(|i| ctx.model.is_observer_type(i)))
            })
            .collect();
        let mut w = Walker {
            ctx,
            owner,
            param_observer,
            scopes: vec![BTreeMap::new()],
            boundaries: Vec::new(),
            next_boundary: 0,
            summary: FnSummary::empty(func),
            returns_unit_conflict: false,
            check,
        };
        for (i, p) in func.params.iter().enumerate() {
            let Some(name) = &p.name else { continue };
            let facts = Facts {
                unit: declared_unit(name, p.line, ctx.anns),
                hashy: p.ty.as_ref().is_some_and(|t| t.mentions(&HASH_TYPES)),
                params: 1u32 << i.min(31),
                ..Facts::default()
            };
            w.bind(
                name.clone(),
                facts,
                Some(Origin::Param {
                    idx: i,
                    field: None,
                }),
            );
        }
        w
    }

    fn bind(&mut self, name: String, facts: Facts, origin: Option<Origin>) {
        if let Some(top) = self.scopes.last_mut() {
            top.insert(name, Binding { facts, origin });
        }
    }

    fn lookup(&self, name: &str) -> Option<Facts> {
        self.lookup_depth(name).map(|(_, f)| f)
    }

    /// Like [`lookup`](Self::lookup), also reporting which scope depth
    /// the binding lives at (for capture detection).
    fn lookup_depth(&self, name: &str) -> Option<(usize, Facts)> {
        self.scopes
            .iter()
            .enumerate()
            .rev()
            .find_map(|(d, s)| s.get(name).map(|b| (d, b.facts)))
    }

    /// The write origin of `name` and the depth of its binding,
    /// looking through flow-only bindings.
    pub(crate) fn resolve(&self, name: &str) -> Option<(usize, Origin)> {
        self.scopes.iter().enumerate().rev().find_map(|(d, s)| {
            let origin = s.get(name)?.origin.clone()?;
            Some((d, origin))
        })
    }

    /// The innermost thread-crossing closure a binding at `depth` was
    /// captured across, if any.
    pub(crate) fn crossing(&self, depth: usize) -> Option<usize> {
        self.boundaries
            .last()
            .filter(|(bd, _)| depth < *bd)
            .map(|&(_, id)| id)
    }

    fn report(&mut self, rule: &'static str, at: &Expr, message: String) {
        if let Some(c) = self.check.as_mut() {
            if c.enables(rule) {
                c.findings.push(Finding {
                    rule,
                    path: c.path.to_owned(),
                    line: at.span.line,
                    col: at.span.col,
                    message,
                    fingerprint: 0,
                });
            }
        }
    }

    /// [`report`](Self::report), at most once per `(line, col, rule)`.
    pub(crate) fn report_once(&mut self, rule: &'static str, at: &Expr, message: String) {
        let fresh = self
            .check
            .as_mut()
            .is_some_and(|c| c.reported_writes.insert((at.span.line, at.span.col, rule)));
        if fresh {
            self.report(rule, at, message);
        }
    }

    /// Code under an observation gate in sim-crate library code.
    pub(crate) fn gated(&self) -> bool {
        self.check
            .as_ref()
            .is_some_and(|c| c.sim && c.gate_depth > 0)
    }

    fn record_return(&mut self, f: Facts) {
        let s = &mut self.summary;
        s.param_to_return |= f.params;
        if s.returns_taint.is_none() {
            s.returns_taint = f.taint.map(|t| t.kind);
        }
        s.returns_hashy |= f.hashy;
        // A unit-carrying return path sets the unit once; a second
        // path with a *different* unit poisons the inference (the
        // helper has no single unit to report).
        if let Some(u) = f.unit {
            match s.returns_unit {
                None if !self.returns_unit_conflict => s.returns_unit = Some(u),
                Some(prev) if prev != u => {
                    s.returns_unit = None;
                    self.returns_unit_conflict = true;
                }
                _ => {}
            }
        }
    }

    /// A value arrived at a scheduling sink: report its taint and
    /// record which parameters reach the sink.
    fn sink_arg(&mut self, arg: &Expr, f: Facts, sink: &str) {
        if let Some(t) = f.taint {
            self.report(
                NONDET_TAINT,
                arg,
                format!(
                    "nondeterministic value ({} from line {}) flows into {}; \
                     event order must be a pure function of (config, seed)",
                    t.kind.label(),
                    t.origin_line,
                    sink
                ),
            );
        }
        self.summary.param_to_sink |= f.params;
    }

    fn unit_mismatch(&mut self, e: &Expr, got: Unit, want: Unit, context: &str) {
        if got == want {
            return;
        }
        self.report(
            TIME_UNIT,
            e,
            format!(
                "time-unit mismatch: {} carries {} but {} expects {}",
                describe(e),
                got.label(),
                context,
                want.label()
            ),
        );
    }

    /// A tainted/hash-ordered value crosses a thread boundary.
    fn cross_thread(&mut self, e: &Expr, f: Facts, how: &str) {
        let what = match f.taint {
            Some(t) => format!("{} from line {}", t.kind.label(), t.origin_line),
            None if f.hashy => "a hash-ordered collection".to_owned(),
            None => return,
        };
        self.report(
            SHARD_CROSS_THREAD,
            e,
            format!(
                "nondeterministic value ({what}) {how}; \
                 values crossing threads must be pure functions of (config, seed)"
            ),
        );
    }

    /// Runs a block in a fresh scope; returns the trailing expression's
    /// facts.
    fn run_block(&mut self, b: &Block) -> Facts {
        self.scopes.push(BTreeMap::new());
        let mut last = Facts::default();
        for stmt in &b.stmts {
            last = Facts::default();
            match &stmt.kind {
                StmtKind::Let { names, ty, init } => {
                    let init_facts = init.as_ref().map(|e| self.eval(e)).unwrap_or_default();
                    let ty_hashy = ty.as_ref().is_some_and(|t| t.mentions(&HASH_TYPES));
                    if names.len() == 1 {
                        let name = &names[0];
                        let declared = declared_unit(name, stmt.span.line, self.ctx.anns);
                        if let (Some(want), Some(got), Some(e)) =
                            (declared, init_facts.unit, init.as_ref())
                        {
                            self.unit_mismatch(e, got, want, &format!("`{name}`"));
                        }
                        self.track_config_binding(name, ty.as_ref(), init.as_ref());
                        let origin = init.as_ref().map_or(Origin::Local, |e| self.let_origin(e));
                        let facts = Facts {
                            unit: declared.or(init_facts.unit),
                            hashy: init_facts.hashy || ty_hashy,
                            ..init_facts
                        };
                        self.bind(name.clone(), facts, Some(origin));
                    } else {
                        for name in names {
                            let facts = Facts {
                                unit: unit_from_name(name),
                                ..init_facts
                            };
                            self.bind(name.clone(), facts, Some(Origin::Local));
                        }
                    }
                }
                StmtKind::Expr(e) => last = self.eval(e),
                StmtKind::Item(_) | StmtKind::Skipped => {}
            }
        }
        self.scopes.pop();
        last
    }

    /// Binds the names an `if let` / `while let` condition introduces,
    /// with the facts its evaluation gave them and their write origin.
    fn bind_cond(&mut self, cond: &Expr) {
        let mut bound = Vec::new();
        self.cond_bindings(cond, &mut bound);
        for (name, origin) in bound {
            let facts = self.lookup(&name).unwrap_or_default();
            self.bind(name, facts, Some(origin));
        }
    }

    fn eval(&mut self, e: &Expr) -> Facts {
        match &e.kind {
            ExprKind::Path(segs) => self.eval_path(e, segs),
            ExprKind::Lit(_) => Facts::default(),
            ExprKind::Call { callee, args } => self.eval_call(e, callee, args),
            ExprKind::MethodCall { recv, method, args } => self.eval_method(e, recv, method, args),
            ExprKind::Field { recv, name } => {
                let r = self.eval(recv);
                // A tracked `self.field` assignment earlier in the body
                // wins over the static field facts.
                if let Some(tracked) = lvalue_key(e).and_then(|k| self.lookup(&k)) {
                    return tracked;
                }
                Facts {
                    taint: r.taint,
                    unit: unit_from_name(name),
                    hashy: self.ctx.symbols.hash_fields.contains(name),
                    params: r.params,
                    completion: r.completion,
                    channel: false,
                }
            }
            ExprKind::Index { recv, index } => {
                let r = self.eval(recv);
                let i = self.eval(index);
                Facts {
                    taint: r.taint.or(i.taint),
                    params: r.params | i.params,
                    completion: r.completion,
                    ..Facts::default()
                }
            }
            ExprKind::Unary { expr } | ExprKind::Try { expr } => self.eval(expr),
            ExprKind::Cast { expr, .. } => self.eval(expr),
            ExprKind::Binary { op, lhs, rhs } => {
                let l = self.eval(lhs);
                let r = self.eval(rhs);
                let additive = matches!(*op, "+" | "-");
                let comparison = matches!(*op, "==" | "!=" | "<" | ">" | "<=" | ">=");
                if additive || comparison {
                    if let (Some(a), Some(b)) = (l.unit, r.unit) {
                        if a != b {
                            let what = if additive {
                                "additive arithmetic"
                            } else {
                                "comparison"
                            };
                            self.report(
                                TIME_UNIT,
                                e,
                                format!(
                                    "time-unit mismatch: {what} mixes {} ({}) and {} ({})",
                                    describe(lhs),
                                    a.label(),
                                    describe(rhs),
                                    b.label()
                                ),
                            );
                        }
                    }
                }
                Facts {
                    taint: l.taint.or(r.taint),
                    unit: if additive && l.unit == r.unit {
                        l.unit
                    } else {
                        None
                    },
                    params: l.params | r.params,
                    completion: l.completion || r.completion,
                    ..Facts::default()
                }
            }
            ExprKind::Assign { lhs, rhs, .. } => {
                let r = self.eval(rhs);
                // Unit check against the target's declared name.
                let target_name = match &lhs.kind {
                    ExprKind::Path(segs) if segs.len() == 1 => Some(segs[0].clone()),
                    ExprKind::Field { name, .. } => Some(name.clone()),
                    _ => None,
                };
                if let (Some(name), Some(got)) = (&target_name, r.unit) {
                    if let Some(want) = unit_from_name(name) {
                        self.unit_mismatch(rhs, got, want, &format!("`{name}`"));
                    }
                }
                let key = lvalue_key(lhs);
                if key.is_none() {
                    // An untracked target still reads its receiver and
                    // index expressions.
                    self.eval(lhs);
                }
                self.assign_writes(lhs);
                if let Some(key) = key {
                    let declared = target_name.as_deref().and_then(unit_from_name);
                    let facts = Facts {
                        unit: declared.or(r.unit),
                        ..r
                    };
                    self.bind(key, facts, None);
                }
                Facts::default()
            }
            ExprKind::StructLit { fields, .. } => {
                let mut taint = None;
                let mut params = 0u32;
                let mut completion = false;
                for (name, value, _line) in fields {
                    let f = match value {
                        Some(v) => {
                            let f = self.eval(v);
                            if let (Some(got), Some(want)) = (f.unit, unit_from_name(name)) {
                                self.unit_mismatch(v, got, want, &format!("field `{name}`"));
                            }
                            f
                        }
                        // Shorthand `Foo { window_us }`.
                        None => self.lookup(name).unwrap_or_default(),
                    };
                    taint = taint.or(f.taint);
                    params |= f.params;
                    completion |= f.completion;
                }
                Facts {
                    taint,
                    params,
                    completion,
                    ..Facts::default()
                }
            }
            ExprKind::Tuple(es) | ExprKind::Array(es) | ExprKind::MacroCall { args: es, .. } => {
                let mut taint = None;
                let mut params = 0u32;
                let mut completion = false;
                let mut channel = false;
                for x in es {
                    let f = self.eval(x);
                    taint = taint.or(f.taint);
                    params |= f.params;
                    completion |= f.completion;
                    channel |= f.channel;
                }
                Facts {
                    taint,
                    params,
                    completion,
                    channel,
                    ..Facts::default()
                }
            }
            ExprKind::Block(b) => self.run_block(b),
            ExprKind::If { cond, then, els } => {
                self.eval(cond);
                let gate = self.enter_gate(cond);
                // `if let` names stay visible to the flow facts after
                // the `if` (they were bound into the enclosing scope by
                // `eval(cond)`); their write origin is scoped to `then`.
                self.scopes.push(BTreeMap::new());
                self.bind_cond(cond);
                let t = self.run_block(then);
                self.scopes.pop();
                self.exit_gate(gate);
                let f = els.as_ref().map(|e| self.eval(e)).unwrap_or_default();
                t.join(f)
            }
            ExprKind::LetCond { names, expr } => {
                let f = self.eval(expr);
                for n in names {
                    let facts = Facts {
                        unit: unit_from_name(n).or(f.unit),
                        ..f
                    };
                    self.bind(n.clone(), facts, None);
                }
                f
            }
            ExprKind::Match { scrutinee, arms } => {
                let s = self.eval(scrutinee);
                let mut merged = Facts::default();
                for (i, arm) in arms.iter().enumerate() {
                    self.scopes.push(BTreeMap::new());
                    for n in arm.pat.bound_names() {
                        let unit = unit_from_name(&n).or(s.unit);
                        self.bind(n, Facts { unit, ..s }, Some(Origin::Local));
                    }
                    if let Some(g) = &arm.guard {
                        self.eval(g);
                    }
                    let b = self.eval(&arm.body);
                    self.scopes.pop();
                    merged = if i == 0 { b } else { merged.join(b) };
                }
                merged
            }
            ExprKind::ForLoop { names, iter, body } => {
                let it = self.eval(iter);
                self.scopes.push(BTreeMap::new());
                let taint = it.taint.or_else(|| {
                    it.hashy.then_some(Taint {
                        kind: TaintKind::HashIter,
                        origin_line: iter.span.line,
                    })
                });
                // Draining a channel in a loop yields values in
                // completion order.
                let completion = it.completion || it.channel;
                for n in names {
                    let facts = Facts {
                        taint,
                        unit: unit_from_name(n),
                        params: it.params,
                        completion,
                        ..Facts::default()
                    };
                    self.bind(n.clone(), facts, Some(Origin::Local));
                }
                self.run_block(body);
                self.scopes.pop();
                Facts::default()
            }
            ExprKind::While { cond, body } => {
                self.scopes.push(BTreeMap::new());
                self.eval(cond);
                self.bind_cond(cond);
                self.run_block(body);
                self.scopes.pop();
                Facts::default()
            }
            ExprKind::Loop { body } => {
                self.run_block(body);
                Facts::default()
            }
            ExprKind::Closure { params, body } => self.eval_closure(params, body, false),
            ExprKind::Range { lo, hi } => {
                let mut taint = None;
                let mut params = 0u32;
                for e in [lo, hi].into_iter().flatten() {
                    let f = self.eval(e);
                    taint = taint.or(f.taint);
                    params |= f.params;
                }
                Facts {
                    taint,
                    params,
                    ..Facts::default()
                }
            }
            ExprKind::Jump(v) => {
                if let Some(e) = v {
                    let f = self.eval(e);
                    // `return`/`break`-with-value contributes to what
                    // the function can hand back (over-approximating
                    // `break` inside closures is safe: bits only grow).
                    self.record_return(f);
                }
                Facts::default()
            }
            ExprKind::Unknown => Facts::default(),
        }
    }

    fn eval_closure(&mut self, params: &[String], body: &Expr, cross: bool) -> Facts {
        if cross {
            self.next_boundary += 1;
            self.boundaries
                .push((self.scopes.len(), self.next_boundary));
        }
        self.scopes.push(BTreeMap::new());
        for p in params {
            let facts = Facts {
                unit: unit_from_name(p),
                ..Facts::default()
            };
            self.bind(p.clone(), facts, Some(Origin::Local));
        }
        let f = self.eval(body);
        self.scopes.pop();
        if cross {
            self.boundaries.pop();
        }
        // The closure value itself carries its body's taint so
        // `sched.push(move || tainted)` still reports at the sink.
        Facts {
            taint: f.taint,
            params: f.params,
            ..Facts::default()
        }
    }

    fn eval_path(&mut self, e: &Expr, segs: &[String]) -> Facts {
        if segs.len() == 1 {
            if let Some((depth, f)) = self.lookup_depth(&segs[0]) {
                self.check_capture(e, &segs[0], depth, f);
                return f;
            }
        }
        let last = segs.last().map(String::as_str).unwrap_or("");
        // A const reference: unit from the symbol table or its name.
        let unit = self
            .ctx
            .symbols
            .const_units
            .get(last)
            .copied()
            .or_else(|| unit_from_name(last));
        Facts {
            unit,
            ..Facts::default()
        }
    }

    /// Reports a nondeterministic binding resolved from outside the
    /// innermost thread-crossing closure (i.e. captured across it).
    fn check_capture(&mut self, e: &Expr, name: &str, depth: usize, f: Facts) {
        if f.taint.is_none() && !f.hashy {
            return;
        }
        let Some(id) = self.crossing(depth) else {
            return;
        };
        let fresh = self
            .check
            .as_mut()
            .is_some_and(|c| c.reported_captures.insert((id, name.to_owned())));
        if fresh {
            self.cross_thread(
                e,
                f,
                &format!("is captured (as `{name}`) by a closure that crosses a thread boundary"),
            );
        }
    }

    /// Evaluates call/method arguments, opening a capture boundary
    /// around closure literals handed to thread-crossing callees.
    fn eval_args(&mut self, args: &[Expr], crosses: bool) -> Vec<Facts> {
        args.iter()
            .map(|a| match &a.kind {
                ExprKind::Closure { params, body } if crosses => {
                    self.eval_closure(params, body, true)
                }
                _ => {
                    let f = self.eval(a);
                    if crosses && (f.taint.is_some() || f.hashy) {
                        // Non-closure argument to spawn/scope/par_runs:
                        // the value itself travels to other threads.
                        self.cross_thread(a, f, "is passed to a thread-crossing call");
                    }
                    f
                }
            })
            .collect()
    }

    /// Applies a callee's summary flows at a call site: arguments whose
    /// summary bit reaches a sink are sinks *here*, and arguments whose
    /// bit reaches the return value flow into the result facts.
    fn apply_flows(
        &mut self,
        e: &Expr,
        name: &str,
        s: &FnSummary,
        slots: &[(usize, &Expr, Facts)],
    ) -> Facts {
        let mut res = Facts {
            taint: s.returns_taint.map(|kind| Taint {
                kind,
                origin_line: e.span.line,
            }),
            hashy: s.returns_hashy || self.ctx.symbols.hash_fns.contains(name),
            // A unit suffix on the callee's own name wins; otherwise the
            // summarized unit of its return paths flows out, so a `_ms`
            // value laundered through a suffix-less helper still reaches
            // a µs sink carrying `Ms`.
            unit: unit_from_name(name).or(s.returns_unit),
            ..Facts::default()
        };
        for &(idx, arg, f) in slots {
            let bit = 1u32 << idx.min(31);
            if s.param_to_sink & bit != 0 {
                self.sink_arg(arg, f, &format!("`{name}` (whose body schedules it)"));
            }
            if s.param_to_return & bit != 0 {
                res.taint = res.taint.or(f.taint);
                res.hashy |= f.hashy;
                res.params |= f.params;
                res.completion |= f.completion;
            }
        }
        res
    }

    fn eval_call(&mut self, e: &Expr, callee: &Expr, args: &[Expr]) -> Facts {
        let last = match &callee.kind {
            ExprKind::Path(segs) => segs.last().map(String::as_str).unwrap_or(""),
            _ => "",
        };
        let crosses = CROSS_THREAD_FNS.contains(&last);
        let arg_facts = self.eval_args(args, crosses);
        let summary = self.ctx.summaries.get(last);
        let mut slots = Vec::new();
        if let Some(s) = summary {
            // A bare call of a `self` method's name, one argument short,
            // binds its arguments from parameter 1 on.
            let offset = usize::from(s.has_self && s.arity == args.len() + 1);
            slots = bind_slots(None, offset, args, &arg_facts);
            self.apply_writes(e, last, s, &slots);
        }
        let arg_taint = arg_facts.iter().find_map(|f| f.taint);
        let arg_params = arg_facts.iter().fold(0u32, |m, f| m | f.params);
        let ExprKind::Path(segs) = &callee.kind else {
            self.eval(callee);
            return Facts {
                taint: arg_taint,
                params: arg_params,
                ..Facts::default()
            };
        };
        let has = |name: &str| segs.iter().any(|s| s == name);

        // Nondeterminism sources.
        if (has("Instant") || has("SystemTime")) && last == "now" {
            return Facts::tainted(TaintKind::WallClock, e.span.line);
        }
        if last == "thread_rng" || last == "from_entropy" || (last == "random" && has("rand")) {
            return Facts::tainted(TaintKind::Rng, e.span.line);
        }
        if HASH_TYPES.iter().any(|t| has(t))
            && matches!(last, "new" | "with_capacity" | "default" | "from")
        {
            return Facts {
                hashy: true,
                ..Facts::default()
            };
        }

        // Channel construction: both endpoints of the returned pair.
        if last == "channel" || last == "sync_channel" {
            return Facts {
                channel: true,
                ..Facts::default()
            };
        }

        // SimTime/SimDuration construction: a unit- and taint-checked
        // sink. The bare tuple-struct form `SimTime(x)` takes µs.
        if has("SimTime") || has("SimDuration") {
            let expected = match last {
                "from_micros" | "from" => Some(Unit::Us),
                "from_millis" => Some(Unit::Ms),
                "from_secs" => Some(Unit::Secs),
                "SimTime" | "SimDuration" => Some(Unit::Us),
                _ => None,
            };
            if let Some(want) = expected {
                let ty = if has("SimTime") {
                    "SimTime"
                } else {
                    "SimDuration"
                };
                for (arg, f) in args.iter().zip(&arg_facts) {
                    if let Some(got) = f.unit {
                        self.unit_mismatch(arg, got, want, &format!("`{ty}::{last}`"));
                    }
                    self.sink_arg(arg, *f, &format!("`{ty}` construction"));
                }
                return Facts {
                    taint: arg_taint,
                    params: arg_params,
                    ..Facts::default()
                };
            }
        }

        // Free-function sinks (`schedule(at, ev)` helpers).
        if SINK_METHODS.contains(&last) {
            for (arg, f) in args.iter().zip(&arg_facts) {
                self.sink_arg(arg, *f, &format!("`{last}`"));
            }
        }

        // Workspace functions with unit-suffixed parameters.
        if let Some(units) = self.ctx.symbols.param_units(last) {
            // Skip a leading `self` slot when signature and call-site
            // arities differ by one (free call of a method name).
            let offset = usize::from(units.len() == args.len() + 1);
            for (i, (arg, f)) in args.iter().zip(&arg_facts).enumerate() {
                if let (Some(Some(want)), Some(got)) = (units.get(i + offset), f.unit) {
                    self.unit_mismatch(arg, got, *want, &format!("parameter of `{last}`"));
                }
            }
        }

        // Interprocedural: consume the callee's summary. Direct sink
        // names were already handled above (skipping them avoids a
        // duplicate report when a workspace fn shares a sink's name).
        if let Some(s) = summary.filter(|_| !SINK_METHODS.contains(&last)) {
            return self.apply_flows(e, last, s, &slots);
        }

        Facts {
            taint: arg_taint,
            unit: unit_from_name(last),
            hashy: self.ctx.symbols.hash_fns.contains(last),
            params: arg_params,
            ..Facts::default()
        }
    }

    fn eval_method(&mut self, e: &Expr, recv: &Expr, method: &str, args: &[Expr]) -> Facts {
        let r = self.eval(recv);
        let crosses = CROSS_THREAD_FNS.contains(&method);
        let arg_facts = self.eval_args(args, crosses);
        let summary = self.ctx.summaries.get(method);
        let slots = match summary {
            Some(s) if s.has_self => bind_slots(Some((recv, r)), 1, args, &arg_facts),
            _ => Vec::new(),
        };
        self.method_writes(e, recv, method, args.len(), summary, &slots);
        let arg_taint = arg_facts.iter().find_map(|f| f.taint);
        let arg_params = arg_facts.iter().fold(0u32, |m, f| m | f.params);

        // Channel sends are a thread crossing for the payload.
        if method == "send" {
            for (arg, f) in args.iter().zip(&arg_facts) {
                self.cross_thread(arg, *f, "is sent through a channel");
            }
        }

        // Completion-order aggregation: appending a channel-received
        // value means the aggregate's order depends on thread timing.
        if AGG_METHODS.contains(&method) {
            for (arg, f) in args.iter().zip(&arg_facts) {
                if f.completion {
                    self.report(
                        SHARD_ORDER_AGG,
                        arg,
                        format!(
                            "fan-out result received in completion order is aggregated with \
                             `.{method}`; combine results by index (one slot per input) so the \
                             join is schedule-independent"
                        ),
                    );
                }
            }
        }

        // Sinks: scheduling/enqueueing a tainted value, or a tainted
        // timestamp, is the finding this rule exists for.
        if SINK_METHODS.contains(&method) {
            for (arg, f) in args.iter().zip(&arg_facts) {
                self.sink_arg(arg, *f, &format!("`{method}`"));
            }
        }

        // Channel receives yield completion-ordered values (so does
        // iterating the receiver).
        if RECV_METHODS.contains(&method)
            || (r.channel && matches!(method, "iter" | "try_iter" | "into_iter"))
        {
            return Facts {
                taint: r.taint,
                params: r.params,
                completion: true,
                ..Facts::default()
            };
        }

        // Unit-typed accessors on SimTime/SimDuration.
        let accessor_unit = match method {
            "as_micros" => Some(Unit::Us),
            "as_millis" | "as_millis_f64" => Some(Unit::Ms),
            "as_secs" | "as_secs_f64" | "as_secs_f32" => Some(Unit::Secs),
            _ => None,
        };
        if let Some(u) = accessor_unit {
            return Facts {
                taint: r.taint.or(arg_taint),
                unit: Some(u),
                params: r.params | arg_params,
                completion: r.completion,
                ..Facts::default()
            };
        }

        // Hash-order taint at the iteration boundary.
        if r.hashy && ORDER_SENSITIVE.contains(&method) {
            return Facts {
                taint: Some(Taint {
                    kind: TaintKind::HashIter,
                    origin_line: e.span.line,
                }),
                hashy: true,
                params: r.params,
                ..Facts::default()
            };
        }

        if UNIT_PRESERVING.contains(&method) {
            if let (Some(want), Some(arg), Some(got)) =
                (r.unit, args.first(), arg_facts.first().and_then(|f| f.unit))
            {
                self.unit_mismatch(
                    arg,
                    got,
                    want,
                    &format!("`.{method}` on a {} value", want.label()),
                );
            }
            return Facts {
                taint: r.taint.or(arg_taint),
                unit: r.unit.or_else(|| arg_facts.first().and_then(|f| f.unit)),
                hashy: r.hashy && method == "clone",
                params: r.params | arg_params,
                completion: r.completion,
                channel: r.channel && method == "clone",
            };
        }

        // Interprocedural: a workspace method with a known summary.
        // Sink/aggregation names were already handled directly above.
        if !SINK_METHODS.contains(&method) && !AGG_METHODS.contains(&method) {
            if let Some(s) = summary.filter(|s| s.has_self) {
                return self.apply_flows(e, method, s, &slots);
            }
        }

        // Generic propagation: taint and hashiness survive chaining
        // (`map`, `filter`, `collect`, `enumerate`, ...), and a call to
        // a workspace method known to return a hash collection makes
        // the result hashy (`self.index().keys()`).
        Facts {
            taint: r.taint.or(arg_taint),
            unit: None,
            hashy: r.hashy || self.ctx.symbols.hash_fns.contains(method),
            params: r.params | arg_params,
            completion: r.completion,
            channel: r.channel,
        }
    }
}

/// Pairs each argument of a call site (with its facts) with the callee
/// parameter it binds: the receiver, when present, is parameter 0 and
/// the arguments start at `offset`.
fn bind_slots<'e>(
    recv: Option<(&'e Expr, Facts)>,
    offset: usize,
    args: &'e [Expr],
    arg_facts: &[Facts],
) -> Vec<(usize, &'e Expr, Facts)> {
    let recv = recv.map(|(e, f)| (0, e, f));
    let args = args.iter().zip(arg_facts).enumerate();
    recv.into_iter()
        .chain(args.map(|(i, (a, f))| (i + offset, a, *f)))
        .collect()
}

/// A stable key for trackable assignment targets: plain locals and
/// `self.field` lvalues.
fn lvalue_key(e: &Expr) -> Option<String> {
    match &e.kind {
        ExprKind::Path(segs) if segs.len() == 1 => Some(segs[0].clone()),
        ExprKind::Field { recv, name } => match &recv.kind {
            ExprKind::Path(segs) if segs.len() == 1 && segs[0] == "self" => {
                Some(format!("self.{name}"))
            }
            _ => None,
        },
        _ => None,
    }
}

/// A short human label for an expression, used in messages.
fn describe(e: &Expr) -> String {
    match &e.kind {
        ExprKind::Path(segs) => format!("`{}`", segs.join("::")),
        ExprKind::Lit(Lit::Num(n)) => format!("literal `{n}`"),
        ExprKind::Lit(_) => "a literal".to_owned(),
        ExprKind::Call { callee, .. } => match &callee.kind {
            ExprKind::Path(segs) => format!("`{}(..)`", segs.join("::")),
            _ => "a call".to_owned(),
        },
        ExprKind::MethodCall { method, .. } => format!("`.{method}(..)`"),
        ExprKind::Field { name, .. } => format!("field `{name}`"),
        ExprKind::Binary { .. } => "an arithmetic result".to_owned(),
        ExprKind::Cast { expr, .. } => describe(expr),
        _ => "this value".to_owned(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::walk_fns;
    use crate::lexer::lex;
    use crate::parser::parse_file;
    use crate::symbols::{parse_state_annotations, parse_unit_annotations};

    fn run_with(src: &str, families: FlowFamilies) -> Vec<Finding> {
        let toks = lex(src);
        let file = parse_file(&toks);
        assert_eq!(file.recovered_skips, 0, "test source must parse");
        let (anns, bad) = parse_unit_annotations(&toks);
        assert!(bad.is_empty(), "{bad:?}");
        let symbols = Symbols::build(&[(&file, &anns)]);
        let model = StateModel::build(&[(&file, &parse_state_annotations(&toks).0)]);
        let summaries = crate::callgraph::build(&[(&file, &anns)], &symbols, &model);
        let ctx = Ctx {
            symbols: &symbols,
            anns: &anns,
            model: &model,
            summaries: &summaries,
        };
        let sim = families.taint;
        let mut out = Vec::new();
        walk_fns(&file, &mut |owner, f| {
            out.extend(check_fn(f, owner, ctx, families, sim, "x.rs"));
        });
        out
    }

    fn run(src: &str) -> Vec<Finding> {
        run_with(src, FlowFamilies::all())
    }

    fn count(f: &[Finding], rule: &str) -> usize {
        f.iter().filter(|x| x.rule == rule).count()
    }

    fn taints(f: &[Finding]) -> usize {
        count(f, NONDET_TAINT)
    }

    fn units(f: &[Finding]) -> usize {
        count(f, TIME_UNIT)
    }

    #[test]
    fn hash_iteration_into_schedule_is_tainted() {
        let f = run("pub struct S { pending: HashMap<u64, u64> }\n\
             impl S {\n\
               pub fn kick(&self, sched: &mut Sched) {\n\
                 for (id, t) in &self.pending {\n\
                   sched.schedule(*t, *id);\n\
                 }\n\
               }\n\
             }");
        assert!(taints(&f) >= 1, "{f:?}");
    }

    #[test]
    fn btreemap_iteration_is_clean() {
        let f = run("pub struct S { pending: BTreeMap<u64, u64> }\n\
             impl S {\n\
               pub fn kick(&self, sched: &mut Sched) {\n\
                 for (id, t) in &self.pending {\n\
                   sched.schedule(*t, *id);\n\
                 }\n\
               }\n\
             }");
        assert_eq!(taints(&f), 0, "{f:?}");
    }

    #[test]
    fn wall_clock_through_let_into_simtime_is_tainted() {
        let f = run("pub fn bad(sim: &mut Sim) {\n\
               let t0 = Instant::now();\n\
               let stamp = t0;\n\
               sim.push(SimTime::from_micros(stamp));\n\
             }");
        assert!(taints(&f) >= 1, "{f:?}");
    }

    #[test]
    fn rng_into_push_is_tainted() {
        let f = run("pub fn bad(q: &mut Q) {\n\
               let jitter = thread_rng();\n\
               q.push(jitter);\n\
             }");
        assert_eq!(taints(&f), 1, "{f:?}");
    }

    #[test]
    fn seeded_rng_is_clean() {
        let f = run("pub fn good(q: &mut Q, seed: u64) {\n\
               let rng = SmallRng::seed_from_u64(seed);\n\
               q.push(rng);\n\
             }");
        assert_eq!(taints(&f), 0, "{f:?}");
    }

    #[test]
    fn ms_const_into_from_micros_is_flagged() {
        let f = run("pub const WINDOW_MS: u64 = 50;\n\
             pub fn bad() -> SimTime { SimTime::from_micros(WINDOW_MS) }");
        assert_eq!(units(&f), 1, "{f:?}");
    }

    #[test]
    fn us_const_into_from_micros_is_clean() {
        let f = run("pub const WINDOW_US: u64 = 50_000;\n\
             pub fn good() -> SimTime { SimTime::from_micros(WINDOW_US) }");
        assert_eq!(units(&f), 0, "{f:?}");
    }

    #[test]
    fn annotation_beats_suffixless_name() {
        let f = run("// simlint::unit(ms)\n\
             pub const WINDOW: u64 = 50;\n\
             pub fn bad() -> SimTime { SimTime::from_micros(WINDOW) }");
        assert_eq!(units(&f), 1, "{f:?}");
    }

    #[test]
    fn mixed_additive_arithmetic_is_flagged() {
        let f = run("pub fn bad(a_us: u64, b_ms: u64) -> u64 { a_us + b_ms }");
        assert_eq!(units(&f), 1, "{f:?}");
    }

    #[test]
    fn comparison_across_units_is_flagged() {
        let f =
            run("pub fn bad(elapsed_us: u64, timeout_ms: u64) -> bool { elapsed_us > timeout_ms }");
        assert_eq!(units(&f), 1, "{f:?}");
    }

    #[test]
    fn multiplication_legitimately_converts() {
        let f = run(
            "pub fn good(window_ms: u64) -> SimTime { SimTime::from_micros(window_ms * 1_000) }",
        );
        assert_eq!(units(&f), 0, "{f:?}");
    }

    #[test]
    fn as_millis_accessor_carries_ms() {
        let f =
            run("pub fn bad(t: SimDuration) -> SimTime { SimTime::from_micros(t.as_millis()) }");
        assert_eq!(units(&f), 1, "{f:?}");
    }

    #[test]
    fn unit_suffixed_fn_param_is_checked_at_call_site() {
        let f = run("pub fn on_completion(rt_us: u64) {}\n\
             pub fn bad(rt_ms: u64) { on_completion(rt_ms); }\n\
             pub fn good(rt: u64) { on_completion(rt); }");
        assert_eq!(units(&f), 1, "{f:?}");
    }

    #[test]
    fn struct_field_units_are_checked() {
        let f = run("pub fn bad(wait_ms: u64) -> Cfg { Cfg { retransmit_wait_us: wait_ms } }");
        assert_eq!(units(&f), 1, "{f:?}");
    }

    #[test]
    fn tainted_self_field_assignment_is_tracked() {
        let f = run("pub struct S { stamp: u64 }\n\
             impl S {\n\
               pub fn bad(&mut self, sched: &mut Sched) {\n\
                 self.stamp = Instant::now();\n\
                 sched.schedule(self.stamp, 0);\n\
               }\n\
             }");
        assert!(taints(&f) >= 1, "{f:?}");
    }

    #[test]
    fn hash_returning_fn_chain_is_tainted() {
        let f = run("pub struct S { m: HashMap<u64, u64> }\n\
             impl S {\n\
               pub fn index(&self) -> &HashMap<u64, u64> { &self.m }\n\
               pub fn bad(&self, q: &mut Q) {\n\
                 for k in self.index().keys() { q.push(*k); }\n\
               }\n\
             }");
        assert!(taints(&f) >= 1, "{f:?}");
    }

    #[test]
    fn saturating_add_checks_and_preserves_units() {
        let f = run("pub fn bad(a_us: u64, b_ms: u64) -> u64 { a_us.saturating_add(b_ms) }");
        assert_eq!(units(&f), 1, "{f:?}");
        let f2 = run("pub fn good(a_us: u64, b_us: u64) -> SimTime {\n\
               SimTime::from_micros(a_us.saturating_add(b_us))\n\
             }");
        assert_eq!(units(&f2), 0, "{f2:?}");
    }

    // ── interprocedural ──────────────────────────────────────────────

    #[test]
    fn two_hop_helper_launders_taint_to_exactly_one_finding() {
        let f = run("pub fn hop2(v: u64) -> u64 { v }\n\
             pub fn hop1(v: u64) -> u64 { hop2(v) }\n\
             pub fn bad(sched: &mut Sched) {\n\
               let stamp = Instant::now();\n\
               sched.schedule(hop1(stamp), 0);\n\
             }");
        assert_eq!(taints(&f), 1, "{f:?}");
    }

    #[test]
    fn helper_that_drops_its_argument_is_clean() {
        let f = run("pub fn hop2(_v: u64) -> u64 { 0 }\n\
             pub fn hop1(v: u64) -> u64 { hop2(v) }\n\
             pub fn good(sched: &mut Sched) {\n\
               let stamp = Instant::now();\n\
               sched.schedule(hop1(stamp), 0);\n\
             }");
        assert_eq!(taints(&f), 0, "{f:?}");
    }

    #[test]
    fn helper_whose_body_schedules_makes_the_call_site_a_sink() {
        let f = run(
            "pub fn stamp_all(sched: &mut Sched, t: u64) { sched.schedule(t, 0); }\n\
             pub fn bad(sched: &mut Sched) {\n\
               stamp_all(sched, Instant::now());\n\
             }",
        );
        assert_eq!(taints(&f), 1, "{f:?}");
    }

    #[test]
    fn tainted_fn_return_value_reaches_a_sink() {
        let f = run("pub fn stamp() -> u64 { Instant::now() }\n\
             pub fn bad(q: &mut Q) { q.push(stamp()); }");
        assert_eq!(taints(&f), 1, "{f:?}");
    }

    #[test]
    fn recursion_and_mutual_calls_terminate_cleanly() {
        let f = run(
            "pub fn even(n: u64) -> bool { if n == 0 { true } else { odd(n - 1) } }\n\
             pub fn odd(n: u64) -> bool { if n == 0 { false } else { even(n - 1) } }\n\
             pub fn rec(v: u64) -> u64 { if v > 1 { rec(v) } else { v } }",
        );
        assert_eq!(f.len(), 0, "{f:?}");
    }

    // ── shard safety ─────────────────────────────────────────────────

    #[test]
    fn tainted_capture_into_scoped_spawn_is_flagged_once() {
        let f = run("pub fn bad(work: u64) {\n\
               let t0 = Instant::now();\n\
               std::thread::scope(|s| {\n\
                 s.spawn(|| consume(t0, work));\n\
                 s.spawn(|| consume(t0, work));\n\
               });\n\
             }");
        // One finding per (boundary, name): two spawns, one capture each.
        assert_eq!(count(&f, SHARD_CROSS_THREAD), 2, "{f:?}");
    }

    #[test]
    fn hashy_capture_into_par_runs_is_flagged() {
        let f = run("pub fn bad(items: Vec<u64>) {\n\
               let m = HashMap::new();\n\
               par_runs(items, |k| m.len() + k);\n\
             }");
        assert_eq!(count(&f, SHARD_CROSS_THREAD), 1, "{f:?}");
    }

    #[test]
    fn untainted_captures_are_clean() {
        let f = run("pub fn good(cfg: u64, items: Vec<u64>) {\n\
               par_runs(items, |k| k + cfg);\n\
             }");
        assert_eq!(count(&f, SHARD_CROSS_THREAD), 0, "{f:?}");
    }

    #[test]
    fn taint_created_inside_the_closure_is_not_a_capture() {
        let f = run("pub fn good(items: Vec<u64>) {\n\
               par_runs(items, |k| {\n\
                 let start = Instant::now();\n\
                 k + start\n\
               });\n\
             }");
        assert_eq!(count(&f, SHARD_CROSS_THREAD), 0, "{f:?}");
    }

    #[test]
    fn sending_a_tainted_value_through_a_channel_is_flagged() {
        let f = run("pub fn bad(tx: Sender<u64>) {\n\
               let t = Instant::now();\n\
               tx.send(t);\n\
             }");
        assert_eq!(count(&f, SHARD_CROSS_THREAD), 1, "{f:?}");
    }

    #[test]
    fn completion_order_aggregation_is_flagged() {
        let f = run("pub fn bad(n: u64) -> Vec<u64> {\n\
               let (tx, rx) = channel();\n\
               let mut out = Vec::new();\n\
               for _ in 0..n {\n\
                 let v = rx.recv();\n\
                 out.push(v);\n\
               }\n\
               out\n\
             }");
        assert_eq!(count(&f, SHARD_ORDER_AGG), 1, "{f:?}");
    }

    #[test]
    fn indexed_join_is_clean() {
        let f = run("pub fn good(n: u64, out: &mut Vec<u64>) {\n\
               let (tx, rx) = channel();\n\
               for _ in 0..n {\n\
                 let (idx, v) = rx.recv();\n\
                 out[idx] = v;\n\
               }\n\
             }");
        assert_eq!(count(&f, SHARD_ORDER_AGG), 0, "{f:?}");
    }

    #[test]
    fn draining_a_channel_in_a_for_loop_carries_completion_order() {
        let f = run("pub fn bad(acc: &mut Vec<u64>) {\n\
               let (tx, rx) = channel();\n\
               for v in rx.iter() {\n\
                 acc.push(v);\n\
               }\n\
             }");
        assert_eq!(count(&f, SHARD_ORDER_AGG), 1, "{f:?}");
    }

    #[test]
    fn shard_family_gating_suppresses_taint_reports() {
        let out = run_with(
            "pub fn bench(q: &mut Q) {\n\
               let t = Instant::now();\n\
               q.push(t);\n\
             }",
            FlowFamilies::shard_only(),
        );
        assert_eq!(out.len(), 0, "{out:?}");
    }
}
