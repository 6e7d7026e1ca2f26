//! The interprocedural summary engine: one lattice, one solver.
//!
//! For every function defined in the flow-analyzed crates, [`build`]
//! computes one [`FnSummary`] describing what the function does with
//! the values and state it is handed:
//!
//! * **taint** — which parameters flow to the return value, which reach
//!   an event-scheduling sink inside the body (directly or via further
//!   calls), and whether the return value is itself a nondeterminism
//!   source or a hash-ordered collection;
//! * **units** — the declared time unit of the returned value.
//!
//! The body walker in `dataflow.rs` consumes the summaries at call
//! sites, so a taint laundered through a helper —
//! `sched.schedule(hop1(stamp), 0)` where `hop1` forwards to `hop2`
//! which returns its argument — is still reported at the one call site
//! where the tainted value enters the flow.
//!
//! Like the rest of simlint's symbol layer, summaries are keyed by
//! *name*, not by resolved path: the hand-rolled parser has no type
//! information, so `Wheel::push` and `Vec::push` are the same node.
//! Names defined with conflicting arities are excluded outright
//! (callers fall back to the conservative intra-procedural behavior),
//! and same-arity same-name definitions are merged by union, which
//! over-approximates but never misses a flow.
//!
//! The solver runs once: it collects definitions, drops conflicting
//! arities, builds the name-granular call
//! graph, and condenses it with Tarjan's algorithm (iterative, so
//! adversarial call-chain depth cannot overflow the stack), which emits
//! SCCs callees-first. An acyclic function is summarized in one walk;
//! each cycle starts from the empty summary and re-walks its members
//! until no summary changes. Every field only grows (bit-masks and sets
//! union, flags and first-seen values latch) and the lattice is finite
//! — 32 parameter bits, three taint kinds, three units — so the loop
//! terminates without a round cap.

use std::collections::{BTreeMap, BTreeSet};

use crate::ast::{walk_block_exprs, walk_fns, ExprKind, File, Func};
use crate::dataflow::{summarize_fn, Ctx, TaintKind};
use crate::symbols::{Symbols, Unit, UnitAnnotations};

/// What one named function does with its inputs: how values flow
/// through it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnSummary {
    /// Declared parameter count, `self` included.
    pub arity: usize,
    /// The first parameter is a `self` receiver (in any definition).
    pub has_self: bool,
    /// Bitmask of parameters (bit *i* = param *i*, capped at 31) whose
    /// value can reach the function's return value.
    pub param_to_return: u32,
    /// Bitmask of parameters whose value can reach a scheduling sink
    /// (`schedule`/`push`/`SimTime` construction) inside the body,
    /// transitively through further calls.
    pub param_to_sink: u32,
    /// The return value originates from a nondeterminism source inside
    /// the body (wall clock, ambient RNG, hash-order iteration).
    pub returns_taint: Option<TaintKind>,
    /// The return value is (or contains) a hash-ordered collection.
    pub returns_hashy: bool,
    /// The declared time unit of the returned value, when every return
    /// path in the body agrees (a `_ms` local flowing out of a
    /// suffix-less helper). A unit in the function's own name wins at
    /// call sites; this fills the gap when there is none.
    pub returns_unit: Option<Unit>,
}

impl FnSummary {
    /// The bottom of the lattice for `func`: nothing flows.
    pub(crate) fn empty(func: &Func) -> FnSummary {
        FnSummary {
            arity: func.params.len(),
            has_self: func
                .params
                .first()
                .is_some_and(|p| p.name.as_deref() == Some("self")),
            param_to_return: 0,
            param_to_sink: 0,
            returns_taint: None,
            returns_hashy: false,
            returns_unit: None,
        }
    }

    /// Joins another same-name definition (or a recomputed iterate) into
    /// this one. The join only grows — first-seen taint kind and unit
    /// win — which is what makes the SCC loop terminate; a per-body unit
    /// disagreement was already resolved to `None` by the walker.
    fn absorb(&mut self, other: FnSummary) {
        self.has_self |= other.has_self;
        self.param_to_return |= other.param_to_return;
        self.param_to_sink |= other.param_to_sink;
        self.returns_taint = self.returns_taint.or(other.returns_taint);
        self.returns_hashy |= other.returns_hashy;
        self.returns_unit = self.returns_unit.or(other.returns_unit);
    }
}

/// Name-keyed function summaries. `None` marks a name excluded for
/// conflicting arities (mirroring `Symbols::fn_param_units`).
#[derive(Debug, Default)]
pub struct Summaries {
    map: BTreeMap<String, Option<FnSummary>>,
}

impl Summaries {
    /// The summary for `name`, if one exists and is unambiguous.
    pub fn get(&self, name: &str) -> Option<&FnSummary> {
        self.map.get(name).and_then(Option::as_ref)
    }

    /// Number of names excluded for conflicting arities. Exclusion is
    /// *correct* (callers degrade to intra-procedural analysis) but
    /// used to be silent; surfacing the count in the report keeps a
    /// creeping loss of interprocedural coverage visible.
    pub fn dropped(&self) -> usize {
        self.map.values().filter(|s| s.is_none()).count()
    }
}

/// Builds summaries for every function defined in `files` (skipping
/// `#[cfg(test)]` modules, like the symbol table does).
pub fn build(files: &[(&File, &UnitAnnotations)], symbols: &Symbols) -> Summaries {
    // 1. Collect definitions: name → [(func, annotations)].
    type Def<'a> = (&'a Func, &'a UnitAnnotations);
    let mut defs: BTreeMap<&str, Vec<Def<'_>>> = BTreeMap::new();
    for &(file, anns) in files {
        walk_fns(file, &mut |f| {
            defs.entry(f.name.as_str()).or_default().push((f, anns));
        });
    }

    // 2. Exclude names whose definitions disagree on arity: a bitmask
    //    indexed by parameter position is meaningless
    //    across them, and deciding exclusion *before* the fixpoint
    //    keeps it monotone.
    let mut summaries = Summaries::default();
    defs.retain(|name, fns| {
        let arities: BTreeSet<usize> = fns.iter().map(|(f, _)| f.params.len()).collect();
        if arities.len() > 1 {
            summaries.map.insert((*name).to_owned(), None);
        }
        arities.len() == 1
    });
    let (names, defs): (Vec<&str>, Vec<Vec<Def<'_>>>) = defs.into_iter().unzip();
    let index_of: BTreeMap<&str, usize> = names.iter().enumerate().map(|(i, n)| (*n, i)).collect();

    // 3. Call edges at name granularity: every `name(..)` path call and
    //    `.name(..)` method call inside a body whose name we define.
    let adj: Vec<Vec<usize>> = defs
        .iter()
        .map(|fns| {
            let mut callees = BTreeSet::new();
            for (f, _) in fns {
                let Some(body) = &f.body else { continue };
                walk_block_exprs(body, &mut |e| {
                    let called = match &e.kind {
                        ExprKind::Call { callee, .. } => match &callee.kind {
                            ExprKind::Path(segs) => segs.last().map(String::as_str),
                            _ => None,
                        },
                        ExprKind::MethodCall { method, .. } => Some(method.as_str()),
                        _ => None,
                    };
                    if let Some(&j) = called.and_then(|c| index_of.get(c)) {
                        callees.insert(j);
                    }
                });
            }
            callees.into_iter().collect()
        })
        .collect();

    // 4. Solve SCCs callees-first; within a cycle, re-walk every member
    //    until a whole round changes nothing.
    for scc in tarjan_sccs(&adj) {
        for &v in &scc {
            let seed = FnSummary::empty(defs[v][0].0);
            summaries.map.insert(names[v].to_owned(), Some(seed));
        }
        let cyclic = scc.len() > 1 || adj[scc[0]].contains(&scc[0]);
        loop {
            let mut changed = false;
            for &v in &scc {
                let mut next = summaries.get(names[v]).cloned().expect("seeded above");
                for &(f, anns) in &defs[v] {
                    let ctx = Ctx {
                        symbols,
                        anns,
                        summaries: &summaries,
                    };
                    next.absorb(summarize_fn(f, ctx));
                }
                if summaries.get(names[v]) != Some(&next) {
                    changed = true;
                    summaries.map.insert(names[v].to_owned(), Some(next));
                }
            }
            if !changed || !cyclic {
                break;
            }
        }
    }
    summaries
}

/// Iterative Tarjan: returns SCCs in reverse topological order of the
/// condensation (every SCC appears after all SCCs it calls into have
/// been emitted), which is exactly the summarization order we need.
fn tarjan_sccs(adj: &[Vec<usize>]) -> Vec<Vec<usize>> {
    let n = adj.len();
    let mut index: Vec<Option<u32>> = vec![None; n];
    let mut low: Vec<u32> = vec![0; n];
    let mut on_stack: Vec<bool> = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next: u32 = 0;
    let mut sccs: Vec<Vec<usize>> = Vec::new();

    for start in 0..n {
        if index[start].is_some() {
            continue;
        }
        // Explicit DFS frames: (node, next-child cursor).
        let mut frames: Vec<(usize, usize)> = vec![(start, 0)];
        while let Some(frame) = frames.last_mut() {
            let (v, ci) = *frame;
            if ci == 0 && index[v].is_none() {
                index[v] = Some(next);
                low[v] = next;
                next += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if ci < adj[v].len() {
                frame.1 += 1;
                let w = adj[v][ci];
                if index[w].is_none() {
                    frames.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w].expect("visited node has an index"));
                }
            } else {
                frames.pop();
                if let Some(&(p, _)) = frames.last() {
                    low[p] = low[p].min(low[v]);
                }
                if Some(low[v]) == index[v] {
                    let mut scc = Vec::new();
                    loop {
                        let w = stack.pop().expect("SCC root is on the Tarjan stack");
                        on_stack[w] = false;
                        scc.push(w);
                        if w == v {
                            break;
                        }
                    }
                    sccs.push(scc);
                }
            }
        }
    }
    sccs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse_file;
    use crate::symbols::parse_unit_annotations;

    fn summarize(src: &str) -> Summaries {
        let toks = lex(src);
        let file = parse_file(&toks);
        assert_eq!(file.recovered_skips, 0, "test source must parse");
        let (anns, bad) = parse_unit_annotations(&toks);
        assert!(bad.is_empty(), "{bad:?}");
        let symbols = Symbols::build(&[(&file, &anns)]);
        build(&[(&file, &anns)], &symbols)
    }

    #[test]
    fn identity_fn_maps_param_to_return() {
        let s = summarize("pub fn id(v: u64) -> u64 { v }");
        let sum = s.get("id").unwrap();
        assert_eq!(sum.param_to_return, 1);
        assert_eq!(sum.param_to_sink, 0);
    }

    #[test]
    fn two_hop_forwarding_composes() {
        let s = summarize(
            "pub fn hop2(v: u64) -> u64 { v }\n\
             pub fn hop1(v: u64) -> u64 { hop2(v) }",
        );
        assert_eq!(s.get("hop1").unwrap().param_to_return, 1);
    }

    #[test]
    fn sink_reaching_param_is_recorded_transitively() {
        let s = summarize(
            "pub fn inner(sched: &mut S, t: u64) { sched.schedule(t, 0); }\n\
             pub fn outer(sched: &mut S, t: u64) { inner(sched, t); }",
        );
        assert_eq!(s.get("inner").unwrap().param_to_sink, 0b10);
        assert_eq!(s.get("outer").unwrap().param_to_sink, 0b10);
    }

    #[test]
    fn source_in_body_marks_return_tainted() {
        let s = summarize("pub fn stamp() -> u64 { Instant::now() }");
        assert_eq!(
            s.get("stamp").unwrap().returns_taint,
            Some(TaintKind::WallClock)
        );
    }

    #[test]
    fn recursion_and_mutual_calls_terminate() {
        let s = summarize(
            "pub fn even(n: u64) -> bool { if n == 0 { true } else { odd(n - 1) } }\n\
             pub fn odd(n: u64) -> bool { if n == 0 { false } else { even(n - 1) } }\n\
             pub fn rec(v: u64) -> u64 { if v > 1 { rec(v) } else { v } }",
        );
        assert_eq!(s.get("rec").unwrap().param_to_return, 1);
        assert!(s.get("even").is_some());
    }

    #[test]
    fn long_cycles_converge_without_a_round_cap() {
        // A 100-function bidirectional chain is one SCC in which facts
        // move one hop per round; only `a000` returns its parameter
        // directly. A capped loop (64 rounds) left the far end of the
        // chain without the param→return bit.
        let mut src = String::new();
        for i in 0..100 {
            let body = match i {
                0 => "if v > 0 { a001(v) } else { v }".to_owned(),
                99 => "a098(v)".to_owned(),
                _ => format!(
                    "if v > 0 {{ a{:03}(v) }} else {{ a{:03}(v) }}",
                    i - 1,
                    i + 1
                ),
            };
            src.push_str(&format!("pub fn a{i:03}(v: u64) -> u64 {{ {body} }}\n"));
        }
        let s = summarize(&src);
        for i in 0..100 {
            let sum = s.get(&format!("a{i:03}")).unwrap();
            assert_eq!(sum.param_to_return, 1, "a{i:03}");
        }
    }

    #[test]
    fn conflicting_arities_are_excluded_and_counted() {
        let s = summarize(
            "pub fn f(a: u64) -> u64 { a }\n\
             pub mod inner { pub fn f(a: u64, b: u64) -> u64 { a + b } }\n\
             pub fn g(a: u64) -> u64 { a }",
        );
        assert!(s.get("f").is_none());
        assert!(s.get("g").is_some());
        assert_eq!(s.dropped(), 1, "the planted conflict must be counted");
    }

    #[test]
    fn return_unit_propagates_from_an_annotated_local() {
        let s = summarize(
            "pub fn current_window() -> u64 { let w_ms: u64 = 50; w_ms }\n\
             pub fn suffixed_ms() -> u64 { 50 }\n\
             pub fn unitless(v: u64) -> u64 { v }",
        );
        assert_eq!(
            s.get("current_window").unwrap().returns_unit,
            Some(Unit::Ms)
        );
        assert_eq!(s.get("unitless").unwrap().returns_unit, None);
    }

    #[test]
    fn conflicting_return_units_in_one_body_poison_to_none() {
        let s = summarize(
            "pub fn pick(flag: bool, a_ms: u64, b_us: u64) -> u64 {\n\
                 if flag { return a_ms; }\n\
                 b_us\n\
             }",
        );
        assert_eq!(s.get("pick").unwrap().returns_unit, None);
    }

    #[test]
    fn self_receiver_is_bit_zero() {
        let s = summarize(
            "pub struct W { q: Vec<u64> }\n\
             impl W { pub fn take(&mut self) -> Vec<u64> { self.q.clone() } }",
        );
        let sum = s.get("take").unwrap();
        assert!(sum.has_self);
        assert_eq!(sum.param_to_return & 1, 1);
    }

    #[test]
    fn cfg_test_fns_are_not_summarized() {
        let s = summarize("#[cfg(test)]\nmod tests { pub fn helper(v: u64) -> u64 { v } }");
        assert!(s.get("helper").is_none());
    }
}
