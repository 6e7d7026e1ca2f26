//! The simulation-hygiene rules.
//!
//! Each rule guards one invariant that the reproduction's headline
//! numbers (the 1 s/2 s/3 s VLRT clusters, the policy-remedy factor, the
//! bit-identical trace digests) silently depend on. Rules are heuristic
//! token-stream checks, not type-checked analyses: they are tuned to be
//! zero-noise on this workspace and to catch the realistic regression
//! (someone iterates a `HashMap`, someone reads the host clock inside
//! the event loop), not to be sound against adversarial code.

use crate::ast;
use crate::callgraph::Summaries;
use crate::dataflow::{self, Ctx};
use crate::effects::StateModel;
use crate::lexer::{Token, TokenKind};
use crate::report::Finding;
use crate::symbols::{Symbols, UnitAnnotations};
use crate::workspace::FileRole;

/// Static description of one registered rule.
#[derive(Debug, Clone, Copy)]
pub struct RuleMeta {
    /// Registered name, used in findings and suppression comments.
    pub name: &'static str,
    /// One-line summary for `--list-rules` and docs.
    pub summary: &'static str,
    /// Why the invariant matters, for `--explain` and SARIF
    /// `fullDescription`.
    pub rationale: &'static str,
    /// A short violating/fixed snippet for `--explain`.
    pub example: &'static str,
}

/// Crates whose library sources are simulation state machines: inside
/// them, time must flow from the event queue and iteration order must be
/// deterministic. `mlb-metrics` is included beyond the six crates the
/// issue names because trace digests hash its data structures directly.
pub const SIM_CRATES: [&str; 7] = [
    "mlb-simkernel",
    "mlb-osmodel",
    "mlb-netmodel",
    "mlb-workload",
    "mlb-metrics",
    "mlb-core",
    "mlb-ntier",
];

/// Event-loop hot paths where a panic tears down the whole simulation:
/// `unwrap`/`expect` there must carry a written invariant argument.
pub const HOT_PATHS: [&str; 2] = ["crates/simkernel/src/sim.rs", "crates/ntier/src/system.rs"];

/// Where the `SpanKind` vocabulary is declared.
pub const SPAN_DECL_PATH: &str = "crates/metrics/src/spans.rs";

/// Telemetry/metrics accumulation paths where running sums feed golden
/// digests or cross-run comparisons: accumulating `f64` there drifts
/// with summation order and platform rounding, so totals must be
/// carried as integer microseconds/counts and converted on read.
pub const FLOAT_ACCUM_PATHS: [&str; 4] = [
    "crates/metrics/src/registry.rs",
    "crates/metrics/src/detector.rs",
    "crates/metrics/src/series.rs",
    "crates/ntier/src/telemetry.rs",
];

/// Files that must construct every `SpanKind` variant — the tracer is
/// the only component that feeds spans into VLRT attribution, so a
/// variant it never emits silently falls out of the accounting.
pub const SPAN_REF_PATHS: [&str; 1] = ["crates/ntier/src/trace.rs"];

/// Every registered rule. The fixture meta-test enforces one triggering
/// and one clean fixture per entry.
pub const RULES: [RuleMeta; 17] = [
    RuleMeta {
        name: "no-wall-clock",
        summary: "Instant::now/SystemTime banned in sim-crate library code; sim time must come from the event queue",
        rationale: "Simulated time must be a pure function of (config, seed). A host clock \
                    read anywhere in sim-crate library code couples event ordering to \
                    scheduler jitter and machine load, so two identical runs can diverge — \
                    invalidating digest comparison and millibottleneck attribution alike.",
        example: "let t0 = Instant::now();      // finding\nlet t0 = self.clock;          // ok: SimTime advanced by the event queue",
    },
    RuleMeta {
        name: "no-system-io",
        summary: "std::fs/std::env access in sim-crate library code ties runs to the host; take inputs from config, write artifacts from bench/CLI",
        rationale: "Reading files or environment variables makes a run depend on host state \
                    that (config, seed) does not capture. Inputs belong in SystemConfig; \
                    artifacts belong to the bench/CLI layer, which is exempt by scope.",
        example: "let seed = std::env::var(\"SEED\");   // finding\nlet seed = cfg.seed;                 // ok",
    },
    RuleMeta {
        name: "no-hash-order",
        summary: "iterating a HashMap/HashSet in sim-crate library code is nondeterministic; key by BTreeMap or access by key",
        rationale: "HashMap/HashSet iteration order is randomized per process, so any loop, \
                    drain, or fold over one reorders events between runs. Keyed lookups are \
                    fine; ordered traversal needs a BTreeMap.",
        example: "for (id, s) in &self.live { .. }    // finding when live: HashMap\n// ok when live: BTreeMap",
    },
    RuleMeta {
        name: "no-ambient-rng",
        summary: "thread_rng/rand::random/OsRng/from_entropy banned; all randomness flows from the seeded simkernel::rng streams",
        rationale: "Ambient generators draw from the OS entropy pool, so no seed reproduces \
                    the run. Every random draw must derive from the seeded simkernel::rng \
                    stream tree, which splits deterministically per component.",
        example: "let x = thread_rng().gen::<u64>();    // finding\nlet x = streams.service.next_u64();   // ok",
    },
    RuleMeta {
        name: "panic-hygiene",
        summary: "unwrap()/expect() in the event-loop hot paths requires a justified suppression",
        rationale: "An unwrap in the event-loop hot path tears down the whole simulation on \
                    the first violated assumption. Each one must either handle the None/Err \
                    arm or carry the invariant in writing via a simlint::allow comment.",
        example: "// simlint::allow(panic-hygiene): a live RequestId always maps to a request\n.expect(\"unknown live request\")",
    },
    RuleMeta {
        name: "crate-header",
        summary: "every crate root must carry #![forbid(unsafe_code)]",
        rationale: "forbid(unsafe_code) turns the no-unsafe guarantee into a compile error \
                    instead of a review convention; unsafe code could bypass every invariant \
                    the other rules check.",
        example: "#![forbid(unsafe_code)]   // first line of src/lib.rs / src/main.rs",
    },
    RuleMeta {
        name: "span-attribution",
        summary: "every SpanKind variant must be constructed by the tracer, or it falls out of VLRT accounting",
        rationale: "VLRT attribution classifies requests by the spans the tracer emitted. A \
                    SpanKind variant the tracer never constructs silently drops its phase \
                    from every latency profile.",
        example: "pub enum SpanKind { Issued, Ghost }   // finding if trace.rs never builds SpanKind::Ghost",
    },
    RuleMeta {
        name: "no-float-accum",
        summary: "f64 running sums in telemetry/metrics accumulation paths drift with rounding; accumulate integer micros and convert on read",
        rationale: "Float running sums drift with summation order and platform rounding, so \
                    golden digests diverge across hosts. Accumulate integer micros/counts \
                    and convert to f64 only on read.",
        example: "self.sum += rt as f64;    // finding\nself.sum_us += rt_us;     // ok: integer accumulator",
    },
    RuleMeta {
        name: "bad-suppression",
        summary: "simlint::allow comments must name a known rule, carry a justification, and actually suppress something",
        rationale: "A suppression is a signed waiver: it must name a real rule, say why, and \
                    actually silence a finding. Unjustified or stale allows rot into blanket \
                    immunity; --fix removes the stale ones mechanically.",
        example: "// simlint::allow(no-hash-order): keyed probe only — order never observed",
    },
    RuleMeta {
        name: "nondet-taint",
        summary: "values from hash iteration, wall clocks, or ambient RNG may not flow into schedule/push/SimTime construction",
        rationale: "Nondeterminism only matters once it reaches the event queue. This rule \
                    tracks values born from hash iteration, wall clocks, or ambient RNG \
                    through locals and helper calls (interprocedural summaries), and fires \
                    when one reaches schedule/push/SimTime construction — once, at the sink.",
        example: "let k = *map.keys().next().unwrap();   // tainted\nqueue.schedule_at(t, k);               // finding at the sink",
    },
    RuleMeta {
        name: "time-unit",
        summary: "integers reaching SimTime/window/timeout parameters must agree with the _us/_ms suffix and simlint::unit annotations",
        rationale: "Mixed µs/ms/s arithmetic is the classic silent 1000x error. Units are \
                    declared by name suffix (_us/_ms/_secs) or simlint::unit annotations, \
                    propagated through locals, parameters, and function return values, and \
                    checked where they reach SimTime and window/timeout sinks.",
        example: "fn poll_window() -> u64 { let w_ms = 50; w_ms }\nSimTime::from_micros(poll_window())   // finding: ms feeds a µs sink",
    },
    RuleMeta {
        name: "match-exhaustive",
        summary: "matches over SpanKind/FlagKind/QueueKind in sim-crate library code may not hide variants behind a catch-all arm",
        rationale: "A `_` arm over a simulation enum absorbs every future variant, so adding \
                    one compiles clean while attribution, detection, or scheduling quietly \
                    miscounts it. Naming every variant forces an explicit decision.",
        example: "match kind { SpanKind::Issued => .., _ => {} }   // finding on the `_` arm",
    },
    RuleMeta {
        name: "shard-cross-thread",
        summary: "tainted or hash-ordered values may not be captured by thread-crossing closures (thread::scope/spawn/par_runs) or sent through channels",
        rationale: "Once the kernel shards across cores, values crossing a thread boundary \
                    must be deterministic and unshared: a tainted capture, a channel send of \
                    one, or a closure that writes a captured binding makes one shard's \
                    timing visible to another.",
        example: "par_runs(n, |i| { total += run(i); })   // finding: closure writes captured `total`",
    },
    RuleMeta {
        name: "shard-shared-state",
        summary: "static mut, interior-mutable statics (RefCell/Cell/Mutex/RwLock/UnsafeCell), Relaxed atomics, and static writes are cross-thread nondeterminism hazards in sim-crate library code",
        rationale: "static mut, interior-mutable statics, Relaxed atomics, and writes to \
                    process globals are invisible cross-shard channels: one shard's timing \
                    leaks into another's state in ways no single-threaded test can catch. \
                    Shard state must be owned by exactly one shard and joined by index.",
        example: "static HITS: AtomicU64 = ..;\nHITS.fetch_add(1, Ordering::SeqCst);   // finding: sim code writes a process global",
    },
    RuleMeta {
        name: "shard-order-agg",
        summary: "channel-received fan-out results must be combined by index, not appended in completion order",
        rationale: "Collecting fan-out results in completion order bakes thread scheduling \
                    into the output. Joining by shard index makes the merged result \
                    independent of which shard finished first.",
        example: "while let Ok(r) = rx.recv() { out.push(r) }   // finding\nout[r.shard] = r;                              // ok: joined by index",
    },
    RuleMeta {
        name: "observer-purity",
        summary: "observation-gated code (cfg.trace/cfg.metrics/cfg.prof guards, observer impls) must have zero sim-state write effects, transitively",
        rationale: "The paper's methodology hinges on instrumentation that cannot perturb the \
                    timing it measures: millibottlenecks are sub-second stalls, so even a \
                    counter bump on the sim side of an `if cfg.trace` changes what is being \
                    observed. The write-effect engine summarizes what every function may \
                    mutate (fields, statics, &mut params, transitively through helpers and \
                    closures) and proves observation-gated code pure of sim-state writes — \
                    statically, for every seed at once, where the golden digests check three. \
                    Reported once, at the outermost gated call.",
        example: "if self.cfg.trace {\n    self.advance_clock();   // finding here: helper writes self.clock_us\n}",
    },
    RuleMeta {
        name: "frozen-config",
        summary: "no SystemConfig field mutation after validate() returns (or through a stored config, which is post-validate by construction)",
        rationale: "SystemConfig is mutable while it is being built and frozen the moment \
                    validate() returns: later field writes skip re-validation, so a run can \
                    start from a config no validator ever saw — and a mid-run write changes \
                    behavior in a way (config, seed) no longer describes. Builder methods in \
                    impl SystemConfig are exempt.",
        example: "cfg.validate()?;\ncfg.population = 200;   // finding: post-validate mutation",
    },
];

/// Looks up a rule by name.
pub fn rule_named(name: &str) -> Option<&'static RuleMeta> {
    RULES.iter().find(|r| r.name == name)
}

/// Per-file context handed to the rules.
#[derive(Debug, Clone, Copy)]
pub struct FileInput<'a> {
    /// Owning package name.
    pub crate_name: &'a str,
    /// Role of the file within its crate.
    pub role: FileRole,
    /// Workspace-relative path.
    pub rel_path: &'a str,
    /// Lexed token stream (comments included).
    pub tokens: &'a [Token],
    /// Whether this file is a crate root (`src/lib.rs` / `src/main.rs`).
    pub is_crate_root: bool,
}

impl FileInput<'_> {
    fn in_sim_crate(&self) -> bool {
        SIM_CRATES.contains(&self.crate_name)
    }

    fn is_shim(&self) -> bool {
        self.rel_path.starts_with("shims/")
    }
}

/// Runs every per-file rule on one file, returning raw (unsuppressed)
/// findings.
pub fn check_file(input: &FileInput<'_>) -> Vec<Finding> {
    let code: Vec<&Token> = input.tokens.iter().filter(|t| !t.is_comment()).collect();
    let mut findings = Vec::new();
    if input.in_sim_crate() && input.role == FileRole::Lib {
        no_wall_clock(input, &code, &mut findings);
        no_system_io(input, &code, &mut findings);
        no_hash_order(input, &code, &mut findings);
        shard_shared_state(input, &code, &mut findings);
    }
    if !input.is_shim() {
        no_ambient_rng(input, &code, &mut findings);
    }
    if HOT_PATHS.contains(&input.rel_path) {
        panic_hygiene(input, &code, &mut findings);
    }
    if FLOAT_ACCUM_PATHS.contains(&input.rel_path) {
        no_float_accum(input, &code, &mut findings);
    }
    if input.is_crate_root {
        crate_header(input, &code, &mut findings);
    }
    findings
}

fn finding(input: &FileInput<'_>, rule: &'static str, t: &Token, message: String) -> Finding {
    Finding {
        rule,
        path: input.rel_path.to_owned(),
        line: t.line,
        col: t.col,
        message,
        fingerprint: 0,
    }
}

/// `no-wall-clock`: `Instant::now(...)` or any `SystemTime` mention.
fn no_wall_clock(input: &FileInput<'_>, code: &[&Token], out: &mut Vec<Finding>) {
    for (i, t) in code.iter().enumerate() {
        if t.is_ident("SystemTime") {
            out.push(finding(
                input,
                "no-wall-clock",
                t,
                "SystemTime read in simulation code; sim time must flow from the event queue \
                 (use SimTime/SimDuration)"
                    .to_owned(),
            ));
        }
        if t.is_ident("Instant")
            && matches!(code.get(i + 1), Some(n) if n.is_punct(':'))
            && matches!(code.get(i + 2), Some(n) if n.is_punct(':'))
            && matches!(code.get(i + 3), Some(n) if n.is_ident("now"))
        {
            out.push(finding(
                input,
                "no-wall-clock",
                t,
                "Instant::now() in simulation code; wall-clock reads make runs irreproducible \
                 (bench harness timing is exempt by scope)"
                    .to_owned(),
            ));
        }
    }
}

/// `no-system-io`: filesystem and environment access in simulation
/// library code. A simulation whose behavior (or whose artifacts) depend
/// on the host filesystem or environment variables is not reproducible
/// from (config, seed) alone: flag `std::fs`/`std::env` paths, module
/// calls through `use std::fs;`-style imports (`fs::read_to_string`,
/// `env::var`), and `File::open`/`File::create`. Bench, CLI, and linter
/// crates are exempt by scope — harness I/O is their job.
fn no_system_io(input: &FileInput<'_>, code: &[&Token], out: &mut Vec<Finding>) {
    let preceded_by_path = |i: usize| i >= 1 && code[i - 1].is_punct(':');
    for (i, t) in code.iter().enumerate() {
        let double_colon_then = |name_ok: fn(&Token) -> bool| {
            matches!(code.get(i + 1), Some(n) if n.is_punct(':'))
                && matches!(code.get(i + 2), Some(n) if n.is_punct(':'))
                && matches!(code.get(i + 3), Some(n) if name_ok(n))
        };
        let flagged =
            if t.is_ident("std") && double_colon_then(|n| n.is_ident("fs") || n.is_ident("env")) {
                // `std::fs::…` / `std::env::…`, including `use` declarations.
                Some(format!("std::{}", code[i + 3].text))
            } else if t.is_ident("fs")
                && !preceded_by_path(i)
                && double_colon_then(|n| n.kind == TokenKind::Ident)
            {
                // `fs::read_to_string(…)` through `use std::fs;`.
                Some(format!("fs::{}", code[i + 3].text))
            } else if t.is_ident("env")
                && !preceded_by_path(i)
                && double_colon_then(|n| n.kind == TokenKind::Ident)
            {
                Some(format!("env::{}", code[i + 3].text))
            } else if t.is_ident("File")
                && !preceded_by_path(i)
                && double_colon_then(|n| n.is_ident("open") || n.is_ident("create"))
            {
                Some(format!("File::{}", code[i + 3].text))
            } else {
                None
            };
        if let Some(what) = flagged {
            out.push(finding(
                input,
                "no-system-io",
                t,
                format!(
                    "`{what}` touches the host filesystem/environment in simulation code; \
                     runs must be a function of (config, seed) alone — take inputs from \
                     SystemConfig and write artifacts from the bench/CLI layer"
                ),
            ));
        }
    }
}

/// Types providing interior mutability: a static of one of these is
/// shared mutable state reachable from every future event-queue shard.
const INTERIOR_MUTABLE: [&str; 5] = ["RefCell", "Cell", "Mutex", "RwLock", "UnsafeCell"];

/// `shard-shared-state`: `static mut`, statics with interior-mutable
/// types, and `Ordering::Relaxed` atomic accesses in sim-crate library
/// code. All three are invisible cross-thread channels: once the event
/// queue is sharded across cores, any of them lets one shard's timing
/// leak into another shard's state, which breaks byte-reproducibility
/// in exactly the way no single-threaded test can catch. Shard state
/// must be threaded through explicit ownership instead.
fn shard_shared_state(input: &FileInput<'_>, code: &[&Token], out: &mut Vec<Finding>) {
    for (i, t) in code.iter().enumerate() {
        // `'static` lifetimes lex as one Lifetime token, so an Ident
        // `static` here is always the item keyword.
        if t.is_ident("static") {
            if matches!(code.get(i + 1), Some(n) if n.is_ident("mut")) {
                out.push(finding(
                    input,
                    "shard-shared-state",
                    t,
                    "`static mut` is unsynchronized shared mutable state; once the kernel \
                     shards across threads this races — thread the state through explicit \
                     ownership (struct fields passed down the call tree)"
                        .to_owned(),
                ));
                continue;
            }
            // Scan the declared type (up to the initializer or the end
            // of the item) for interior-mutable wrappers.
            for n in code.iter().skip(i + 1).take(40) {
                if n.is_punct('=') || n.is_punct(';') || n.is_punct('{') {
                    break;
                }
                if n.kind == TokenKind::Ident && INTERIOR_MUTABLE.contains(&n.text.as_str()) {
                    out.push(finding(
                        input,
                        "shard-shared-state",
                        n,
                        format!(
                            "static with interior mutability (`{}`) is cross-thread shared \
                             state; shard determinism requires state owned by exactly one \
                             shard and joined by index",
                            n.text
                        ),
                    ));
                    break;
                }
            }
        }
        if t.is_ident("Ordering")
            && matches!(code.get(i + 1), Some(n) if n.is_punct(':'))
            && matches!(code.get(i + 2), Some(n) if n.is_punct(':'))
            && matches!(code.get(i + 3), Some(n) if n.is_ident("Relaxed"))
        {
            out.push(finding(
                input,
                "shard-shared-state",
                t,
                "`Ordering::Relaxed` provides no cross-thread ordering; observed values \
                 depend on the host memory model and timing — use at least Acquire/Release, \
                 or better, keep shard state unshared"
                    .to_owned(),
            ));
        }
    }
}

/// Methods whose results depend on a hash map's internal ordering.
const ORDER_SENSITIVE_METHODS: [&str; 10] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
    "retain",
];

/// `no-hash-order`: collect names bound to `HashMap`/`HashSet` and
/// functions returning them, then flag order-sensitive method calls,
/// `for … in` loops over the bindings, and method chains hanging off the
/// returning calls (`self.live().iter()`).
fn no_hash_order(input: &FileInput<'_>, code: &[&Token], out: &mut Vec<Finding>) {
    let mut hash_names: Vec<String> = Vec::new();
    for (i, t) in code.iter().enumerate() {
        if !(t.is_ident("HashMap") || t.is_ident("HashSet")) {
            continue;
        }
        if let Some(name) = bound_name(code, i) {
            if !hash_names.contains(&name) {
                hash_names.push(name);
            }
        }
    }
    let hash_fns = hash_returning_fns(code);
    for (i, t) in code.iter().enumerate() {
        // `name.iter()`-style calls on a hash-typed binding.
        if t.kind == TokenKind::Ident && hash_names.contains(&t.text) {
            // Skip path uses like `module::name`.
            if i > 0 && code[i - 1].is_punct(':') {
                continue;
            }
            if matches!(code.get(i + 1), Some(n) if n.is_punct('.'))
                && matches!(code.get(i + 3), Some(n) if n.is_punct('('))
            {
                if let Some(m) = code.get(i + 2) {
                    if m.kind == TokenKind::Ident
                        && ORDER_SENSITIVE_METHODS.contains(&m.text.as_str())
                    {
                        out.push(finding(
                            input,
                            "no-hash-order",
                            m,
                            format!(
                                "`{}.{}()` iterates a HashMap/HashSet in simulation code; \
                                 iteration order is nondeterministic — use a BTreeMap or keyed access",
                                t.text, m.text
                            ),
                        ));
                    }
                }
            }
        }
        // Chain receivers: `self.live().iter()` where `fn live` returns
        // a HashMap/HashSet. The receiver is the call, not a binding, so
        // the name scan above never sees it.
        if t.kind == TokenKind::Ident
            && hash_fns.contains(&t.text)
            && !matches!(i.checked_sub(1).map(|p| code[p]), Some(p) if p.is_ident("fn"))
            && matches!(code.get(i + 1), Some(n) if n.is_punct('('))
        {
            if let Some(close) = matching_paren(code, i + 1) {
                if matches!(code.get(close + 1), Some(n) if n.is_punct('.'))
                    && matches!(code.get(close + 3), Some(n) if n.is_punct('('))
                {
                    if let Some(m) = code.get(close + 2) {
                        if m.kind == TokenKind::Ident
                            && ORDER_SENSITIVE_METHODS.contains(&m.text.as_str())
                        {
                            out.push(finding(
                                input,
                                "no-hash-order",
                                m,
                                format!(
                                    "`{}().{}()` iterates the HashMap/HashSet returned by \
                                     `fn {}`; iteration order is nondeterministic — use a \
                                     BTreeMap or keyed access",
                                    t.text, m.text, t.text
                                ),
                            ));
                        }
                    }
                }
            }
        }
        // Direct constructor iteration: `HashMap::new().iter()` etc. is
        // silly but cheap to catch via the same method scan on the type
        // name itself.
        if (t.is_ident("HashMap") || t.is_ident("HashSet"))
            && matches!(code.get(i + 1), Some(n) if n.is_punct('.'))
        {
            if let Some(m) = code.get(i + 2) {
                if m.kind == TokenKind::Ident && ORDER_SENSITIVE_METHODS.contains(&m.text.as_str())
                {
                    out.push(finding(
                        input,
                        "no-hash-order",
                        m,
                        "iterating a freshly built HashMap/HashSet; iteration order is \
                         nondeterministic"
                            .to_owned(),
                    ));
                }
            }
        }
        // `for pat in <expr containing a bare hash name> {`
        if t.is_ident("for") {
            let Some(in_idx) = (i + 1..code.len().min(i + 40)).find(|&j| code[j].is_ident("in"))
            else {
                continue;
            };
            let Some(brace_idx) =
                (in_idx + 1..code.len().min(in_idx + 40)).find(|&j| code[j].is_punct('{'))
            else {
                continue;
            };
            for j in in_idx + 1..brace_idx {
                let tok = code[j];
                if tok.kind != TokenKind::Ident || !hash_names.contains(&tok.text) {
                    continue;
                }
                // Keyed or method access is judged by the method scan
                // above; a bare name (optionally `&`/`&mut`-prefixed)
                // means the map itself is iterated.
                let followed_by = code.get(j + 1);
                let keyed = matches!(followed_by, Some(n) if n.is_punct('.') || n.is_punct('['));
                if !keyed {
                    out.push(finding(
                        input,
                        "no-hash-order",
                        tok,
                        format!(
                            "`for … in {}` iterates a HashMap/HashSet in simulation code; \
                             iteration order is nondeterministic — use a BTreeMap",
                            tok.text
                        ),
                    ));
                }
            }
        }
    }
}

/// Collects names of functions whose declared return type mentions
/// `HashMap`/`HashSet`: `fn live(&self) -> &HashMap<K, V>`. The scan is
/// bounded (a signature fitting in ~80 tokens) and stops at the body
/// brace, so generic bounds inside the body never leak in.
fn hash_returning_fns(code: &[&Token]) -> Vec<String> {
    let mut fns = Vec::new();
    for i in 0..code.len() {
        if !code[i].is_ident("fn") {
            continue;
        }
        let Some(name) = code.get(i + 1).filter(|n| n.kind == TokenKind::Ident) else {
            continue;
        };
        let end = code.len().min(i + 80);
        let mut j = i + 2;
        let mut ret = None;
        while j + 1 < end {
            let t = code[j];
            if t.is_punct('{') || t.is_punct(';') {
                break;
            }
            if t.is_punct('-') && code[j + 1].is_punct('>') {
                ret = Some(j + 2);
                break;
            }
            j += 1;
        }
        let Some(start) = ret else { continue };
        for t in code.iter().take(end).skip(start) {
            if t.is_punct('{') || t.is_punct(';') {
                break;
            }
            if (t.is_ident("HashMap") || t.is_ident("HashSet")) && !fns.contains(&name.text) {
                fns.push(name.text.clone());
                break;
            }
        }
    }
    fns
}

/// Given `code[open]` == `(`, returns the index of the matching `)`
/// within a bounded window, or `None` if it does not close in range.
fn matching_paren(code: &[&Token], open: usize) -> Option<usize> {
    let mut depth = 0i32;
    let window = code.len().min(open + 80);
    for (j, t) in code.iter().enumerate().take(window).skip(open) {
        if t.is_punct('(') {
            depth += 1;
        } else if t.is_punct(')') {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

/// Given `code[i]` == `HashMap`/`HashSet`, finds the binding name: either
/// a type ascription (`name: [path::]HashMap<…>`, `&mut` and lifetimes
/// skipped) or a constructor assignment (`let [mut] name = HashMap::…`).
fn bound_name(code: &[&Token], i: usize) -> Option<String> {
    // Walk back over a path prefix: `std :: collections ::`.
    let mut j = i;
    while j >= 2 && code[j - 1].is_punct(':') && code[j - 2].is_punct(':') {
        j -= 2;
        if j >= 1 && code[j - 1].kind == TokenKind::Ident {
            j -= 1;
        } else {
            break;
        }
    }
    // Skip reference/mutability/lifetime noise between `:` and the type.
    let mut k = j;
    while k >= 1 {
        let prev = code[k - 1];
        if prev.is_punct('&') || prev.is_ident("mut") || prev.kind == TokenKind::Lifetime {
            k -= 1;
        } else {
            break;
        }
    }
    if k >= 2 && code[k - 1].is_punct(':') && !code[k - 2].is_punct(':') {
        let name = code[k - 2];
        if name.kind == TokenKind::Ident {
            return Some(name.text.clone());
        }
    }
    // `let [mut] name = HashMap::new()` / `= HashMap::with_capacity(…)`.
    if i >= 2 && code[i - 1].is_punct('=') && code[i - 2].kind == TokenKind::Ident {
        return Some(code[i - 2].text.clone());
    }
    None
}

/// `no-float-accum`: running `f64`/`f32` sums in the telemetry and
/// metrics accumulation paths. Tracks names bound to a float — type
/// ascriptions (`sum: f64`, struct fields included) and float-literal
/// initialisers (`let mut sum = 0.0`) — then flags `+=` onto them and
/// `.sum::<f64>()` folds. Float *reads* (averages, shares) are fine;
/// only the accumulated state must stay integral.
fn no_float_accum(input: &FileInput<'_>, code: &[&Token], out: &mut Vec<Finding>) {
    let mut float_names: Vec<String> = Vec::new();
    for (i, t) in code.iter().enumerate() {
        // `name : f64` ascription (fields, params, lets alike). The
        // pre-colon guard skips path segments like `std::f64`.
        if (t.is_ident("f64") || t.is_ident("f32"))
            && i >= 2
            && code[i - 1].is_punct(':')
            && !code[i - 2].is_punct(':')
            && code[i - 2].kind == TokenKind::Ident
        {
            let name = &code[i - 2].text;
            if !float_names.contains(name) {
                float_names.push(name.clone());
            }
        }
        // `let [mut] name = 0.0` — Number tokens keep their text, so a
        // decimal point or an explicit float suffix marks the literal.
        if t.kind == TokenKind::Number
            && (t.text.contains('.') || t.text.ends_with("f64") || t.text.ends_with("f32"))
            && i >= 2
            && code[i - 1].is_punct('=')
            && !code[i - 2].is_punct('=')
            && !code[i - 2].is_punct('+')
            && code[i - 2].kind == TokenKind::Ident
        {
            let name = &code[i - 2].text;
            if !float_names.contains(name) {
                float_names.push(name.clone());
            }
        }
    }
    for (i, t) in code.iter().enumerate() {
        if t.kind == TokenKind::Ident
            && float_names.contains(&t.text)
            && matches!(code.get(i + 1), Some(n) if n.is_punct('+'))
            && matches!(code.get(i + 2), Some(n) if n.is_punct('='))
        {
            out.push(finding(
                input,
                "no-float-accum",
                t,
                format!(
                    "`{} +=` accumulates a float in a telemetry/metrics path; running sums \
                     drift with summation order — accumulate integer micros/counts and \
                     convert on read",
                    t.text
                ),
            ));
        }
        // `.sum::<f64>()` folds hide the same drift behind an iterator.
        if t.is_ident("sum")
            && matches!(code.get(i + 1), Some(n) if n.is_punct(':'))
            && matches!(code.get(i + 2), Some(n) if n.is_punct(':'))
            && matches!(code.get(i + 3), Some(n) if n.is_punct('<'))
            && matches!(code.get(i + 4), Some(n) if n.is_ident("f64") || n.is_ident("f32"))
        {
            out.push(finding(
                input,
                "no-float-accum",
                t,
                ".sum::<f64>() folds floats in a telemetry/metrics path; sum integer \
                 micros/counts and convert on read"
                    .to_owned(),
            ));
        }
    }
}

/// `no-ambient-rng`: unseeded randomness sources.
fn no_ambient_rng(input: &FileInput<'_>, code: &[&Token], out: &mut Vec<Finding>) {
    for (i, t) in code.iter().enumerate() {
        let banned = if t.is_ident("thread_rng") {
            Some("thread_rng()")
        } else if t.is_ident("OsRng") {
            Some("OsRng")
        } else if t.is_ident("from_entropy") {
            Some("from_entropy()")
        } else if t.is_ident("rand")
            && matches!(code.get(i + 1), Some(n) if n.is_punct(':'))
            && matches!(code.get(i + 2), Some(n) if n.is_punct(':'))
            && matches!(code.get(i + 3), Some(n) if n.is_ident("random"))
        {
            Some("rand::random()")
        } else {
            None
        };
        if let Some(b) = banned {
            out.push(finding(
                input,
                "no-ambient-rng",
                t,
                format!(
                    "{b} draws ambient (unseeded) randomness; derive a stream from \
                     mlb_simkernel::rng::SeedSequence instead"
                ),
            ));
        }
    }
}

/// `panic-hygiene`: `.unwrap(` / `.expect(` in event-loop hot paths.
fn panic_hygiene(input: &FileInput<'_>, code: &[&Token], out: &mut Vec<Finding>) {
    for (i, t) in code.iter().enumerate() {
        if !t.is_punct('.') {
            continue;
        }
        let Some(m) = code.get(i + 1) else { continue };
        if !(m.is_ident("unwrap") || m.is_ident("expect")) {
            continue;
        }
        if !matches!(code.get(i + 2), Some(n) if n.is_punct('(')) {
            continue;
        }
        out.push(finding(
            input,
            "panic-hygiene",
            m,
            format!(
                ".{}() in an event-loop hot path; justify the invariant with a \
                 simlint::allow suppression or handle the None/Err arm",
                m.text
            ),
        ));
    }
}

/// `crate-header`: the crate root must `#![forbid(unsafe_code)]`.
fn crate_header(input: &FileInput<'_>, code: &[&Token], out: &mut Vec<Finding>) {
    let has = code.iter().enumerate().any(|(i, t)| {
        t.is_ident("forbid")
            && matches!(code.get(i + 1), Some(n) if n.is_punct('('))
            && matches!(code.get(i + 2), Some(n) if n.is_ident("unsafe_code"))
    });
    if !has {
        out.push(Finding {
            rule: "crate-header",
            path: input.rel_path.to_owned(),
            line: 1,
            col: 1,
            message: "crate root lacks #![forbid(unsafe_code)]".to_owned(),
            fingerprint: 0,
        });
    }
}

/// Extracts the variant names of `enum SpanKind` from a token stream.
pub fn span_variants(tokens: &[Token]) -> Vec<(String, u32)> {
    let code: Vec<&Token> = tokens.iter().filter(|t| !t.is_comment()).collect();
    let Some(start) = code
        .windows(2)
        .position(|w| w[0].is_ident("enum") && w[1].is_ident("SpanKind"))
    else {
        return Vec::new();
    };
    let Some(open) = (start..code.len()).find(|&i| code[i].is_punct('{')) else {
        return Vec::new();
    };
    let mut variants = Vec::new();
    let (mut brace, mut bracket, mut paren) = (1i32, 0i32, 0i32);
    let mut expect_variant = true;
    let mut idx = open + 1;
    while idx < code.len() && brace > 0 {
        let t = code[idx];
        match t.kind {
            TokenKind::Punct('{') => brace += 1,
            TokenKind::Punct('}') => {
                brace -= 1;
                if brace == 1 {
                    expect_variant = true; // end of a struct-variant body
                }
            }
            TokenKind::Punct('[') => bracket += 1,
            TokenKind::Punct(']') => bracket -= 1,
            TokenKind::Punct('(') => paren += 1,
            TokenKind::Punct(')') => paren -= 1,
            TokenKind::Punct(',') if brace == 1 && bracket == 0 && paren == 0 => {
                expect_variant = true;
            }
            TokenKind::Ident
                if expect_variant
                    && brace == 1
                    && bracket == 0
                    && paren == 0
                    && t.text.starts_with(char::is_uppercase) =>
            {
                variants.push((t.text.clone(), t.line));
                expect_variant = false;
            }
            _ => {}
        }
        idx += 1;
    }
    variants
}

/// `span-attribution`: every variant declared in `decl_tokens` must be
/// constructed (as `SpanKind::<Variant>`) somewhere in `ref_tokens`.
/// Returns findings anchored at the unreferenced variant declarations.
pub fn span_attribution(
    decl_path: &str,
    decl_tokens: &[Token],
    ref_tokens: &[(String, Vec<Token>)],
) -> Vec<Finding> {
    let variants = span_variants(decl_tokens);
    if variants.is_empty() {
        return vec![Finding {
            rule: "span-attribution",
            path: decl_path.to_owned(),
            line: 1,
            col: 1,
            message: "could not locate `enum SpanKind`; the span-attribution rule is wired to a \
                      declaration that no longer exists"
                .to_owned(),
            fingerprint: 0,
        }];
    }
    let mut referenced: Vec<String> = Vec::new();
    for (_, tokens) in ref_tokens {
        let code: Vec<&Token> = tokens.iter().filter(|t| !t.is_comment()).collect();
        for i in 0..code.len() {
            if code[i].is_ident("SpanKind")
                && matches!(code.get(i + 1), Some(n) if n.is_punct(':'))
                && matches!(code.get(i + 2), Some(n) if n.is_punct(':'))
            {
                if let Some(v) = code.get(i + 3) {
                    if v.kind == TokenKind::Ident && !referenced.contains(&v.text) {
                        referenced.push(v.text.clone());
                    }
                }
            }
        }
    }
    let sources: Vec<&str> = ref_tokens.iter().map(|(p, _)| p.as_str()).collect();
    variants
        .iter()
        .filter(|(v, _)| !referenced.contains(v))
        .map(|(v, line)| Finding {
            rule: "span-attribution",
            path: decl_path.to_owned(),
            line: *line,
            col: 1,
            message: format!(
                "SpanKind::{v} is declared but never constructed in {}; requests carrying it \
                 would silently fall out of VLRT attribution",
                sources.join(", ")
            ),
            fingerprint: 0,
        })
        .collect()
}

/// Enums whose matches in sim-crate library code must name every
/// variant: hiding a new `SpanKind`/`FlagKind`/`QueueKind` behind `_`
/// silently drops it from attribution/detection/scheduling decisions.
/// (The issue names `DetectorFlag`, but that is a struct — the enum
/// that actually classifies detector flags is `FlagKind`.)
pub const MATCH_ENUMS: [&str; 3] = ["SpanKind", "FlagKind", "QueueKind"];

/// Which dataflow rule families apply to a file, if any. This is the
/// single scope decision shared by the analysis pass and the summary
/// builder: sim-crate library code gets everything; `mlb-bench` library
/// code gets only the shard family (the harness legitimately reads wall
/// clocks and appends results, but a tainted capture crossing into
/// `par_runs` is still a bug there); everything else — tests, bins,
/// shims, the linter itself — is out of scope.
pub fn flow_families_for(crate_name: &str, role: FileRole) -> Option<dataflow::FlowFamilies> {
    if role != FileRole::Lib {
        return None;
    }
    if SIM_CRATES.contains(&crate_name) {
        Some(dataflow::FlowFamilies::all())
    } else if crate_name == "mlb-bench" {
        Some(dataflow::FlowFamilies::shard_only())
    } else {
        None
    }
}

/// Runs the AST/dataflow rule families (`nondet-taint`, `time-unit`,
/// `shard-cross-thread`, `shard-order-agg`, `match-exhaustive`) plus the
/// write-effect rules (`observer-purity`, `frozen-config`, the
/// field-sensitive shard upgrades) on one parsed file. Scope comes from
/// [`flow_families_for`]; `#[cfg(test)]` modules are skipped.
/// `summaries` carries the workspace-wide function summaries, so the
/// body walker tracks taint, units and writes across call boundaries.
pub fn check_ast(
    input: &FileInput<'_>,
    file: &ast::File,
    symbols: &Symbols,
    anns: &UnitAnnotations,
    summaries: &Summaries,
    model: &StateModel,
) -> Vec<Finding> {
    let mut findings = Vec::new();
    let Some(families) = flow_families_for(input.crate_name, input.role) else {
        return findings;
    };
    // match-exhaustive is about sim-enum vocabulary, not dataflow, and
    // the purity/frozen-config rules bind the simulation itself: both
    // apply exactly to sim-crate library code, not to the bench crate.
    let sim = input.in_sim_crate();
    let ctx = Ctx {
        symbols,
        anns,
        model,
        summaries,
    };
    ast::walk_fns(file, &mut |owner, func| {
        findings.extend(dataflow::check_fn(
            func,
            owner,
            ctx,
            families,
            sim,
            input.rel_path,
        ));
        if sim {
            match_exhaustive(input, func, symbols, &mut findings);
        }
    });
    findings
}

fn match_exhaustive(
    input: &FileInput<'_>,
    func: &ast::Func,
    symbols: &Symbols,
    out: &mut Vec<Finding>,
) {
    let Some(body) = &func.body else { return };
    ast::walk_block_exprs(body, &mut |e| {
        let ast::ExprKind::Match { arms, .. } = &e.kind else {
            return;
        };
        let Some(enum_name) = matched_sim_enum(arms, symbols) else {
            return;
        };
        for arm in arms {
            if arm.pat.is_catch_all() && arm.guard.is_none() {
                out.push(Finding {
                    rule: "match-exhaustive",
                    path: input.rel_path.to_owned(),
                    line: arm.span.line,
                    col: arm.span.col,
                    message: format!(
                        "match over `{enum_name}` hides variants behind a catch-all arm; \
                         name every variant so adding one forces an explicit decision here"
                    ),
                    fingerprint: 0,
                });
            }
        }
    });
}

/// Which simulation enum a match is over, judged from the arm patterns:
/// any arm naming `Enum::Variant` (optionally through an or-pattern)
/// claims the match, provided the enum is actually declared in the
/// symbol table (so a stray local type with a colliding name in some
/// other workspace does not bind the rule).
fn matched_sim_enum(arms: &[ast::Arm], symbols: &Symbols) -> Option<&'static str> {
    arms.iter().find_map(|arm| pat_sim_enum(&arm.pat, symbols))
}

fn pat_sim_enum(pat: &ast::Pat, symbols: &Symbols) -> Option<&'static str> {
    match &pat.kind {
        ast::PatKind::Path(path)
        | ast::PatKind::TupleStruct { path, .. }
        | ast::PatKind::Struct { path, .. } => MATCH_ENUMS
            .iter()
            .find(|e| path.iter().any(|seg| seg == *e) && symbols.enums.contains_key(**e))
            .copied(),
        ast::PatKind::Or(alts) => alts.iter().find_map(|p| pat_sim_enum(p, symbols)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn sim_lib_input<'a>(tokens: &'a [Token]) -> FileInput<'a> {
        FileInput {
            crate_name: "mlb-ntier",
            role: FileRole::Lib,
            rel_path: "crates/ntier/src/system.rs",
            tokens,
            is_crate_root: false,
        }
    }

    #[test]
    fn wall_clock_flags_instant_now_but_not_simtime() {
        let toks = lex("let t = Instant::now(); let s = SimTime::ZERO; let i: Instant = x;");
        let f = check_file(&sim_lib_input(&toks));
        let wall: Vec<_> = f.iter().filter(|f| f.rule == "no-wall-clock").collect();
        assert_eq!(wall.len(), 1); // the bare `Instant` type mention passes
    }

    #[test]
    fn system_io_flags_fs_and_env_but_not_harness_crates() {
        let src = "
            use std::fs;
            fn f() {
                let s = fs::read_to_string(\"x\").unwrap();
                let v = std::env::var(\"SEED\");
                let f = File::open(\"y\");
                let t = SimTime::ZERO;
            }
        ";
        let toks = lex(src);
        let f = check_file(&sim_lib_input(&toks));
        let hits: Vec<_> = f.iter().filter(|f| f.rule == "no-system-io").collect();
        assert_eq!(hits.len(), 4, "{hits:?}");
        let bench = FileInput {
            crate_name: "mlb-bench",
            role: FileRole::Lib,
            rel_path: "crates/bench/src/scaling.rs",
            tokens: &toks,
            is_crate_root: false,
        };
        assert!(check_file(&bench).iter().all(|f| f.rule != "no-system-io"));
    }

    #[test]
    fn system_io_ignores_env_macro_and_foreign_paths() {
        // `env!` is a compile-time macro, and `self.env::<T>()`-style
        // turbofish on a non-module ident must not be confused with the
        // std module; neither may doc comments.
        let src = "
            /// Reads std::fs at runtime? No — this is a doc comment.
            fn g() {
                let dir = env!(\"CARGO_MANIFEST_DIR\");
                let x = other::fs::thing();
            }
        ";
        let f = check_file(&sim_lib_input(&lex(src)));
        assert!(f.iter().all(|f| f.rule != "no-system-io"), "{f:?}");
    }

    #[test]
    fn hash_order_tracks_field_and_let_bindings() {
        let src = "
            struct S { live: HashMap<u64, V> }
            fn f(s: &mut S) {
                let mut seen = HashSet::new();
                for (k, v) in &s.live {}
                let _ = s.live.get(&3);
                for x in &seen {}
                seen.insert(1);
                let keyed = s.live[&7];
            }
        ";
        let toks = lex(src);
        let f = check_file(&sim_lib_input(&toks));
        let hits: Vec<_> = f.iter().filter(|f| f.rule == "no-hash-order").collect();
        assert_eq!(hits.len(), 2, "{hits:?}");
        assert!(hits[0].message.contains("live") || hits[1].message.contains("live"));
    }

    #[test]
    fn hash_order_flags_iter_methods() {
        let src = "
            fn f(m: &HashMap<u64, V>) {
                for k in m.keys() {}
                let v: Vec<_> = m.values().collect();
                m.get(&1);
            }
        ";
        let f = check_file(&sim_lib_input(&lex(src)));
        assert_eq!(
            f.iter().filter(|f| f.rule == "no-hash-order").count(),
            2,
            "{f:?}"
        );
    }

    #[test]
    fn hash_order_ignores_btreemap_and_nonsim_roles() {
        let src = "struct S { m: BTreeMap<u64, V> } fn f(s: &S) { for x in &s.m {} }";
        let toks = lex(src);
        assert!(check_file(&sim_lib_input(&toks)).is_empty());
        let bench = FileInput {
            crate_name: "mlb-bench",
            role: FileRole::Lib,
            rel_path: "crates/bench/src/runs.rs",
            tokens: &toks,
            is_crate_root: false,
        };
        assert!(check_file(&bench).iter().all(|f| f.rule != "no-hash-order"));
    }

    #[test]
    fn hash_order_flags_method_chain_receivers() {
        let src = "
            impl S {
                fn live(&self) -> &HashMap<u64, V> { &self.live }
                fn f(&self) {
                    for k in self.live().keys() {}
                    let v = self.live().get(&3);
                }
            }
        ";
        let f = check_file(&sim_lib_input(&lex(src)));
        let hits: Vec<_> = f.iter().filter(|f| f.rule == "no-hash-order").collect();
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert!(hits[0].message.contains("live().keys()"));
    }

    #[test]
    fn hash_order_ignores_chains_on_nonhash_fns() {
        let src = "
            impl S {
                fn rows(&self) -> &BTreeMap<u64, V> { &self.rows }
                fn f(&self) { for k in self.rows().keys() {} }
            }
        ";
        assert!(check_file(&sim_lib_input(&lex(src))).is_empty());
    }

    fn float_accum_input<'a>(tokens: &'a [Token]) -> FileInput<'a> {
        FileInput {
            crate_name: "mlb-metrics",
            role: FileRole::Lib,
            rel_path: "crates/metrics/src/registry.rs",
            tokens,
            is_crate_root: false,
        }
    }

    #[test]
    fn float_accum_flags_sums_but_not_integer_counters() {
        let src = "
            struct W { sum: f64, count: u64 }
            fn f(w: &mut W, value: f64) {
                w.sum += value;
                w.count += 1;
                let mut acc = 0.0;
                acc += value;
                let mut n = 0;
                n += 1;
            }
        ";
        let f = check_file(&float_accum_input(&lex(src)));
        let hits: Vec<_> = f.iter().filter(|f| f.rule == "no-float-accum").collect();
        assert_eq!(hits.len(), 2, "{hits:?}");
        assert!(hits.iter().any(|h| h.message.contains("`sum +=`")));
        assert!(hits.iter().any(|h| h.message.contains("`acc +=`")));
    }

    #[test]
    fn float_accum_flags_iterator_folds_and_binds_paths_only() {
        let toks = lex("let t = xs.iter().map(|x| x.ms).sum::<f64>();");
        let f = check_file(&float_accum_input(&toks));
        assert_eq!(
            f.iter().filter(|f| f.rule == "no-float-accum").count(),
            1,
            "{f:?}"
        );
        // Outside the accumulation paths the same code is untouched.
        let mut input = float_accum_input(&toks);
        input.rel_path = "crates/metrics/src/csv.rs";
        assert!(check_file(&input)
            .iter()
            .all(|f| f.rule != "no-float-accum"));
    }

    #[test]
    fn float_accum_allows_float_reads() {
        let src = "
            fn avg(sum_us: u64, n: u64) -> f64 {
                sum_us as f64 / n as f64 / 1_000.0
            }
        ";
        assert!(check_file(&float_accum_input(&lex(src))).is_empty());
    }

    #[test]
    fn ambient_rng_flags_thread_rng_everywhere_but_shims() {
        let toks = lex("let mut rng = thread_rng(); let x: u8 = rand::random();");
        let mut input = sim_lib_input(&toks);
        assert_eq!(
            check_file(&input)
                .iter()
                .filter(|f| f.rule == "no-ambient-rng")
                .count(),
            2
        );
        input.rel_path = "shims/rand/src/lib.rs";
        input.crate_name = "rand";
        assert!(check_file(&input)
            .iter()
            .all(|f| f.rule != "no-ambient-rng"));
    }

    #[test]
    fn panic_hygiene_only_binds_hot_paths() {
        let toks =
            lex("let v = map.get(&k).expect(\"state bug\"); let w = o.unwrap(); u.unwrap_or(3);");
        let mut input = sim_lib_input(&toks);
        assert_eq!(
            check_file(&input)
                .iter()
                .filter(|f| f.rule == "panic-hygiene")
                .count(),
            2
        );
        input.rel_path = "crates/ntier/src/servers.rs";
        assert!(check_file(&input).iter().all(|f| f.rule != "panic-hygiene"));
    }

    #[test]
    fn crate_header_checks_roots_only() {
        let toks = lex("//! docs\n#![forbid(unsafe_code)]\npub fn f() {}");
        let mut input = sim_lib_input(&toks);
        input.is_crate_root = true;
        assert!(check_file(&input).iter().all(|f| f.rule != "crate-header"));
        let missing = lex("pub fn f() {}");
        input.tokens = &missing;
        assert_eq!(
            check_file(&input)
                .iter()
                .filter(|f| f.rule == "crate-header")
                .count(),
            1
        );
    }

    #[test]
    fn span_variants_parse_struct_and_unit_variants() {
        let src = "
            pub enum SpanKind {
                Issued { client: u64, apache: u16 },
                Admitted,
                DbDispatched { remaining: u32 },
            }
        ";
        let vars: Vec<String> = span_variants(&lex(src))
            .into_iter()
            .map(|(v, _)| v)
            .collect();
        assert_eq!(vars, vec!["Issued", "Admitted", "DbDispatched"]);
    }

    #[test]
    fn span_attribution_reports_unreferenced_variants() {
        let decl = lex("pub enum SpanKind { Issued, Ghost }");
        let refs = vec![("tracer.rs".to_owned(), lex("self.push(SpanKind::Issued);"))];
        let f = span_attribution("spans.rs", &decl, &refs);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("Ghost"));
    }
}
