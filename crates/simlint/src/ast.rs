//! A lightweight Rust AST, just deep enough for dataflow linting.
//!
//! The [`parser`](crate::parser) produces this tree from the lexer's
//! token stream. It is deliberately *not* a faithful grammar: macro
//! bodies are token soup parsed best-effort, types are flattened to the
//! identifiers they mention, and any construct the parser does not
//! understand degrades to [`ExprKind::Unknown`] / [`StmtKind::Skipped`]
//! rather than failing the file. What the tree *does* preserve is
//! exactly what the semantic rules need:
//!
//! * statement and item **line spans**, so `simlint::allow` suppressions
//!   can scope to whole AST nodes instead of single lines;
//! * **def-use structure** (lets, params, calls, method chains, field
//!   accesses), so nondeterminism taint and time-unit facts can flow;
//! * **match arms and patterns**, so exhaustiveness over the simulation
//!   enums is checkable;
//! * enough of item signatures (param names/types, return types, struct
//!   fields, enum variants, consts) to build a cross-file symbol table.
//!
//! Every node carries a [`Span`]; `(start_line, start_col, end_line)`
//! is all the rules need for diagnostics and suppression scoping.

/// Source extent of a node: 1-based start line, start column, end line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// 1-based line of the node's first token.
    pub line: u32,
    /// 1-based column of the node's first token.
    pub col: u32,
    /// 1-based line of the node's last token.
    pub end_line: u32,
}

impl Span {
    /// A single-point span.
    pub fn point(line: u32, col: u32) -> Span {
        Span {
            line,
            col,
            end_line: line,
        }
    }

    /// Whether `line` falls inside this span.
    pub fn covers_line(&self, line: u32) -> bool {
        self.line <= line && line <= self.end_line
    }
}

/// One parsed source file.
#[derive(Debug, Default)]
pub struct File {
    /// Top-level items, in source order.
    pub items: Vec<Item>,
    /// How many times the parser had to skip unparseable input to
    /// recover. Zero means the whole file round-tripped.
    pub recovered_skips: u32,
}

/// A top-level (or nested) item.
#[derive(Debug)]
pub struct Item {
    /// What the item is.
    pub kind: ItemKind,
    /// Source extent.
    pub span: Span,
}

/// Item payload.
#[derive(Debug)]
pub enum ItemKind {
    /// A function (free, or inside an `impl`/`trait`).
    Fn(Func),
    /// A struct declaration with named fields (tuple/unit structs keep
    /// an empty field list).
    Struct(StructDef),
    /// An enum declaration.
    Enum(EnumDef),
    /// An `impl` block and its items.
    Impl(ImplDef),
    /// An inline `mod name { ... }` (out-of-line `mod name;` has no
    /// items).
    Mod(ModDef),
    /// A `const`/`static` item.
    Const(ConstDef),
    /// A `use` declaration.
    Use,
    /// Anything else (trait, type alias, macro_rules, extern block);
    /// parsed past but not modeled.
    Other,
}

/// A function item.
#[derive(Debug)]
pub struct Func {
    /// Function name.
    pub name: String,
    /// Parameters, `self` included (as a param named `self`).
    pub params: Vec<Param>,
    /// Declared return type, if any.
    pub ret: Option<TypeRef>,
    /// Body, absent for trait-method declarations.
    pub body: Option<Block>,
}

/// One function parameter.
#[derive(Debug)]
pub struct Param {
    /// Binding name (`self` for receivers); `None` for patterns the
    /// parser flattened away.
    pub name: Option<String>,
    /// Declared type, if present.
    pub ty: Option<TypeRef>,
    /// 1-based declaration line (unit annotations attach here).
    pub line: u32,
}

/// A flattened type reference: the identifiers the type mentions, in
/// order. `&mut BTreeMap<RequestId, Request>` becomes
/// `["BTreeMap", "RequestId", "Request"]`.
#[derive(Debug, Clone, Default)]
pub struct TypeRef {
    /// Identifiers appearing in the type, in source order.
    pub idents: Vec<String>,
}

impl TypeRef {
    /// Whether the type mentions any of `names`.
    pub fn mentions(&self, names: &[&str]) -> bool {
        self.idents.iter().any(|i| names.contains(&i.as_str()))
    }
}

/// A struct declaration.
#[derive(Debug)]
pub struct StructDef {
    /// Type name.
    pub name: String,
    /// Named fields (empty for tuple/unit structs).
    pub fields: Vec<FieldDef>,
}

/// One named struct field.
#[derive(Debug)]
pub struct FieldDef {
    /// Field name.
    pub name: String,
    /// Field type.
    pub ty: TypeRef,
    /// 1-based declaration line.
    pub line: u32,
}

/// An enum declaration.
#[derive(Debug)]
pub struct EnumDef {
    /// Type name.
    pub name: String,
    /// Variant names with their declaration lines.
    pub variants: Vec<(String, u32)>,
}

/// An `impl` block.
#[derive(Debug)]
pub struct ImplDef {
    /// Last path segment of the implemented type (`Tracer` for
    /// `impl<'a> crate::trace::Tracer<'a>`).
    pub ty_name: String,
    /// Items inside the block (typically `Fn`s).
    pub items: Vec<Item>,
}

/// An inline module.
#[derive(Debug)]
pub struct ModDef {
    /// Module name.
    pub name: String,
    /// Items inside the module.
    pub items: Vec<Item>,
    /// Whether the module carried a `#[cfg(test)]` attribute.
    pub cfg_test: bool,
}

/// A `const` or `static` item.
#[derive(Debug)]
pub struct ConstDef {
    /// Item name.
    pub name: String,
    /// Declared type.
    pub ty: Option<TypeRef>,
    /// Initializer, if the parser could model it.
    pub value: Option<Expr>,
    /// 1-based declaration line.
    pub line: u32,
}

/// A `{ ... }` block.
#[derive(Debug)]
pub struct Block {
    /// Statements, in order. The block's trailing expression is the last
    /// `StmtKind::Expr`.
    pub stmts: Vec<Stmt>,
    /// Source extent (opening to closing brace).
    pub span: Span,
}

/// One statement.
#[derive(Debug)]
pub struct Stmt {
    /// What the statement is.
    pub kind: StmtKind,
    /// Source extent.
    pub span: Span,
}

/// Statement payload.
#[derive(Debug)]
pub enum StmtKind {
    /// `let <pat>[: ty] [= init] [else { .. }];`
    Let {
        /// Names bound by the pattern.
        names: Vec<String>,
        /// Declared type ascription.
        ty: Option<TypeRef>,
        /// Initializer expression.
        init: Option<Expr>,
    },
    /// An expression statement (trailing `;` or not).
    Expr(Expr),
    /// A nested item.
    Item(Item),
    /// Unparseable input skipped during recovery.
    Skipped,
}

/// An expression.
#[derive(Debug)]
pub struct Expr {
    /// What the expression is.
    pub kind: ExprKind,
    /// Source extent.
    pub span: Span,
}

/// Literal kinds (contents dropped except numbers, which the time-unit
/// rule inspects).
#[derive(Debug)]
pub enum Lit {
    /// Integer or float literal, original text preserved.
    Num(String),
    /// Any string-ish literal.
    Str,
    /// Char/byte literal.
    Char,
    /// `true`/`false`.
    Bool(bool),
}

/// Expression payload.
#[derive(Debug)]
pub enum ExprKind {
    /// A (possibly qualified) path: `x`, `SimTime::from_micros`,
    /// `SpanKind::Issued`. Turbofish arguments are dropped.
    Path(Vec<String>),
    /// A literal.
    Lit(Lit),
    /// `callee(args)`.
    Call {
        /// The called expression (usually a `Path`).
        callee: Box<Expr>,
        /// Call arguments.
        args: Vec<Expr>,
    },
    /// `recv.method(args)` (turbofish dropped).
    MethodCall {
        /// Receiver expression.
        recv: Box<Expr>,
        /// Method name.
        method: String,
        /// Call arguments.
        args: Vec<Expr>,
    },
    /// `recv.field` (tuple indices included, as their digits).
    Field {
        /// Receiver expression.
        recv: Box<Expr>,
        /// Field name.
        name: String,
    },
    /// `recv[index]`.
    Index {
        /// Receiver expression.
        recv: Box<Expr>,
        /// Index expression.
        index: Box<Expr>,
    },
    /// A prefix-operator application (`&x`, `*x`, `!x`, `-x`).
    Unary {
        /// Operand.
        expr: Box<Expr>,
    },
    /// `lhs <op> rhs` for a binary operator.
    Binary {
        /// Operator text (`"+"`, `"=="`, `"<<"`, ...).
        op: &'static str,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// `lhs = rhs` or a compound assignment.
    Assign {
        /// Assignment target.
        lhs: Box<Expr>,
        /// Assigned value.
        rhs: Box<Expr>,
        /// Operator text (`"="`, `"+="`, ...).
        op: &'static str,
    },
    /// `expr as Type`.
    Cast {
        /// Casted expression.
        expr: Box<Expr>,
        /// Target type.
        ty: TypeRef,
    },
    /// `Path { field: value, .. }`.
    StructLit {
        /// Struct path.
        path: Vec<String>,
        /// `(field name, value if explicit, line)` triples; shorthand
        /// fields carry `None`.
        fields: Vec<(String, Option<Expr>, u32)>,
    },
    /// `(a, b, c)` (also unit `()` and parenthesized `(a)`).
    Tuple(Vec<Expr>),
    /// `[a, b]` / `[x; n]`.
    Array(Vec<Expr>),
    /// A block expression.
    Block(Block),
    /// `if cond { .. } [else ..]`; `cond` may contain `LetCond` chains.
    If {
        /// Condition.
        cond: Box<Expr>,
        /// Then-block.
        then: Block,
        /// `else` expression (a block or another `If`).
        els: Option<Box<Expr>>,
    },
    /// `let <pat> = expr` inside an `if`/`while` condition.
    LetCond {
        /// Names bound by the pattern.
        names: Vec<String>,
        /// Matched expression.
        expr: Box<Expr>,
    },
    /// `match scrutinee { arms }`.
    Match {
        /// Matched expression.
        scrutinee: Box<Expr>,
        /// The arms.
        arms: Vec<Arm>,
    },
    /// `for <pat> in iter { body }`.
    ForLoop {
        /// Names bound by the loop pattern.
        names: Vec<String>,
        /// Iterated expression.
        iter: Box<Expr>,
        /// Loop body.
        body: Block,
    },
    /// `while cond { body }`.
    While {
        /// Condition (may contain `LetCond`).
        cond: Box<Expr>,
        /// Loop body.
        body: Block,
    },
    /// `loop { body }`.
    Loop {
        /// Loop body.
        body: Block,
    },
    /// `|params| body` / `move |params| body`.
    Closure {
        /// Parameter names.
        params: Vec<String>,
        /// Closure body.
        body: Box<Expr>,
    },
    /// `name!(args)` — arguments parsed best-effort as expressions;
    /// unparseable arguments are dropped.
    MacroCall {
        /// Macro name (last path segment).
        name: String,
        /// Arguments the parser could model.
        args: Vec<Expr>,
    },
    /// `lo..hi` / `lo..=hi` with either end optional.
    Range {
        /// Lower bound.
        lo: Option<Box<Expr>>,
        /// Upper bound.
        hi: Option<Box<Expr>>,
    },
    /// `return`/`break`/`continue`, with an optional value.
    Jump(Option<Box<Expr>>),
    /// `expr?`.
    Try {
        /// Inner expression.
        expr: Box<Expr>,
    },
    /// Anything the parser could not model (recovered past).
    Unknown,
}

/// One match arm.
#[derive(Debug)]
pub struct Arm {
    /// The arm's pattern.
    pub pat: Pat,
    /// Guard expression, if any.
    pub guard: Option<Expr>,
    /// Arm body.
    pub body: Expr,
    /// Source extent of the whole arm.
    pub span: Span,
}

/// A pattern.
#[derive(Debug)]
pub struct Pat {
    /// What the pattern is.
    pub kind: PatKind,
    /// Source extent.
    pub span: Span,
}

/// Pattern payload.
#[derive(Debug)]
pub enum PatKind {
    /// `_`.
    Wild,
    /// A lowercase-initial single identifier: binds (and therefore
    /// covers) anything.
    Binding(String),
    /// A path pattern (`QueueKind::Wheel`, `SOME_CONST`).
    Path(Vec<String>),
    /// `Path(subpatterns)`.
    TupleStruct {
        /// Variant path.
        path: Vec<String>,
        /// Element patterns.
        elems: Vec<Pat>,
    },
    /// `Path { fields, .. }`.
    Struct {
        /// Variant path.
        path: Vec<String>,
        /// Bound field names.
        fields: Vec<String>,
    },
    /// `(a, b)`.
    Tuple(Vec<Pat>),
    /// `p1 | p2 | ...`.
    Or(Vec<Pat>),
    /// A literal pattern (numbers, strings, chars, ranges thereof).
    Lit,
    /// `..`.
    Rest,
    /// Anything else (slices, boxes, deeply nested shapes).
    Other,
}

impl Pat {
    /// Names bound by this pattern, in order.
    pub fn bound_names(&self) -> Vec<String> {
        let mut names = Vec::new();
        self.collect_names(&mut names);
        names
    }

    fn collect_names(&self, out: &mut Vec<String>) {
        match &self.kind {
            PatKind::Binding(n) => out.push(n.clone()),
            PatKind::TupleStruct { elems, .. } | PatKind::Tuple(elems) => {
                for p in elems {
                    p.collect_names(out);
                }
            }
            PatKind::Struct { fields, .. } => out.extend(fields.iter().cloned()),
            PatKind::Or(alts) => {
                if let Some(first) = alts.first() {
                    first.collect_names(out);
                }
            }
            _ => {}
        }
    }

    /// Whether this pattern covers every value of its type without
    /// naming a variant: a wildcard, a bare binding, or an or-pattern
    /// with such an alternative. (Guards are the caller's business.)
    pub fn is_catch_all(&self) -> bool {
        match &self.kind {
            PatKind::Wild | PatKind::Binding(_) => true,
            PatKind::Or(alts) => alts.iter().any(Pat::is_catch_all),
            _ => false,
        }
    }
}

/// Walks every expression in a block, depth-first, in source order.
pub fn walk_block_exprs<'a>(block: &'a Block, f: &mut impl FnMut(&'a Expr)) {
    for stmt in &block.stmts {
        match &stmt.kind {
            StmtKind::Let { init, .. } => {
                if let Some(e) = init {
                    walk_expr(e, f);
                }
            }
            StmtKind::Expr(e) => walk_expr(e, f),
            StmtKind::Item(item) => walk_item_exprs(item, f),
            StmtKind::Skipped => {}
        }
    }
}

/// Walks every expression under an item.
pub fn walk_item_exprs<'a>(item: &'a Item, f: &mut impl FnMut(&'a Expr)) {
    match &item.kind {
        ItemKind::Fn(func) => {
            if let Some(b) = &func.body {
                walk_block_exprs(b, f);
            }
        }
        ItemKind::Impl(imp) => {
            for it in &imp.items {
                walk_item_exprs(it, f);
            }
        }
        ItemKind::Mod(m) => {
            for it in &m.items {
                walk_item_exprs(it, f);
            }
        }
        ItemKind::Const(c) => {
            if let Some(v) = &c.value {
                walk_expr(v, f);
            }
        }
        _ => {}
    }
}

/// Walks `expr` and all its descendants, depth-first.
pub fn walk_expr<'a>(expr: &'a Expr, f: &mut impl FnMut(&'a Expr)) {
    f(expr);
    match &expr.kind {
        ExprKind::Call { callee, args } => {
            walk_expr(callee, f);
            for a in args {
                walk_expr(a, f);
            }
        }
        ExprKind::MethodCall { recv, args, .. } => {
            walk_expr(recv, f);
            for a in args {
                walk_expr(a, f);
            }
        }
        ExprKind::Field { recv, .. } => walk_expr(recv, f),
        ExprKind::Index { recv, index } => {
            walk_expr(recv, f);
            walk_expr(index, f);
        }
        ExprKind::Unary { expr: e } | ExprKind::Try { expr: e } => walk_expr(e, f),
        ExprKind::Binary { lhs, rhs, .. } | ExprKind::Assign { lhs, rhs, .. } => {
            walk_expr(lhs, f);
            walk_expr(rhs, f);
        }
        ExprKind::Cast { expr: e, .. } => walk_expr(e, f),
        ExprKind::StructLit { fields, .. } => {
            for (_, v, _) in fields {
                if let Some(e) = v {
                    walk_expr(e, f);
                }
            }
        }
        ExprKind::Tuple(es) | ExprKind::Array(es) | ExprKind::MacroCall { args: es, .. } => {
            for e in es {
                walk_expr(e, f);
            }
        }
        ExprKind::Block(b) => walk_block_exprs(b, f),
        ExprKind::If { cond, then, els } => {
            walk_expr(cond, f);
            walk_block_exprs(then, f);
            if let Some(e) = els {
                walk_expr(e, f);
            }
        }
        ExprKind::LetCond { expr: e, .. } => walk_expr(e, f),
        ExprKind::Match { scrutinee, arms } => {
            walk_expr(scrutinee, f);
            for arm in arms {
                if let Some(g) = &arm.guard {
                    walk_expr(g, f);
                }
                walk_expr(&arm.body, f);
            }
        }
        ExprKind::ForLoop { iter, body, .. } => {
            walk_expr(iter, f);
            walk_block_exprs(body, f);
        }
        ExprKind::While { cond, body } => {
            walk_expr(cond, f);
            walk_block_exprs(body, f);
        }
        ExprKind::Loop { body } => walk_block_exprs(body, f),
        ExprKind::Closure { body, .. } => walk_expr(body, f),
        ExprKind::Range { lo, hi } => {
            if let Some(e) = lo {
                walk_expr(e, f);
            }
            if let Some(e) = hi {
                walk_expr(e, f);
            }
        }
        ExprKind::Jump(v) => {
            if let Some(e) = v {
                walk_expr(e, f);
            }
        }
        ExprKind::Path(_) | ExprKind::Lit(_) | ExprKind::Unknown => {}
    }
}

/// Collects the spans suppression comments can scope to: every item,
/// every statement (at any block depth), and every match arm. The
/// suppression resolver picks the smallest span starting on the
/// comment's line or the line below.
pub fn collect_scope_spans(file: &File) -> Vec<Span> {
    let mut out = Vec::new();
    fn block_stmts(b: &Block, out: &mut Vec<Span>) {
        for s in &b.stmts {
            out.push(s.span);
            if let StmtKind::Item(item) = &s.kind {
                visit_items(std::slice::from_ref(item), out);
            }
        }
    }
    fn visit_body(b: &Block, out: &mut Vec<Span>) {
        block_stmts(b, out);
        walk_block_exprs(b, &mut |e| match &e.kind {
            ExprKind::Block(bb) => block_stmts(bb, out),
            ExprKind::If { then, .. } => block_stmts(then, out),
            ExprKind::ForLoop { body, .. }
            | ExprKind::While { body, .. }
            | ExprKind::Loop { body } => block_stmts(body, out),
            ExprKind::Match { arms, .. } => out.extend(arms.iter().map(|a| a.span)),
            _ => {}
        });
    }
    fn visit_items(list: &[Item], out: &mut Vec<Span>) {
        for item in list {
            out.push(item.span);
            match &item.kind {
                ItemKind::Fn(f) => {
                    if let Some(b) = &f.body {
                        visit_body(b, out);
                    }
                }
                ItemKind::Impl(imp) => visit_items(&imp.items, out),
                ItemKind::Mod(m) => visit_items(&m.items, out),
                _ => {}
            }
        }
    }
    visit_items(&file.items, &mut out);
    out
}

/// Collects item spans only (functions, consts, statics, impls, mods —
/// no statements or arms): the anchors baseline fingerprints hash. An
/// item moves as a unit when code above it changes, so hashing its
/// token stream instead of its line number keeps fingerprints stable
/// across unrelated edits.
pub fn collect_item_spans(file: &File) -> Vec<Span> {
    let mut out = Vec::new();
    fn visit(list: &[Item], out: &mut Vec<Span>) {
        for item in list {
            out.push(item.span);
            match &item.kind {
                ItemKind::Impl(imp) => visit(&imp.items, out),
                ItemKind::Mod(m) => visit(&m.items, out),
                ItemKind::Fn(f) => {
                    if let Some(b) = &f.body {
                        walk_block_exprs(b, &mut |e| {
                            if let ExprKind::Block(bb) = &e.kind {
                                for s in &bb.stmts {
                                    if let StmtKind::Item(i) = &s.kind {
                                        visit(std::slice::from_ref(i), out);
                                    }
                                }
                            }
                        });
                        for s in &b.stmts {
                            if let StmtKind::Item(i) = &s.kind {
                                visit(std::slice::from_ref(i), out);
                            }
                        }
                    }
                }
                _ => {}
            }
        }
    }
    visit(&file.items, &mut out);
    out
}

/// Walks every function (with its enclosing impl type name, if any)
/// under the file's items, including functions nested in modules but
/// skipping `#[cfg(test)]` modules — the function set the summary
/// engine and the AST rules share.
pub fn walk_fns<'a>(file: &'a File, f: &mut impl FnMut(Option<&'a str>, &'a Func)) {
    fn items<'a>(
        list: &'a [Item],
        owner: Option<&'a str>,
        f: &mut impl FnMut(Option<&'a str>, &'a Func),
    ) {
        for item in list {
            match &item.kind {
                ItemKind::Fn(func) => f(owner, func),
                ItemKind::Impl(imp) => items(&imp.items, Some(&imp.ty_name), f),
                ItemKind::Mod(m) if !m.cfg_test => items(&m.items, owner, f),
                _ => {}
            }
        }
    }
    items(&file.items, None, f);
}
