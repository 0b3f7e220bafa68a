//! The cross-crate call graph over [`crate::symbols::Workspace`], and the
//! seeded reachability that replaces the old hand-maintained hot-module
//! lists.
//!
//! Call-site resolution is layered, most-confident first (DESIGN.md §13):
//!
//! 1. `Self::m` / `self.m` → the impl's self type (falling back to default
//!    methods of traits the type implements);
//! 2. `self.field.m` → the field's declared base type (transparent
//!    wrappers `Box`/`Option`/`Rc`/`Arc`, `&`, `dyn` already stripped by
//!    the parser);
//! 3. `x.m` where `x` is a typed parameter, a `let x: T` / `let x =
//!    T::...` local, or an element bound by `[if] let Some(x) =
//!    coll.get(…)` / `.get_mut(…)` → that type;
//! 4. when the receiver type is a *trait* (trait object) or a generic
//!    parameter with a trait bound → **dispatch**: edges to that method in
//!    every impl of the trait plus its default body — this is what carries
//!    hotness through `Box<dyn MemoryScheme>` and `F: RecordFeed`;
//! 5. `Type::m` paths → the named type's (or trait's) method;
//! 6. bare `f(...)` → same-module fn, then imports, then a unique free fn;
//! 7. last resort for method calls on unresolvable receivers: a unique
//!    workspace method of that name, unless the name is on the std-alike
//!    skip list (`clone`, `len`, `push`, …) where a false unique match is
//!    likelier than a real one.
//!
//! What remains ambiguous is dropped: the analyzer under-approximates
//! edges, and the fixture suite pins the idioms it must resolve.

use std::collections::BTreeMap;
use std::ops::Range;

use crate::lexer::{Token, TokenKind};
use crate::rules::is_keyword;
use crate::symbols::{FnId, Owner, TraitId, TypeId, Workspace};

/// One resolved call site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CallEdge {
    pub to: FnId,
    /// 1-based line of the call site.
    pub line: usize,
}

/// Adjacency: `edges[f]` are the resolved calls out of fn `f`.
#[derive(Debug, Default)]
pub struct CallGraph {
    pub edges: Vec<Vec<CallEdge>>,
}

/// Method names whose unique-match fallback is disabled: ubiquitous std
/// names where "only one workspace method happens to share the name" is
/// coincidence, not evidence. Typed receivers still resolve these.
const STD_METHOD_SKIP: &[&str] = &[
    "as_mut",
    "as_ref",
    "borrow",
    "borrow_mut",
    "clear",
    "clone",
    "cmp",
    "collect",
    "contains",
    "contains_key",
    "copied",
    "count",
    "default",
    "drain",
    "entry",
    "eq",
    "expect",
    "extend",
    "filter",
    "filter_map",
    "find",
    "flat_map",
    "fmt",
    "fold",
    "for_each",
    "from",
    "get",
    "get_mut",
    "hash",
    "insert",
    "into",
    "into_iter",
    "is_empty",
    "is_none",
    "is_some",
    "iter",
    "iter_mut",
    "keys",
    "last",
    "len",
    "map",
    "max",
    "min",
    "ne",
    "next",
    "partial_cmp",
    "pop",
    "push",
    "remove",
    "retain",
    "rev",
    "skip",
    "sort",
    "sort_by",
    "sort_unstable",
    "sort_unstable_by",
    "sum",
    "take",
    "then",
    "to_owned",
    "to_string",
    "to_vec",
    "truncate",
    "unwrap",
    "unwrap_or",
    "values",
    "values_mut",
    "windows",
    "zip",
];

/// Builds the call graph for every fn body in the workspace.
pub fn build(ws: &Workspace) -> CallGraph {
    let mut graph = CallGraph {
        edges: vec![Vec::new(); ws.fns.len()],
    };
    for id in 0..ws.fns.len() {
        let Some(body) = ws.fns[id].body.clone() else {
            continue;
        };
        let resolver = BodyResolver::new(ws, FnId(id), &body);
        graph.edges[id] = resolver.edges();
    }
    graph
}

/// What a receiver expression's type resolved to.
#[derive(Debug, Clone, Copy)]
enum Recv {
    Type(TypeId),
    Trait(TraitId),
    Unknown,
}

/// A `for` loop's binding pattern.
enum Pat<'t> {
    /// A variable name.
    Bind(&'t str),
    /// `_`.
    Skip,
    /// `(p, q, …)`.
    Tuple(Vec<Pat<'t>>),
}

/// What a loop yields, as far as loop-variable typing can tell.
enum Item {
    /// An element of the iterated container.
    Elem,
    /// Anything else (an index, the other side of a `zip`).
    Opaque,
    /// A pair from `enumerate` or `zip`.
    Pair(Box<Item>, Box<Item>),
}

impl Pat<'_> {
    /// Adds `(name, elem)` for every name this pattern binds to a
    /// container element of `item`.
    fn bind(&self, item: &Item, elem: &str, out: &mut Vec<(String, String)>) {
        match (self, item) {
            (Pat::Bind(name), Item::Elem) => out.push((name.to_string(), elem.to_string())),
            (Pat::Tuple(parts), Item::Pair(a, b)) => {
                if let [p, q] = parts.as_slice() {
                    p.bind(a, elem, out);
                    q.bind(b, elem, out);
                }
            }
            _ => {}
        }
    }
}

struct BodyResolver<'a> {
    ws: &'a Workspace,
    f: FnId,
    file: usize,
    body: Range<usize>,
    /// Local/parameter name → base type ident.
    locals: BTreeMap<String, String>,
    /// Local name → element base type, for sequence containers
    /// (`Vec<T>`, `VecDeque<T>`, `&[T]`): feeds loop-variable typing.
    elems: BTreeMap<String, String>,
}

impl<'a> BodyResolver<'a> {
    fn new(ws: &'a Workspace, f: FnId, body: &Range<usize>) -> Self {
        let sym = &ws.fns[f.0];
        let mut locals: BTreeMap<String, String> = BTreeMap::new();
        for (name, ty) in &sym.sig.params {
            if !ty.is_empty() {
                locals.insert(name.clone(), ty.clone());
            }
        }
        let mut r = Self {
            ws,
            f,
            file: sym.file,
            body: body.clone(),
            locals,
            elems: BTreeMap::new(),
        };
        r.scan_lets();
        r.scan_fors();
        r
    }

    fn toks(&self) -> &'a [Token] {
        &self.ws.files[self.file].lexed.tokens
    }

    fn tok(&self, i: usize) -> Option<&'a Token> {
        if self.body.contains(&i) {
            self.toks().get(i)
        } else {
            None
        }
    }

    fn is_punct(&self, i: usize, c: char) -> bool {
        self.tok(i).is_some_and(|t| {
            t.kind == TokenKind::Punct && t.text.len() == 1 && t.text.starts_with(c)
        })
    }

    fn ident_at(&self, i: usize) -> Option<&'a str> {
        self.tok(i).and_then(|t| {
            if t.kind == TokenKind::Ident {
                Some(t.text.as_str())
            } else {
                None
            }
        })
    }

    /// Records `let [mut] x : T` and `let [mut] x = T::...` local types,
    /// and the element bound by `let Some(x) = coll.get(…)` (with or
    /// without `else`; `if let` and `while let` share the `let`).
    fn scan_lets(&mut self) {
        let toks = self.toks();
        for i in self.body.clone() {
            if !matches!(self.ident_at(i), Some("let")) {
                continue;
            }
            let mut j = i + 1;
            if matches!(self.ident_at(j), Some("mut")) {
                j += 1;
            }
            let Some(name) = self.ident_at(j) else {
                continue;
            };
            if is_keyword(name) {
                continue;
            }
            if name == "Some" && self.is_punct(j + 1, '(') {
                if let Some((bound, elem)) = self.some_elem_binding(j + 2) {
                    self.locals.insert(bound.to_string(), elem);
                }
            } else if self.is_punct(j + 1, ':') && !self.is_punct(j + 2, ':') {
                // `let x: T = …`
                let (ty, after) = base_type_at(toks, j + 2);
                // Element type of a sequence container: `Vec<T>` /
                // `VecDeque<T>` (head + `<…>`) or a slice `&[T]` (empty
                // head, stopped at `[`) — either way the element type
                // starts right after the opening bracket.
                let elem_at = (((ty == "Vec" || ty == "VecDeque") && self.is_punct(after, '<'))
                    || (ty.is_empty() && self.is_punct(after, '[')))
                .then_some(after + 1);
                if let Some(at) = elem_at {
                    let (elem, _) = base_type_at(toks, at);
                    if !elem.is_empty() {
                        self.elems.insert(name.to_string(), elem);
                    }
                }
                if !ty.is_empty() {
                    self.locals.insert(name.to_string(), ty);
                }
            } else if self.is_punct(j + 1, '=') && !self.is_punct(j + 2, '=') {
                // `let x = T::new(…)` — constructor-shaped initializer.
                if let Some(head) = self.ident_at(j + 2) {
                    let ctor = self.is_punct(j + 3, ':')
                        && self.is_punct(j + 4, ':')
                        && head.chars().next().is_some_and(char::is_uppercase);
                    if ctor {
                        self.locals.insert(name.to_string(), head.to_string());
                    }
                }
            }
        }
    }

    /// For `Some(` ending just before `i`: the name bound by a
    /// `[&][mut|ref] x ) = coll . get[_mut] (` pattern and the element type
    /// of `coll`, which is `self.field`, `local.field` or a sequence local.
    fn some_elem_binding(&self, mut i: usize) -> Option<(&'a str, String)> {
        while self.is_punct(i, '&') || matches!(self.ident_at(i), Some("mut" | "ref")) {
            i += 1;
        }
        let bound = self.ident_at(i).filter(|n| !is_keyword(n))?;
        if !self.is_punct(i + 1, ')') || !self.is_punct(i + 2, '=') {
            return None;
        }
        let head = self.ident_at(i + 3)?;
        let (elem, dot) = match self.ident_at(i + 5) {
            Some(field) if self.is_punct(i + 4, '.') && self.is_punct(i + 6, '.') => {
                let Recv::Type(t) = self.owner_recv(head) else {
                    return None;
                };
                let f = self.ws.types[t.0].fields.iter().find(|f| f.name == field)?;
                (f.elem.clone(), i + 6)
            }
            _ => (self.elems.get(head)?.clone(), i + 4),
        };
        let accessor = self.is_punct(dot, '.')
            && matches!(self.ident_at(dot + 1), Some("get" | "get_mut"))
            && self.is_punct(dot + 2, '(');
        (accessor && !elem.is_empty()).then_some((bound, elem))
    }

    /// Types loop variables from the element type of the iterated
    /// container. The source is `[&[mut]] coll` followed by a chain of
    /// `iter()`/`iter_mut()`/`into_iter()` (item unchanged), `enumerate()`
    /// (item becomes `(index, item)`) and `zip(…)` (item becomes
    /// `(item, other)`); the pattern may be a name or a tuple nested to any
    /// depth. So `for x in coll.iter()`, `for (i, x) in coll.iter()
    /// .enumerate()` and `for ((i, x), at) in coll.iter_mut().enumerate()
    /// .zip(…)` all bind `x` to `elem(coll)`. Any other adapter (`map`,
    /// `windows`, …) changes the item type, so the loop binds nothing.
    fn scan_fors(&mut self) {
        let mut bindings: Vec<(String, String)> = Vec::new();
        for i in self.body.clone() {
            if !matches!(self.ident_at(i), Some("for")) {
                continue;
            }
            let Some((pat, j)) = self.pat_at(i + 1) else {
                continue;
            };
            if !matches!(self.ident_at(j), Some("in")) {
                continue;
            }
            // Source: `[&[mut]] coll` then an optional adapter chain.
            let mut k = j + 1;
            while self.is_punct(k, '&') || matches!(self.ident_at(k), Some("mut")) {
                k += 1;
            }
            let Some(coll) = self.ident_at(k) else {
                continue;
            };
            let Some(elem) = self.elems.get(coll).cloned() else {
                continue;
            };
            if let Some(item) = self.chain_item(k + 1) {
                pat.bind(&item, &elem, &mut bindings);
            }
        }
        for (name, ty) in bindings {
            self.locals.entry(name).or_insert(ty);
        }
    }

    /// Parses a loop pattern at `i`: `[&][mut|ref] name`, `_`, or a
    /// parenthesized tuple of patterns. Returns it and the index after it.
    fn pat_at(&self, mut i: usize) -> Option<(Pat<'a>, usize)> {
        while self.is_punct(i, '&') || matches!(self.ident_at(i), Some("mut" | "ref")) {
            i += 1;
        }
        if self.is_punct(i, '(') {
            let mut parts = Vec::new();
            i += 1;
            while !self.is_punct(i, ')') {
                let (part, next) = self.pat_at(i)?;
                parts.push(part);
                i = next;
                if self.is_punct(i, ',') {
                    i += 1;
                } else if !self.is_punct(i, ')') {
                    return None;
                }
            }
            return Some((Pat::Tuple(parts), i + 1));
        }
        match self.ident_at(i)? {
            "_" => Some((Pat::Skip, i + 1)),
            name if !is_keyword(name) => Some((Pat::Bind(name), i + 1)),
            _ => None,
        }
    }

    /// The item shape of the adapter chain starting at `k` over a
    /// container's elements; `None` when an adapter changes the item type.
    fn chain_item(&self, mut k: usize) -> Option<Item> {
        let mut item = Item::Elem;
        while self.is_punct(k, '.') {
            let m = self.ident_at(k + 1)?;
            if !self.is_punct(k + 2, '(') {
                return None;
            }
            let close = match m {
                // These adapters take no arguments: `( )`.
                "iter" | "iter_mut" | "into_iter" | "enumerate" => {
                    if !self.is_punct(k + 3, ')') {
                        return None;
                    }
                    k + 3
                }
                "zip" => self.matching_paren(k + 2)?,
                _ => return None,
            };
            item = match m {
                "enumerate" => Item::Pair(Box::new(Item::Opaque), Box::new(item)),
                "zip" => Item::Pair(Box::new(item), Box::new(Item::Opaque)),
                _ => item,
            };
            k = close + 1;
        }
        Some(item)
    }

    /// The index of the `)` closing the `(` at `open`, within the body.
    fn matching_paren(&self, open: usize) -> Option<usize> {
        let mut depth = 0usize;
        for i in open..self.body.end {
            if self.is_punct(i, '(') {
                depth += 1;
            } else if self.is_punct(i, ')') {
                depth -= 1;
                if depth == 0 {
                    return Some(i);
                }
            }
        }
        None
    }

    /// What `self` means in the enclosing fn: the impl's self type, or —
    /// inside a trait default body — the trait itself (dispatching over
    /// every impl).
    fn self_recv(&self) -> Recv {
        match self.ws.fns[self.f.0].owner {
            Owner::Type(t) => Recv::Type(t),
            Owner::TraitDefault(tr) => Recv::Trait(tr),
            Owner::Free => Recv::Unknown,
        }
    }

    /// Resolves a type *name* in this body's context: generic bound →
    /// trait dispatch; otherwise workspace type/trait lookup.
    fn recv_of_name(&self, name: &str) -> Recv {
        if name == "Self" {
            return self.self_recv();
        }
        if let Some((_, bound)) = self.ws.fns[self.f.0]
            .sig
            .generics
            .iter()
            .find(|(p, _)| p == name)
        {
            if let Some(tr) = self.ws.resolve_trait_name(self.file, bound) {
                return Recv::Trait(tr);
            }
            return Recv::Unknown;
        }
        if let Some(t) = self.ws.resolve_type_name(self.file, name) {
            // A field/local typed by the *name of a trait* is a trait
            // object (`Box<dyn MemoryScheme>` parses to base "MemoryScheme").
            return Recv::Type(t);
        }
        if let Some(tr) = self.ws.resolve_trait_name(self.file, name) {
            return Recv::Trait(tr);
        }
        Recv::Unknown
    }

    /// The declared base type of field `field` on type `t`, resolved.
    fn field_recv(&self, t: TypeId, field: &str) -> Recv {
        // Generic-typed fields (`tracer: T`) dispatch via the type's bounds.
        let ty = &self.ws.types[t.0];
        let Some(f) = ty.fields.iter().find(|f| f.name == field) else {
            return Recv::Unknown;
        };
        if let Some((_, bound)) = ty.generics.iter().find(|(p, _)| p == &f.ty) {
            if let Some(tr) = self.ws.resolve_trait_name(self.file, bound) {
                return Recv::Trait(tr);
            }
            return Recv::Unknown;
        }
        self.recv_of_name(&f.ty)
    }

    /// Methods named `name` on receiver `recv`, with trait dispatch.
    fn dispatch(&self, recv: Recv, name: &str) -> Vec<FnId> {
        match recv {
            Recv::Type(t) => {
                let ty = &self.ws.types[t.0];
                if let Some(ids) = ty.methods.get(name) {
                    return ids.clone();
                }
                // Default methods of traits this type implements.
                let mut out = Vec::new();
                for &tr in &ty.traits {
                    if let Some(Some(def)) = self.ws.traits[tr.0].methods.get(name) {
                        out.push(*def);
                    }
                }
                out
            }
            Recv::Trait(tr) => {
                // Every impl's method + the default body: a trait object or
                // generic call may land in any of them.
                let sym = &self.ws.traits[tr.0];
                let mut out = Vec::new();
                if let Some(Some(def)) = sym.methods.get(name) {
                    out.push(*def);
                }
                for &t in &sym.impls {
                    if let Some(ids) = self.ws.types[t.0].methods.get(name) {
                        out.extend(ids.iter().copied());
                    }
                }
                out
            }
            Recv::Unknown => Vec::new(),
        }
    }

    /// Extracts and resolves every call site in the body.
    fn edges(&self) -> Vec<CallEdge> {
        let mut out: Vec<CallEdge> = Vec::new();
        let push = |targets: Vec<FnId>, line: usize, out: &mut Vec<CallEdge>| {
            for to in targets {
                if !out.iter().any(|e| e.to == to) {
                    out.push(CallEdge { to, line });
                }
            }
        };
        for i in self.body.clone() {
            let Some(t) = self.tok(i) else { continue };
            if t.kind != TokenKind::Ident || is_keyword(&t.text) || !self.is_punct(i + 1, '(') {
                continue;
            }
            let name = t.text.as_str();
            let line = t.line;
            // Method call: `recv . name (`.
            if self.is_punct(i - 1, '.') {
                let recv = self.receiver_before(i - 1);
                let mut targets = self.dispatch(recv, name);
                if targets.is_empty() && matches!(recv, Recv::Unknown) {
                    targets = self.fallback_method(name);
                }
                push(targets, line, &mut out);
                continue;
            }
            // Path call: `A :: … :: name (`.
            if i >= 2 && self.is_punct(i - 1, ':') && self.is_punct(i - 2, ':') {
                if let Some(head) = self.path_head(i - 2) {
                    if head == "self" {
                        continue; // `self::f(…)` module call — rare; skip.
                    }
                    let recv = self.recv_of_name(&head);
                    let targets = match recv {
                        Recv::Unknown => {
                            // Maybe a module path to a free fn.
                            self.ws
                                .resolve_free_fn(self.file, name)
                                .into_iter()
                                .collect()
                        }
                        r => self.dispatch(r, name),
                    };
                    push(targets, line, &mut out);
                }
                continue;
            }
            // Bare call `name(` — not a declaration, not a macro.
            if matches!(self.ident_at(i.wrapping_sub(1)), Some("fn")) {
                continue;
            }
            if let Some(id) = self.ws.resolve_free_fn(self.file, name) {
                push(vec![id], line, &mut out);
            }
        }
        out
    }

    /// Resolves the receiver expression ending at the `.` at index `dot`.
    fn receiver_before(&self, dot: usize) -> Recv {
        // Walk back over a chain of `ident(.ident)*`, innermost first.
        let mut segs: Vec<&str> = Vec::new();
        let mut i = dot;
        loop {
            let Some(name) = self.ident_at(i.wrapping_sub(1)) else {
                return Recv::Unknown; // `).m(…)`, `].m(…)`, literal…
            };
            if is_keyword(name) && name != "self" {
                return Recv::Unknown;
            }
            segs.push(name);
            // A single member-access dot continues the chain; two dots are a
            // range (`0..self.table.len()`), where the chain starts at `self`.
            if i >= 2 && self.is_punct(i - 2, '.') && !(i >= 3 && self.is_punct(i - 3, '.')) {
                i -= 2;
                continue;
            }
            // A `::` before the head means a path expression (`T::X.m()`):
            // give up rather than mistake the last segment for a local.
            if i >= 3 && self.is_punct(i - 2, ':') && self.is_punct(i - 3, ':') {
                return Recv::Unknown;
            }
            break;
        }
        segs.reverse();
        match segs.as_slice() {
            // A bare uppercase head could be a unit struct/enum path; a
            // lowercase one an untyped local.
            [one] => self.owner_recv(one),
            [head, field] => match self.owner_recv(head) {
                Recv::Type(t) => self.field_recv(t, field),
                _ => Recv::Unknown,
            },
            _ => Recv::Unknown,
        }
    }

    /// The type of a chain head: `self`, or a typed local.
    fn owner_recv(&self, head: &str) -> Recv {
        match head {
            "self" => self.self_recv(),
            local => self
                .locals
                .get(local)
                .map_or(Recv::Unknown, |ty| self.recv_of_name(ty)),
        }
    }

    /// Head segment of the `::`-path whose final `::` ends at `colon2`
    /// (index of the *second* `:`... the first of the two colon tokens).
    fn path_head(&self, colon2: usize) -> Option<String> {
        // Tokens look like: head :: seg :: name ( — colon2 is the index of
        // the first `:` of the last `::` pair. Walk back to the head ident.
        let mut i = colon2; // at `:` (first of the pair before `name`)
        loop {
            let prev = i.checked_sub(1)?;
            // Generic args in paths (`Foo::<T>::new`) — skip back over `<…>`.
            let mut j = prev;
            if self.is_punct(j, '>') {
                let mut depth = 1i64;
                while depth > 0 {
                    j = j.checked_sub(1)?;
                    if self.is_punct(j, '>') {
                        depth += 1;
                    } else if self.is_punct(j, '<') {
                        depth -= 1;
                    }
                }
                j = j.checked_sub(1)?;
            }
            let name = self.ident_at(j)?;
            if j >= 2 && self.is_punct(j - 1, ':') && self.is_punct(j - 2, ':') {
                i = j - 2;
                continue;
            }
            return Some(name.to_string());
        }
    }

    /// Unique-match fallback for a method name on an unknown receiver.
    fn fallback_method(&self, name: &str) -> Vec<FnId> {
        if STD_METHOD_SKIP.contains(&name) {
            return Vec::new();
        }
        let candidates = self.ws.methods_named(name);
        if candidates.len() == 1 {
            vec![candidates[0]]
        } else {
            Vec::new()
        }
    }
}

/// `local name → declared base type text` for a fn body (typed params plus
/// `let x: T` / `let x = T::…` locals) — for rules that key on *declared*
/// type names rather than resolved workspace types (N1 hash iteration).
pub(crate) fn local_types(ws: &Workspace, f: FnId) -> BTreeMap<String, String> {
    match ws.fns[f.0].body.clone() {
        Some(body) => BodyResolver::new(ws, f, &body).locals,
        None => BTreeMap::new(),
    }
}

/// Declared base type text of field `field` on the self type of `f`
/// (`None` for free fns, trait defaults, or unknown fields).
pub(crate) fn self_field_type(ws: &Workspace, f: FnId, field: &str) -> Option<String> {
    let Owner::Type(t) = ws.fns[f.0].owner else {
        return None;
    };
    ws.types[t.0]
        .fields
        .iter()
        .find(|fl| fl.name == field)
        .map(|fl| fl.ty.clone())
}

// ---- seeded reachability ---------------------------------------------------

/// Reachability from a seed set, with parent links for chain reporting.
#[derive(Debug)]
pub struct Reach {
    /// `reached[f]` — fn `f` is the seed set's transitive closure.
    pub reached: Vec<bool>,
    /// BFS tree parent: the caller through which `f` was first reached
    /// (`None` for seeds).
    parent: Vec<Option<FnId>>,
}

impl Reach {
    /// BFS from `seeds` over `graph`, never entering `#[cfg(test)]` fns or
    /// fns listed in `stop` (declared amortization boundaries).
    pub fn compute(ws: &Workspace, graph: &CallGraph, seeds: &[FnId], stop: &[FnId]) -> Self {
        let mut reached = vec![false; ws.fns.len()];
        let mut parent: Vec<Option<FnId>> = vec![None; ws.fns.len()];
        let mut queue: Vec<FnId> = Vec::new();
        for &s in seeds {
            if !ws.fns[s.0].cfg_test && !reached[s.0] {
                reached[s.0] = true;
                queue.push(s);
            }
        }
        while let Some(f) = queue.pop() {
            for e in &graph.edges[f.0] {
                let t = e.to;
                if reached[t.0] || ws.fns[t.0].cfg_test || stop.contains(&t) {
                    continue;
                }
                reached[t.0] = true;
                parent[t.0] = Some(f);
                queue.push(t);
            }
        }
        Self { reached, parent }
    }

    /// The call chain from a seed down to `f` (inclusive), rendered as
    /// `Qualified::name (path:line)` hops.
    pub fn chain(&self, ws: &Workspace, f: FnId) -> Vec<String> {
        let mut hops = Vec::new();
        let mut cur = Some(f);
        while let Some(id) = cur {
            hops.push(format!("{} ({})", ws.qualified_name(id), ws.location(id)));
            cur = self.parent[id.0];
        }
        hops.reverse();
        hops
    }
}

/// Reverse reachability: which fns can *reach* any of `sinks` (used by the
/// N1 order-taint rule), with next-hop links toward the sink.
#[derive(Debug)]
pub struct ReachesSink {
    pub reaches: Vec<bool>,
    /// For each fn, the callee through which a sink is reached first.
    next: Vec<Option<FnId>>,
}

impl ReachesSink {
    /// Reverse BFS from `sinks` over `graph`.
    pub fn compute(ws: &Workspace, graph: &CallGraph, sinks: &[FnId]) -> Self {
        // Reverse adjacency.
        let mut rev: Vec<Vec<FnId>> = vec![Vec::new(); ws.fns.len()];
        for (from, edges) in graph.edges.iter().enumerate() {
            for e in edges {
                rev[e.to.0].push(FnId(from));
            }
        }
        let mut reaches = vec![false; ws.fns.len()];
        let mut next: Vec<Option<FnId>> = vec![None; ws.fns.len()];
        let mut queue: Vec<FnId> = Vec::new();
        for &s in sinks {
            if !reaches[s.0] {
                reaches[s.0] = true;
                queue.push(s);
            }
        }
        while let Some(f) = queue.pop() {
            for &caller in &rev[f.0] {
                if reaches[caller.0] {
                    continue;
                }
                reaches[caller.0] = true;
                next[caller.0] = Some(f);
                queue.push(caller);
            }
        }
        Self { reaches, next }
    }

    /// The call chain from `f` forward to the sink it reaches.
    pub fn chain(&self, ws: &Workspace, f: FnId) -> Vec<String> {
        let mut hops = Vec::new();
        let mut cur = Some(f);
        while let Some(id) = cur {
            hops.push(format!("{} ({})", ws.qualified_name(id), ws.location(id)));
            cur = self.next[id.0];
        }
        hops
    }
}

/// Base type starting at token `i` (same wrapper-stripping as the parser's
/// field typing, re-exported here for `let x: T` locals).
fn base_type_at(toks: &[Token], i: usize) -> (String, usize) {
    // Reuse the parser by lexing nothing: delegate to a tiny local copy of
    // the stripping logic — wrappers and references peel off, the path's
    // last segment wins.
    let mut j = i;
    let is_p = |k: usize, c: char| {
        toks.get(k).is_some_and(|t| {
            t.kind == TokenKind::Punct && t.text.len() == 1 && t.text.starts_with(c)
        })
    };
    let id = |k: usize| {
        toks.get(k).and_then(|t| {
            if t.kind == TokenKind::Ident {
                Some(t.text.as_str())
            } else {
                None
            }
        })
    };
    loop {
        if is_p(j, '&')
            || is_p(j, '*')
            || matches!(id(j), Some("mut" | "dyn" | "impl"))
            || toks.get(j).is_some_and(|t| t.kind == TokenKind::Lifetime)
        {
            j += 1;
        } else {
            break;
        }
    }
    let mut head = String::new();
    if let Some(first) = id(j) {
        if !is_keyword(first) {
            head = first.to_string();
            j += 1;
            while is_p(j, ':') && is_p(j + 1, ':') {
                if let Some(seg) = id(j + 2) {
                    head = seg.to_string();
                    j += 3;
                } else {
                    break;
                }
            }
        }
    }
    const WRAPPERS: &[&str] = &["Box", "Option", "Rc", "Arc"];
    if WRAPPERS.contains(&head.as_str()) && is_p(j, '<') {
        let (inner, after) = base_type_at(toks, j + 1);
        if !inner.is_empty() {
            return (inner, after);
        }
    }
    (head, j)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn ws(sources: &[(&str, &str)]) -> Workspace {
        let owned: Vec<(String, String)> = sources
            .iter()
            .map(|(p, s)| (p.to_string(), s.to_string()))
            .collect();
        Workspace::build(&owned, &BTreeMap::new())
    }

    fn fn_id(ws: &Workspace, qualified: &str) -> FnId {
        (0..ws.fns.len())
            .map(FnId)
            .find(|&id| ws.qualified_name(id) == qualified)
            .unwrap_or_else(|| panic!("no fn `{qualified}`"))
    }

    fn calls(ws: &Workspace, g: &CallGraph, from: &str) -> Vec<String> {
        g.edges[fn_id(ws, from).0]
            .iter()
            .map(|e| ws.qualified_name(e.to))
            .collect()
    }

    #[test]
    fn resolves_self_field_and_local_calls() {
        let ws = ws(&[(
            "crates/core/src/controller.rs",
            "struct FrameTable;\n\
             impl FrameTable { fn probe(&self) {} }\n\
             struct SilcFm { frames: FrameTable }\n\
             impl SilcFm {\n\
                 fn access(&mut self) { self.frames.probe(); self.evict(); helper(); }\n\
                 fn evict(&mut self) { let t: FrameTable = FrameTable; t.probe(); }\n\
             }\n\
             fn helper() {}\n",
        )]);
        let g = build(&ws);
        assert_eq!(
            calls(&ws, &g, "SilcFm::access"),
            vec!["FrameTable::probe", "SilcFm::evict", "helper"]
        );
        assert_eq!(calls(&ws, &g, "SilcFm::evict"), vec!["FrameTable::probe"]);
    }

    #[test]
    fn trait_object_field_dispatches_to_every_impl() {
        let ws = ws(&[(
            "crates/sim/src/system.rs",
            "trait Scheme { fn access(&mut self); fn warm(&mut self) { self.access(); } }\n\
             struct A; impl Scheme for A { fn access(&mut self) {} }\n\
             struct B; impl Scheme for B { fn access(&mut self) {} }\n\
             struct System { scheme: Box<dyn Scheme> }\n\
             impl System { fn run(&mut self) { self.scheme.access(); } }\n",
        )]);
        let g = build(&ws);
        assert_eq!(
            calls(&ws, &g, "System::run"),
            vec!["A::access", "B::access"]
        );
        // Trait default methods dispatch back into impls too.
        assert_eq!(
            calls(&ws, &g, "Scheme::warm"),
            vec!["A::access", "B::access"]
        );
    }

    #[test]
    fn generic_bounds_dispatch_through_the_trait() {
        let ws = ws(&[(
            "crates/sim/src/system.rs",
            "trait Feed { fn pull(&mut self) -> u64; }\n\
             struct StreamFeed; impl Feed for StreamFeed { fn pull(&mut self) -> u64 { 1 } }\n\
             struct System;\n\
             impl System { fn run_with_feed<F: Feed>(&mut self, feed: &mut F) { feed.pull(); } }\n",
        )]);
        let g = build(&ws);
        assert_eq!(
            calls(&ws, &g, "System::run_with_feed"),
            vec!["StreamFeed::pull"]
        );
    }

    #[test]
    fn cross_file_paths_and_imports_resolve() {
        let ws = ws(&[
            (
                "crates/dram/src/model.rs",
                "pub struct DramModel;\nimpl DramModel { pub fn read(&mut self) {} }\n",
            ),
            (
                "crates/sim/src/system.rs",
                "use silcfm_dram::model::DramModel;\n\
                 struct System { nm: DramModel }\n\
                 impl System { fn charge(&mut self) { self.nm.read(); } }\n",
            ),
        ]);
        let g = build(&ws);
        assert_eq!(calls(&ws, &g, "System::charge"), vec!["DramModel::read"]);
    }

    #[test]
    fn skip_list_blocks_coincidental_unique_matches() {
        let ws = ws(&[(
            "crates/sim/src/lib.rs",
            "struct OpList;\n\
             impl OpList { fn push(&mut self) {} fn commit_run(&mut self) {} }\n\
             fn f(v: Vec<u8>) { v.push(1); }\n\
             fn g(x: Unknowable) { x.commit_run(); }\n",
        )]);
        let g = build(&ws);
        // `push` is on the skip list: an untyped receiver must not match.
        assert!(calls(&ws, &g, "f").is_empty());
        // A distinctive name on an unknown receiver resolves by uniqueness.
        assert_eq!(calls(&ws, &g, "g"), vec!["OpList::commit_run"]);
    }

    #[test]
    fn reach_computes_chains_and_respects_stops() {
        let ws = ws(&[(
            "crates/core/src/controller.rs",
            "struct C;\n\
             impl C {\n\
                 fn access(&mut self) { self.a(); self.amortized(); }\n\
                 fn a(&mut self) { self.b(); }\n\
                 fn b(&mut self) {}\n\
                 fn amortized(&mut self) { self.c(); }\n\
                 fn c(&mut self) {}\n\
             }\n",
        )]);
        let g = build(&ws);
        let seed = fn_id(&ws, "C::access");
        let stop = fn_id(&ws, "C::amortized");
        let reach = Reach::compute(&ws, &g, &[seed], &[stop]);
        assert!(reach.reached[fn_id(&ws, "C::b").0]);
        assert!(!reach.reached[stop.0], "stop fn is not entered");
        assert!(!reach.reached[fn_id(&ws, "C::c").0], "nothing past a stop");
        let chain = reach.chain(&ws, fn_id(&ws, "C::b"));
        assert_eq!(chain.len(), 3);
        assert!(chain[0].starts_with("C::access ("));
        assert!(chain[2].starts_with("C::b ("));
    }

    #[test]
    fn reverse_reachability_finds_sink_feeders() {
        let ws = ws(&[(
            "crates/sim/src/metrics.rs",
            "struct S;\n\
             impl S {\n\
                 fn collect_stats(&self) { self.digest(); }\n\
                 fn digest(&self) {}\n\
                 fn unrelated(&self) {}\n\
             }\n",
        )]);
        let g = build(&ws);
        let sink = fn_id(&ws, "S::digest");
        let r = ReachesSink::compute(&ws, &g, &[sink]);
        assert!(r.reaches[fn_id(&ws, "S::collect_stats").0]);
        assert!(!r.reaches[fn_id(&ws, "S::unrelated").0]);
        let chain = r.chain(&ws, fn_id(&ws, "S::collect_stats"));
        assert_eq!(chain.len(), 2);
        assert!(chain[1].starts_with("S::digest ("));
    }
}
