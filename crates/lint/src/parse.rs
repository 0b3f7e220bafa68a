//! A recursive-descent *item* parser over the [`crate::lexer`] token stream.
//!
//! The workspace-wide rules (interprocedural P1/A1 and the N1
//! determinism-taint pass) need more structure than token patterns: which
//! functions exist, which impl block owns them, what their parameters are
//! typed as, what a file imports. This parser recovers exactly that — an
//! *item tree* (fn / impl / mod / use / struct / enum / trait / const …)
//! with token-index spans — and deliberately nothing more: statement and
//! expression structure stays token-level, where the rule engine's pattern
//! helpers already work well.
//!
//! Guarantees the property tests pin (`tests/parser_props.rs`):
//!
//! * the parser consumes every workspace source with **zero errors**;
//! * item spans are **well-nested**: children lie strictly inside their
//!   parent, siblings are disjoint and ordered;
//! * [`pretty`]-printing a tree and re-parsing yields a **span-stable**
//!   tree: same item structure, same relative token spans.

use std::ops::Range;

use crate::lexer::{Lexed, Token, TokenKind};

/// One parse error; the workspace must parse with none.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line of the offending token.
    pub line: usize,
    /// What the parser could not make sense of.
    pub what: String,
}

/// A function signature, as far as the analyzer needs it: parameter names
/// with *base type idents* (the head of the type path, wrappers stripped)
/// and generic parameters with their first trait bound.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FnSig {
    /// Whether the fn takes `self` (is a method).
    pub has_self: bool,
    /// `(name, base type ident)` per non-self parameter; the base type is
    /// `""` when no single ident describes it (closures, tuples, fn ptrs).
    pub params: Vec<(String, String)>,
    /// `(generic param, first bound ident)`, e.g. `("T", "Tracer")`.
    pub generics: Vec<(String, String)>,
}

/// One struct field: name and base type ident (wrappers such as `&`, `Box`,
/// `Option`, `dyn`/`impl` stripped down to the innermost path head that
/// could name a workspace type).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    pub name: String,
    pub ty: String,
    /// Element base type of a sequence field (`Vec<T>`, `VecDeque<T>`,
    /// `[T; N]`, `Box<[T]>`), empty for any other type.
    pub elem: String,
}

/// One `use` leaf: the local name it binds and the full path it names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UseImport {
    /// The identifier visible in this module (alias or last segment).
    pub alias: String,
    /// Full path segments as written (`crate`, `super`, crate names kept).
    pub path: Vec<String>,
}

/// What an [`Item`] is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ItemKind {
    /// `mod name;` or `mod name { … }`.
    Mod {
        inline: bool,
    },
    /// A function; `body` is the token range strictly between its braces.
    Fn {
        sig: FnSig,
        body: Option<Range<usize>>,
    },
    /// An impl block. `self_ty` is the base ident of the implemented type;
    /// `trait_name` the base ident of the trait for trait impls.
    Impl {
        self_ty: String,
        trait_name: Option<String>,
        /// `(generic param, first bound ident)` from `impl<…>`.
        generics: Vec<(String, String)>,
    },
    /// A trait declaration (children are its associated items).
    Trait,
    /// A struct; named fields captured for receiver-type resolution.
    Struct {
        fields: Vec<Field>,
        /// `(generic param, first bound ident)` from `struct Name<…>`.
        generics: Vec<(String, String)>,
    },
    Enum,
    Union,
    /// One `use` item, flattened to its leaves.
    Use {
        imports: Vec<UseImport>,
    },
    Const,
    Static,
    TypeAlias,
    /// `macro_rules!` definition or an item-position macro invocation.
    Macro,
    /// `extern "abi" { … }` block.
    ExternBlock,
}

/// One parsed item.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Item {
    pub kind: ItemKind,
    /// Item name (`""` for impls and uses).
    pub name: String,
    /// 1-based line of the item's first token (after attributes).
    pub line: usize,
    /// Token-index span of the whole item, attributes included
    /// (half-open: `span.end` is one past the last token).
    pub span: Range<usize>,
    /// Nested items (mod/impl/trait members, fns nested in fn bodies).
    pub children: Vec<Item>,
    /// Whether a `#[cfg(test)]` attribute gates this item.
    pub cfg_test: bool,
}

/// The parse result for one file.
#[derive(Debug, Default)]
pub struct ItemTree {
    pub items: Vec<Item>,
    pub errors: Vec<ParseError>,
}

/// Parses the items of one lexed file.
pub fn parse(lexed: &Lexed) -> ItemTree {
    let mut tree = ItemTree::default();
    let mut p = Parser {
        toks: &lexed.tokens,
        errors: &mut tree.errors,
    };
    tree.items = p.items(0, lexed.tokens.len(), ItemCtx::Top);
    tree
}

/// Keywords that *start* an item, after attributes/visibility/qualifiers.
const ITEM_STARTS: &[&str] = &[
    "mod",
    "fn",
    "impl",
    "trait",
    "struct",
    "enum",
    "union",
    "use",
    "const",
    "static",
    "type",
    "extern",
    "macro_rules",
];

/// Where the parser currently is; trait bodies allow bodiless fns, fn
/// bodies only yield nested `fn` items.
#[derive(Clone, Copy, PartialEq)]
enum ItemCtx {
    Top,
    FnBody,
}

struct Parser<'a> {
    toks: &'a [Token],
    errors: &'a mut Vec<ParseError>,
}

impl<'a> Parser<'a> {
    fn tok(&self, i: usize) -> Option<&'a Token> {
        self.toks.get(i)
    }

    fn is_punct(&self, i: usize, c: char) -> bool {
        self.tok(i).is_some_and(|t| {
            t.kind == TokenKind::Punct && t.text.len() == 1 && t.text.starts_with(c)
        })
    }

    fn is_ident(&self, i: usize, name: &str) -> bool {
        self.tok(i)
            .is_some_and(|t| t.kind == TokenKind::Ident && t.text == name)
    }

    fn any_ident(&self, i: usize) -> Option<&'a str> {
        self.tok(i).and_then(|t| {
            if t.kind == TokenKind::Ident {
                Some(t.text.as_str())
            } else {
                None
            }
        })
    }

    fn line(&self, i: usize) -> usize {
        self.tok(i)
            .or_else(|| self.toks.last())
            .map_or(1, |t| t.line)
    }

    fn err(&mut self, i: usize, what: impl Into<String>) {
        self.errors.push(ParseError {
            line: self.line(i),
            what: what.into(),
        });
    }

    /// Index just past the delimiter-balanced region starting at the
    /// opening delimiter at `open` (`{`/`(`/`[`); stops at `end`.
    fn skip_balanced(&self, open: usize, end: usize) -> usize {
        let mut depth = 0i64;
        let mut i = open;
        while i < end {
            if let Some(t) = self.tok(i) {
                if t.kind == TokenKind::Punct {
                    match t.text.as_str() {
                        "{" | "(" | "[" => depth += 1,
                        "}" | ")" | "]" => {
                            depth -= 1;
                            if depth <= 0 {
                                return i + 1;
                            }
                        }
                        _ => {}
                    }
                }
            }
            i += 1;
        }
        end
    }

    /// Skips to just past the `;` at delimiter depth 0, or past a balanced
    /// brace block if one appears first (`const X: T = S { .. };` keeps
    /// scanning — the `;` search tracks depth, so struct literals are fine).
    fn skip_to_semi(&self, mut i: usize, end: usize) -> usize {
        let mut depth = 0i64;
        while i < end {
            if let Some(t) = self.tok(i) {
                if t.kind == TokenKind::Punct {
                    match t.text.as_str() {
                        "{" | "(" | "[" => depth += 1,
                        "}" | ")" | "]" => depth -= 1,
                        ";" if depth <= 0 => return i + 1,
                        _ => {}
                    }
                }
            }
            i += 1;
        }
        end
    }

    /// Parses attributes starting at `i`; returns `(next index, cfg_test)`.
    fn attributes(&self, mut i: usize, end: usize) -> (usize, bool) {
        let mut cfg_test = false;
        while self.is_punct(i, '#') {
            let mut j = i + 1;
            if self.is_punct(j, '!') {
                j += 1;
            }
            if !self.is_punct(j, '[') {
                break;
            }
            let close = self.skip_balanced(j, end);
            // `cfg` … `test` inside the bracket marks a test-only item.
            let body = &self.toks[j..close];
            if body.iter().any(|t| t.text == "cfg") && body.iter().any(|t| t.text == "test") {
                cfg_test = true;
            }
            i = close;
        }
        (i, cfg_test)
    }

    /// Skips visibility (`pub`, `pub(crate)`, `pub(in path)`).
    fn visibility(&self, mut i: usize, end: usize) -> usize {
        if self.is_ident(i, "pub") {
            i += 1;
            if self.is_punct(i, '(') {
                i = self.skip_balanced(i, end);
            }
        }
        i
    }

    /// Skips fn qualifiers (`const`/`async`/`unsafe`/`extern "abi"` before
    /// `fn`, `unsafe` before `impl`/`trait`). `const NAME` and a bare
    /// `extern` block are items themselves and stay put.
    fn fn_qualifiers(&self, mut i: usize) -> usize {
        loop {
            let next_kw = |j: usize| {
                self.is_ident(j, "fn")
                    || self.is_ident(j, "const")
                    || self.is_ident(j, "async")
                    || self.is_ident(j, "unsafe")
                    || self.is_ident(j, "extern")
            };
            if (self.is_ident(i, "const") && next_kw(i + 1))
                || ((self.is_ident(i, "async") || self.is_ident(i, "unsafe"))
                    && (next_kw(i + 1)
                        || self.is_ident(i + 1, "impl")
                        || self.is_ident(i + 1, "trait")))
            {
                i += 1;
            } else if self.is_ident(i, "extern")
                && (self.is_ident(i + 1, "fn")
                    || (self.tok(i + 1).is_some_and(|t| t.kind == TokenKind::Str)
                        && self.is_ident(i + 2, "fn")))
            {
                i += 1;
                if self.tok(i).is_some_and(|t| t.kind == TokenKind::Str) {
                    i += 1;
                }
            } else {
                return i;
            }
        }
    }

    /// Parses a generics list `<…>` at `i` if present; returns the index
    /// past it and the `(param, first bound)` pairs.
    fn generics(&self, mut i: usize, end: usize) -> (usize, Vec<(String, String)>) {
        let mut out = Vec::new();
        if !self.is_punct(i, '<') {
            return (i, out);
        }
        let mut depth = 0i64;
        let mut expecting_param = true;
        while i < end {
            let Some(t) = self.tok(i) else { break };
            if t.kind == TokenKind::Punct {
                match t.text.as_str() {
                    "<" => {
                        depth += 1;
                        if depth == 1 {
                            expecting_param = true;
                        }
                    }
                    ">" => {
                        depth -= 1;
                        if depth == 0 {
                            return (i + 1, out);
                        }
                    }
                    "," if depth == 1 => expecting_param = true,
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth -= 1,
                    _ => {}
                }
                i += 1;
                continue;
            }
            if depth == 1 && expecting_param {
                if t.kind == TokenKind::Ident && !is_kw(&t.text) && t.text != "const" {
                    // `T` or `T: Bound`; capture the first bound ident.
                    let param = t.text.clone();
                    let mut bound = String::new();
                    if self.is_punct(i + 1, ':') && !self.is_punct(i + 2, ':') {
                        let mut j = i + 2;
                        // Skip leading lifetimes / `?` / `dyn`.
                        loop {
                            if self.tok(j).is_some_and(|t| t.kind == TokenKind::Lifetime)
                                || self.is_punct(j, '?')
                                || self.is_punct(j, '+')
                                || self.is_ident(j, "dyn")
                            {
                                j += 1;
                            } else {
                                break;
                            }
                        }
                        if let Some(b) = self.any_ident(j) {
                            if !is_kw(b) {
                                bound = b.to_string();
                            }
                        }
                    }
                    out.push((param, bound));
                }
                expecting_param = false;
            }
            i += 1;
        }
        (i, out)
    }

    /// Base type ident of the type starting at `i`: strips `&`, `mut`,
    /// lifetimes, `dyn`/`impl`, and transparent wrappers (`Box<…>`,
    /// `Option<…>`, `Rc`, `Arc`), returning the head ident of what remains
    /// (plus the index past the whole type, delimiter-balanced).
    fn base_type(&self, mut i: usize, end: usize) -> (String, usize) {
        const WRAPPERS: &[&str] = &["Box", "Option", "Rc", "Arc"];
        // Strip reference/pointer/qualifier prefixes.
        loop {
            if self.is_punct(i, '&')
                || self.is_punct(i, '*')
                || self.is_ident(i, "mut")
                || self.is_ident(i, "dyn")
                || self.is_ident(i, "impl")
                || self.tok(i).is_some_and(|t| t.kind == TokenKind::Lifetime)
            {
                i += 1;
            } else {
                break;
            }
        }
        // Walk the path, remembering the last segment as the head.
        let mut head = String::new();
        if let Some(first) = self.any_ident(i) {
            if !is_kw(first) || first == "crate" || first == "super" || first == "self" {
                head = first.to_string();
                i += 1;
                while self.is_punct(i, ':') && self.is_punct(i + 1, ':') {
                    if let Some(seg) = self.any_ident(i + 2) {
                        head = seg.to_string();
                        i += 3;
                    } else {
                        break;
                    }
                }
            }
        }
        // Unwrap one layer of transparent wrapper: `Box<dyn Trait>` and
        // `Option<FaultDriver>` resolve to the payload type.
        if WRAPPERS.contains(&head.as_str()) && self.is_punct(i, '<') {
            let (inner, after_inner) = self.base_type(i + 1, end);
            if !inner.is_empty() {
                head = inner;
            }
            // Consume to the matching `>`.
            let mut depth = 1i64;
            let mut j = after_inner;
            while j < end && depth > 0 {
                if self.is_punct(j, '<') {
                    depth += 1;
                } else if self.is_punct(j, '>') {
                    depth -= 1;
                }
                j += 1;
            }
            return (head, j);
        }
        // Consume trailing generic args.
        if self.is_punct(i, '<') {
            let mut depth = 0i64;
            while i < end {
                if self.is_punct(i, '<') {
                    depth += 1;
                } else if self.is_punct(i, '>') {
                    depth -= 1;
                    if depth == 0 {
                        i += 1;
                        break;
                    }
                } else if self.is_punct(i, '(') || self.is_punct(i, '[') {
                    i = self.skip_balanced(i, end);
                    continue;
                }
                i += 1;
            }
        } else if self.is_punct(i, '(') || self.is_punct(i, '[') {
            // Tuple / slice / fn-pointer types: no single head ident.
            i = self.skip_balanced(i, end);
        }
        (head, i)
    }

    /// Parses a fn parameter list starting at its `(`; returns the sig
    /// fields and the index past the `)`.
    fn params(&self, open: usize, end: usize) -> (bool, Vec<(String, String)>, usize) {
        let close = self.skip_balanced(open, end);
        let mut has_self = false;
        let mut params = Vec::new();
        let mut i = open + 1;
        while i < close.saturating_sub(1) {
            // Skip a leading `&`/`&'a`/`mut` run, then look at the binding.
            let mut j = i;
            while self.is_punct(j, '&')
                || self.is_ident(j, "mut")
                || self.tok(j).is_some_and(|t| t.kind == TokenKind::Lifetime)
            {
                j += 1;
            }
            if self.is_ident(j, "self") {
                has_self = true;
                i = self.next_param(j + 1, close - 1);
                continue;
            }
            // `name: Type` (ignore patterns: `_`, tuples, etc. keep "").
            if let Some(name) = self.any_ident(j) {
                if !is_kw(name) && self.is_punct(j + 1, ':') && !self.is_punct(j + 2, ':') {
                    let (ty, _) = self.base_type(j + 2, close - 1);
                    params.push((name.to_string(), ty));
                }
            }
            i = self.next_param(j, close - 1);
        }
        (has_self, params, close)
    }

    /// Index of the token after the next top-level `,` (or `end`).
    fn next_param(&self, mut i: usize, end: usize) -> usize {
        let mut depth = 0i64;
        while i < end {
            if let Some(t) = self.tok(i) {
                if t.kind == TokenKind::Punct {
                    match t.text.as_str() {
                        "(" | "[" | "{" | "<" => depth += 1,
                        ")" | "]" | "}" => depth -= 1,
                        ">" if depth > 0 => depth -= 1,
                        "," if depth <= 0 => return i + 1,
                        _ => {}
                    }
                }
            }
            i += 1;
        }
        end
    }

    /// Finds the body `{` of a fn/impl/trait header starting at `i`:
    /// the first `{` at paren/bracket depth 0 that is not inside generic
    /// angles. Returns `Err(semi_index)` for bodiless (`;`) items.
    fn find_body(&self, mut i: usize, end: usize) -> Result<usize, usize> {
        let mut depth = 0i64;
        let mut angle = 0i64;
        while i < end {
            if let Some(t) = self.tok(i) {
                if t.kind == TokenKind::Punct {
                    match t.text.as_str() {
                        "(" | "[" => depth += 1,
                        ")" | "]" => depth -= 1,
                        "<" => angle += 1,
                        ">" => {
                            // `->` keeps angle depth: the `-` precedes it.
                            let arrow = i > 0 && self.is_punct(i - 1, '-');
                            if !arrow && angle > 0 {
                                angle -= 1;
                            }
                        }
                        ";" if depth <= 0 && angle <= 0 => return Err(i),
                        "{" if depth <= 0 && angle <= 0 => return Ok(i),
                        "{" => depth += 1,
                        "}" => depth -= 1,
                        _ => {}
                    }
                }
            }
            i += 1;
        }
        Err(end)
    }

    /// Parses items in `[start, end)`; `ctx` selects what counts as one.
    fn items(&mut self, start: usize, end: usize, ctx: ItemCtx) -> Vec<Item> {
        let mut out = Vec::new();
        let mut i = start;
        while i < end {
            match self.item(i, end, ctx) {
                Some(item) => {
                    i = item.span.end;
                    out.push(item);
                }
                None => {
                    if ctx == ItemCtx::Top {
                        // At item position everything must parse.
                        let t = &self.toks[i];
                        self.err(i, format!("unexpected token `{}` at item position", t.text));
                    }
                    i = self.skip_non_item(i, end, ctx);
                }
            }
        }
        out
    }

    /// Advances past one non-item region. At top level that is one token
    /// (error recovery); inside fn bodies it skips whole nested blocks so
    /// expression braces never confuse the nested-item scan.
    fn skip_non_item(&self, i: usize, end: usize, ctx: ItemCtx) -> usize {
        if ctx == ItemCtx::FnBody
            && (self.is_punct(i, '{') || self.is_punct(i, '(') || self.is_punct(i, '['))
        {
            return self.skip_balanced(i, end);
        }
        i + 1
    }

    /// Tries to parse one item at `i`. Inside fn bodies only `fn` items are
    /// recognized (plus `use`/`const`, silently consumed for spans).
    fn item(&mut self, at: usize, end: usize, ctx: ItemCtx) -> Option<Item> {
        let (mut i, cfg_test) = self.attributes(at, end);
        i = self.visibility(i, end);
        let kw_at = self.fn_qualifiers(i);
        let kw = self.any_ident(kw_at)?;

        if ctx == ItemCtx::FnBody {
            // Nested items worth a node: `fn name(…)`. Anything else in a
            // body is expression text.
            if kw == "fn" && self.any_ident(kw_at + 1).is_some() {
                return self.fn_item(at, kw_at, end, cfg_test);
            }
            return None;
        }
        if !ITEM_STARTS.contains(&kw) {
            // `macro_name! { … }` at item position.
            if self.is_punct(kw_at + 1, '!') {
                return Some(self.macro_item(at, kw_at, end, cfg_test));
            }
            return None;
        }
        match kw {
            "fn" => self.fn_item(at, kw_at, end, cfg_test),
            "mod" => self.mod_item(at, kw_at, end, cfg_test),
            "impl" => self.impl_item(at, kw_at, end, cfg_test),
            "trait" => self.trait_item(at, kw_at, end, cfg_test),
            "struct" | "enum" | "union" => self.struct_like(at, kw_at, end, cfg_test, kw),
            "use" => self.use_item(at, kw_at, end, cfg_test),
            "const" | "static" | "type" => {
                let kind = match kw {
                    "const" => ItemKind::Const,
                    "static" => ItemKind::Static,
                    _ => ItemKind::TypeAlias,
                };
                let name = self
                    .any_ident(kw_at + 1)
                    .or_else(|| self.any_ident(kw_at + 2)) // `static mut NAME`
                    .unwrap_or("")
                    .to_string();
                let close = self.skip_to_semi(kw_at + 1, end);
                Some(self.leaf(kind, name, at, kw_at, close, cfg_test))
            }
            "extern" => {
                // `extern "C" { … }` block (extern fns in it are foreign).
                let mut j = kw_at + 1;
                if self.tok(j).is_some_and(|t| t.kind == TokenKind::Str) {
                    j += 1;
                }
                let close = if self.is_punct(j, '{') {
                    self.skip_balanced(j, end)
                } else {
                    self.skip_to_semi(j, end)
                };
                Some(self.leaf(
                    ItemKind::ExternBlock,
                    String::new(),
                    at,
                    kw_at,
                    close,
                    cfg_test,
                ))
            }
            "macro_rules" => Some(self.macro_item(at, kw_at, end, cfg_test)),
            _ => None,
        }
    }

    fn leaf(
        &self,
        kind: ItemKind,
        name: String,
        at: usize,
        kw_at: usize,
        close: usize,
        cfg_test: bool,
    ) -> Item {
        Item {
            kind,
            name,
            line: self.line(kw_at),
            span: at..close,
            children: Vec::new(),
            cfg_test,
        }
    }

    fn macro_item(&mut self, at: usize, kw_at: usize, end: usize, cfg_test: bool) -> Item {
        // `macro_rules ! name { … }` or `path::mac! { … }` / `mac!(…);`
        let mut j = kw_at + 1;
        while !self.is_punct(j, '!') && j < end {
            j += 1;
        }
        let name = self.any_ident(j + 1).unwrap_or("").to_string();
        let mut k = j + 1;
        if !name.is_empty() {
            k += 1;
        }
        let close = if self.is_punct(k, '{') {
            self.skip_balanced(k, end)
        } else {
            self.skip_to_semi(k, end)
        };
        self.leaf(ItemKind::Macro, name, at, kw_at, close, cfg_test)
    }

    fn fn_item(&mut self, at: usize, kw_at: usize, end: usize, cfg_test: bool) -> Option<Item> {
        let name = self.any_ident(kw_at + 1)?.to_string();
        let (mut i, generics) = self.generics(kw_at + 2, end);
        if !self.is_punct(i, '(') {
            self.err(i, format!("expected `(` after fn `{name}`"));
            return Some(self.leaf(
                ItemKind::Fn {
                    sig: FnSig::default(),
                    body: None,
                },
                name,
                at,
                kw_at,
                self.skip_to_semi(i, end),
                cfg_test,
            ));
        }
        let (has_self, params, after_params) = self.params(i, end);
        let sig = FnSig {
            has_self,
            params,
            generics,
        };
        i = after_params;
        match self.find_body(i, end) {
            Ok(open) => {
                let close = self.skip_balanced(open, end);
                let body = open + 1..close.saturating_sub(1);
                let children = self.items(body.start, body.end, ItemCtx::FnBody);
                Some(Item {
                    kind: ItemKind::Fn {
                        sig,
                        body: Some(body),
                    },
                    name,
                    line: self.line(kw_at),
                    span: at..close,
                    children,
                    cfg_test,
                })
            }
            Err(semi) => Some(self.leaf(
                ItemKind::Fn { sig, body: None },
                name,
                at,
                kw_at,
                (semi + 1).min(end),
                cfg_test,
            )),
        }
    }

    fn mod_item(&mut self, at: usize, kw_at: usize, end: usize, cfg_test: bool) -> Option<Item> {
        let name = self.any_ident(kw_at + 1)?.to_string();
        if self.is_punct(kw_at + 2, ';') {
            return Some(self.leaf(
                ItemKind::Mod { inline: false },
                name,
                at,
                kw_at,
                kw_at + 3,
                cfg_test,
            ));
        }
        if !self.is_punct(kw_at + 2, '{') {
            self.err(
                kw_at + 2,
                format!("expected `;` or `{{` after mod `{name}`"),
            );
            return Some(self.leaf(
                ItemKind::Mod { inline: false },
                name,
                at,
                kw_at,
                kw_at + 2,
                cfg_test,
            ));
        }
        let close = self.skip_balanced(kw_at + 2, end);
        let children = self.items(kw_at + 3, close.saturating_sub(1), ItemCtx::Top);
        Some(Item {
            kind: ItemKind::Mod { inline: true },
            name,
            line: self.line(kw_at),
            span: at..close,
            children,
            cfg_test,
        })
    }

    fn impl_item(&mut self, at: usize, kw_at: usize, end: usize, cfg_test: bool) -> Option<Item> {
        let (mut i, generics) = self.generics(kw_at + 1, end);
        // First type path; if `for` follows it was the trait.
        let (first, after_first) = self.base_type(i, end);
        i = after_first;
        let (self_ty, trait_name) = if self.is_ident(i, "for") {
            let (ty, after_ty) = self.base_type(i + 1, end);
            i = after_ty;
            (ty, Some(first))
        } else {
            (first, None)
        };
        match self.find_body(i, end) {
            Ok(open) => {
                let close = self.skip_balanced(open, end);
                let children = self.items(open + 1, close.saturating_sub(1), ItemCtx::Top);
                Some(Item {
                    kind: ItemKind::Impl {
                        self_ty,
                        trait_name,
                        generics,
                    },
                    name: String::new(),
                    line: self.line(kw_at),
                    span: at..close,
                    children,
                    cfg_test,
                })
            }
            Err(semi) => {
                self.err(kw_at, "impl without a body");
                Some(self.leaf(
                    ItemKind::Impl {
                        self_ty,
                        trait_name,
                        generics,
                    },
                    String::new(),
                    at,
                    kw_at,
                    (semi + 1).min(end),
                    cfg_test,
                ))
            }
        }
    }

    fn trait_item(&mut self, at: usize, kw_at: usize, end: usize, cfg_test: bool) -> Option<Item> {
        let name = self.any_ident(kw_at + 1)?.to_string();
        let i = kw_at + 2;
        match self.find_body(i, end) {
            Ok(open) => {
                let close = self.skip_balanced(open, end);
                let children = self.items(open + 1, close.saturating_sub(1), ItemCtx::Top);
                Some(Item {
                    kind: ItemKind::Trait,
                    name,
                    line: self.line(kw_at),
                    span: at..close,
                    children,
                    cfg_test,
                })
            }
            Err(semi) => Some(self.leaf(
                ItemKind::Trait,
                name,
                at,
                kw_at,
                (semi + 1).min(end),
                cfg_test,
            )),
        }
    }

    fn struct_like(
        &mut self,
        at: usize,
        kw_at: usize,
        end: usize,
        cfg_test: bool,
        kw: &str,
    ) -> Option<Item> {
        let name = self.any_ident(kw_at + 1)?.to_string();
        let (i, generics) = self.generics(kw_at + 2, end);
        let kind_of = |fields| match kw {
            "struct" => ItemKind::Struct {
                fields,
                generics: generics.clone(),
            },
            "union" => ItemKind::Union,
            _ => ItemKind::Enum,
        };
        match self.find_body(i, end) {
            Ok(open) => {
                let close = self.skip_balanced(open, end);
                let fields = if kw == "struct" {
                    self.fields(open + 1, close.saturating_sub(1))
                } else {
                    Vec::new()
                };
                Some(self.leaf(kind_of(fields), name, at, kw_at, close, cfg_test))
            }
            Err(semi) => {
                // Unit struct `struct S;` or tuple struct `struct S(u8);`
                // — `skip_to_semi` from the header covers both.
                let close = (semi + 1).min(end);
                Some(self.leaf(kind_of(Vec::new()), name, at, kw_at, close, cfg_test))
            }
        }
    }

    /// Element base type of the sequence type at `i`: `Vec<T>`,
    /// `VecDeque<T>`, an array or slice `[T; N]` / `[T]`, optionally
    /// behind `&` or `Box<…>`. Empty for any other type.
    fn elem_type(&self, mut i: usize, end: usize) -> String {
        while self.is_punct(i, '&')
            || self.is_ident(i, "mut")
            || self.tok(i).is_some_and(|t| t.kind == TokenKind::Lifetime)
        {
            i += 1;
        }
        if self.is_ident(i, "Box") && self.is_punct(i + 1, '<') {
            i += 2;
        }
        if self.is_punct(i, '[') {
            self.base_type(i + 1, end).0
        } else if (self.is_ident(i, "Vec") || self.is_ident(i, "VecDeque"))
            && self.is_punct(i + 1, '<')
        {
            self.base_type(i + 2, end).0
        } else {
            String::new()
        }
    }

    /// Parses `name: Type, …` struct fields in `[start, end)`.
    fn fields(&self, start: usize, end: usize) -> Vec<Field> {
        let mut out = Vec::new();
        let mut i = start;
        while i < end {
            let (j, _) = self.attributes(i, end);
            let j = self.visibility(j, end);
            if let Some(name) = self.any_ident(j) {
                if !is_kw(name) && self.is_punct(j + 1, ':') && !self.is_punct(j + 2, ':') {
                    let (ty, _) = self.base_type(j + 2, end);
                    out.push(Field {
                        name: name.to_string(),
                        ty,
                        elem: self.elem_type(j + 2, end),
                    });
                }
            }
            i = self.next_param(j.max(i), end);
            if i <= j {
                break;
            }
        }
        out
    }

    fn use_item(&mut self, at: usize, kw_at: usize, end: usize, cfg_test: bool) -> Option<Item> {
        let close = self.skip_to_semi(kw_at + 1, end);
        let mut imports = Vec::new();
        self.use_tree(
            kw_at + 1,
            close.saturating_sub(1),
            &mut Vec::new(),
            &mut imports,
        );
        Some(self.leaf(
            ItemKind::Use { imports },
            String::new(),
            at,
            kw_at,
            close,
            cfg_test,
        ))
    }

    /// Flattens one use-tree region into leaves, extending `prefix`.
    fn use_tree(
        &self,
        start: usize,
        end: usize,
        prefix: &mut Vec<String>,
        out: &mut Vec<UseImport>,
    ) {
        let mut i = start;
        let mut segs: Vec<String> = Vec::new();
        let flush = |segs: &mut Vec<String>,
                     prefix: &[String],
                     alias: Option<String>,
                     out: &mut Vec<UseImport>| {
            if segs.is_empty() {
                return;
            }
            let mut path: Vec<String> = prefix.to_vec();
            path.extend(segs.iter().cloned());
            let alias = alias.unwrap_or_else(|| segs.last().cloned().unwrap_or_default());
            // `use path::{self}` re-binds the module itself.
            let alias = if alias == "self" {
                path.pop();
                path.last().cloned().unwrap_or_default()
            } else {
                alias
            };
            out.push(UseImport { alias, path });
            segs.clear();
        };
        while i < end {
            let t = &self.toks[i];
            match (&t.kind, t.text.as_str()) {
                (TokenKind::Ident, "as") => {
                    let alias = self.any_ident(i + 1).map(str::to_string);
                    flush(&mut segs, prefix, alias, out);
                    i += 2;
                }
                (TokenKind::Ident, _) => {
                    segs.push(t.text.clone());
                    i += 1;
                }
                (TokenKind::Punct, ":") => i += 1,
                (TokenKind::Punct, ",") => {
                    flush(&mut segs, prefix, None, out);
                    i += 1;
                }
                (TokenKind::Punct, "{") => {
                    let close = self.skip_balanced(i, end);
                    let depth_here = segs.len();
                    prefix.append(&mut segs);
                    self.use_tree(i + 1, close.saturating_sub(1), prefix, out);
                    prefix.truncate(prefix.len() - depth_here);
                    i = close;
                }
                (TokenKind::Punct, "*") => {
                    // Glob import: record the module itself under `*`.
                    segs.push("*".to_string());
                    flush(&mut segs, prefix, Some("*".to_string()), out);
                    i += 1;
                }
                _ => i += 1,
            }
        }
        flush(&mut segs, prefix, None, out);
    }
}

fn is_kw(text: &str) -> bool {
    crate::rules::is_keyword(text)
}

/// Pretty-prints a parsed file back to compilable-shaped text: every item's
/// token span verbatim, single-space separated, one top-level item per
/// line. Re-lexing and re-parsing the result yields the same item tree
/// modulo absolute token offsets (see [`span_stable_eq`]).
pub fn pretty(tree: &ItemTree, toks: &[Token]) -> String {
    let mut out = String::new();
    for item in &tree.items {
        let mut line = String::new();
        for t in &toks[item.span.start..item.span.end.min(toks.len())] {
            if !line.is_empty() {
                line.push(' ');
            }
            line.push_str(&print_token(t));
        }
        out.push_str(&line);
        out.push('\n');
    }
    out
}

/// Renders one token so that re-lexing it yields the same (kind, text).
fn print_token(t: &Token) -> String {
    match t.kind {
        TokenKind::Ident | TokenKind::Number | TokenKind::Punct => t.text.clone(),
        TokenKind::Lifetime => format!("'{}", t.text),
        TokenKind::Char => format!("'{}'", t.text),
        TokenKind::Str => {
            if t.text.contains('"') || t.text.contains('\\') {
                // Raw string with a fence wide enough for the content.
                let mut fence = 0usize;
                while t.text.contains(&format!("\"{}", "#".repeat(fence))) {
                    fence += 1;
                }
                let f = "#".repeat(fence);
                format!("r{f}\"{}\"{f}", t.text)
            } else {
                format!("\"{}\"", t.text)
            }
        }
    }
}

/// Structural equality up to absolute token offsets: same kinds, names,
/// children, and same span *lengths* with the same relative child offsets.
pub fn span_stable_eq(a: &[Item], b: &[Item]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    a.iter().zip(b).all(|(x, y)| {
        x.name == y.name
            && kind_tag(&x.kind) == kind_tag(&y.kind)
            && x.span.len() == y.span.len()
            && x.children.len() == y.children.len()
            && x.children
                .iter()
                .zip(&y.children)
                .all(|(cx, cy)| cx.span.start - x.span.start == cy.span.start - y.span.start)
            && span_stable_eq(&x.children, &y.children)
    })
}

/// Discriminant-plus-payload tag for structural comparison.
fn kind_tag(k: &ItemKind) -> String {
    match k {
        ItemKind::Mod { inline } => format!("mod/{inline}"),
        ItemKind::Fn { sig, body } => format!(
            "fn/self={} params={} body={}",
            sig.has_self,
            sig.params.len(),
            body.is_some()
        ),
        ItemKind::Impl {
            self_ty,
            trait_name,
            ..
        } => format!("impl/{self_ty}/{trait_name:?}"),
        ItemKind::Trait => "trait".into(),
        ItemKind::Struct { fields, .. } => format!("struct/{}", fields.len()),
        ItemKind::Enum => "enum".into(),
        ItemKind::Union => "union".into(),
        ItemKind::Use { imports } => format!("use/{}", imports.len()),
        ItemKind::Const => "const".into(),
        ItemKind::Static => "static".into(),
        ItemKind::TypeAlias => "type".into(),
        ItemKind::Macro => "macro".into(),
        ItemKind::ExternBlock => "extern".into(),
    }
}

/// Checks that sibling spans are ordered and disjoint and children nest
/// strictly inside parents; returns the first violation as text.
pub fn check_nesting(items: &[Item], parent: Option<&Range<usize>>) -> Result<(), String> {
    let mut prev_end = parent.map_or(0, |p| p.start);
    for item in items {
        if item.span.start < prev_end {
            return Err(format!(
                "item `{}` at line {} overlaps its predecessor",
                item.name, item.line
            ));
        }
        if let Some(p) = parent {
            if item.span.start < p.start || item.span.end > p.end {
                return Err(format!(
                    "item `{}` at line {} escapes its parent span",
                    item.name, item.line
                ));
            }
        }
        check_nesting(&item.children, Some(&item.span))?;
        prev_end = item.span.end;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn tree_of(src: &str) -> ItemTree {
        parse(&lex(src))
    }

    fn names(items: &[Item]) -> Vec<&str> {
        items.iter().map(|i| i.name.as_str()).collect()
    }

    #[test]
    fn parses_top_level_items() {
        let t = tree_of(
            "use a::b;\nconst N: usize = 4;\nstruct S { x: u32 }\nfn f() {}\nmod m { fn g() {} }\n",
        );
        assert!(t.errors.is_empty(), "{:?}", t.errors);
        assert_eq!(t.items.len(), 5);
        assert_eq!(names(&t.items[4].children), vec!["g"]);
    }

    #[test]
    fn impl_headers_resolve_self_and_trait() {
        let t = tree_of(
            "impl Foo { fn a(&self) {} }\n\
             impl<T: Tracer> Scheme for Silc<T> { fn access(&mut self) {} }\n\
             impl fmt::Display for Bar { }\n\
             impl<'a> IntoIterator for &'a OpList { }\n",
        );
        assert!(t.errors.is_empty(), "{:?}", t.errors);
        let tags: Vec<String> = t.items.iter().map(|i| kind_tag(&i.kind)).collect();
        assert!(tags[0].starts_with("impl/Foo/None"), "{tags:?}");
        assert!(tags[1].contains("impl/Silc/Some(\"Scheme\")"), "{tags:?}");
        assert!(tags[2].contains("impl/Bar/Some(\"Display\")"), "{tags:?}");
        assert!(
            tags[3].contains("impl/OpList/Some(\"IntoIterator\")"),
            "{tags:?}"
        );
    }

    #[test]
    fn fn_sigs_capture_params_and_bounds() {
        let t = tree_of("fn run<F: RecordFeed>(&mut self, feed: &mut F, n: u64) -> u64 { 0 }");
        let ItemKind::Fn { sig, body } = &t.items[0].kind else {
            panic!("not a fn")
        };
        assert!(sig.has_self);
        assert_eq!(
            sig.params,
            vec![("feed".into(), "F".into()), ("n".into(), "u64".into())]
        );
        assert_eq!(sig.generics, vec![("F".into(), "RecordFeed".into())]);
        assert!(body.is_some());
    }

    #[test]
    fn struct_fields_unwrap_transparent_wrappers() {
        let t = tree_of(
            "struct System<T: Tracer> { scheme: Box<dyn MemoryScheme>, driver: Option<FaultDriver>, lanes: Vec<Lane>, tracer: T }",
        );
        let ItemKind::Struct { fields, generics } = &t.items[0].kind else {
            panic!("not a struct")
        };
        let tys: Vec<&str> = fields.iter().map(|f| f.ty.as_str()).collect();
        assert_eq!(tys, vec!["MemoryScheme", "FaultDriver", "Vec", "T"]);
        assert_eq!(generics, &vec![("T".to_string(), "Tracer".to_string())]);
    }

    #[test]
    fn use_trees_flatten_with_aliases_and_groups() {
        let t =
            tree_of("use silcfm_types::{FxHashMap, scheme::{MemoryScheme as MS, SchemeStats}};");
        let ItemKind::Use { imports } = &t.items[0].kind else {
            panic!("not a use")
        };
        let got: Vec<(String, String)> = imports
            .iter()
            .map(|u| (u.alias.clone(), u.path.join("::")))
            .collect();
        assert!(
            got.contains(&("FxHashMap".into(), "silcfm_types::FxHashMap".into())),
            "{got:?}"
        );
        assert!(
            got.contains(&("MS".into(), "silcfm_types::scheme::MemoryScheme".into())),
            "{got:?}"
        );
        assert!(
            got.contains(&(
                "SchemeStats".into(),
                "silcfm_types::scheme::SchemeStats".into()
            )),
            "{got:?}"
        );
    }

    #[test]
    fn nested_fns_and_cfg_test_mods() {
        let t = tree_of(
            "fn outer() { let x = 1; fn inner() {} { let y = 2; } }\n\
             #[cfg(test)]\nmod tests { fn t() {} }\n",
        );
        assert!(t.errors.is_empty(), "{:?}", t.errors);
        assert_eq!(names(&t.items[0].children), vec!["inner"]);
        assert!(t.items[1].cfg_test);
        assert!(!t.items[0].cfg_test);
    }

    #[test]
    fn bodiless_trait_fns_and_where_clauses() {
        let t = tree_of(
            "trait Feed { fn next(&mut self) -> Option<u8>; fn batch(&mut self) -> u8 { 0 } }\n\
             fn generic<F>(f: F) -> u8 where F: Fn(u8) -> u8 { f(1) }\n",
        );
        assert!(t.errors.is_empty(), "{:?}", t.errors);
        let trait_kids = &t.items[0].children;
        assert_eq!(names(trait_kids), vec!["next", "batch"]);
        let ItemKind::Fn { body, .. } = &trait_kids[0].kind else {
            panic!()
        };
        assert!(body.is_none());
        let ItemKind::Fn { body, .. } = &t.items[1].kind else {
            panic!()
        };
        assert!(body.is_some());
    }

    #[test]
    fn expression_braces_do_not_spawn_items() {
        // `match`, struct literals and closures inside bodies must not be
        // mistaken for items even when arms mention item keywords as paths.
        let t = tree_of(
            "fn f(k: Kind) -> u8 { match k { Kind::Fn => 1, Kind::Struct { n } => n, _ => 0 } }",
        );
        assert!(t.errors.is_empty(), "{:?}", t.errors);
        assert!(t.items[0].children.is_empty());
    }

    #[test]
    fn spans_are_well_nested() {
        let src = "mod a { fn f() { fn g() {} } mod b { struct S; } }\nfn top() {}";
        let t = tree_of(src);
        assert!(t.errors.is_empty(), "{:?}", t.errors);
        check_nesting(&t.items, None).expect("nesting");
    }

    #[test]
    fn pretty_roundtrip_is_span_stable() {
        let src = r##"
use a::{b, c as d};
const MSG: &str = "has \"quotes\" and \\ slashes";
struct S { name: &'static str, ch: char }
impl S { fn probe(&self, i: usize) -> char { let _ = 'x'; '\n' } }
fn raw() -> &'static str { r#"raw "content" here"# }
"##;
        let t = tree_of(src);
        assert!(t.errors.is_empty(), "{:?}", t.errors);
        let lexed = lex(src);
        let printed = pretty(&t, &lexed.tokens);
        let relexed = lex(&printed);
        let reparsed = parse(&relexed);
        assert!(reparsed.errors.is_empty(), "{:?}", reparsed.errors);
        assert!(
            span_stable_eq(&t.items, &reparsed.items),
            "\noriginal: {:#?}\nreparsed: {:#?}",
            t.items,
            reparsed.items
        );
    }
}
