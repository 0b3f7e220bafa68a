//! The call-graph-derived hot-path scope must be a *superset* of the old
//! hand-maintained lists: every function the legacy file-local analysis
//! considered hot is still hot under the workspace analyzer. The legacy
//! constants and the legacy closure algorithm are copied here verbatim as
//! a frozen baseline — the shipped linter no longer contains them.

use std::collections::BTreeMap;
use std::fs;
use std::ops::Range;
use std::path::Path;

use silcfm_lint::lexer::{lex, Token, TokenKind};
use silcfm_lint::symbols::Workspace;
use silcfm_lint::{crate_name_map, interproc, logical_path, workspace_rust_files};

/// Frozen copy of the legacy `rules::HOT_MODULES`.
const LEGACY_HOT_MODULES: &[&str] = &[
    "controller.rs",
    "set_assoc.rs",
    "model.rs",
    "oplist.rs",
    "system.rs",
    "shard.rs",
    "batch.rs",
    "frametable.rs",
];

/// Frozen copy of the legacy `rules::HOT_SEEDS`.
const LEGACY_HOT_SEEDS: &[(&str, &[&str])] = &[
    ("controller.rs", &["access"]),
    ("set_assoc.rs", &["access"]),
    ("model.rs", &["read", "write", "stream"]),
    ("oplist.rs", &["push", "clear", "extend"]),
    ("system.rs", &["run", "charge"]),
    ("shard.rs", &["next", "next_chunk"]),
    ("batch.rs", &["sinks", "commit", "push_outcome"]),
    (
        "frametable.rs",
        &[
            "probe", "victim", "slot_of", "set_bit", "bump_nm", "bump_fm",
        ],
    ),
];

const KEYWORDS: &[&str] = &[
    "as", "break", "const", "continue", "crate", "dyn", "else", "enum", "extern", "false", "fn",
    "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub", "ref",
    "return", "self", "Self", "static", "struct", "super", "trait", "true", "type", "unsafe",
    "use", "where", "while", "async", "await",
];

fn punct(t: Option<&Token>, c: char) -> bool {
    t.is_some_and(|t| t.kind == TokenKind::Punct && t.text.len() == 1 && t.text.starts_with(c))
}

fn ident(t: Option<&Token>, name: &str) -> bool {
    t.is_some_and(|t| t.kind == TokenKind::Ident && t.text == name)
}

fn matching_brace(toks: &[Token], open: usize) -> usize {
    let mut depth = 0i32;
    for (j, t) in toks.iter().enumerate().skip(open) {
        if t.kind == TokenKind::Punct {
            match t.text.as_str() {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth == 0 {
                        return j;
                    }
                }
                _ => {}
            }
        }
    }
    toks.len()
}

struct FnItem {
    name: String,
    body: Range<usize>,
}

/// Port of the legacy `rules::extract_fns`.
fn extract_fns(toks: &[Token]) -> Vec<FnItem> {
    let mut fns = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if ident(toks.get(i), "fn") {
            if let Some(name_tok) = toks.get(i + 1) {
                if name_tok.kind == TokenKind::Ident {
                    let mut j = i + 2;
                    let mut paren = 0i32;
                    let mut body = None;
                    while let Some(t) = toks.get(j) {
                        if t.kind == TokenKind::Punct {
                            match t.text.as_str() {
                                "(" => paren += 1,
                                ")" => paren -= 1,
                                ";" if paren == 0 => break,
                                "{" if paren == 0 => {
                                    body = Some(j);
                                    break;
                                }
                                _ => {}
                            }
                        }
                        j += 1;
                    }
                    if let Some(open) = body {
                        let close = matching_brace(toks, open);
                        fns.push(FnItem {
                            name: name_tok.text.clone(),
                            body: open + 1..close,
                        });
                    }
                }
            }
        }
        i += 1;
    }
    fns
}

/// Port of the legacy file-local closure from `rules::lint_allocations`:
/// seed names, then every same-file fn mentioned as a bare/`Self::` call.
fn legacy_hot_fns(toks: &[Token], seeds: &[&str]) -> Vec<String> {
    let fns = extract_fns(toks);
    let mut calls: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for f in &fns {
        let entry = calls.entry(f.name.as_str()).or_default();
        for j in f.body.clone() {
            let t = &toks[j];
            if t.kind == TokenKind::Ident
                && !KEYWORDS.contains(&t.text.as_str())
                && punct(toks.get(j + 1), '(')
            {
                let qualified =
                    j >= 2 && punct(toks.get(j - 1), ':') && punct(toks.get(j - 2), ':');
                if qualified && !(j >= 3 && ident(toks.get(j - 3), "Self")) {
                    continue;
                }
                entry.push(t.text.as_str());
            }
        }
    }
    let mut hot: Vec<&str> = Vec::new();
    let mut queue: Vec<&str> = seeds.to_vec();
    while let Some(name) = queue.pop() {
        if hot.contains(&name) {
            continue;
        }
        hot.push(name);
        if let Some(mentions) = calls.get(name) {
            for m in mentions {
                if calls.contains_key(m) && !hot.contains(m) {
                    queue.push(m);
                }
            }
        }
    }
    // The legacy pass only *reported* on fns actually defined in the file.
    fns.iter()
        .filter(|f| hot.contains(&f.name.as_str()))
        .map(|f| f.name.clone())
        .collect()
}

/// Legacy entries the derived scope intentionally does *not* cover. The old
/// matcher treated any `name(` ident as a call to a same-file `fn name`, so
/// std method calls on field receivers collided with local fns; one entry was
/// an unconditional seed with no hot caller. Each waiver names the artifact.
const LEGACY_COLLISION_WAIVERS: &[(&str, &str, &str)] = &[
    (
        "crates/core/src/frametable.rs",
        "get",
        "`self.remap.get(..)` (slice::get) inside `probe` collided with the \
         local `fn get`, whose real callers are `frame()` — documented as \
         tests/diagnostics only",
    ),
    (
        "crates/types/src/oplist.rs",
        "extend",
        "a legacy *seed*, not a discovered fn: the shipped tree has no \
         hot-path caller of `OpList::extend` (the `Extend` impl serves \
         conversions and tests; hot fill goes through `push`)",
    ),
];

#[test]
fn derived_scope_covers_every_legacy_hot_fn() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .unwrap()
        .parent()
        .unwrap();
    let crate_names = crate_name_map(root).expect("crate names");
    let mut sources: Vec<(String, String)> = Vec::new();
    for file in workspace_rust_files(root).expect("walk") {
        sources.push((
            logical_path(root, &file),
            fs::read_to_string(&file).expect("read"),
        ));
    }
    let ws = Workspace::build(&sources, &crate_names);
    let derived = interproc::derived_hot_set(&ws);

    let mut missing: Vec<String> = Vec::new();
    let mut legacy_seen = 0usize;
    let mut waivers_hit = 0usize;
    for (path, source) in &sources {
        // `src/` modules only — the legacy lists never matched test files.
        if !path.contains("/src/") {
            continue;
        }
        let name = path.rsplit('/').next().unwrap();
        if !LEGACY_HOT_MODULES.contains(&name) {
            continue;
        }
        let seeds = LEGACY_HOT_SEEDS
            .iter()
            .find(|(m, _)| *m == name)
            .map(|(_, s)| *s)
            .unwrap();
        let lexed = lex(source);
        for hot_fn in legacy_hot_fns(&lexed.tokens, seeds) {
            legacy_seen += 1;
            if LEGACY_COLLISION_WAIVERS
                .iter()
                .any(|(p, f, _)| *p == path && *f == hot_fn)
            {
                waivers_hit += 1;
                continue;
            }
            if !derived.contains(&(path.clone(), hot_fn.clone())) {
                missing.push(format!("{path}: {hot_fn}"));
            }
        }
    }
    assert!(
        legacy_seen > 20,
        "baseline should cover a real hot surface, saw {legacy_seen} fns"
    );
    // Every waiver must still correspond to a live legacy entry — a stale
    // waiver would silently shrink the superset guarantee.
    assert_eq!(
        waivers_hit,
        LEGACY_COLLISION_WAIVERS.len(),
        "stale entry in LEGACY_COLLISION_WAIVERS: only {waivers_hit} of {} \
         waivers matched a legacy-hot fn",
        LEGACY_COLLISION_WAIVERS.len()
    );
    assert!(
        missing.is_empty(),
        "derived hot scope lost {} of {} legacy-hot fns:\n{}",
        missing.len(),
        legacy_seen,
        missing.join("\n")
    );
}
