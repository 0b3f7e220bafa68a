//! The rule table, and the token-pattern rules over one lexed source file.
//!
//! | ID | Contract | What fires |
//! |----|----------|------------|
//! | P1 | panic-safety | panic-capable sites reachable from the hot-path seeds (see `interproc`) |
//! | A1 | allocation | allocation sites reachable from the hot-path seeds (see `interproc`) |
//! | N1 | determinism | unsorted hash iteration feeding an order-sensitive sink (see `interproc`) |
//! | F1 | determinism | unordered float reductions on merge paths of parallel runs (see `interproc`) |
//! | T1 | determinism | threads/channels/atomics outside the sanctioned concurrency modules |
//! | S1 | stats | duplicate or unregistered `&'static str` stat keys (see `lib.rs`) |
//! | X1 | tooling | malformed suppression directive (see `directives`) |
//!
//! P1/A1/N1/F1 are *interprocedural*: their passes live in
//! [`crate::interproc`] and run over the workspace call graph; this module
//! hosts T1 and the stat-key collectors S1 runs on. The file-local
//! determinism and fallibility contracts that need no call graph (default
//! hashers, wall-clock and env reads, unwrap/expect/panic in setup code)
//! are clippy's job: see the workspace `clippy.toml` and DESIGN.md §8.

use std::ops::Range;

use crate::lexer::{Lexed, Token, TokenKind};
use crate::Finding;

/// Every rule ID the linter knows, in reporting order.
pub const RULE_IDS: &[&str] = &["P1", "A1", "N1", "F1", "T1", "S1", "X1"];

/// Long-form rationale per rule, shown by `silcfm-lint --explain <RULE>`.
pub fn explain(rule: &str) -> Option<&'static str> {
    Some(match rule {
        "P1" => {
            "P1 (panic-safety, interprocedural): no unwrap/expect/panic!/bare \
             indexing anywhere reachable from a hot-path seed (every \
             MemoryScheme::access* impl, RecordFeed::next*, DramModel \
             read/write/stream, System::run*). A panic mid-access poisons the \
             epoch journal. The finding's call chain shows seed-to-site \
             reachability; use get()/checked ops and return SilcFmError."
        }
        "A1" => {
            "A1 (allocation, interprocedural): no Vec::new/Box::new/vec!/format!/ \
             to_vec anywhere reachable from a hot-path seed — per-access allocation \
             is the top simulator slowdown at trace scale. Preallocate in setup and \
             reuse scratch buffers; declared amortization boundaries (lib.rs \
             AMORTIZED_BOUNDARIES) stop the traversal where cost is per-epoch."
        }
        "N1" => {
            "N1 (determinism, interprocedural): iterating a hash map in a function \
             from which an order-sensitive sink is reachable (merge/digest fns, the \
             crash journal, the exporters) leaks nondeterministic order into \
             results. Sort the keys first, or fold into an order-insensitive \
             accumulator the rule recognizes (commutative += per key)."
        }
        "F1" => {
            "F1 (determinism, interprocedural): float addition is not associative, \
             so an unordered f32/f64 sum/product/fold in a merge/aggregate fn \
             reachable from the sharded or grid runners makes parallel results \
             differ from serial. Fix the reduction order (sort, or fold shard \
             results in shard-index order) or accumulate in integers."
        }
        "T1" => {
            "T1 (determinism): threads, channels, atomics and locks are allowed \
             only in the sanctioned modules (the epoch-barrier shard runner and \
             the grid runner), which own the deterministic-merge protocol. \
             Concurrency anywhere else bypasses that protocol."
        }
        "S1" => {
            "S1 (stats): every stat key a sink emits must be registered in \
             crates/lint/stat_keys.txt, at most once per file, with no dead \
             registry entries; series keys live under the reserved \"obs.\" \
             namespace. Figure tooling treats the registry as the schema."
        }
        "X1" => {
            "X1 (tooling): the linter's own inputs are malformed — an unparseable \
             suppression directive, an unknown rule ID in allow(...), or a stale \
             analyzer-scope constant (e.g. an AMORTIZED_BOUNDARIES entry matching \
             no fn, or an ORDER_SINK_FILES path matching no file). X1 is not suppressible; fix the directive or the constant."
        }
        _ => return None,
    })
}

/// Rust keywords: identifiers that never name an indexable value, a called
/// function, or a path segment of interest.
const KEYWORDS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "extern", "false", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move",
    "mut", "pub", "ref", "return", "self", "Self", "static", "struct", "super", "trait", "true",
    "type", "unsafe", "use", "where", "while", "yield",
];

pub(crate) fn is_keyword(text: &str) -> bool {
    KEYWORDS.contains(&text)
}

/// Whether the determinism rules (T1, N1, F1) apply to this logical path
/// (forward slashes). Tooling crates are exempt: the benchmark harness
/// legitimately times itself and the linter itself reads the filesystem.
pub(crate) fn determinism_scope(path: &str) -> bool {
    !path.starts_with("crates/bench/") && !path.starts_with("crates/lint/")
}

/// Runs every source-level rule over one lexed file, returning raw
/// (unsuppressed) findings. `path` is the workspace-relative path with
/// forward slashes.
pub fn lint_tokens(path: &str, lexed: &Lexed) -> Vec<Finding> {
    let mut findings = Vec::new();
    let toks = &lexed.tokens;
    let test_spans = test_spans(toks);
    let in_test = |line: usize| test_spans.iter().any(|s| s.contains(&line));

    // T1 binds shipped simulator code; integration-test and example roots
    // may drive the runner however they like.
    let test_root = ["/tests/", "/examples/", "/benches/"]
        .iter()
        .any(|seg| path.contains(seg));
    if determinism_scope(path) && !test_root && !crate::SANCTIONED_CONCURRENCY.contains(&path) {
        lint_concurrency(path, toks, &mut findings, &in_test);
    }

    findings
}

/// Collects `&'static str` keys passed as the first argument of a named
/// sink method, i.e. the `.sink("key", ...)` pattern. Only string literals
/// are collected: a key passed through a `const` binding is deliberately
/// invisible to the audit.
fn collect_sink_keys(lexed: &Lexed, sink: &str) -> Vec<(String, usize)> {
    let toks = &lexed.tokens;
    let mut keys = Vec::new();
    for i in 0..toks.len() {
        if punct(toks.get(i), '.') && ident(toks.get(i + 1), sink) && punct(toks.get(i + 2), '(') {
            if let Some(t) = toks.get(i + 3) {
                if t.kind == TokenKind::Str {
                    keys.push((t.text.clone(), t.line));
                }
            }
        }
    }
    keys
}

/// Collects `&'static str` stat keys passed to `SchemeStats::detail`, i.e.
/// the `.detail("key", ...)` sink. Returns `(key, line)` pairs.
pub fn collect_stat_keys(lexed: &Lexed) -> Vec<(String, usize)> {
    collect_sink_keys(lexed, "detail")
}

/// Collects time-series column keys passed to `SeriesSpec::series`, i.e.
/// the `.series("key")` sink. These share the S1 registry with stat keys
/// and must live in the reserved `obs.` namespace (see `lib.rs`).
pub fn collect_series_keys(lexed: &Lexed) -> Vec<(String, usize)> {
    collect_sink_keys(lexed, "series")
}

// ---- T1: concurrency containment -------------------------------------------

/// Synchronization primitives whose mere presence marks ad-hoc concurrency.
const SYNC_PRIMITIVES: &[&str] = &["Mutex", "RwLock", "Condvar", "Barrier", "OnceLock"];

/// T1: thread spawns, channels, atomics and locks outside the sanctioned
/// concurrency modules (see [`crate::SANCTIONED_CONCURRENCY`]). The shard
/// and grid runners own *all* parallelism so the epoch-barrier merge can
/// guarantee bit-identical serial/parallel results; a rogue thread or a
/// shared atomic anywhere else reintroduces scheduling-order dependence.
fn lint_concurrency(
    path: &str,
    toks: &[Token],
    findings: &mut Vec<Finding>,
    in_test: &dyn Fn(usize) -> bool,
) {
    let hint = "route parallelism through the shard/grid runners (crates/sim/src/shard.rs, \
                runner.rs) so the deterministic merge protocol sees it";
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokenKind::Ident || in_test(t.line) {
            continue;
        }
        let what = if t.text == "spawn" && punct(toks.get(i + 1), '(') {
            Some("thread spawn")
        } else if t.text == "mpsc" {
            Some("channel plumbing")
        } else if t.text.starts_with("Atomic") && t.text.len() > "Atomic".len() {
            Some("shared atomic")
        } else if SYNC_PRIMITIVES.contains(&t.text.as_str()) {
            Some("synchronization primitive")
        } else {
            None
        };
        if let Some(what) = what {
            findings.push(Finding {
                rule: "T1",
                path: path.to_string(),
                line: t.line,
                message: format!(
                    "{what} `{}` outside the sanctioned concurrency modules",
                    t.text
                ),
                hint: hint.to_string(),
                chain: Vec::new(),
            });
        }
    }
}

// ---- token-pattern helpers -------------------------------------------------

fn punct(t: Option<&Token>, c: char) -> bool {
    t.is_some_and(|t| t.kind == TokenKind::Punct && t.text.len() == 1 && t.text.starts_with(c))
}

fn ident(t: Option<&Token>, name: &str) -> bool {
    t.is_some_and(|t| t.kind == TokenKind::Ident && t.text == name)
}

/// Index of the `}` matching the `{` at `open` (or the last token).
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
    toks.len().saturating_sub(1)
}

/// Line ranges covered by `#[cfg(test)]` items (conventionally
/// `mod tests { ... }`): the hot-path and concurrency contracts bind
/// shipped code, not tests.
pub(crate) fn test_spans(toks: &[Token]) -> Vec<Range<usize>> {
    let mut spans = Vec::new();
    let mut i = 0usize;
    while i + 6 < toks.len() {
        let is_cfg_test = punct(toks.get(i), '#')
            && punct(toks.get(i + 1), '[')
            && ident(toks.get(i + 2), "cfg")
            && punct(toks.get(i + 3), '(')
            && ident(toks.get(i + 4), "test")
            && punct(toks.get(i + 5), ')')
            && punct(toks.get(i + 6), ']');
        if !is_cfg_test {
            i += 1;
            continue;
        }
        // Skip any further attributes, then span the item's braces.
        let mut j = i + 7;
        while punct(toks.get(j), '#') && punct(toks.get(j + 1), '[') {
            let mut depth = 0i32;
            while let Some(t) = toks.get(j) {
                if t.kind == TokenKind::Punct {
                    match t.text.as_str() {
                        "[" => depth += 1,
                        "]" => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                }
                j += 1;
            }
            j += 1;
        }
        let mut paren = 0i32;
        while let Some(t) = toks.get(j) {
            if t.kind == TokenKind::Punct {
                match t.text.as_str() {
                    "(" => paren += 1,
                    ")" => paren -= 1,
                    ";" if paren == 0 => break,
                    "{" if paren == 0 => {
                        let close = matching_brace(toks, j);
                        spans.push(toks[j].line..toks[close].line + 1);
                        i = close;
                        break;
                    }
                    _ => {}
                }
            }
            j += 1;
        }
        i += 1;
    }
    spans
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn rules_of(path: &str, src: &str) -> Vec<(&'static str, usize)> {
        lint_tokens(path, &lex(src))
            .into_iter()
            .map(|f| (f.rule, f.line))
            .collect()
    }

    #[test]
    fn t1_fires_on_spawns_channels_atomics_and_locks() {
        let src = "fn f() {\n\
                       let h = thread::spawn(|| 1);\n\
                       let (tx, rx) = mpsc::channel();\n\
                       let n = AtomicU64::new(0);\n\
                       let m = Mutex::new(1);\n\
                       let _ = (h, tx, rx, n, m);\n\
                   }\n";
        let hits = rules_of("crates/sim/src/metrics.rs", src);
        assert_eq!(
            hits,
            vec![("T1", 2), ("T1", 3), ("T1", 4), ("T1", 5)],
            "one per site"
        );
    }

    #[test]
    fn t1_spares_the_sanctioned_modules_and_tests() {
        let src = "fn f() { let h = thread::spawn(|| 1); let _ = h; }\n";
        assert!(rules_of("crates/sim/src/shard.rs", src).is_empty());
        assert!(rules_of("crates/sim/src/runner.rs", src).is_empty());
        assert!(rules_of("crates/bench/src/main.rs", src).is_empty());
        assert!(rules_of("crates/sim/tests/stress.rs", src).is_empty());
        let in_test = "#[cfg(test)]\n\
                       mod tests {\n\
                           fn t() { let n = AtomicU64::new(0); let _ = n; }\n\
                       }\n";
        assert!(rules_of("crates/sim/src/metrics.rs", in_test).is_empty());
    }

    #[test]
    fn t1_does_not_match_plain_idents() {
        // `Atomic` alone, `spawner` without a call, a fn *named* spawn-ish.
        let src = "fn respawn_lane(x: u64) -> u64 { x }\n\
                   fn g(spawner: u64) -> u64 { respawn_lane(spawner) }\n";
        assert!(rules_of("crates/sim/src/metrics.rs", src).is_empty());
    }

    #[test]
    fn stat_keys_are_collected_across_lines() {
        let keys = collect_stat_keys(&lex(
            "fn stats(&self) { s.detail(\"locks\", 1.0); s.detail(\n    \"swaps\", 2.0); }",
        ));
        assert_eq!(keys.len(), 2);
        assert_eq!(keys[0].0, "locks");
        assert_eq!(keys[1].0, "swaps");
        assert_eq!(keys[1].1, 2);
    }
}
