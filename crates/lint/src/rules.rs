//! The rule engine: token-pattern rules over one lexed source file.
//!
//! | ID | Contract | What fires |
//! |----|----------|------------|
//! | D1 | determinism | `std::collections::{HashMap,HashSet}` (default SipHash hasher) |
//! | D2 | determinism | `std::time::{Instant,SystemTime}`, `std::env::{var,var_os,vars}` |
//! | E1 | fallibility | `.unwrap()` / `.expect(` / `panic!` outside tests in setup/config modules |
//! | H1 | hermeticity | non-workspace-path dependency in a `Cargo.toml` (see `manifest`) |
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
//! hosts the purely file-local rules.

use std::ops::Range;

use crate::lexer::{Lexed, Token, TokenKind};
use crate::Finding;

/// Every rule ID the linter knows, in reporting order.
pub const RULE_IDS: &[&str] = &[
    "D1", "D2", "E1", "H1", "P1", "A1", "N1", "F1", "T1", "S1", "X1",
];

/// Long-form rationale per rule, shown by `silcfm-lint --explain <RULE>`.
pub fn explain(rule: &str) -> Option<&'static str> {
    Some(match rule {
        "D1" => {
            "D1 (determinism): std's HashMap/HashSet seed SipHash per process, so \
             iteration order differs between runs and machines. Any order leak — a \
             stats dump, a tie-break, a work list — breaks bit-identical replays. \
             Use the workspace FxHashMap/FxHashSet (fixed seed) or a BTreeMap."
        }
        "D2" => {
            "D2 (determinism): wall-clock time (Instant/SystemTime) and environment \
             reads make a run depend on when/where it executes. Simulated time comes \
             from the DRAM model's cycle counters; configuration comes from typed \
             experiment params, never from env vars."
        }
        "E1" => {
            "E1 (fallibility): setup and configuration code (param validation, DRAM \
             config, experiment drivers, the fault plane) must return typed errors, \
             not panic — the journaled grid runner reports a bad point and carries \
             on with the rest of the grid. unwrap/expect/panic! are fine in tests."
        }
        "H1" => {
            "H1 (hermeticity): every dependency must be a workspace path dep. A \
             registry dependency would break offline builds and tie results to \
             whatever version resolution picked that day."
        }
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
             no fn). X1 is not suppressible; fix the directive or the constant."
        }
        _ => return None,
    })
}

/// Setup/configuration modules where E1 applies: validation and
/// construction code that callers invoke before a run starts. A bad knob
/// must surface as a typed `SilcFmError`, not a panic, so experiment
/// drivers (and the crash-safe journaled runner in particular) can report
/// it and carry on with the rest of a grid.
pub const SETUP_MODULES: &[&str] = &[
    "crates/dram/src/config.rs",
    "crates/core/src/params.rs",
    "crates/sim/src/experiment.rs",
];

/// Path prefixes (entire crates) in E1 scope. The fault plane is pure
/// setup-and-schedule code: nothing in it runs on the access hot path.
pub const SETUP_PREFIXES: &[&str] = &["crates/fault/src/"];

/// Whether E1 applies to this logical path.
fn setup_scope(path: &str) -> bool {
    SETUP_MODULES.contains(&path) || SETUP_PREFIXES.iter().any(|p| path.starts_with(p))
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

/// Whether D1/D2/T1 source rules apply to this logical path (forward
/// slashes). Tooling crates are exempt: the benchmark harness legitimately
/// reads the wall clock and the linter itself reads the filesystem.
pub(crate) fn determinism_scope(path: &str) -> bool {
    !path.starts_with("crates/bench/") && !path.starts_with("crates/lint/")
}

/// Whether D2 applies: the hermetic property harness (`silcfm-types::check`)
/// is additionally exempt by design (ISSUE 3), as the replay-seed printer
/// may grow environment hooks.
fn d2_scope(path: &str) -> bool {
    determinism_scope(path) && path != "crates/types/src/check.rs"
}

/// Runs every source-level rule over one lexed file, returning raw
/// (unsuppressed) findings. `path` is the workspace-relative path with
/// forward slashes.
pub fn lint_tokens(path: &str, lexed: &Lexed) -> Vec<Finding> {
    let mut findings = Vec::new();
    let toks = &lexed.tokens;
    let test_spans = test_spans(toks);
    let in_test = |line: usize| test_spans.iter().any(|s| s.contains(&line));

    if determinism_scope(path) {
        scan_paths(toks, |segments, line| {
            if has_pair(segments, "collections", &["HashMap", "HashSet"]) {
                findings.push(Finding {
                    rule: "D1",
                    path: path.to_string(),
                    line,
                    message: format!(
                        "default-hasher `{}`: SipHash is randomly keyed and its iteration \
                         order can leak into results",
                        segments.join("::")
                    ),
                    hint: "use `silcfm_types::FxHashMap` / `FxHashSet` (deterministic, faster)"
                        .to_string(),
                    chain: Vec::new(),
                });
            }
            if d2_scope(path)
                && (has_pair(segments, "time", &["Instant", "SystemTime"])
                    || has_pair(segments, "env", &["var", "var_os", "vars"]))
            {
                findings.push(Finding {
                    rule: "D2",
                    path: path.to_string(),
                    line,
                    message: format!(
                        "environment-dependent API `{}`: wall-clock and env reads make runs \
                         unreproducible",
                        segments.join("::")
                    ),
                    hint: "derive behaviour from explicit config/seeds; timing belongs in \
                           crates/bench"
                        .to_string(),
                    chain: Vec::new(),
                });
            }
        });
    }

    // T1 binds shipped simulator code; integration-test and example roots
    // may drive the runner however they like.
    let test_root = ["/tests/", "/examples/", "/benches/"]
        .iter()
        .any(|seg| path.contains(seg));
    if determinism_scope(path) && !test_root && !crate::SANCTIONED_CONCURRENCY.contains(&path) {
        lint_concurrency(path, toks, &mut findings, &in_test);
    }

    if setup_scope(path) {
        lint_setup_fallibility(path, toks, &mut findings, &in_test);
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

// ---- E1: setup fallibility -------------------------------------------------

fn lint_setup_fallibility(
    path: &str,
    toks: &[Token],
    findings: &mut Vec<Finding>,
    in_test: &dyn Fn(usize) -> bool,
) {
    let hint = "return `Result<_, SilcFmError>` so experiment drivers can report the bad \
                knob and continue the rest of the grid";
    for i in 0..toks.len() {
        let t = &toks[i];
        if in_test(t.line) {
            continue;
        }
        if punct(Some(t), '.') {
            if let Some(name) = toks.get(i + 1) {
                if name.kind == TokenKind::Ident
                    && (name.text == "unwrap" || name.text == "expect")
                    && punct(toks.get(i + 2), '(')
                {
                    findings.push(Finding {
                        rule: "E1",
                        path: path.to_string(),
                        line: name.line,
                        message: format!(
                            "`.{}(` in setup code turns a bad configuration into a crash",
                            name.text
                        ),
                        hint: hint.to_string(),
                        chain: Vec::new(),
                    });
                }
            }
        }
        if t.kind == TokenKind::Ident && t.text == "panic" && punct(toks.get(i + 1), '!') {
            findings.push(Finding {
                rule: "E1",
                path: path.to_string(),
                line: t.line,
                message: "`panic!` in setup code turns a bad configuration into a crash"
                    .to_string(),
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

/// Whether `segments` contains `qualifier` immediately followed by one of
/// `leaves`.
fn has_pair(segments: &[String], qualifier: &str, leaves: &[&str]) -> bool {
    segments
        .windows(2)
        .any(|w| w[0] == qualifier && leaves.iter().any(|l| w[1] == *l))
}

/// Scans `::`-joined paths, including grouped `use` trees
/// (`use std::collections::{HashMap, HashSet}`), and calls `f` with the
/// full segment list and the leaf's line for every path leaf.
fn scan_paths(toks: &[Token], mut f: impl FnMut(&[String], usize)) {
    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        if t.kind == TokenKind::Ident && !is_keyword(&t.text) {
            // Only start a path at a non-qualified position: skip idents
            // preceded by `::` (mid-path) or `.` (field/method).
            let qualified = i >= 2 && punct(toks.get(i - 1), ':') && punct(toks.get(i - 2), ':');
            let after_dot = i >= 1 && punct(toks.get(i - 1), '.');
            if !qualified && !after_dot {
                let mut segments = vec![t.text.clone()];
                i = walk_path(toks, i + 1, &mut segments, &mut f);
                if segments.len() > 1 {
                    f(
                        &segments,
                        toks[i.saturating_sub(1).min(toks.len() - 1)].line,
                    );
                }
                continue;
            }
        }
        i += 1;
    }
}

/// Continues a path after its first segment; returns the index just past
/// the path. Recurses into `{...}` use-groups, reporting each leaf.
fn walk_path(
    toks: &[Token],
    mut i: usize,
    segments: &mut Vec<String>,
    f: &mut impl FnMut(&[String], usize),
) -> usize {
    while punct(toks.get(i), ':') && punct(toks.get(i + 1), ':') {
        match toks.get(i + 2) {
            Some(t) if t.kind == TokenKind::Ident && !is_keyword(&t.text) => {
                segments.push(t.text.clone());
                i += 3;
            }
            Some(t) if t.kind == TokenKind::Punct && t.text == "{" => {
                // Use-group: each element extends the current prefix.
                i += 3;
                let mut depth = 1usize;
                while i < toks.len() && depth > 0 {
                    let t = &toks[i];
                    if t.kind == TokenKind::Punct {
                        match t.text.as_str() {
                            "{" => depth += 1,
                            "}" => depth -= 1,
                            _ => {}
                        }
                        i += 1;
                        continue;
                    }
                    if depth == 1 && t.kind == TokenKind::Ident && !is_keyword(&t.text) {
                        let mut sub = segments.clone();
                        sub.push(t.text.clone());
                        let line = t.line;
                        i = walk_path(toks, i + 1, &mut sub, f);
                        f(&sub, line);
                        continue;
                    }
                    i += 1;
                }
                return i;
            }
            _ => break,
        }
    }
    i
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
    fn d1_fires_on_plain_and_grouped_imports() {
        let hits = rules_of(
            "crates/core/src/lib.rs",
            "use std::collections::HashMap;\nuse std::collections::{BTreeMap, HashSet};\n",
        );
        assert_eq!(hits, vec![("D1", 1), ("D1", 2)]);
    }

    #[test]
    fn d1_fires_on_inline_paths_and_spares_fx() {
        let hits = rules_of(
            "crates/sim/src/lib.rs",
            "fn f() { let s = std::collections::HashSet::<u64>::new(); }\n\
             fn g() { let m = silcfm_types::FxHashMap::<u64, u64>::default(); }\n",
        );
        assert_eq!(hits, vec![("D1", 1)]);
    }

    #[test]
    fn d2_fires_on_time_and_env() {
        let hits = rules_of(
            "crates/sim/src/lib.rs",
            "use std::time::Instant;\nfn f() { let _ = std::env::var(\"X\"); }\n",
        );
        assert_eq!(hits, vec![("D2", 1), ("D2", 2)]);
    }

    #[test]
    fn d2_spares_bench_and_check() {
        assert!(rules_of("crates/bench/src/timing.rs", "use std::time::Instant;").is_empty());
        assert!(rules_of("crates/types/src/check.rs", "use std::time::Instant;").is_empty());
        // ... but check.rs is NOT exempt from D1.
        assert_eq!(
            rules_of(
                "crates/types/src/check.rs",
                "use std::collections::HashSet;"
            ),
            vec![("D1", 1)]
        );
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
    fn e1_fires_in_setup_modules_and_crates() {
        let src = "fn build(v: Option<u32>) -> u32 { v.unwrap() }\n\
                   fn check(ok: bool) { if !ok { panic!(\"bad\"); } }\n";
        assert_eq!(
            rules_of("crates/dram/src/config.rs", src),
            vec![("E1", 1), ("E1", 2)]
        );
        assert_eq!(
            rules_of("crates/fault/src/schedule.rs", src),
            vec![("E1", 1), ("E1", 2)]
        );
        // Ordinary simulator code is out of E1 scope.
        assert!(rules_of("crates/sim/src/runner.rs", src).is_empty());
    }

    #[test]
    fn e1_skips_test_modules() {
        let src = "fn build(v: Option<u32>) -> u32 { v.unwrap_or(0) }\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       #[test]\n\
                       fn t() { assert_eq!(super::build(Some(1)), Some(1).unwrap()); }\n\
                   }\n";
        assert!(rules_of("crates/core/src/params.rs", src).is_empty());
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
