//! `silcfm-lint`: in-tree static analysis for the SILC-FM workspace.
//!
//! The simulator's credibility rests on implementation contracts that
//! ordinary tests check only after the fact: **determinism** (bit-identical
//! serial/parallel results) and **hot-path discipline** (the access path
//! neither allocates nor panics). This crate checks the parts of those
//! contracts that need the workspace call graph, before the build, with no
//! dependencies: a hand-rolled [`lexer`], an item [`parse`]r, a cross-file
//! [`symbols`] table and [`callgraph`], and the interprocedural passes in
//! [`interproc`] (P1, A1, N1). File-local checks that clippy can make
//! (default hashers, wall-clock and env reads, threads/locks/atomics outside
//! the two runners, unwrap/expect/panic in setup code) live in the
//! workspace `clippy.toml` instead; the stat-key schema is
//! `silcfm_types::STAT_KEYS`, checked by a test in `tests/properties.rs`;
//! hermeticity is pinned by the lockfile test in `tests/config_guard.rs`.
//!
//! See [`rules`] for the rule table, [`directives`] for the suppression
//! syntax, and DESIGN.md § Static analysis for how to add a rule.

pub mod callgraph;
pub mod directives;
pub mod interproc;
pub mod lexer;
pub mod parse;
pub mod report;
pub mod rules;
pub mod symbols;

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

/// One lint finding, anchored to `path:line`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Finding {
    /// Rule ID (one of [`rules::RULE_IDS`]).
    pub rule: &'static str,
    /// Workspace-relative path with forward slashes.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// What is wrong.
    pub message: String,
    /// How to fix it (shown under `--fix-hints`).
    pub hint: String,
    /// For the interprocedural rules: the call chain connecting this site
    /// to the rule's seed (A1/P1: seed → site; N1: site → order sink), one
    /// `Qualified::fn (path:line)` hop per entry. Empty for X1.
    pub chain: Vec<String>,
}

/// Result of linting a whole workspace.
#[derive(Debug, Default)]
pub struct LintReport {
    /// Findings that survived suppression, sorted by (path, line, rule).
    pub findings: Vec<Finding>,
    /// Number of findings silenced by `allow` directives.
    pub suppressed: usize,
    /// Number of Rust sources scanned.
    pub files_scanned: usize,
}

// ---- analyzer scope configuration ------------------------------------------
//
// The single source of truth for *where* the interprocedural rules apply.
// Everything below is declarative; the hot set itself is derived by
// reachability over the call graph (see `interproc`), so adding a scheme,
// a feed, or a run-loop variant extends coverage without touching a list.

/// Where the access hot path starts (P1/A1 seeds): every scheme's access
/// methods, every record feed's pull path, the DRAM timing model's
/// per-request charges, and the `System::run*` driver loops.
pub const HOT_PATH_SEEDS: &[interproc::Seed] = &[
    interproc::Seed::TraitMethods {
        trait_name: "MemoryScheme",
        methods: &["access", "access_fresh"],
    },
    interproc::Seed::TraitMethods {
        trait_name: "RecordFeed",
        methods: &["next", "next_chunk"],
    },
    interproc::Seed::TypeMethods {
        ty: "DramModel",
        methods: &["read", "write", "stream"],
    },
    interproc::Seed::TypeMethodPrefix {
        ty: "System",
        prefix: "run",
    },
    // The sharded feed's per-record handoff. Producer side runs in spawned
    // closures and the consumer side is reached through an enum-variant
    // destructure, both of which the call-graph resolver drops — so the
    // queue's per-record operations are declared hot directly.
    interproc::Seed::TypeMethods {
        ty: "LaneQueue",
        methods: &["push", "pop"],
    },
    // The serving plane's per-service completion tap (dispatch side) and
    // per-record admitted-stream pull (admission side): both run once per
    // serviced record inside the run loop, so they are hot-path seeds in
    // their own right — the tap is called through a generic parameter the
    // resolver can't always see through.
    interproc::Seed::TraitMethods {
        trait_name: "ServiceTap",
        methods: &["on_serviced"],
    },
    interproc::Seed::TraitMethods {
        trait_name: "RecordStream",
        methods: &["next_record"],
    },
];

/// Declared amortization boundaries: fns the hot-path closure does *not*
/// enter, each with the justification for why its cost is not per-access.
/// A stale entry (matching no fn) is an X1 error.
pub const AMORTIZED_BOUNDARIES: &[(&str, &str)] = &[
    (
        "RunObs::epoch_tick",
        "runs once per epoch boundary, not per access; its flushes and \
         snapshots are amortized over the whole epoch (DESIGN.md §10)",
    ),
    (
        "RequestTracker::finish_request",
        "runs once per completed request (every records_per_request \
         services), not per access; epoch-bucket growth is amortized over \
         the requests that fill the epoch (DESIGN.md §15)",
    ),
];

/// Order-sensitive sink fns by *name* (N1): folding stats or bytes in
/// argument order.
pub const ORDER_SINK_FNS: &[&str] = &["merge", "digest", "grid_digest"];

/// Order-sensitive sink *files* (N1): every fn in them serializes or
/// folds — crash-journal encoding, the export formatters, and the
/// quantile sketches (whose merges must be order-invariant to the byte
/// for the sharded/journaled percentile plane, DESIGN.md §14). A path
/// matching no file is an X1 error.
pub const ORDER_SINK_FILES: &[&str] = &[
    "crates/sim/src/journal.rs",
    "crates/serve/src/journal.rs",
    "crates/obs/src/export.rs",
    "crates/obs/src/sketch.rs",
];

/// Lints one Rust source under its logical workspace path: the call-graph
/// rules over a single-file workspace, with suppression directives
/// applied. Exposed for fixture tests; [`lint_workspace`] runs the same
/// logic over the real tree.
pub fn lint_rust_source(path: &str, source: &str) -> (Vec<Finding>, usize) {
    lint_sources(&[(path.to_string(), source.to_string())], &BTreeMap::new())
}

/// Lints a set of in-memory `(logical path, source)` files as one
/// workspace: directive parsing, then the interprocedural passes over the
/// cross-file call graph, then suppression. This is what the cross-module
/// fixtures drive.
pub fn lint_sources(
    sources: &[(String, String)],
    crate_names: &BTreeMap<String, String>,
) -> (Vec<Finding>, usize) {
    lint_source_set(sources, crate_names, false)
}

/// Shared pipeline; returns the surviving findings, sorted by (path, line,
/// rule), and the suppressed count.
fn lint_source_set(
    sources: &[(String, String)],
    crate_names: &BTreeMap<String, String>,
    check_config: bool,
) -> (Vec<Finding>, usize) {
    let ws = symbols::Workspace::build(sources, crate_names);
    let mut by_path: BTreeMap<String, Vec<Finding>> = BTreeMap::new();
    let mut allows_by_file: BTreeMap<String, Vec<directives::Allow>> = BTreeMap::new();
    for sf in &ws.files {
        let mut findings = Vec::new();
        let allows = directives::parse(&sf.path, &sf.lexed.comments, &mut findings);
        by_path.entry(sf.path.clone()).or_default().extend(findings);
        allows_by_file.insert(sf.path.clone(), allows);
    }
    for finding in interproc::lint_graph(&ws, check_config) {
        by_path
            .entry(finding.path.clone())
            .or_default()
            .push(finding);
    }
    let mut kept = Vec::new();
    let mut suppressed = 0;
    for (path, group) in by_path {
        let allows = allows_by_file.get(&path).map(Vec::as_slice).unwrap_or(&[]);
        let (k, s) = directives::apply(group, allows);
        kept.extend(k);
        suppressed += s;
    }
    kept.sort_by(|a, b| (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule)));
    (kept, suppressed)
}

/// Lints the workspace rooted at `root`: every `crates/*/{src,tests,
/// examples,benches}` tree (except the linter's own) and the top-level
/// `src/`, `tests/` and `examples/`.
pub fn lint_workspace(root: &Path) -> std::io::Result<LintReport> {
    let crate_names = crate_name_map(root)?;
    let mut sources: Vec<(String, String)> = Vec::new();
    for file in workspace_rust_files(root)? {
        sources.push((logical_path(root, &file), fs::read_to_string(&file)?));
    }
    let (findings, suppressed) = lint_source_set(&sources, &crate_names, true);
    Ok(LintReport {
        findings,
        suppressed,
        files_scanned: sources.len(),
    })
}

/// Workspace-relative forward-slash path of `file`.
pub fn logical_path(root: &Path, file: &Path) -> String {
    file.strip_prefix(root)
        .unwrap_or(file)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Every Rust source the linter scans, sorted for deterministic reports.
pub fn workspace_rust_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    for top in ["src", "tests", "examples"] {
        collect_rs(&root.join(top), &mut files)?;
    }
    for krate in crate_dirs(root)? {
        // The linter's own sources mention every forbidden token by design,
        // and its fixtures are deliberately bad code.
        if krate.file_name().is_some_and(|n| n == "lint") {
            continue;
        }
        for sub in ["src", "tests", "examples", "benches"] {
            collect_rs(&krate.join(sub), &mut files)?;
        }
    }
    files.sort();
    Ok(files)
}

/// Every `.rs` file in the workspace, *including* the linter's own sources
/// and fixtures (which the rule walker skips). The parser property tests
/// use this: the item parser must consume literally everything, bad
/// fixtures included — they are valid Rust, just contract-violating.
pub fn all_workspace_rust_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    for top in ["src", "tests", "examples"] {
        collect_rs(&root.join(top), &mut files)?;
    }
    for krate in crate_dirs(root)? {
        for sub in ["src", "tests", "examples", "benches"] {
            collect_rs(&krate.join(sub), &mut files)?;
        }
    }
    files.sort();
    Ok(files)
}

/// `crates/<dir>` directory name → package name, parsed from each crate's
/// `Cargo.toml` (`name = "..."` under `[package]`, which leads the file).
pub fn crate_name_map(root: &Path) -> std::io::Result<BTreeMap<String, String>> {
    let mut map = BTreeMap::new();
    for dir in crate_dirs(root)? {
        let Ok(src) = fs::read_to_string(dir.join("Cargo.toml")) else {
            continue;
        };
        let Some(name) = src.lines().find_map(|line| {
            line.trim()
                .strip_prefix("name")
                .and_then(|r| r.trim_start().strip_prefix('='))
                .map(|r| r.trim().trim_matches('"').to_string())
        }) else {
            continue;
        };
        if let Some(d) = dir.file_name() {
            map.insert(d.to_string_lossy().to_string(), name);
        }
    }
    Ok(map)
}

fn crate_dirs(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let crates = root.join("crates");
    if !crates.is_dir() {
        return Ok(Vec::new());
    }
    let mut entries: Vec<PathBuf> = fs::read_dir(&crates)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_dir())
        .collect();
    entries.sort();
    Ok(entries)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}
