//! `silcfm-lint`: in-tree static analysis for the SILC-FM workspace.
//!
//! The simulator's credibility rests on three implementation contracts that
//! ordinary tests check only after the fact: **determinism** (bit-identical
//! serial/parallel results), **hermeticity** (no external crates, fully
//! offline builds) and **hot-path discipline** (the access path neither
//! allocates nor panics). This crate checks those contracts *mechanically*,
//! before the build, with a hand-rolled lexer and a token-pattern rule
//! engine — no parser, no dependencies.
//!
//! See [`rules`] for the rule table, [`directives`] for the suppression
//! syntax, and DESIGN.md § Static analysis for how to add a rule.

pub mod cache;
pub mod callgraph;
pub mod directives;
pub mod interproc;
pub mod lexer;
pub mod manifest;
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
    /// Rule ID (`D1`, `D2`, `H1`, `P1`, `A1`, `S1`, `N1`, `F1`, `T1`, `X1`).
    pub rule: &'static str,
    /// Workspace-relative path with forward slashes.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// What is wrong.
    pub message: String,
    /// How to fix it (shown under `--fix-hints`).
    pub hint: String,
    /// For interprocedural rules: the call chain connecting this site to
    /// the rule's seed (A1/P1: seed → sink; N1/F1: site → order/parallel
    /// sink), one `Qualified::fn (path:line)` hop per entry. Empty for
    /// file-local rules.
    pub chain: Vec<String>,
}

/// Result of linting a whole workspace.
#[derive(Debug, Default)]
pub struct LintReport {
    /// Findings that survived suppression, sorted by (path, line, rule).
    pub findings: Vec<Finding>,
    /// Number of findings silenced by `allow` directives.
    pub suppressed: usize,
    /// Number of files scanned (sources + manifests).
    pub files_scanned: usize,
}

/// The checked-in stat-key registry, relative to the workspace root.
pub const STAT_KEY_REGISTRY: &str = "crates/lint/stat_keys.txt";

/// Key prefix reserved for time-series columns (the `.series` sink).
pub const SERIES_NAMESPACE: &str = "obs.";

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
/// for the sharded/journaled percentile plane, DESIGN.md §14).
pub const ORDER_SINK_FILES: &[&str] = &[
    "crates/sim/src/journal.rs",
    "crates/serve/src/journal.rs",
    "crates/obs/src/export.rs",
    "crates/obs/src/sketch.rs",
];

/// Entry points of sharded/parallel execution (F1 seeds), by fn-name
/// prefix.
pub const PARALLEL_SEED_PREFIXES: &[&str] = &["run_grid", "run_system_sharded"];

/// Name markers of merge/aggregation fns F1 inspects.
pub const MERGE_FN_MARKERS: &[&str] = &["merge", "aggregate", "reduce", "accumulate"];

/// The only modules allowed to spawn threads, pass channels, or touch
/// atomics/locks (T1): the epoch-barrier shard runner and the grid runner.
/// Concurrency anywhere else bypasses the deterministic-merge protocol.
pub const SANCTIONED_CONCURRENCY: &[&str] =
    &["crates/sim/src/shard.rs", "crates/sim/src/runner.rs"];

/// Lints one Rust source under its logical workspace path: the full
/// pipeline (token rules + call-graph rules) over a single-file workspace,
/// with suppression directives applied. Exposed for fixture tests;
/// [`lint_workspace`] runs the same logic per real file (plus manifests
/// and the cross-file S1 pass).
pub fn lint_rust_source(path: &str, source: &str) -> (Vec<Finding>, usize) {
    lint_sources(&[(path.to_string(), source.to_string())], &BTreeMap::new())
}

/// Lints a set of in-memory `(logical path, source)` files as one
/// workspace: per-file token rules, then the interprocedural passes over
/// the cross-file call graph, then suppression. This is what the
/// cross-module fixtures drive.
pub fn lint_sources(
    sources: &[(String, String)],
    crate_names: &BTreeMap<String, String>,
) -> (Vec<Finding>, usize) {
    let (kept, suppressed, _, _) = lint_source_set(sources, crate_names, false);
    (kept, suppressed)
}

/// Shared Rust-source pipeline; returns the surviving findings, the
/// suppressed count, per-file allows (for late passes like S1), and the
/// built symbol table (so callers can reuse its lexed files).
fn lint_source_set(
    sources: &[(String, String)],
    crate_names: &BTreeMap<String, String>,
    check_config: bool,
) -> (
    Vec<Finding>,
    usize,
    BTreeMap<String, Vec<directives::Allow>>,
    symbols::Workspace,
) {
    let ws = symbols::Workspace::build(sources, crate_names);
    let mut by_path: BTreeMap<String, Vec<Finding>> = BTreeMap::new();
    let mut allows_by_file: BTreeMap<String, Vec<directives::Allow>> = BTreeMap::new();
    for sf in &ws.files {
        let mut findings = Vec::new();
        let allows = directives::parse(&sf.path, &sf.lexed.comments, &mut findings);
        findings.extend(rules::lint_tokens(&sf.path, &sf.lexed));
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
    (kept, suppressed, allows_by_file, ws)
}

/// Checks collected stat keys against the registry: every key used by a
/// stats sink must be registered, no file may register the same key twice,
/// and the registry must not carry dead keys. `keys` maps a file path to
/// its `(key, line)` uses; `registry_path` labels registry-side findings.
pub fn check_stat_keys(
    keys: &BTreeMap<String, Vec<(String, usize)>>,
    registry: &str,
    registry_path: &str,
) -> Vec<Finding> {
    let mut findings = Vec::new();
    let registered: Vec<(&str, usize)> = registry
        .lines()
        .enumerate()
        .map(|(idx, l)| (l.split('#').next().unwrap_or("").trim(), idx + 1))
        .filter(|(k, _)| !k.is_empty())
        .collect();

    let mut seen_anywhere: Vec<&str> = Vec::new();
    for (path, uses) in keys {
        let mut seen_here: Vec<&str> = Vec::new();
        for (key, line) in uses {
            if seen_here.contains(&key.as_str()) {
                findings.push(Finding {
                    rule: "S1",
                    path: path.clone(),
                    line: *line,
                    message: format!("stat key \"{key}\" is registered twice by this file"),
                    hint: "each scheme must report a key at most once per snapshot".to_string(),
                    chain: Vec::new(),
                });
            }
            seen_here.push(key);
            seen_anywhere.push(key);
            if !registered.iter().any(|(k, _)| *k == key) {
                findings.push(Finding {
                    rule: "S1",
                    path: path.clone(),
                    line: *line,
                    message: format!("stat key \"{key}\" is not in the registry ({registry_path})"),
                    hint: format!("add \"{key}\" to {registry_path} so figure tooling knows it"),
                    chain: Vec::new(),
                });
            }
        }
    }
    for (key, line) in &registered {
        if !seen_anywhere.contains(key) {
            findings.push(Finding {
                rule: "S1",
                path: registry_path.to_string(),
                line: *line,
                message: format!("registered stat key \"{key}\" is emitted by no stats sink"),
                hint: "remove dead keys so the registry stays the source of truth".to_string(),
                chain: Vec::new(),
            });
        }
    }
    findings
}

/// Checks the namespace split between the two S1 sinks: `.series` column
/// keys must live inside [`SERIES_NAMESPACE`] (so figure tooling can tell
/// time-series columns from per-run scheme stats at a glance), and
/// `.detail` keys must stay out of it. Both maps are path → `(key, line)`.
pub fn check_obs_namespace(
    detail: &BTreeMap<String, Vec<(String, usize)>>,
    series: &BTreeMap<String, Vec<(String, usize)>>,
) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (path, uses) in series {
        for (key, line) in uses {
            if !key.starts_with(SERIES_NAMESPACE) {
                findings.push(Finding {
                    rule: "S1",
                    path: path.clone(),
                    line: *line,
                    message: format!(
                        "series key \"{key}\" is outside the reserved \
                         \"{SERIES_NAMESPACE}\" namespace"
                    ),
                    hint: format!("name time-series columns \"{SERIES_NAMESPACE}<metric>\""),
                    chain: Vec::new(),
                });
            }
        }
    }
    for (path, uses) in detail {
        for (key, line) in uses {
            if key.starts_with(SERIES_NAMESPACE) {
                findings.push(Finding {
                    rule: "S1",
                    path: path.clone(),
                    line: *line,
                    message: format!(
                        "detail key \"{key}\" uses the \"{SERIES_NAMESPACE}\" namespace, \
                         which is reserved for time-series columns"
                    ),
                    hint: "pick an un-prefixed key for per-run scheme stats".to_string(),
                    chain: Vec::new(),
                });
            }
        }
    }
    findings
}

/// Lints the workspace rooted at `root`: every `crates/*/{src,tests,
/// examples,benches}` tree (except the linter's own), the top-level `src/`,
/// `tests/` and `examples/`, and every `Cargo.toml`.
pub fn lint_workspace(root: &Path) -> std::io::Result<LintReport> {
    let mut report = LintReport::default();
    let crate_names = crate_name_map(root)?;
    let mut sources: Vec<(String, String)> = Vec::new();
    for file in workspace_rust_files(root)? {
        sources.push((logical_path(root, &file), fs::read_to_string(&file)?));
    }

    let (kept, suppressed, allows_by_file, ws) = lint_source_set(&sources, &crate_names, true);
    let mut all = kept;
    report.suppressed += suppressed;
    report.files_scanned += ws.files.len();

    let mut stat_keys: BTreeMap<String, Vec<(String, usize)>> = BTreeMap::new();
    let mut series_keys: BTreeMap<String, Vec<(String, usize)>> = BTreeMap::new();
    for sf in &ws.files {
        let keys = rules::collect_stat_keys(&sf.lexed);
        if !keys.is_empty() {
            stat_keys.insert(sf.path.clone(), keys);
        }
        let series = rules::collect_series_keys(&sf.lexed);
        if !series.is_empty() {
            series_keys.insert(sf.path.clone(), series);
        }
    }

    for manifest_path in workspace_manifests(root)? {
        let logical = logical_path(root, &manifest_path);
        let source = fs::read_to_string(&manifest_path)?;
        let (findings, allows) = manifest::lint_manifest(&logical, &source);
        let (kept, suppressed) = directives::apply(findings, &allows);
        report.suppressed += suppressed;
        all.extend(kept);
        report.files_scanned += 1;
    }

    // S1 runs once over all collected keys; per-file directives still apply.
    // Both sinks share the one registry, so the merged map feeds the
    // registered/duplicate/dead checks; the namespace split is checked on
    // the per-sink maps.
    let mut merged = stat_keys.clone();
    for (path, uses) in &series_keys {
        merged
            .entry(path.clone())
            .or_default()
            .extend(uses.iter().cloned());
    }
    let registry = fs::read_to_string(root.join(STAT_KEY_REGISTRY)).unwrap_or_default();
    let mut s1 = check_stat_keys(&merged, &registry, STAT_KEY_REGISTRY);
    s1.extend(check_obs_namespace(&stat_keys, &series_keys));
    for finding in s1 {
        let allows = allows_by_file
            .get(&finding.path)
            .map(Vec::as_slice)
            .unwrap_or(&[]);
        if allows.iter().any(|a| a.covers(finding.rule, finding.line)) {
            report.suppressed += 1;
        } else {
            all.push(finding);
        }
    }

    all.sort_by(|a, b| (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule)));
    report.findings = all;
    Ok(report)
}

/// Content hashes of every input the linter reads — Rust sources, manifests
/// and the stat-key registry — keyed by logical path. This is the domain of
/// the incremental cache's fingerprint: if none of these bytes changed (and
/// the analyzer configuration didn't either), the previous report replays.
pub fn input_hashes(root: &Path) -> std::io::Result<BTreeMap<String, u64>> {
    let mut hashes = BTreeMap::new();
    for file in workspace_rust_files(root)? {
        hashes.insert(logical_path(root, &file), cache::fnv1a(&fs::read(&file)?));
    }
    for m in workspace_manifests(root)? {
        hashes.insert(logical_path(root, &m), cache::fnv1a(&fs::read(&m)?));
    }
    let registry = root.join(STAT_KEY_REGISTRY);
    if registry.is_file() {
        hashes.insert(
            STAT_KEY_REGISTRY.to_string(),
            cache::fnv1a(&fs::read(&registry)?),
        );
    }
    Ok(hashes)
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

/// Every manifest the linter checks (including the linter's own).
fn workspace_manifests(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut manifests = vec![root.join("Cargo.toml")];
    for krate in crate_dirs(root)? {
        manifests.push(krate.join("Cargo.toml"));
    }
    manifests.retain(|m| m.is_file());
    Ok(manifests)
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
