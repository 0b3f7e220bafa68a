//! Fixture tests: every rule fires at the expected `file:line` on a
//! known-bad snippet, every rule is silenced by a well-formed directive,
//! and a malformed directive is itself an error (X1).
//!
//! Fixtures live in `tests/fixtures/` (not auto-compiled by cargo) and are
//! linted under *logical* workspace paths, as in a real run. P1/A1/N1
//! scope is *derived*: fixtures seed themselves by impling `MemoryScheme`
//! or calling an order-sensitive sink, not by their path.

use std::collections::BTreeMap;

use silcfm_lint::{lint_rust_source, lint_sources, Finding};

/// A representative hot-path module path.
const HOT: &str = "crates/core/src/controller.rs";
/// An ordinary simulator path.
const COLD: &str = "crates/sim/src/scheduler.rs";

fn spots(findings: &[Finding], rule: &str) -> Vec<usize> {
    findings
        .iter()
        .filter(|f| f.rule == rule)
        .map(|f| f.line)
        .collect()
}

#[test]
fn p1_fires_on_unwrap_expect_panic_and_bare_indexing() {
    let (findings, suppressed) = lint_rust_source(HOT, include_str!("fixtures/p1_bad.rs"));
    assert_eq!(spots(&findings, "P1"), vec![5, 6, 8, 10], "{findings:#?}");
    assert_eq!(suppressed, 0);
    // The violating fn IS the seed, so the reported chain is one hop.
    assert_eq!(findings[0].chain.len(), 1, "{:?}", findings[0].chain);
    assert!(
        findings[0].chain[0].contains("Ctl::access"),
        "{:?}",
        findings[0].chain
    );
}

#[test]
fn p1_applies_only_to_fns_reachable_from_a_declared_seed() {
    // Same body, but the impl'd trait is not `MemoryScheme` — the derived
    // hot set is empty regardless of which module the file lives in.
    let (findings, _) = lint_rust_source(HOT, include_str!("fixtures/p1_unseeded.rs"));
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn p1_is_silenced_by_a_directive_on_the_line_above() {
    let (findings, suppressed) = lint_rust_source(HOT, include_str!("fixtures/p1_suppressed.rs"));
    assert!(findings.is_empty(), "{findings:#?}");
    assert_eq!(suppressed, 1);
}

#[test]
fn a1_fires_only_on_allocations_reachable_from_the_seed() {
    let (findings, suppressed) = lint_rust_source(HOT, include_str!("fixtures/a1_bad.rs"));
    // `helper` is called from the `access` seed, so its `vec![` and
    // `format!` fire; `cold_setup`'s `Vec::new` is unreachable and clean.
    assert_eq!(spots(&findings, "A1"), vec![10, 11], "{findings:#?}");
    assert_eq!(findings.len(), 2, "only A1 fires: {findings:#?}");
    assert_eq!(suppressed, 0);
    let chain = &findings[0].chain;
    assert_eq!(chain.len(), 2, "{chain:?}");
    assert!(chain[0].contains("Ctl::access"), "{chain:?}");
    assert!(chain[1].contains("helper"), "{chain:?}");
}

#[test]
fn a1_is_silenced_by_an_annotated_allow() {
    let (findings, suppressed) = lint_rust_source(HOT, include_str!("fixtures/a1_suppressed.rs"));
    assert!(findings.is_empty(), "{findings:#?}");
    assert_eq!(suppressed, 1);
}

#[test]
fn a1_spares_a_setup_only_constructor() {
    let (findings, suppressed) = lint_rust_source(
        "crates/types/src/scheme.rs",
        include_str!("fixtures/a1_setup_ctor_bad.rs"),
    );
    // `grow` is called from the `access` seed, so its `vec![` fires;
    // the `with_capacity` constructor is only reachable from setup and
    // stays clean even though it calls `Vec::new`.
    assert_eq!(spots(&findings, "A1"), vec![12], "{findings:#?}");
    assert_eq!(findings.len(), 1, "only A1 fires: {findings:#?}");
    assert_eq!(suppressed, 0);
}

#[test]
fn a1_follows_loop_variables_bound_by_nested_tuple_patterns() {
    let (findings, suppressed) = lint_rust_source(HOT, include_str!("fixtures/a1_nested_for.rs"));
    // `for ((i, lane), at) in lanes.iter().enumerate().zip(…)` types
    // `lane` as `Lane`, so `Lane::take`'s `vec![` is reachable.
    assert_eq!(spots(&findings, "A1"), vec![8], "{findings:#?}");
    assert_eq!(findings.len(), 1, "only A1 fires: {findings:#?}");
    assert_eq!(suppressed, 0);
    let chain = &findings[0].chain;
    assert_eq!(chain.len(), 2, "{chain:?}");
    assert!(chain[0].contains("Ctl::access"), "{chain:?}");
    assert!(chain[1].contains("Lane::take"), "{chain:?}");
}

#[test]
fn p1_follows_receivers_bound_by_let_some_element_accessors() {
    let (findings, suppressed) = lint_rust_source(HOT, include_str!("fixtures/p1_let_else_bad.rs"));
    // `let Some(channel) = self.channels.get_mut(..) else` types `channel`
    // as `Channel`, and `if let Some(bank) = self.banks.get_mut(..)` types
    // `bank` as `Bank`; every `access` shares its name, so no unique-name
    // fallback could have found them.
    assert_eq!(spots(&findings, "P1"), vec![10, 18], "{findings:#?}");
    assert_eq!(findings.len(), 2, "only P1 fires: {findings:#?}");
    assert_eq!(suppressed, 0);
    let bank = findings.iter().find(|f| f.line == 10).unwrap();
    assert_eq!(bank.chain.len(), 3, "{:?}", bank.chain);
    assert!(bank.chain[0].contains("Model::access"), "{:?}", bank.chain);
    assert!(
        bank.chain[1].contains("Channel::access"),
        "{:?}",
        bank.chain
    );
    assert!(bank.chain[2].contains("Bank::access"), "{:?}", bank.chain);
}

#[test]
fn p1_and_a1_cover_the_soa_frame_table() {
    let (findings, suppressed) = lint_rust_source(
        "crates/core/src/frametable.rs",
        include_str!("fixtures/p1_frametable_bad.rs"),
    );
    // `access` probes the table through `self.table`, so `probe` panics
    // twice (unwrap, bare index) and `scratch` allocates behind `victim` —
    // a three-hop chain the old file-local pass could not express.
    assert_eq!(spots(&findings, "P1"), vec![9, 10], "{findings:#?}");
    assert_eq!(spots(&findings, "A1"), vec![27], "{findings:#?}");
    assert_eq!(findings.len(), 3, "{findings:#?}");
    assert_eq!(suppressed, 0);
    let a1 = findings.iter().find(|f| f.rule == "A1").unwrap();
    assert_eq!(a1.chain.len(), 3, "{:?}", a1.chain);
    assert!(a1.chain[0].contains("Scheme::access"), "{:?}", a1.chain);
    assert!(a1.chain[1].contains("FrameTable::victim"), "{:?}", a1.chain);
    assert!(a1.chain[2].contains("scratch"), "{:?}", a1.chain);
}

#[test]
fn a1_crosses_module_files_and_reports_the_chain() {
    // Regression for the cross-file false negative: a hot fn calling an
    // allocating helper in a sibling module, linted as a two-file set.
    let sources = vec![
        (
            "crates/core/src/controller.rs".to_string(),
            include_str!("fixtures/xmod_hot.rs").to_string(),
        ),
        (
            "crates/core/src/util.rs".to_string(),
            include_str!("fixtures/xmod_util.rs").to_string(),
        ),
    ];
    let (findings, suppressed) = lint_sources(&sources, &BTreeMap::new());
    let a1: Vec<_> = findings.iter().filter(|f| f.rule == "A1").collect();
    assert_eq!(a1.len(), 1, "{findings:#?}");
    assert_eq!(a1[0].path, "crates/core/src/util.rs");
    assert_eq!(a1[0].line, 3);
    assert_eq!(a1[0].chain.len(), 2, "{:?}", a1[0].chain);
    assert!(
        a1[0].chain[0].contains("Ctl::access (crates/core/src/controller.rs:"),
        "{:?}",
        a1[0].chain
    );
    assert!(
        a1[0].chain[1].contains("expand (crates/core/src/util.rs:"),
        "{:?}",
        a1[0].chain
    );
    assert_eq!(suppressed, 0);
}

#[test]
fn n1_fires_suppresses_and_stays_quiet_when_sorted() {
    let (findings, suppressed) = lint_rust_source(COLD, include_str!("fixtures/n1_bad.rs"));
    assert_eq!(spots(&findings, "N1"), vec![8], "{findings:#?}");
    assert_eq!(suppressed, 0);
    let chain = &findings[0].chain;
    assert!(chain[0].contains("Stats::collect"), "{chain:?}");
    assert!(chain.last().unwrap().contains("Stats::merge"), "{chain:?}");

    let (findings, suppressed) = lint_rust_source(COLD, include_str!("fixtures/n1_suppressed.rs"));
    assert!(findings.is_empty(), "{findings:#?}");
    assert_eq!(suppressed, 1);

    let (findings, _) = lint_rust_source(COLD, include_str!("fixtures/n1_clean.rs"));
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn x1_flags_every_malformed_directive_and_is_not_suppressible() {
    let (findings, suppressed) = lint_rust_source(COLD, include_str!("fixtures/x1_malformed.rs"));
    // Missing reason, empty reason, unknown rule, empty rule list, an
    // unknown verb, and the seven retired IDs (moved to clippy.toml, the
    // lockfile test and the stat-key test, or deleted with their subject)
    // — one X1 per directive, none silenceable.
    assert_eq!(
        spots(&findings, "X1"),
        vec![2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13],
        "{findings:#?}"
    );
    assert_eq!(suppressed, 0);
}

#[test]
fn x1_survives_a_file_wide_allow() {
    let src = "// silcfm-lint: allow-file(N1, X1) -- trying to silence the police\n\
               // silcfm-lint: allow(N1)\n";
    let (findings, _) = lint_rust_source(COLD, src);
    assert_eq!(spots(&findings, "X1"), vec![2], "{findings:#?}");
}
