//! The workspace polices itself: linting the real tree must come back
//! clean, and the same walk over a deliberately bad tree must not.

use std::fs;
use std::path::Path;

use silcfm_lint::lint_workspace;

#[test]
fn the_workspace_lints_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = lint_workspace(&root).expect("workspace readable");
    assert!(
        report.findings.is_empty(),
        "the tree must stay lint-clean; run `cargo run -p silcfm-lint` for \
         details:\n{:#?}",
        report.findings
    );
    assert!(report.files_scanned > 50, "walker found the whole tree");
}

#[test]
fn an_injected_bad_file_turns_the_report_red() {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("bad-tree");
    let hot = root.join("crates/core/src");
    fs::create_dir_all(&hot).expect("tmp tree");
    fs::write(
        root.join("crates/core/Cargo.toml"),
        "[package]\nname = \"bad-core\"\n",
    )
    .expect("crate manifest");
    // One file, the three contracts the linter owns: bare indexing on the
    // hot path (P1), an allocation reachable from it (A1), and hash
    // iteration feeding an order-sensitive merge (N1).
    fs::write(
        hot.join("controller.rs"),
        "struct Ctl;\nimpl MemoryScheme for Ctl {\n    \
         fn access(&mut self, v: &[u32]) -> u32 { grow(); v[0] }\n}\n\
         fn grow() { let _ = vec![0u8; 64]; }\n\
         struct M { counts: FxHashMap }\n\
         impl M {\n    \
         fn collect(&self) -> u64 { let mut t = 0; for (_k, v) in &self.counts { t += v; } self.merge(); t }\n    \
         fn merge(&self) {}\n}\n",
    )
    .expect("bad source");

    let report = lint_workspace(&root).expect("tmp tree readable");
    let at = |rule: &str| -> Vec<usize> {
        report
            .findings
            .iter()
            .filter(|f| f.rule == rule && f.path == "crates/core/src/controller.rs")
            .map(|f| f.line)
            .collect()
    };
    assert_eq!(at("P1"), vec![3], "{:#?}", report.findings);
    assert_eq!(at("A1"), vec![5], "{:#?}", report.findings);
    assert_eq!(at("N1"), vec![8], "{:#?}", report.findings);
    // The injected tree has none of the fns the declared amortization
    // boundaries name, which a full-workspace run reports as stale config.
    assert!(
        report.findings.iter().any(|f| f.rule == "X1"),
        "{:#?}",
        report.findings
    );
    assert!(
        report
            .findings
            .iter()
            .all(|f| !f.path.contains('\\') && f.line >= 1),
        "findings carry forward-slash paths and 1-based lines: {:#?}",
        report.findings
    );
}
