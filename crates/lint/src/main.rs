//! The `silcfm-lint` binary.
//!
//! ```text
//! cargo run -p silcfm-lint                  # lint the workspace, human output
//! cargo run -p silcfm-lint -- --json        # machine-readable findings
//! cargo run -p silcfm-lint -- --fix-hints
//! cargo run -p silcfm-lint -- --explain A1  # why a rule exists, how to fix
//! cargo run -p silcfm-lint -- <root>        # lint a different tree
//! ```
//!
//! Exit code is nonzero iff any unsuppressed finding (or an I/O error)
//! remains — CI wires this before the build, where it is cheapest.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut json = false;
    let mut fix_hints = false;
    let mut explain: Option<String> = None;
    let mut root: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--fix-hints" => fix_hints = true,
            "--explain" => {
                let Some(rule) = args.next() else {
                    eprintln!("silcfm-lint: --explain needs a rule ID (e.g. --explain A1)");
                    return ExitCode::from(2);
                };
                explain = Some(rule);
            }
            "--help" | "-h" => {
                println!("usage: silcfm-lint [--json] [--fix-hints] [--explain RULE] [root]");
                return ExitCode::SUCCESS;
            }
            other if root.is_none() && !other.starts_with('-') => {
                root = Some(PathBuf::from(other));
            }
            other => {
                eprintln!("silcfm-lint: unknown argument `{other}`");
                return ExitCode::from(2);
            }
        }
    }

    if let Some(rule) = explain {
        let rule = rule.to_uppercase();
        return match silcfm_lint::rules::explain(&rule) {
            Some(text) => {
                println!("{text}");
                ExitCode::SUCCESS
            }
            None => {
                eprintln!(
                    "silcfm-lint: unknown rule `{rule}` (rules: {})",
                    silcfm_lint::rules::RULE_IDS.join(", ")
                );
                ExitCode::from(2)
            }
        };
    }

    // Default to the workspace containing this crate: compile-time constant,
    // so the binary behaves identically regardless of invocation directory.
    let root = root.unwrap_or_else(|| {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("..")
            .join("..")
    });

    let report = match silcfm_lint::lint_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("silcfm-lint: failed to scan {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };

    if json {
        println!("{}", silcfm_lint::report::json(&report));
    } else {
        print!("{}", silcfm_lint::report::text(&report, fix_hints));
    }

    if report.findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
