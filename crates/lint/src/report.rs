//! Rendering: human-readable text with `file:line` anchors, or `--json`
//! for tooling. JSON is emitted by hand — the crate is dependency-free.

use std::fmt::Write as _;

use crate::LintReport;

/// Renders the human-readable report. With `fix_hints`, each finding is
/// followed by its fix-it hint and the suppression syntax.
pub fn text(report: &LintReport, fix_hints: bool) -> String {
    let mut out = String::new();
    for f in &report.findings {
        let _ = writeln!(out, "{}:{}: [{}] {}", f.path, f.line, f.rule, f.message);
        if !f.chain.is_empty() {
            let _ = writeln!(out, "    call chain: {}", f.chain.join(" -> "));
        }
        if fix_hints {
            let _ = writeln!(out, "    fix: {}", f.hint);
            let _ = writeln!(
                out,
                "    suppress: // silcfm-lint: allow({}) -- <reason>",
                f.rule
            );
        }
    }
    let _ = writeln!(
        out,
        "silcfm-lint: {} finding{} ({} suppressed) across {} files",
        report.findings.len(),
        if report.findings.len() == 1 { "" } else { "s" },
        report.suppressed,
        report.files_scanned
    );
    out
}

/// Renders the report as a JSON object with a `findings` array.
pub fn json(report: &LintReport) -> String {
    let mut out = String::from("{\n  \"findings\": [");
    for (i, f) in report.findings.iter().enumerate() {
        let chain = f
            .chain
            .iter()
            .map(|hop| format!("\"{}\"", escape(hop)))
            .collect::<Vec<_>>()
            .join(", ");
        let _ = write!(
            out,
            "{}\n    {{\"rule\": \"{}\", \"path\": \"{}\", \"line\": {}, \
             \"message\": \"{}\", \"hint\": \"{}\", \"chain\": [{chain}]}}",
            if i == 0 { "" } else { "," },
            f.rule,
            escape(&f.path),
            f.line,
            escape(&f.message),
            escape(&f.hint)
        );
    }
    let _ = write!(
        out,
        "\n  ],\n  \"suppressed\": {},\n  \"files_scanned\": {}\n}}",
        report.suppressed, report.files_scanned
    );
    out
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Finding;

    fn one_finding() -> LintReport {
        LintReport {
            findings: vec![Finding {
                rule: "N1",
                path: "crates/sim/src/runner.rs".into(),
                line: 287,
                message: "iteration over hash-ordered \"FxHashMap\" feeds a sink".into(),
                hint: "sort the keys".into(),
                chain: Vec::new(),
            }],
            suppressed: 2,
            files_scanned: 40,
        }
    }

    #[test]
    fn text_has_file_line_anchor() {
        let t = text(&one_finding(), false);
        assert!(t.contains("crates/sim/src/runner.rs:287: [N1]"));
        assert!(t.contains("1 finding (2 suppressed)"));
        assert!(!t.contains("fix:"));
    }

    #[test]
    fn fix_hints_show_suppression_syntax() {
        let t = text(&one_finding(), true);
        assert!(t.contains("fix: sort the keys"));
        assert!(t.contains("// silcfm-lint: allow(N1) -- <reason>"));
    }

    #[test]
    fn json_is_escaped_and_structured() {
        let j = json(&one_finding());
        assert!(j.contains("\"rule\": \"N1\""));
        assert!(j.contains("\"line\": 287"));
        assert!(j.contains("hash-ordered \\\"FxHashMap\\\""));
        assert!(j.contains("\"suppressed\": 2"));
    }

    #[test]
    fn chains_render_in_both_formats() {
        let mut r = one_finding();
        r.findings[0].chain = vec![
            "Ctl::access (crates/core/src/controller.rs:4)".to_string(),
            "helper (crates/core/src/util.rs:2)".to_string(),
        ];
        let t = text(&r, false);
        assert!(t.contains(
            "    call chain: Ctl::access (crates/core/src/controller.rs:4) \
             -> helper (crates/core/src/util.rs:2)"
        ));
        let j = json(&r);
        assert!(j.contains(
            "\"chain\": [\"Ctl::access (crates/core/src/controller.rs:4)\", \
             \"helper (crates/core/src/util.rs:2)\"]"
        ));
        // Chainless findings (X1) carry an empty array, not a missing key.
        assert!(json(&one_finding()).contains("\"chain\": []"));
    }

    #[test]
    fn empty_report_renders() {
        let r = LintReport::default();
        assert!(text(&r, false).contains("0 findings"));
        assert!(json(&r).contains("\"findings\": ["));
    }
}
