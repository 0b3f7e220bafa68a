//! Suppression directives.
//!
//! A finding is silenced by an inline directive in a comment:
//!
//! ```text
//! // silcfm-lint: allow(P1) -- index is bounded by the set size invariant
//! ```
//!
//! The directive applies to findings on its own line and on the line
//! immediately below it (so it can trail the offending code or sit on its
//! own line above). `allow(R1, R2)` lists several rules. A whole file is
//! exempted with `allow-file(RULE) -- reason`. The `-- reason` clause is
//! **mandatory**: a suppression with no recorded justification, an unknown
//! rule ID, or unparsable syntax is itself reported under rule `X1` and
//! cannot be suppressed.

use crate::lexer::Comment;
use crate::rules::RULE_IDS;
use crate::Finding;

/// The marker every directive starts with.
pub const MARKER: &str = "silcfm-lint:";

/// One parsed `allow` directive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allow {
    /// Rule IDs this directive silences.
    pub rules: Vec<String>,
    /// Line the directive's comment starts on.
    pub line: usize,
    /// Whether the directive covers the entire file.
    pub file_wide: bool,
}

impl Allow {
    /// Whether this directive silences `rule` at `line`.
    pub fn covers(&self, rule: &str, line: usize) -> bool {
        self.rules.iter().any(|r| r == rule)
            && (self.file_wide || line == self.line || line == self.line + 1)
    }
}

/// Extracts directives from `comments`; malformed ones are appended to
/// `findings` as `X1` errors. `path` labels the findings.
pub fn parse(path: &str, comments: &[Comment], findings: &mut Vec<Finding>) -> Vec<Allow> {
    let mut allows = Vec::new();
    for c in comments {
        let Some(at) = c.text.find(MARKER) else {
            continue;
        };
        let body = c.text[at + MARKER.len()..].trim();
        match parse_one(body) {
            Ok((rules, file_wide)) => allows.push(Allow {
                rules,
                line: c.line,
                file_wide,
            }),
            Err(why) => findings.push(Finding {
                rule: "X1",
                path: path.to_string(),
                line: c.line,
                message: format!("malformed silcfm-lint directive: {why}"),
                hint: format!(
                    "write `{MARKER} allow(<RULE>) -- <reason>`; the reason is mandatory"
                ),
                chain: Vec::new(),
            }),
        }
    }
    allows
}

/// Parses the directive body after the marker. Returns the allowed rule
/// list and whether it is file-wide.
fn parse_one(body: &str) -> Result<(Vec<String>, bool), String> {
    let (file_wide, rest) = if let Some(rest) = body.strip_prefix("allow-file") {
        (true, rest)
    } else if let Some(rest) = body.strip_prefix("allow") {
        (false, rest)
    } else {
        return Err(format!(
            "expected `allow(...)` or `allow-file(...)`, got `{body}`"
        ));
    };
    let rest = rest.trim_start();
    let Some(rest) = rest.strip_prefix('(') else {
        return Err("missing `(` after `allow`".to_string());
    };
    let Some(close) = rest.find(')') else {
        return Err("missing `)` in rule list".to_string());
    };
    let rules: Vec<String> = rest[..close]
        .split(',')
        .map(|r| r.trim().to_string())
        .filter(|r| !r.is_empty())
        .collect();
    if rules.is_empty() {
        return Err("empty rule list".to_string());
    }
    for r in &rules {
        if !RULE_IDS.contains(&r.as_str()) {
            return Err(format!(
                "unknown rule `{r}` (known: {})",
                RULE_IDS.join(", ")
            ));
        }
    }
    let tail = rest[close + 1..].trim();
    let Some(reason) = tail.strip_prefix("--") else {
        return Err("missing `-- <reason>` clause".to_string());
    };
    if reason.trim().is_empty() {
        return Err("empty reason after `--`".to_string());
    }
    Ok((rules, file_wide))
}

/// Drops findings covered by an allow; `X1` findings are never dropped.
pub fn apply(findings: Vec<Finding>, allows: &[Allow]) -> (Vec<Finding>, usize) {
    let mut kept = Vec::new();
    let mut suppressed = 0usize;
    for f in findings {
        let silenced = f.rule != "X1" && allows.iter().any(|a| a.covers(f.rule, f.line));
        if silenced {
            suppressed += 1;
        } else {
            kept.push(f);
        }
    }
    (kept, suppressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn comment(line: usize, text: &str) -> Comment {
        Comment {
            line,
            end_line: line,
            text: text.to_string(),
        }
    }

    fn finding(rule: &'static str, line: usize) -> Finding {
        Finding {
            rule,
            path: "x.rs".into(),
            line,
            message: String::new(),
            hint: String::new(),
            chain: Vec::new(),
        }
    }

    #[test]
    fn well_formed_directive_parses() {
        let mut errs = Vec::new();
        let allows = parse(
            "x.rs",
            &[comment(4, " silcfm-lint: allow(P1, A1) -- audited")],
            &mut errs,
        );
        assert!(errs.is_empty());
        assert_eq!(allows.len(), 1);
        assert!(allows[0].covers("P1", 4));
        assert!(allows[0].covers("A1", 5));
        assert!(!allows[0].covers("P1", 6));
        assert!(!allows[0].covers("N1", 4));
    }

    #[test]
    fn file_wide_directive_covers_every_line() {
        let mut errs = Vec::new();
        let allows = parse(
            "x.rs",
            &[comment(
                1,
                " silcfm-lint: allow-file(N1) -- an exporter whose maps are sorted upstream",
            )],
            &mut errs,
        );
        assert!(errs.is_empty());
        assert!(allows[0].covers("N1", 999));
    }

    #[test]
    fn missing_reason_is_an_error() {
        let mut errs = Vec::new();
        let allows = parse("x.rs", &[comment(7, " silcfm-lint: allow(P1)")], &mut errs);
        assert!(allows.is_empty());
        assert_eq!(errs.len(), 1);
        assert_eq!(errs[0].rule, "X1");
        assert_eq!(errs[0].line, 7);
    }

    #[test]
    fn empty_reason_is_an_error() {
        let mut errs = Vec::new();
        parse(
            "x.rs",
            &[comment(7, " silcfm-lint: allow(P1) --   ")],
            &mut errs,
        );
        assert_eq!(errs.len(), 1);
    }

    #[test]
    fn unknown_rule_is_an_error() {
        let mut errs = Vec::new();
        parse(
            "x.rs",
            &[comment(2, " silcfm-lint: allow(Z9) -- hm")],
            &mut errs,
        );
        assert_eq!(errs.len(), 1);
        assert!(errs[0].message.contains("unknown rule"));
    }

    #[test]
    fn apply_suppresses_only_covered_lines() {
        let allows = vec![Allow {
            rules: vec!["P1".into()],
            line: 10,
            file_wide: false,
        }];
        let (kept, n) = apply(
            vec![
                finding("P1", 10),
                finding("P1", 11),
                finding("P1", 12),
                finding("A1", 10),
            ],
            &allows,
        );
        assert_eq!(n, 2);
        assert_eq!(kept.len(), 2);
    }

    #[test]
    fn x1_cannot_be_suppressed() {
        let allows = vec![Allow {
            rules: vec!["X1".into()],
            line: 1,
            file_wide: true,
        }];
        let (kept, _) = apply(vec![finding("X1", 1)], &allows);
        assert_eq!(kept.len(), 1);
    }
}
