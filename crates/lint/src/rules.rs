//! The rule table, and the keyword list the parsers share.
//!
//! | ID | Contract | What fires |
//! |----|----------|------------|
//! | P1 | panic-safety | panic-capable sites reachable from the hot-path seeds |
//! | A1 | allocation | allocation sites reachable from the hot-path seeds |
//! | N1 | determinism | unsorted hash iteration feeding an order-sensitive sink |
//! | X1 | tooling | malformed suppression directive (see `directives`), or stale analyzer config |
//!
//! Every rule that finds code needs the workspace call graph; their passes
//! live in [`crate::interproc`]. Contracts that need no call graph are
//! checked elsewhere (DESIGN.md §8): clippy's `clippy.toml` holds the
//! file-local ones (default hashers, wall-clock and env reads,
//! threads/locks/atomics outside the grid and shard runners, setup-code
//! panics), and a test in `tests/properties.rs` checks every scheme's
//! stat keys against `silcfm_types::STAT_KEYS`.

/// Every rule ID the linter knows, in reporting order.
pub const RULE_IDS: &[&str] = &["P1", "A1", "N1", "X1"];

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
        "X1" => {
            "X1 (tooling): the linter's own inputs are malformed — an unparseable \
             suppression directive, an unknown rule ID in allow(...) (including \
             the retired D1/D2/E1/H1/F1/T1/S1), or a stale analyzer-scope \
             constant (an AMORTIZED_BOUNDARIES entry matching no fn, or an \
             ORDER_SINK_FILES path matching no file). X1 is not suppressible; \
             fix the directive or the constant."
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

/// Whether N1 applies to this logical path (forward slashes). Tooling
/// crates are exempt: the benchmark harness legitimately times itself and
/// the linter itself reads the filesystem.
pub(crate) fn determinism_scope(path: &str) -> bool {
    !path.starts_with("crates/bench/") && !path.starts_with("crates/lint/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_rule_explains_itself_and_nothing_else_does() {
        for rule in RULE_IDS {
            assert!(explain(rule).is_some_and(|t| t.starts_with(rule)), "{rule}");
        }
        for retired in ["D1", "D2", "E1", "H1", "F1", "T1", "S1"] {
            assert!(explain(retired).is_none(), "{retired}");
        }
    }
}
