//! X1 fixture: malformed suppression directives (each is an error).
// silcfm-lint: allow(P1)
// silcfm-lint: allow(P1) --
// silcfm-lint: allow(Z9) -- unknown rule id
// silcfm-lint: allow() -- empty rule list
// silcfm-lint: pardon(P1) -- unknown verb
// silcfm-lint: allow(D1) -- default hasher, now clippy's disallowed-types
// silcfm-lint: allow(D2) -- wall clock, now clippy's disallowed-methods
// silcfm-lint: allow(E1) -- setup panic, now a clippy deny header
// silcfm-lint: allow-file(H1) -- registry dependency, now the lockfile test
// silcfm-lint: allow(F1) -- float merge on a parallel path, deleted with its subject
// silcfm-lint: allow(T1) -- threads outside the runners, now clippy's disallowed-methods
// silcfm-lint: allow-file(S1) -- stat-key registry, now STAT_KEYS and its tier-1 test
fn nothing() {}
