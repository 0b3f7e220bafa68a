#!/usr/bin/env bash
# Tier-1 offline CI: everything here must pass with no network access.
#
# The workspace is hermetic by policy — no external crates, no registry,
# no lockfile churn (see README "Testing"). `--offline` enforces that:
# if a dependency on a registry crate sneaks into any Cargo.toml, the
# build step fails right here instead of in an air-gapped environment.

set -euo pipefail
cd "$(dirname "$0")/.."

# The in-tree linter runs first: it needs only its own crate compiled, so
# a determinism/hot-path violation fails in seconds, before the full
# workspace builds (see DESIGN.md §8 for the rule table and §13 for the
# workspace call-graph analyzer behind P1/A1/N1/F1). The file-local
# contracts (default hashers, wall-clock/env reads, setup-code panics) are
# enforced by the clippy step below through clippy.toml.
echo "==> silcfm-lint (offline, cold budget)"
cargo build -q --offline -p silcfm-lint
lint_bin="target/debug/silcfm-lint"
# The analysis must fit a 10 s budget: the linter is the cheapest CI step
# by design, and an analyzer slow enough to skip locally stops being run.
lint_start=$(date +%s%N)
if ! "$lint_bin" --json > target/lint-findings.json; then
  "$lint_bin" --fix-hints   # human-readable details
  exit 1
fi
lint_end=$(date +%s%N)
cold_ms=$(( (lint_end - lint_start) / 1000000 ))
[ "$cold_ms" -le 10000 ] || {
  echo "cold lint took ${cold_ms} ms, over the 10 s budget"; exit 1; }
echo "    cold ${cold_ms} ms; findings artifact: target/lint-findings.json"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy -D warnings (offline)"
cargo clippy --workspace --all-targets --offline -- -D warnings

# Docs are checked like code: every rustdoc warning is an error, so a
# deleted or renamed item cannot leave a dangling intra-doc link behind,
# and public docs cannot link private items.
echo "==> cargo doc (offline, rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" \
  cargo doc -q --workspace --no-deps --offline

echo "==> cargo build --release (offline)"
cargo build --release --workspace --offline

echo "==> cargo test -q (offline)"
cargo test -q --workspace --offline

# The benchmark (BENCHMARK.json) is its own workspace that links the
# simulator crates by path: build and test it here so a simulator API
# change cannot break it unseen.
echo "==> perfbench build + tests (offline)"
cargo test -q --offline --manifest-path perfbench/Cargo.toml

# Every benchmark job's output digest at the default seed must equal the
# committed perfbench/golden.txt. The jobs run serially through `run` and
# `run_serve`, so this pins the serial serving path the benchmark times.
echo "==> perfbench digests (serial jobs vs perfbench/golden.txt)"
cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
  --print-digests | diff - perfbench/golden.txt

# The paper's tables and figures come from one binary. Table II simulates
# nothing, so printing it proves the binary renders in milliseconds.
echo "==> paper (Table II)"
target/release/paper table2_config

# A malformed command line — unknown flag, missing or bad value, clashing
# flags — must be a usage error (exit 2) with the usage line on stderr:
# never a panic (exit 101), never a silent minutes-long default run.
echo "==> usage errors (exit 2)"
while read -r bin args; do
  rc=0
  # shellcheck disable=SC2086 # the argument list is split on purpose
  "target/release/$bin" $args > /dev/null 2>&1 || rc=$?
  [ "$rc" -eq 2 ] || {
    echo "expected usage error (exit 2) from $bin $args, got $rc"; exit 1; }
done <<'EOF'
paper --bogus
latency --out
latency --smoke --full
throughput --budget
throughput --budget x
trace_capture --epoch x
trace_capture --sampling 3
chaos --journal
EOF

# Latency-percentile smoke: measure per-class demand-latency sketches
# for every scheme on a 3-workload subset (DESIGN.md §14).
echo "==> latency percentiles (smoke)"
cargo run --release --offline -p silcfm-bench --bin latency -- --smoke --no-write

# Throughput benchmark + perf-regression gate: every scheme at the
# scheme-only and full-system layers, and SILC-FM on every tracer tier,
# measured in interleaved best-of rounds at the committed trajectory's
# budget. The gate checks host-independent ratio metrics (scheme-vs-
# baseline speed, traced-vs-untraced overhead) against the last row of
# results/BENCH_trajectory.json; a ratio leaving its 1.6x band fails CI,
# and intentional changes append a new row (--label) and commit it. The
# full-budget numbers live in results/BENCH_throughput.json.
echo "==> throughput benchmark + perf-regression gate (ratio bands vs committed trajectory)"
cargo run --release --offline -p silcfm-bench --bin throughput -- \
  --budget 16000 --repeats 3 --no-write --skip-grid --check

# Trace smoke: capture one fully traced smoke run, then validate the
# Chrome trace with the in-tree checker — the JSON must parse, every
# declared track must carry at least one event, and per-track timestamps
# must be monotone (see DESIGN.md §9).
echo "==> trace capture + validation (smoke)"
trace_dir="$(mktemp -d)"
trap 'rm -rf "$trace_dir"' EXIT
cargo run --release --offline -p silcfm-bench --bin trace_capture -- \
  --smoke --trace "$trace_dir/trace.json" --metrics-out "$trace_dir/series.csv" \
  --summary
cargo run --release --offline -p silcfm-obs --bin trace_check -- \
  "$trace_dir/trace.json"

# Sampling-tier smoke: the same capture with the ring subsampled 1-in-16.
# The trace must still validate (tracks present, timestamps monotone) and
# the summary's per-kind counts stay exact — they come from the always-on
# counter tier, not the thinned ring (DESIGN.md §12).
echo "==> sampling tracer capture + validation (smoke, 1-in-16)"
cargo run --release --offline -p silcfm-bench --bin trace_capture -- \
  --smoke --sampling 16 --trace "$trace_dir/sampled.json" --summary
cargo run --release --offline -p silcfm-obs --bin trace_check -- \
  "$trace_dir/sampled.json"

# Kill-and-resume smoke: run the journaled experiment grid, crash it mid-write
# after 2 of 4 jobs (exit 3, torn tail on the journal), resume it, and
# demand the byte-identical aggregate an uninterrupted run produces
# (DESIGN.md §10).
echo "==> journaled grid kill-and-resume (smoke)"
chaos_bin="target/release/chaos"
journal_dir="$(mktemp -d)"
trap 'rm -rf "$trace_dir" "$journal_dir"' EXIT
rc=0
"$chaos_bin" --journal "$journal_dir/crash.journal" --die-after-jobs 2 || rc=$?
[ "$rc" -eq 3 ] || { echo "expected simulated crash (exit 3), got $rc"; exit 1; }
resumed="$("$chaos_bin" --journal "$journal_dir/crash.journal" --resume \
  | grep -o 'aggregate=[0-9a-f]*')"
fresh="$("$chaos_bin" --journal "$journal_dir/fresh.journal" \
  | grep -o 'aggregate=[0-9a-f]*')"
[ -n "$resumed" ] && [ "$resumed" = "$fresh" ] || {
  echo "resume aggregate mismatch: resumed='$resumed' fresh='$fresh'"; exit 1; }
echo "    resumed $resumed == fresh $fresh"

# Serving-plane smoke: the SLO max-RPS search at CI size (DESIGN.md §15).
# Writes results/BENCH_slo.json (uploaded as a workflow artifact) and runs
# the AIMD searches with the conservation ledger asserted on every trial.
echo "==> SLO max-RPS search (smoke)"
slo_bin="target/release/slo"
cargo run --release --offline -p silcfm-bench --bin slo -- --smoke

# SLO search kill-and-resume: journal the search, crash it mid-write
# after 4 trials (exit 3, torn tail), resume — verdict replay through
# fresh regulators must finish with the byte-identical aggregate an
# uninterrupted search prints, and with a journal byte-identical to the
# uninterrupted search's (the search is sequential, so unlike the grid
# journal above its record order is fixed). The uninterrupted search is
# itself a `--resume` of a journal that does not exist yet: like `chaos`,
# `slo` must then start a fresh journal rather than fail.
echo "==> SLO search kill-and-resume (smoke)"
rc=0
"$slo_bin" --smoke --no-write \
  --journal "$journal_dir/slo.journal" --die-after-trials 4 || rc=$?
[ "$rc" -eq 3 ] || { echo "expected simulated crash (exit 3), got $rc"; exit 1; }
slo_resumed="$("$slo_bin" --smoke --no-write \
  --journal "$journal_dir/slo.journal" --resume | grep -o 'aggregate=[0-9a-f]*')"
slo_fresh="$("$slo_bin" --smoke --no-write \
  --journal "$journal_dir/slo-fresh.journal" --resume | grep -o 'aggregate=[0-9a-f]*')"
[ -n "$slo_resumed" ] && [ "$slo_resumed" = "$slo_fresh" ] || {
  echo "SLO resume aggregate mismatch: resumed='$slo_resumed' fresh='$slo_fresh'"
  exit 1; }
cmp "$journal_dir/slo.journal" "$journal_dir/slo-fresh.journal" || {
  echo "SLO resumed journal differs from the uninterrupted one"; exit 1; }
echo "    resumed $slo_resumed == fresh $slo_fresh, journals byte-identical"

echo "ok: tier-1 green"
