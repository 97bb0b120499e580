#!/bin/sh
# Tier-1 gate: configure, build, and run the full test suite; then the
# suite again with the per-op interpreter oracle
# (JAVELIN_INTERP_NO_FAST_PATH); then a Debug ASan+UBSan pass over the
# same suite (the threaded-dispatch and SoA hot paths lean on raw
# pointers and computed goto, exactly where sanitizers earn their
# keep); then the perf gate: scripts/bench_ab.py builds bench/micro_sim,
# bench/micro_gc and bench/micro_trace in Release for the working tree
# and for a pinned reference revision and runs them as interleaved
# same-host A/B pairs, failing when any gated wall-clock throughput
# falls below 0.90x of the reference; plus the trace-spool smoke
# (crash-recovery round trip) and the flat-RSS capture ceiling; and
# finally the statistical energy gate: a Release ensemble run over the
# pinned seed list, compared against bench/ENSEMBLE_energy.baseline.json
# for statistically significant energy/EDP regressions (see
# scripts/compare_ensemble.py). JAVELIN_SKIP_ASAN=1 skips the sanitizer
# pass and JAVELIN_SKIP_BENCH=1 the micro A/B leg; the energy gate
# always runs. Mirrors what CI runs; keep it green before pushing.
set -eu

cd "$(dirname "$0")/.."

# --- the ensemble-gate fixture pair: the gate is exercised in both
# --- directions against committed fixtures (a healthy re-run must
# --- pass, an injected +5 % energy regression must fail) without
# --- running a single experiment. The gate scripts' own --self-test
# --- checks run as ctest entries below.
if command -v python3 > /dev/null 2>&1; then
    python3 scripts/compare_ensemble.py tests/fixtures/ensemble_baseline.json \
        tests/fixtures/ensemble_ok.json
    if python3 scripts/compare_ensemble.py \
        tests/fixtures/ensemble_baseline.json \
        tests/fixtures/ensemble_regressed.json > /dev/null 2>&1; then
        echo "ci.sh: ensemble gate FAILED to flag the regressed fixture" >&2
        exit 1
    fi
    echo "ensemble gate fixtures: both verdicts exercised"
fi

# --- correctness gate (includes the differential fuzzers and the
# --- golden-run regressions; see tests/test_cache_diff.cc and
# --- tests/test_golden_runs.cc)
cmake -B build -S .
cmake --build build -j
ctest --test-dir build --output-on-failure -j

# --- kill-and-resume smoke: SIGKILL javelin-sweep mid-run via the
# --- JAVELIN_JOB_CRASH_AFTER hook, resume from the journal, and
# --- require (a) the resumed report byte-identical to an
# --- uninterrupted run and (b) the resume restored work and executed
# --- strictly fewer shards than the sweep holds — proof the
# --- checkpoint carried results across a hard crash.
SWEEP=build/src/tools/javelin-sweep
SMOKE=examples/scenarios/smoke.scenario.json
SMOKE_DIR=build/smoke
rm -rf "$SMOKE_DIR"
mkdir -p "$SMOKE_DIR"
"$SWEEP" "$SMOKE" --jobs 2 --out "$SMOKE_DIR/clean.json" \
    2> /dev/null
if JAVELIN_JOB_CRASH_AFTER=3 "$SWEEP" "$SMOKE" --jobs 2 \
    --checkpoint "$SMOKE_DIR/journal.jsonl" \
    --out "$SMOKE_DIR/crashed.json" 2> /dev/null; then
    echo "ci.sh: crash injection did not kill javelin-sweep" >&2
    exit 1
fi
"$SWEEP" "$SMOKE" --jobs 2 --checkpoint "$SMOKE_DIR/journal.jsonl" \
    --resume --out "$SMOKE_DIR/resumed.json" \
    2> "$SMOKE_DIR/resume.log"
cmp "$SMOKE_DIR/clean.json" "$SMOKE_DIR/resumed.json"
stats=$(grep 'checkpoint: restored=' "$SMOKE_DIR/resume.log" | tail -n 1)
restored=${stats#*restored=}; restored=${restored%% *}
executed=${stats#*executed=}; executed=${executed%% *}
total=${stats#*total=}
if [ "$restored" -lt 1 ] || [ "$executed" -ge "$total" ] ||
    [ $((restored + executed)) -ne "$total" ]; then
    echo "ci.sh: resume accounting wrong: $stats" >&2
    exit 1
fi
echo "kill-and-resume smoke: report byte-identical," \
    "restored=$restored executed=$executed total=$total"

# --- co-tenancy smoke (DESIGN.md §11): the builtin multi-tenant sweep
# --- must produce byte-identical reports across worker counts (the
# --- interleaving is a function of simulated state only, so the
# --- host-side job schedule must not leak into a single number) and
# --- across a SIGKILL crash + journal resume.
COT_DIR=build/cotenancy-smoke
rm -rf "$COT_DIR"
mkdir -p "$COT_DIR"
"$SWEEP" --builtin cotenancy-interference --jobs 2 \
    --out "$COT_DIR/j2.json" 2> /dev/null
"$SWEEP" --builtin cotenancy-interference --jobs 1 \
    --out "$COT_DIR/j1.json" 2> /dev/null
cmp "$COT_DIR/j1.json" "$COT_DIR/j2.json"
if JAVELIN_JOB_CRASH_AFTER=4 "$SWEEP" --builtin cotenancy-interference \
    --jobs 2 --checkpoint "$COT_DIR/journal.jsonl" \
    --out "$COT_DIR/crashed.json" 2> /dev/null; then
    echo "ci.sh: crash injection did not kill the co-tenancy sweep" >&2
    exit 1
fi
"$SWEEP" --builtin cotenancy-interference --jobs 2 \
    --checkpoint "$COT_DIR/journal.jsonl" --resume \
    --out "$COT_DIR/resumed.json" 2> /dev/null
cmp "$COT_DIR/j2.json" "$COT_DIR/resumed.json"
echo "co-tenancy smoke: jobs-1, jobs-2 and crash-resumed reports" \
    "byte-identical"

# --- trace-spool smoke: record a synthetic power trace alongside an
# --- in-memory CSV oracle and require the spooled binary file to
# --- decode byte-identically; then SIGKILL the recorder mid-spool via
# --- --crash-after-blocks and require recovery to yield an exact,
# --- non-trivial line-prefix of the oracle (torn-tail semantics of
# --- javelin-trace-v1; DESIGN.md §10).
TRACE=build/src/tools/javelin-trace
TRACE_DIR=build/trace-smoke
rm -rf "$TRACE_DIR"
mkdir -p "$TRACE_DIR"
"$TRACE" record --samples 50000 --out "$TRACE_DIR/clean.jtrc" \
    --csv-oracle "$TRACE_DIR/oracle.csv" > /dev/null
"$TRACE" export-csv "$TRACE_DIR/clean.jtrc" "$TRACE_DIR/clean.csv"
cmp "$TRACE_DIR/oracle.csv" "$TRACE_DIR/clean.csv"
if "$TRACE" record --samples 50000 --out "$TRACE_DIR/torn.jtrc" \
    --buffer-bytes 65536 --crash-after-blocks 10 > /dev/null 2>&1; then
    echo "ci.sh: --crash-after-blocks did not kill javelin-trace" >&2
    exit 1
fi
"$TRACE" export-csv "$TRACE_DIR/torn.jtrc" "$TRACE_DIR/torn.csv"
head -n "$(wc -l < "$TRACE_DIR/torn.csv")" "$TRACE_DIR/oracle.csv" \
    | cmp - "$TRACE_DIR/torn.csv"
torn_lines=$(wc -l < "$TRACE_DIR/torn.csv")
oracle_lines=$(wc -l < "$TRACE_DIR/oracle.csv")
if [ "$torn_lines" -le 1 ] || [ "$torn_lines" -ge "$oracle_lines" ]; then
    echo "ci.sh: torn recovery line count wrong:" \
        "$torn_lines of $oracle_lines" >&2
    exit 1
fi
echo "trace smoke: clean round trip byte-identical, torn tail" \
    "recovered $torn_lines of $oracle_lines oracle lines"

# --- capture-RSS ceiling: spooled capture must hold flat memory as
# --- the sample count scales 10x (1M -> 10M samples). The in-memory
# --- path grows ~40 B per power sample (~400 MB at 10M); the spool
# --- must stay inside its fixed double-buffer budget, so allow well
# --- under one in-memory decade of growth.
trace_rss() {
    "$TRACE" record --samples "$1" --out "$TRACE_DIR/rss.jtrc" \
        --print-rss 2>&1 > /dev/null | sed -n 's/.*max_rss_kb=//p'
}
rss_1m=$(trace_rss 1000000)
rss_10m=$(trace_rss 10000000)
rm -f "$TRACE_DIR/rss.jtrc"
if [ $((rss_10m - rss_1m)) -gt 65536 ]; then
    echo "ci.sh: spooled capture RSS grew ${rss_1m}kB -> ${rss_10m}kB" \
        "over a 10x sample scale" >&2
    exit 1
fi
echo "rss ceiling: 1M samples ${rss_1m}kB, 10M samples ${rss_10m}kB"

# --- dispatch-mode gate: the same suite — including the call-dense
# --- differentials of tests/test_interp_diff.cc (call_heavy across all
# --- tiers and heaps) — must hold with the batched interpreter fast
# --- path disabled (the per-op oracle that the differential fuzzers
# --- compare against; its goldens must match the fast path's bit for
# --- bit).
JAVELIN_INTERP_NO_FAST_PATH=1 ctest --test-dir build \
    --output-on-failure -j

# --- sanitizer gate (skippable for quick iteration)
if [ "${JAVELIN_SKIP_ASAN:-0}" = "1" ]; then
    echo "ci.sh: JAVELIN_SKIP_ASAN=1, skipping the sanitizer gate"
else
    cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=Debug \
        -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all"
    cmake --build build-asan -j
    ctest --test-dir build-asan --output-on-failure -j
fi

# --- perf gate (skippable for quick correctness-only runs): paired
# --- same-host A/B against the reference revision pinned in
# --- scripts/bench_ab.py (DESIGN.md §5c).
if [ "${JAVELIN_SKIP_BENCH:-0}" = "1" ]; then
    echo "ci.sh: JAVELIN_SKIP_BENCH=1, skipping the micro A/B leg"
elif command -v python3 > /dev/null 2>&1; then
    python3 scripts/bench_ab.py
else
    echo "ci.sh: python3 not found, skipping the micro A/B leg" >&2
fi

# --- statistical energy gate: the pinned-seed ensemble must show no
# --- statistically significant energy/EDP regression against the
# --- committed baseline (Holm-corrected permutation test, not a fixed
# --- threshold). Runs whether or not the micro A/B leg ran. Regenerate
# --- the baseline only after intentional model changes:
# --- build-release/bench/ensemble_report --out
# --- bench/ENSEMBLE_energy.baseline.json, then
# --- scripts/make_ensemble_fixtures.py.
cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release
cmake --build build-release -j --target ensemble_report
./build-release/bench/ensemble_report --out ENSEMBLE_current.json
if command -v python3 > /dev/null 2>&1; then
    python3 scripts/compare_ensemble.py \
        bench/ENSEMBLE_energy.baseline.json ENSEMBLE_current.json
else
    echo "ci.sh: python3 not found, skipping the ensemble gate" >&2
fi
