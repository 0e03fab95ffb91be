#!/usr/bin/env bash
# bench.sh — run the F/Q/O/A/W benchmark suites and record the rows as
# BENCH_<date>.json in the repo root, seeding the performance trajectory
# across PRs.
#
# Usage:
#   scripts/bench.sh                     # default: -benchtime=1s -count=1
#   scripts/bench.sh --check BASE.json   # also compare medians against a
#                                        # committed baseline and exit 1 on
#                                        # a >REGRESSION_FACTOR regression
#                                        # in the guard benchmarks
#   BENCHTIME=100ms scripts/bench.sh     # quicker smoke
#   COUNT=5 scripts/bench.sh             # repetitions for benchstat/medians
#
# The raw `go test -bench` output is kept next to the JSON so benchstat
# can compare runs: benchstat BENCH_a.txt BENCH_b.txt
set -euo pipefail

cd "$(dirname "$0")/.."

BASELINE=""
if [ "${1:-}" = "--check" ]; then
    BASELINE="${2:?usage: bench.sh --check BASELINE.json}"
    [ -f "$BASELINE" ] || { echo "baseline $BASELINE not found" >&2; exit 2; }
fi

BENCHTIME="${BENCHTIME:-1s}"
COUNT="${COUNT:-1}"
# go test kills a run after ten minutes unless told otherwise, which the
# main suite passes at COUNT=3 BENCHTIME=500ms; an hour outlasts any
# setting this script is run with and still ends a hung benchmark.
TIMEOUT=60m
# Guard benchmarks for --check: the paper queries and graph primitives
# whose regressions previous PRs fought hardest for, plus the mixed
# read/write contention suite (W2), the parallel collection scan that
# guards the snapshot-isolated read path, the propagation engine's
# incremental delta path (delta vs control vs recompute), the query
# planner's semi-join + provenance-index wins, and the commit path (F2
# annotate, W1 durable commit — the two rows that went 3.3x slower
# unnoticed when views became immutable; a single commit is a writer
# session of one, so these also pin that a session costs what a commit
# did), and the rest of the write path: the commit/delete mix at three
# store sizes (CommitAtStoreSize: its rows growing apart is commit cost
# following the store again), snapshot load, the keyword index the commit
# maintains (A6) and index build on load (A7), the spatial trees the views
# hold as values (A1 consolidation, A2 interval tree and A3 R-tree against
# their scans: a successor costs a search path, a read costs what it did),
# and the read path end to end through the HTTP handler (ReadPath: related,
# keyword, query — store work and response encoding together). A benchmark
# the baseline file predates is skipped until the baseline is regenerated.
GUARDS="${GUARDS:-BenchmarkReadPath|BenchmarkQ1TP53|BenchmarkO3AGraphPrimitives|BenchmarkF1AGraphScenario|BenchmarkW2MixedReadWrite|BenchmarkSearchContentsParallel|BenchmarkPropagation|BenchmarkPlanner|BenchmarkF2AnnotateWorkflow|BenchmarkW1DurableCommit|BenchmarkCommitAtStoreSize|BenchmarkLoadSnapshot|BenchmarkA6ContentIndex|BenchmarkA7BulkLoadVsIncremental|BenchmarkA1IndexConsolidation|BenchmarkA2IntervalVsScan|BenchmarkA3RTreeVsScan}"
REGRESSION_FACTOR="${REGRESSION_FACTOR:-2.0}"
DATE="$(date +%Y-%m-%d)"
TXT="BENCH_${DATE}.txt"
JSON="BENCH_${DATE}.json"
# In check mode the current run must never clobber the baseline it is
# being compared against (same-day runs would otherwise compare the file
# to itself and pass vacuously), so it writes to BENCH_current.*.
if [ -n "$BASELINE" ]; then
    TXT="BENCH_current.txt"
    JSON="BENCH_current.json"
fi

PATTERN='BenchmarkF1AGraphScenario|BenchmarkF2AnnotateWorkflow|BenchmarkF3QueryTab|BenchmarkQ1TP53|BenchmarkQ2Protease|BenchmarkO1SubXOps|BenchmarkO2OntologyOps|BenchmarkO3AGraphPrimitives|BenchmarkA1IndexConsolidation|BenchmarkA2IntervalVsScan|BenchmarkA3RTreeVsScan|BenchmarkA5PlannerOrdering|BenchmarkA6ContentIndex|BenchmarkA7BulkLoadVsIncremental|BenchmarkLoadSnapshot|BenchmarkCommitAtStoreSize|BenchmarkW1DurableCommit|BenchmarkW2MixedReadWrite|BenchmarkSearchContentsParallel|BenchmarkPropagation|BenchmarkPlanner|BenchmarkReadPath|BenchmarkWireEncode'

# BenchmarkWireEncode (one annotation's wire form, cold and warm) lives
# beside the unexported encoder it measures, in internal/httpapi, and the
# planner's (BenchmarkPlanner, BenchmarkA5PlannerOrdering) beside the
# nested-loop reference they compare against, in internal/query.
PKGS=". ./internal/httpapi ./internal/query"

# A benchmark that is renamed or moves out of $PKGS would drop out of the
# run and the guard set without a word: every alternative of PATTERN and
# GUARDS must match a benchmark that `go test -list` finds there.
LISTED="$(go test -list '^Benchmark' $PKGS)"
for alt in $(printf '%s|%s' "$PATTERN" "$GUARDS" | tr '|' ' '); do
    if ! grep -Eq -- "$alt" <<<"$LISTED"; then
        echo "bench.sh: $alt matches no benchmark in $PKGS" >&2
        exit 2
    fi
done

echo "running benchmark suites (benchtime=${BENCHTIME}, count=${COUNT})…" >&2
go test -run '^$' -bench "$PATTERN" -benchmem \
    -benchtime "$BENCHTIME" -count "$COUNT" -timeout "$TIMEOUT" $PKGS | tee "$TXT"

# Convert the standard benchmark lines to JSON:
#   BenchmarkName/sub=1-8  123  456 ns/op  789 B/op  12 allocs/op
awk -v date="$DATE" '
BEGIN { print "["; first = 1 }
/^Benchmark/ {
    name = $1; sub(/-[0-9]+$/, "", name)
    nsop = ""; bop = ""; allocs = ""
    for (i = 2; i < NF; i++) {
        if ($(i + 1) == "ns/op") nsop = $i
        if ($(i + 1) == "B/op") bop = $i
        if ($(i + 1) == "allocs/op") allocs = $i
    }
    if (nsop == "") next
    if (!first) printf ",\n"
    first = 0
    printf "  {\"date\": \"%s\", \"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s", date, name, $2, nsop
    if (bop != "") printf ", \"bytes_per_op\": %s", bop
    if (allocs != "") printf ", \"allocs_per_op\": %s", allocs
    printf "}"
}
END { print "\n]" }
' "$TXT" >"$JSON"

echo "wrote $TXT and $JSON" >&2

# Sharded scaling matrix: the W2 write side and durable commits at
# 1/2/4/8 writer pipelines, recorded as "shards:<bench>" rows plus a
# derived "shards:commits_per_sec:<bench>" rate for each point. The
# names carry the shards: prefix so the --check guard below (which
# matches on the pre-/ root of the name) never treats the scaling curve
# as a regression floor.
SHARD_PATTERN='BenchmarkW2ShardedCommits|BenchmarkW1ShardedDurableCommit'
SHARD_TMP="$(mktemp)"
echo "running sharded scaling matrix (benchtime=${BENCHTIME}, count=${COUNT})…" >&2
go test -run '^$' -bench "$SHARD_PATTERN" -benchmem \
    -benchtime "$BENCHTIME" -count "$COUNT" -timeout "$TIMEOUT" . | tee "$SHARD_TMP"
# One artifact set per date: the raw lines ride along in the main TXT
# (benchstat handles the mixed file fine) instead of a .shards.txt fork.
grep '^Benchmark' "$SHARD_TMP" >>"$TXT" || true
awk -v date="$DATE" '
/^Benchmark/ {
    name = $1; sub(/-[0-9]+$/, "", name)
    nsop = ""
    for (i = 2; i < NF; i++) if ($(i + 1) == "ns/op") nsop = $i
    if (nsop == "") next
    printf ",\n  {\"date\": \"%s\", \"name\": \"shards:%s\", \"iterations\": %s, \"ns_per_op\": %s}", date, name, $2, nsop
    printf ",\n  {\"date\": \"%s\", \"name\": \"shards:commits_per_sec:%s\", \"value\": %.1f}", date, name, 1e9 / nsop
}
' "$SHARD_TMP" >"$JSON.shards"
if [ -s "$JSON.shards" ]; then
    head -n -1 "$JSON" >"$JSON.tmp"
    cat "$JSON.shards" >>"$JSON.tmp"
    printf '\n]\n' >>"$JSON.tmp"
    mv "$JSON.tmp" "$JSON"
    echo "recorded $(grep -c '"name": "shards:' "$JSON") sharded scaling rows into $JSON" >&2
fi
rm -f "$JSON.shards" "$SHARD_TMP"

# Tracing overhead probe: the traced W2 variant (every commit carries a
# span tree into a live ring, every read runs under a traced context)
# against the untraced W2 medians from THIS run — same binary, machine
# and benchtime, so the ratio isolates the tracing cost. Rows are
# recorded with a trace: prefix, which keeps them outside the cross-PR
# --check guard set; the overhead itself is gated here, in-run, at the
# same REGRESSION_FACTOR.
TRACE_PATTERN='BenchmarkW2TracedMixedReadWrite'
TRACE_TMP="$(mktemp)"
echo "running traced W2 overhead probe (benchtime=${BENCHTIME}, count=${COUNT})…" >&2
go test -run '^$' -bench "$TRACE_PATTERN" -benchmem \
    -benchtime "$BENCHTIME" -count "$COUNT" -timeout "$TIMEOUT" . | tee "$TRACE_TMP"
grep '^Benchmark' "$TRACE_TMP" >>"$TXT" || true
awk -v date="$DATE" '
/^Benchmark/ {
    name = $1; sub(/-[0-9]+$/, "", name)
    nsop = ""
    for (i = 2; i < NF; i++) if ($(i + 1) == "ns/op") nsop = $i
    if (nsop == "") next
    printf ",\n  {\"date\": \"%s\", \"name\": \"trace:%s\", \"iterations\": %s, \"ns_per_op\": %s}", date, name, $2, nsop
}
' "$TRACE_TMP" >"$JSON.trace"
if [ -s "$JSON.trace" ]; then
    head -n -1 "$JSON" >"$JSON.tmp"
    cat "$JSON.trace" >>"$JSON.tmp"
    printf '\n]\n' >>"$JSON.tmp"
    mv "$JSON.tmp" "$JSON"
    echo "recorded $(grep -c '"name": "trace:' "$JSON") tracing rows into $JSON" >&2
fi
rm -f "$JSON.trace" "$TRACE_TMP"

echo "checking traced-vs-untraced W2 overhead (limit ${REGRESSION_FACTOR}x)…" >&2
awk -v factor="$REGRESSION_FACTOR" '
function medianof(arr, n,    i, t, j) {
    for (i = 2; i <= n; i++) {
        t = arr[i]
        for (j = i - 1; j >= 1 && arr[j] > t; j--) arr[j + 1] = arr[j]
        arr[j + 1] = t
    }
    if (n % 2) return arr[(n + 1) / 2]
    return (arr[n / 2] + arr[n / 2 + 1]) / 2
}
/^BenchmarkW2MixedReadWrite\/SearchContents/ {
    for (i = 2; i < NF; i++) if ($(i + 1) == "ns/op") plain[++np] = $i + 0
}
/^BenchmarkW2TracedMixedReadWrite\/SearchContents/ {
    for (i = 2; i < NF; i++) if ($(i + 1) == "ns/op") traced[++nt] = $i + 0
}
END {
    if (np == 0 || nt == 0) {
        print "missing W2 traced/untraced samples to compare" > "/dev/stderr"
        exit 2
    }
    pm = medianof(plain, np); tm = medianof(traced, nt)
    ratio = tm / pm
    printf "W2 SearchContents median: untraced %.0f ns/op, traced %.0f ns/op (%.2fx)\n", pm, tm, ratio
    if (ratio > factor) {
        printf "tracing overhead %.2fx exceeds the %sx gate\n", ratio, factor > "/dev/stderr"
        exit 1
    }
}
' "$TXT"

[ -z "$BASELINE" ] && exit 0

# --check: compare per-benchmark ns/op medians for the guard suites. The
# JSON rows are the one-object-per-line format this script itself emits,
# so a constrained awk parse is safe.
echo "checking guard benchmarks (${GUARDS}) against ${BASELINE} (limit ${REGRESSION_FACTOR}x)…" >&2
awk -v guards="$GUARDS" -v factor="$REGRESSION_FACTOR" -v base="$BASELINE" -v cur="$JSON" '
function medianof(arr, n,    i, tmp, t, j) {
    # insertion-sort the n values, return the median
    for (i = 2; i <= n; i++) {
        t = arr[i]
        for (j = i - 1; j >= 1 && arr[j] > t; j--) arr[j + 1] = arr[j]
        arr[j + 1] = t
    }
    if (n % 2) return arr[(n + 1) / 2]
    return (arr[n / 2] + arr[n / 2 + 1]) / 2
}
function collect(file, vals, counts,    line, name, ns, m) {
    while ((getline line < file) > 0) {
        if (match(line, /"name": "[^"]+"/)) {
            name = substr(line, RSTART + 9, RLENGTH - 10)
            if (match(line, /"ns_per_op": [0-9.]+/)) {
                ns = substr(line, RSTART + 13, RLENGTH - 13) + 0
                counts[name]++
                vals[name, counts[name]] = ns
            }
        }
    }
    close(file)
}
BEGIN {
    split("", bvals); split("", bcounts)
    split("", cvals); split("", ccounts)
    collect(base, bvals, bcounts)
    collect(cur, cvals, ccounts)
    bad = 0; checked = 0
    for (name in ccounts) {
        root = name; sub(/\/.*/, "", root)
        if (root !~ "^(" guards ")$") continue
        if (!(name in bcounts)) continue  # new sub-benchmark: no baseline
        n = ccounts[name]; for (i = 1; i <= n; i++) a[i] = cvals[name, i]
        curmed = medianof(a, n)
        n = bcounts[name]; for (i = 1; i <= n; i++) a[i] = bvals[name, i]
        basemed = medianof(a, n)
        if (basemed <= 0) continue
        checked++
        ratio = curmed / basemed
        status = "ok"
        if (ratio > factor) { status = "REGRESSION"; bad++ }
        printf "%-70s %12.0f -> %12.0f ns/op  %5.2fx  %s\n", name, basemed, curmed, ratio, status
    }
    if (checked == 0) { print "no guard benchmarks matched between baseline and current run" > "/dev/stderr"; exit 2 }
    if (bad > 0) { printf "%d guard benchmark(s) regressed beyond %sx\n", bad, factor > "/dev/stderr"; exit 1 }
    print "all guard benchmarks within " factor "x of baseline"
}
'
