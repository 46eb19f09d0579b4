#!/usr/bin/env bash
# CI benchmark-regression gate: reruns the snapshot micro-benchmarks and
# compares them against the latest committed BENCH_<N>.json. Fails when
# any benchmark regresses more than BENCH_TOLERANCE_PCT (default 25%) in
# ns/op, or when a benchmark whose baseline is 0 allocs/op starts
# allocating — the steady-state reduction/overlap paths are required to
# stay allocation-free.
#
# Snapshots record the CPU model they were measured on. When the current
# machine's CPU differs from the baseline's (the usual case on CI
# runners, whose hardware varies), absolute ns/op is not comparable at
# 25%, so the gate widens to BENCH_CROSS_TOLERANCE_PCT (default 300% —
# still catching order-of-magnitude regressions such as a disabled
# assembly kernel or an accidentally quadratic path); the allocs/op gate
# is machine-independent and stays exact either way.
#
# Benchmarks present in the run but absent from the baseline (new in
# this PR) are reported and skipped; they join the gate once a snapshot
# containing them is committed via scripts/bench.sh.
#
# Usage: scripts/bench_compare.sh [benchtime]   (default 1s)
set -euo pipefail
cd "$(dirname "$0")/.."

BENCHTIME="${1:-${BENCHTIME:-1s}}"
TOL="${BENCH_TOLERANCE_PCT:-25}"
CROSS_TOL="${BENCH_CROSS_TOLERANCE_PCT:-300}"

BASE="$(ls BENCH_*.json 2>/dev/null | sed -n 's/^BENCH_\([0-9]\+\)\.json$/\1 &/p' | sort -n | tail -1 | cut -d' ' -f2)"
if [ -z "$BASE" ]; then
    echo "bench_compare: no BENCH_<N>.json baseline found" >&2
    exit 1
fi

# PATTERN: the benchmark list bench.sh records the snapshots with.
. scripts/bench_patterns.sh

RAW="$(go test -run=NONE -bench="$PATTERN" -benchmem -benchtime="$BENCHTIME" .)"
echo "$RAW"
echo

# Same-machine means same CPU brand string AND same core count: virtual
# machines often report a generic brand string (e.g. "Intel(R) Xeon(R)
# Processor @ 2.70GHz") shared across genuinely different hardware, so
# the brand alone is not a sufficient key. Snapshots without an ncpu
# field are treated as cross-machine.
BASE_CPU="$(sed -n 's/^  "cpu": "\(.*\)",$/\1/p' "$BASE")"
BASE_NCPU="$(sed -n 's/^  "ncpu": \([0-9]\+\),$/\1/p' "$BASE")"
CUR_CPU="$(printf '%s\n' "$RAW" | sed -n 's/^cpu: //p' | head -1)"
CUR_NCPU="$(nproc)"
if [ -n "$BASE_CPU" ] && [ "$BASE_CPU" = "$CUR_CPU" ] && [ -n "$BASE_NCPU" ] && [ "$BASE_NCPU" = "$CUR_NCPU" ]; then
    echo "baseline: $BASE on this CPU  (ns/op tolerance +${TOL}%, allocs/op gate on 0-alloc benchmarks)"
else
    TOL="$CROSS_TOL"
    echo "baseline: $BASE recorded on '$BASE_CPU', running on '$CUR_CPU'"
    echo "cross-machine comparison: ns/op tolerance widened to +${TOL}%; allocs/op gate unchanged"
fi

awk -v tol="$TOL" '
NR == FNR {
    # Baseline pass: entries of the "benchmarks" array are single lines
    # of the form {"name": "...", "ns_per_op": N, ..., "allocs_per_op": A}.
    # Snapshots since PR 6 also hold a "benchmarks_gomaxprocs1" section
    # (the serial re-run of the parallel-sensitive benchmarks); only the
    # native-GOMAXPROCS section is the comparison baseline.
    if (match($0, /"benchmarks_gomaxprocs1": \[/)) { skip = 1 }
    else if (match($0, /"benchmarks": \[/))        { skip = 0 }
    if (skip) next
    if (match($0, /"name": "[^"]+"/)) {
        name = substr($0, RSTART + 9, RLENGTH - 10)
        if (match($0, /"ns_per_op": [0-9]+/))
            bns[name] = substr($0, RSTART + 13, RLENGTH - 13)
        if (match($0, /"allocs_per_op": [0-9]+/))
            bal[name] = substr($0, RSTART + 17, RLENGTH - 17)
    }
    next
}
/^Benchmark/ {
    name = $1; sub(/-[0-9]+$/, "", name)
    ns = ""; allocs = ""
    for (i = 2; i <= NF; i++) {
        if ($i == "ns/op")     ns     = $(i-1)
        if ($i == "allocs/op") allocs = $(i-1)
    }
    if (ns == "") next
    if (!(name in bns)) {
        printf "  NEW         %-55s %14.0f ns/op (no baseline, skipped)\n", name, ns
        next
    }
    base = bns[name] + 0
    ratio = (base > 0) ? ns / base : 1
    verdict = "ok"
    if (ns + 0 > base * (1 + tol / 100)) {
        verdict = "REGRESSION"
        fail = 1
    }
    printf "  %-11s %-55s %14.0f ns/op  vs %14.0f  (%.2fx)\n", verdict, name, ns, base, ratio
    if ((name in bal) && bal[name] + 0 == 0 && allocs != "" && allocs + 0 > 0) {
        printf "  ALLOCS      %-55s %s allocs/op, baseline 0\n", name, allocs
        fail = 1
    }
}
END {
    if (fail) {
        print ""
        print "bench_compare: FAILED (ns/op regression beyond tolerance or new allocations on a 0-alloc benchmark)"
        exit 1
    }
    print ""
    print "bench_compare: ok"
}
' "$BASE" <(printf '%s\n' "$RAW")

# Parallel rank execution gate. The simnet's ranks are real goroutines
# with per-rank sharded accounting, so a large collective must get
# faster with more Ps: on machines with >= 4 cores, the 256-rank Adasum
# benchmark at native GOMAXPROCS must beat its GOMAXPROCS=1 run by at
# least MIN_PARALLEL_SPEEDUP (default 2.0x). Skipped on narrower
# machines (including the 1-CPU snapshot recorder), so the gate bites
# exactly where it is meaningful: hosted CI runners.
MIN_SPEEDUP="${MIN_PARALLEL_SPEEDUP:-2.0}"
if [ "$(nproc)" -ge 4 ]; then
    echo
    echo "parallel speedup gate: BenchmarkAdasumRVH256Ranks, GOMAXPROCS=1 vs $(nproc)"
    PAR="$(go test -run=NONE -bench='BenchmarkAdasumRVH256Ranks' -benchtime="$BENCHTIME" .)"
    SER="$(GOMAXPROCS=1 go test -run=NONE -bench='BenchmarkAdasumRVH256Ranks' -benchtime="$BENCHTIME" .)"
    PAR_NS="$(printf '%s\n' "$PAR" | awk '/^BenchmarkAdasumRVH256Ranks/ { for (i=2;i<=NF;i++) if ($i=="ns/op") print $(i-1) }')"
    SER_NS="$(printf '%s\n' "$SER" | awk '/^BenchmarkAdasumRVH256Ranks/ { for (i=2;i<=NF;i++) if ($i=="ns/op") print $(i-1) }')"
    awk -v ser="$SER_NS" -v par="$PAR_NS" -v min="$MIN_SPEEDUP" 'BEGIN {
        s = ser / par
        printf "  serial %.0f ns/op, parallel %.0f ns/op: %.2fx speedup (floor %.1fx)\n", ser, par, s, min
        if (s < min) {
            print "bench_compare: FAILED (parallel rank execution below speedup floor)"
            exit 1
        }
    }'
else
    echo
    echo "parallel speedup gate: skipped ($(nproc) CPUs < 4)"
fi
