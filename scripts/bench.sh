#!/usr/bin/env bash
# Runs the kernel/collective micro-benchmarks and records them as a JSON
# perf snapshot so the repo's performance trajectory is tracked PR over
# PR. The default output is the next free BENCH_<N>.json, so each run
# appends to the trajectory instead of overwriting an earlier snapshot.
#
# Snapshots hold two sections: "benchmarks" is the full suite at the
# machine's native GOMAXPROCS, and "benchmarks_gomaxprocs1" re-runs the
# parallel-sensitive collective benchmarks pinned to one P. The pair
# makes the simnet's parallel rank execution visible in the trajectory
# (native/serial ns/op ratio) and lets a 1-CPU recording machine still
# produce a serial baseline a multi-core CI runner can be gated against.
#
# Usage: scripts/bench.sh [output.json] [benchtime]
set -euo pipefail
cd "$(dirname "$0")/.."

next_snapshot() {
    local n=1
    while [ -e "BENCH_${n}.json" ]; do n=$((n + 1)); done
    echo "BENCH_${n}.json"
}

OUT="${1:-$(next_snapshot)}"
BENCHTIME="${2:-2s}"
# PR number is derived from the output filename (BENCH_<N>.json).
PR="$(basename "$OUT" | sed -n 's/^BENCH_\([0-9]\+\)\.json$/\1/p')"
PR="${PR:-0}"
# PATTERN and PARALLEL_PATTERN: the benchmark lists bench_compare.sh
# gates CI on.
. scripts/bench_patterns.sh

RAW="$(go test -run=NONE -bench="$PATTERN" -benchmem -benchtime="$BENCHTIME" .)"
echo "$RAW"
echo "--- GOMAXPROCS=1 section ---"
RAW1="$(GOMAXPROCS=1 go test -run=NONE -bench="$PARALLEL_PATTERN" -benchmem -benchtime="$BENCHTIME" .)"
echo "$RAW1"

# to_entries converts `go test -bench` output lines into JSON array
# entries (one per line, no trailing comma handling — done by the
# caller via sed).
to_entries() {
    awk '
    /^Benchmark/ {
        name = $1; sub(/-[0-9]+$/, "", name)
        ns = ""; mbs = ""; bytes = ""; allocs = ""
        for (i = 2; i <= NF; i++) {
            if ($i == "ns/op")     ns     = $(i-1)
            if ($i == "MB/s")      mbs    = $(i-1)
            if ($i == "B/op")      bytes  = $(i-1)
            if ($i == "allocs/op") allocs = $(i-1)
        }
        if (ns == "") next
        line = sprintf("    {\"name\": \"%s\", \"ns_per_op\": %s", name, ns)
        if (mbs != "")    line = line sprintf(", \"mb_per_s\": %s", mbs)
        if (bytes != "")  line = line sprintf(", \"bytes_per_op\": %s", bytes)
        if (allocs != "") line = line sprintf(", \"allocs_per_op\": %s", allocs)
        print line "},"
    }'
}

strip_last_comma() { sed '$ s/},$/}/'; }

CPU="$(printf '%s\n' "$RAW" | sed -n 's/^cpu: //p' | head -1)"

{
    printf '{\n'
    printf '  "pr": %s,\n' "$PR"
    printf '  "date": "%s",\n' "$(date -u +%Y-%m-%dT%H:%M:%SZ)"
    printf '  "go": "%s",\n' "$(go version | awk '{print $3}')"
    printf '  "cpu": "%s",\n' "$CPU"
    printf '  "ncpu": %s,\n' "$(nproc)"
    printf '  "note": "Seed reference below was measured once at the seed commit (plus go.mod, which the seed lacked) on the PR-1 machine; the *Unfused/separate benchmark variants reproduce the seed code paths for like-for-like comparison on any machine. Caveat: the seed RVH/Ring collective benchmarks constructed the 16-rank World inside the timed loop, while the PR-1+ harness hoists that one-time setup, so the collective seed ratios mix harness and code improvements (the kernel benchmarks are like-for-like).",\n'
    printf '  "seed_reference": {\n'
    printf '    "BenchmarkTensorDot1M": {"ns_per_op": 1004227},\n'
    printf '    "BenchmarkAdasumCombine1M": {"ns_per_op": 3181865, "allocs_per_op": 0},\n'
    printf '    "BenchmarkAdasumTreeReduce16x64K": {"ns_per_op": 9386865, "bytes_per_op": 4195048, "allocs_per_op": 21},\n'
    printf '    "BenchmarkAdasumRVH16Ranks": {"ns_per_op": 42356343, "bytes_per_op": 19699632, "allocs_per_op": 1014},\n'
    printf '    "BenchmarkRingAllreduce16Ranks": {"ns_per_op": 48467553, "bytes_per_op": 17732224, "allocs_per_op": 1094}\n'
    printf '  },\n'
    printf '  "benchmarks_gomaxprocs1": [\n'
    printf '%s\n' "$RAW1" | to_entries | strip_last_comma
    printf '  ],\n'
    printf '  "benchmarks": [\n'
    printf '%s\n' "$RAW" | to_entries | strip_last_comma
    printf '  ]\n}\n'
} > "$OUT"

echo "wrote $OUT"
