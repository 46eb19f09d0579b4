#!/usr/bin/env bash
# Builds the benchmark command from this checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the repository root. Everything the build and the run
# write (Go build cache, binary, traces) stays under .bench_build/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$PWD/.bench_build/perfbench"
mkdir -p "$out"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly

(cd "$here/_src" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -trace-dir "$out/traces" "$@"
