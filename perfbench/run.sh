#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload dax-miss --seed 1 --seconds 10 --trace 0
#
# Build cache, binary and CPU profiles stay under .bench_build/perfbench.
set -euo pipefail
work="$(pwd)/.bench_build/perfbench"
mkdir -p "$work/tmp"
export GOCACHE="$work/gocache" GOPATH="$work/gopath" GOTMPDIR="$work/tmp" \
	GOTOOLCHAIN=local GOFLAGS= PPROF_TMPDIR="$work/tmp"
(cd perfbench && go build -o "$work/perfbench" .) >&2
exec "$work/perfbench" --work "$work" "$@"
