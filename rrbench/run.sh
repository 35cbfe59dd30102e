#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the checkout root:
#
#   bash rrbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Build outputs, the Go build cache, generated inputs and reference digests
# all stay under the work directory (CARGO_TARGET_DIR, default .bench_build).
set -euo pipefail
work="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$work/tmp"
work="$(cd "$work" && pwd)"
export GOCACHE="$work/gocache" GOPATH="$work/gopath" GOTMPDIR="$work/tmp" \
	GOENV=off GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off
(cd "$(dirname "$0")" && go build -o "$work/bin/rrbench" .)
exec "$work/bin/rrbench" -work "$work" "$@"
