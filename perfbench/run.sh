#!/usr/bin/env bash
# Builds the benchmark and runs it. Run from the repository root:
#   bash perfbench/run.sh --workload tpch-closed --seed 1 --seconds 30 --trace 0
# Build outputs, the Go build cache, spans and profiles all stay under
# $CARGO_TARGET_DIR (default .bench_build) in the current directory.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build"
build="$(cd "$build" && pwd)"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath" "$build/perfbench"

export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOENV=off GOTELEMETRY=off
(cd "$here" && go build -o "$build/perfbench/perfbench" .)

exec "$build/perfbench/perfbench" --digests "$here/digests.json" --out "$build/perfbench" "$@"
