#!/usr/bin/env bash
# Builds tsoper-bench from the checkout's sources and runs it with the given
# arguments, from the checkout root:
#
#   bash cmd/tsoper-bench/run.sh -seed 42 -out report.json
#   bash cmd/tsoper-bench/run.sh --workload litmus_gate --seed 7 --seconds 10 --trace 0
#
# The binary and every Go cache live under $CARGO_TARGET_DIR (default
# .bench_build), so a run reads and writes nothing outside the checkout and
# never reaches the network.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
cd "$root"
build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build"
build="$(cd "$build" && pwd)"

export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOPATH="$build/go-path"
export GOTMPDIR="$build/go-tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off CGO_ENABLED=0
mkdir -p "$GOTMPDIR"

go -C cmd/tsoper-bench build -o "$build/tsoper-bench" .
exec "$build/tsoper-bench" "$@"
