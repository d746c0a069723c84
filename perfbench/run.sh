#!/usr/bin/env bash
# Builds the benchmark harness from this checkout's sources and runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload fleet-analyze --seed 1 --seconds 25 --trace 0
#
# Everything the Go toolchain writes (build cache, binary) goes to
# .bench_build/ in the checkout. The harness module points at the
# repository with a relative replace directive, so the build fails,
# and no result is printed, when the repository's sources are absent.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
