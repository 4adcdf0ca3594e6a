#!/usr/bin/env bash
# Builds the sweep and simd CLIs and the perfbench harness from source, then
# runs the harness with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload event-driven --seed 1 --seconds 30 --trace 0
#
# Everything the build and the runs write stays under .bench_build/ in the
# repository root, the Go build cache included.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/sweep || ! -d cmd/simd || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (go.mod, cmd/sweep, cmd/simd not found)" >&2
	exit 2
fi

# The Go toolchain's standard install location, for shells whose PATH lacks it.
command -v go >/dev/null || PATH="$PATH:/usr/local/go/bin"

out="$PWD/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache" \
	GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off

go build -o "$out/bin/" ./cmd/sweep ./cmd/simd
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" "$@"
