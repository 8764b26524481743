#!/usr/bin/env bash
# Builds the end-to-end benchmark from this checkout's sources and runs it.
# Usage, from the repository root:
#   bash e2ebench/run.sh --workload serve-zipf --seed 1 --seconds 20 --trace 0
# Everything the build writes (module cache, build cache, binary) stays under
# .bench_build/ in the checkout; run outputs go to .bench_out/.
set -euo pipefail

root="$(pwd)"
if [[ ! -f "$root/e2ebench/go.mod" ]]; then
	echo "e2ebench: run from the repository root" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gomodcache" "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOENV=off

(cd "$root/e2ebench" && go build -o "$build/e2ebench" .)
exec "$build/e2ebench" "$@"
