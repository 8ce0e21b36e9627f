#!/usr/bin/env bash
# Builds the Aquila benchmark from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload corpus --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write goes under .bench_build/ in the
# current directory: the Go build cache, the binary and span files.
set -euo pipefail

root="$(pwd)"
src="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/home"

# The Go command keeps caches, settings and telemetry under GOPATH and the
# home directory; point all of them inside the build directory.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" GOTMPDIR="$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOENV=off

# VCS stamping records the git commit; outside a git checkout there is none.
(cd "$src" && { go build -o "$out/perfbench" . 2>/dev/null || go build -buildvcs=false -o "$out/perfbench" .; })
exec "$out/perfbench" --out "$out" "$@"
