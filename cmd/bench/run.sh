#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the repository root:
#
#	bash cmd/bench/run.sh --workload field --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (Go build cache, temporary files,
# the binary, WAL directories, traces) stays under .bench_build in the
# current directory.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"

commit=unknown
if [ -d "$root/.git" ]; then
	commit=$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)
fi

# The build needs no network, no C toolchain and no state outside .bench_build.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOPATH="$out/gopath" \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache" \
	GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly CGO_ENABLED=0
go -C "$here" build -buildvcs=false -ldflags "-X main.commit=$commit" -o "$out/bench" .
exec "$out/bench" "$@"
