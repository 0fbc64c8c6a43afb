#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it:
#
#   bash perfbench/run.sh --workload steady --seed 1 --seconds 10 --trace 0
#
# Run from the root of the repository. Every file the build writes (Go
# build cache, module cache, the binary, span files) stays under
# .bench_build/ in that root.
set -euo pipefail

root="$(pwd)"
if [[ ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local \
	GOENV=off GOTELEMETRY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -spans "$out/spans" "$@"
