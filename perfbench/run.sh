#!/usr/bin/env bash
# Builds the benchmark and the efesd daemon from the source tree it is
# run in, then runs the benchmark with the given arguments. Run it from
# the repository root:
#
#   bash perfbench/run.sh --workload paper-scale --seed 7 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the current directory: the Go build cache, temporary files and the
# daemon's cache directory.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/efesd" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of an efes source tree" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-mod=mod GOTELEMETRY=off

go build -o "$out/bin/efesd" ./cmd/efesd
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -efesd "$out/bin/efesd" -work "$out/perfbench" "$@"
