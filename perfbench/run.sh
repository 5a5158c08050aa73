#!/usr/bin/env bash
# Builds the pinscope benchmark from source and runs it. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload study-fresh --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run leave behind goes to .bench_build/ in
# the current directory (binary, Go build cache, working files, result
# records). The last line of standard output is the result JSON.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

if ! (cd "$root/perfbench" && go build -o "$out/pinbench" .) >&2; then
	echo "perfbench: build failed (run from a pinscope checkout root)" >&2
	exit 2
fi
exec "$out/pinbench" "$@"
