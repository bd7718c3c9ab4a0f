#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root: bash perfbench/run.sh --workload queue_depth --seed 1 --seconds 10 --trace 0
# The Go build cache, temporary files and the binary stay in .bench_build/.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOWORK=off GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
(cd perfbench && go build -trimpath -o "$out/perfbench" .)
exec "$out/perfbench" --dir "$out" "$@"
