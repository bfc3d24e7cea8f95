#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the root of the repository:
#
#   bash bench/run.sh --workload elastic --seed 1 --seconds 30 --trace 0
#   bash bench/run.sh                      # every workload, one process each
#   bash bench/run.sh -compare base.jsonl head.jsonl
#
# The binary, the Go build cache and temporary files stay under
# .bench_build/ in the current directory; nothing is fetched.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off
(cd bench && go build -o "$out/megadc-bench" .)
exec "$out/megadc-bench" "$@"
