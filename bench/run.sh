#!/bin/sh
# Builds the benchmark from source and runs it with the given flags.
# Run from the repository root:
#
#   bash bench/run.sh                      # every workload, one child process each
#   bash bench/run.sh -trace               # the traced run: per-layer metrics, Chrome traces
#   bash bench/run.sh --workload grid-shared --seed 3 --seconds 10 --trace 0
#
# Everything the build and the run leave behind goes to .bench_build/ in
# the current directory: the Go build cache, the binary, scratch files and
# Chrome traces. Apart from the Go toolchain, nothing outside the
# repository is read, and nothing outside .bench_build/ is written.
set -eu
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOPATH="$out/go-path"
export XDG_CONFIG_HOME="$out/config" TMPDIR="$out/tmp" GOTOOLCHAIN=local GOTELEMETRY=off
(cd bench && go build -o "$out/bench" .)
exec "$out/bench" "$@"
