#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload sweep-small --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Every build artefact (binary, Go build
# cache, module cache, Go's own config and telemetry) stays under
# .bench_build/ in the current directory, and the toolchain is pinned to
# the local one with module downloads off, so the build never leaves the
# checkout. Without the repository's own sources next to perfbench/ the
# build fails and the script exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" HOME="$out/home"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS=-mod=mod GOWORK=off
export GOTELEMETRY=off CGO_ENABLED=0

# Build output goes to stderr: stdout carries only the benchmark's report.
go -C "$root/perfbench" build -o "$out/perfbench" . 1>&2
exec "$out/perfbench" "$@"
