#!/usr/bin/env bash
# Builds the loop benchmark from this checkout's sources and runs it with
# the given arguments, e.g.
#
#   bash loopbench/run.sh --workload dev-exhaust --seed 1 --seconds 15 --trace 0
#
# Everything the build writes (compiler cache, temporary files, the go
# command's config and telemetry, the binary) stays under .bench_build at
# the checkout root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off
(cd "$root/loopbench" && go build -o "$out/loopbench" .)
exec "$out/loopbench" "$@"
