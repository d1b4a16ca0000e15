#!/usr/bin/env bash
# Builds the COLD benchmark from the sources of the checkout it sits in and
# runs one workload:
#
#   bash coldperf/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build and the run write stays under <checkout>/.bench_build:
# the Go build cache and temporary files, the Go tool's own config and
# telemetry directory, the binary, the run's scratch data and the traces.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" XDG_CONFIG_HOME="$out/config" \
	GOPATH="$out/gopath" GOWORK=off GOTOOLCHAIN=local GOFLAGS=-mod=mod
(cd "$root/coldperf" && go build -o "$out/coldperf" .)
exec "$out/coldperf" -root "$root" "$@"
