#!/usr/bin/env bash
# Builds the station benchmark from the checkout's sources and runs one
# workload. Run it from the repository root:
#
#   bash stationbench/run.sh --workload ward-host --seed 1 --seconds 10 --trace 0
#
# Every build artefact (Go build cache, temp files, the binary, span dumps)
# stays under .bench_build/ in the current directory.
set -euo pipefail

root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$root/.bench_build/stationbench"
mkdir -p "$out/tmp" "$out/config"

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" # the go command's config and telemetry files
export GOTOOLCHAIN=local
export GOWORK=off
export GOFLAGS=-mod=readonly

(cd "$here" && go build -trimpath -o "$out/stationbench" .) >&2
exec "$out/stationbench" "$@"
