#!/usr/bin/env bash
# Builds rlmbench from this checkout and runs it with the given arguments:
#
#   bash bench/run.sh --workload tab2-relocate --seed 1 --seconds 13 --trace 0
#
# Run it from the repository root. The build cache, the binary and the
# workloads' journal files all stay under .bench_build/ there, and the
# build never reaches the network.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off

go -C bench build -o "$out/rlmbench" ./rlmbench
exec "$out/rlmbench" "$@"
