#!/usr/bin/env bash
# Builds the benchmark and examples/server from the checkout it is run in,
# then runs the benchmark with the given arguments. Run it from the root of
# the checkout:
#
#   bash benchmark/run.sh --workload score --seed 1 --seconds 10 --trace 0
#   bash benchmark/run.sh --repeat 10 --workload all --seconds 10
#   bash benchmark/run.sh --reference
#
# Everything it builds or writes stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
# The module needs nothing outside the standard library, so every cache,
# temporary and configuration directory of the go command can live here.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
# With telemetry on (the default in a fresh configuration directory), the go
# command forks a detached telemetry process that outlives it; "go telemetry
# off" is the one go command that starts none, and turns it off for the rest.
go telemetry off

go build -o "$out/bin/apds-server" ./examples/server
(cd benchmark && go build -o "$out/bin/apds-benchmark" .)
exec "$out/bin/apds-benchmark" --server "$out/bin/apds-server" --scratch "$out" "$@"
