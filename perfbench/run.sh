#!/usr/bin/env bash
# Builds perfbench from the sources of the checkout it is run from, then
# runs it with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload instr_sweep --seed 1 --seconds 30 --trace 0
#
# All Go build state (cache, temporaries, the binary) stays under
# .bench_build in the checkout, and nothing is fetched from the network.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/bin"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	GOMODCACHE="$build/gopath/pkg/mod" XDG_CONFIG_HOME="$build/config" \
	GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go build -C "$root/perfbench" -o "$build/bin/perfbench" .
exec "$build/bin/perfbench" "$@"
