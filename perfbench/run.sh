#!/usr/bin/env bash
# Builds the perfbench program from this source tree and runs it with the
# given arguments, from the root of the tree:
#
#   bash perfbench/run.sh --workload edit-serve --seed 3 --seconds 10 --trace 0
#
# The build and the runs write only under .bench_build/ at the root of
# the tree: the Go build cache, module and config directories are
# pointed there, and the toolchain is never fetched.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build/perfbench"
mkdir -p "$build/gocache" "$build/gopath" "$build/config" "$build/tmp"
(
	cd "$root/perfbench"
	export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
		XDG_CONFIG_HOME="$build/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off \
		GOFLAGS=-buildvcs=false GOWORK=off
	go build -o "$build/perfbench" .
)
cd "$root"
exec "$build/perfbench" --out "$build/out" "$@"
