#!/usr/bin/env bash
# Builds the wall-clock benchmark from source and runs it. Run it from
# the root of a checkout; every argument is passed to the benchmark:
#
#   bash wallbench/run.sh --workload browse --seed 1 --seconds 20 --trace 0
#
# The build cache, the binary, scratch snapshots and span files all go
# under .bench_build/wallbench in the checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(pwd)/.bench_build/wallbench"
mkdir -p "$out"

# Keep the Go toolchain's caches and settings inside the checkout, and
# never let it fetch a different toolchain.
(
	cd "$here"
	GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
		GOTOOLCHAIN=local GOWORK=off GOFLAGS= \
		go build -o "$out/wallbench" .
)
exec "$out/wallbench" --out "$out" "$@"
