#!/usr/bin/env bash
# Builds planardbench from the sources of the checkout it is run from and
# runs it with the given arguments, e.g.
#
#   bash planardbench/run.sh --workload cold-stacked --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Build products, the Go build cache and
# the traced runs' span files go to .bench_build/ there.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/home"
# Keep every file the toolchain writes inside the checkout.
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOENV=off GOFLAGS= GOTOOLCHAIN=local
go build -C "$root/planardbench" -o "$out/planardbench" .
exec "$out/planardbench" "$@"
