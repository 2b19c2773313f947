#!/usr/bin/env bash
# Builds the harness from the checkout it is run in and runs it with the
# given arguments. Everything the build writes stays inside the checkout,
# under .bench_build (the Go build cache included).
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache"
go build -o "$out/benchmark" ./benchmark
# One P unless the caller says otherwise: on the two-vCPU sizing host the
# second core comes and goes for minutes at a time, and round times at
# GOMAXPROCS=2 swing by a fifth between identical runs. With one P wall
# clock is CPU time, and reports are reproducible per seed.
export GOMAXPROCS="${GOMAXPROCS:-1}"
exec "$out/benchmark" "$@"
