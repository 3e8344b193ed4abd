#!/usr/bin/env bash
# Builds the APEX-Go benchmark from source and runs it from the root of
# the checkout. Every build artifact (the Go build cache included) goes
# under .bench_build/, so nothing is written outside the checkout.
#
#   bash apexbench/run.sh --workload suite_cold --seed 1 --seconds 20 --trace 0
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
mkdir -p .bench_build/tmp
export GOCACHE="$root/.bench_build/gocache"
export GOTMPDIR="$root/.bench_build/tmp"
export GOTELEMETRYDIR="$root/.bench_build/telemetry"
export GOFLAGS=
export GOPROXY=off
export GOTOOLCHAIN=local
(cd apexbench && go build -o ../.bench_build/apexbench .)
exec .bench_build/apexbench "$@"
