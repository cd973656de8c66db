#!/usr/bin/env bash
# Builds the end-to-end benchmark from source inside the checkout and runs
# it. Run from the repository root:
#
#   bash e2ebench/run.sh --workload fleet_fold --seed 1 --seconds 20 --trace 0
#
# Build outputs (binary, Go build cache, temp files) go to .bench_build/,
# and so does the go command's per-user state (its telemetry counters live
# under the user config directory), so a run writes only inside the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config" "$build/gopath"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local \
	XDG_CONFIG_HOME="$build/config" GOPATH="$build/gopath"
(cd "$root/e2ebench" && go build -o "$build/e2ebench" .)
exec "$build/e2ebench" --root "$root" "$@"
