#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload durable-churn --seed 1 --seconds 25 --trace 0
#
# The Go build cache, module cache, temporary files and the go command's
# configuration (telemetry counters) stay inside .bench_build, so the run
# writes only inside the checkout.
set -eu
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
