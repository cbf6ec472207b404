#!/usr/bin/env bash
# Builds the perfbench binary from this checkout's source and runs it:
#
#   bash perfbench/run.sh --workload cold-sweep --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Every file the build and the run
# write stays under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config"
export GOTOOLCHAIN=local GOPROXY=off GOENV=off CGO_ENABLED=0 GOTELEMETRY=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --workdir "$out" "$@"
