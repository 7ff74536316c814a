#!/usr/bin/env bash
# Builds the end-to-end benchmark from the surrounding checkout and runs it.
# Usage, from the checkout root:
#   bash e2ebench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Build outputs, the Go build cache and trace dumps stay under .bench_build/.
set -euo pipefail
root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS= XDG_CONFIG_HOME="$out/config"
go -C "$root/e2ebench" build -o "$out/e2ebench" .
export E2EBENCH_OUT="$out"
exec "$out/e2ebench" "$@"
