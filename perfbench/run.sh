#!/usr/bin/env bash
# Builds perfbench from the checkout's sources into .bench_build/ and runs it
# from the checkout root, passing every argument through:
#
#   bash perfbench/run.sh --workload batch-http-2d --seed 1 --seconds 25 --trace 0
#
# Everything the go command writes (build cache, temporary files, GOPATH, its
# config and telemetry directory) stays under .bench_build/ as well; the
# module needs nothing from the network.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
