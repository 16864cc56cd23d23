#!/usr/bin/env bash
# Builds the benchmark and mixpd from source and runs one workload:
#
#   bash perfbench/run.sh --workload kernel-ladder3 --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache and
# each run's scratch directory live under .bench_build/ in that root.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin"
# Keep every Go tool write inside the checkout, and never fetch anything.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go -C perfbench build -o "$out/bin/perfbench.$$" ./cmd/perfbench >&2
go -C perfbench build -o "$out/bin/mixpd.$$" repro/cmd/mixpd >&2
mv "$out/bin/perfbench.$$" "$out/bin/perfbench"
mv "$out/bin/mixpd.$$" "$out/bin/mixpd"

exec "$out/bin/perfbench" --mixpd "$out/bin/mixpd" --workdir "$out/work" "$@"
