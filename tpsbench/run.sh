#!/bin/sh
# Builds the TPS benchmark from the checkout's sources and runs it from
# the checkout root. Everything the build and the run leave behind goes
# under .bench_build/, or under $CARGO_TARGET_DIR when that is set.
# Usage:
#
#   sh tpsbench/run.sh --workload tcp_fanout --seed 1 --seconds 20 --trace 0
#   sh tpsbench/run.sh steady --runs 10
set -e
here=$(cd "$(dirname "$0")" && pwd)
root=$(cd "$here/.." && pwd)
dir=${CARGO_TARGET_DIR:-.bench_build}
case "$dir" in /*) out=$dir ;; *) out="$root/$dir" ;; esac
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export TPSBENCH_SCRATCH="$out/run"
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off
(cd "$here" && go build -o "$out/tpsbench" .)
cd "$root"
exec "$out/tpsbench" "$@"
