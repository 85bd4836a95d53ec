#!/usr/bin/env bash
# Builds the benchmark and the pmaxentd daemon from this checkout, then
# runs one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload sweep --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache and the run's scratch files stay in
# the build directory ($CARGO_TARGET_DIR, default .bench_build) inside the
# checkout.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d cmd/pmaxentd ]; then
	echo "perfbench: run from the repository root" >&2
	exit 1
fi
root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/tmp"

export GOCACHE=$build/gocache
export GOPATH=$build/gopath
export GOMODCACHE=$build/gopath/pkg/mod
export GOTMPDIR=$build/tmp
export TMPDIR=$build/tmp
export XDG_CONFIG_HOME=$build/config
export GOENV=off
export GOTOOLCHAIN=local
export GOFLAGS=
export CGO_ENABLED=0

go build -o "$build/pmaxentd" ./cmd/pmaxentd
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" -root "$root" -build "$build" "$@"
