#!/usr/bin/env bash
# The command BENCHMARK.json names. It builds the benchmark binary inside
# the checkout, keeping Go's build cache there too so that nothing is
# written outside it, and runs it with the driver's arguments. Without the
# repository's sources around it (no go.mod) it fails before printing
# anything.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [ ! -f go.mod ]; then
	echo "benchmark: no go.mod in $root: run from a checkout of the repository" >&2
	exit 1
fi
mkdir -p .bench_build/bin
export GOCACHE="$root/.bench_build/gocache"
export GOFLAGS="${GOFLAGS:+$GOFLAGS }-buildvcs=false"
: "${HOME:=$root/.bench_build/home}"
export HOME
go build -o .bench_build/bin/benchmark ./benchmark
exec .bench_build/bin/benchmark "$@"
