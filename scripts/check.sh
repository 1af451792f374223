#!/bin/sh
# Tier-2 verification: gofmt cleanliness, static vetting, the full test
# suite once under the race detector and uncached (every parity,
# fallback, telemetry, tracing, fleet-chaos and preset gate is a test in
# that run), the two scaling gates, the full-scale virtual-time
# determinism bound, one benchmark ledger run, and a fuzz smoke pass.
# Run from the repo root:
#
#	./scripts/check.sh
set -eu

echo "== gofmt -l . =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt: these files need formatting:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== go vet ./... =="
go vet ./...

echo "== go test -race -count=1 ./... =="
go test -race -count=1 ./...

# Scaling gates: 16 workers (decode) and 8 shards (sharded ingest) must
# each ingest >=2x the records/sec of 1. Both tests skip (loudly) on
# hosts with <4 CPUs — parallel speedup needs parallel hardware — so
# these lines are no-ops on small CI but binding anywhere real (-v
# shows which).
echo "== decode + sharded ingest scaling gates =="
TAMPERDETECT_SCALING_GATE=1 go test ./internal/pipeline/ -run 'TestDecodeParallelScalingGate' -count=1 -v
TAMPERDETECT_SCALING_GATE=1 go test ./internal/pipeline/ -run 'TestShardedIngestScalingGate' -count=1 -v

# Virtual-time determinism gate, at full paper scale: the 14-day-class
# iran2022 preset (408 virtual hours) must generate in under 60
# seconds of wall-clock, and two same-seed runs at different worker
# counts must be byte-identical.
echo "== virtual-time determinism gate (full-scale iran2022) =="
det_dir="$(mktemp -d)"
go build -o "$det_dir/trafficgen" ./cmd/trafficgen
det_start="$(date +%s)"
"$det_dir/trafficgen" -scenario iran2022 -seed 2022 -workers 2 -o "$det_dir/a.tdcap" >/dev/null
det_end="$(date +%s)"
"$det_dir/trafficgen" -scenario iran2022 -seed 2022 -workers 8 -o "$det_dir/b.tdcap" >/dev/null
cmp "$det_dir/a.tdcap" "$det_dir/b.tdcap"
det_elapsed=$((det_end - det_start))
rm -rf "$det_dir"
if [ "$det_elapsed" -ge 60 ]; then
	echo "FAIL: full-scale iran2022 generation took ${det_elapsed}s (acceptance bound: < 60s)" >&2
	exit 1
fi
echo "full-scale iran2022 generated in ${det_elapsed}s, runs byte-identical"

# The repo benchmark's per-layer ledger must run and reconcile on the
# read path (exit 0); timings are not asserted here — see
# benchmark/README.md for how gains and regressions are judged.
echo "== benchmark ledger run (scan-verdicts, --trace 1) =="
bash benchmark/run.sh --workload scan-verdicts --seed 1 --seconds 5 --trace 1 >/dev/null

echo "== fuzz smoke =="
./scripts/fuzz_smoke.sh

echo "tier-2 checks passed"
