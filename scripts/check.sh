#!/bin/sh
# Tier-2 verification: gofmt cleanliness, static vetting, the full test
# suite under the race detector (the pipeline's concurrency tests are
# written to be meaningful only under -race), the robustness
# false-positive gate at its full 10k-connection scale, and a fuzz
# smoke pass. Run from the repo root:
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

echo "== go test -race ./... =="
go test -race ./...

# Re-run the robustness false-positive gate (10k benign connections
# per grade) focused and uncached, so a flake in the broad -race pass
# cannot mask it and its pass/fail is visible on its own line.
echo "== robustness false-positive gate (full scale) =="
go test ./internal/workload/ -run 'TestLossyGradeZeroFalsePositives' -count=1

# Aggregation parity gate: the full paper surface rendered via the
# legacy batch functions, the streaming pipeline at 1/4/16 workers,
# and a 5-PoP shard-and-merge (both merge orders) must be
# byte-identical. This is the tentpole invariant of the incremental
# aggregation subsystem; run it focused and uncached.
echo "== batch / streaming / PoP-merge parity gate =="
go test ./internal/analysis/ -run 'TestParityStreamingMatchesBatch|TestParityPoPMergeMatchesBatch' -count=1

# Pipeline metric sanity: after any run, delivered <= classified <=
# decoded and the dropped counter accounts exactly for the gap.
echo "== pipeline metrics monotonicity gate =="
go test ./internal/pipeline/ -run 'TestMetricsMonotonicity' -count=1

# DFA classifier differential gate: the compiled signature automaton
# must match the legacy multi-pass matcher Result-for-Result over the
# exhaustive event-sequence enumeration (lengths 0-6), the canonical
# signature table, and the fixture corpus. Run focused and uncached so
# its pass/fail is visible on its own line.
echo "== DFA classifier differential gate =="
go test ./internal/core/ -run 'TestDFAMatchesLegacy|TestDFASignatureTable' -count=1

# Decode scaling gate: the parallel decode path at 16 workers must
# ingest >=2x the records/sec of 1 worker. The test skips (loudly)
# on hosts with <4 CPUs — parallel speedup needs parallel hardware —
# so this line is a no-op on single-core CI but binding anywhere real.
echo "== decode parallel scaling gate =="
TAMPERDETECT_SCALING_GATE=1 go test ./internal/pipeline/ -run 'TestDecodeParallelScalingGate' -count=1 -v | grep -E 'SKIP|PASS|FAIL|ok ' || true
TAMPERDETECT_SCALING_GATE=1 go test ./internal/pipeline/ -run 'TestDecodeParallelScalingGate' -count=1 >/dev/null

# Sharded ingest parity gate: the segment-index multi-reader scan
# must deliver byte-identical aggregates to the single scanner at
# shards {1,2,4,8} x ordered {on,off}, survive a corrupt record with
# exactly the good-prefix union, and refuse a lying index (seam
# violations surface as ErrBadIndex; any sharded scan error at all
# triggers the tamperscan/paperbench discard-and-rescan). The
# end-to-end fallback contract — a bad index warns and never changes
# tamperscan's output — runs alongside.
echo "== sharded ingest parity + fallback gate =="
go test ./internal/pipeline/ -run 'TestShardedScanParity|TestShardedScanCorruptSegment|TestShardedScanLyingSeamOffset|TestShardedScanSeamUndercount' -count=1
go test ./cmd/tamperscan/ -run 'TestRunShardedParity|TestRunShardedFallsBack|TestRunShardedRescan' -count=1

# Sharded scaling gate: 8 shards must ingest >=2x the records/sec of
# 1 shard. Like the decode gate, it skips (loudly) on hosts with <4
# CPUs, so the line is a no-op on single-core CI but binding anywhere
# with real parallelism.
echo "== sharded ingest scaling gate =="
TAMPERDETECT_SCALING_GATE=1 go test ./internal/pipeline/ -run 'TestShardedIngestScalingGate' -count=1 -v | grep -E 'SKIP|PASS|FAIL|ok ' || true
TAMPERDETECT_SCALING_GATE=1 go test ./internal/pipeline/ -run 'TestShardedIngestScalingGate' -count=1 >/dev/null

# Raw-record scanner parity gate: the slab scanner front end must
# agree with the sequential Reader on every truncation and byte
# corruption of the fixture capture (same record counts, same error
# classes) — the invariant tamperscan's exit-3 behaviour rests on.
echo "== scanner/reader parity gate =="
go test ./internal/capture/ -run 'TestScannerMatchesReader|TestScannerTruncationParity|TestScannerCorruptionParity' -count=1

# Telemetry gate: run tamperscan with -metrics-addr over a fixture
# capture, scrape /metrics and /healthz live (the gate test fails on
# unparseable exposition or non-200 health), and verify the metrics
# server shuts down without leaking goroutines. The telemetry
# package's own shutdown-leak test runs alongside for the standalone
# server path.
echo "== telemetry exposition + shutdown gate =="
go test ./cmd/tamperscan/ -run 'TestMetricsAddrServesExposition' -count=1
go test ./internal/telemetry/ -run 'TestServerShutdownNoGoroutineLeak|TestServerEndpoints' -count=1

# Tracing gate: the span engine's whole contract, focused and
# uncached. The sampled span set must be deterministic across worker
# counts {1,4,16}; the hot path with sampling off must add zero
# allocations per record; a live /debug/tracez scrape racing a
# graceful shutdown must neither tear nor leak goroutines; the Chrome
# trace-event export written by tamperscan -trace-profile must pass
# the strict validator (valid JSON, known phases, per-thread spans
# strictly nested); and the cross-PoP e2e — tamperscan -push through
# a lossy chaos transport into a live popmerge — must land the
# merger's validate/merge spans in the pushing scan's trace.
echo "== tracing: determinism + hot-path allocs + tracez race gate =="
go test ./internal/pipeline/ -run 'TestTraceSampledSetDeterministic|TestTraceHotPathAllocationFree|TestTraceTracezScrapeDuringShutdown' -count=1
echo "== tracing: Chrome export validity + cross-PoP propagation gate =="
go test ./cmd/tamperscan/ -run 'TestRunTraceProfileExport|TestRunPushTraced|TestRunFlightDumpOnRescan' -count=1
go test ./internal/fleet/ -run 'TestFleetTraceContextPropagation|TestEnvelopeMixedFleetParity' -count=1

# Fleet chaos-parity gate: 20 in-process PoPs (19 concurrent + one
# straggler past the quorum close) push per-epoch snapshots through a
# fault-injecting transport — drops, duplicates, truncations, 5xxs —
# into a live popmerge handler under the "lossy" grade. The merged
# report must be byte-identical to the single-process run, and a
# re-push of an already-ACKed frame must change nothing. The snapshot
# round-trip/merge-equivalence and (pop, epoch) idempotency property
# tests run alongside, focused and uncached.
echo "== fleet chaos parity gate (20 PoPs, lossy) =="
go test ./internal/fleet/ -run 'TestChaosParity20PoPs/lossy|TestMergerIdempotent|TestMergerOrderAndDuplicationInvariance' -count=1
go test ./internal/analysis/ -run 'TestSnapshotRoundTripParity|TestSnapshotRestoreIsMerge' -count=1

# Scenario preset gate: every embedded preset must parse, validate,
# and assemble; the codec must reject unknown fields, out-of-range
# intensities, and malformed phase tables; and a preset expanded twice
# must yield identical spec streams. Run focused and uncached.
echo "== scenario preset validation gate =="
go test ./internal/workload/ -run 'TestPresetsValid|TestPresetRoundTrip|TestPresetSpecsDeterministic|TestScenarioFileRejections' -count=1

# Arrival trace record/replay gate: a recorded trace must replay to a
# byte-identical capture and refuse mismatched scenarios or corrupted
# frames.
echo "== arrival trace record/replay gate =="
go test ./internal/workload/ -run 'TestTraceRoundTrip|TestTraceRejects' -count=1
go test ./cmd/trafficgen/ -run 'TestRunTraceRecordReplay' -count=1

# Virtual-time determinism gate, at full paper scale: the 14-day-class
# iran2022 preset (408 virtual hours) must generate in under 60
# seconds of wall-clock, two same-seed runs at different worker counts
# must be byte-identical, and the capture timestamps must span the
# whole virtual window at 1-second granularity (the in-tree
# TestRunVirtualWindowCoverage / TestRunDeterministicAcrossWorkers
# cover the same contracts at test scale).
echo "== virtual-time determinism gate (full-scale iran2022) =="
go test ./cmd/trafficgen/ -run 'TestRunDeterministicAcrossWorkers|TestRunVirtualWindowCoverage' -count=1
det_dir="$(mktemp -d)"
go build -o "$det_dir/trafficgen" ./cmd/trafficgen
det_start="$(date +%s)"
"$det_dir/trafficgen" -scenario iran2022 -seed 2022 -workers 2 -o "$det_dir/a.tdcap" >/dev/null
det_end="$(date +%s)"
"$det_dir/trafficgen" -scenario iran2022 -seed 2022 -workers 8 -o "$det_dir/b.tdcap" >/dev/null
cmp "$det_dir/a.tdcap" "$det_dir/b.tdcap"
det_elapsed=$((det_end - det_start))
if [ "$det_elapsed" -ge 60 ]; then
	echo "FAIL: full-scale iran2022 generation took ${det_elapsed}s (acceptance bound: < 60s)" >&2
	rm -rf "$det_dir"
	exit 1
fi
echo "full-scale iran2022 generated in ${det_elapsed}s, runs byte-identical"
rm -rf "$det_dir"

# Smoke the perf harness: one short benchmark iteration, then assert
# the aggregator produced well-formed JSON. No timing assertions —
# shared CI machines make those flaky; the recorded trajectory is
# refreshed manually via `make bench`.
echo "== bench harness smoke =="
bench_out="$(mktemp)"
BENCH_COUNT=1 BENCH_TIME=1x BENCH_OUT="$bench_out" ./scripts/bench.sh >/dev/null
go run ./scripts/benchjson -validate "$bench_out"
rm -f "$bench_out"

echo "== fuzz smoke =="
./scripts/fuzz_smoke.sh

echo "tier-2 checks passed"
