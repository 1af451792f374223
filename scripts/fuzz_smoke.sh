#!/bin/sh
# Fuzz smoke pass: run every Fuzz target briefly (~10s each) so the
# corpus-seeded paths and a short burst of mutations stay green in CI
# without a dedicated fuzzing job. Run from the repo root:
#
#	./scripts/fuzz_smoke.sh [fuzztime]
#
# The optional argument overrides the per-target fuzz budget
# (go test -fuzztime syntax, default 10s).
set -eu

fuzztime="${1:-10s}"

# Each entry is "package:FuzzTarget". go test allows only one fuzz
# target per invocation, so they run sequentially.
targets="
./internal/capture:FuzzCodecReader
./internal/capture:FuzzRecordScanner
./internal/capture:FuzzSegmentIndex
./internal/core:FuzzDFAClassifierParity
./internal/pcap:FuzzReader
./internal/packet:FuzzSummaryParse
./internal/packet:FuzzDecrementTTL
./internal/packet:FuzzOnesSum
./internal/tlswire:FuzzParseSNI
./internal/tlswire:FuzzBuildParse
./internal/httpwire:FuzzParseRequest
./internal/analysis:FuzzMergeAssociativity
./internal/analysis:FuzzSnapshotCodec
./internal/analysis:FuzzOverlapAggOracle
./internal/fleet:FuzzEnvelope
./internal/fleet:FuzzTraceEnvelope
./internal/telemetry:FuzzHistogramMergeAssociativity
"

for t in $targets; do
	pkg="${t%%:*}"
	fn="${t##*:}"
	echo "== $pkg $fn ($fuzztime) =="
	go test "$pkg" -run="^$fn\$" -fuzz="^$fn\$" -fuzztime="$fuzztime"
done

echo "fuzz smoke passed"
