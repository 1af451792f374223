# Verification tiers. Tier 1 is the fast always-green gate; tier 2
# adds go vet and the race detector over the full test suite
# (including the pipeline's concurrency tests) and is the bar for any
# PR touching concurrent code. fuzz-smoke gives every Fuzz target a
# short (~10s) mutation budget on top of its seeded corpus.

.PHONY: tier1 tier2 check fuzz-smoke bench-all

tier1:
	go build ./... && go test ./...

tier2:
	go vet ./... && go test -race ./...

fuzz-smoke:
	./scripts/fuzz_smoke.sh

check: tier1 tier2

# bench-all runs every go-test benchmark in the repo (paper tables,
# ablations, codec). The recorded performance evidence is the repo
# benchmark: bash benchmark/run.sh (see benchmark/README.md).
bench-all:
	go test -run=NONE -bench=. -benchmem ./...
