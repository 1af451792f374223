package pipeline

// Tests for the shard-parallel ingest path (ShardedScan): byte parity
// with Stream at every shard count — the correctness gate for the
// whole indexed-segment design — plus hostile-index containment,
// partial-results semantics, goroutine hygiene, the worker-index
// contract shared observers rely on, and the shard-scaling gate.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"tamperdetect/internal/capture"
	"tamperdetect/internal/core"
	"tamperdetect/internal/workload"
)

// encodeIndexed writes conns as an indexed capture (footer appended on
// Flush) at the given interval.
func encodeIndexed(t testing.TB, conns []*capture.Connection, interval int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := capture.NewWriter(&buf)
	if err := w.EnableIndex(interval); err != nil {
		t.Fatal(err)
	}
	for _, c := range conns {
		if err := w.Write(c); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// shardedSource loads data's footer index and opens a fresh
// SegmentedSource over it. Sources are stateful (each scanner is
// consumed once), so every run gets its own.
func shardedSource(t testing.TB, data []byte, shards int) *capture.SegmentedSource {
	t.Helper()
	idx, err := capture.ReadFooterIndex(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	src, err := capture.NewSegmentedSource(bytes.NewReader(data), int64(len(data)), idx, shards)
	if err != nil {
		t.Fatal(err)
	}
	return src
}

// collectSharded runs ShardedScan and returns each delivered Result by
// record index plus a delivered mask — sharded runs that hit a corrupt
// segment legitimately deliver with gaps, so absence is the caller's
// call to judge.
func collectSharded(t *testing.T, src *capture.SegmentedSource, cfg Config, n int) ([]core.Result, []bool, Counts, error) {
	t.Helper()
	out := make([]core.Result, n)
	seen := make([]bool, n)
	counts, err := ShardedScan(context.Background(), src, cfg, func(it Item) error {
		if it.Err != nil {
			return fmt.Errorf("item %d: %w", it.Index, it.Err)
		}
		if it.Index < 0 || it.Index >= n {
			return fmt.Errorf("item index %d out of range", it.Index)
		}
		if seen[it.Index] {
			return fmt.Errorf("item %d delivered twice", it.Index)
		}
		seen[it.Index] = true
		out[it.Index] = it.Res
		return nil
	})
	return out, seen, counts, err
}

// TestShardedScanParity is THE correctness gate for sharded ingest: a
// fixed-seed 60k-connection scenario must yield, at shards 1, 2, 4,
// and 8, ordered and unordered, the exact Result-for-Result output of
// the single-scanner Stream path (itself pinned to the batch
// reference in scan_test.go).
func TestShardedScanParity(t *testing.T) {
	total := e2eTotal(t)
	s, err := workload.BuildScenario("shard-parity", total, 72, 4242)
	if err != nil {
		t.Fatal(err)
	}
	conns := s.Run(0)
	data := encodeIndexed(t, conns, 64)

	// Reference: the single-scanner parallel path over the same bytes.
	want, _, wantCounts, err := func() ([]core.Result, []bool, Counts, error) {
		out := make([]core.Result, len(conns))
		seen := make([]bool, len(conns))
		counts, err := Stream(context.Background(), bytes.NewReader(data),
			Config{Workers: 4, Ordered: true, BatchSize: 64},
			func(it Item) error {
				seen[it.Index] = true
				out[it.Index] = it.Res
				return nil
			})
		return out, seen, counts, err
	}()
	if err != nil {
		t.Fatalf("Stream reference: %v", err)
	}
	if wantCounts.Decoded != int64(len(conns)) {
		t.Fatalf("reference decoded %d of %d", wantCounts.Decoded, len(conns))
	}

	for _, shards := range []int{1, 2, 4, 8} {
		for _, ordered := range []bool{true, false} {
			t.Run(fmt.Sprintf("shards=%d/ordered=%v", shards, ordered), func(t *testing.T) {
				src := shardedSource(t, data, shards)
				got, seen, counts, err := collectSharded(t, src,
					Config{Workers: shards, Ordered: ordered, BatchSize: 64}, len(conns))
				if err != nil {
					t.Fatal(err)
				}
				if counts.Decoded != int64(len(conns)) || counts.Delivered != int64(len(conns)) {
					t.Fatalf("counts %+v, want %d decoded and delivered", counts, len(conns))
				}
				for i := range want {
					if !seen[i] {
						t.Fatalf("record %d never delivered", i)
					}
					if got[i] != want[i] {
						t.Fatalf("record %d: got %+v, want %+v", i, got[i], want[i])
					}
				}
				if br := src.BytesRead(); br != src.Index().DataSize-8 {
					t.Fatalf("aggregate BytesRead %d, want the full %d-byte record area",
						br, src.Index().DataSize-8)
				}
			})
		}
	}
}

// TestEntryPointsAgree drives one capture through all three front ends
// of the engine — Run over a ReaderSource, Stream, and ShardedScan at 1
// and 3 shards — and requires the identical (Index, Res) sequence
// (sorted by index when unordered) and identical Counts from each, with
// no goroutine left behind.
func TestEntryPointsAgree(t *testing.T) {
	defer checkGoroutines(t)()
	const n = 1000
	data := encodeIndexed(t, testConns(n), 16)
	type verdict struct {
		Index int
		Res   core.Result
	}
	entries := []struct {
		name string
		run  func(Config, Sink) (Counts, error)
	}{
		{"Run", func(cfg Config, sink Sink) (Counts, error) {
			return Run(context.Background(), NewReaderSource(bytes.NewReader(data)), cfg, sink)
		}},
		{"Stream", func(cfg Config, sink Sink) (Counts, error) {
			return Stream(context.Background(), bytes.NewReader(data), cfg, sink)
		}},
		{"ShardedScan/1", func(cfg Config, sink Sink) (Counts, error) {
			return ShardedScan(context.Background(), shardedSource(t, data, 1), cfg, sink)
		}},
		{"ShardedScan/3", func(cfg Config, sink Sink) (Counts, error) {
			return ShardedScan(context.Background(), shardedSource(t, data, 3), cfg, sink)
		}},
	}
	var want []verdict
	var wantCounts Counts
	for _, ordered := range []bool{true, false} {
		for _, workers := range []int{1, 4} {
			for _, e := range entries {
				var got []verdict
				counts, err := e.run(Config{Workers: workers, Ordered: ordered, BatchSize: 16},
					func(it Item) error {
						got = append(got, verdict{it.Index, it.Res})
						return it.Err
					})
				if err != nil {
					t.Fatalf("%s ordered=%v workers=%d: %v", e.name, ordered, workers, err)
				}
				if !ordered {
					slices.SortFunc(got, func(a, b verdict) int { return a.Index - b.Index })
				}
				if want == nil {
					if len(got) != n {
						t.Fatalf("reference run delivered %d of %d records", len(got), n)
					}
					want, wantCounts = got, counts
					continue
				}
				if !slices.Equal(got, want) {
					t.Errorf("%s ordered=%v workers=%d: delivered sequence differs from the reference", e.name, ordered, workers)
				}
				if counts != wantCounts {
					t.Errorf("%s ordered=%v workers=%d: counts %+v, want %+v", e.name, ordered, workers, counts, wantCounts)
				}
			}
		}
	}
}

// TestShardedScanOrderedDelivery pins strict global index order across
// segment seams under small batches and many shards.
func TestShardedScanOrderedDelivery(t *testing.T) {
	data := encodeIndexed(t, testConns(500), 16)
	src := shardedSource(t, data, 4)
	next := 0
	_, err := ShardedScan(context.Background(), src,
		Config{Workers: 8, BatchSize: 3, Depth: 16, Ordered: true},
		func(it Item) error {
			if it.Index != next {
				return fmt.Errorf("index %d delivered, want %d", it.Index, next)
			}
			next++
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if next != 500 {
		t.Fatalf("delivered %d of 500", next)
	}
}

// TestShardedScanObserverContract pins the worker-index contract that
// shared per-worker observers (analysis.Sharded) size themselves by:
// every Observe call carries a worker index in [0, ShardWorkers(w, k)),
// no two shards share an index, and the per-worker tallies sum to the
// record count.
func TestShardedScanObserverContract(t *testing.T) {
	conns := testConns(2000)
	data := encodeIndexed(t, conns, 32)
	for _, tc := range []struct{ workers, shards int }{{2, 4}, {8, 3}, {1, 1}} {
		total := ShardWorkers(tc.workers, tc.shards)
		perWorker := make([]atomic.Int64, total)
		var outOfRange atomic.Int64
		src := shardedSource(t, data, tc.shards)
		cfg := Config{
			Workers: tc.workers,
			Observe: func(worker int, it Item) {
				if worker < 0 || worker >= total {
					outOfRange.Add(1)
					return
				}
				perWorker[worker].Add(1)
			},
		}
		if _, err := ShardedScan(context.Background(), src, cfg, nil); err != nil {
			t.Fatalf("workers=%d shards=%d: %v", tc.workers, tc.shards, err)
		}
		if n := outOfRange.Load(); n != 0 {
			t.Fatalf("workers=%d shards=%d: %d observations outside [0, %d)",
				tc.workers, tc.shards, n, total)
		}
		var sum int64
		for i := range perWorker {
			sum += perWorker[i].Load()
		}
		if sum != int64(len(conns)) {
			t.Fatalf("workers=%d shards=%d: observed %d of %d records",
				tc.workers, tc.shards, sum, len(conns))
		}
	}
}

// TestShardedScanCorruptSegment pins the partial-results contract: a
// corrupt record stops only its own shard, so the delivered set is the
// union of every other segment plus the corrupt segment's good prefix,
// every delivered Result is still correct, and ErrCorrupt surfaces.
func TestShardedScanCorruptSegment(t *testing.T) {
	conns := testConns(300)
	data := encodeIndexed(t, conns, 1)
	idx, err := capture.ReadFooterIndex(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	// Stomp the marker byte of record 260 — inside the last of 4
	// segments (records 225..299). The footer checksum only covers the
	// index payload, so the index still loads; the damage must be
	// caught by the shard's scanner, not hidden by it.
	const corruptAt = 260
	bad := append([]byte(nil), data...)
	bad[idx.Offsets[corruptAt]] = 0x09
	src, err := capture.NewSegmentedSource(bytes.NewReader(bad), int64(len(bad)), idx, 4)
	if err != nil {
		t.Fatal(err)
	}

	cl := core.NewClassifier(core.DefaultConfig())
	got, seen, counts, err := collectSharded(t, src,
		Config{Workers: 4, Ordered: true, BatchSize: 8}, len(conns))
	if !errors.Is(err, capture.ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	delivered := 0
	for i, s := range seen {
		if !s {
			if i < corruptAt {
				t.Fatalf("record %d (before the corruption) never delivered", i)
			}
			continue
		}
		delivered++
		if want := cl.Classify(conns[i]); got[i] != want {
			t.Fatalf("record %d: got %+v, want %+v", i, got[i], want)
		}
	}
	if delivered != corruptAt {
		t.Fatalf("delivered %d records, want exactly the %d-record union of good prefixes",
			delivered, corruptAt)
	}
	if counts.Errors == 0 {
		t.Fatalf("counts %+v, want a recorded error", counts)
	}
}

// TestShardedScanLyingSeamOffset: a checksum-valid index whose seam
// offset points mid-record must fail the run (ErrCorrupt from the
// misaligned shards), never deliver a wrong or duplicate Result.
func TestShardedScanLyingSeamOffset(t *testing.T) {
	conns := testConns(100)
	data := encodeIndexed(t, conns, 1)
	idx, err := capture.ReadFooterIndex(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	lying := *idx
	lying.Offsets = append([]int64(nil), idx.Offsets...)
	// Shift an actual 4-shard seam mid-record (segments are cut by byte
	// balance, so derive the seam instead of assuming point np/2).
	seam := idx.Segments(4)[2].FirstRecord / idx.Interval
	lying.Offsets[seam] += 2
	src, err := capture.NewSegmentedSource(bytes.NewReader(data), int64(len(data)), &lying, 4)
	if err != nil {
		t.Fatal(err)
	}
	cl := core.NewClassifier(core.DefaultConfig())
	got, seen, _, err := collectSharded(t, src,
		Config{Workers: 4, Ordered: false, BatchSize: 8}, len(conns))
	if !errors.Is(err, capture.ErrCorrupt) && !errors.Is(err, capture.ErrBadIndex) {
		t.Fatalf("err = %v, want ErrCorrupt or ErrBadIndex", err)
	}
	for i, s := range seen {
		if !s {
			continue
		}
		if want := cl.Classify(conns[i]); got[i] != want {
			t.Fatalf("record %d: got %+v, want %+v", i, got[i], want)
		}
	}
}

// TestShardedScanSeamUndercount: an index that undercounts records
// (the last segment scans past its promised count to a clean EOF) must
// surface capture.ErrBadIndex from the seam re-validation — the signal
// tamperscan uses to discard the run and rerun single-scanner.
func TestShardedScanSeamUndercount(t *testing.T) {
	conns := testConns(100)
	data := encodeIndexed(t, conns, 1)
	idx, err := capture.ReadFooterIndex(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	lying := *idx
	lying.Offsets = append([]int64(nil), idx.Offsets[:len(idx.Offsets)-1]...)
	lying.Records = idx.Records - 1 // DataSize unchanged: one unaccounted record
	src, err := capture.NewSegmentedSource(bytes.NewReader(data), int64(len(data)), &lying, 2)
	if err != nil {
		t.Fatal(err)
	}
	_, _, _, err = collectSharded(t, src,
		Config{Workers: 2, Ordered: true, BatchSize: 8}, len(conns))
	if !errors.Is(err, capture.ErrBadIndex) {
		t.Fatalf("err = %v, want ErrBadIndex from the seam check", err)
	}
}

// TestShardedScanEmptyCapture: an indexed capture with zero records
// yields zero segments, zero counts, and no error.
func TestShardedScanEmptyCapture(t *testing.T) {
	data := encodeIndexed(t, nil, 4)
	src := shardedSource(t, data, 8)
	if src.Segments() != 0 {
		t.Fatalf("%d segments for an empty capture", src.Segments())
	}
	counts, err := ShardedScan(context.Background(), src, Config{Workers: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if counts.Decoded != 0 || counts.Delivered != 0 {
		t.Fatalf("counts %+v for an empty capture", counts)
	}
}

// TestShardedScanTelemetry pins the multi-source throughput accounting
// fix: with several shard scanners feeding one Telemetry, the capture
// bytes counter must equal the whole record area once — per-shard
// deltas summed, not last-shard-wins — and every stage histogram must
// see observations.
func TestShardedScanTelemetry(t *testing.T) {
	data := encodeIndexed(t, testConns(1000), 16)
	src := shardedSource(t, data, 4)
	tel := NewTelemetry(nil)
	counts, err := ShardedScan(context.Background(), src,
		Config{Workers: 4, BatchSize: 16, Telemetry: tel}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if counts.Classified != 1000 {
		t.Fatalf("classified %d of 1000", counts.Classified)
	}
	want := src.Index().DataSize - 8
	if got := tel.capBytes.Value(); got != want {
		t.Fatalf("capture bytes counter %d, want %d (the full record area, counted once)", got, want)
	}
	if br := src.BytesRead(); br != want {
		t.Fatalf("aggregate BytesRead %d, want %d", br, want)
	}
	for _, st := range []int{stageScan, stageDecode, stageClassify, stageSink} {
		if s := tel.stageLat[st].Snapshot(); s.Count == 0 {
			t.Errorf("stage %q has no latency observations on the sharded path", stageNames[st])
		}
	}
}

// TestShardedScanCancelMidStream cancels a sharded run partway through
// and requires a prompt, leak-free exit.
func TestShardedScanCancelMidStream(t *testing.T) {
	verify := checkGoroutines(t)
	defer verify()

	data := encodeIndexed(t, testConns(5000), 32)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	delivered := 0
	done := make(chan struct{})
	go func() {
		defer close(done)
		src := shardedSource(t, data, 4)
		_, err := ShardedScan(ctx, src,
			Config{Workers: 4, BatchSize: 8, Depth: 16, Ordered: true},
			func(it Item) error {
				delivered++
				if delivered == 100 {
					cancel()
				}
				time.Sleep(10 * time.Microsecond) // keep the queues full
				return nil
			})
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want nil or context.Canceled", err)
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("sharded pipeline did not shut down after cancel")
	}
}

// TestShardedScanSinkErrorDrains: a failing sink must stop all shards
// without leaking scanners or workers, even with full queues.
func TestShardedScanSinkErrorDrains(t *testing.T) {
	verify := checkGoroutines(t)
	defer verify()

	data := encodeIndexed(t, testConns(5000), 32)
	src := shardedSource(t, data, 4)
	sentinel := errors.New("sink exploded")
	delivered := 0
	_, err := ShardedScan(context.Background(), src,
		Config{Workers: 8, BatchSize: 4, Depth: 8},
		func(it Item) error {
			delivered++
			if delivered == 30 {
				return sentinel
			}
			return nil
		})
	if !errors.Is(err, sentinel) {
		t.Errorf("err = %v, want sink error", err)
	}
}

// TestShardedScanErrStop: ErrStop ends a sharded run early and cleanly.
func TestShardedScanErrStop(t *testing.T) {
	verify := checkGoroutines(t)
	defer verify()

	data := encodeIndexed(t, testConns(5000), 32)
	src := shardedSource(t, data, 4)
	delivered := 0
	counts, err := ShardedScan(context.Background(), src,
		Config{Workers: 4, BatchSize: 8},
		func(it Item) error {
			delivered++
			if delivered == 50 {
				return ErrStop
			}
			return nil
		})
	if err != nil {
		t.Fatalf("ErrStop surfaced as %v", err)
	}
	if counts.Delivered != 49 {
		t.Errorf("delivered count %d, want 49", counts.Delivered)
	}
}

// TestShardWorkers pins the observer-sizing contract.
func TestShardWorkers(t *testing.T) {
	if got := ShardWorkers(4, 2); got != 4 {
		t.Errorf("ShardWorkers(4, 2) = %d, want 4", got)
	}
	if got := ShardWorkers(2, 5); got != 5 {
		t.Errorf("ShardWorkers(2, 5) = %d, want 5", got)
	}
	if got := ShardWorkers(0, 2); got != max(runtime.GOMAXPROCS(0), 2) {
		t.Errorf("ShardWorkers(0, 2) = %d, want max(GOMAXPROCS, 2)", got)
	}
	for _, tc := range []struct{ workers, shards int }{{4, 2}, {2, 5}, {7, 3}, {1, 1}} {
		counts := shardWorkerCounts(tc.workers, tc.shards)
		sum, lo, hi := 0, counts[0], counts[0]
		for _, c := range counts {
			sum += c
			lo, hi = min(lo, c), max(hi, c)
		}
		if sum != ShardWorkers(tc.workers, tc.shards) || hi-lo > 1 || lo < 1 {
			t.Errorf("shardWorkerCounts(%d, %d) = %v", tc.workers, tc.shards, counts)
		}
	}
}

// TestShardedIngestScalingGate is the shard-scaling regression gate
// wired into scripts/check.sh: with TAMPERDETECT_SCALING_GATE=1 on a
// host with >=4 CPUs, sharded ingest at 8 shards must move at least 2x
// the records/sec of 1 shard. On smaller hosts it skips — removing the
// serial scan stage cannot pay without parallel hardware.
func TestShardedIngestScalingGate(t *testing.T) {
	if os.Getenv("TAMPERDETECT_SCALING_GATE") == "" {
		t.Skip("set TAMPERDETECT_SCALING_GATE=1 to run the shard scaling gate")
	}
	if runtime.NumCPU() < 4 {
		t.Skipf("scaling gate needs >=4 CPUs, have %d", runtime.NumCPU())
	}
	s, err := workload.BuildScenario("shard-scaling", 120000, 72, 7)
	if err != nil {
		t.Fatal(err)
	}
	data := encodeIndexed(t, s.Run(0), 256)

	throughput := func(shards int) float64 {
		best := 0.0
		for run := 0; run < 3; run++ {
			src := shardedSource(t, data, shards)
			start := time.Now()
			counts, err := ShardedScan(context.Background(), src,
				Config{Workers: shards, BatchSize: 64}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if rps := float64(counts.Classified) / time.Since(start).Seconds(); rps > best {
				best = rps
			}
		}
		return best
	}
	one := throughput(1)
	eight := throughput(8)
	t.Logf("sharded ingest throughput: shards=1 %.0f rec/s, shards=8 %.0f rec/s (%.2fx)",
		one, eight, eight/one)
	if eight < 2*one {
		t.Errorf("scaling regression: shards=8 (%.0f rec/s) is only %.2fx shards=1 (%.0f rec/s); gate requires >=2x",
			eight, eight/one, one)
	}
}
