// Package pipeline implements the streaming classification pipeline:
// records fan out across a pool of classifier workers and fan back into
// a single ordered or unordered sink, with bounded channel depths
// (backpressure end to end), per-stage counters, context-based
// cancellation, and a graceful drain on both normal EOF and early
// shutdown.
//
// This is the paper's deployment shape: the detector runs continuously
// over a sampled stream of connections rather than over batches loaded
// into memory. Every stage holds O(Workers + Depth + BatchSize)
// records, so arbitrarily large captures stream in constant memory.
//
// There is one engine (engine.go) and three thin front ends that only
// say where records come from:
//
//	Run(Source)        one front pulling already-decoded records
//	Stream(io.Reader)  one front scanning TDCAP record boundaries;
//	                   the workers decode and classify
//	ShardedScan(src)   one scanning front per index segment, each with
//	                   its own share of the workers and a seam check
//
//	front ×K ──▶ [depth] ──▶ decode+classify ×W ──▶ [depth] ──▶ sink
//
// Records move through the inter-stage channels in pooled batches of
// Config.BatchSize, which amortises channel synchronisation over many
// records; each worker owns a private classifier instance and scratch
// arena so the per-record classify cost is allocation-free.
//
// A slow sink throttles the workers, which throttle the fronts, which
// throttle their readers. Cancelling the context stops every stage;
// records already read but not delivered are counted as Dropped.
package pipeline

import (
	"context"
	"errors"
	"io"
	"runtime"

	"tamperdetect/internal/capture"
	"tamperdetect/internal/core"
	"tamperdetect/internal/trace"
)

// DefaultDepth is the per-stage channel depth (in records) when
// Config.Depth is 0.
const DefaultDepth = 256

// DefaultBatchSize is the records-per-batch granularity of the
// inter-stage channels when Config.BatchSize is 0.
const DefaultBatchSize = 64

// ErrStop may be returned by a Sink to stop the pipeline early without
// reporting an error: Run cancels the remaining work, drains, and
// returns nil.
var ErrStop = errors.New("pipeline: stop")

// Item is one classified connection flowing out of the pipeline.
type Item struct {
	// Index is the record's zero-based decode position. In ordered
	// mode the sink sees indexes 0, 1, 2, … with no gaps.
	Index int
	// Conn is the decoded connection record.
	Conn *capture.Connection
	// Res is the classifier's verdict; zero-valued when Err is set.
	Res core.Result
	// Err reports a classification failure (a classifier panic on this
	// record, recovered). The item still flows to the sink — ordered
	// mode depends on every index arriving — so sinks that care must
	// check Err before trusting Res.
	Err error
}

// Sink consumes classified items. It is always invoked from a single
// goroutine — never concurrently — so it may update plain state.
// Returning a non-nil error stops the pipeline; returning ErrStop
// stops it without error.
type Sink func(Item) error

// Config tunes the pipeline.
type Config struct {
	// Workers is the classifier pool size; 0 means GOMAXPROCS. A
	// sharded run uses at least one worker per segment (ShardWorkers).
	Workers int
	// Depth bounds each inter-stage channel, in records; 0 means
	// DefaultDepth. Together with BatchSize it bounds the records in
	// flight: each channel holds max(1, Depth/BatchSize) batches, so at
	// most 2*Depth + (Workers+2)*BatchSize records exist between the
	// source and the sink at any instant.
	Depth int
	// BatchSize groups records N at a time through the inter-stage
	// channels, amortising channel synchronisation across the batch; 0
	// means DefaultBatchSize, and values above Depth are clamped to
	// Depth so shallow test pipelines keep tight in-flight bounds.
	// BatchSize 1 reproduces the record-at-a-time pipeline exactly.
	// Delivery semantics are identical at every batch size.
	BatchSize int
	// Ordered delivers items to the sink in decode order (index 0, 1,
	// 2, …). Unordered delivery has lower latency skew under uneven
	// classify costs; ordered delivery is deterministic.
	Ordered bool
	// Classifier overrides the classifier; nil builds one with
	// core.DefaultConfig(). A single *core.Classifier is shared by all
	// workers (it is concurrency-safe).
	Classifier *core.Classifier
	// Metrics, when non-nil, receives the live per-stage counters so
	// callers can observe a run in flight. Counters are cumulative
	// across runs unless the caller Resets between them.
	Metrics *Metrics
	// Observe, when non-nil, is invoked from inside the classify stage
	// for every record a worker finishes, before the record is handed
	// downstream. The worker argument is the classifying worker's index
	// in [0, Workers): calls are sequential per worker but concurrent
	// across workers, so observers shard their state per worker index
	// (the aggregating sink in internal/analysis accumulates into
	// shards[worker] and merges after Run returns). Observe sees
	// records in an unspecified cross-worker order, sees items whose
	// Err is set, and — unlike the Sink — may see records that are
	// never delivered when a run stops early; it must not retain the
	// *capture.Connection past the call (batches recycle).
	Observe func(worker int, it Item)
	// Telemetry, when non-nil, streams rich operational metrics from
	// the run into the Telemetry's registry: per-stage latency
	// histograms, queue-depth gauges, per-signature and per-
	// disposition counters, and capture throughput. The per-record
	// cost is two sharded atomic adds (no allocation); stage latency
	// is timed per batch. When Metrics is nil the run also uses
	// Telemetry.Metrics() as its counter block, so the exposed
	// records_total series follow the run automatically.
	Telemetry *Telemetry
	// Tracer, when non-nil, emits per-stage spans for the run into the
	// tracer's ring buffers (see internal/trace): batch-level scan /
	// queue-wait / decode / classify / observe / sink spans always,
	// plus per-record spans for head-sampled record indexes
	// (trace.Config.SampleEvery). Emission is allocation-free; with
	// per-record sampling off the added cost is a few time.Now calls
	// per batch, pinned by TestTraceHotPathAllocationFree (the ledger
	// reports the on/off throughput as pipeline.tracer_ratio).
	Tracer *trace.Tracer
}

// Run streams records from src through the classifier pool into sink
// and blocks until the pipeline has fully drained: on return no
// pipeline goroutine is left running, regardless of how the run ended
// (bar a source still blocked in an uninterruptible Next of a cancelled
// run — see Source).
//
// Run returns the final counter snapshot and the first error among
// the sink's, the source's, and the context's. A nil sink counts and
// discards. EOF from the source is a clean end of stream. The source
// goroutine is the decode stage: the workers receive decoded records
// and only classify.
func Run(ctx context.Context, src Source, cfg Config, sink Sink) (Counts, error) {
	f := &front{
		stage: stageDecode, shard: -1,
		next: func(cur *rawBatch) error {
			c, err := src.Next()
			if err != nil {
				return err
			}
			cur.conns = append(cur.conns, c)
			return nil
		},
	}
	if bc, ok := src.(byteCounter); ok {
		f.bytesRead = bc.BytesRead
	}
	return run(ctx, cfg, sink, []*front{f})
}

// Stream runs a TDCAP capture read incrementally from r through the
// pipeline: a scanner goroutine finds record boundaries and the worker
// pool decodes and classifies, so ingest scales with Config.Workers.
// Semantics match Run over a ReaderSource exactly — same Counts
// accounting, same ordered/unordered delivery, same
// drain-the-good-prefix behaviour on a corrupt tail — only the work
// placement differs.
func Stream(ctx context.Context, r io.Reader, cfg Config, sink Sink) (Counts, error) {
	return run(ctx, cfg, sink, []*front{scanFront(capture.NewScanner(r), 0, -1)})
}

// ShardedScan streams an indexed TDCAP capture through one scanning
// front per index segment, each over its own byte range of the file
// (capture.SegmentedSource), which removes the single-scanner
// bottleneck. Semantics match Stream over the same file — same Counts
// accounting, same ordered/unordered delivery, same Sink and Observe
// contracts — and on a clean file the output is byte-identical.
//
// Error semantics differ in one honest way: a corrupt record stops
// only its own segment, so the delivered "good prefix" is the union of
// every other segment plus the corrupt segment's good prefix — more
// data recovered than a single scanner would manage, never less, and
// the error still surfaces. A seam violation (the index promised a
// boundary that is not one) surfaces as capture.ErrBadIndex; callers
// then rerun with Stream, which is why a hostile index can waste time
// but cannot corrupt output.
func ShardedScan(ctx context.Context, src *capture.SegmentedSource, cfg Config, sink Sink) (Counts, error) {
	// Scanners are created here, before anything runs concurrently, so
	// SegmentedSource.BytesRead can sum them from a telemetry scrape
	// without racing lazy construction.
	fronts := make([]*front, src.Segments())
	for i := range fronts {
		fronts[i] = scanFront(src.Scanner(i), src.Segment(i).FirstRecord, int32(i))
		fronts[i].check = func() error { return src.CheckSegment(i) }
	}
	return run(ctx, cfg, sink, fronts)
}

// ShardWorkers reports the total decode+classify worker count a
// ShardedScan run will use for the given Config.Workers and shard
// count: every shard gets at least one worker, so the total exceeds
// Config.Workers when there are more shards than workers. Callers
// that size per-worker observers (analysis.NewSharded) must use this
// resolved total, and Config.Observe receives worker indexes in
// [0, ShardWorkers(...)).
func ShardWorkers(workers, shards int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if shards < 1 {
		shards = 1
	}
	return max(workers, shards)
}

// shardWorkerCounts splits the resolved worker total across shards,
// front-loading the remainder so counts differ by at most one.
func shardWorkerCounts(workers, shards int) []int {
	if shards == 0 {
		return nil // an empty capture has no segments to serve
	}
	total := ShardWorkers(workers, shards)
	counts := make([]int, shards)
	base, extra := total/shards, total%shards
	for i := range counts {
		counts[i] = base
		if i < extra {
			counts[i]++
		}
	}
	return counts
}
