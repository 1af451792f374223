package main

import (
	"context"
	"fmt"
	"log/slog"
	"os"
	"sync"
	"time"

	"tamperdetect/internal/analysis"
	"tamperdetect/internal/fleet"
	"tamperdetect/internal/geo"
	"tamperdetect/internal/pipeline"
	"tamperdetect/internal/trace"
)

// fleetPush feeds classified connections into the full fleet
// aggregator set and ships per-epoch delta snapshots to a popmerge
// service. Each pushed frame covers only the records classified since
// the previous push, so the merger's (pop, epoch) dedup makes an
// ACK-lost retransmission idempotent and the global report equals the
// merge of the distinct frames.
type fleetPush struct {
	pusher  *fleet.Pusher
	pop     string
	metrics *pipeline.Metrics
	tracer  *trace.Tracer
	log     *slog.Logger
	epochN  int32 // interned "push.epoch" span name

	interval time.Duration

	mu        sync.Mutex
	agg       analysis.Multi
	geo       *geo.Cache
	n         int // records in the open epoch
	lastEpoch uint64
	haveEpoch bool
	seq       uint64
	prev      pipeline.Counts // pipeline counts already pushed

	stopTick chan struct{}
	tickDone chan struct{}
}

// pushEpochSpan names the span that anchors each pushed epoch's trace
// across the fleet hop (see fleet.SpanFleetValidate/SpanFleetMerge).
const pushEpochSpan = "push.epoch"

// testHookPusherConfig, when non-nil, adjusts the pusher config before
// construction; tests use it to shrink backoff so retry-exhaustion
// paths run in milliseconds.
var testHookPusherConfig func(*fleet.PusherConfig)

// newFleetPush builds the push side of a scan: the fleet pusher
// (resuming any spilled frames from a previous outage), the live
// aggregator, and — when interval > 0 — the periodic epoch ticker.
func newFleetPush(opts options, m *pipeline.Metrics, tracer *trace.Tracer, log *slog.Logger) (*fleetPush, error) {
	pop := opts.pop
	if pop == "" {
		if host, err := os.Hostname(); err == nil && host != "" {
			pop = host
		} else {
			pop = "pop-local"
		}
	}
	cfg := fleet.PusherConfig{
		URL:      opts.pushURL,
		SpillDir: opts.pushSpill,
	}
	if testHookPusherConfig != nil {
		testHookPusherConfig(&cfg)
	}
	p, err := fleet.NewPusher(cfg)
	if err != nil {
		return nil, err
	}
	fp := &fleetPush{
		pusher:   p,
		pop:      pop,
		metrics:  m,
		tracer:   tracer,
		log:      log.With("pop", pop),
		epochN:   tracer.NameID(pushEpochSpan),
		interval: opts.pushInterval,
		agg:      analysis.NewFleetAggs(),
		geo:      geo.NewCache(nil),
		// m outlives this scan attempt (a discarded sharded attempt and
		// its rescan share it), so frames carry only what moves from here.
		prev: m.Snapshot(),
	}
	if opts.pushSpill != "" {
		n, err := p.Resume()
		if err != nil {
			p.Close()
			return nil, fmt.Errorf("resuming spilled frames: %w", err)
		}
		if n > 0 {
			fp.log.Info("resumed spilled push frames", "frames", n, "dir", opts.pushSpill)
		}
	}
	if opts.pushInterval > 0 {
		fp.stopTick = make(chan struct{})
		fp.tickDone = make(chan struct{})
		go fp.tick(opts.pushInterval)
	}
	return fp, nil
}

// observe is chained after the report shards' Observe hook; it runs
// sequentially per worker but concurrently across workers, hence the
// lock. A scan has no geo plan, so records carry no country/ASN — the
// fleet tables that key on them stay empty, harmlessly.
func (fp *fleetPush) observe(it pipeline.Item) {
	if it.Err != nil {
		return
	}
	fp.mu.Lock()
	rec := analysis.NewRecord(it.Conn, fp.geo, it.Res)
	fp.agg.Add(&rec)
	fp.n++
	fp.mu.Unlock()
}

// tick pushes an epoch on every interval until stopped.
func (fp *fleetPush) tick(interval time.Duration) {
	defer close(fp.tickDone)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if err := fp.pushEpoch(false); err != nil {
				fp.log.Warn("epoch push failed", "err", err.Error())
			}
		case <-fp.stopTick:
			return
		}
	}
}

// nextEpochLocked derives the frame's epoch from the wall clock — the
// index of the interval-wide window for periodic pushes, nanoseconds
// for one-shot scans — bumped monotonically so every frame this run is
// distinct. Time-based epochs keep separate scans of the same PoP out
// of each other's (pop, epoch) dedup space: only a true retransmission
// of the same frame reads as a duplicate at the merger.
func (fp *fleetPush) nextEpochLocked() uint64 {
	e := uint64(time.Now().UnixNano())
	if fp.interval > 0 {
		e /= uint64(fp.interval)
	}
	if fp.haveEpoch && e <= fp.lastEpoch {
		e = fp.lastEpoch + 1
	}
	fp.lastEpoch, fp.haveEpoch = e, true
	return e
}

// pushEpoch snapshots and resets the open epoch's aggregate, frames it
// with the pipeline-count delta, and queues it for delivery. Empty
// interior epochs are skipped; the final one is always pushed so a
// merger tracking liveness sees the scan complete.
func (fp *fleetPush) pushEpoch(final bool) error {
	fp.mu.Lock()
	if fp.n == 0 && !final {
		fp.mu.Unlock()
		return nil
	}
	agg := fp.agg
	fp.agg = analysis.NewFleetAggs()
	fp.n = 0
	counts := fp.metrics.Delta(fp.prev)
	fp.prev = fp.prev.Add(counts)
	epoch := fp.nextEpochLocked()
	seq := fp.seq
	fp.seq++
	fp.mu.Unlock()

	// The epoch span is the cross-PoP trace anchor: its ID rides the v3
	// envelope, and the merger parents its validate/merge spans to it,
	// so one trace covers both sides of the push.
	spanID := fp.tracer.NewSpanID()
	start := time.Now().UnixNano()
	frame, err := fleet.EncodeSnapshotTraced(fp.pop, epoch, seq, agg, counts,
		fleet.TraceContext{TraceID: fp.tracer.TraceID(), SpanID: spanID})
	if err != nil {
		return err
	}
	err = fp.pusher.Push(frame)
	fp.tracer.EmitShared(trace.SpanRec{
		TraceID: fp.tracer.TraceID(), SpanID: spanID, Parent: fp.tracer.Root(),
		NameID: fp.epochN, Start: start, Dur: time.Now().UnixNano() - start,
		Worker: -1, Shard: -1, Record: -1, Count: 1,
	})
	return err
}

// pushFlushTimeout bounds how long finish waits for the queue to
// drain before it closes the pusher; tests shorten it.
var pushFlushTimeout = 30 * time.Second

// finish pushes the final epoch, flushes the queue against its own
// deadline (a signalled scan still drains its pushes), and reports the
// delivery stats. It returns an error only when frames were lost —
// rejected by the merger, or failed outright with nowhere to spill.
// A flush that outlives its deadline loses nothing: Close still drains
// the queue, and every frame in it is delivered, spilled, rejected or
// failed, which the stats then say.
func (fp *fleetPush) finish() error {
	fp.stopTicker()
	pushErr := fp.pushEpoch(true)
	ctx, cancel := context.WithTimeout(context.Background(), pushFlushTimeout)
	defer cancel()
	if err := fp.pusher.Flush(ctx); err != nil {
		fp.log.Warn("push queue still draining at the flush deadline; closing waits for it", "err", err.Error())
	}
	fp.pusher.Close()
	st := fp.pusher.Stats()
	fp.log.Info("push summary",
		"delivered", st.Delivered, "retries", st.Retries,
		"spilled", st.Spilled, "resumed", st.Resumed, "failed", st.Failed,
		"rejected", st.Rejected)
	if pushErr != nil {
		return pushErr
	}
	if st.Rejected > 0 {
		return fmt.Errorf("%d frame(s) rejected by the merger", st.Rejected)
	}
	if st.Failed > 0 {
		return fmt.Errorf("%d frame(s) undeliverable and not spilled (set -push-spill to survive merger outages)", st.Failed)
	}
	return nil
}

// discard tears down the push side of a scan attempt whose results are
// being thrown away (a sharded attempt about to be rescanned): the
// ticker and the pusher's worker stop, and the open epoch is dropped
// unpushed.
func (fp *fleetPush) discard() {
	fp.stopTicker()
	fp.pusher.Close()
}

// stopTicker stops the periodic epoch ticker, if one runs, and waits
// for it to exit.
func (fp *fleetPush) stopTicker() {
	if fp.stopTick != nil {
		close(fp.stopTick)
		<-fp.tickDone
	}
}
