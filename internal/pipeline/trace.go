package pipeline

import (
	"strconv"
	"time"

	"tamperdetect/internal/trace"
)

// Span instrumentation for the streaming paths. A runTrace holds the
// per-run interned span names and emit helpers so the hot path never
// touches strings or locks: emitting a span is a time.Now pair plus a
// handful of atomic stores into a preallocated ring slot.
//
// Span taxonomy (all spans share the tracer's trace ID):
//
//	scan            one per raw batch, on the scanner front's ring
//	                (Run's Source front emits a root-level decode
//	                span per batch here instead: it decodes itself)
//	queue-wait      enqueue → worker pickup, per batch (async in the
//	                Chrome export: its interval overlaps whatever the
//	                picking worker was doing before)
//	decode          one per batch, on the worker's ring (scan paths)
//	decode.record   per head-sampled record, nested in decode
//	classify        one per batch (+ classify.record)
//	observe         one per batch (+ observe.record)
//	sink            one per delivered batch (+ sink.record), on the
//	                deliver ring
//
// Lineage: the front's span is the parent of the batch's queue-wait,
// decode, classify, observe, and sink spans; record spans parent to
// their batch span. Shard attribution rides every span (-1 on the
// unsharded paths), so a sharded run's spans separate cleanly per
// segment.
type runTrace struct {
	t *trace.Tracer

	scan, queueWait, decode, classify, observe, sink int32
	decodeRec, classifyRec, observeRec, sinkRec      int32
}

// Stable span names, shared with the exporters and tests.
const (
	SpanScan     = "scan"
	SpanDecode   = "decode"
	SpanClassify = "classify"
	SpanObserve  = "observe"
	SpanSink     = "sink"
)

func newRunTrace(t *trace.Tracer) *runTrace {
	if t == nil {
		return nil
	}
	return &runTrace{
		t:           t,
		scan:        t.NameID(SpanScan),
		queueWait:   t.NameID(trace.QueueWaitName),
		decode:      t.NameID(SpanDecode),
		classify:    t.NameID(SpanClassify),
		observe:     t.NameID(SpanObserve),
		sink:        t.NameID(SpanSink),
		decodeRec:   t.NameID(SpanDecode + ".record"),
		classifyRec: t.NameID(SpanClassify + ".record"),
		observeRec:  t.NameID(SpanObserve + ".record"),
		sinkRec:     t.NameID(SpanSink + ".record"),
	}
}

// ring labels producer ring i and returns it, or nil when the run is
// untraced. Each pipeline goroutine grabs its ring once at start.
func (rt *runTrace) ring(i int, label string) *trace.Ring {
	if rt == nil {
		return nil
	}
	rt.t.LabelRing(i, label)
	return rt.t.Ring(i)
}

// nowNS is the span clock.
func nowNS() int64 { return time.Now().UnixNano() }

// itoa keeps the goroutine-setup call sites short.
func itoa(i int) string { return strconv.Itoa(i) }

// emit writes one finished span to ring.
func (rt *runTrace) emit(ring *trace.Ring, name int32, spanID, parent uint64,
	start, end int64, worker, shard int32, record int64, count int32) {
	ring.Emit(trace.SpanRec{
		TraceID: rt.t.TraceID(), SpanID: spanID, Parent: parent, NameID: name,
		Start: start, Dur: end - start, Worker: worker, Shard: shard,
		Record: record, Count: count,
	})
}

// sampled reports whether record index i gets per-record spans.
func (rt *runTrace) sampled(i int) bool { return rt.t.Sampled(int64(i)) }
