package pipeline

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"tamperdetect/internal/capture"
	"tamperdetect/internal/core"
	"tamperdetect/internal/trace"
)

// The one ingest engine. Run, Stream and ShardedScan only build fronts;
// everything that moves a record from a front to the sink lives here,
// once:
//
//	front 0: read ──raw──▶ decode+classify ×w₀ ──┐
//	front 1: read ──raw──▶ decode+classify ×w₁ ──┼─▶ deliver ──▶ sink
//	   ...                                       │
//	front K: read ──raw──▶ decode+classify ×wₖ ──┘
//
// A front is one producer goroutine with its own bounded channel and
// its own share of the worker pool; nothing on the hot path is shared
// between fronts except the atomic Metrics counters, the telemetry
// instruments and the two batch free lists, all of which are
// concurrency-safe and order-independent. That is what makes a K-front
// run byte-identical to a one-front run over the same records.
//
// Slab ownership is strict and explicit: a front writes a raw batch
// only before sending it; after the send it takes a fresh one from the
// free list. A worker returns the raw batch to the list as soon as its
// records are decoded, before classification, so slabs recycle quickly.
// Decoded Connections live in per-batch storage that recycles after the
// sink runs (Packets/Payload capacity survives reuse), which keeps the
// steady state allocation-free; sinks and observers must not retain
// *capture.Connection past the call.

// maxSlabBytes flushes a raw batch early when its slab grows past this
// size, so a run of huge records cannot pin unbounded memory behind
// one batch.
const maxSlabBytes = 1 << 20

// slabBytes is a fresh slab's capacity: a default batch of typical
// (~400-byte) records. append grows it for bigger batches.
const slabBytes = DefaultBatchSize * 512

// front is one producer feeding the engine. The three exported entry
// points differ only in the fronts they build.
type front struct {
	// next reads one record into cur and returns io.EOF at a clean end
	// of the front's stream. A scanner front appends the record's raw
	// bytes to cur.slab/offs and leaves decoding to the workers; a
	// Source front appends an already-decoded record to cur.conns.
	next func(cur *rawBatch) error
	// stage is where the front's per-batch read time is booked:
	// stageScan or stageDecode. Its name is also the front's span name
	// and trace-ring label prefix.
	stage int
	// base is the pipeline index of the front's first record; a front's
	// records are indexed base, base+1, … so fronts over consecutive
	// segments of one capture produce file-global indexes.
	base int
	// shard is the segment a sharded front reads, stamped on its spans
	// and named in its errors; -1 on the unsharded paths.
	shard int32
	// check, when non-nil, runs after a clean EOF; its error becomes
	// the front's error (the sharded path's seam check).
	check func() error
	// bytesRead, when non-nil, reports raw bytes consumed so far and
	// feeds the capture throughput counter.
	bytesRead func() int64

	raw     chan *rawBatch  // front → its workers
	results chan *itemBatch // its workers → deliver
	done    chan struct{}   // closed when the producer goroutine exits
	err     error           // written before done closes
}

// scanFront is a front over a TDCAP record scanner (capture.Scanner: a
// header walk plus one memcpy per record, far cheaper than decoding).
func scanFront(sc *capture.Scanner, base int, shard int32) *front {
	return &front{
		stage: stageScan, base: base, shard: shard, bytesRead: sc.BytesRead,
		next: func(cur *rawBatch) error {
			if cur.slab == nil {
				cur.slab = make([]byte, 0, slabBytes)
			}
			slab, err := sc.Next(cur.slab)
			if err != nil {
				return err
			}
			cur.slab = slab
			cur.offs = append(cur.offs, int32(len(slab)))
			return nil
		},
	}
}

// rawBatch is what a front hands its workers: either undecoded records
// (one contiguous byte slab plus boundaries; record i is
// slab[offs[i]:offs[i+1]]) or records that arrived decoded (conns).
// Record i's pipeline index is first+i — indexes stay contiguous per
// batch, which ordered delivery relies on.
type rawBatch struct {
	first int
	slab  []byte
	offs  []int32
	conns []*capture.Connection
	// Trace context, set by the front only when a Tracer is attached:
	// the batch's front span (parent for the downstream stage spans)
	// and the enqueue timestamp (queue-wait start).
	scanSpan uint64
	enqNS    int64
}

func (rb *rawBatch) len() int { return len(rb.offs) - 1 + len(rb.conns) }

// itemBatch is a decoded batch: the items the sink sees plus the
// Connection storage their Conn pointers alias (unused when the front
// decoded). The storage recycles with the batch; its Packets/Payload
// capacity survives reuse.
type itemBatch struct {
	items []Item
	conns []capture.Connection
	// Trace context carried from the raw batch to the sink stage.
	scanSpan uint64
	shard    int32
}

// engine is one run's resolved configuration and batch free lists.
type engine struct {
	batch   int
	m       *Metrics
	tel     *Telemetry
	rt      *runTrace
	observe func(worker int, it Item)

	// Both batch kinds recycle through free lists shared by every
	// front. Raw slabs keep their byte capacity; item batches keep their
	// Connection storage, so steady-state decode allocates nothing.
	raws  freeList[rawBatch]
	items freeList[itemBatch]
}

// freeList recycles one batch kind through a buffered channel sized to
// the engine's in-flight bound. Unlike sync.Pool it is never thinned:
// not by a GC, and not by the race detector, under which sync.Pool.Put
// drops a random quarter of its arguments — each drop re-allocating a
// whole batch and its Connection storage. A put beyond the bound (a
// burst in the ordered reorder buffer) is left to the GC.
type freeList[T any] struct {
	free  chan *T
	fresh func() *T
}

func (l *freeList[T]) get() *T {
	select {
	case b := <-l.free:
		return b
	default:
		return l.fresh()
	}
}

func (l *freeList[T]) put(b *T) {
	select {
	case l.free <- b:
	default:
	}
}

func (e *engine) getRaw() *rawBatch {
	rb := e.raws.get()
	rb.slab = rb.slab[:0]
	rb.offs = rb.offs[:1] // offs[0] == 0, the first record's start
	return rb
}

func (e *engine) putRaw(rb *rawBatch) {
	clear(rb.conns) // don't pin the source's records
	rb.conns = rb.conns[:0]
	e.raws.put(rb)
}

func (e *engine) getItems() *itemBatch {
	ib := e.items.get()
	ib.items = ib.items[:0]
	return ib
}

func (e *engine) putItems(ib *itemBatch) {
	b := ib.items[:cap(ib.items)]
	clear(b) // don't pin delivered records and Results (domains, etc.)
	ib.items = b[:0]
	e.items.put(ib)
}

// run streams every front's records through the classifier pool into
// sink and blocks until the pipeline has drained: on return no pipeline
// goroutine is left running, except a producer still blocked inside an
// uninterruptible read of a cancelled run (it exits when the read
// returns). It returns the final counter snapshot and the first error
// among the sink's, the fronts' (in front order), and the context's.
func run(ctx context.Context, cfg Config, sink Sink, fronts []*front) (Counts, error) {
	depth := cfg.Depth
	if depth <= 0 {
		depth = DefaultDepth
	}
	batch := cfg.BatchSize
	if batch <= 0 {
		batch = DefaultBatchSize
	}
	if batch > depth {
		batch = depth
	}
	cl := cfg.Classifier
	if cl == nil {
		cl = core.NewClassifier(core.DefaultConfig())
	}
	tel := cfg.Telemetry
	m := cfg.Metrics
	if m == nil {
		if tel != nil {
			m = tel.Metrics()
		} else {
			m = &Metrics{}
		}
	}
	if tel != nil {
		tel.attach(m)
	}
	// Order is only observable through a sink: without one, fronts
	// deliver as they finish, so a later front never waits on an
	// earlier one.
	ordered := cfg.Ordered && sink != nil
	if sink == nil {
		sink = func(Item) error { return nil }
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Channel capacities are expressed in batches so Depth keeps
	// bounding the records in flight regardless of the batch size.
	chanCap := max(1, depth/batch)

	// Producer ring plan: i = front i, K = the deliver stage, K+1+w =
	// worker w. Worker indexes are global across fronts, so shared
	// per-worker observers (analysis.Sharded, the telemetry sharded
	// counters) never collide.
	k := len(fronts)
	wcounts := shardWorkerCounts(cfg.Workers, k)

	// The in-flight bound in batches (Config.Depth's 2*Depth +
	// (Workers+2)*BatchSize records, per front) sizes both free lists.
	inflight := k * (2*chanCap + 2)
	for _, n := range wcounts {
		inflight += n
	}
	e := &engine{batch: batch, m: m, tel: tel, rt: newRunTrace(cfg.Tracer), observe: cfg.Observe,
		raws: freeList[rawBatch]{make(chan *rawBatch, inflight),
			func() *rawBatch { return &rawBatch{offs: make([]int32, 1, batch+1)} }},
		items: freeList[itemBatch]{make(chan *itemBatch, inflight),
			func() *itemBatch { return &itemBatch{} }},
	}
	worker := 0
	for i, f := range fronts {
		f.raw = make(chan *rawBatch, chanCap)
		f.results = make(chan *itemBatch, chanCap)
		f.done = make(chan struct{})
		go e.produce(ctx, f, i)
		var wg sync.WaitGroup
		for n := wcounts[i]; n > 0; n-- {
			wg.Add(1)
			go func(worker int) {
				defer wg.Done()
				e.work(ctx, f, cl, worker, k+1+worker)
			}(worker)
			worker++
		}
		go func() {
			wg.Wait()
			close(f.results)
		}()
	}

	// Deliver stage, on the caller's goroutine, so the sink is never
	// invoked concurrently. After a sink error or cancellation we keep
	// draining the results channels (so blocked workers can exit) but
	// stop invoking the sink.
	sinkRing := e.rt.ring(k, "sink")
	var sinkErr error
	stopped := false
	deliver := func(it Item) {
		if stopped || ctx.Err() != nil {
			return
		}
		switch err := sink(it); {
		case err == nil:
			m.delivered.Add(1)
		case errors.Is(err, ErrStop):
			stopped = true
			cancel()
		default:
			m.errors.Add(1)
			sinkErr = fmt.Errorf("pipeline: sink: %w", err)
			stopped = true
			cancel()
		}
	}
	deliverBatch := func(ib *itemBatch) {
		rt := e.rt
		var sinkStart time.Time
		if tel != nil {
			sinkStart = time.Now()
		}
		var snkSpan uint64
		var trSinkStart int64
		if rt != nil {
			trSinkStart = nowNS()
			snkSpan = rt.t.NewSpanID()
		}
		for i := range ib.items {
			if rt != nil && rt.sampled(ib.items[i].Index) {
				s := nowNS()
				deliver(ib.items[i])
				rt.emit(sinkRing, rt.sinkRec, rt.t.NewSpanID(), snkSpan,
					s, nowNS(), -1, ib.shard, int64(ib.items[i].Index), 1)
				continue
			}
			deliver(ib.items[i])
		}
		if tel != nil {
			tel.stageLat[stageSink].Observe(time.Since(sinkStart).Nanoseconds())
		}
		if rt != nil {
			rt.emit(sinkRing, rt.sink, snkSpan, ib.scanSpan,
				trSinkStart, nowNS(), -1, ib.shard, int64(ib.items[0].Index), int32(len(ib.items)))
		}
		e.putItems(ib)
	}
	switch {
	case ordered:
		// Fronts are delivered strictly in order, each through a reorder
		// buffer keyed by batch first index: a front fills batches with
		// contiguous indexes from its base, so first-index order is
		// record order and the concatenation is the single-front ordered
		// output. A later front's results buffer only up to its bounded
		// channel depth while an earlier one drains, so memory stays
		// bounded — ordered multi-front ingest is for deterministic
		// output, not for peak throughput, which is why a run without a
		// sink never takes this path.
		for _, f := range fronts {
			pending := make(map[int]*itemBatch)
			next := f.base
			for ib := range f.results {
				pending[ib.items[0].Index] = ib
				for {
					nb, ok := pending[next]
					if !ok {
						break
					}
					delete(pending, next)
					next += len(nb.items)
					deliverBatch(nb)
				}
			}
		}
	case k == 1:
		for ib := range fronts[0].results {
			deliverBatch(ib)
		}
	default:
		// Unordered: batches from all fronts interleave as they finish.
		merged := make(chan *itemBatch, k) // one slot per forwarder
		var fwg sync.WaitGroup
		for _, f := range fronts {
			fwg.Add(1)
			go func(c <-chan *itemBatch) {
				defer fwg.Done()
				for ib := range c {
					merged <- ib
				}
			}(f.results)
		}
		go func() {
			fwg.Wait()
			close(merged)
		}()
		for ib := range merged {
			deliverBatch(ib)
		}
	}

	// Wait for each producer unless the context was cancelled: a
	// cancelled run must not hang on a read that cannot be interrupted.
	// The producer exits on its own once the read returns (its channel
	// send selects on ctx.Done); f.err is read only after f.done closed,
	// which is what makes the unsynchronized write safe.
	var srcErr error
	for _, f := range fronts {
		select {
		case <-f.done:
		case <-ctx.Done():
			select {
			case <-f.done:
			default:
				continue
			}
		}
		if srcErr != nil || f.err == nil {
			continue
		}
		if f.shard >= 0 {
			srcErr = fmt.Errorf("pipeline: source (segment %d): %w", f.shard, f.err)
		} else {
			srcErr = fmt.Errorf("pipeline: source: %w", f.err)
		}
	}
	if tel != nil {
		// Every channel is fully drained once delivery ends.
		tel.queueDecos.Set(0)
		tel.queueRes.Set(0)
	}

	counts := m.Snapshot()
	counts.Dropped = counts.Decoded - counts.Delivered
	m.dropped.Store(counts.Dropped)

	switch {
	case sinkErr != nil:
		return counts, sinkErr
	case srcErr != nil:
		return counts, srcErr
	case ctx.Err() != nil && !stopped:
		return counts, ctx.Err()
	}
	return counts, nil
}

// produce is a front's read stage: one goroutine pulls records off
// f.next and enqueues them batch by batch. It stops at EOF, on a read
// error, or when the context is cancelled (backpressure propagates
// here: a full channel blocks the read).
func (e *engine) produce(ctx context.Context, f *front, ring int) {
	defer close(f.done)
	defer close(f.raw)
	tel, rt := e.tel, e.rt
	// batchStart tracks read time per batch, excluding time blocked on
	// a full channel, which the queue gauge shows instead.
	var batchStart time.Time
	var lastBytes int64
	if tel != nil {
		batchStart = time.Now()
	}
	tring := rt.ring(ring, stageNames[f.stage]+"/"+itoa(ring))
	var span int32
	var trStart int64
	if rt != nil {
		span = rt.scan
		if f.stage == stageDecode {
			span = rt.decode
		}
		trStart = nowNS()
	}
	cur := e.getRaw()
	first := f.base
	flush := func() bool {
		n := cur.len()
		if n == 0 {
			return true
		}
		if tel != nil {
			tel.stageLat[f.stage].Observe(time.Since(batchStart).Nanoseconds())
			if f.bytesRead != nil {
				// Per-front deltas into the shared counter keep the
				// aggregate exact: each front only ever adds bytes its
				// own reader consumed.
				b := f.bytesRead()
				tel.capBytes.Add(b - lastBytes)
				lastBytes = b
			}
		}
		cur.first = first
		if rt != nil {
			// The front span and the batch's trace context must be
			// written before the send: after it the workers own cur.
			now := nowNS()
			cur.scanSpan = rt.t.NewSpanID()
			cur.enqNS = now
			rt.emit(tring, span, cur.scanSpan, rt.t.Root(),
				trStart, now, -1, f.shard, int64(first), int32(n))
		}
		select {
		case f.raw <- cur:
			if tel != nil {
				tel.queueDecos.Set(int64(len(f.raw)) * int64(e.batch))
				batchStart = time.Now()
			}
			if rt != nil {
				trStart = nowNS()
			}
			first += n
			cur = e.getRaw()
			return true
		case <-ctx.Done():
			return false
		}
	}
	for {
		err := f.next(cur)
		if err == nil {
			e.m.decoded.Add(1)
			if (cur.len() >= e.batch || len(cur.slab) >= maxSlabBytes) && !flush() {
				return
			}
			continue
		}
		if err == io.EOF {
			err = nil
			if f.check != nil {
				err = f.check()
			}
		}
		if err != nil {
			// Stop reading but do NOT cancel: the records already read
			// drain through and are delivered, mirroring the batch
			// reader's return-the-good-prefix behaviour. The error
			// surfaces once the pipeline is empty (tamperscan's exit 3).
			e.m.errors.Add(1)
			f.err = err
		}
		flush()
		return
	}
}

// work is one classifier worker serving front f. Each worker owns a
// private copy of the (stateless) classifier and a scratch arena, so
// records classify without shared state or per-record allocation.
// Workers exit when the front's channel closes (drain) or the context
// is cancelled.
func (e *engine) work(ctx context.Context, f *front, cl *core.Classifier, worker, ring int) {
	wcl := *cl // private instance: no false sharing across workers
	var scratch core.Scratch
	wring := e.rt.ring(ring, "worker/"+itoa(worker))
	for {
		// Receive under the context so cancellation (a signal, a
		// deadline) releases workers even while the producer is blocked
		// inside an uninterruptible read.
		var rb *rawBatch
		select {
		case b, ok := <-f.raw:
			if !ok {
				return
			}
			rb = b
		case <-ctx.Done():
			return
		}
		ib := e.decodeClassifyBatch(rb, &wcl, &scratch, worker, wring, f.shard)
		select {
		case f.results <- ib:
			if e.tel != nil {
				e.tel.queueRes.Set(int64(len(f.results)) * int64(e.batch))
			}
		case <-ctx.Done():
			return
		}
	}
}

// safeClassify contains a classifier panic to the one record that
// caused it, converting it to an Item error: it is counted, and the item
// is still forwarded so ordered delivery never stalls on the gap — one
// poisoned record must not take down the whole stream.
func safeClassify(cl *core.Classifier, s *core.Scratch, c *capture.Connection) (res core.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res = core.Result{}
			err = fmt.Errorf("pipeline: classifier panic: %v", r)
		}
	}()
	return cl.ClassifyWith(c, s), nil
}

// decodeClassifyBatch is the only worker body: decode rb's records into
// a recycled item batch's reusable Connection storage (skipped when the
// front decoded them already), return rb to its free list — before
// classification, so slabs recycle quickly — then classify, tally, and
// observe. worker is the caller's global worker index for per-worker
// observers. A decode error on one record (impossible for
// scanner-approved bytes, but contained anyway) poisons only that
// item, like a classifier panic.
func (e *engine) decodeClassifyBatch(rb *rawBatch, cl *core.Classifier, scratch *core.Scratch,
	worker int, ring *trace.Ring, shard int32) *itemBatch {
	m, tel, rt := e.m, e.tel, e.rt
	n := rb.len()
	first := rb.first
	ib := e.getItems()
	ib.scanSpan, ib.shard = rb.scanSpan, shard
	var stageStart time.Time
	if tel != nil {
		stageStart = time.Now()
	}
	var trStart int64
	if rt != nil {
		trStart = nowNS()
		// queue-wait: front enqueue → this pickup, on the worker's
		// ring (async in the Chrome export — see trace.QueueWaitName).
		rt.emit(ring, rt.queueWait, rt.t.NewSpanID(), rb.scanSpan,
			rb.enqNS, trStart, int32(worker), shard, int64(first), int32(n))
	}
	if len(rb.conns) > 0 {
		for i, c := range rb.conns {
			ib.items = append(ib.items, Item{Index: first + i, Conn: c})
		}
	} else {
		ib.conns = ib.conns[:cap(ib.conns)]
		for len(ib.conns) < n {
			ib.conns = append(ib.conns, capture.Connection{})
		}
		var decSpan uint64
		if rt != nil {
			decSpan = rt.t.NewSpanID()
		}
		for i := 0; i < n; i++ {
			c := &ib.conns[i]
			it := Item{Index: first + i, Conn: c}
			traceRec := rt != nil && rt.sampled(first+i)
			var trRecStart int64
			if traceRec {
				trRecStart = nowNS()
			}
			if err := capture.DecodeRecord(rb.slab[rb.offs[i]:rb.offs[i+1]], c); err != nil {
				it.Conn, it.Err = nil, fmt.Errorf("pipeline: decode: %w", err)
			}
			if traceRec {
				rt.emit(ring, rt.decodeRec, rt.t.NewSpanID(), decSpan,
					trRecStart, nowNS(), int32(worker), shard, int64(first+i), 1)
			}
			ib.items = append(ib.items, it)
		}
		if tel != nil {
			now := time.Now()
			tel.stageLat[stageDecode].Observe(now.Sub(stageStart).Nanoseconds())
			stageStart = now
		}
		if rt != nil {
			now := nowNS()
			rt.emit(ring, rt.decode, decSpan, ib.scanSpan,
				trStart, now, int32(worker), shard, int64(first), int32(n))
			trStart = now
		}
	}
	e.putRaw(rb) // ownership returns to the free list the fronts draw from
	var clsSpan uint64
	if rt != nil {
		clsSpan = rt.t.NewSpanID()
	}
	for i := range ib.items {
		it := &ib.items[i]
		traceRec := rt != nil && rt.sampled(it.Index)
		var trRecStart int64
		if traceRec {
			trRecStart = nowNS()
		}
		if it.Err == nil {
			it.Res, it.Err = safeClassify(cl, scratch, it.Conn)
			if it.Err != nil && rt != nil {
				rt.t.Flight().Record("ERROR", "classifier panic contained",
					trace.A("record", it.Index), trace.A("worker", worker), trace.A("err", it.Err))
			}
		}
		if it.Err != nil {
			m.errors.Add(1)
		} else {
			m.classified.Add(1)
			if it.Res.Signature.IsTampering() {
				m.tampering.Add(1)
			}
		}
		if tel != nil {
			tel.observeSig(worker, *it)
		}
		if traceRec {
			rt.emit(ring, rt.classifyRec, rt.t.NewSpanID(), clsSpan,
				trRecStart, nowNS(), int32(worker), shard, int64(it.Index), 1)
		}
	}
	if tel != nil {
		now := time.Now()
		tel.stageLat[stageClassify].Observe(now.Sub(stageStart).Nanoseconds())
		stageStart = now
	}
	var obsSpan uint64
	if rt != nil {
		now := nowNS()
		rt.emit(ring, rt.classify, clsSpan, ib.scanSpan,
			trStart, now, int32(worker), shard, int64(first), int32(n))
		trStart = now
		obsSpan = rt.t.NewSpanID()
	}
	// Observe runs as a second pass over the batch, sequential per
	// worker and before the batch is handed downstream, so its cost is
	// timed apart from the classify cost.
	if e.observe != nil {
		for i := range ib.items {
			traceRec := rt != nil && rt.sampled(ib.items[i].Index)
			var trRecStart int64
			if traceRec {
				trRecStart = nowNS()
			}
			e.observe(worker, ib.items[i])
			if traceRec {
				rt.emit(ring, rt.observeRec, rt.t.NewSpanID(), obsSpan,
					trRecStart, nowNS(), int32(worker), shard, int64(ib.items[i].Index), 1)
			}
		}
		if tel != nil {
			tel.stageLat[stageObserve].Observe(time.Since(stageStart).Nanoseconds())
		}
		if rt != nil {
			rt.emit(ring, rt.observe, obsSpan, ib.scanSpan,
				trStart, nowNS(), int32(worker), shard, int64(first), int32(n))
		}
	}
	return ib
}
