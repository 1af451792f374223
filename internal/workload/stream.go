package workload

import (
	"io"
	"runtime"
	"sync"
	"sync/atomic"

	"tamperdetect/internal/capture"
)

// streamChunk is how many contiguous specs a worker claims at a time:
// enough that the ring's synchronisation disappears next to the
// simulation (a chunk is a few hundred microseconds of it), small
// enough that the read-ahead stays a handful of records per worker.
const streamChunk = 16

// StreamRun simulates a scenario's specs with bounded parallelism and
// yields the sampled capture records incrementally, in spec order,
// through Next — the streaming counterpart of Run. It satisfies the
// classification pipeline's Source contract, so a scenario can be
// classified while it is still being simulated, without ever holding
// the full []*capture.Connection in memory.
//
// A fixed pool of workers claims chunks of streamChunk specs in spec
// order and parks each finished chunk in a ring of 2×workers slots
// that Next empties in order. A chunk can only be claimed while the
// ring has room for it, so at most 2×workers×streamChunk simulated
// connections are ever buffered ahead of the consumer, and a slow
// consumer throttles the simulation. The caller must either drain
// Next to io.EOF or call Close, or the worker goroutines leak.
type StreamRun struct {
	s     *Scenario
	specs []ConnSpec

	// claimed counts chunks handed to workers. room holds one token
	// per free ring slot: a worker takes one before claiming, Next
	// returns it once the chunk in that slot has been consumed.
	claimed atomic.Int64
	room    chan struct{}
	// ring[i%len(ring)] receives chunk i's records (nil where the
	// sampler did not select the connection). The token discipline
	// guarantees the slot's previous chunk was consumed, so the send
	// never blocks and chunks cannot overtake each other.
	ring []chan []*capture.Connection

	stop     chan struct{}
	stopOnce sync.Once
	// live counts running workers; the last one out closes exited.
	live   atomic.Int64
	exited chan struct{}

	// Consumer state, touched only by Next/nextChunk.
	next int // index of the next chunk to take from the ring
	cur  []*capture.Connection
}

// Stream starts a streaming simulation of all the scenario's specs
// with the given parallelism (0 = GOMAXPROCS).
func (s *Scenario) Stream(workers int) *StreamRun {
	return s.StreamSpecs(s.Specs(), workers)
}

// StreamSpecs starts a streaming simulation of a prepared spec list.
func (s *Scenario) StreamSpecs(specs []ConnSpec, workers int) *StreamRun {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	slots := 2 * workers
	sr := &StreamRun{
		s:      s,
		specs:  specs,
		room:   make(chan struct{}, slots),
		ring:   make([]chan []*capture.Connection, slots),
		stop:   make(chan struct{}),
		exited: make(chan struct{}),
	}
	for i := range sr.ring {
		sr.ring[i] = make(chan []*capture.Connection, 1)
		sr.room <- struct{}{}
	}
	sr.live.Store(int64(workers))
	for w := 0; w < workers; w++ {
		go sr.work()
	}
	return sr
}

// chunks is the number of chunks the spec list splits into.
func (sr *StreamRun) chunks() int {
	return (len(sr.specs) + streamChunk - 1) / streamChunk
}

// work is one worker: claim the next chunk while the ring has room,
// simulate it, park it; until the specs run out or Close.
func (sr *StreamRun) work() {
	defer func() {
		if sr.live.Add(-1) == 0 {
			close(sr.exited)
		}
	}()
	s := sr.s
	for {
		select {
		case <-sr.room:
		case <-sr.stop:
			return
		}
		i := int(sr.claimed.Add(1)) - 1
		if i >= sr.chunks() {
			return
		}
		lo := i * streamChunk
		hi := min(lo+streamChunk, len(sr.specs))
		out := make([]*capture.Connection, hi-lo)
		for j := range out {
			out[j] = SimulateConn(&sr.specs[lo+j], s.Universe, s.CaptureConfig, s.Impairments)
		}
		sr.ring[i%len(sr.ring)] <- out
	}
}

// nextChunk returns the next chunk's records in spec order, or false
// once every chunk was consumed or — after Close — once the chunks
// claimed before it have been.
func (sr *StreamRun) nextChunk() ([]*capture.Connection, bool) {
	if sr.next >= sr.chunks() {
		return nil, false
	}
	slot := sr.ring[sr.next%len(sr.ring)]
	var out []*capture.Connection
	select {
	case out = <-slot:
	case <-sr.exited:
		// Every worker is gone. A chunk parked before its worker left
		// is still in the slot; an empty slot means Close came first.
		select {
		case out = <-slot:
		default:
			sr.next = sr.chunks()
			return nil, false
		}
	}
	sr.next++
	// Workers that have stopped never take the token; the ring's
	// capacity keeps this from blocking regardless.
	sr.room <- struct{}{}
	return out, true
}

// Next returns the next sampled connection in spec order, skipping
// specs the sampler did not select, and io.EOF after the last spec.
// The sequence of non-nil records is exactly Run's output.
func (sr *StreamRun) Next() (*capture.Connection, error) {
	for {
		for len(sr.cur) > 0 {
			c := sr.cur[0]
			sr.cur = sr.cur[1:]
			if c != nil {
				return c, nil
			}
		}
		var ok bool
		if sr.cur, ok = sr.nextChunk(); !ok {
			return nil, io.EOF
		}
	}
}

// Close abandons the stream early: workers finish the chunk they are
// simulating and exit — Close returns once they have — and subsequent
// Next calls yield what was already simulated, then io.EOF. Close is
// idempotent, safe to defer alongside a full drain, and safe to call
// while another goroutine is blocked in Next (the cancelled-pipeline
// hand-off): it touches none of the consumer's state.
func (sr *StreamRun) Close() {
	sr.stopOnce.Do(func() { close(sr.stop) })
	<-sr.exited
}
