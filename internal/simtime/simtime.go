// Package simtime is the shared discrete-event virtual-time core: a
// heap-backed event queue with a deterministic clock and cancellable
// timers. It was extracted from internal/netsim (which keeps type
// aliases; per-connection simulation semantics are byte-identical —
// pinned by workload's TestSimCorpusGolden) so that the workload layer
// can schedule *connection arrivals* on the same engine the
// packet-level simulator uses for retransmission timers: one clock
// abstraction spans everything from a 14-day scenario window down to
// a sub-millisecond RTO, and capture timestamps fall out of virtual
// time instead of being painted on.
//
// An Engine is single-threaded by design: determinism comes from the
// (time, schedule-order) total order of its queue, so two runs with
// the same seed replay the exact same event sequence. Run one Engine
// per goroutine. The generator simulates connection after connection
// on one Engine: Reset restarts it indistinguishably from a new one
// while keeping its storage, fired events are recycled (Timers carry
// the event's generation so a stale handle cancels nothing), and
// ScheduleEvent schedules onto a Handler without a closure — in steady
// state scheduling allocates nothing.
package simtime

import "time"

// Time is virtual time, in nanoseconds since scenario start.
type Time int64

// Add shifts the time by a standard duration.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Seconds returns the time in (floating point) seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// Unix returns the whole-second timestamp the capture pipeline records
// (the paper's 1-second granularity).
func (t Time) Unix() int64 { return int64(t) / 1e9 }

// Handler is an event target that needs no per-event closure: the
// engine keeps kind and data in the (recycled) event itself, so
// scheduling onto a long-lived Handler allocates nothing.
type Handler interface {
	Fire(kind int, data []byte)
}

// event is a scheduled callback: either fn, or h.Fire(kind, data).
type event struct {
	at   Time
	seq  uint64 // tiebreaker preserving schedule order
	fn   func()
	h    Handler
	kind int
	data []byte
	dead bool
	// gen counts how often this event has been recycled; a Timer only
	// cancels the incarnation it was issued for.
	gen uint32
}

// Timer handles allow cancelling a scheduled event (e.g. a TCP
// retransmission timer that was answered).
type Timer struct {
	ev  *event
	gen uint32
}

// Stop cancels the timer if it has not fired. Safe to call repeatedly,
// on a zero Timer, and after the timer fired: events are recycled, and
// a stale handle must not cancel whatever the event is reused for.
func (t Timer) Stop() {
	if t.ev != nil && t.ev.gen == t.gen {
		t.ev.dead = true
	}
}

// before is the queue's total order: time, then schedule order.
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// Engine is a single-threaded discrete-event simulator. It is not safe
// for concurrent use; run one Engine per goroutine.
type Engine struct {
	now   Time
	queue []*event // binary min-heap under event.before
	free  []*event // fired, cancelled or dropped events awaiting reuse
	seq   uint64
	// Steps counts processed events, a cheap runaway guard for tests.
	Steps int
}

// New returns an engine starting at the given virtual time.
func New(start Time) *Engine {
	return &Engine{now: start}
}

// Reset drops every queued event and restarts the clock at start, with
// the schedule-order counter and Steps back at zero: the engine then
// orders events exactly as a fresh one would, but reuses its queue and
// event storage. Timers issued before the Reset become no-ops.
func (s *Engine) Reset(start Time) {
	for i, ev := range s.queue {
		s.recycle(ev)
		s.queue[i] = nil
	}
	s.queue = s.queue[:0]
	s.now, s.seq, s.Steps = start, 0, 0
}

// recycle invalidates outstanding Timers for ev and returns it to the
// free list, dropping what it referenced.
func (s *Engine) recycle(ev *event) {
	ev.gen++
	ev.fn, ev.h, ev.data, ev.dead = nil, nil, nil, false
	s.free = append(s.free, ev)
}

// Now returns the current virtual time.
func (s *Engine) Now() Time { return s.now }

// Schedule runs fn after d of virtual time and returns a cancellable
// handle. A negative d schedules immediately.
func (s *Engine) Schedule(d time.Duration, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	return s.ScheduleAt(s.now.Add(d), fn)
}

// ScheduleAt runs fn at the given absolute virtual time and returns a
// cancellable handle. A time in the past schedules at the current
// instant (the event still runs, after already-queued events at now).
func (s *Engine) ScheduleAt(at Time, fn func()) Timer {
	ev := s.push(at)
	ev.fn = fn
	return Timer{ev: ev, gen: ev.gen}
}

// ScheduleEvent calls h.Fire(kind, data) after d of virtual time; it
// is Schedule without the closure.
func (s *Engine) ScheduleEvent(d time.Duration, h Handler, kind int, data []byte) Timer {
	if d < 0 {
		d = 0
	}
	ev := s.push(s.now.Add(d))
	ev.h, ev.kind, ev.data = h, kind, data
	return Timer{ev: ev, gen: ev.gen}
}

// push queues a blank event at the given time (clamped to now).
func (s *Engine) push(at Time) *event {
	if at < s.now {
		at = s.now
	}
	var ev *event
	if n := len(s.free); n > 0 {
		ev = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		ev = new(event)
	}
	s.seq++
	ev.at, ev.seq = at, s.seq
	q := append(s.queue, ev)
	for i := len(q) - 1; i > 0; {
		parent := (i - 1) / 2
		if !ev.before(q[parent]) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
	s.queue = q
	return ev
}

// pop removes and returns the earliest queued event.
func (s *Engine) pop() *event {
	q := s.queue
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = nil
	q = q[:n]
	for i := 0; n > 0; {
		child := 2*i + 1
		if child >= n {
			q[i] = last
			break
		}
		if r := child + 1; r < n && q[r].before(q[child]) {
			child = r
		}
		if !q[child].before(last) {
			q[i] = last
			break
		}
		q[i] = q[child]
		i = child
	}
	s.queue = q
	return top
}

// step pops the earliest event and, unless it was cancelled, advances
// the clock and runs it. The event is recycled before its body runs,
// so the body's own scheduling can reuse it.
func (s *Engine) step() bool {
	ev := s.pop()
	if ev.dead {
		s.recycle(ev)
		return false
	}
	at, fn, h, kind, data := ev.at, ev.fn, ev.h, ev.kind, ev.data
	s.recycle(ev)
	s.now = at
	if fn != nil {
		fn()
	} else {
		h.Fire(kind, data)
	}
	s.Steps++
	return true
}

// Run processes events until the queue is empty or maxSteps events have
// run (0 means no limit). It returns the number of events processed.
func (s *Engine) Run(maxSteps int) int {
	n := 0
	for len(s.queue) > 0 {
		if maxSteps > 0 && n >= maxSteps {
			break
		}
		if s.step() {
			n++
		}
	}
	return n
}

// RunUntil processes events with at ≤ deadline, advancing the clock to
// the deadline afterwards.
func (s *Engine) RunUntil(deadline Time) {
	for len(s.queue) > 0 && s.queue[0].at <= deadline {
		s.step()
	}
	if s.now < deadline {
		s.now = deadline
	}
}

// Pending reports the number of live events still queued.
func (s *Engine) Pending() int {
	n := 0
	for _, ev := range s.queue {
		if !ev.dead {
			n++
		}
	}
	return n
}
