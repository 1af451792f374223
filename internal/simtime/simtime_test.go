package simtime

import (
	"testing"
	"time"
)

// bothEngines runs body on a fresh engine and on one that lived a busy
// life — events fired, cancelled and still queued, closures and typed
// events alike — before being Reset to start: every behaviour this
// file tests must be the same on both.
func bothEngines(t *testing.T, start Time, body func(*testing.T, *Engine)) {
	t.Run("new", func(t *testing.T) { body(t, New(start)) })
	t.Run("reset", func(t *testing.T) {
		s := New(start + Time(time.Hour))
		stale := func() { t.Error("event from before the Reset ran") }
		for i := 0; i < 40; i++ {
			tm := s.Schedule(time.Duration(i%7)*time.Second, func() { s.Schedule(time.Hour, stale) })
			if i%3 == 0 {
				tm.Stop()
			}
			s.ScheduleEvent(time.Duration(i%5)*time.Second, handlerFunc(func(int, []byte) {}), i, nil)
		}
		s.Run(30)
		s.Reset(start)
		body(t, s)
	})
}

type handlerFunc func(kind int, data []byte)

func (f handlerFunc) Fire(kind int, data []byte) { f(kind, data) }

func TestEventOrderAndClock(t *testing.T) { bothEngines(t, 0, testEventOrderAndClock) }

func testEventOrderAndClock(t *testing.T, s *Engine) {
	var order []int
	s.Schedule(30*time.Millisecond, func() { order = append(order, 3) })
	s.Schedule(10*time.Millisecond, func() { order = append(order, 1) })
	s.Schedule(20*time.Millisecond, func() {
		order = append(order, 2)
		if s.Now() != Time(20*time.Millisecond) {
			t.Errorf("Now = %d inside event at 20ms", s.Now())
		}
	})
	if n := s.Run(0); n != 3 {
		t.Fatalf("Run processed %d events", n)
	}
	for i, v := range order {
		if v != i+1 {
			t.Fatalf("order = %v", order)
		}
	}
	if s.Now() != Time(30*time.Millisecond) {
		t.Errorf("final Now = %d", s.Now())
	}
}

// TestTieBreakPreservesScheduleOrder pins the determinism contract:
// events at the same instant run in the order they were scheduled.
func TestTieBreakPreservesScheduleOrder(t *testing.T) {
	bothEngines(t, 0, testTieBreakPreservesScheduleOrder)
}

func testTieBreakPreservesScheduleOrder(t *testing.T, s *Engine) {
	var order []int
	for i := 0; i < 16; i++ {
		i := i
		s.Schedule(time.Millisecond, func() { order = append(order, i) })
	}
	s.Run(0)
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant order not FIFO: %v", order)
		}
	}
}

func TestScheduleAt(t *testing.T) { bothEngines(t, Time(5*time.Second), testScheduleAt) }

func testScheduleAt(t *testing.T, s *Engine) {
	var at []Time
	s.ScheduleAt(Time(7*time.Second), func() { at = append(at, s.Now()) })
	// Past deadlines clamp to now instead of rewinding the clock.
	s.ScheduleAt(Time(time.Second), func() { at = append(at, s.Now()) })
	s.Run(0)
	if len(at) != 2 || at[0] != Time(5*time.Second) || at[1] != Time(7*time.Second) {
		t.Fatalf("fire times = %v", at)
	}
}

func TestTimerStop(t *testing.T) { bothEngines(t, 0, testTimerStop) }

func testTimerStop(t *testing.T, s *Engine) {
	fired := false
	tm := s.Schedule(time.Millisecond, func() { fired = true })
	tm.Stop()
	tm.Stop() // idempotent
	(Timer{}).Stop()
	if n := s.Run(0); n != 0 || fired {
		t.Fatalf("cancelled event ran (n=%d fired=%v)", n, fired)
	}
}

func TestRunUntil(t *testing.T) { bothEngines(t, 0, testRunUntil) }

func testRunUntil(t *testing.T, s *Engine) {
	var fired []int
	s.Schedule(time.Second, func() { fired = append(fired, 1) })
	s.Schedule(3*time.Second, func() { fired = append(fired, 3) })
	s.RunUntil(Time(2 * time.Second))
	if len(fired) != 1 || fired[0] != 1 {
		t.Fatalf("fired = %v", fired)
	}
	if s.Now() != Time(2*time.Second) {
		t.Errorf("Now = %d after RunUntil", s.Now())
	}
	if s.Pending() != 1 {
		t.Errorf("Pending = %d", s.Pending())
	}
	s.Run(0)
	if len(fired) != 2 || s.Now() != Time(3*time.Second) {
		t.Fatalf("fired = %v, Now = %d", fired, s.Now())
	}
}

func TestMaxStepsGuard(t *testing.T) { bothEngines(t, 0, testMaxStepsGuard) }

func testMaxStepsGuard(t *testing.T, s *Engine) {
	var reschedule func()
	reschedule = func() { s.Schedule(time.Millisecond, reschedule) }
	s.Schedule(0, reschedule)
	if n := s.Run(100); n != 100 {
		t.Fatalf("Run(100) processed %d", n)
	}
	if s.Steps != 100 {
		t.Errorf("Steps = %d", s.Steps)
	}
}

func TestTimeConversions(t *testing.T) {
	tm := Time(90*time.Second + 500*time.Millisecond)
	if tm.Unix() != 90 {
		t.Errorf("Unix = %d", tm.Unix())
	}
	if tm.Seconds() != 90.5 {
		t.Errorf("Seconds = %f", tm.Seconds())
	}
	if tm.Add(500*time.Millisecond) != Time(91*time.Second) {
		t.Errorf("Add broken")
	}
}

func TestScheduleEvent(t *testing.T) { bothEngines(t, 0, testScheduleEvent) }

func testScheduleEvent(t *testing.T, s *Engine) {
	var got []int
	h := handlerFunc(func(kind int, data []byte) { got = append(got, kind, len(data)) })
	s.ScheduleEvent(2*time.Millisecond, h, 2, []byte("bb"))
	s.Schedule(time.Millisecond, func() { got = append(got, -1) })
	s.ScheduleEvent(time.Millisecond, h, 1, []byte("a")) // same instant as the closure: FIFO
	s.ScheduleEvent(-time.Second, h, 0, nil)             // negative delay clamps to now
	s.ScheduleEvent(3*time.Millisecond, h, 3, nil).Stop()
	if n := s.Run(0); n != 4 {
		t.Fatalf("Run processed %d events", n)
	}
	want := []int{0, 0, -1, 1, 1, 2, 2}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
}

// TestTimerStopAfterRecycle: events are recycled once they fire or are
// cancelled, so a Timer can outlive its event's incarnation. Stopping
// such a stale Timer must not cancel whatever the event is reused for
// — the retransmission timers in tcpsim Stop their previous handle
// right before re-arming, often from inside that very timer's body.
func TestTimerStopAfterRecycle(t *testing.T) {
	s := New(0)
	old := s.Schedule(time.Millisecond, func() {})
	s.Run(0)
	fired := false
	reused := s.Schedule(time.Millisecond, func() { fired = true })
	if reused.ev != old.ev {
		t.Fatal("the fired event was not reused; the test no longer covers recycling")
	}
	old.Stop()
	if s.Run(0); !fired {
		t.Fatal("stale Timer.Stop cancelled the event's next incarnation")
	}

	// From inside the firing body: re-arm first, then Stop the handle
	// of the timer that is firing.
	fired = false
	var self Timer
	self = s.Schedule(time.Millisecond, func() {
		next := s.Schedule(time.Millisecond, func() { fired = true })
		if next.ev != self.ev {
			t.Error("the firing event was not reused by its own body")
		}
		self.Stop()
	})
	if s.Run(0); !fired {
		t.Fatal("Stop on the firing timer cancelled the event its body scheduled")
	}

	// A cancelled event is recycled when the queue reaches it; its
	// Timer must be just as harmless afterwards.
	cancelled := s.Schedule(time.Millisecond, func() { t.Error("cancelled event ran") })
	cancelled.Stop()
	s.Run(0)
	fired = false
	s.Schedule(time.Millisecond, func() { fired = true })
	cancelled.Stop()
	if s.Run(0); !fired {
		t.Fatal("repeated Stop on a cancelled, recycled event cancelled its next incarnation")
	}
}

// TestEngineReset: Reset drops queued events, invalidates their Timers
// and restarts the clock, the schedule-order counter and Steps, so a
// reset engine breaks ties exactly as a fresh one does.
func TestEngineReset(t *testing.T) {
	trace := func(s *Engine) []int {
		var order []int
		for i := 0; i < 8; i++ {
			s.Schedule(time.Duration(i%2)*time.Millisecond, func() { order = append(order, i) })
		}
		s.Run(0)
		return order
	}
	s := New(Time(time.Minute))
	var timers []Timer
	for i := 0; i < 10; i++ {
		timers = append(timers, s.Schedule(time.Duration(i+1)*time.Second, func() { t.Error("dropped event ran") }))
	}
	s.Schedule(0, func() {})
	s.Run(1)
	s.Reset(Time(time.Second))
	if s.Pending() != 0 || len(s.queue) != 0 {
		t.Fatalf("Reset left %d events queued", len(s.queue))
	}
	if s.Now() != Time(time.Second) || s.Steps != 0 || s.seq != 0 {
		t.Fatalf("after Reset: now=%d steps=%d seq=%d", s.Now(), s.Steps, s.seq)
	}
	got, want := trace(s), trace(New(Time(time.Second)))
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("reset engine ran %v, fresh engine %v", got, want)
		}
	}
	// Handles from before the Reset point at recycled events.
	fired := 0
	for range timers {
		s.Schedule(time.Millisecond, func() { fired++ })
	}
	for _, tm := range timers {
		tm.Stop()
	}
	if s.Run(0); fired != len(timers) {
		t.Fatalf("pre-Reset Timers cancelled %d post-Reset events", len(timers)-fired)
	}
}
