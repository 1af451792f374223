package netsim

import (
	"testing"
	"time"
)

// bothSims runs body on a fresh Sim and on one that lived a busy life
// — events fired, cancelled and still queued — before being Reset to
// start: every behaviour this package tests must be the same on both.
func bothSims(t *testing.T, start Time, body func(*testing.T, *Sim)) {
	t.Run("new", func(t *testing.T) { body(t, NewSim(start)) })
	t.Run("reset", func(t *testing.T) {
		s := NewSim(start + Time(time.Hour))
		for i := 0; i < 40; i++ {
			tm := s.Schedule(time.Duration(i%7)*time.Second, func() {
				s.Schedule(time.Hour, func() { t.Error("event from before the Reset ran") })
			})
			if i%3 == 0 {
				tm.Stop()
			}
		}
		s.Run(20)
		s.Reset(start)
		body(t, s)
	})
}

func TestSimOrdering(t *testing.T) { bothSims(t, 0, testSimOrdering) }

func testSimOrdering(t *testing.T, s *Sim) {
	var got []int
	s.Schedule(3*time.Second, func() { got = append(got, 3) })
	s.Schedule(1*time.Second, func() { got = append(got, 1) })
	s.Schedule(2*time.Second, func() { got = append(got, 2) })
	s.Run(0)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("order = %v, want [1 2 3]", got)
	}
	if s.Now() != Time(3*time.Second) {
		t.Errorf("Now = %v, want 3s", s.Now())
	}
}

func TestSimSameTimeFIFO(t *testing.T) { bothSims(t, 0, testSimSameTimeFIFO) }

func testSimSameTimeFIFO(t *testing.T, s *Sim) {
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.Schedule(time.Second, func() { got = append(got, i) })
	}
	s.Run(0)
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events out of schedule order: %v", got)
		}
	}
}

func TestSimNestedScheduling(t *testing.T) { bothSims(t, 0, testSimNestedScheduling) }

func testSimNestedScheduling(t *testing.T, s *Sim) {
	var fired []Time
	s.Schedule(time.Second, func() {
		fired = append(fired, s.Now())
		s.Schedule(2*time.Second, func() {
			fired = append(fired, s.Now())
		})
	})
	s.Run(0)
	if len(fired) != 2 || fired[0] != Time(time.Second) || fired[1] != Time(3*time.Second) {
		t.Errorf("fired = %v", fired)
	}
}

func TestTimerStop(t *testing.T) { bothSims(t, 0, testTimerStop) }

func testTimerStop(t *testing.T, s *Sim) {
	fired := false
	tm := s.Schedule(time.Second, func() { fired = true })
	tm.Stop()
	tm.Stop() // idempotent
	s.Run(0)
	if fired {
		t.Error("stopped timer fired")
	}
	var zero Timer
	zero.Stop() // must not panic
}

func TestRunUntil(t *testing.T) { bothSims(t, 0, testRunUntil) }

func testRunUntil(t *testing.T, s *Sim) {
	var got []int
	s.Schedule(1*time.Second, func() { got = append(got, 1) })
	s.Schedule(5*time.Second, func() { got = append(got, 5) })
	s.RunUntil(Time(2 * time.Second))
	if len(got) != 1 || got[0] != 1 {
		t.Errorf("got = %v, want [1]", got)
	}
	if s.Now() != Time(2*time.Second) {
		t.Errorf("Now = %v, want 2s", s.Now())
	}
	if s.Pending() != 1 {
		t.Errorf("Pending = %d, want 1", s.Pending())
	}
	s.Run(0)
	if len(got) != 2 {
		t.Errorf("final got = %v", got)
	}
}

func TestRunMaxSteps(t *testing.T) { bothSims(t, 0, testRunMaxSteps) }

func testRunMaxSteps(t *testing.T, s *Sim) {
	n := 0
	var reschedule func()
	reschedule = func() {
		n++
		s.Schedule(time.Millisecond, reschedule)
	}
	s.Schedule(0, reschedule)
	ran := s.Run(50)
	if ran != 50 || n != 50 {
		t.Errorf("ran=%d n=%d, want 50", ran, n)
	}
}

func TestNegativeDelay(t *testing.T) { bothSims(t, Time(time.Hour), testNegativeDelay) }

func testNegativeDelay(t *testing.T, s *Sim) {
	fired := Time(0)
	s.Schedule(-time.Second, func() { fired = s.Now() })
	s.Run(0)
	if fired != Time(time.Hour) {
		t.Errorf("negative delay fired at %v, want now", fired)
	}
}

func TestTimeHelpers(t *testing.T) {
	tm := Time(1_500_000_000) // 1.5 s
	if tm.Unix() != 1 {
		t.Errorf("Unix = %d, want 1", tm.Unix())
	}
	if tm.Seconds() != 1.5 {
		t.Errorf("Seconds = %v, want 1.5", tm.Seconds())
	}
	if tm.Add(500*time.Millisecond) != Time(2*time.Second) {
		t.Errorf("Add wrong")
	}
}
