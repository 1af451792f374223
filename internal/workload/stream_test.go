package workload

import (
	"io"
	"runtime"
	"testing"
	"time"
)

func TestStreamSpecsMatchesRun(t *testing.T) {
	s, err := BuildScenario("stream-test", 1500, 24, 9)
	if err != nil {
		t.Fatal(err)
	}
	want := s.Run(1)
	for _, workers := range []int{1, 4} {
		sr := s.Stream(workers)
		i := 0
		for {
			c, err := sr.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("workers=%d: Next: %v", workers, err)
			}
			if i >= len(want) {
				t.Fatalf("workers=%d: stream yielded more than %d connections", workers, len(want))
			}
			w := want[i]
			if c.SrcIP != w.SrcIP || c.SrcPort != w.SrcPort || c.TotalPackets != w.TotalPackets ||
				len(c.Packets) != len(w.Packets) {
				t.Fatalf("workers=%d: connection %d differs from Run's output", workers, i)
			}
			i++
		}
		if i != len(want) {
			t.Errorf("workers=%d: streamed %d connections, Run produced %d", workers, i, len(want))
		}
	}
}

func TestStreamRunClose(t *testing.T) {
	s, err := BuildScenario("stream-close", 2000, 24, 13)
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	sr := s.Stream(4)
	// Consume a few, then abandon.
	for i := 0; i < 5; i++ {
		if _, err := sr.Next(); err != nil {
			t.Fatalf("Next: %v", err)
		}
	}
	sr.Close()
	sr.Close() // idempotent
	// After Close, Next drains to EOF rather than hanging.
	for {
		_, err := sr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("Next after Close: %v", err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	t.Errorf("goroutines leaked after Close: %d before, %d after\n%s",
		before, runtime.NumGoroutine(), buf[:n])
}

// TestStreamCloseDuringNext pins the cancelled-pipeline hand-off: a
// cancelled run returns to its caller — who Closes the source — while
// the pipeline's source goroutine may still be inside Next. Close and
// Next must be safe under that overlap (this is a -race test; the
// regression it guards was a data race on the drained flag, not a
// wrong result).
func TestStreamCloseDuringNext(t *testing.T) {
	for iter := 0; iter < 20; iter++ {
		s, err := BuildScenario("stream-overlap", 300, 24, uint64(21+iter))
		if err != nil {
			t.Fatal(err)
		}
		sr := s.Stream(2)
		done := make(chan struct{})
		go func() {
			defer close(done)
			for {
				if _, err := sr.Next(); err == io.EOF {
					return
				} else if err != nil {
					t.Errorf("Next: %v", err)
					return
				}
			}
		}()
		time.Sleep(time.Duration(iter%5) * time.Millisecond)
		sr.Close()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("Next did not drain to EOF after a concurrent Close")
		}
	}
}

// TestStreamBoundedReadAhead checks that an unconsumed stream parks
// after its bounded read-ahead instead of simulating every spec: the
// goroutine population during the stall stays at producer + worker
// pool, not one goroutine per remaining spec.
func TestStreamBoundedReadAhead(t *testing.T) {
	s, err := BuildScenario("stream-bound", 1200, 24, 17)
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	workers := 2
	sr := s.Stream(workers)
	time.Sleep(300 * time.Millisecond)
	if g := runtime.NumGoroutine(); g > before+workers+2 {
		t.Errorf("stalled stream is running %d goroutines over baseline (want ≤ %d)",
			g-before, workers+2)
	}
	n := 0
	for {
		_, err := sr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		n++
	}
	if n == 0 {
		t.Fatal("stream yielded nothing")
	}
}

// TestStreamRingBound pins the read-ahead bound itself: with nobody
// consuming, workers claim exactly as many chunks as the ring has
// slots (2×workers) and park; every chunk the consumer takes frees
// room for exactly one more.
func TestStreamRingBound(t *testing.T) {
	s, err := BuildScenario("stream-ring", 1200, 24, 19)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 2
	sr := s.Stream(workers)
	defer sr.Close()
	settle := func(want int64) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for sr.claimed.Load() < want && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		time.Sleep(50 * time.Millisecond) // an unbounded producer would run on
		if got := sr.claimed.Load(); got != want {
			t.Fatalf("stalled stream has claimed %d chunks, want %d", got, want)
		}
	}
	settle(2 * workers)
	if _, ok := sr.nextChunk(); !ok {
		t.Fatal("no first chunk")
	}
	settle(2*workers + 1)
}

// TestStreamCloseYieldsPrefix: after an early Close, what Next still
// returns continues Run's sequence without a gap or reordering — the
// chunks claimed before the Close, all of them, in spec order.
func TestStreamCloseYieldsPrefix(t *testing.T) {
	s, err := BuildScenario("stream-prefix", 1500, 24, 23)
	if err != nil {
		t.Fatal(err)
	}
	want := s.Run(1)
	sr := s.Stream(3)
	n := 0
	next := func() bool {
		c, err := sr.Next()
		if err == io.EOF {
			return false
		}
		if err != nil {
			t.Fatal(err)
		}
		if n >= len(want) || c.SrcIP != want[n].SrcIP || c.SrcPort != want[n].SrcPort {
			t.Fatalf("record %d after Close is not Run's record %d", n, n)
		}
		n++
		return true
	}
	for i := 0; i < 40; i++ {
		next()
	}
	sr.Close()
	for next() {
	}
	if n < 40 || n >= len(want) {
		t.Errorf("stream yielded %d of %d records around an early Close", n, len(want))
	}
	if _, err := sr.Next(); err != io.EOF {
		t.Errorf("Next after EOF = %v, want io.EOF again", err)
	}
}
