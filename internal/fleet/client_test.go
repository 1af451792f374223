package fleet

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// fastPusher returns a config tuned for tests: microsecond backoff,
// few attempts.
func fastPusher(url string, mod func(*PusherConfig)) PusherConfig {
	cfg := PusherConfig{
		URL:         url,
		Timeout:     2 * time.Second,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  4 * time.Millisecond,
		MaxAttempts: 4,
		QueueLen:    16,
	}
	if mod != nil {
		mod(&cfg)
	}
	return cfg
}

type rtFunc func(*http.Request) (*http.Response, error)

func (f rtFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// TestPusherDelivers: the happy path end-to-end into a live merger.
func TestPusherDelivers(t *testing.T) {
	pops, _ := fleetDataset(t)
	m := newTestMerger(t, nil)
	mux := http.NewServeMux()
	for pat, h := range m.Handler() {
		mux.Handle(pat, h)
	}
	srv := httptest.NewServer(mux)
	defer srv.Close()

	p, err := NewPusher(fastPusher(srv.URL, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	frames := popFrames(t, "pop00", pops[0])
	for _, f := range frames {
		if err := p.Push(f); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := p.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.Delivered != int64(len(frames)) || st.Failed != 0 {
		t.Errorf("pusher stats = %+v", st)
	}
	if st := m.Stats(); st.Accepted != int64(len(frames)) {
		t.Errorf("merger stats = %+v", st)
	}
}

// TestPusherRetriesThenDelivers: transient 503s are retried with
// backoff until the service recovers.
func TestPusherRetriesThenDelivers(t *testing.T) {
	pops, _ := fleetDataset(t)
	m := newTestMerger(t, nil)
	mux := http.NewServeMux()
	for pat, h := range m.Handler() {
		mux.Handle(pat, h)
	}
	fails := 3
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if fails > 0 {
			fails--
			http.Error(w, "warming up", http.StatusServiceUnavailable)
			return
		}
		mux.ServeHTTP(w, r)
	}))
	defer srv.Close()

	p, err := NewPusher(fastPusher(srv.URL, func(c *PusherConfig) { c.MaxAttempts = 8 }))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	frame := popFrames(t, "pop00", pops[0])[0]
	if err := p.Push(frame); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := p.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.Delivered != 1 || st.Retries < 3 {
		t.Errorf("pusher stats = %+v, want 1 delivered after >=3 retries", st)
	}
}

// TestPusherSpillAndResume: a dead merger loses nothing — frames
// spill to disk and a later pusher resumes them into a live merger.
func TestPusherSpillAndResume(t *testing.T) {
	pops, _ := fleetDataset(t)
	dir := t.TempDir()

	// Phase 1: merger unreachable; every frame must settle on disk.
	dead := rtFunc(func(*http.Request) (*http.Response, error) {
		return nil, errors.New("merger down")
	})
	p1, err := NewPusher(fastPusher("http://merger.invalid", func(c *PusherConfig) {
		c.SpillDir = dir
		c.MaxAttempts = 2
		c.Client = &http.Client{Transport: dead}
	}))
	if err != nil {
		t.Fatal(err)
	}
	frames := popFrames(t, "pop00", pops[0])
	for _, f := range frames {
		if err := p1.Push(f); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := p1.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	p1.Close()
	if st := p1.Stats(); st.Spilled != int64(len(frames)) || st.Failed != 0 {
		t.Fatalf("phase 1 stats = %+v, want all %d spilled", st, len(frames))
	}

	// Phase 2: merger up; Resume must deliver every spilled frame and
	// clean up the directory.
	m := newTestMerger(t, nil)
	mux := http.NewServeMux()
	for pat, h := range m.Handler() {
		mux.Handle(pat, h)
	}
	srv := httptest.NewServer(mux)
	defer srv.Close()
	p2, err := NewPusher(fastPusher(srv.URL, func(c *PusherConfig) { c.SpillDir = dir }))
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	n, err := p2.Resume()
	if err != nil {
		t.Fatal(err)
	}
	if n != len(frames) {
		t.Fatalf("Resume = %d, want %d", n, len(frames))
	}
	if err := p2.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if st := m.Stats(); st.Accepted != int64(len(frames)) {
		t.Errorf("merger stats after resume = %+v", st)
	}
	left, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Errorf("%d spill files left after acknowledged resume", len(left))
	}
}

// TestPusherQueueFull: without a spill dir a full queue is an error,
// not a block.
func TestPusherQueueFull(t *testing.T) {
	blocked := make(chan struct{})
	slow := rtFunc(func(*http.Request) (*http.Response, error) {
		<-blocked
		return nil, errors.New("never")
	})
	p, err := NewPusher(fastPusher("http://merger.invalid", func(c *PusherConfig) {
		c.QueueLen = 1
		c.MaxAttempts = 1
		c.Client = &http.Client{Transport: slow}
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { close(blocked); p.Close() }()

	// First frame occupies the worker, second fills the queue; a third
	// must fail fast.
	p.Push([]byte("a"))
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := p.Push([]byte("b")); err != nil {
			if !errors.Is(err, ErrQueueFull) {
				t.Fatalf("err = %v, want ErrQueueFull", err)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("queue never filled")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPusherRejectedFrameOneAttempt: a permanent 4xx costs one attempt
// and is counted rejected and set aside as *.rejected, never spilled
// for resuming; 408 and 429 stay transient. A rejected resumed frame's
// file is renamed to *.rejected, and a rename that fails counts the
// frame failed.
func TestPusherRejectedFrameOneAttempt(t *testing.T) {
	for _, tc := range []struct {
		status   int
		rejected bool
	}{
		{http.StatusBadRequest, true},
		{http.StatusRequestEntityTooLarge, true},
		{http.StatusRequestTimeout, false},
		{http.StatusTooManyRequests, false},
	} {
		attempts := 0
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			attempts++
			http.Error(w, "no", tc.status)
		}))
		dir := t.TempDir()
		p, err := NewPusher(fastPusher(srv.URL, func(c *PusherConfig) { c.SpillDir = dir }))
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Push([]byte("frame")); err != nil {
			t.Fatal(err)
		}
		p.Close()
		srv.Close()
		st := p.Stats()
		files, _ := filepath.Glob(filepath.Join(dir, "*.snap"))
		kept, _ := filepath.Glob(filepath.Join(dir, "*.rejected"))
		if tc.rejected {
			if attempts != 1 || st.Rejected != 1 || st.Spilled != 0 || st.Retries != 0 || st.Failed != 0 ||
				len(files) != 0 || len(kept) != 1 {
				t.Errorf("status %d: %d attempts, %d spill files, %d rejected files, stats %+v; want 1 attempt, rejected, set aside, nothing spilled",
					tc.status, attempts, len(files), len(kept), st)
			}
		} else if attempts != 4 || st.Rejected != 0 || st.Spilled != 1 || len(files) != 1 || len(kept) != 0 {
			t.Errorf("status %d: %d attempts, %d spill files, stats %+v; want 4 attempts, then a spill",
				tc.status, attempts, len(files), st)
		}
	}

	dir := t.TempDir()
	spilled := dir + "/00000000000000000001-000001.snap"
	if err := os.WriteFile(spilled, []byte("frame"), 0o644); err != nil {
		t.Fatal(err)
	}
	attempts := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		attempts++
		http.Error(w, "bad frame", http.StatusBadRequest)
	}))
	defer srv.Close()
	p, err := NewPusher(fastPusher(srv.URL, func(c *PusherConfig) { c.SpillDir = dir }))
	if err != nil {
		t.Fatal(err)
	}
	if n, err := p.Resume(); n != 1 || err != nil {
		t.Fatalf("Resume = %d, %v", n, err)
	}
	p.Close()
	if _, err := os.Stat(dir + "/00000000000000000001-000001.rejected"); err != nil {
		t.Errorf("rejected spill file not set aside: %v", err)
	}
	if st := p.Stats(); attempts != 1 || st.Rejected != 1 || st.Spilled != 0 {
		t.Errorf("resumed rejection: %d attempts, stats %+v", attempts, st)
	}
	if left, _ := os.ReadDir(dir); len(left) != 1 {
		t.Errorf("spill dir holds %d files, want only the rejected frame", len(left))
	}

	// A set-aside that fails (here: the *.rejected name is taken by a
	// directory) leaves the frame counted failed as well as rejected.
	dir = t.TempDir()
	spilled = dir + "/00000000000000000001-000001.snap"
	if err := os.WriteFile(spilled, []byte("frame"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dir+"/00000000000000000001-000001.rejected/x", 0o755); err != nil {
		t.Fatal(err)
	}
	p, err = NewPusher(fastPusher(srv.URL, func(c *PusherConfig) { c.SpillDir = dir }))
	if err != nil {
		t.Fatal(err)
	}
	if n, err := p.Resume(); n != 1 || err != nil {
		t.Fatalf("Resume = %d, %v", n, err)
	}
	p.Close()
	if st := p.Stats(); st.Rejected != 1 || st.Failed != 1 {
		t.Errorf("failed set-aside: stats %+v, want rejected and failed", st)
	}
}
