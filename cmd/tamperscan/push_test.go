package main

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"tamperdetect"
	"tamperdetect/internal/analysis"
	"tamperdetect/internal/fleet"
	"tamperdetect/internal/pipeline"
)

// testMergerServer boots a merger behind an httptest server and
// returns both.
func testMergerServer(t *testing.T) (*fleet.Merger, *httptest.Server) {
	t.Helper()
	m, err := fleet.NewMerger(fleet.MergerConfig{Fresh: analysis.NewFleetAggs})
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	for pat, h := range m.Handler() {
		mux.Handle(pat, h)
	}
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return m, srv
}

// fastPush shrinks the pusher's backoff for the duration of a test so
// retry exhaustion against a dead merger takes milliseconds.
func fastPush(t *testing.T) {
	t.Helper()
	old := testHookPusherConfig
	testHookPusherConfig = func(c *fleet.PusherConfig) {
		c.BaseBackoff = time.Millisecond
		c.MaxBackoff = 4 * time.Millisecond
		c.MaxAttempts = 2
		c.Timeout = 2 * time.Second
	}
	t.Cleanup(func() { testHookPusherConfig = old })
}

// TestRunPush: a -push scan delivers its snapshot to a live merger and
// the merger's counts match the scan.
func TestRunPush(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.tdcap")
	if err := tamperdetect.WriteCaptureFile(path, sampleConns()); err != nil {
		t.Fatal(err)
	}
	m, srv := testMergerServer(t)
	err := run(path, options{workers: 2, pushURL: srv.URL, pop: "test01"})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if st := m.Stats(); st.Accepted != 1 {
		t.Errorf("merger accepted %d frames, want 1", st.Accepted)
	}
	status := m.Status()
	if status.Counts.Delivered != int64(len(sampleConns())) {
		t.Errorf("merged Delivered = %d, want %d", status.Counts.Delivered, len(sampleConns()))
	}
	if len(status.PoPs) != 1 || status.PoPs[0].PoP != "test01" {
		t.Errorf("PoPs = %+v, want the named vantage", status.PoPs)
	}
}

// TestRunPushSpillAndResume: a scan against a dead merger spills its
// frame; the next scan resumes it into a live merger alongside its own.
func TestRunPushSpillAndResume(t *testing.T) {
	fastPush(t)
	path := filepath.Join(t.TempDir(), "x.tdcap")
	if err := tamperdetect.WriteCaptureFile(path, sampleConns()); err != nil {
		t.Fatal(err)
	}
	spill := t.TempDir()

	// Phase 1: nothing listens on the push URL; the frame must land on
	// disk and the scan itself must still succeed.
	if err := run(path, options{workers: 1, pushURL: "http://127.0.0.1:1", pop: "test01", pushSpill: spill}); err != nil {
		t.Fatalf("run against dead merger: %v", err)
	}
	files, err := os.ReadDir(spill)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 {
		t.Fatalf("spill dir holds %d files, want 1", len(files))
	}

	// Phase 2: live merger; the resumed frame and the new scan's frame
	// both arrive, and the spill dir empties.
	m, srv := testMergerServer(t)
	if err := run(path, options{workers: 1, pushURL: srv.URL, pop: "test01", pushSpill: spill}); err != nil {
		t.Fatalf("run with resume: %v", err)
	}
	if st := m.Stats(); st.Accepted != 2 {
		t.Errorf("merger accepted %d frames, want 2 (resumed + fresh)", st.Accepted)
	}
	files, err = os.ReadDir(spill)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 0 {
		t.Errorf("%d spill files left after resume", len(files))
	}
}

// TestRunPushFlushDeadlineIsNoLoss: a frame still retrying against a
// dead merger when finish's flush deadline passes is not lost — closing
// the pusher drains it into the spill directory — so the scan exits 0.
func TestRunPushFlushDeadlineIsNoLoss(t *testing.T) {
	old, oldFlush := testHookPusherConfig, pushFlushTimeout
	testHookPusherConfig = func(c *fleet.PusherConfig) {
		c.BaseBackoff = 50 * time.Millisecond
		c.MaxBackoff = 50 * time.Millisecond
		c.MaxAttempts = 4
		c.Timeout = 2 * time.Second
	}
	pushFlushTimeout = time.Millisecond
	t.Cleanup(func() { testHookPusherConfig, pushFlushTimeout = old, oldFlush })

	path := filepath.Join(t.TempDir(), "x.tdcap")
	if err := tamperdetect.WriteCaptureFile(path, sampleConns()); err != nil {
		t.Fatal(err)
	}
	spill := t.TempDir()
	if err := run(path, options{workers: 1, pushURL: "http://127.0.0.1:1", pop: "test01", pushSpill: spill}); err != nil {
		t.Fatalf("run = %v (exit %d), want nil: the frame was spilled, not lost", err, exitCode(err))
	}
	if files, _ := filepath.Glob(filepath.Join(spill, "*.snap")); len(files) != 1 {
		t.Errorf("spill dir holds %d .snap files, want 1", len(files))
	}
}

// TestRunPushRejectedExits4: a merger that answers 400 gets one attempt
// per frame; the frame is not retried, it is set aside as *.rejected
// (not spilled for resuming), and the scan reports the undelivered
// frame with exit status 4 instead of succeeding.
func TestRunPushRejectedExits4(t *testing.T) {
	fastPush(t)
	path := filepath.Join(t.TempDir(), "x.tdcap")
	if err := tamperdetect.WriteCaptureFile(path, sampleConns()); err != nil {
		t.Fatal(err)
	}
	var attempts atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		attempts.Add(1)
		http.Error(w, "fleet: compressed payload too large", http.StatusBadRequest)
	}))
	t.Cleanup(srv.Close)
	spill := t.TempDir()
	err := run(path, options{workers: 1, pushURL: srv.URL, pop: "test01", pushSpill: spill})
	if code := exitCode(err); err == nil || code != 4 {
		t.Errorf("run = %v (exit %d), want a lost-frame error (exit 4)", err, code)
	}
	if n := attempts.Load(); n != 1 {
		t.Errorf("merger saw %d attempts at the one frame, want 1", n)
	}
	if files, _ := filepath.Glob(filepath.Join(spill, "*.snap")); len(files) != 0 {
		t.Errorf("spill dir holds %d .snap files, want none: a rejected frame is not resumed", len(files))
	}
	if files, _ := filepath.Glob(filepath.Join(spill, "*.rejected")); len(files) != 1 {
		t.Errorf("spill dir holds %d .rejected files, want the one rejected frame", len(files))
	}
}

// TestRunSignalPartial: SIGTERM mid-scan drains the pipeline, prints
// the partial report, and surfaces the partial-results error (exit 3),
// with the already-scanned prefix still pushed to the merger.
func TestRunSignalPartial(t *testing.T) {
	m, srv := testMergerServer(t)

	// Feed the scan over a pipe that never reaches EOF: records go in,
	// then the scan blocks until the signal arrives.
	pr, pw, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Close()
	defer pw.Close()
	oldStdin := os.Stdin
	os.Stdin = pr
	defer func() { os.Stdin = oldStdin }()

	// Enough records to fill several pipeline batches: a mid-stream scan
	// only hands full batches to the workers, so the classified prefix
	// must span at least one.
	var conns []*tamperdetect.Connection
	for i := 0; i < 4*pipeline.DefaultBatchSize; i++ {
		conns = append(conns, sampleConns()...)
	}
	capPath := filepath.Join(t.TempDir(), "x.tdcap")
	if err := tamperdetect.WriteCaptureFile(capPath, conns); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(capPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pw.Write(raw); err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() { done <- run("-", options{workers: 1, pushURL: srv.URL, pop: "sig01"}) }()

	// Give the pipeline time to classify the prefix, then interrupt.
	time.Sleep(500 * time.Millisecond)
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("scan did not stop after SIGTERM")
	}
	var pe *partialError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v (%T), want *partialError", err, err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want to wrap context.Canceled", err)
	}
	if st := m.Stats(); st.Accepted != 1 {
		t.Errorf("merger accepted %d frames after interrupt, want 1", st.Accepted)
	}
}
