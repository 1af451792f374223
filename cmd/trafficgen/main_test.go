package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tamperdetect"
	"tamperdetect/internal/analysis"
	"tamperdetect/internal/capture"
)

func TestRunGlobal(t *testing.T) {
	out := filepath.Join(t.TempDir(), "g.tdcap")
	if err := run(context.Background(), "global", "", 500, 6, 3, 2, "", out, "", "", "", true, 64); err != nil {
		t.Fatalf("run: %v", err)
	}
	conns, err := tamperdetect.ReadCaptureFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(conns) < 450 {
		t.Errorf("capture has %d connections", len(conns))
	}
	// The default run writes an index footer that describes exactly the
	// records in the file.
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	idx, err := capture.FindIndex(f, fi.Size(), out)
	if err != nil {
		t.Fatalf("FindIndex on trafficgen output: %v", err)
	}
	if idx.Records != len(conns) || idx.Interval != 64 {
		t.Errorf("index %+v, want %d records at interval 64", idx, len(conns))
	}
}

func TestRunIran(t *testing.T) {
	out := filepath.Join(t.TempDir(), "i.tdcap")
	if err := run(context.Background(), "iran2022", "", 400, 0, 3, 2, "lossy", out, "", "", "", true, 0); err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestRunConfig(t *testing.T) {
	cfg := filepath.Join(t.TempDir(), "s.json")
	if err := os.WriteFile(cfg, []byte(`{"total":200,"hours":6,"countries":[{"code":"AA","share":1,"blocked_seek_base":0.3,"styles":{"gfw":1}}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "c.tdcap")
	if err := run(context.Background(), "", cfg, 0, 0, 0, 2, "", out, "", "", "", false, capture.DefaultIndexInterval); err != nil {
		t.Fatalf("run(config): %v", err)
	}
}

func TestRunUnknownScenario(t *testing.T) {
	if err := run(context.Background(), "nope", "", 10, 1, 1, 1, "", filepath.Join(t.TempDir(), "x"), "", "", "", false, 0); err == nil {
		t.Error("unknown scenario accepted")
	}
	if err := run(context.Background(), "global", "", 10, 1, 1, 1, "nope", filepath.Join(t.TempDir(), "x"), "", "", "", false, 0); err == nil {
		t.Error("unknown impairment grade accepted")
	}
}

// TestRunDeterministicAcrossWorkers is the virtual-time determinism
// contract end to end: the same preset and seed must produce a
// byte-identical TDCAP regardless of worker count or repetition —
// the property scripts/check.sh gates on the full-size scenario.
func TestRunDeterministicAcrossWorkers(t *testing.T) {
	dir := t.TempDir()
	outs := make([][]byte, 0, 3)
	for i, workers := range []int{1, 4, 4} {
		out := filepath.Join(dir, fmt.Sprintf("d%d.tdcap", i))
		if err := run(context.Background(), "iran2022", "", 500, 24, 5, workers, "", out, "", "", "", false, 64); err != nil {
			t.Fatalf("run workers=%d: %v", workers, err)
		}
		data, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		outs = append(outs, data)
	}
	if !bytes.Equal(outs[0], outs[1]) {
		t.Error("workers=1 and workers=4 captures differ")
	}
	if !bytes.Equal(outs[1], outs[2]) {
		t.Error("two workers=4 runs differ")
	}
}

// TestRunVirtualWindowCoverage: capture timestamps from the
// event-queue generator must span the whole virtual window — every
// scenario hour populated, at sub-hour (1-second) resolution.
func TestRunVirtualWindowCoverage(t *testing.T) {
	const hours = 48
	out := filepath.Join(t.TempDir(), "w.tdcap")
	if err := run(context.Background(), "iran2022", "", 4000, hours, 11, 0, "", out, "", "", "", false, 0); err != nil {
		t.Fatalf("run: %v", err)
	}
	conns, err := tamperdetect.ReadCaptureFile(out)
	if err != nil {
		t.Fatal(err)
	}
	span := analysis.NewTimeSpanAgg()
	for _, c := range conns {
		if len(c.Packets) == 0 {
			continue
		}
		ts := c.Packets[0].Timestamp
		span.Add(&analysis.Record{Time: ts, Hour: int(ts / 3600)})
	}
	if err := span.Span().CoversWindow(hours); err != nil {
		t.Errorf("virtual window not covered: %v", err)
	}
}

// TestRunTraceRecordReplay: -trace-out records the arrival stream and
// -trace-in replays it to a byte-identical capture; a trace from a
// different seed is rejected.
func TestRunTraceRecordReplay(t *testing.T) {
	dir := t.TempDir()
	out1 := filepath.Join(dir, "a.tdcap")
	out2 := filepath.Join(dir, "b.tdcap")
	trace := filepath.Join(dir, "a.trace")
	if err := run(context.Background(), "iran2022", "", 400, 24, 3, 2, "", out1, "", trace, "", false, 64); err != nil {
		t.Fatalf("record run: %v", err)
	}
	if err := run(context.Background(), "iran2022", "", 400, 24, 3, 4, "", out2, "", "", trace, false, 64); err != nil {
		t.Fatalf("replay run: %v", err)
	}
	a, err := os.ReadFile(out1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(out2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("trace replay produced a different capture than the recording run")
	}
	// A different seed must refuse the trace.
	if err := run(context.Background(), "iran2022", "", 400, 24, 9, 2, "", out2, "", "", trace, false, 64); err == nil {
		t.Error("trace accepted against a different seed")
	}
}

// TestRunWithMetricsServer exercises the -metrics-addr wiring
// end-to-end: the server must start on an ephemeral port, the
// impaired run must count fault events, and shutdown must not wedge.
func TestRunWithMetricsServer(t *testing.T) {
	out := filepath.Join(t.TempDir(), "m.tdcap")
	if err := run(context.Background(), "global", "", 300, 6, 3, 2, "lossy", out, "127.0.0.1:0", "", "", false, 0); err != nil {
		t.Fatalf("run with metrics server: %v", err)
	}
	if _, err := tamperdetect.ReadCaptureFile(out); err != nil {
		t.Fatal(err)
	}
}

// TestRunInterrupted: a cancelled context (the signal path) still
// leaves a valid — possibly empty — capture file and reports the
// interruption as an error naming it.
func TestRunInterrupted(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out := filepath.Join(t.TempDir(), "p.tdcap")
	err := run(ctx, "global", "", 500, 6, 3, 2, "", out, "", "", "", false, 64)
	if err == nil {
		t.Fatal("interrupted run reported success")
	}
	if !strings.Contains(err.Error(), "interrupted") {
		t.Fatalf("err = %v, want an interrupted message", err)
	}
	// Whatever was written must still scan as a structurally valid
	// capture.
	if _, err := verifyCapture(out); err != nil {
		t.Fatalf("partial capture damaged: %v", err)
	}
}
