package main

// The paper golden: the full `paperbench -total 20000 all` report,
// pinned byte for byte. Every other gate in the repo compares two
// implementations against each other; this one compares the printed
// tables and figures against what the repo printed when the golden was
// last regenerated. Regenerate it only on purpose (and say why in
// CHANGES.md), from the repo root:
//
//	go run ./cmd/paperbench -total 20000 all | grep -v -e '^# dataset:' -e '^# robustness:' > cmd/paperbench/testdata/all-20000.golden
//
// The two filtered lines carry wall-clock durations; nothing else in
// the report depends on the host or on -workers.

import (
	"context"
	"io"
	"os"
	"strings"
	"testing"
)

// stripWallClock drops the report lines that carry wall-clock timings.
func stripWallClock(out string) string {
	lines := strings.SplitAfter(out, "\n")
	kept := lines[:0]
	for _, l := range lines {
		if strings.HasPrefix(l, "# dataset:") || strings.HasPrefix(l, "# robustness:") {
			continue
		}
		kept = append(kept, l)
	}
	return strings.Join(kept, "")
}

// captureStdout runs fn with os.Stdout redirected and returns what it
// printed.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	orig := os.Stdout
	os.Stdout = w
	done := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		done <- b
	}()
	runErr := fn()
	os.Stdout = orig
	w.Close()
	out := <-done
	r.Close()
	if runErr != nil {
		t.Fatalf("run: %v", runErr)
	}
	return string(out)
}

func TestAllMatchesGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/all-20000.golden")
	if err != nil {
		t.Fatal(err)
	}
	got := stripWallClock(captureStdout(t, func() error {
		return run(context.Background(), "all", "", 20000, 14*24, 2023, 2, 3, 0, "", "", 0, instruments{})
	}))
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("report diverges from the golden at line %d:\n got: %q\nwant: %q", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("report has %d lines, golden %d (%d vs %d bytes)", len(gl), len(wl), len(got), len(want))
}
