package main

// End-to-end tests for the sharded ingest wiring: auto-detection of
// indexed captures, report parity with the single-scanner path, and —
// the correctness contract — that a missing, damaged, stale, or lying
// index degrades to the single-scanner scan with a warning, never to
// wrong output.

import (
	"bytes"
	"io"
	"net/netip"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"tamperdetect"
	"tamperdetect/internal/capture"
	"tamperdetect/internal/packet"
)

// manyConns builds a capture worth sharding: n connections with a mix
// of clean and tampered flows.
func manyConns(n int) []*tamperdetect.Connection {
	out := make([]*tamperdetect.Connection, n)
	for i := range out {
		c := &tamperdetect.Connection{
			SrcIP:   netip.AddrFrom4([4]byte{20, byte(i >> 16), byte(i >> 8), byte(i)}),
			DstIP:   netip.MustParseAddr("192.0.2.80"),
			SrcPort: uint16(30000 + i%30000), DstPort: 443, IPVersion: 4,
			TotalPackets: 2, LastActivity: 1, CloseTime: 30,
			Packets: []tamperdetect.PacketRecord{
				{Timestamp: 0, Flags: packet.FlagsSYN, Seq: 100, TTL: 54, IPID: 1, HasOptions: true},
				{Timestamp: 1, Flags: packet.FlagsACK, Seq: 101, TTL: 54, IPID: 2},
			},
		}
		if i%5 == 0 {
			c.Packets = append(c.Packets, tamperdetect.PacketRecord{
				Timestamp: 1, Flags: packet.FlagsRSTACK, Seq: 101, Ack: 7, TTL: 200, IPID: 50000,
			})
			c.TotalPackets = 3
		}
		out[i] = c
	}
	return out
}

// writeIndexed writes conns as an indexed capture file.
func writeIndexed(t *testing.T, path string, conns []*tamperdetect.Connection, interval int) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w := capture.NewWriter(f)
	if err := w.EnableIndex(interval); err != nil {
		t.Fatal(err)
	}
	for _, c := range conns {
		if err := w.Write(c); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
}

// capturedRun invokes run with stdout and stderr captured.
func capturedRun(t *testing.T, path string, opts options) (stdout, stderr string, err error) {
	t.Helper()
	grab := func(f **os.File) (*os.File, func() string) {
		old := *f
		pr, pw, perr := os.Pipe()
		if perr != nil {
			t.Fatal(perr)
		}
		*f = pw
		ch := make(chan string, 1)
		go func() {
			var buf bytes.Buffer
			io.Copy(&buf, pr)
			ch <- buf.String()
		}()
		return old, func() string {
			pw.Close()
			*f = old
			return <-ch
		}
	}
	_, outDone := grab(&os.Stdout)
	_, errDone := grab(&os.Stderr)
	err = run(path, opts)
	return outDone(), errDone(), err
}

// TestRunShardedParity: the sharded scan of an indexed capture must
// print the byte-identical report of the forced single-scanner scan,
// at explicit shard counts and in auto mode.
func TestRunShardedParity(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.tdcap")
	conns := manyConns(3000)
	writeIndexed(t, path, conns, 16)

	single, _, err := capturedRun(t, path, options{shards: 1, workers: 2})
	if err != nil {
		t.Fatalf("single-scanner run: %v", err)
	}
	if !strings.Contains(single, "connections:       3000") {
		t.Fatalf("single-scanner report did not cover the capture:\n%s", single)
	}
	for _, shards := range []int{0, 2, 4} {
		got, stderr, err := capturedRun(t, path, options{shards: shards, workers: 2})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if got != single {
			t.Errorf("shards=%d: report differs from single-scanner output\n--- sharded\n%s--- single\n%s", shards, got, single)
		}
		if strings.Contains(stderr, "WARN") {
			t.Errorf("shards=%d: unexpected warning:\n%s", shards, stderr)
		}
	}
}

// TestRunShardedFallsBackWithoutIndex: -shards on an unindexed capture
// warns and scans single-threaded; the report is still complete.
func TestRunShardedFallsBackWithoutIndex(t *testing.T) {
	path := filepath.Join(t.TempDir(), "plain.tdcap")
	conns := manyConns(200)
	if err := tamperdetect.WriteCaptureFile(path, conns); err != nil {
		t.Fatal(err)
	}
	stdout, stderr, err := capturedRun(t, path, options{shards: 4, workers: 2})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(stderr, "no segment index") {
		t.Errorf("no fallback warning on stderr:\n%s", stderr)
	}
	if !strings.Contains(stdout, "connections:       200") {
		t.Errorf("fallback scan incomplete:\n%s", stdout)
	}
	// Auto mode on an unindexed capture is the mundane case: silent.
	_, stderr, err = capturedRun(t, path, options{workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(stderr, "WARN") {
		t.Errorf("auto mode warned about a plain capture:\n%s", stderr)
	}
}

// TestRunShardedFallsBackOnDamagedSidecar: a corrupt sidecar index is
// reported and ignored; the scan completes single-threaded.
func TestRunShardedFallsBackOnDamagedSidecar(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.tdcap")
	conns := manyConns(200)
	if err := tamperdetect.WriteCaptureFile(path, conns); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(capture.SidecarPath(path), []byte("TDXSDC01garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	stdout, stderr, err := capturedRun(t, path, options{shards: 4, workers: 2})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(stderr, "WARN") || !strings.Contains(stderr, "single-threaded") {
		t.Errorf("damaged sidecar did not warn:\n%s", stderr)
	}
	if !strings.Contains(stdout, "connections:       200") {
		t.Errorf("fallback scan incomplete:\n%s", stdout)
	}
}

// writeLyingIndex writes a 400-record capture whose sidecar index is
// checksum-valid but undercounts by one record, and returns its path.
func writeLyingIndex(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "x.tdcap")
	if err := tamperdetect.WriteCaptureFile(path, manyConns(400)); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := capture.BuildIndex(bytes.NewReader(data), 1)
	if err != nil {
		t.Fatal(err)
	}
	idx.Offsets = idx.Offsets[:len(idx.Offsets)-1]
	idx.Records--
	idx.FileSize = int64(len(data))
	if err := os.WriteFile(capture.SidecarPath(path), capture.EncodeSidecar(idx), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRunShardedRescanOnLyingIndex is the strongest fallback contract:
// a checksum-valid sidecar that undercounts records passes every load
// check and only betrays itself at a seam mid-run. The sharded results
// must be discarded and the whole capture rescanned single-threaded —
// the final report identical to a never-sharded run.
func TestRunShardedRescanOnLyingIndex(t *testing.T) {
	path := writeLyingIndex(t)

	single, _, err := capturedRun(t, path, options{shards: 1, workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	stdout, stderr, err := capturedRun(t, path, options{shards: 4, workers: 2})
	if err != nil {
		t.Fatalf("run over lying index: %v", err)
	}
	if !strings.Contains(stderr, "rescanning single-threaded") {
		t.Errorf("mid-run index betrayal did not trigger the rescan warning:\n%s", stderr)
	}
	// The report must be the complete 400-connection one, not the
	// 399 records the lying index admitted to.
	if !strings.Contains(stdout, "connections:       400") || stdout != single {
		t.Errorf("rescan report differs from the single-scanner report:\n--- rescan\n%s--- single\n%s", stdout, single)
	}
}

// TestRunShardedRescanPushCounts: the discarded sharded attempt must
// leave no trace on the fleet side — the one pushed frame carries the
// rescan's counters only (the attempts share one pipeline.Metrics), and
// the discarded attempt's pusher and epoch ticker are torn down.
func TestRunShardedRescanPushCounts(t *testing.T) {
	path := writeLyingIndex(t)
	m, srv := testMergerServer(t)
	_, stderr, err := capturedRun(t, path, options{
		shards: 4, workers: 2, pushURL: srv.URL, pop: "test01", pushInterval: time.Hour,
	})
	if err != nil {
		t.Fatalf("run over lying index: %v", err)
	}
	if !strings.Contains(stderr, "rescanning single-threaded") {
		t.Fatalf("no rescan happened:\n%s", stderr)
	}
	if st := m.Stats(); st.Accepted != 1 {
		t.Errorf("merger accepted %d frames, want 1", st.Accepted)
	}
	if c := m.Status().Counts; c.Delivered != 400 || c.Errors != 0 {
		t.Errorf("merged counts %+v, want Delivered 400 and Errors 0 (the rescan alone)", c)
	}
	buf := make([]byte, 1<<20)
	stacks := string(buf[:runtime.Stack(buf, true)])
	for _, fn := range []string{"(*fleetPush).tick", "(*Pusher).loop"} {
		if strings.Contains(stacks, fn) {
			t.Errorf("%s goroutine outlived run:\n%s", fn, stacks)
		}
	}
}

// A seam shifted into the middle of a record passes the sidecar's
// upfront validation (counts and file size stay honest) and can slip
// past boundary re-validation, surfacing downstream as a generic
// decode error instead of ErrBadIndex. Any sharded scan error must
// distrust the index and rescan — otherwise the lie becomes a wrong
// partial report.
func TestRunShardedRescanOnMidRecordSeam(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.tdcap")
	conns := manyConns(400)
	if err := tamperdetect.WriteCaptureFile(path, conns); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Interval 100 over 400 records yields exactly 4 index points, so
	// a 4-shard placement must use every point as a seam — including
	// the shifted one.
	idx, err := capture.BuildIndex(bytes.NewReader(data), 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(idx.Offsets) != 4 {
		t.Fatalf("want 4 index points, got %d", len(idx.Offsets))
	}
	idx.Offsets[2] += 7
	idx.FileSize = int64(len(data))
	if err := os.WriteFile(capture.SidecarPath(path), capture.EncodeSidecar(idx), 0o644); err != nil {
		t.Fatal(err)
	}

	single, _, err := capturedRun(t, path, options{shards: 1, workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	stdout, stderr, err := capturedRun(t, path, options{shards: 4, workers: 2})
	if err != nil {
		t.Fatalf("run over mid-record seam: %v", err)
	}
	if !strings.Contains(stderr, "rescanning single-threaded") {
		t.Errorf("mid-record seam did not trigger the rescan warning:\n%s", stderr)
	}
	if !strings.Contains(stdout, "connections:       400") || stdout != single {
		t.Errorf("rescan report differs from the single-scanner report:\n--- rescan\n%s--- single\n%s", stdout, single)
	}
}
