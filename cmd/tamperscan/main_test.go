package main

import (
	"bytes"
	"errors"
	"io"
	"net/netip"
	"os"
	"path/filepath"
	"testing"

	"tamperdetect"
	"tamperdetect/internal/packet"
	"tamperdetect/internal/pcap"
	"tamperdetect/internal/pipeline"
)

func sampleConns() []*tamperdetect.Connection {
	return []*tamperdetect.Connection{{
		SrcIP: netip.MustParseAddr("20.0.0.1"), DstIP: netip.MustParseAddr("192.0.2.80"),
		SrcPort: 40000, DstPort: 443, IPVersion: 4,
		TotalPackets: 3, LastActivity: 1, CloseTime: 30,
		Packets: []tamperdetect.PacketRecord{
			{Timestamp: 0, Flags: packet.FlagsSYN, Seq: 100, TTL: 54, IPID: 1, HasOptions: true},
			{Timestamp: 0, Flags: packet.FlagsACK, Seq: 101, TTL: 54, IPID: 2},
			{Timestamp: 1, Flags: packet.FlagsRSTACK, Seq: 101, Ack: 7, TTL: 200, IPID: 50000},
		},
	}}
}

// drainSource collects a streaming source, failing on any non-EOF
// error. TDCAP paths come back from openSource as a raw reader for
// the parallel scan pipeline; wrap those in a ReaderSource so either
// format drains the same way.
func drainSource(t *testing.T, path string) []*tamperdetect.Connection {
	t.Helper()
	src, tdcap, _, cleanup, err := openSource(path)
	if err != nil {
		t.Fatalf("openSource: %v", err)
	}
	defer cleanup()
	if tdcap != nil {
		src = pipeline.NewReaderSource(tdcap)
	}
	var conns []*tamperdetect.Connection
	for {
		c, err := src.Next()
		if err == io.EOF {
			return conns
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		conns = append(conns, c)
	}
}

func TestOpenSourceTDCAP(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.tdcap")
	if err := tamperdetect.WriteCaptureFile(path, sampleConns()); err != nil {
		t.Fatal(err)
	}
	conns := drainSource(t, path)
	if len(conns) != 1 || len(conns[0].Packets) != 3 {
		t.Errorf("loaded %d conns", len(conns))
	}
}

func TestLoadCapturePcap(t *testing.T) {
	// Build a raw-IP pcap with one inbound flow plus an outbound packet
	// that the sampler must ignore.
	var buf bytes.Buffer
	w := pcap.NewWriter(&buf, 0)
	mk := func(src, dst string, sport, dport uint16, flags packet.TCPFlags, seq uint32) []byte {
		ip := packet.IPv4{TTL: 60, ID: 9, Protocol: 6,
			SrcIP: netip.MustParseAddr(src), DstIP: netip.MustParseAddr(dst)}
		tcp := packet.TCP{SrcPort: sport, DstPort: dport, Seq: seq, Flags: flags, Window: 1000}
		tcp.SetNetworkLayerForChecksum(&ip)
		sb := packet.NewSerializeBuffer()
		if err := packet.SerializeLayers(sb, packet.SerializeOptions{FixLengths: true, ComputeChecksums: true}, &ip, &tcp); err != nil {
			t.Fatal(err)
		}
		out := make([]byte, sb.Len())
		copy(out, sb.Bytes())
		return out
	}
	if err := w.Write(0, mk("20.0.0.5", "192.0.2.80", 40000, 443, packet.FlagsSYN, 100)); err != nil {
		t.Fatal(err)
	}
	// Outbound SYN+ACK: ignored by the inbound-only sampler.
	if err := w.Write(1e6, mk("192.0.2.80", "20.0.0.5", 443, 40000, packet.FlagsSYNACK, 900)); err != nil {
		t.Fatal(err)
	}
	if err := w.Write(2e6, mk("20.0.0.5", "192.0.2.80", 40000, 443, packet.FlagsACK, 101)); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "x.pcap")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	conns := drainSource(t, path)
	if len(conns) != 1 {
		t.Fatalf("conns = %d, want 1", len(conns))
	}
	if conns[0].TotalPackets != 2 {
		t.Errorf("inbound packets = %d, want 2 (SYN+ACK excluded)", conns[0].TotalPackets)
	}
}

func TestOpenSourceErrors(t *testing.T) {
	if _, _, _, _, err := openSource("/nonexistent"); err == nil {
		t.Error("missing file accepted")
	}
	path := filepath.Join(t.TempDir(), "junk")
	if err := os.WriteFile(path, []byte("neither format at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, _, err := openSource(path); err == nil {
		t.Error("junk file accepted")
	}
}

func TestRunReport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.tdcap")
	if err := tamperdetect.WriteCaptureFile(path, sampleConns()); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		if err := run(path, options{verbose: true, tamperedOnly: true, workers: workers}); err != nil {
			t.Fatalf("run(workers=%d): %v", workers, err)
		}
	}
	// Both matcher engines must scan cleanly.
	if err := run(path, options{classifier: "legacy", workers: 2}); err != nil {
		t.Fatalf("run(-classifier legacy): %v", err)
	}
	if err := run(path, options{classifier: "nonsense"}); err == nil {
		t.Fatal("run accepted an unknown -classifier")
	}
}

func TestRunPartialOnCorruptTail(t *testing.T) {
	// A good record followed by a corrupt tail must still produce a
	// report, and the error must be the partial-results kind so main
	// exits 3 rather than 1.
	path := filepath.Join(t.TempDir(), "x.tdcap")
	if err := tamperdetect.WriteCaptureFile(path, sampleConns()); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// 0xC0 is the connection-record marker; 0x07 is an invalid IP
	// version byte, so decoding fails right after the good prefix.
	bad := append(append([]byte(nil), good...), 0xC0, 0x07)
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	err = run(path, options{workers: 1})
	if err == nil {
		t.Fatal("corrupt tail scanned without error")
	}
	var pe *partialError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v (%T), want *partialError", err, err)
	}

	// A capture that is corrupt from the first record has no partial
	// results to report: plain error, exit 1.
	allBad := filepath.Join(t.TempDir(), "bad.tdcap")
	if err := os.WriteFile(allBad, append(good[:8:8], 0xC0, 0x07), 0o644); err != nil {
		t.Fatal(err)
	}
	err = run(allBad, options{workers: 1})
	if err == nil {
		t.Fatal("fully corrupt capture scanned without error")
	}
	if errors.As(err, &pe) {
		t.Fatalf("err = %v is partial, want plain error when nothing was scanned", err)
	}
}
