package netsim

import (
	"net/netip"
	"testing"
	"time"

	"tamperdetect/internal/packet"
)

func v4Packet(t testing.TB, ttl uint8, flags packet.TCPFlags) []byte {
	t.Helper()
	ip := packet.IPv4{TTL: ttl, ID: 100, Protocol: 6,
		SrcIP: netip.MustParseAddr("10.0.0.1"), DstIP: netip.MustParseAddr("10.0.0.2")}
	tcp := packet.TCP{SrcPort: 1111, DstPort: 443, Flags: flags}
	tcp.SetNetworkLayerForChecksum(&ip)
	buf := packet.NewSerializeBuffer()
	if err := packet.SerializeLayers(buf, packet.SerializeOptions{FixLengths: true, ComputeChecksums: true}, &ip, &tcp); err != nil {
		t.Fatalf("serialize: %v", err)
	}
	out := make([]byte, buf.Len())
	copy(out, buf.Bytes())
	return out
}

func ttlOf(t testing.TB, data []byte) uint8 {
	t.Helper()
	var ip packet.IPv4
	if err := ip.DecodeFromBytes(data); err != nil {
		t.Fatalf("decode: %v", err)
	}
	return ip.TTL
}

// recorder is an Endpoint that stores arrivals with their times.
type recorder struct {
	sim   *Sim
	pkts  [][]byte
	times []Time
}

func (r *recorder) Recv(data []byte) {
	r.pkts = append(r.pkts, data)
	r.times = append(r.times, r.sim.Now())
}

// passMB forwards everything and counts packets per direction.
type passMB struct{ c2s, s2c int }

func (m *passMB) Process(dir Direction, data []byte, inject func(Direction, []byte)) bool {
	if dir == ClientToServer {
		m.c2s++
	} else {
		m.s2c++
	}
	return true
}

func TestPathDelayAndTTL(t *testing.T) { bothSims(t, 0, testPathDelayAndTTL) }

func testPathDelayAndTTL(t *testing.T, s *Sim) {
	srv := &recorder{sim: s}
	cli := &recorder{sim: s}
	mb := &passMB{}
	p := NewPath(s, PathConfig{
		Segments:    []Segment{{Delay: 10 * time.Millisecond, Hops: 4}, {Delay: 20 * time.Millisecond, Hops: 6}},
		Middleboxes: []Middlebox{mb},
	}, cli, srv)

	p.SendFromClient(v4Packet(t, 64, packet.FlagsSYN))
	s.Run(0)

	if len(srv.pkts) != 1 {
		t.Fatalf("server got %d packets, want 1", len(srv.pkts))
	}
	if got := ttlOf(t, srv.pkts[0]); got != 54 {
		t.Errorf("TTL at server = %d, want 54 (64-10)", got)
	}
	if srv.times[0] != Time(30*time.Millisecond) {
		t.Errorf("arrival at %v, want 30ms", srv.times[0])
	}
	if mb.c2s != 1 {
		t.Errorf("middlebox saw %d c2s packets, want 1", mb.c2s)
	}
}

func TestPathServerToClient(t *testing.T) { bothSims(t, 0, testPathServerToClient) }

func testPathServerToClient(t *testing.T, s *Sim) {
	srv := &recorder{sim: s}
	cli := &recorder{sim: s}
	mb := &passMB{}
	p := NewPath(s, PathConfig{
		Segments:    []Segment{{Delay: time.Millisecond, Hops: 2}, {Delay: time.Millisecond, Hops: 3}},
		Middleboxes: []Middlebox{mb},
	}, cli, srv)

	p.SendFromServer(v4Packet(t, 128, packet.FlagsSYNACK))
	s.Run(0)
	if len(cli.pkts) != 1 {
		t.Fatalf("client got %d packets, want 1", len(cli.pkts))
	}
	if got := ttlOf(t, cli.pkts[0]); got != 123 {
		t.Errorf("TTL at client = %d, want 123", got)
	}
	if mb.s2c != 1 {
		t.Errorf("middlebox saw %d s2c packets, want 1", mb.s2c)
	}
}

// dropMB drops client->server packets after the first.
type dropMB struct{ seen int }

func (m *dropMB) Process(dir Direction, data []byte, inject func(Direction, []byte)) bool {
	if dir != ClientToServer {
		return true
	}
	m.seen++
	return m.seen <= 1
}

func TestPathDrop(t *testing.T) { bothSims(t, 0, testPathDrop) }

func testPathDrop(t *testing.T, s *Sim) {
	srv := &recorder{sim: s}
	cli := &recorder{sim: s}
	p := NewPath(s, PathConfig{
		Segments:    []Segment{{Delay: time.Millisecond, Hops: 1}, {Delay: time.Millisecond, Hops: 1}},
		Middleboxes: []Middlebox{&dropMB{}},
	}, cli, srv)
	p.SendFromClient(v4Packet(t, 64, packet.FlagsSYN))
	p.SendFromClient(v4Packet(t, 64, packet.FlagsACK))
	s.Run(0)
	if len(srv.pkts) != 1 {
		t.Fatalf("server got %d packets, want 1 (second dropped)", len(srv.pkts))
	}
}

// injectMB injects one RST toward the server when it sees a PSH.
type injectMB struct{ t *testing.T }

func (m *injectMB) Process(dir Direction, data []byte, inject func(Direction, []byte)) bool {
	var ip packet.IPv4
	if err := ip.DecodeFromBytes(data); err != nil {
		m.t.Fatalf("mb decode: %v", err)
	}
	var tcp packet.TCP
	if err := tcp.DecodeFromBytes(ip.LayerPayload()); err != nil {
		m.t.Fatalf("mb tcp decode: %v", err)
	}
	if tcp.Flags.Has(packet.FlagPSH) {
		inject(ClientToServer, v4Packet(m.t, 250, packet.FlagsRST))
		inject(ServerToClient, v4Packet(m.t, 250, packet.FlagsRST))
	}
	return true
}

func TestPathInjectBothDirections(t *testing.T) { bothSims(t, 0, testPathInjectBothDirections) }

func testPathInjectBothDirections(t *testing.T, s *Sim) {
	srv := &recorder{sim: s}
	cli := &recorder{sim: s}
	p := NewPath(s, PathConfig{
		Segments:    []Segment{{Delay: 5 * time.Millisecond, Hops: 3}, {Delay: 7 * time.Millisecond, Hops: 5}},
		Middleboxes: []Middlebox{&injectMB{t: t}},
	}, cli, srv)

	p.SendFromClient(v4Packet(t, 64, packet.FlagsPSHACK))
	s.Run(0)

	if len(srv.pkts) != 2 {
		t.Fatalf("server got %d packets, want PSH + injected RST", len(srv.pkts))
	}
	// Injected RST traverses only the middlebox->server segment: 5 hops.
	if got := ttlOf(t, srv.pkts[1]); got != 245 {
		t.Errorf("injected RST TTL at server = %d, want 245 (250-5)", got)
	}
	// Original packet went through 3+5=8 hops.
	if got := ttlOf(t, srv.pkts[0]); got != 56 {
		t.Errorf("forwarded PSH TTL = %d, want 56", got)
	}
	if len(cli.pkts) != 1 {
		t.Fatalf("client got %d packets, want injected RST", len(cli.pkts))
	}
	// Injected toward client traverses middlebox->client: 3 hops.
	if got := ttlOf(t, cli.pkts[0]); got != 247 {
		t.Errorf("injected RST TTL at client = %d, want 247", got)
	}
	// Timing: PSH forwarded arrives at 12ms; RST injected at 5ms + 7ms = 12ms too,
	// but scheduled after, so it must arrive second.
	if !(srv.times[1] >= srv.times[0]) {
		t.Errorf("injected RST arrived before the triggering PSH")
	}
}

func TestPathTap(t *testing.T) { bothSims(t, 0, testPathTap) }

func testPathTap(t *testing.T, s *Sim) {
	srv := &recorder{sim: s}
	cli := &recorder{sim: s}
	p := NewPath(s, PathConfig{Segments: []Segment{{Delay: time.Millisecond, Hops: 1}}}, cli, srv)
	var tapped int
	p.Tap = func(at Time, data []byte) { tapped++ }
	p.SendFromClient(v4Packet(t, 64, packet.FlagsSYN))
	p.SendFromServer(v4Packet(t, 64, packet.FlagsSYNACK))
	s.Run(0)
	if tapped != 1 {
		t.Errorf("tap saw %d packets, want 1 (inbound only)", tapped)
	}
}

func TestPathTTLExpiry(t *testing.T) { bothSims(t, 0, testPathTTLExpiry) }

func testPathTTLExpiry(t *testing.T, s *Sim) {
	srv := &recorder{sim: s}
	cli := &recorder{sim: s}
	p := NewPath(s, PathConfig{Segments: []Segment{{Delay: time.Millisecond, Hops: 10}}}, cli, srv)
	p.SendFromClient(v4Packet(t, 5, packet.FlagsSYN)) // expires mid-path
	s.Run(0)
	if len(srv.pkts) != 0 {
		t.Error("expired packet delivered")
	}
}

func TestPathDown(t *testing.T) { bothSims(t, 0, testPathDown) }

func testPathDown(t *testing.T, s *Sim) {
	srv := &recorder{sim: s}
	cli := &recorder{sim: s}
	p := NewPath(s, PathConfig{Segments: []Segment{{Delay: time.Millisecond, Hops: 1}}}, cli, srv)
	p.Down = true
	p.SendFromClient(v4Packet(t, 64, packet.FlagsSYN))
	s.Run(0)
	if len(srv.pkts) != 0 {
		t.Error("packet delivered on a down path")
	}
}

func TestPathLoss(t *testing.T) { bothSims(t, 0, testPathLoss) }

func testPathLoss(t *testing.T, s *Sim) {
	srv := &recorder{sim: s}
	cli := &recorder{sim: s}
	p := NewPath(s, PathConfig{
		Segments: []Segment{{Delay: time.Millisecond, Hops: 1}},
		Loss:     1.0,
		Rand:     func() float64 { return 0.5 },
	}, cli, srv)
	p.SendFromClient(v4Packet(t, 64, packet.FlagsSYN))
	s.Run(0)
	if len(srv.pkts) != 0 {
		t.Error("packet survived 100% loss")
	}
}

func TestPathConfigValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("mismatched segments/middleboxes did not panic")
		}
	}()
	NewPath(NewSim(0), PathConfig{Segments: []Segment{{}}, Middleboxes: []Middlebox{&passMB{}}}, nil, nil)
}

// TestPathReset: a Reset path routes the next connection over its new
// topology — delays, hops, middleboxes — between the same endpoints,
// keeps its Tap, comes back up, and forgets what the previous
// connection left in flight once the Sim is Reset with it.
func TestPathReset(t *testing.T) {
	s := NewSim(0)
	srv, cli := &recorder{sim: s}, &recorder{sim: s}
	p := NewPath(s, PathConfig{Segments: []Segment{{Delay: time.Second, Hops: 1}}}, cli, srv)
	taps := 0
	p.Tap = func(Time, []byte) { taps++ }
	p.SendFromClient(v4Packet(t, 64, packet.FlagsSYN)) // still in flight at the Reset
	p.Down = true

	s.Reset(Time(time.Minute))
	mb := &injectMB{t: t}
	p.Reset(PathConfig{
		Segments:    []Segment{{Delay: 10 * time.Millisecond, Hops: 4}, {Delay: 20 * time.Millisecond, Hops: 6}},
		Middleboxes: []Middlebox{mb},
	})
	p.SendFromClient(v4Packet(t, 64, packet.FlagsPSHACK))
	s.Run(0)
	if len(srv.pkts) != 2 || taps != 2 {
		t.Fatalf("server got %d packets, tap %d; want the forwarded packet and one injection", len(srv.pkts), taps)
	}
	if got := ttlOf(t, srv.pkts[0]); got != 54 {
		t.Errorf("TTL at server = %d, want 54 over the new segments", got)
	}
	if want := Time(time.Minute).Add(30 * time.Millisecond); srv.times[0] != want {
		t.Errorf("arrival at %v, want %v", srv.times[0], want)
	}
	if len(cli.pkts) != 1 {
		t.Errorf("client got %d injected packets, want 1", len(cli.pkts))
	}
	defer func() {
		if recover() == nil {
			t.Error("Reset accepted a PathConfig with mismatched segments")
		}
	}()
	p.Reset(PathConfig{Segments: []Segment{{}}, Middleboxes: []Middlebox{mb}})
}
