package netsim

import (
	"testing"
	"time"

	"tamperdetect/internal/packet"
)

// tagMB records traversal order and optionally drops or injects.
type tagMB struct {
	name string
	log  *[]string
	drop bool
}

func (m *tagMB) Process(dir Direction, data []byte, inject func(Direction, []byte)) bool {
	*m.log = append(*m.log, m.name+":"+dir.String())
	return !m.drop
}

func TestTwoMiddleboxChainOrder(t *testing.T) { bothSims(t, 0, testTwoMiddleboxChainOrder) }

func testTwoMiddleboxChainOrder(t *testing.T, s *Sim) {
	var log []string
	a := &tagMB{name: "a", log: &log}
	b := &tagMB{name: "b", log: &log}
	srv := &recorder{sim: s}
	cli := &recorder{sim: s}
	p := NewPath(s, PathConfig{
		Segments: []Segment{
			{Delay: time.Millisecond, Hops: 1},
			{Delay: time.Millisecond, Hops: 1},
			{Delay: time.Millisecond, Hops: 1},
		},
		Middleboxes: []Middlebox{a, b},
	}, cli, srv)
	p.SendFromClient(v4Packet(t, 64, packet.FlagsSYN))
	s.Run(0)
	if len(log) != 2 || log[0] != "a:client->server" || log[1] != "b:client->server" {
		t.Errorf("traversal = %v, want a then b", log)
	}
	if len(srv.pkts) != 1 {
		t.Fatalf("server packets = %d", len(srv.pkts))
	}
	// TTL decremented by all three segments' hops.
	if got := ttlOf(t, srv.pkts[0]); got != 61 {
		t.Errorf("TTL = %d, want 61", got)
	}

	// Reverse direction traverses b first.
	log = nil
	p.SendFromServer(v4Packet(t, 64, packet.FlagsSYNACK))
	s.Run(0)
	if len(log) != 2 || log[0] != "b:server->client" || log[1] != "a:server->client" {
		t.Errorf("reverse traversal = %v, want b then a", log)
	}
}

func TestSecondMiddleboxDropHidesFromServerNotFirst(t *testing.T) {
	bothSims(t, 0, testSecondMiddleboxDropHidesFromServerNotFirst)
}

func testSecondMiddleboxDropHidesFromServerNotFirst(t *testing.T, s *Sim) {
	var log []string
	a := &tagMB{name: "a", log: &log}
	b := &tagMB{name: "b", log: &log, drop: true}
	srv := &recorder{sim: s}
	cli := &recorder{sim: s}
	p := NewPath(s, PathConfig{
		Segments: []Segment{
			{Delay: time.Millisecond, Hops: 1},
			{Delay: time.Millisecond, Hops: 1},
			{Delay: time.Millisecond, Hops: 1},
		},
		Middleboxes: []Middlebox{a, b},
	}, cli, srv)
	p.SendFromClient(v4Packet(t, 64, packet.FlagsSYN))
	s.Run(0)
	if len(srv.pkts) != 0 {
		t.Error("packet delivered past a dropping second middlebox")
	}
	// The first middlebox still saw it.
	if len(log) != 2 {
		t.Errorf("log = %v, want both middleboxes to observe", log)
	}
}

// injectAtFirst injects toward the client from the first middlebox.
type injectAtFirst struct{ t *testing.T }

func (m *injectAtFirst) Process(dir Direction, data []byte, inject func(Direction, []byte)) bool {
	if dir == ClientToServer {
		inject(ServerToClient, v4Packet(m.t, 200, packet.FlagsRST))
	}
	return true
}

func TestInjectionFromFirstOfTwoMiddleboxes(t *testing.T) {
	bothSims(t, 0, testInjectionFromFirstOfTwoMiddleboxes)
}

func testInjectionFromFirstOfTwoMiddleboxes(t *testing.T, s *Sim) {
	// The injected packet must traverse only the first segment back to
	// the client — and the second middlebox must not see it.
	var log []string
	second := &tagMB{name: "second", log: &log}
	srv := &recorder{sim: s}
	cli := &recorder{sim: s}
	p := NewPath(s, PathConfig{
		Segments: []Segment{
			{Delay: time.Millisecond, Hops: 2},
			{Delay: time.Millisecond, Hops: 3},
			{Delay: time.Millisecond, Hops: 4},
		},
		Middleboxes: []Middlebox{&injectAtFirst{t: t}, second},
	}, cli, srv)
	p.SendFromClient(v4Packet(t, 64, packet.FlagsSYN))
	s.Run(0)
	if len(cli.pkts) != 1 {
		t.Fatalf("client packets = %d, want injected RST", len(cli.pkts))
	}
	if got := ttlOf(t, cli.pkts[0]); got != 198 {
		t.Errorf("injected TTL at client = %d, want 198 (200-2)", got)
	}
	for _, l := range log {
		if l == "second:server->client" {
			t.Error("second middlebox saw a client-bound injection from the first")
		}
	}
	// The original packet still made it through both boxes.
	if len(srv.pkts) != 1 {
		t.Errorf("server packets = %d", len(srv.pkts))
	}
}

func TestPathIndependentFlows(t *testing.T) { bothSims(t, 0, testPathIndependentFlows) }

func testPathIndependentFlows(t *testing.T, s *Sim) {
	// Two paths sharing one sim do not interfere.
	srv1, srv2 := &recorder{sim: s}, &recorder{sim: s}
	cli1, cli2 := &recorder{sim: s}, &recorder{sim: s}
	p1 := NewPath(s, PathConfig{Segments: []Segment{{Delay: time.Millisecond, Hops: 1}}}, cli1, srv1)
	p2 := NewPath(s, PathConfig{Segments: []Segment{{Delay: 2 * time.Millisecond, Hops: 1}}}, cli2, srv2)
	p1.SendFromClient(v4Packet(t, 64, packet.FlagsSYN))
	p2.SendFromClient(v4Packet(t, 64, packet.FlagsSYN))
	s.Run(0)
	if len(srv1.pkts) != 1 || len(srv2.pkts) != 1 {
		t.Errorf("deliveries = %d/%d, want 1/1", len(srv1.pkts), len(srv2.pkts))
	}
	if srv1.times[0] != Time(time.Millisecond) || srv2.times[0] != Time(2*time.Millisecond) {
		t.Errorf("arrival times = %v/%v", srv1.times[0], srv2.times[0])
	}
}
