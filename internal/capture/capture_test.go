package capture

import (
	"math/rand/v2"
	"net/netip"
	"testing"
	"time"

	"tamperdetect/internal/netsim"
	"tamperdetect/internal/packet"
)

// buildPkt serializes a client->server packet with given fields.
func buildPkt(t testing.TB, src, dst string, sport, dport uint16, flags packet.TCPFlags, seq uint32, payload []byte) []byte {
	t.Helper()
	ip := packet.IPv4{TTL: 60, ID: 5, Protocol: 6,
		SrcIP: netip.MustParseAddr(src), DstIP: netip.MustParseAddr(dst)}
	tcp := packet.TCP{SrcPort: sport, DstPort: dport, Seq: seq, Flags: flags, Window: 1000}
	tcp.SetNetworkLayerForChecksum(&ip)
	buf := packet.NewSerializeBuffer()
	if err := packet.SerializeLayers(buf, packet.SerializeOptions{FixLengths: true, ComputeChecksums: true},
		&ip, &tcp, packet.Payload(payload)); err != nil {
		t.Fatal(err)
	}
	out := make([]byte, buf.Len())
	copy(out, buf.Bytes())
	return out
}

func TestSamplerRecordsConnection(t *testing.T) {
	s := NewSampler(DefaultConfig())
	at := netsim.Time(0)
	s.Inbound(at, buildPkt(t, "20.0.0.1", "192.0.2.1", 1234, 443, packet.FlagsSYN, 100, nil))
	s.Inbound(at.Add(time.Second), buildPkt(t, "20.0.0.1", "192.0.2.1", 1234, 443, packet.FlagsACK, 101, nil))
	s.Inbound(at.Add(2*time.Second), buildPkt(t, "20.0.0.1", "192.0.2.1", 1234, 443, packet.FlagsPSHACK, 101, []byte("hello")))
	conns := s.Drain(at.Add(10 * time.Second))
	if len(conns) != 1 {
		t.Fatalf("conns = %d, want 1", len(conns))
	}
	c := conns[0]
	if c.TotalPackets != 3 || len(c.Packets) != 3 {
		t.Errorf("counts = %d/%d, want 3/3", c.TotalPackets, len(c.Packets))
	}
	if c.Packets[2].PayloadLen != 5 || string(c.Packets[2].Payload) != "hello" {
		t.Errorf("payload record = %+v", c.Packets[2])
	}
	if c.LastActivity != 2 || c.CloseTime != 10 {
		t.Errorf("lastActivity/closeTime = %d/%d", c.LastActivity, c.CloseTime)
	}
	if s.Pending() != 0 {
		t.Error("sampler not reset after drain")
	}
}

func TestSamplerIgnoresMidFlowWithoutSYN(t *testing.T) {
	s := NewSampler(DefaultConfig())
	s.Inbound(0, buildPkt(t, "20.0.0.1", "192.0.2.1", 1, 443, packet.FlagsACK, 5, nil))
	s.Inbound(0, buildPkt(t, "20.0.0.1", "192.0.2.1", 1, 443, packet.FlagsPSHACK, 5, []byte("x")))
	if got := len(s.Drain(0)); got != 0 {
		t.Errorf("mid-flow packets created %d connections", got)
	}
}

func TestSamplerPacketCap(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxPackets = 10
	s := NewSampler(cfg)
	s.Inbound(0, buildPkt(t, "20.0.0.1", "192.0.2.1", 1, 443, packet.FlagsSYN, 0, nil))
	for i := 1; i < 25; i++ {
		s.Inbound(netsim.Time(i)*netsim.Time(time.Second),
			buildPkt(t, "20.0.0.1", "192.0.2.1", 1, 443, packet.FlagsACK, uint32(i), nil))
	}
	c := s.Drain(netsim.Time(30 * time.Second))[0]
	if len(c.Packets) != 10 {
		t.Errorf("recorded %d packets, want 10", len(c.Packets))
	}
	if c.TotalPackets != 25 {
		t.Errorf("TotalPackets = %d, want 25", c.TotalPackets)
	}
	if c.LastActivity != 24 {
		t.Errorf("LastActivity = %d, want 24 (beyond the cap)", c.LastActivity)
	}
}

func TestSamplerPayloadCap(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxPayload = 8
	s := NewSampler(cfg)
	s.Inbound(0, buildPkt(t, "20.0.0.1", "192.0.2.1", 1, 443, packet.FlagsSYN, 0, nil))
	long := make([]byte, 100)
	s.Inbound(0, buildPkt(t, "20.0.0.1", "192.0.2.1", 1, 443, packet.FlagsPSHACK, 1, long))
	c := s.Drain(0)[0]
	if len(c.Packets[1].Payload) != 8 || c.Packets[1].PayloadLen != 100 {
		t.Errorf("captured/full = %d/%d, want 8/100", len(c.Packets[1].Payload), c.Packets[1].PayloadLen)
	}
}

func TestSamplerRate(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Rate = 4
	s := NewSampler(cfg)
	total := 4000
	for i := 0; i < total; i++ {
		src := netip.AddrFrom4([4]byte{20, byte(i >> 8), byte(i), 7})
		s.Inbound(0, buildPkt(t, src.String(), "192.0.2.1", uint16(1000+i%500), 443, packet.FlagsSYN, 0, nil))
	}
	got := len(s.Drain(0))
	want := total / 4
	if got < want*7/10 || got > want*13/10 {
		t.Errorf("sampled %d of %d at rate 4, want ≈%d", got, total, want)
	}
}

func TestSamplerTwoFlows(t *testing.T) {
	s := NewSampler(DefaultConfig())
	s.Inbound(0, buildPkt(t, "20.0.0.1", "192.0.2.1", 1, 443, packet.FlagsSYN, 0, nil))
	s.Inbound(0, buildPkt(t, "20.0.0.2", "192.0.2.1", 2, 443, packet.FlagsSYN, 0, nil))
	s.Inbound(0, buildPkt(t, "20.0.0.1", "192.0.2.1", 1, 443, packet.FlagsACK, 1, nil))
	conns := s.Drain(0)
	if len(conns) != 2 {
		t.Fatalf("conns = %d, want 2", len(conns))
	}
	if conns[0].TotalPackets != 2 || conns[1].TotalPackets != 1 {
		t.Errorf("per-flow counts = %d/%d, want 2/1", conns[0].TotalPackets, conns[1].TotalPackets)
	}
}

func TestReconstructOrdersWithinSecond(t *testing.T) {
	// Log order scrambled within the same second; sequence numbers and
	// flags must restore SYN, ACK, PSH, RST.
	c := &Connection{
		Packets: []PacketRecord{
			{Timestamp: 0, Flags: packet.FlagsPSHACK, Seq: 101, PayloadLen: 50},
			{Timestamp: 0, Flags: packet.FlagsRST, Seq: 151},
			{Timestamp: 0, Flags: packet.FlagsSYN, Seq: 100},
			{Timestamp: 0, Flags: packet.FlagsACK, Seq: 101},
		},
	}
	out := Reconstruct(c)
	want := []packet.TCPFlags{packet.FlagsSYN, packet.FlagsACK, packet.FlagsPSHACK, packet.FlagsRST}
	for i, w := range want {
		if out[i].Flags != w {
			t.Fatalf("position %d = %v, want %v (full: %v)", i, out[i].Flags, w, flagsOf(out))
		}
	}
}

func TestReconstructRespectsTimestamps(t *testing.T) {
	// A later-second packet with a smaller seq (e.g. keep-alive ACK
	// retransmission) must stay after earlier seconds.
	c := &Connection{
		Packets: []PacketRecord{
			{Timestamp: 0, Flags: packet.FlagsSYN, Seq: 100},
			{Timestamp: 1, Flags: packet.FlagsPSHACK, Seq: 101, PayloadLen: 10},
			{Timestamp: 2, Flags: packet.FlagsACK, Seq: 101},
		},
	}
	out := Reconstruct(c)
	if out[2].Timestamp != 2 {
		t.Errorf("cross-second reorder happened: %v", flagsOf(out))
	}
}

func TestReconstructWithoutSYN(t *testing.T) {
	// Mid-flow capture: lowest seq anchors.
	c := &Connection{
		Packets: []PacketRecord{
			{Timestamp: 0, Flags: packet.FlagsPSHACK, Seq: 5000, PayloadLen: 10},
			{Timestamp: 0, Flags: packet.FlagsPSHACK, Seq: 4000, PayloadLen: 10},
		},
	}
	out := Reconstruct(c)
	if out[0].Seq != 4000 {
		t.Errorf("lowest-seq packet not first: %v", out)
	}
}

func TestReconstructStableForTies(t *testing.T) {
	c := &Connection{
		Packets: []PacketRecord{
			{Timestamp: 0, Flags: packet.FlagsRST, Seq: 200, Ack: 1},
			{Timestamp: 0, Flags: packet.FlagsRST, Seq: 200, Ack: 2},
		},
	}
	out := Reconstruct(c)
	if out[0].Ack != 1 || out[1].Ack != 2 {
		t.Error("equal-rank packets reordered (sort not stable)")
	}
}

func TestShuffleThenReconstructRoundTrip(t *testing.T) {
	// Property: with ShuffleWithinSecond enabled, Reconstruct recovers
	// the canonical order of a normal connection for any shuffle seed.
	for seed := uint64(0); seed < 30; seed++ {
		cfg := DefaultConfig()
		cfg.ShuffleWithinSecond = rand.New(rand.NewPCG(seed, seed))
		s := NewSampler(cfg)
		// All within one second: worst case for ordering.
		s.Inbound(0, buildPkt(t, "20.0.0.9", "192.0.2.1", 9, 443, packet.FlagsSYN, 1000, nil))
		s.Inbound(0, buildPkt(t, "20.0.0.9", "192.0.2.1", 9, 443, packet.FlagsACK, 1001, nil))
		s.Inbound(0, buildPkt(t, "20.0.0.9", "192.0.2.1", 9, 443, packet.FlagsPSHACK, 1001, []byte("0123456789")))
		s.Inbound(0, buildPkt(t, "20.0.0.9", "192.0.2.1", 9, 443, packet.FlagsRST, 1011, nil))
		c := s.Drain(0)[0]
		out := Reconstruct(c)
		want := []packet.TCPFlags{packet.FlagsSYN, packet.FlagsACK, packet.FlagsPSHACK, packet.FlagsRST}
		for i, w := range want {
			if out[i].Flags != w {
				t.Fatalf("seed %d: position %d = %v, want %v", seed, i, out[i].Flags, w)
			}
		}
	}
}

func flagsOf(recs []PacketRecord) []string {
	var out []string
	for _, r := range recs {
		out = append(out, r.Flags.String())
	}
	return out
}

func TestDrainIdle(t *testing.T) {
	s := NewSampler(DefaultConfig())
	s.Inbound(0, buildPkt(t, "20.0.0.1", "192.0.2.1", 1, 443, packet.FlagsSYN, 0, nil))
	s.Inbound(netsim.Time(100*time.Second), buildPkt(t, "20.0.0.2", "192.0.2.1", 2, 443, packet.FlagsSYN, 0, nil))

	idle := s.DrainIdle(netsim.Time(110*time.Second), 60)
	if len(idle) != 1 || idle[0].SrcPort != 1 {
		t.Fatalf("idle drain = %d conns", len(idle))
	}
	if idle[0].CloseTime != 110 {
		t.Errorf("CloseTime = %d, want 110", idle[0].CloseTime)
	}
	if s.Pending() != 1 {
		t.Errorf("pending = %d, want the active flow kept", s.Pending())
	}
	// A packet for the evicted flow does not resurrect it (no SYN).
	s.Inbound(netsim.Time(111*time.Second), buildPkt(t, "20.0.0.1", "192.0.2.1", 1, 443, packet.FlagsACK, 1, nil))
	if s.Pending() != 1 {
		t.Errorf("evicted flow resurrected")
	}
	rest := s.Drain(netsim.Time(120 * time.Second))
	if len(rest) != 1 || rest[0].SrcPort != 2 {
		t.Errorf("final drain = %d conns", len(rest))
	}
}

// TestSamplerSelectionIsProcessIndependent: the flow hash is a fixed
// function of the 4-tuple, so independently built samplers — the
// generator builds or resets one per simulated connection, on any
// worker, in any process — admit the identical flow set at a given
// Rate, and keep doing so after a Reset. (A per-sampler random hash
// seed made the sampled population differ run to run.)
func TestSamplerSelectionIsProcessIndependent(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Rate = 4
	admitted := func(s *Sampler) map[FlowKey]bool {
		for i := 0; i < 2000; i++ {
			src := netip.AddrFrom4([4]byte{20, byte(i >> 8), byte(i), 9})
			s.Inbound(0, buildPkt(t, src.String(), "192.0.2.1", uint16(2000+i%300), 443, packet.FlagsSYN, 0, nil))
		}
		set := map[FlowKey]bool{}
		for _, c := range s.Drain(0) {
			set[c.Key()] = true
		}
		return set
	}
	a, b := NewSampler(cfg), NewSampler(cfg)
	first := admitted(a)
	if len(first) == 0 || len(first) == 2000 {
		t.Fatalf("rate 4 admitted %d of 2000 flows", len(first))
	}
	b.Reset(cfg)
	for name, got := range map[string]map[FlowKey]bool{"second sampler": admitted(b), "first sampler again": admitted(a)} {
		if len(got) != len(first) {
			t.Fatalf("%s admitted %d flows, the first pass %d", name, len(got), len(first))
		}
		for k := range first {
			if !got[k] {
				t.Fatalf("%s rejected flow %v that the first pass admitted", name, k)
			}
		}
	}
}

// TestSamplerReset: a Reset sampler has no flows and zeroed stats,
// runs under the new config, and leaves drained records alone.
func TestSamplerReset(t *testing.T) {
	s := NewSampler(DefaultConfig())
	s.Inbound(0, buildPkt(t, "20.0.0.1", "192.0.2.1", 1, 443, packet.FlagsSYN, 0, nil))
	kept := s.Drain(0)
	s.Inbound(0, buildPkt(t, "20.0.0.2", "192.0.2.1", 2, 443, packet.FlagsSYN, 0, nil))
	cfg := DefaultConfig()
	cfg.MaxPackets = 1
	s.Reset(cfg)
	if s.Pending() != 0 || s.SeenPackets != 0 || s.SampledPackets != 0 {
		t.Fatalf("after Reset: pending=%d seen=%d sampled=%d", s.Pending(), s.SeenPackets, s.SampledPackets)
	}
	// The undrained flow is forgotten: its ACK is mid-flow noise now.
	s.Inbound(0, buildPkt(t, "20.0.0.2", "192.0.2.1", 2, 443, packet.FlagsACK, 1, nil))
	s.Inbound(0, buildPkt(t, "20.0.0.3", "192.0.2.1", 3, 443, packet.FlagsSYN, 0, nil))
	s.Inbound(0, buildPkt(t, "20.0.0.3", "192.0.2.1", 3, 443, packet.FlagsACK, 1, nil))
	conns := s.Drain(0)
	if len(conns) != 1 || conns[0].SrcPort != 3 || len(conns[0].Packets) != 1 || conns[0].TotalPackets != 2 {
		t.Fatalf("after Reset drained %+v, want only flow 3 capped at 1 packet", conns)
	}
	if len(kept) != 1 || kept[0].SrcPort != 1 || len(kept[0].Packets) != 1 {
		t.Errorf("Reset disturbed an already drained record: %+v", kept)
	}
}
