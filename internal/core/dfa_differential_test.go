package core_test

// The differential battery for the compiled signature automaton: the
// DFA matcher (MatcherDFA) must produce a Result identical — same
// signature, stage, disposition, domain, and evidence — to the legacy
// multi-pass matcher (MatcherLegacy) on every input. Coverage comes
// from three directions: exhaustive enumeration of packet-archetype
// sequences (full alphabet to length 4, reduced alphabets to length
// 6, each under five connection contexts), a table of every
// signature's canonical and truncated forms with pinned expectations,
// and the full fixture corpus from the workload generator. The fuzz
// target FuzzDFAClassifierParity extends the same oracle check to
// arbitrary inputs.

import (
	"net/netip"
	"testing"

	"tamperdetect/internal/capture"
	"tamperdetect/internal/core"
	"tamperdetect/internal/packet"
	"tamperdetect/internal/workload"
)

// The packet archetypes. Together they hit every event class the
// automaton distinguishes, plus redundant flag combinations that must
// collapse to the same class (pshData vs ackData, synAck vs bare
// empty).
var archetypes = []capture.PacketRecord{
	{Flags: packet.FlagSYN},                                   // pure SYN
	{Flags: packet.FlagSYN, PayloadLen: 3},                    // SYN with payload
	{Flags: packet.FlagACK},                                   // handshake ACK
	{Flags: packet.FlagPSH | packet.FlagACK, PayloadLen: 120}, // data
	{Flags: packet.FlagACK, PayloadLen: 60},                   // data, no PSH
	{Flags: packet.FlagPSH | packet.FlagACK},                  // empty PSH+ACK
	{Flags: packet.FlagSYN | packet.FlagACK},                  // SYN+ACK
	{Flags: packet.FlagSYN | packet.FlagACK, PayloadLen: 40},  // SYN+ACK data
	{Flags: packet.FlagFIN | packet.FlagACK},                  // FIN
	{Flags: packet.FlagFIN | packet.FlagACK, PayloadLen: 10},  // FIN data
	{Flags: packet.FlagRST},                                   // bare RST, ack 0
	{Flags: packet.FlagRST, Ack: 500},                         // bare RST, ack A
	{Flags: packet.FlagRST, Ack: 700},                         // bare RST, ack B
	{Flags: packet.FlagRST | packet.FlagACK, Ack: 600},        // RST+ACK
}

// Reduced alphabets for the longer lengths, where the full product
// space is too large: length 5 drops the redundant data/SYN variants,
// length 6 keeps one representative per prefix role plus every RST
// kind (the tail taxonomy is where depth matters).
var (
	archesLen5 = []capture.PacketRecord{
		{Flags: packet.FlagSYN},
		{Flags: packet.FlagACK},
		{Flags: packet.FlagPSH | packet.FlagACK, PayloadLen: 120},
		{Flags: packet.FlagPSH | packet.FlagACK},
		{Flags: packet.FlagFIN | packet.FlagACK},
		{Flags: packet.FlagRST},
		{Flags: packet.FlagRST, Ack: 500},
		{Flags: packet.FlagRST, Ack: 700},
		{Flags: packet.FlagRST | packet.FlagACK, Ack: 600},
	}
	archesLen6 = []capture.PacketRecord{
		{Flags: packet.FlagSYN},
		{Flags: packet.FlagACK},
		{Flags: packet.FlagPSH | packet.FlagACK, PayloadLen: 120},
		{Flags: packet.FlagRST},
		{Flags: packet.FlagRST, Ack: 500},
		{Flags: packet.FlagRST, Ack: 700},
		{Flags: packet.FlagRST | packet.FlagACK, Ack: 600},
	}
)

// Connection contexts: the same packet sequence is judged under each,
// varying the disposition inputs (trailing silence, internal gap,
// filled packet cap, IP version) that gate PossiblyTampered.
const numContexts = 5

// buildConn materialises a sequence under one context. Timestamps
// strictly increase (so reconstruction preserves the given order) and
// IPID/TTL vary per position so the evidence fields are nontrivial.
func buildConn(seq []capture.PacketRecord, ctx int) *capture.Connection {
	c := &capture.Connection{
		SrcIP:   netip.MustParseAddr("192.0.2.1"),
		DstIP:   netip.MustParseAddr("198.51.100.9"),
		SrcPort: 40000, DstPort: 443, IPVersion: 4,
	}
	if ctx == 4 {
		c.SrcIP = netip.MustParseAddr("2001:db8::1")
		c.DstIP = netip.MustParseAddr("2001:db8::2")
		c.IPVersion = 6
	}
	c.Packets = append(c.Packets, seq...)
	last := int64(0)
	for i := range c.Packets {
		p := &c.Packets[i]
		p.Timestamp = int64(i)
		if ctx == 2 && i >= len(c.Packets)/2 {
			p.Timestamp += 5 // internal >=3s gap
		}
		p.IPID = uint16(100 + 37*i)
		p.TTL = byte(64 + i)
		p.Seq = uint32(1000 + 100*i)
		last = p.Timestamp
	}
	c.TotalPackets = len(c.Packets)
	c.LastActivity = last
	c.CloseTime = last
	switch ctx {
	case 1:
		c.CloseTime = last + 10 // trailing silence
	case 3:
		c.TotalPackets = 10 // cap filled: trailing silence doesn't count
		c.CloseTime = last + 10
	}
	return c
}

type diffPair struct {
	dfa, legacy *core.Classifier
	ds, ls      core.Scratch
}

func newDiffPair() *diffPair {
	return &diffPair{
		dfa:    core.NewClassifier(core.Config{Matcher: core.MatcherDFA}),
		legacy: core.NewClassifier(core.Config{Matcher: core.MatcherLegacy}),
	}
}

// check classifies conn with both engines and fails on any divergence.
func (d *diffPair) check(t *testing.T, conn *capture.Connection, seq []capture.PacketRecord) core.Result {
	t.Helper()
	got := d.dfa.ClassifyWith(conn, &d.ds)
	want := d.legacy.ClassifyWith(conn, &d.ls)
	if got != want {
		t.Fatalf("DFA and legacy diverge on %v:\n  dfa:    %+v\n  legacy: %+v", describe(seq), got, want)
	}
	return got
}

func describe(seq []capture.PacketRecord) []string {
	out := make([]string, len(seq))
	for i, p := range seq {
		out[i] = p.Flags.String()
		if p.PayloadLen > 0 {
			out[i] += "+data"
		}
	}
	return out
}

// TestDFAMatchesLegacyExhaustive enumerates every archetype sequence
// up to length 6 (full alphabet to length 4, reduced beyond) under
// every context and asserts Result identity.
func TestDFAMatchesLegacyExhaustive(t *testing.T) {
	d := newDiffPair()
	sigs := map[core.Signature]bool{}
	total := 0
	run := func(alphabet []capture.PacketRecord, length int) {
		idx := make([]int, length)
		seq := make([]capture.PacketRecord, length)
		for {
			for i, a := range idx {
				seq[i] = alphabet[a]
			}
			for ctx := 0; ctx < numContexts; ctx++ {
				res := d.check(t, buildConn(seq, ctx), seq)
				sigs[res.Signature] = true
				total++
			}
			// Odometer increment.
			i := length - 1
			for ; i >= 0; i-- {
				idx[i]++
				if idx[i] < len(alphabet) {
					break
				}
				idx[i] = 0
			}
			if i < 0 {
				return
			}
		}
	}
	maxFull := 4
	if testing.Short() {
		maxFull = 3
	}
	for length := 0; length <= maxFull; length++ {
		run(archetypes, length)
	}
	if !testing.Short() {
		run(archesLen5, 5)
		run(archesLen6, 6)
	}
	t.Logf("compared %d classifications, %d distinct signatures", total, len(sigs))
	// The enumeration must actually exercise the taxonomy: nearly every
	// signature should appear (SigOtherAnomalous and the timeouts
	// included). The -short run stops at length 3, too shallow for the
	// multi-RST tails, so the floor only applies to the full run.
	if !testing.Short() && len(sigs) < 18 {
		t.Errorf("only %d distinct signatures reached; enumeration too shallow", len(sigs))
	}
}

// TestDFAMatchesLegacyCorpus replays the full fixture corpus (the
// seeded workload generator, with its middleboxes and impairments)
// through both engines.
func TestDFAMatchesLegacyCorpus(t *testing.T) {
	total := 20000
	if testing.Short() {
		total = 3000
	}
	s, err := workload.BuildScenario("dfa-differential", total, 72, 977)
	if err != nil {
		t.Fatal(err)
	}
	conns := s.Run(0)
	if len(conns) < total/2 {
		t.Fatalf("scenario produced only %d connections", len(conns))
	}
	d := newDiffPair()
	sigs := map[core.Signature]bool{}
	for _, c := range conns {
		res := d.check(t, c, c.Packets)
		sigs[res.Signature] = true
	}
	t.Logf("corpus: %d connections, %d distinct signatures", len(conns), len(sigs))
}

// TestDFASignatureTable pins every signature's canonical form and key
// truncated variants: both engines must agree with the expectation,
// not merely with each other.
func TestDFASignatureTable(t *testing.T) {
	syn := capture.PacketRecord{Flags: packet.FlagSYN}
	ack := capture.PacketRecord{Flags: packet.FlagACK}
	dat := capture.PacketRecord{Flags: packet.FlagPSH | packet.FlagACK, PayloadLen: 100}
	rst := func(a uint32) capture.PacketRecord { return capture.PacketRecord{Flags: packet.FlagRST, Ack: a} }
	rak := capture.PacketRecord{Flags: packet.FlagRST | packet.FlagACK, Ack: 600}
	fin := capture.PacketRecord{Flags: packet.FlagFIN | packet.FlagACK}

	// ctx 0 = plain, 1 = trailing silence (for the timeout rows).
	cases := []struct {
		name  string
		seq   []capture.PacketRecord
		ctx   int
		sig   core.Signature
		stage core.Stage
		poss  bool
	}{
		// Canonical forms, one per Table 1 signature.
		{"syn-timeout", []capture.PacketRecord{syn}, 1, core.SigSYNTimeout, core.StagePostSYN, true},
		{"syn-rst", []capture.PacketRecord{syn, rst(5)}, 0, core.SigSYNRST, core.StagePostSYN, true},
		{"syn-rstack", []capture.PacketRecord{syn, rak}, 0, core.SigSYNRSTACK, core.StagePostSYN, true},
		{"syn-rst-rstack", []capture.PacketRecord{syn, rst(5), rak}, 0, core.SigSYNRSTRSTACK, core.StagePostSYN, true},
		{"ack-timeout", []capture.PacketRecord{syn, ack}, 1, core.SigACKTimeout, core.StagePostACK, true},
		{"ack-rst", []capture.PacketRecord{syn, ack, rst(5)}, 0, core.SigACKRST, core.StagePostACK, true},
		{"ack-rst-rst", []capture.PacketRecord{syn, ack, rst(5), rst(5)}, 0, core.SigACKRSTRST, core.StagePostACK, true},
		{"ack-rstack", []capture.PacketRecord{syn, ack, rak}, 0, core.SigACKRSTACK, core.StagePostACK, true},
		{"ack-rstack-rstack", []capture.PacketRecord{syn, ack, rak, rak}, 0, core.SigACKRSTACKRSTACK, core.StagePostACK, true},
		{"psh-timeout", []capture.PacketRecord{syn, ack, dat}, 1, core.SigPSHTimeout, core.StagePostPSH, true},
		{"psh-rst", []capture.PacketRecord{syn, ack, dat, rst(5)}, 0, core.SigPSHRST, core.StagePostPSH, true},
		{"psh-rstack", []capture.PacketRecord{syn, ack, dat, rak}, 0, core.SigPSHRSTACK, core.StagePostPSH, true},
		{"psh-rstack-rstack", []capture.PacketRecord{syn, ack, dat, rak, rak}, 0, core.SigPSHRSTACKRSTACK, core.StagePostPSH, true},
		{"psh-rst-rstack", []capture.PacketRecord{syn, ack, dat, rst(5), rak}, 0, core.SigPSHRSTRSTACK, core.StagePostPSH, true},
		{"psh-rst-eq-rst", []capture.PacketRecord{syn, ack, dat, rst(5), rst(5)}, 0, core.SigPSHRSTEqRST, core.StagePostPSH, true},
		{"psh-rst-neq-rst", []capture.PacketRecord{syn, ack, dat, rst(5), rst(7)}, 0, core.SigPSHRSTNeqRST, core.StagePostPSH, true},
		{"psh-rst-rst-zero", []capture.PacketRecord{syn, ack, dat, rst(5), rst(0)}, 0, core.SigPSHRSTRSTZero, core.StagePostPSH, true},
		{"data-rst", []capture.PacketRecord{syn, ack, dat, ack, rst(5)}, 0, core.SigDataRST, core.StagePostData, true},
		{"data-rstack", []capture.PacketRecord{syn, ack, dat, ack, rak}, 0, core.SigDataRSTACK, core.StagePostData, true},

		// Truncated / non-canonical variants.
		{"empty", nil, 1, core.SigNotTampering, core.StageNone, false},
		{"syn-no-anomaly", []capture.PacketRecord{syn}, 0, core.SigNotTampering, core.StageNone, false},
		{"handshake-only", []capture.PacketRecord{syn, ack, dat, ack}, 0, core.SigNotTampering, core.StageNone, false},
		{"graceful-fin", []capture.PacketRecord{syn, ack, dat, fin}, 1, core.SigNotTampering, core.StageNone, false},
		{"bare-rst-first", []capture.PacketRecord{rst(5)}, 0, core.SigOtherAnomalous, core.StageOther, true},
		{"no-handshake-ack", []capture.PacketRecord{syn, dat, rst(5)}, 0, core.SigOtherAnomalous, core.StageOther, true},
		{"no-syn", []capture.PacketRecord{ack, dat, rst(5)}, 0, core.SigOtherAnomalous, core.StageOther, true},
		{"data-after-rst", []capture.PacketRecord{syn, ack, dat, rst(5), dat}, 0, core.SigOtherAnomalous, core.StageOther, true},
		{"post-data-timeout", []capture.PacketRecord{syn, ack, dat, ack}, 1, core.SigOtherAnomalous, core.StagePostData, true},
		{"mixed-post-ack-tail", []capture.PacketRecord{syn, ack, rst(5), rak}, 0, core.SigOtherAnomalous, core.StagePostACK, true},
	}

	d := newDiffPair()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			conn := buildConn(tc.seq, tc.ctx)
			res := d.check(t, conn, tc.seq)
			if res.Signature != tc.sig || res.Stage != tc.stage || res.PossiblyTampered != tc.poss {
				t.Errorf("got sig=%s stage=%s possibly=%v, want sig=%s stage=%s possibly=%v",
					res.Signature, res.Stage, res.PossiblyTampered, tc.sig, tc.stage, tc.poss)
			}
		})
	}
}

// connFromFuzz decodes an arbitrary byte string into a connection:
// one context byte, then five bytes per packet (raw flags, payload
// size, ack selector, timestamp delta, header entropy). Every byte
// string yields a valid connection, so the fuzzer explores flag
// combinations the archetype alphabet does not contain (URG/ECE/CWR,
// SYN+FIN, RST+FIN, arbitrary ack values).
func connFromFuzz(data []byte) *capture.Connection {
	if len(data) == 0 {
		return nil
	}
	ctl, pkts := data[0], data[1:]
	n := len(pkts) / 5
	if n > 12 {
		n = 12
	}
	c := &capture.Connection{
		SrcIP:   netip.MustParseAddr("192.0.2.7"),
		DstIP:   netip.MustParseAddr("203.0.113.3"),
		SrcPort: 41000, DstPort: 443, IPVersion: 4,
	}
	if ctl&1 != 0 {
		c.SrcIP = netip.MustParseAddr("2001:db8::7")
		c.DstIP = netip.MustParseAddr("2001:db8::3")
		c.IPVersion = 6
	}
	ts := int64(0)
	for i := 0; i < n; i++ {
		b := pkts[i*5 : i*5+5]
		ts += int64(b[3] % 5) // deltas 0..4 straddle the 3s threshold
		var ackv uint32
		switch b[2] % 4 {
		case 0:
			ackv = 0
		case 1:
			ackv = 500
		case 2:
			ackv = 700
		default:
			ackv = uint32(b[2])
		}
		c.Packets = append(c.Packets, capture.PacketRecord{
			Timestamp:  ts,
			Flags:      packet.TCPFlags(b[0]),
			Seq:        uint32(b[4]) * 13,
			Ack:        ackv,
			IPID:       uint16(b[4]) << 3,
			TTL:        b[4],
			PayloadLen: int(b[1] % 4),
		})
	}
	c.TotalPackets = len(c.Packets)
	if ctl&2 != 0 {
		c.TotalPackets = 10
	}
	c.LastActivity = ts
	c.CloseTime = ts
	if ctl&4 != 0 {
		c.CloseTime = ts + 10
	}
	return c
}

// FuzzDFAClassifierParity fuzzes the oracle property directly: for
// any generated connection, the DFA and legacy matchers return the
// identical Result.
func FuzzDFAClassifierParity(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{4, 2, 0, 0, 0, 0})                                                 // lone SYN, trailing silence
	f.Add([]byte{0, 2, 0, 0, 0, 0, 16, 0, 0, 0, 1, 4, 0, 1, 0, 2})                  // SYN ACK RST
	f.Add([]byte{1, 2, 0, 0, 1, 0, 16, 0, 0, 0, 1, 24, 2, 0, 0, 2, 20, 0, 1, 0, 3}) // v6 handshake + data + RST+ACK
	f.Add([]byte{6, 4, 0, 0, 4, 0, 1, 0, 0, 0, 5})                                  // gaps + FIN
	dfa := core.NewClassifier(core.Config{Matcher: core.MatcherDFA})
	legacy := core.NewClassifier(core.Config{Matcher: core.MatcherLegacy})
	f.Fuzz(func(t *testing.T, data []byte) {
		conn := connFromFuzz(data)
		if conn == nil {
			return
		}
		var ds, ls core.Scratch
		got := dfa.ClassifyWith(conn, &ds)
		want := legacy.ClassifyWith(conn, &ls)
		if got != want {
			t.Fatalf("DFA and legacy diverge:\n  conn:   %+v\n  dfa:    %+v\n  legacy: %+v", conn, got, want)
		}
	})
}
