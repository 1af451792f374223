package core

import (
	"sync"

	"tamperdetect/internal/capture"
	"tamperdetect/internal/packet"
)

// MatcherMode selects the signature-matching engine inside Classifier.
type MatcherMode int

const (
	// MatcherDFA (the default) classifies each record in one pass: the
	// 19 Table 1 signatures plus the stage taxonomy are compiled once,
	// at startup, into a merged decision automaton over per-packet
	// events, so matching costs one table lookup per packet instead of
	// a prefix walk plus per-signature tail scans.
	MatcherDFA MatcherMode = iota
	// MatcherLegacy is the original multi-pass matcher (prefix walk,
	// tail split, per-signature counting). It is retained verbatim as
	// the differential-testing oracle; the DFA must agree with it on
	// every input (see dfa_test.go and FuzzDFAClassifierParity).
	MatcherLegacy
)

// The DFA's input alphabet. Each reconstructed packet maps to exactly
// one event; the mapping captures everything the legacy classifier
// ever inspects about a packet (flag predicates, payload presence,
// and — for bare RSTs — how its ack number relates to the first bare
// RST's), so a state machine over these events can reproduce the
// legacy verdict exactly.
type dfaEvent uint8

const (
	evSYN      dfaEvent = iota // pure SYN (no ACK/RST/FIN), no payload
	evSYNData                  // pure SYN carrying payload
	evPureACK                  // handshake ACK: ACK, no SYN/RST/FIN/PSH, no payload
	evAckEmpty                 // ACK without payload, but PSH set (non-pure)
	evAckData                  // ACK (no SYN/FIN) with payload
	evData                     // payload without a plain ACK (e.g. SYN+ACK data)
	evEmpty                    // no payload, no plain ACK (e.g. SYN+ACK)
	evFINEmpty                 // FIN (no RST), no payload
	evFINData                  // FIN (no RST) with payload
	evRSTACK                   // RST+ACK
	evRSTZero                  // bare RST, ack == 0
	evRSTEq                    // bare RST, nonzero ack equal to the first nonzero bare ack
	evRSTNe                    // bare RST, nonzero ack differing from the first
	numDFAEvents
)

// eventOf maps one packet to its event. reg/haveReg carry the first
// nonzero bare-RST ack across the record (the one piece of per-record
// context the alphabet needs, kept in the caller so the automaton's
// state space stays finite).
func eventOf(p *capture.PacketRecord, reg *uint32, haveReg *bool) dfaEvent {
	f := p.Flags
	if f.IsRST() {
		if f.Has(packet.FlagACK) {
			return evRSTACK
		}
		a := p.Ack
		if a == 0 {
			return evRSTZero
		}
		if !*haveReg {
			*haveReg, *reg = true, a
			return evRSTEq
		}
		if a == *reg {
			return evRSTEq
		}
		return evRSTNe
	}
	data := p.PayloadLen > 0
	if f.Has(packet.FlagSYN) && !f.HasAny(packet.FlagACK|packet.FlagFIN) {
		if data {
			return evSYNData
		}
		return evSYN
	}
	if f.Has(packet.FlagFIN) {
		if data {
			return evFINData
		}
		return evFINEmpty
	}
	if f.Has(packet.FlagACK) && !f.Has(packet.FlagSYN) {
		if data {
			return evAckData
		}
		if !f.Has(packet.FlagPSH) {
			return evPureACK
		}
		return evAckEmpty
	}
	if data {
		return evData
	}
	return evEmpty
}

// absState is the abstract classifier state the compiler enumerates:
// everything the legacy verdict depends on, quotiented down to what
// still distinguishes outcomes (counts saturate at 2, the bare-RST
// ack pattern collapses to five classes, FIN is dropped once an RST
// makes it irrelevant). BFS over stepAbs from the zero state reaches
// ~10^2 states; the runtime DFA is the resulting transition table.
type absState struct {
	// pos tracks the canonical prefix: 0 start, 1 [SYN], 2 [SYN,ACK],
	// 3 [SYN,ACK,data], 4 [SYN,ACK,data,...], 5 non-canonical.
	pos    uint8
	fin    bool  // FIN seen (meaningful only while no RST seen)
	tail   bool  // at least one RST seen; prefix frozen
	broken bool  // non-RST packet after an RST: SigOtherAnomalous
	bare   uint8 // bare RSTs in the tail: 0, 1, 2 (==2 means >=2)
	wack   uint8 // RST+ACKs in the tail: 0, 1, 2 (==2 means >=2)
	ack    uint8 // bare-RST ack pattern (ackNone..ackMixed)
}

// Bare-RST ack patterns, mirroring classifyMultiRST's taxonomy.
const (
	ackNone  = iota // no bare RST yet
	ackZero         // all bare acks zero
	ackEq           // all bare acks nonzero and equal
	ackNe           // all bare acks nonzero, not all equal
	ackMixed        // both zero and nonzero bare acks
)

func ackStep(a uint8, e dfaEvent) uint8 {
	switch a {
	case ackNone:
		if e == evRSTZero {
			return ackZero
		}
		return ackEq
	case ackZero:
		if e == evRSTZero {
			return ackZero
		}
		return ackMixed
	case ackEq:
		switch e {
		case evRSTZero:
			return ackMixed
		case evRSTEq:
			return ackEq
		default:
			return ackNe
		}
	case ackNe:
		if e == evRSTZero {
			return ackMixed
		}
		return ackNe
	default:
		return ackMixed
	}
}

func posStep(pos uint8, e dfaEvent) uint8 {
	switch pos {
	case 0:
		// First packet must be a pure SYN (payload irrelevant).
		if e == evSYN || e == evSYNData {
			return 1
		}
	case 1:
		// Second must be the handshake's pure ACK.
		if e == evPureACK {
			return 2
		}
	case 2:
		// Third must carry payload; flags are irrelevant here.
		if e == evSYNData || e == evAckData || e == evData || e == evFINData {
			return 3
		}
	case 3, 4:
		// Further packets must be plain ACKs or more data: ACK set,
		// no SYN/FIN/RST.
		if e == evPureACK || e == evAckEmpty || e == evAckData {
			return 4
		}
	}
	return 5
}

func stepAbs(s absState, e dfaEvent) absState {
	if s.broken {
		return s
	}
	switch e {
	case evRSTACK:
		s.tail, s.fin = true, false
		if s.wack < 2 {
			s.wack++
		}
		return s
	case evRSTZero, evRSTEq, evRSTNe:
		s.tail, s.fin = true, false
		if s.bare < 2 {
			s.bare++
		}
		s.ack = ackStep(s.ack, e)
		return s
	}
	if s.tail {
		// Non-RST traffic after the tear-down started: non-canonical.
		return absState{tail: true, broken: true}
	}
	if e == evFINEmpty || e == evFINData {
		s.fin = true
	}
	s.pos = posStep(s.pos, e)
	return s
}

// verdictOf maps a final abstract state to the legacy (stage,
// signature) pair for a possibly-tampered record. It is the compiled
// image of classifyPrefix + matchSignature + classifyMultiRST.
func verdictOf(s absState) (Stage, Signature) {
	if s.broken {
		return StageOther, SigOtherAnomalous
	}
	var stage Stage
	switch s.pos {
	case 1:
		stage = StagePostSYN
	case 2:
		stage = StagePostACK
	case 3:
		stage = StagePostPSH
	case 4:
		stage = StagePostData
	default:
		// Empty or non-canonical prefix (including an RST as the very
		// first packet).
		return StageOther, SigOtherAnomalous
	}
	bare, wack := s.bare, s.wack
	var sig Signature
	switch stage {
	case StagePostSYN:
		switch {
		case bare == 0 && wack == 0:
			sig = SigSYNTimeout
		case bare > 0 && wack > 0:
			sig = SigSYNRSTRSTACK
		case wack > 0:
			sig = SigSYNRSTACK
		default:
			sig = SigSYNRST
		}
	case StagePostACK:
		switch {
		case bare == 0 && wack == 0:
			sig = SigACKTimeout
		case bare > 0 && wack > 0:
			sig = SigOtherAnomalous // no mixed Post-ACK signature in Table 1
		case bare == 1:
			sig = SigACKRST
		case bare > 1:
			sig = SigACKRSTRST
		case wack == 1:
			sig = SigACKRSTACK
		default:
			sig = SigACKRSTACKRSTACK
		}
	case StagePostPSH:
		switch {
		case bare == 0 && wack == 0:
			sig = SigPSHTimeout
		case bare > 0 && wack > 0:
			sig = SigPSHRSTRSTACK
		case wack >= 2:
			sig = SigPSHRSTACKRSTACK
		case wack == 1:
			sig = SigPSHRSTACK
		case bare == 1:
			sig = SigPSHRST
		case s.ack == ackMixed:
			sig = SigPSHRSTRSTZero
		case s.ack == ackNe:
			sig = SigPSHRSTNeqRST
		default:
			sig = SigPSHRSTEqRST
		}
	case StagePostData:
		switch {
		case bare == 0 && wack == 0:
			// Table 1 has no ⟨PSH+ACK;Data → ∅⟩ signature; the stage is
			// still reported (§4.1's uncovered remainder).
			sig = SigOtherAnomalous
		case wack > 0:
			sig = SigDataRSTACK
		default:
			sig = SigDataRST
		}
	}
	return stage, sig
}

// dfaInfo is the per-state verdict, precomputed at compile time so the
// runtime does one lookup after the event loop.
type dfaInfo struct {
	stage  Stage
	sig    Signature
	hasRST bool
	hasFIN bool
}

// dfa is the compiled automaton: a dense transition table over the
// event alphabet plus the per-state verdicts. State 0 is the start.
type dfa struct {
	next [][numDFAEvents]uint16
	info []dfaInfo
}

// compiledDFA builds the automaton once, on first use, and shares it
// between every Classifier (it is immutable after construction).
var compiledDFA = sync.OnceValue(buildDFA)

// buildDFA enumerates the reachable abstract states breadth-first and
// freezes the transition table and verdicts.
func buildDFA() *dfa {
	ids := map[absState]uint16{}
	var states []absState
	add := func(s absState) uint16 {
		if id, ok := ids[s]; ok {
			return id
		}
		id := uint16(len(states))
		ids[s] = id
		states = append(states, s)
		return id
	}
	add(absState{})
	d := &dfa{}
	for i := 0; i < len(states); i++ {
		var row [numDFAEvents]uint16
		for e := dfaEvent(0); e < numDFAEvents; e++ {
			row[e] = add(stepAbs(states[i], e))
		}
		d.next = append(d.next, row)
	}
	for _, s := range states {
		stage, sig := verdictOf(s)
		d.info = append(d.info, dfaInfo{
			stage:  stage,
			sig:    sig,
			hasRST: s.tail,
			hasFIN: s.fin,
		})
	}
	return d
}

// classifyDFA is ClassifyWith on the compiled automaton: one pass over
// the reconstructed packets computes the final state (carrying the
// signature and stage), the RST/FIN disposition bits, and the
// inactivity gap; the surrounding disposition logic, evidence, and
// domain extraction are shared with the legacy path unchanged.
func (cl *Classifier) classifyDFA(conn *capture.Connection, s *Scratch) Result {
	s.recs = capture.ReconstructInto(conn, s.recs)
	recs := s.recs
	res := Result{Signature: SigNotTampering, Stage: StageNone}
	res.Domain, res.Protocol = domainAndProtocol(conn, recs, s)

	if len(recs) == 0 {
		return res
	}

	d := cl.dfa
	var reg uint32
	haveReg := false
	state := d.next[0][eventOf(&recs[0], &reg, &haveReg)]
	gap := false
	prev := recs[0].Timestamp
	for i := 1; i < len(recs); i++ {
		p := &recs[i]
		if p.Timestamp-prev >= cl.cfg.InactivityThreshold {
			gap = true
		}
		prev = p.Timestamp
		state = d.next[state][eventOf(p, &reg, &haveReg)]
	}
	inf := &d.info[state]

	trailing := conn.TotalPackets < cl.cfg.MaxPackets &&
		conn.CloseTime-conn.LastActivity >= cl.cfg.InactivityThreshold

	res.Evidence = computeEvidence(recs)
	res.Evidence.IPIDValid = conn.IPVersion == 4

	if inf.hasFIN && !inf.hasRST {
		// Graceful termination.
		return res
	}
	if !inf.hasRST && !gap && !trailing {
		// Completed the window without anomaly (ongoing or graceful).
		return res
	}

	res.PossiblyTampered = true
	res.Stage, res.Signature = inf.stage, inf.sig
	return res
}
