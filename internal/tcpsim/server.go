package tcpsim

import (
	"math/rand/v2"
	"time"

	"tamperdetect/internal/netsim"
	"tamperdetect/internal/packet"
)

// ServerConfig configures the simulated CDN edge endpoint for one
// connection.
type ServerConfig struct {
	Net NetProfile
	// ResponseSegments and ResponseSegmentSize shape the reply sent
	// after each request data packet that looks complete.
	ResponseSegments    int
	ResponseSegmentSize int
	// ResponseDelay models server think time.
	ResponseDelay time.Duration
	// RTO is the base retransmission timeout for the SYN+ACK and for
	// unacknowledged response data.
	RTO time.Duration
	// SYNACKRetries bounds SYN+ACK retransmission.
	SYNACKRetries int
	// ResponseRetries bounds response-data retransmission; after that
	// many unanswered timeouts the server stops resending (the client
	// is presumed gone) without closing the connection.
	ResponseRetries int
}

func (c *ServerConfig) withDefaults() ServerConfig {
	out := *c
	if out.ResponseSegments == 0 {
		out.ResponseSegments = 2
	}
	if out.ResponseSegmentSize == 0 {
		out.ResponseSegmentSize = 1200
	}
	if out.ResponseDelay == 0 {
		out.ResponseDelay = 10 * time.Millisecond
	}
	if out.RTO == 0 {
		out.RTO = time.Second
	}
	if out.SYNACKRetries == 0 {
		out.SYNACKRetries = 2
	}
	if out.ResponseRetries == 0 {
		out.ResponseRetries = 5
	}
	return out
}

type serverState int

const (
	svListen serverState = iota
	svSynReceived
	svEstablished
	svCloseWait
	svClosed
	svAborted
)

// Server is a simulated TCP server endpoint handling one connection.
// After an abort (inbound RST) it answers further segments with RSTs,
// the way a real stack treats packets for a vanished connection.
type Server struct {
	sim    *netsim.Sim
	send   func([]byte)
	cfg    ServerConfig
	w      *wire
	parser *packet.SummaryParser
	rng    *rand.Rand

	state      serverState
	isn        uint32
	sndNxt     uint32
	rcvNxt     uint32
	clientISN  uint32
	synackTry  int
	retransmit netsim.Timer
	finSent    bool

	// respQ holds sent-but-unacknowledged response segments, oldest
	// first; respTimer drives their RTO retransmission.
	respQ     []respSeg
	respTry   int
	respTimer netsim.Timer
	dupAcks   int
	// ooo buffers out-of-order request data until the gap fills.
	ooo map[uint32][]byte

	// RequestData accumulates the application bytes received, in
	// order, for tests and ground-truth checks.
	RequestData []byte
	// Aborted reports whether the connection died on a RST.
	Aborted bool
}

// NewServer builds a server endpoint. Call Attach before delivering
// packets to it.
func NewServer(sim *netsim.Sim, cfg ServerConfig, rng *rand.Rand) *Server {
	s := &Server{sim: sim, w: newWire(cfg.Net), parser: packet.NewSummaryParser()}
	s.Reset(cfg, rng)
	return s
}

// Reset returns the server to svListen for a new connection on the
// same (Reset) Sim and attached sender, exactly as NewServer would
// build it — it draws the ISN from rng at the same point — while
// keeping its packet arena, parser and buffer storage. RequestData of
// the previous connection is overwritten: copy it first if needed.
func (s *Server) Reset(cfg ServerConfig, rng *rand.Rand) {
	clear(s.ooo)
	*s = Server{
		sim: s.sim, send: s.send, w: s.w, parser: s.parser,
		respQ: s.respQ[:0], ooo: s.ooo, RequestData: s.RequestData[:0],
		cfg: cfg.withDefaults(), rng: rng,
	}
	s.w.reset(cfg.Net)
	s.isn = randISN(rng)
}

// Attach sets the transmit function (normally Path.SendFromServer).
func (s *Server) Attach(send func([]byte)) { s.send = send }

// Recv implements netsim.Endpoint.
func (s *Server) Recv(data []byte) {
	p, ok := decodeFor(s.parser, &s.cfg.Net, data)
	if !ok {
		return
	}
	if p.Flags.IsRST() {
		// An acceptable RST tears the connection down (RFC 793 §3.4;
		// we skip the window check — injectors aim for rcv.nxt and our
		// clients are honest).
		if s.state != svListen && s.state != svClosed {
			s.abort()
		}
		return
	}
	switch s.state {
	case svListen:
		if p.Flags.Has(packet.FlagSYN) && !p.Flags.Has(packet.FlagACK) {
			s.handleSYN(p)
		}
	case svSynReceived:
		if p.Flags.Has(packet.FlagSYN) && !p.Flags.Has(packet.FlagACK) {
			// Duplicate SYN: re-acknowledge.
			s.sendSYNACK()
			return
		}
		if p.Flags.Has(packet.FlagACK) && seqGE(p.Ack, s.isn+1) {
			s.state = svEstablished
			s.retransmit.Stop()
		}
		// Data or FIN riding the establishing segment (request-on-SYN
		// payloads, or a FIN whose predecessors were lost) is handled
		// once established.
		if s.state == svEstablished && (p.PayloadLen > 0 || p.Flags.Has(packet.FlagFIN)) {
			s.handleSegment(p)
		}
	case svEstablished, svCloseWait:
		s.handleSegment(p)
	case svClosed:
		// LAST_ACK/TIME_WAIT equivalent: a late duplicate of a cleanly
		// closed connection gets a challenge ACK, not a RST (RFC 793
		// §3.9) — wandering duplicates must not look like resets.
		s.send(s.w.build(packet.FlagsACK, s.sndNxt, s.rcvNxt, nil, false))
	case svAborted:
		// Half-open: answer with RST keyed to the incoming segment.
		s.respondRST(p)
	}
}

func (s *Server) handleSYN(p packet.Summary) {
	s.clientISN = p.Seq
	s.rcvNxt = p.Seq + 1
	if p.PayloadLen > 0 {
		// Data on SYN: accept it (the paper observes HTTP requests on
		// SYN, §4.1); it sits at seq ISN+1.
		s.RequestData = append(s.RequestData, p.Payload...)
		s.rcvNxt += uint32(p.PayloadLen)
	}
	s.state = svSynReceived
	s.sndNxt = s.isn + 1
	s.sendSYNACK()
}

func (s *Server) sendSYNACK() {
	s.send(s.w.build(packet.FlagsSYNACK, s.isn, s.rcvNxt, nil, true))
	s.synackTry++
	s.retransmit.Stop()
	if s.synackTry <= s.cfg.SYNACKRetries {
		s.retransmit = s.after(s.cfg.RTO<<(s.synackTry-1), evSYNACKRetransmit)
	}
}

// serverEvent names a server timer body; see clientEvent.
type serverEvent int

const (
	evSYNACKRetransmit serverEvent = iota
	evRespond
	evRespRTO
)

func (s *Server) after(d time.Duration, ev serverEvent) netsim.Timer {
	return s.sim.ScheduleEvent(d, s, int(ev), nil)
}

// Fire implements simtime.Handler: timer ev expired.
func (s *Server) Fire(ev int, _ []byte) {
	switch serverEvent(ev) {
	case evSYNACKRetransmit:
		if s.state == svSynReceived {
			s.sendSYNACK()
		}
	case evRespond:
		s.respond()
	case evRespRTO:
		if s.state != svEstablished || len(s.respQ) == 0 {
			return
		}
		if s.respTry > s.cfg.ResponseRetries {
			s.respQ = s.respQ[:0]
			return
		}
		s.retransmitResponseHead()
		s.respTry++
		s.armRespRTO()
	}
}

func (s *Server) handleSegment(p packet.Summary) {
	if p.Flags.Has(packet.FlagACK) {
		s.handleACK(p)
	}
	if p.PayloadLen > 0 {
		s.handleData(p)
	}
	if p.Flags.Has(packet.FlagFIN) {
		s.rcvNxt = p.Seq + uint32(p.PayloadLen) + 1
		s.send(s.w.build(packet.FlagsACK, s.sndNxt, s.rcvNxt, nil, false))
		if !s.finSent {
			s.finSent = true
			s.send(s.w.build(packet.FlagsFINACK, s.sndNxt, s.rcvNxt, nil, false))
			s.sndNxt++
		}
		s.respTimer.Stop()
		s.respQ = s.respQ[:0]
		s.state = svClosed
	}
}

// handleACK retires acknowledged response segments and fast-retransmits
// on three duplicate ACKs, mirroring the client's loss recovery.
func (s *Server) handleACK(p packet.Summary) {
	progressed := false
	for len(s.respQ) > 0 {
		head := s.respQ[0]
		if !seqGE(p.Ack, head.seq+uint32(len(head.payload))) {
			break
		}
		// Shift rather than reslice: the queue's storage is reused
		// across connections and must keep its capacity.
		s.respQ = s.respQ[:copy(s.respQ, s.respQ[1:])]
		progressed = true
	}
	if progressed {
		s.dupAcks = 0
		s.respTimer.Stop()
		if len(s.respQ) > 0 {
			s.respTry = 1
			s.armRespRTO()
		}
		return
	}
	if len(s.respQ) > 0 && p.PayloadLen == 0 &&
		!p.Flags.Has(packet.FlagSYN) && !p.Flags.Has(packet.FlagFIN) &&
		p.Ack == s.respQ[0].seq {
		s.dupAcks++
		if s.dupAcks >= 3 {
			s.dupAcks = 0
			s.retransmitResponseHead()
		}
	}
}

func (s *Server) handleData(p packet.Summary) {
	advanced := false
	if p.Seq == s.rcvNxt {
		s.RequestData = append(s.RequestData, p.Payload...)
		s.rcvNxt += uint32(p.PayloadLen)
		advanced = true
		// Drain any buffered out-of-order segments the gap fill exposed.
		for s.ooo != nil {
			payload, ok := s.ooo[s.rcvNxt]
			if !ok {
				break
			}
			delete(s.ooo, s.rcvNxt)
			s.RequestData = append(s.RequestData, payload...)
			s.rcvNxt += uint32(len(payload))
		}
	} else if seqGT(p.Seq, s.rcvNxt) {
		// Out-of-order: buffer a copy until the hole fills.
		if s.ooo == nil {
			s.ooo = make(map[uint32][]byte)
		}
		if _, dup := s.ooo[p.Seq]; !dup && len(s.ooo) < 32 {
			s.ooo[p.Seq] = append([]byte(nil), p.Payload...)
		}
	}
	// ACK whatever we have (cumulative; duplicates and gaps re-ACKed,
	// which doubles as the client's dup-ACK signal).
	s.send(s.w.build(packet.FlagsACK, s.sndNxt, s.rcvNxt, nil, false))
	// Respond only when the request actually advanced: retransmitted or
	// duplicated request data must not elicit a second response burst.
	if advanced {
		s.after(s.cfg.ResponseDelay, evRespond)
	}
}

// respond sends the configured response segments and tracks them for
// retransmission until acknowledged.
func (s *Server) respond() {
	if s.state != svEstablished {
		return
	}
	arm := len(s.respQ) == 0
	for i := 0; i < s.cfg.ResponseSegments; i++ {
		payload := responseBody(s.cfg.ResponseSegmentSize)
		s.respQ = append(s.respQ, respSeg{seq: s.sndNxt, payload: payload})
		s.send(s.w.build(packet.FlagsPSHACK, s.sndNxt, s.rcvNxt, payload, false))
		s.sndNxt += uint32(len(payload))
	}
	if arm && len(s.respQ) > 0 {
		s.respTry = 1
		s.armRespRTO()
	}
}

func (s *Server) retransmitResponseHead() {
	if len(s.respQ) == 0 {
		return
	}
	head := s.respQ[0]
	s.send(s.w.build(packet.FlagsPSHACK, head.seq, s.rcvNxt, head.payload, false))
}

// armRespRTO schedules response retransmission with exponential
// backoff. After ResponseRetries unanswered timeouts the server stops
// resending without closing — a real server eventually gives up on a
// silent client, and the already-captured flow must still classify as
// untampered.
func (s *Server) armRespRTO() {
	s.respTimer.Stop()
	s.respTimer = s.after(s.cfg.RTO<<(s.respTry-1), evRespRTO)
}

// respondRST answers a segment for a dead connection, mirroring RFC 793
// reset generation: if the incoming segment has ACK, the RST carries
// seq = seg.ack; otherwise seq = 0 with RST+ACK acknowledging the
// segment.
func (s *Server) respondRST(p packet.Summary) {
	if p.Flags.Has(packet.FlagACK) {
		s.send(s.w.build(packet.FlagsRST, p.Ack, 0, nil, false))
	} else {
		s.send(s.w.build(packet.FlagsRSTACK, 0, p.Seq+uint32(p.PayloadLen)+1, nil, false))
	}
}

func (s *Server) abort() {
	s.state = svAborted
	s.Aborted = true
	s.retransmit.Stop()
	s.respTimer.Stop()
}

// respSeg is one unacknowledged response segment.
type respSeg struct {
	seq     uint32
	payload []byte
}

// responsePattern is the deterministic response payload: every
// response segment is a prefix of it, shared read-only (build copies
// it into the packet, respQ only points at it).
var responsePattern = makeResponseBody(1460)

// responseBody returns the deterministic response payload of n bytes.
func responseBody(n int) []byte {
	if n <= len(responsePattern) {
		return responsePattern[:n:n]
	}
	return makeResponseBody(n)
}

func makeResponseBody(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('A' + i%26)
	}
	return b
}
