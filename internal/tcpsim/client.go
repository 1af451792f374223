package tcpsim

import (
	"math/rand/v2"
	"time"

	"tamperdetect/internal/netsim"
	"tamperdetect/internal/packet"
)

// Behavior selects the client's personality. Beyond the normal
// request/response flow, these model the §4.2 threat-to-validity
// sources (scanners, Happy Eyeballs) and the anomalous-but-benign
// clients behind the paper's uncategorised 2.3%.
type Behavior int

// Client behaviours.
const (
	// BehaviorNormal completes the handshake, sends its request
	// segments, awaits the response, and closes with FIN.
	BehaviorNormal Behavior = iota
	// BehaviorScanner is a ZMap-style scanner: single SYN, then a bare
	// RST in response to the SYN+ACK. Combine with IPIDFixed 54321 and
	// SYNOptions=false for the full fingerprint (§4.2).
	BehaviorScanner
	// BehaviorHappyEyeballsReset cancels after the SYN+ACK with a RST,
	// the RFC 8305 (Chromium) losing-connection behaviour.
	BehaviorHappyEyeballsReset
	// BehaviorHappyEyeballsDrop abandons the attempt silently after the
	// SYN, the RFC 6555 (curl) behaviour.
	BehaviorHappyEyeballsDrop
	// BehaviorStallHandshake completes the handshake and then goes
	// silent — a benign source of ⟨SYN;ACK→∅⟩ lookalikes.
	BehaviorStallHandshake
	// BehaviorRedundantACK completes the handshake, emits a duplicate
	// ACK, and goes silent: an anomalous grouping outside every
	// signature (the paper's "other" 2.3%, §4.1).
	BehaviorRedundantACK
	// BehaviorDoubleSYN retransmits the SYN aggressively before
	// proceeding normally, producing a non-canonical prefix.
	BehaviorDoubleSYN
	// BehaviorAbandon completes the request/response exchange but
	// never closes: the connection just goes idle without a FIN, the
	// dominant benign cause of "terminated after multiple data
	// packets" records (§4.1's uncovered Post-Data mass).
	BehaviorAbandon
	// BehaviorResetClose completes the exchange and terminates with a
	// RST instead of a FIN — the widespread browser/app shortcut that
	// makes ⟨PSH+ACK;Data → RST⟩ match connections from virtually
	// every country (§4.1, §4.3).
	BehaviorResetClose
)

// Segment is one client data send.
type Segment struct {
	Data []byte
	// Gap delays this segment relative to its trigger (handshake
	// completion or the previous segment).
	Gap time.Duration
	// AfterResponse holds this segment until response data has been
	// received following the previous segment (HTTP keep-alive style).
	AfterResponse bool
}

// ClientConfig configures a client connection attempt.
type ClientConfig struct {
	Net      NetProfile
	Behavior Behavior
	// Segments is the request script.
	Segments []Segment
	// SYNPayload, if set, rides on the SYN itself (TCP Fast-Open-style
	// optimisation or amplification probes, §4.1).
	SYNPayload []byte
	// SYNRetries and DataRetries bound retransmission attempts.
	SYNRetries  int
	DataRetries int
	// RTO is the base retransmission timeout, doubled per retry.
	RTO time.Duration
	// CloseDelay is how long after the response the client lingers
	// before FIN.
	CloseDelay time.Duration
	// ResponseTimeout closes the connection (silently) when no
	// response arrives after the request completed.
	ResponseTimeout time.Duration
}

func (c *ClientConfig) withDefaults() ClientConfig {
	out := *c
	if out.SYNRetries == 0 {
		out.SYNRetries = 3
	}
	if out.DataRetries == 0 {
		out.DataRetries = 3
	}
	if out.RTO == 0 {
		out.RTO = time.Second
	}
	if out.CloseDelay == 0 {
		out.CloseDelay = 50 * time.Millisecond
	}
	if out.ResponseTimeout == 0 {
		out.ResponseTimeout = 20 * time.Second
	}
	return out
}

// clientState is the client's connection state.
type clientState int

const (
	clStart clientState = iota
	clSynSent
	clEstablished
	clFinWait
	clClosed
)

// Client is a simulated TCP client endpoint.
type Client struct {
	sim    *netsim.Sim
	send   func([]byte)
	cfg    ClientConfig
	w      *wire
	parser *packet.SummaryParser
	rng    *rand.Rand

	state   clientState
	isn     uint32
	sndNxt  uint32
	rcvNxt  uint32
	synTry  int
	dataTry int

	segIdx       int  // next segment index to send
	awaitingResp bool // a sent segment awaits response data
	respSeen     bool // response data seen since last segment
	sentAll      bool
	finSent      bool
	finAcked     bool
	finSeq       uint32
	finTry       int
	// sendQ holds sent-but-unacknowledged data segments, oldest first;
	// the head is what RTO and fast retransmit resend.
	sendQ   []sendSeg
	dupAcks int
	// ooo buffers out-of-order response data (seq → length; the client
	// never inspects response bytes) until the gap fills.
	ooo          map[uint32]int
	retransTimer netsim.Timer
	respTimer    netsim.Timer
	closeTimer   netsim.Timer
	ackTimer     netsim.Timer
	finTimer     netsim.Timer
	ackPending   bool

	// Done reports how the attempt ended, for tests and ground truth.
	Done   bool
	Reason string
}

// NewClient builds a client. Call Attach to wire it to a path sender,
// then Start to begin the attempt.
func NewClient(sim *netsim.Sim, cfg ClientConfig, rng *rand.Rand) *Client {
	c := &Client{sim: sim, w: newWire(cfg.Net), parser: packet.NewSummaryParser()}
	c.Reset(cfg, rng)
	return c
}

// Reset readies the client for a new connection attempt on the same
// (Reset) Sim and attached sender, exactly as NewClient would build it
// — it draws the ISN from rng at the same point — while keeping its
// packet arena, parser and queue storage. Timers of the previous
// attempt are the Sim's to drop; packets the client built for it are
// invalid from here on.
func (c *Client) Reset(cfg ClientConfig, rng *rand.Rand) {
	clear(c.ooo)
	*c = Client{
		sim: c.sim, send: c.send, w: c.w, parser: c.parser,
		sendQ: c.sendQ[:0], ooo: c.ooo,
		cfg: cfg.withDefaults(), rng: rng,
	}
	c.w.reset(cfg.Net)
	c.isn = randISN(rng)
}

// Attach sets the function used to transmit packets (normally
// Path.SendFromClient).
func (c *Client) Attach(send func([]byte)) { c.send = send }

// Start begins the connection attempt.
func (c *Client) Start() {
	c.state = clSynSent
	c.sendSYN()
}

func (c *Client) sendSYN() {
	flags := packet.FlagsSYN
	payload := c.cfg.SYNPayload
	c.send(c.w.build(flags, c.isn, 0, payload, true))
	c.sndNxt = c.isn + 1 + uint32(len(payload))
	c.synTry++
	if c.cfg.Behavior == BehaviorDoubleSYN && c.synTry == 1 {
		// Immediate duplicate, before any timeout.
		c.after(30*time.Millisecond, evDoubleSYN)
	}
	c.retransTimer.Stop()
	backoff := c.cfg.RTO << (c.synTry - 1)
	if c.synTry > c.cfg.SYNRetries {
		// Out of retries: one last, longer wait, then give up.
		backoff = c.cfg.RTO << uint(c.synTry)
	}
	c.retransTimer = c.after(backoff, evSYNTimeout)
}

// clientEvent names a client timer body. Timers are scheduled as
// (client, event) pairs rather than closures, so arming one allocates
// nothing; every body re-reads the state it needs when it fires.
type clientEvent int

const (
	evDoubleSYN clientEvent = iota
	evSYNTimeout
	evRedundantACK
	evSendSegment
	evDataRTO
	evResponseTimeout
	evDelayedACK
	evResetClose
	evClose
	evFINGiveUp
	evFINRetransmit
)

func (c *Client) after(d time.Duration, ev clientEvent) netsim.Timer {
	return c.sim.ScheduleEvent(d, c, int(ev), nil)
}

// Fire implements simtime.Handler: timer ev expired.
func (c *Client) Fire(ev int, _ []byte) {
	switch clientEvent(ev) {
	case evDoubleSYN:
		if c.state == clSynSent {
			c.send(c.w.build(packet.FlagsSYN, c.isn, 0, c.cfg.SYNPayload, true))
		}
	case evSYNTimeout:
		if c.state == clSynSent {
			if c.synTry > c.cfg.SYNRetries {
				c.finish("syn-timeout")
				return
			}
			c.sendSYN()
		}
	case evRedundantACK:
		c.send(c.w.build(packet.FlagsACK, c.sndNxt, c.rcvNxt, nil, false))
		c.finish("redundant-ack-stall")
	case evSendSegment:
		// segIdx moves only in sendSegment, and at most one send is
		// armed at a time, so this is the segment the timer was armed
		// for.
		if c.state == clEstablished {
			c.sendSegment(c.cfg.Segments[c.segIdx])
		}
	case evDataRTO:
		if c.state != clEstablished || len(c.sendQ) == 0 {
			return
		}
		if c.dataTry > c.cfg.DataRetries {
			c.finish("data-timeout")
			return
		}
		c.retransmitHead()
		c.dataTry++
		c.armDataRTO()
	case evResponseTimeout:
		if c.state == clEstablished && !c.respSeen {
			c.finish("response-timeout")
		}
	case evDelayedACK:
		if c.state == clClosed || !c.ackPending {
			return
		}
		c.ackPending = false
		c.send(c.w.build(packet.FlagsACK, c.sndNxt, c.rcvNxt, nil, false))
	case evResetClose:
		if c.state == clEstablished && !c.Done {
			c.send(c.w.build(packet.FlagsRST, c.sndNxt, 0, nil, false))
			c.finish("reset-close")
		}
	case evClose:
		if c.state != clEstablished || c.finSent {
			return
		}
		c.finSent = true
		c.state = clFinWait
		c.finSeq = c.sndNxt
		c.sndNxt++
		c.sendFIN()
		// Await the server FIN; handled in handleEstablished. Give up
		// eventually either way.
		c.after(5*time.Second, evFINGiveUp)
	case evFINGiveUp:
		if !c.Done {
			c.finish("fin-timeout")
		}
	case evFINRetransmit:
		if !c.Done && c.state == clFinWait && !c.finAcked {
			c.sendFIN()
		}
	}
}

// Recv implements netsim.Endpoint.
func (c *Client) Recv(data []byte) {
	if c.state == clClosed {
		return
	}
	s, ok := decodeFor(c.parser, &c.cfg.Net, data)
	if !ok {
		return
	}
	if s.Flags.IsRST() {
		c.finish("rst")
		return
	}
	switch c.state {
	case clSynSent:
		if s.Flags.Has(packet.FlagSYN | packet.FlagACK) {
			c.handleSYNACK(s)
		}
	case clEstablished, clFinWait:
		c.handleEstablished(s)
	}
}

func (c *Client) handleSYNACK(s packet.Summary) {
	c.retransTimer.Stop()
	c.rcvNxt = s.Seq + 1
	switch c.cfg.Behavior {
	case BehaviorScanner, BehaviorHappyEyeballsReset:
		// Abort with RST instead of completing. Scanners send a bare
		// RST with the sequence number the SYN+ACK acknowledged.
		c.send(c.w.build(packet.FlagsRST, s.Ack, 0, nil, false))
		c.finish("reset-after-synack")
		return
	case BehaviorHappyEyeballsDrop:
		c.finish("abandoned")
		return
	}
	c.state = clEstablished
	c.send(c.w.build(packet.FlagsACK, c.sndNxt, c.rcvNxt, nil, false))
	switch c.cfg.Behavior {
	case BehaviorStallHandshake:
		c.finish("stalled")
		return
	case BehaviorRedundantACK:
		c.after(40*time.Millisecond, evRedundantACK)
		return
	}
	if len(c.cfg.Segments) == 0 {
		c.sentAll = true
		c.scheduleClose()
		return
	}
	c.scheduleSegment()
}

// scheduleSegment arms the send of cfg.Segments[c.segIdx].
func (c *Client) scheduleSegment() {
	if c.segIdx >= len(c.cfg.Segments) {
		c.sentAll = true
		c.armResponseTimeout()
		return
	}
	seg := c.cfg.Segments[c.segIdx]
	if seg.AfterResponse && !c.respSeen {
		c.awaitingResp = true
		c.armResponseTimeout()
		return
	}
	gap := seg.Gap
	if gap == 0 {
		gap = 5 * time.Millisecond
	}
	c.after(gap, evSendSegment)
}

func (c *Client) sendSegment(seg Segment) {
	seq := c.sndNxt
	c.sendQ = append(c.sendQ, sendSeg{seq: seq, data: seg.Data})
	c.respSeen = false
	c.send(c.w.build(packet.FlagsPSHACK, seq, c.rcvNxt, seg.Data, false))
	c.sndNxt = seq + uint32(len(seg.Data))
	if len(c.sendQ) == 1 {
		// Fresh RTO series for a newly exposed head-of-queue.
		c.dataTry = 1
		c.armDataRTO()
	}
	c.segIdx++
	c.scheduleSegment()
}

// armDataRTO schedules the retransmission timer for the current try,
// with exponential backoff.
func (c *Client) armDataRTO() {
	c.retransTimer.Stop()
	c.retransTimer = c.after(c.cfg.RTO<<(c.dataTry-1), evDataRTO)
}

// retransmitHead resends the oldest unacknowledged segment.
func (c *Client) retransmitHead() {
	h := c.sendQ[0]
	c.send(c.w.build(packet.FlagsPSHACK, h.seq, c.rcvNxt, h.data, false))
}

func (c *Client) armResponseTimeout() {
	c.respTimer.Stop()
	c.respTimer = c.after(c.cfg.ResponseTimeout, evResponseTimeout)
}

func (c *Client) handleEstablished(s packet.Summary) {
	if s.Flags.Has(packet.FlagSYN) {
		// Duplicate SYN+ACK: our handshake ACK was lost in transit.
		// Re-acknowledge cumulatively so the server can establish.
		c.send(c.w.build(packet.FlagsACK, c.sndNxt, c.rcvNxt, nil, false))
		return
	}
	if s.Flags.Has(packet.FlagACK) {
		c.handleACK(s)
	}
	if s.PayloadLen > 0 {
		if s.Seq == c.rcvNxt {
			c.rcvNxt += uint32(s.PayloadLen)
			// Drain any buffered out-of-order continuation.
			for c.ooo != nil {
				l, ok := c.ooo[c.rcvNxt]
				if !ok {
					break
				}
				delete(c.ooo, c.rcvNxt)
				c.rcvNxt += uint32(l)
			}
		} else if seqGT(s.Seq, c.rcvNxt) {
			// Out-of-order: buffer the length and emit an immediate
			// duplicate ACK so the server's fast retransmit can fill
			// the gap.
			if c.ooo == nil {
				c.ooo = make(map[uint32]int)
			}
			if len(c.ooo) < 64 {
				c.ooo[s.Seq] = s.PayloadLen
			}
			c.send(c.w.build(packet.FlagsACK, c.sndNxt, c.rcvNxt, nil, false))
		}
		// Below-rcvNxt duplicates still count as response activity and
		// get re-ACKed by the delayed ACK below.
		c.respSeen = true
		c.respTimer.Stop()
		// Delayed ACK: coalesce the acknowledgments of a response
		// burst into one cumulative ACK, as real stacks do.
		if !c.ackPending {
			c.ackPending = true
			c.ackTimer = c.after(15*time.Millisecond, evDelayedACK)
		}
		if c.awaitingResp {
			c.awaitingResp = false
			c.scheduleSegment()
		}
		if c.sentAll && !c.finSent {
			switch c.cfg.Behavior {
			case BehaviorAbandon:
				// The kernel still acknowledges delivered data even
				// though the application goes idle.
				if c.ackPending {
					c.ackPending = false
					c.ackTimer.Stop()
					c.send(c.w.build(packet.FlagsACK, c.sndNxt, c.rcvNxt, nil, false))
				}
				c.finish("abandoned-idle")
			case BehaviorResetClose:
				c.after(c.cfg.CloseDelay, evResetClose)
			default:
				c.scheduleClose()
			}
		}
	}
	if s.Flags.Has(packet.FlagFIN) {
		c.ackPending = false
		c.ackTimer.Stop()
		c.rcvNxt = s.Seq + uint32(s.PayloadLen) + 1
		c.send(c.w.build(packet.FlagsACK, c.sndNxt, c.rcvNxt, nil, false))
		if !c.finSent {
			c.send(c.w.build(packet.FlagsFINACK, c.sndNxt, c.rcvNxt, nil, false))
			c.finSent = true
			c.sndNxt++
		}
		c.finish("closed-by-peer")
	}
}

// handleACK applies cumulative acknowledgment progress: fully-acked
// segments leave the send queue; three duplicate ACKs for the head
// trigger a fast retransmit without waiting for the RTO.
func (c *Client) handleACK(s packet.Summary) {
	if c.finSent && !c.finAcked && seqGE(s.Ack, c.sndNxt) {
		c.finAcked = true
		c.finTimer.Stop()
	}
	if len(c.sendQ) == 0 {
		return
	}
	progressed := false
	for len(c.sendQ) > 0 {
		h := c.sendQ[0]
		if !seqGE(s.Ack, h.seq+uint32(len(h.data))) {
			break
		}
		// Shift rather than reslice: the queue's storage is reused
		// across connections and must keep its capacity.
		c.sendQ = c.sendQ[:copy(c.sendQ, c.sendQ[1:])]
		progressed = true
	}
	switch {
	case progressed:
		c.dupAcks = 0
		c.retransTimer.Stop()
		if len(c.sendQ) > 0 {
			c.dataTry = 1
			c.armDataRTO()
		}
	case s.PayloadLen == 0 && !s.Flags.Has(packet.FlagSYN) && !s.Flags.Has(packet.FlagFIN) &&
		s.Ack == c.sendQ[0].seq:
		c.dupAcks++
		if c.dupAcks == 3 {
			c.dupAcks = 0
			c.retransmitHead()
		}
	}
}

func (c *Client) scheduleClose() {
	if c.closeTimer != (netsim.Timer{}) {
		return
	}
	c.closeTimer = c.after(c.cfg.CloseDelay, evClose)
}

// sendFIN transmits (or retransmits) the client FIN with backoff until
// it is acknowledged or the close gives up.
func (c *Client) sendFIN() {
	c.send(c.w.build(packet.FlagsFINACK, c.finSeq, c.rcvNxt, nil, false))
	c.finTry++
	c.finTimer.Stop()
	if c.finTry <= 3 {
		c.finTimer = c.after(c.cfg.RTO<<(c.finTry-1), evFINRetransmit)
	}
}

func (c *Client) finish(reason string) {
	if c.Done {
		return
	}
	c.state = clClosed
	c.Done = true
	c.Reason = reason
	c.retransTimer.Stop()
	c.respTimer.Stop()
	c.ackTimer.Stop()
	c.finTimer.Stop()
}

// sendSeg is one sent-but-unacknowledged client data segment.
type sendSeg struct {
	seq  uint32
	data []byte
}

// seqGE reports a >= b in sequence space.
func seqGE(a, b uint32) bool { return int32(a-b) >= 0 }

// seqGT reports a > b in sequence space.
func seqGT(a, b uint32) bool { return int32(a-b) > 0 }
