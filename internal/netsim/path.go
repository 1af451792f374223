package netsim

import (
	"time"

	"tamperdetect/internal/packet"
)

// Direction of packet travel on a path.
type Direction int

// Path directions.
const (
	ClientToServer Direction = iota
	ServerToClient
)

// Reverse returns the opposite direction.
func (d Direction) Reverse() Direction { return 1 - d }

// String names the direction.
func (d Direction) String() string {
	if d == ClientToServer {
		return "client->server"
	}
	return "server->client"
}

// Endpoint receives raw IP packets delivered by a path.
type Endpoint interface {
	// Recv handles a packet that arrived at this endpoint. The bytes
	// stay valid until the connection's simulation ends (the sender
	// may have built them in a per-connection arena): copy what you
	// keep beyond that.
	Recv(data []byte)
}

// EndpointFunc adapts a function to the Endpoint interface.
type EndpointFunc func(data []byte)

// Recv implements Endpoint.
func (f EndpointFunc) Recv(data []byte) { f(data) }

// Middlebox observes and may tamper with packets traversing a path
// position. Implementations decode the raw bytes themselves — the path
// hands over exactly what is on the wire at that hop.
type Middlebox interface {
	// Process is called when a packet reaches the middlebox. Returning
	// false drops the packet. inject sends a forged packet onward from
	// the middlebox's position in the given direction; injected bytes
	// are owned by the path afterwards. data is valid until the
	// connection's simulation ends — copy what you keep beyond that.
	Process(dir Direction, data []byte, inject func(dir Direction, data []byte)) (forward bool)
}

// Segment is one stretch of a path: a propagation delay and the number
// of router hops traversed (each hop decrements the TTL).
type Segment struct {
	Delay time.Duration
	Hops  uint8
}

// Delivery is one copy of a packet a SegmentHook lets onto a segment.
// ExtraDelay is added to the segment's propagation delay, so a hook
// can jitter, reorder (large extra delay), or duplicate (two
// deliveries) traffic. Deliveries that share or mutate bytes must use
// distinct backing arrays: the path decrements TTLs in place.
type Delivery struct {
	Data       []byte
	ExtraDelay time.Duration
}

// SegmentHook intercepts every packet entering a path segment, in
// either direction, and decides what actually traverses it: return an
// empty slice to drop the packet, one Delivery to pass (possibly
// delayed or corrupted), or several to duplicate. Hooks model benign
// link pathologies — loss, reordering, duplication, jitter, bit
// corruption — as opposed to Middlebox, which models intentional
// tampering at a specific position.
type SegmentHook func(now Time, dir Direction, data []byte) []Delivery

// PathConfig describes a client↔server path with optional middleboxes.
// Segments has exactly len(Middleboxes)+1 entries: client—mb1—…—server.
type PathConfig struct {
	Segments    []Segment
	Middleboxes []Middlebox
	// Loss is the independent per-segment packet loss probability in
	// [0,1); Rand supplies the randomness when Loss > 0.
	Loss float64
	Rand func() float64
	// Hook, when set, filters every packet entering any segment (after
	// the legacy Loss draw); see SegmentHook.
	Hook SegmentHook
}

// Path carries packets between a client and a server endpoint through
// middleboxes, applying per-segment delay and TTL decrements. A Tap, if
// set, observes every packet that arrives at the server (the CDN edge's
// inbound logging position, per paper §3.2: only inbound packets are
// logged).
type Path struct {
	sim    *Sim
	cfg    PathConfig
	client Endpoint
	server Endpoint
	// Tap observes packets arriving at the server, before the server
	// endpoint handles them. data is valid until the connection's
	// simulation ends — copy what you keep beyond that.
	Tap func(at Time, data []byte)
	// Down, when true, drops everything in both directions (used to
	// model shutdown-style outages).
	Down bool

	// injected collects what a middlebox forges while it processes one
	// packet; collect is the inject callback handed to Process, bound
	// once so a hop allocates neither a closure nor a slice.
	injected []injection
	collect  func(Direction, []byte)
}

// injection is one forged packet awaiting dispatch.
type injection struct {
	dir  Direction
	data []byte
}

// NewPath wires a client and server together. cfg.Segments must have
// len(cfg.Middleboxes)+1 entries; NewPath panics otherwise, since this
// is a static topology error.
func NewPath(sim *Sim, cfg PathConfig, client, server Endpoint) *Path {
	p := &Path{sim: sim, client: client, server: server}
	p.collect = func(dir Direction, data []byte) {
		p.injected = append(p.injected, injection{dir, data})
	}
	p.Reset(cfg)
	return p
}

// Reset re-routes the path over a new topology between the same
// endpoints, for the next connection on a Reset Sim: packets still in
// flight are the Sim's to drop. It keeps Tap, clears Down, and panics
// on a malformed cfg like NewPath.
func (p *Path) Reset(cfg PathConfig) {
	if len(cfg.Segments) != len(cfg.Middleboxes)+1 {
		panic("netsim: PathConfig needs len(Segments) == len(Middleboxes)+1")
	}
	p.cfg = cfg
	p.Down = false
}

// SendFromClient injects a packet at the client end of the path.
func (p *Path) SendFromClient(data []byte) { p.send(ClientToServer, 0, data) }

// SendFromServer injects a packet at the server end of the path.
func (p *Path) SendFromServer(data []byte) { p.send(ServerToClient, 0, data) }

// position semantics: positions are segment indexes in the direction of
// travel. For ClientToServer, position i means "about to traverse
// cfg.Segments[i]"; after the last segment the packet reaches the
// server. ServerToClient mirrors this from the other end.

func (p *Path) send(dir Direction, pos int, data []byte) {
	if p.Down {
		return
	}
	if p.cfg.Loss > 0 && p.cfg.Rand != nil && p.cfg.Rand() < p.cfg.Loss {
		return
	}
	if p.cfg.Hook != nil {
		for _, d := range p.cfg.Hook(p.sim.Now(), dir, data) {
			p.deliver(dir, pos, d.Data, d.ExtraDelay)
		}
		return
	}
	p.deliver(dir, pos, data, 0)
}

// deliver carries one packet copy across the segment at pos, applying
// the segment delay plus any hook-imposed extra delay.
func (p *Path) deliver(dir Direction, pos int, data []byte, extra time.Duration) {
	p.sim.ScheduleEvent(p.segmentAt(dir, pos).Delay+extra, p, pos<<1|int(dir), data)
}

// Fire implements simtime.Handler: a packet scheduled by deliver has
// crossed its segment. kind packs the direction (bit 0) and the
// segment position.
func (p *Path) Fire(kind int, data []byte) {
	dir, pos := Direction(kind&1), kind>>1
	if p.Down {
		return
	}
	if !packet.DecrementTTL(data, p.segmentAt(dir, pos).Hops) {
		return // TTL expired in transit
	}
	next := pos + 1
	if next == len(p.cfg.Segments) {
		p.arrive(dir, data)
		return
	}
	// Injections are dispatched after the forwarding decision so a
	// forged packet never overtakes the packet that triggered it —
	// matching off-path injectors, which race behind the original.
	// Nothing below re-enters Fire (send only schedules), so one
	// scratch slice serves every hop.
	p.injected = p.injected[:0]
	forward := p.middleboxAt(dir, next).Process(dir, data, p.collect)
	if forward {
		p.send(dir, next, data)
	}
	for i := range p.injected {
		p.injectFrom(dir, next, p.injected[i].dir, p.injected[i].data)
		p.injected[i].data = nil
	}
}

// injectFrom sends a forged packet from the middlebox boundary at
// travel-position next (in the original packet's direction dir), going
// in injDir.
func (p *Path) injectFrom(dir Direction, next int, injDir Direction, inj []byte) {
	// Convert the position to the injected packet's own direction.
	// In direction dir, boundary "next" has next segments behind it and
	// len-next segments ahead.
	var pos int
	if injDir == dir {
		pos = next
	} else {
		pos = len(p.cfg.Segments) - next
	}
	p.send(injDir, pos, inj)
}

func (p *Path) segmentAt(dir Direction, pos int) Segment {
	if dir == ClientToServer {
		return p.cfg.Segments[pos]
	}
	return p.cfg.Segments[len(p.cfg.Segments)-1-pos]
}

func (p *Path) middleboxAt(dir Direction, next int) Middlebox {
	// After traversing segment index pos (direction-relative), the
	// packet is at middlebox boundary "next" (1-based from the sender).
	if dir == ClientToServer {
		return p.cfg.Middleboxes[next-1]
	}
	return p.cfg.Middleboxes[len(p.cfg.Middleboxes)-next]
}

func (p *Path) arrive(dir Direction, data []byte) {
	if dir == ClientToServer {
		if p.Tap != nil {
			p.Tap(p.sim.Now(), data)
		}
		p.server.Recv(data)
		return
	}
	p.client.Recv(data)
}
