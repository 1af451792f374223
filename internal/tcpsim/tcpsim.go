// Package tcpsim implements simplified but wire-faithful TCP endpoint
// state machines: a client that opens connections, sends requests, and
// closes gracefully, and a server that accepts, acknowledges, and
// responds. Both endpoints emit and consume real serialized IPv4/IPv6 +
// TCP packets via internal/packet, so everything between them — DPI
// middleboxes, the capture tap, the classifier — sees genuine wire
// bytes with coherent sequence numbers, IP-IDs, and TTLs.
//
// The state machines implement the subset of TCP that determines
// tampering signatures: the three-way handshake, data transfer with
// cumulative ACKs, graceful FIN teardown, RST handling and generation,
// and retransmission with exponential backoff. Congestion control,
// SACK, and window management are deliberately out of scope; no
// signature in the paper depends on them.
package tcpsim

import (
	"math/rand/v2"
	"net/netip"

	"tamperdetect/internal/packet"
)

// IPIDStrategy selects how an endpoint fills the IPv4 identification
// field — the behaviours observed in the wild (paper §4.3): zero,
// per-connection counter, or a fixed value (ZMap uses 54321).
type IPIDStrategy int

// IP-ID strategies.
const (
	IPIDCounter IPIDStrategy = iota
	IPIDZero
	IPIDFixed
)

// NetProfile describes one endpoint's network identity and header
// conventions.
type NetProfile struct {
	LocalIP    netip.Addr
	RemoteIP   netip.Addr
	LocalPort  uint16
	RemotePort uint16
	// InitialTTL is the TTL/hop-limit the endpoint stamps on packets
	// (64 and 128 are the common OS defaults, §4.3).
	InitialTTL uint8
	IPID       IPIDStrategy
	// IPIDValue seeds the counter or holds the fixed value.
	IPIDValue uint16
	Window    uint16
	// SYNOptions emits the conventional MSS/SACK/WS options on the SYN
	// (absence of options is a scanner fingerprint, §4.2).
	SYNOptions bool
}

// IsV6 reports whether the endpoint speaks IPv6.
func (n *NetProfile) IsV6() bool { return n.LocalIP.Is6() && !n.LocalIP.Is4In6() }

// wire builds serialized packets for one endpoint of a connection,
// into an arena the endpoint owns: building a packet allocates
// nothing, and the bytes stay valid until the endpoint is Reset for
// its next connection — which is the ownership rule netsim documents
// (valid until the connection's simulation ends).
type wire struct {
	prof    NetProfile
	ipid    uint16
	ip4     packet.IPv4
	ip6     packet.IPv6
	tcp     packet.TCP
	payload packet.Payload
	arena   *packet.Arena
}

// wireArenaSize holds one endpoint's packets for all but the most
// retransmission-heavy impaired connections (a clean exchange is
// ≈ 3 KiB per side); the overflow is built on the heap.
const wireArenaSize = 16 << 10

var wireSerial = packet.SerializeOptions{FixLengths: true, ComputeChecksums: true}

func newWire(prof NetProfile) *wire {
	w := &wire{arena: packet.NewArena(wireArenaSize)}
	w.reset(prof)
	return w
}

// reset points the wire at a new connection's profile and reclaims the
// previous connection's packet bytes.
func (w *wire) reset(prof NetProfile) {
	w.arena.Reset()
	w.prof = prof
	w.ipid = prof.IPIDValue
}

func (w *wire) nextIPID() uint16 {
	switch w.prof.IPID {
	case IPIDZero:
		return 0
	case IPIDFixed:
		return w.prof.IPIDValue
	default:
		id := w.ipid
		w.ipid++
		return id
	}
}

// synOptions are the standard client SYN options: MSS 1460, SACK
// permitted, window scale 7.
var synOptions = []packet.TCPOption{
	{Kind: packet.TCPOptionMSS, Data: []byte{0x05, 0xb4}},
	{Kind: packet.TCPOptionSACKOK},
	{Kind: packet.TCPOptionNOP},
	{Kind: packet.TCPOptionWindowScale, Data: []byte{7}},
}

// build serializes one segment from this endpoint with the given TCP
// fields and payload. The result is a distinct slice, safe to hand to
// the path (which decrements its TTL in place).
func (w *wire) build(flags packet.TCPFlags, seq, ack uint32, payload []byte, withOpts bool) []byte {
	w.tcp = packet.TCP{
		SrcPort: w.prof.LocalPort,
		DstPort: w.prof.RemotePort,
		Seq:     seq,
		Ack:     ack,
		Flags:   flags,
		Window:  w.prof.Window,
	}
	if withOpts && w.prof.SYNOptions {
		w.tcp.Options = synOptions
	}
	w.payload = payload
	var out []byte
	var err error
	if w.prof.IsV6() {
		w.ip6 = packet.IPv6{
			NextHeader: 6,
			HopLimit:   w.prof.InitialTTL,
			SrcIP:      w.prof.LocalIP,
			DstIP:      w.prof.RemoteIP,
		}
		w.tcp.SetNetworkLayerForChecksum(&w.ip6)
		out, err = w.arena.Serialize(wireSerial, &w.ip6, &w.tcp, &w.payload)
	} else {
		w.ip4 = packet.IPv4{
			TTL:      w.prof.InitialTTL,
			ID:       w.nextIPID(),
			Flags:    packet.IPv4DontFragment,
			Protocol: 6,
			SrcIP:    w.prof.LocalIP,
			DstIP:    w.prof.RemoteIP,
		}
		w.tcp.SetNetworkLayerForChecksum(&w.ip4)
		out, err = w.arena.Serialize(wireSerial, &w.ip4, &w.tcp, &w.payload)
	}
	if err != nil {
		// The layers are fully under our control; a serialize error is
		// a programming bug.
		panic("tcpsim: serialize failed: " + err.Error())
	}
	return out
}

// randISN draws a random initial sequence number away from wraparound.
func randISN(rng *rand.Rand) uint32 {
	return rng.Uint32()%0xf0000000 + 0x1000
}

// decodeFor parses raw bytes, filtering to this endpoint's ports.
// Packets with broken IP/TCP checksums are discarded first, as a real
// NIC/kernel would — in-flight corruption degenerates to loss.
func decodeFor(parser *packet.SummaryParser, prof *NetProfile, data []byte) (packet.Summary, bool) {
	var s packet.Summary
	if !packet.ChecksumsValid(data) {
		return s, false
	}
	if err := parser.Parse(data, &s); err != nil {
		return s, false
	}
	if s.DstPort != prof.LocalPort || s.SrcPort != prof.RemotePort {
		return s, false
	}
	return s, true
}
