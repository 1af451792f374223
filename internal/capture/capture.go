// Package capture implements the paper's data-collection pipeline with
// all four of its §3.2 constraints:
//
//  1. only inbound packets are logged;
//  2. timestamps have 1-second granularity, so packets may be recorded
//     out of order and order must be reconstructed from headers;
//  3. only the first MaxPackets (10) packets of a connection are kept;
//  4. connections are sampled uniformly (1 in Rate) by flow hash.
//
// The output — Connection records — is the classifier's input format.
// A binary file codec (codec.go) lets the cmd tools exchange captures.
package capture

import (
	"encoding/binary"
	"math/rand/v2"
	"net/netip"

	"tamperdetect/internal/netsim"
	"tamperdetect/internal/packet"
)

// PacketRecord is one logged inbound packet: exactly the header fields
// and truncated payload the paper's pipeline retains.
type PacketRecord struct {
	// Timestamp is whole seconds since scenario start (1 s granularity
	// per §3.2).
	Timestamp int64
	Flags     packet.TCPFlags
	Seq       uint32
	Ack       uint32
	IPID      uint16
	TTL       uint8
	Window    uint16
	// PayloadLen is the original payload length; Payload holds at most
	// MaxPayload captured bytes of it.
	PayloadLen int
	Payload    []byte
	HasOptions bool
}

// Connection is one sampled connection's inbound record.
type Connection struct {
	SrcIP     netip.Addr
	DstIP     netip.Addr
	SrcPort   uint16
	DstPort   uint16
	IPVersion int

	// Packets holds up to MaxPackets records in logging order (which
	// may differ from arrival order within a second).
	Packets []PacketRecord
	// TotalPackets counts every inbound packet including unrecorded
	// ones beyond the cap.
	TotalPackets int
	// LastActivity is the 1-second timestamp of the last inbound
	// packet, recorded or not.
	LastActivity int64
	// CloseTime is when the collection window for this connection
	// ended (sampler drain time), for trailing-silence measurement.
	CloseTime int64
}

// Key identifies the connection's flow.
func (c *Connection) Key() FlowKey {
	return FlowKey{Src: c.SrcIP, Dst: c.DstIP, SrcPort: c.SrcPort, DstPort: c.DstPort}
}

// FlowKey is the 4-tuple of the client→server direction.
type FlowKey struct {
	Src, Dst         netip.Addr
	SrcPort, DstPort uint16
}

// Config tunes the sampler.
type Config struct {
	// Rate samples 1 in Rate connections (1 records everything; the
	// paper's deployment uses 10 000).
	Rate uint64
	// MaxPackets caps recorded packets per connection (paper: 10).
	MaxPackets int
	// MaxPayload caps captured payload bytes per packet.
	MaxPayload int
	// ShuffleWithinSecond randomizes logging order among packets that
	// share a timestamp, reproducing constraint 2; nil disables.
	ShuffleWithinSecond *rand.Rand
	// VerifyChecksums drops inbound packets whose IP/TCP checksums do
	// not verify, as the deployment's kernel tap would never surface
	// them. Enable when the feed can carry corrupted-in-flight packets
	// (e.g. simulations with bit-corruption impairments).
	VerifyChecksums bool
}

// DefaultConfig is the paper's deployment configuration, except Rate=1:
// scenario generators emit the sampled population directly (see
// DESIGN.md), and the ablation benches re-enable 1-in-10k sampling.
func DefaultConfig() Config {
	return Config{Rate: 1, MaxPackets: 10, MaxPayload: 512}
}

// Sampler ingests inbound packets at the server tap and accumulates
// sampled connection records.
type Sampler struct {
	cfg    Config
	parser *packet.SummaryParser
	flows  map[FlowKey]*Connection
	order  []FlowKey // insertion order for deterministic drains

	// Stats.
	SeenPackets    int
	SampledPackets int
}

// NewSampler builds a sampler.
func NewSampler(cfg Config) *Sampler {
	s := &Sampler{
		parser: packet.NewSummaryParser(),
		flows:  make(map[FlowKey]*Connection),
	}
	s.Reset(cfg)
	return s
}

// Reset forgets every tracked flow and the stats and applies cfg, as
// NewSampler would, but keeps the sampler's parser and table storage.
// Connections already returned by a Drain stay the caller's.
func (s *Sampler) Reset(cfg Config) {
	if cfg.Rate == 0 {
		cfg.Rate = 1
	}
	if cfg.MaxPackets == 0 {
		cfg.MaxPackets = 10
	}
	if cfg.MaxPayload == 0 {
		cfg.MaxPayload = 512
	}
	s.cfg = cfg
	clear(s.flows)
	s.order = s.order[:0]
	s.SeenPackets, s.SampledPackets = 0, 0
}

// Inbound ingests one inbound packet; use it as a netsim path tap.
func (s *Sampler) Inbound(at netsim.Time, data []byte) {
	if s.cfg.VerifyChecksums && !packet.ChecksumsValid(data) {
		return
	}
	var sum packet.Summary
	if err := s.parser.Parse(data, &sum); err != nil {
		return
	}
	s.SeenPackets++
	key := FlowKey{Src: sum.SrcIP, Dst: sum.DstIP, SrcPort: sum.SrcPort, DstPort: sum.DstPort}
	conn, tracked := s.flows[key]
	if !tracked {
		// New flows are admitted only on their SYN and only when the
		// flow hash selects them; mid-flow packets of unsampled
		// connections are ignored, as in the deployment.
		if !sum.Flags.Has(packet.FlagSYN) || sum.Flags.Has(packet.FlagACK) {
			return
		}
		if !s.selected(key) {
			return
		}
		conn = &Connection{
			SrcIP: sum.SrcIP, DstIP: sum.DstIP,
			SrcPort: sum.SrcPort, DstPort: sum.DstPort,
			IPVersion: sum.IPVersion,
		}
		s.flows[key] = conn
		s.order = append(s.order, key)
	}
	ts := at.Unix()
	conn.TotalPackets++
	conn.LastActivity = ts
	if len(conn.Packets) >= s.cfg.MaxPackets {
		return
	}
	s.SampledPackets++
	rec := PacketRecord{
		Timestamp:  ts,
		Flags:      sum.Flags,
		Seq:        sum.Seq,
		Ack:        sum.Ack,
		IPID:       sum.IPID,
		TTL:        sum.TTL,
		Window:     sum.Window,
		PayloadLen: sum.PayloadLen,
		HasOptions: sum.HasOptions,
	}
	if n := sum.PayloadLen; n > 0 {
		if n > s.cfg.MaxPayload {
			n = s.cfg.MaxPayload
		}
		rec.Payload = append([]byte(nil), sum.Payload[:n]...)
	}
	if rng := s.cfg.ShuffleWithinSecond; rng != nil && len(conn.Packets) > 0 {
		// Insert at a random position among records of the same second,
		// modelling the unordered log.
		lo := len(conn.Packets)
		for lo > 0 && conn.Packets[lo-1].Timestamp == ts {
			lo--
		}
		pos := lo + rng.IntN(len(conn.Packets)-lo+1)
		conn.Packets = append(conn.Packets, PacketRecord{})
		copy(conn.Packets[pos+1:], conn.Packets[pos:])
		conn.Packets[pos] = rec
		return
	}
	conn.Packets = append(conn.Packets, rec)
}

// selected applies the deterministic uniform flow-hash sampling: a
// fixed hash of the 4-tuple, so every sampler — in any process, on any
// worker — admits the same flows at a given Rate.
func (s *Sampler) selected(key FlowKey) bool {
	if s.cfg.Rate <= 1 {
		return true
	}
	return flowHash(key)%s.cfg.Rate == 0
}

// flowHash chains the SplitMix64 finalizer over the 4-tuple's words.
func flowHash(key FlowKey) uint64 {
	src, dst := key.Src.As16(), key.Dst.As16()
	h := uint64(key.SrcPort)<<16 | uint64(key.DstPort)
	for _, w := range [4]uint64{
		binary.BigEndian.Uint64(src[:8]), binary.BigEndian.Uint64(src[8:]),
		binary.BigEndian.Uint64(dst[:8]), binary.BigEndian.Uint64(dst[8:]),
	} {
		h = (h ^ w) + 0x9e3779b97f4a7c15
		h = (h ^ h>>30) * 0xbf58476d1ce4e5b9
		h = (h ^ h>>27) * 0x94d049bb133111eb
		h ^= h >> 31
	}
	return h
}

// DrainIdle closes and returns connections whose last activity is at
// least idleSeconds old, keeping active flows tracked. Long-running
// deployments call it periodically to bound memory; the returned
// records have CloseTime set to now.
func (s *Sampler) DrainIdle(now netsim.Time, idleSeconds int64) []*Connection {
	ts := now.Unix()
	var out []*Connection
	keep := s.order[:0]
	for _, key := range s.order {
		conn := s.flows[key]
		if ts-conn.LastActivity >= idleSeconds {
			conn.CloseTime = ts
			out = append(out, conn)
			delete(s.flows, key)
			continue
		}
		keep = append(keep, key)
	}
	s.order = keep
	return out
}

// Drain closes all tracked connections at the given time and returns
// them in admission order, resetting the sampler.
func (s *Sampler) Drain(closeAt netsim.Time) []*Connection {
	out := make([]*Connection, 0, len(s.flows))
	ts := closeAt.Unix()
	for _, key := range s.order {
		conn := s.flows[key]
		conn.CloseTime = ts
		out = append(out, conn)
	}
	clear(s.flows)
	s.order = s.order[:0]
	return out
}

// Pending reports the number of open connection records.
func (s *Sampler) Pending() int { return len(s.flows) }
