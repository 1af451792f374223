// Package fleet is the distributed-aggregation layer: it ships each
// PoP's per-epoch aggregator snapshot to a central merge service and
// folds the frames back into the global paper report. The paper's
// rollup across ~285 PoPs is modeled end-to-end — a versioned wire
// envelope (this file), an epoch-idempotent merger (merger.go), a
// retrying push client (client.go), and a fault-injecting transport
// for chaos testing the whole path (chaos.go).
//
// The robustness contract is inherited from the aggregator algebra:
// snapshots are per-epoch deltas, merging is associative, commutative,
// and — via (pop, epoch) deduplication — idempotent, so the merged
// report is a pure function of the set of distinct frames, whatever
// the duplicate pattern, retry storm, or arrival order the network
// imposes.
package fleet

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"

	"tamperdetect/internal/analysis"
	"tamperdetect/internal/pipeline"
	"tamperdetect/internal/wire"
)

// Wire framing constants. Three frame versions are live: v1 carries
// the snapshot payload raw; v2 carries it flate-compressed, prefixed
// with its raw length; v3 adds a trace context (the pusher's trace ID
// and epoch span) plus a flags word whose bit 0 selects flate, so one
// version covers both payload encodings going forward. The v1/v2
// encoder emits whichever is smaller (tiny or incompressible snapshots
// stay v1), the traced encoder always emits v3, and the decoder
// accepts all three, so a fleet can mix old and new binaries
// mid-upgrade.
const (
	magic         = "TDSNAP"
	versionRaw    = 1
	versionFlate  = 2
	versionTraced = 3

	// flagFlate marks a v3 payload as flate-compressed.
	flagFlate = 1 << 0

	// MaxFrameBytes bounds a decoded envelope (and hence the HTTP
	// request body the merger will read).
	MaxFrameBytes = 64 << 20

	// maxPoPName bounds the PoP identifier string.
	maxPoPName = 256
)

// TraceContext is the distributed-tracing context a v3 frame carries
// across the push boundary: the pushing run's trace ID and the span ID
// of its epoch push span. The merger parents its validate/merge spans
// to SpanID so one trace covers both sides of the hop.
type TraceContext struct {
	TraceID uint64
	SpanID  uint64
}

// Zero reports whether the context carries no trace (v1/v2 frames, or
// an untraced pusher).
func (tc TraceContext) Zero() bool { return tc.TraceID == 0 && tc.SpanID == 0 }

// Envelope is one decoded push frame: which PoP, which collection
// epoch, a per-PoP monotone sequence number (retransmissions reuse
// it), the epoch's pipeline counter deltas, the pusher's trace context
// (zero for v1/v2 frames), and the aggregator snapshot payload (still
// encoded; the merger restores it into a prototype it constructs
// itself).
type Envelope struct {
	PoP     string
	Epoch   uint64
	Seq     uint64
	Counts  pipeline.Counts
	Trace   TraceContext
	Payload []byte
}

// EncodeSnapshot frames one per-epoch delta: the aggregator snapshot
// plus the epoch's pipeline counter movement, addressed (pop, epoch,
// seq).
func EncodeSnapshot(pop string, epoch, seq uint64, agg analysis.Aggregator, counts pipeline.Counts) ([]byte, error) {
	if pop == "" || len(pop) > maxPoPName {
		return nil, fmt.Errorf("fleet: invalid pop name %q", pop)
	}
	payload, err := analysis.AppendSnapshot(nil, agg)
	if err != nil {
		return nil, fmt.Errorf("fleet: encode snapshot: %w", err)
	}
	ver, body := uint64(versionRaw), payload
	if cz := deflateBytes(payload); cz != nil && len(cz) < len(payload) {
		ver, body = versionFlate, cz
	}
	b := make([]byte, 0, len(magic)+40+len(body))
	b = append(b, magic...)
	b = wire.AppendUvarint(b, ver)
	b = wire.AppendString(b, pop)
	b = wire.AppendUvarint(b, epoch)
	b = wire.AppendUvarint(b, seq)
	b = counts.AppendWire(b)
	if ver == versionFlate {
		b = wire.AppendUvarint(b, uint64(len(payload)))
	}
	b = wire.AppendBytes(b, body)
	return b, nil
}

// EncodeSnapshotTraced frames one per-epoch delta as a v3 frame
// carrying the pusher's trace context, so the merger's validate and
// merge spans join the pusher's epoch span in one trace. A zero
// TraceContext is legal (the frame is v3 but untraced). Payload
// compression matches EncodeSnapshot: flate when it wins, raw
// otherwise, signalled in the flags word.
func EncodeSnapshotTraced(pop string, epoch, seq uint64, agg analysis.Aggregator, counts pipeline.Counts, tc TraceContext) ([]byte, error) {
	if pop == "" || len(pop) > maxPoPName {
		return nil, fmt.Errorf("fleet: invalid pop name %q", pop)
	}
	payload, err := analysis.AppendSnapshot(nil, agg)
	if err != nil {
		return nil, fmt.Errorf("fleet: encode snapshot: %w", err)
	}
	flags, body := uint64(0), payload
	if cz := deflateBytes(payload); cz != nil && len(cz) < len(payload) {
		flags, body = flagFlate, cz
	}
	b := make([]byte, 0, len(magic)+64+len(body))
	b = append(b, magic...)
	b = wire.AppendUvarint(b, versionTraced)
	b = wire.AppendString(b, pop)
	b = wire.AppendUvarint(b, epoch)
	b = wire.AppendUvarint(b, seq)
	b = counts.AppendWire(b)
	b = wire.AppendUvarint(b, tc.TraceID)
	b = wire.AppendUvarint(b, tc.SpanID)
	b = wire.AppendUvarint(b, flags)
	if flags&flagFlate != 0 {
		b = wire.AppendUvarint(b, uint64(len(payload)))
	}
	b = wire.AppendBytes(b, body)
	return b, nil
}

// deflateBytes flate-compresses p, or returns nil when compression is
// unavailable for the input (callers then fall back to a raw frame).
func deflateBytes(p []byte) []byte {
	var buf bytes.Buffer
	zw, err := flate.NewWriter(&buf, flate.BestSpeed)
	if err != nil {
		return nil
	}
	if _, err := zw.Write(p); err != nil {
		return nil
	}
	if err := zw.Close(); err != nil {
		return nil
	}
	return buf.Bytes()
}

// DecodeEnvelope strictly decodes one frame from untrusted bytes. The
// payload is returned still encoded — aliasing data for v1 frames,
// freshly inflated for v2 — and restoring it into an aggregator is the
// merger's job, so a frame with a valid envelope but a corrupt payload
// still fails before touching global state. Decompression is bounded:
// a compressed frame (v2, or v3 with the flate flag) must declare a
// raw length within MaxFrameBytes and its flate stream must inflate to
// exactly that many bytes. A strict prefix of a frame fails with an
// error wrapping wire.ErrTruncated.
func DecodeEnvelope(data []byte) (*Envelope, error) {
	if len(data) > MaxFrameBytes {
		return nil, fmt.Errorf("fleet: frame of %d bytes exceeds limit %d", len(data), MaxFrameBytes)
	}
	if len(data) < len(magic) && string(data) == magic[:len(data)] {
		return nil, fmt.Errorf("fleet: frame ends inside its magic: %w", wire.ErrTruncated)
	}
	if len(data) < len(magic) || string(data[:len(magic)]) != magic {
		return nil, fmt.Errorf("fleet: bad frame magic")
	}
	d := wire.NewDecoder(data[len(magic):])
	ver := d.Uvarint()
	if d.Err() == nil && ver != versionRaw && ver != versionFlate && ver != versionTraced {
		return nil, fmt.Errorf("fleet: unsupported frame version %d (want %d..%d)", ver, versionRaw, versionTraced)
	}
	env := &Envelope{
		PoP:   d.String(maxPoPName),
		Epoch: d.Uvarint(),
		Seq:   d.Uvarint(),
	}
	var err error
	env.Counts, err = pipeline.DecodeCounts(d)
	if err != nil {
		return nil, fmt.Errorf("fleet: decode frame: %w", err)
	}
	compressed := ver == versionFlate
	if ver == versionTraced {
		env.Trace.TraceID = d.Uvarint()
		env.Trace.SpanID = d.Uvarint()
		flags := d.Uvarint()
		if d.Err() == nil && flags&^uint64(flagFlate) != 0 {
			return nil, fmt.Errorf("fleet: frame carries unknown flags %#x", flags)
		}
		compressed = flags&flagFlate != 0
	}
	var rawLen uint64
	if compressed {
		rawLen = d.Uvarint()
		if d.Err() == nil && rawLen > MaxFrameBytes {
			return nil, fmt.Errorf("fleet: compressed payload declares %d raw bytes, limit %d", rawLen, MaxFrameBytes)
		}
	}
	body := d.Bytes(MaxFrameBytes)
	if err := d.Done(); err != nil {
		return nil, fmt.Errorf("fleet: decode frame: %w", err)
	}
	if env.PoP == "" {
		return nil, fmt.Errorf("fleet: frame missing pop name")
	}
	if !compressed {
		env.Payload = body
		return env, nil
	}
	zr := flate.NewReader(bytes.NewReader(body))
	payload := make([]byte, rawLen)
	if _, err := io.ReadFull(zr, payload); err != nil {
		return nil, fmt.Errorf("fleet: inflate payload: %w", err)
	}
	if n, _ := io.CopyN(io.Discard, zr, 1); n != 0 {
		return nil, fmt.Errorf("fleet: compressed payload longer than declared %d bytes", rawLen)
	}
	env.Payload = payload
	return env, nil
}
