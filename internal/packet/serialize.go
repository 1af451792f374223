package packet

import "sync"

// SerializeBuffer builds packet bytes innermost-layer-first, like
// gopacket's SerializeBuffer: each layer prepends its header in front of
// the payload already in the buffer. The buffer keeps headroom at the
// front so prepends rarely reallocate.
type SerializeBuffer struct {
	data  []byte // full backing array
	start int    // index of first valid byte
}

// NewSerializeBuffer returns an empty buffer. It allocates nothing up
// front: SerializeLayers sizes the backing array exactly from the
// layers being serialized, so the first serialization performs a
// single right-sized allocation (and a pooled buffer, none at all).
func NewSerializeBuffer() *SerializeBuffer {
	return &SerializeBuffer{}
}

// NewSerializeBufferSize returns a buffer with n bytes of headroom
// preallocated, for callers that know their packet size and prepend
// manually rather than through SerializeLayers.
func NewSerializeBufferSize(n int) *SerializeBuffer {
	return &SerializeBuffer{data: make([]byte, n), start: n}
}

// serializePool recycles buffers across packet builds; the simulator
// and middlebox forges serialize one packet at a time on many
// goroutines, so pooling keeps the steady-state hot path free of
// backing-array allocations.
var serializePool = sync.Pool{
	New: func() any { return NewSerializeBufferSize(128) },
}

// maxPooledBuffer caps the backing array a buffer may retain when
// returned to the pool, so one jumbo packet does not pin its memory.
const maxPooledBuffer = 1 << 16

// GetSerializeBuffer returns a cleared buffer from the pool.
func GetSerializeBuffer() *SerializeBuffer {
	b := serializePool.Get().(*SerializeBuffer)
	b.Clear()
	return b
}

// PutSerializeBuffer returns b to the pool. The caller must not use b
// or any slice obtained from it afterwards.
func PutSerializeBuffer(b *SerializeBuffer) {
	if b == nil || len(b.data) > maxPooledBuffer {
		return
	}
	serializePool.Put(b)
}

// Bytes returns the serialized packet so far. The slice is valid until
// the next mutation of the buffer.
func (b *SerializeBuffer) Bytes() []byte { return b.data[b.start:] }

// Len reports the number of serialized bytes.
func (b *SerializeBuffer) Len() int { return len(b.data) - b.start }

// Clear resets the buffer for reuse, retaining the backing array.
func (b *SerializeBuffer) Clear() {
	// Re-centre the start so headroom is restored.
	b.start = len(b.data)
}

// ensureHeadroom guarantees at least n bytes of prepend space. Only the
// used suffix is copied when the backing array grows.
func (b *SerializeBuffer) ensureHeadroom(n int) {
	if n <= b.start {
		return
	}
	used := len(b.data) - b.start
	size := used + n
	if size < 2*len(b.data) {
		size = 2 * len(b.data)
	}
	grown := make([]byte, size)
	copy(grown[size-used:], b.data[b.start:])
	b.data = grown
	b.start = size - used
}

// PrependBytes returns a slice of n fresh bytes at the front of the
// buffer for a layer header to fill in.
func (b *SerializeBuffer) PrependBytes(n int) []byte {
	b.ensureHeadroom(n)
	b.start -= n
	return b.data[b.start : b.start+n]
}

// AppendBytes returns a slice of n zeroed bytes at the back of the
// buffer.
func (b *SerializeBuffer) AppendBytes(n int) []byte {
	old := len(b.data)
	if cap(b.data) >= old+n {
		b.data = b.data[:old+n]
	} else {
		size := old + n
		if size < 2*old {
			size = 2 * old
		}
		grown := make([]byte, old+n, size)
		// Only the used suffix carries data; the headroom before
		// b.start is dead space and need not be copied.
		copy(grown[b.start:], b.data[b.start:])
		b.data = grown
	}
	s := b.data[old : old+n]
	for i := range s {
		s[i] = 0
	}
	return s
}

// sizedLayer is implemented by layers that can report their serialized
// size up front, letting SerializeLayers size the buffer exactly
// instead of growing it prepend by prepend.
type sizedLayer interface {
	serializedSize() int
}

// SerializeLayers clears the buffer and serializes the given layers
// outermost-first (the conventional call order), so the on-wire bytes
// come out as layers[0] | layers[1] | ... | layers[n-1]. When every
// layer reports its size, the buffer is sized exactly once up front.
func SerializeLayers(b *SerializeBuffer, opts SerializeOptions, layers ...SerializableLayer) error {
	b.Clear()
	if need := layersSize(layers); need > 0 {
		b.ensureHeadroom(need)
	}
	return prependLayers(b, opts, layers)
}

// prependLayers serializes layers innermost-first onto b.
func prependLayers(b *SerializeBuffer, opts SerializeOptions, layers []SerializableLayer) error {
	for i := len(layers) - 1; i >= 0; i-- {
		if err := layers[i].SerializeTo(b, opts); err != nil {
			return err
		}
	}
	return nil
}

// layersSize is the exact serialized size of layers, or 0 when one of
// them cannot report its size up front.
func layersSize(layers []SerializableLayer) int {
	need := 0
	for _, l := range layers {
		s, ok := l.(sizedLayer)
		if !ok {
			return 0
		}
		need += s.serializedSize()
	}
	return need
}

// Arena serializes packets that all die together — one simulated
// connection's traffic — into one reusable slab, so building a packet
// allocates nothing. Every slice it returned is invalid after Reset.
// An Arena is not safe for concurrent use.
type Arena struct {
	slab []byte
	used int
	buf  SerializeBuffer
}

// NewArena returns an arena whose slab holds size bytes. Packets that
// no longer fit are built on the heap instead: the arena never grows.
func NewArena(size int) *Arena {
	return &Arena{slab: make([]byte, size)}
}

// Reset reclaims the slab for the next connection.
func (a *Arena) Reset() { a.used = 0 }

// Serialize is SerializeLayers into the arena: the returned bytes are
// the caller's until Reset.
func (a *Arena) Serialize(opts SerializeOptions, layers ...SerializableLayer) ([]byte, error) {
	need := layersSize(layers)
	if need > 0 && need <= len(a.slab)-a.used {
		// Full slice expression: a prepend that outgrew need would
		// reallocate rather than run into the previous packet.
		a.buf.data = a.slab[a.used : a.used+need : a.used+need]
		a.used += need
	} else {
		a.buf.data = make([]byte, need)
	}
	a.buf.start = len(a.buf.data)
	err := prependLayers(&a.buf, opts, layers)
	out := a.buf.Bytes()
	a.buf.data = nil
	return out, err
}

// AppendLayers serializes the layers as SerializeLayers does and
// appends the resulting bytes to dst, reusing dst's backing array when
// it has capacity. The scratch buffer used for serialization is pooled,
// so a caller that recycles dst allocates nothing in steady state.
func AppendLayers(dst []byte, opts SerializeOptions, layers ...SerializableLayer) ([]byte, error) {
	b := GetSerializeBuffer()
	defer PutSerializeBuffer(b)
	if err := SerializeLayers(b, opts, layers...); err != nil {
		return dst, err
	}
	return append(dst, b.Bytes()...), nil
}

// Payload is a trivial layer wrapping opaque application bytes.
type Payload []byte

// LayerType implements DecodingLayer and SerializableLayer.
func (Payload) LayerType() LayerType { return LayerTypePayload }

// DecodeFromBytes stores data as the payload.
func (p *Payload) DecodeFromBytes(data []byte) error {
	*p = data
	return nil
}

// NextLayerType reports that nothing follows a payload.
func (Payload) NextLayerType() LayerType { return LayerTypeZero }

// LayerPayload returns nil; payloads carry no further layers.
func (Payload) LayerPayload() []byte { return nil }

func (p Payload) serializedSize() int { return len(p) }

// SerializeTo prepends the payload bytes.
func (p Payload) SerializeTo(b *SerializeBuffer, _ SerializeOptions) error {
	copy(b.PrependBytes(len(p)), p)
	return nil
}
