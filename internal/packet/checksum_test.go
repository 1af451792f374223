package packet

import (
	"math/rand/v2"
	"testing"
)

// onesSumBytewise is the original two-bytes-per-step loop, kept as the
// oracle the word-at-a-time onesSum is pinned to.
func onesSumBytewise(acc uint32, data []byte) uint32 {
	n := len(data)
	for i := 0; i+1 < n; i += 2 {
		acc += uint32(data[i])<<8 | uint32(data[i+1])
	}
	if n%2 == 1 {
		acc += uint32(data[n-1]) << 8
	}
	return acc
}

func checkOnesSum(t *testing.T, acc uint32, data []byte) {
	t.Helper()
	got, want := foldChecksum(onesSum(acc, data)), foldChecksum(onesSumBytewise(acc, data))
	if got != want {
		t.Fatalf("acc=%#x len=%d: folded sum %#04x, bytewise oracle %#04x", acc, len(data), got, want)
	}
}

// TestOnesSumMatchesBytewise sweeps every length 0–2048 at every
// alignment within a word, over random, all-zero and all-ones bytes
// (the latter two are where one's-complement zero has two spellings),
// with a zero and a pseudo-header-sized incoming accumulator.
func TestOnesSumMatchesBytewise(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	buf := make([]byte, 2048+8)
	fills := map[string]func(){
		"random": func() {
			for i := range buf {
				buf[i] = byte(rng.Uint32())
			}
		},
		"zero": func() { clear(buf) },
		"ones": func() {
			for i := range buf {
				buf[i] = 0xff
			}
		},
	}
	for name, fill := range fills {
		fill()
		for off := 0; off < 8; off++ {
			for n := 0; n <= 2048; n++ {
				for _, acc := range []uint32{0, 0xffff, 0x2fffd} {
					checkOnesSum(t, acc, buf[off:off+n])
				}
			}
		}
		if t.Failed() {
			t.Fatalf("fill %s", name)
		}
	}
}

func FuzzOnesSum(f *testing.F) {
	f.Add(uint32(0), []byte{})
	f.Add(uint32(0xffff), []byte{0xff, 0xff, 0xff})
	f.Add(uint32(6+1240), []byte("GET / HTTP/1.1\r\nHost: example.com\r\n\r\n"))
	f.Fuzz(func(t *testing.T, acc uint32, data []byte) {
		// Callers seed acc with a pseudo-header sum, far below the
		// range where the oracle's own uint32 accumulator would wrap.
		acc &= 0xfffff
		checkOnesSum(t, acc, data)
		if len(data) > 0 {
			checkOnesSum(t, acc, data[1:]) // unaligned start
		}
	})
}

func BenchmarkOnesSum(b *testing.B) {
	data := make([]byte, 1240)
	for i := range data {
		data[i] = byte(i * 7)
	}
	b.SetBytes(int64(len(data)))
	var sink uint32
	for i := 0; i < b.N; i++ {
		sink += onesSum(0, data)
	}
	_ = sink
}
