package analysis

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"tamperdetect/internal/capture"
	"tamperdetect/internal/core"
	"tamperdetect/internal/pipeline"
)

// countAgg tallies records and keeps nothing else, so any allocation
// in Sharded.Observe over it is the adapter's own.
type countAgg struct{ n, tampering int }

func (c *countAgg) Add(r *Record) {
	c.n++
	if r.Res.Signature.IsTampering() {
		c.tampering++
	}
}

func (c *countAgg) Merge(other Aggregator) error {
	o, ok := other.(*countAgg)
	if !ok {
		return mismatch(c, other)
	}
	c.n += o.n
	c.tampering += o.tampering
	return nil
}

func (c *countAgg) Finalize() any { return c.n }

// TestShardedObserveAllocationFree pins the per-record Observe path at
// zero allocations: building the record in the worker's reusable slot
// formats no address and moves nothing to the heap. It holds under
// -race too, since nothing on the path is pooled.
func TestShardedObserveAllocationFree(t *testing.T) {
	conns, _, scen := dataset(t)
	rd := capture.NewReader(bytes.NewReader(encodeConns(t, conns[:500])))
	cl := core.NewClassifier(core.DefaultConfig())
	var items []pipeline.Item
	for {
		c, err := rd.Read()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		items = append(items, pipeline.Item{Index: len(items), Conn: c, Res: cl.Classify(c)})
	}
	sharded := NewSharded(scen.Geo, 2, func() Aggregator { return &countAgg{} })
	for _, it := range items { // warm the geo caches
		sharded.Observe(0, it)
	}
	i := 0
	allocs := testing.AllocsPerRun(2000, func() {
		sharded.Observe(i%2, items[i%len(items)])
		i++
	})
	if allocs != 0 {
		t.Errorf("Sharded.Observe allocates %.2f times per record, want 0", allocs)
	}
}
