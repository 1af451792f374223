package analysis

// Figure 10's flat observation log against the map-of-slices oracle
// (overlap_oracle_test.go), plus its deterministic cost gate.

import (
	"bytes"
	"math/rand/v2"
	"net/netip"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"tamperdetect/internal/core"
)

// overlapClients is the fuzz pool of client addresses: the zero Addr,
// an IPv4 address next to its 4-in-6 form (distinct pairs, distinct
// texts), addresses whose text order differs from their numeric order,
// IPv6 and a zoned IPv6 address.
var overlapClients = []netip.Addr{
	{},
	netip.MustParseAddr("10.0.0.1"),
	netip.MustParseAddr("::ffff:10.0.0.1"),
	netip.MustParseAddr("9.255.255.255"),
	netip.MustParseAddr("10.0.0.10"),
	netip.MustParseAddr("2001:db8::1"),
	netip.MustParseAddr("2001:db8::10"),
	netip.MustParseAddr("fe80::1%eth0"),
}

// overlapDomains is the fuzz pool of domains; "" is a record with no
// visible domain, which Figure 10 skips.
var overlapDomains = []string{"", "a.com", "a.co", "b.org", "example.com"}

// overlapRecord builds one record from four fuzz bytes. Times come
// from a small window and signatures from the whole enum, so repeated
// (time, signature) observations and off-axis signatures are common.
func overlapRecord(c, d, ts, sig byte) Record {
	return Record{
		Src:  overlapClients[int(c)%len(overlapClients)],
		Time: int64(ts%5) - 1,
		Res: core.Result{
			Domain:    overlapDomains[int(d)%len(overlapDomains)],
			Signature: core.Signature(int(sig) % numSigs),
		},
	}
}

// checkOverlapAgainstOracle asserts that got finalizes and encodes
// exactly as want, and that its frame restores and re-encodes to the
// same bytes.
func checkOverlapAgainstOracle(t *testing.T, got *OverlapAgg, want *oracleOverlapAgg) {
	t.Helper()
	if g, w := got.Matrix(), want.Matrix(); !reflect.DeepEqual(g, w) {
		t.Fatalf("Matrix() = %+v, oracle %+v", g, w)
	}
	frame, wantFrame := snapshotOf(t, got), snapshotOf(t, want)
	if !bytes.Equal(frame, wantFrame) {
		t.Fatalf("snapshot %x, oracle %x", frame, wantFrame)
	}
	restored := NewOverlapAgg()
	if err := RestoreSnapshot(frame, restored); err != nil {
		t.Fatalf("RestoreSnapshot: %v", err)
	}
	if re := snapshotOf(t, restored); !bytes.Equal(re, frame) {
		t.Fatalf("re-encoded snapshot %x, want %x", re, frame)
	}
}

// TestOverlapAggMatchesOracle runs the test dataset through the log
// and the oracle, whole and as four shards merged in reverse.
func TestOverlapAggMatchesOracle(t *testing.T) {
	_, recs, _ := dataset(t)
	want := addAll(newOracleOverlapAgg(), recs)
	checkOverlapAgainstOracle(t, addAll(NewOverlapAgg(), recs), want)

	shards := make([]*OverlapAgg, 4)
	for i := range shards {
		shards[i] = NewOverlapAgg()
	}
	for i := range recs {
		shards[i%len(shards)].Add(&recs[i])
	}
	for i := len(shards) - 2; i >= 0; i-- {
		if err := shards[len(shards)-1].Merge(shards[i]); err != nil {
			t.Fatal(err)
		}
	}
	checkOverlapAgainstOracle(t, shards[len(shards)-1], want)
}

// FuzzOverlapAggOracle deals fuzz-built records into 1–4 shards,
// merges them in a data-chosen order and requires the merged log to
// match the oracle fed the same records: Matrix(), snapshot bytes,
// and restore-then-re-encode.
func FuzzOverlapAggOracle(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 1, 1, 2, 0, 0, 2, 1, 2, 0, 0, 2, 1, 2, 1, 1, 2, 1, 3})
	f.Add([]byte{1, 0, 4, 0, 0, 7, 4, 1, 12, 1, 4, 1, 0, 2, 3, 0, 3})
	f.Add([]byte{0xff, 5, 2, 3, 0, 6, 2, 3, 0, 5, 3, 2, 13, 6, 3, 0, 14, 7, 1, 4, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		shards := make([]*OverlapAgg, 1+int(data[0])%4)
		for i := range shards {
			shards[i] = NewOverlapAgg()
		}
		want := newOracleOverlapAgg()
		for i := 1; i+4 < len(data); i += 5 {
			rec := overlapRecord(data[i], data[i+1], data[i+2], data[i+3])
			want.Add(&rec)
			shards[int(data[i+4])%len(shards)].Add(&rec)
		}
		rng := rand.New(rand.NewPCG(uint64(data[0]), uint64(len(data))))
		rng.Shuffle(len(shards), func(i, j int) { shards[i], shards[j] = shards[j], shards[i] })
		for _, s := range shards[1:] {
			if err := shards[0].Merge(s); err != nil {
				t.Fatal(err)
			}
		}
		checkOverlapAgainstOracle(t, shards[0], want)
	})
}

// Cost budgets for TestOverlapAggCost. Allocations are set at the
// measured value (35–41 per 100 k Adds, nearly all of them log
// growth). Retained heap is derived from the entry size: append grows
// a large slice by about 1.25×, so the log holds at most that much
// spare capacity, and 1.3 leaves room for stray allocations in the
// measuring window (measured: 63.0 B per observation on 64-bit, where
// an entry is 56 B and the budget 72.8 B). The map-of-slices
// aggregator allocated 0.84 times per Add and retained 127.8 B per
// observation on the fresh-pair stream.
const overlapAllocsPerAddBudget = 0.0005

var overlapRetainedPerObsBytes = 1.3 * float64(unsafe.Sizeof(overlapObs{}))

// overlapCostDomains is the cost stream's domain pool, built once so
// the stream itself allocates nothing per record.
var overlapCostDomains = func() (d [64]string) {
	for i := range d {
		d[i] = string(rune('a'+i%26)) + string(rune('a'+i/26)) + ".example"
	}
	return d
}()

// overlapCostStream feeds n synthetic records to add: about newPct %
// open a new (client, domain) pair and the rest repeat an earlier pair
// later in time, with one record in ten off the Figure 10 axes and
// one in twenty without a domain. It returns the number of
// observations Figure 10 keeps. It allocates nothing per record.
func overlapCostStream(n, newPct int, add func(*Record)) int {
	axes := postPSHAxes()
	rng := rand.New(rand.NewPCG(1, 2))
	var rec Record
	pairs, kept := 0, 0
	for i := 0; i < n; i++ {
		p := pairs
		if pairs > 0 && rng.IntN(100) >= newPct {
			p = rng.IntN(pairs)
		} else {
			pairs++
		}
		rec.Src = netip.AddrFrom4([4]byte{10, byte(p >> 16), byte(p >> 8), byte(p)})
		rec.Time = int64(i / 8)
		rec.Res.Domain = overlapCostDomains[p%len(overlapCostDomains)]
		rec.Res.Signature = axes[rng.IntN(len(axes))]
		switch {
		case i%10 == 3:
			rec.Res.Signature = core.SigSYNRST
		case i%20 == 7:
			rec.Res.Domain = ""
		default:
			kept++
		}
		add(&rec)
	}
	return kept
}

// retainedBytes reports the heap that build's result keeps alive
// after GC.
func retainedBytes(build func() any) float64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	agg := build()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(agg)
	return float64(int64(after.HeapAlloc) - int64(before.HeapAlloc))
}

// TestOverlapAggCost is Figure 10's deterministic cost gate over 100 k
// synthetic records: allocations per Add and heap retained per kept
// observation after GC. The log's cost per observation does not depend
// on how often (client, domain) pairs repeat, so the gate runs a
// fresh-pair stream (70 % new pairs, 1.4 observations per pair) and a
// repeat-heavy one (10 % new, 8.6 per pair). It logs the
// map-of-slices oracle's cost beside the log's: that one pays per pair,
// so it is about twice the log's on the fresh-pair stream and about
// half of it on the repeat-heavy one (see DESIGN.md §3c).
func TestOverlapAggCost(t *testing.T) {
	const n = 100_000
	for _, tc := range []struct {
		name   string
		newPct int
	}{
		{"fresh-pairs", 70},
		{"repeat-heavy", 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			allocs := testing.AllocsPerRun(3, func() {
				overlapCostStream(n, tc.newPct, NewOverlapAgg().Add)
			})
			if perAdd := allocs / n; perAdd > overlapAllocsPerAddBudget {
				t.Errorf("OverlapAgg.Add allocates %.4f times per record, budget %.4f", perAdd, overlapAllocsPerAddBudget)
			}

			var kept, pairs int
			perObs := retainedBytes(func() any {
				a := NewOverlapAgg()
				kept = overlapCostStream(n, tc.newPct, a.Add)
				return a
			}) / float64(kept)
			if perObs > overlapRetainedPerObsBytes {
				t.Errorf("OverlapAgg retains %.3f B per observation (%d kept), budget %.1f B", perObs, kept, overlapRetainedPerObsBytes)
			}
			oracle := retainedBytes(func() any {
				a := newOracleOverlapAgg()
				overlapCostStream(n, tc.newPct, a.Add)
				pairs = len(a.obs)
				return a
			}) / float64(kept)
			t.Logf("%.5f allocs per Add; %d observations over %d pairs (%.2f per pair); retained per observation: log %.2f B, map of slices %.2f B",
				allocs/n, kept, pairs, float64(kept)/float64(pairs), perObs, oracle)
		})
	}
}
