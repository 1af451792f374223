package workload

import (
	"bytes"
	"testing"

	"tamperdetect/internal/capture"
	"tamperdetect/internal/faults"
	"tamperdetect/internal/middlebox"
)

// encodeConn is one connection's TDCAP bytes ("nil" when unsampled).
func encodeConn(t *testing.T, c *capture.Connection) string {
	t.Helper()
	if c == nil {
		return "nil"
	}
	var buf bytes.Buffer
	w := capture.NewWriter(&buf)
	if err := w.Write(c); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestSimContextReuse is the state-leak gate for the pooled simulation
// context: the golden corpus (every censor style, every client quirk,
// v4/v6, TLS/plain) goes through ONE context forwards, reversed, and
// with clean and lossy runs interleaved, and every connection's
// encoded bytes must equal what a context fresh from newSimCtx
// produces — whatever ran on the context before. The fresh results are
// themselves pinned by TestSimCorpusGolden.
func TestSimContextReuse(t *testing.T) {
	s, specs := buildGoldenCorpus(t)
	lossy, err := faults.Grade("lossy")
	if err != nil {
		t.Fatal(err)
	}
	grades := []faults.Config{{}, lossy}
	// fresh[g][i] is spec i under grade g on a context of its own.
	fresh := make([][]string, len(grades))
	for g, imp := range grades {
		for i := range specs {
			fresh[g] = append(fresh[g], encodeConn(t, newSimCtx().simulateConn(&specs[i], s.Universe, s.CaptureConfig, imp)))
		}
	}

	x := newSimCtx()
	check := func(pass string, g, i int) {
		t.Helper()
		got := encodeConn(t, x.simulateConn(&specs[i], s.Universe, s.CaptureConfig, grades[g]))
		if got != fresh[g][i] {
			t.Errorf("%s: spec %d (style %v, behavior %v) grade %d differs on the reused context",
				pass, i, specs[i].Style, specs[i].Behavior, g)
		}
	}
	for i := range specs {
		check("forwards clean", 0, i)
	}
	for i := len(specs) - 1; i >= 0; i-- {
		check("reversed clean", 0, i)
	}
	for i := range specs {
		check("forwards lossy", 1, i)
	}
	for i := len(specs) - 1; i >= 0; i-- {
		check("interleaved", i%2, i)
		check("interleaved", 1-i%2, (i*7+3)%len(specs))
	}
	// The evasive-censor entry point shares the context too.
	evasive := func() *middlebox.EvasiveCensor {
		return middlebox.NewEvasiveCensor(func(string) bool { return true })
	}
	for i := range specs {
		want := encodeConn(t, newSimCtx().simulateWith(&specs[i], evasive()))
		if got := encodeConn(t, x.simulateWith(&specs[i], evasive())); got != want {
			t.Errorf("evasive: spec %d differs on the reused context", i)
		}
		check("after evasive", i%2, i)
	}
}

// TestSimulateConnAllocBudget holds the generator hot path to its
// allocation budget. A connection on a warm context may allocate the
// record it returns (Connection, Packets growth, payload copies), its
// request bytes and, when censored, what is still built per connection
// — the policy, the middlebox engine and the packets it forges — but
// not engines, parsers, events, closures or packet buffers. Before the
// context was reused a connection cost 124 allocations on average; the
// benchmark ledger's workload.allocs_per_conn holds the average over
// the real mix (about 8 % of connections are censored) to 40.
func TestSimulateConnAllocBudget(t *testing.T) {
	s, specs := buildGoldenCorpus(t)
	x := newSimCtx()
	for _, tc := range []struct {
		spec     int
		censored bool
		budget   float64
	}{
		{spec: 0, censored: false, budget: 30}, // StyleNone, plain HTTP
		{spec: 1, censored: true, budget: 60},  // StyleGFW over TLS: forged RSTs
	} {
		spec := &specs[tc.spec]
		if spec.CensorActive != tc.censored {
			t.Fatalf("corpus spec %d: CensorActive=%v", tc.spec, spec.CensorActive)
		}
		got := testing.AllocsPerRun(50, func() {
			if x.simulateConn(spec, s.Universe, s.CaptureConfig, faults.Config{}) == nil {
				t.Fatal("connection not sampled")
			}
		})
		if got > tc.budget {
			t.Errorf("spec %d (censored=%v): %.0f allocs per connection, budget %.0f", tc.spec, tc.censored, got, tc.budget)
		}
	}
}
