package analysis

// The parity suite enforces the subsystem's central invariant: every
// finalized table is a pure function of the record multiset. The same
// scenario rendered through (a) one serial Add pass over the whole
// record slice (the batch reference, itself pinned by the fleet-report
// golden), (b) the streaming pipeline at several worker counts, and
// (c) independent per-PoP aggregation merged in either order must be
// byte-identical.

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"tamperdetect/internal/capture"
	"tamperdetect/internal/core"
	"tamperdetect/internal/domains"
	"tamperdetect/internal/pipeline"
	"tamperdetect/internal/testlists"
	"tamperdetect/internal/workload"
)

// Slots of the parity aggregator set, in parityAggs order.
const (
	parStages = iota
	parComposition
	parEvidence
	parDistribution
	parASN
	parIPVersion
	parProtocol
	parDomains
	parOverlap
	parStability
	parScanners
	parSeries
	parSpan
)

var parityRegions = []string{"", "CN", "IR", "RU", "US"}

// parityAggs builds a fresh copy of every aggregator the suite
// renders — the full paper surface.
func parityAggs() Aggregator {
	return Multi{
		NewStageStatsAgg(),
		NewCountryBySignatureAgg(),
		NewEvidenceAgg(1000),
		NewSignatureByCountryAgg(),
		NewASNViewAgg(),
		NewIPVersionAgg(50),
		NewProtocolAgg(30),
		NewDomainAgg(),
		NewOverlapAgg(),
		NewStabilityAgg(30),
		NewScannerAgg(),
		NewTimeSeriesAgg(4, nil, AnySignatureMatch),
		NewTimeSpanAgg(),
	}
}

func paritySuite(scen *workload.Scenario) *testlists.Suite {
	return testlists.BuildSuite(scen.Universe, func(d *domains.Domain) bool {
		switch d.Category {
		case domains.AdultThemes, domains.News, domains.SocialNetworks, domains.Chat:
			return true
		default:
			return false
		}
	}, testlists.DefaultBuildConfig())
}

// renderAggs renders every table from a finalized parity set.
func renderAggs(agg Aggregator, scen *workload.Scenario) string {
	a := agg.(Multi)
	var b strings.Builder
	b.WriteString(RenderStageStats(a[parStages].(*StageStatsAgg).Stats()))
	b.WriteString(RenderSignatureComposition(a[parComposition].(*CountryBySignatureAgg).Table()))
	cdfs := a[parEvidence].(*EvidenceAgg).CDFs()
	b.WriteString(RenderEvidenceCDF("ipid", cdfs.IPID, []float64{0, 1, 10, 100, 1000, 10000}))
	b.WriteString(RenderEvidenceCDF("ttl", cdfs.TTL, []float64{0, 1, 5, 20, 60, 150}))
	b.WriteString(RenderCountryDistribution(a[parDistribution].(*SignatureByCountryAgg).Table(), 50))
	asn := a[parASN].(*ASNViewAgg)
	for _, c := range asn.Countries() {
		b.WriteString(RenderASNView(c, asn.View(c)))
	}
	vRows, vSlope := a[parIPVersion].(*IPVersionAgg).Table()
	b.WriteString(RenderVersionComparison(vRows, vSlope))
	pRows, pSlope := a[parProtocol].(*ProtocolAgg).Table()
	b.WriteString(RenderProtocolComparison(pRows, pSlope))
	dom := a[parDomains].(*DomainAgg)
	for _, region := range parityRegions {
		b.WriteString(RenderCategoryTable(dom.CategoryTable(scen.Universe, region, 3), 3))
	}
	b.WriteString(RenderListCoverage(dom.ListCoverage(paritySuite(scen), parityRegions, 3), parityRegions))
	b.WriteString(RenderOverlapMatrix(a[parOverlap].(*OverlapAgg).Matrix()))
	b.WriteString(RenderStability(a[parStability].(*StabilityAgg).Report()))
	b.WriteString(RenderScannerStats(a[parScanners].(*ScannerAgg).Stats()))
	b.WriteString(RenderTimeSeries("series", a[parSeries].(*TimeSeriesAgg).Series()))
	b.WriteString(RenderTimeSpan(a[parSpan].(*TimeSpanAgg).Span()))
	return b.String()
}

func encodeConns(t testing.TB, conns []*capture.Connection) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := capture.NewWriter(&buf)
	for _, c := range conns {
		if err := w.Write(c); err != nil {
			t.Fatalf("encode: %v", err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	return buf.Bytes()
}

// firstDiff locates the first differing line of two renders.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\n  a: %q\n  b: %q", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("lengths differ: %d vs %d lines", len(al), len(bl))
}

// TestParityStreamingMatchesBatch renders the whole paper surface from
// the streaming pipeline at 1, 4, and 16 workers and requires each to
// be byte-identical with the serial batch render.
func TestParityStreamingMatchesBatch(t *testing.T) {
	conns, recs, scen := dataset(t)
	want := renderAggs(addAll(parityAggs(), recs), scen)
	data := encodeConns(t, conns)
	for _, workers := range []int{1, 4, 16} {
		sharded := NewSharded(scen.Geo, workers, parityAggs)
		counts, err := pipeline.Run(context.Background(),
			pipeline.NewReaderSource(bytes.NewReader(data)),
			pipeline.Config{Workers: workers, Observe: sharded.Observe}, nil)
		if err != nil {
			t.Fatalf("workers=%d: pipeline: %v", workers, err)
		}
		if counts.Classified != int64(len(conns)) {
			t.Fatalf("workers=%d: classified %d of %d", workers, counts.Classified, len(conns))
		}
		merged, err := sharded.Merged()
		if err != nil {
			t.Fatalf("workers=%d: merge: %v", workers, err)
		}
		if got := renderAggs(merged, scen); got != want {
			t.Errorf("workers=%d: streaming render diverges from batch at %s",
				workers, firstDiff(got, want))
		}
	}
}

// TestParityPoPMergeMatchesBatch simulates the paper's deployment
// shape: the scenario's clients are split client-affine across 5 PoPs,
// each PoP classifies and aggregates only its own traffic, and the
// per-PoP aggregates merge into the global tables. The merged render —
// in either merge order — must be byte-identical with the single-PoP
// serial batch render.
func TestParityPoPMergeMatchesBatch(t *testing.T) {
	conns, recs, scen := dataset(t)
	want := renderAggs(addAll(parityAggs(), recs), scen)

	const pops = 5
	shards := workload.PoPPartition(scen.Specs(), pops)
	cl := core.NewClassifier(core.DefaultConfig())
	// Two independent aggregate sets per PoP, so forward and reverse
	// merges each get un-merged inputs (Merge folds destructively).
	popA := make([]Aggregator, pops)
	popB := make([]Aggregator, pops)
	seen := 0
	for pop, specs := range shards {
		popA[pop], popB[pop] = parityAggs(), parityAggs()
		for _, c := range scen.RunSpecs(specs, 0) {
			if c == nil {
				continue // unsampled
			}
			rec := NewRecord(c, scen.Geo, cl.Classify(c))
			popA[pop].Add(&rec)
			popB[pop].Add(&rec)
			seen++
		}
	}
	if seen != len(conns) {
		t.Fatalf("PoP shards simulated %d connections, full run %d", seen, len(conns))
	}

	forward := parityAggs()
	for pop := 0; pop < pops; pop++ {
		if err := forward.Merge(popA[pop]); err != nil {
			t.Fatalf("forward merge pop %d: %v", pop, err)
		}
	}
	reversed := parityAggs()
	for pop := pops - 1; pop >= 0; pop-- {
		if err := reversed.Merge(popB[pop]); err != nil {
			t.Fatalf("reverse merge pop %d: %v", pop, err)
		}
	}

	if got := renderAggs(forward, scen); got != want {
		t.Errorf("5-PoP merged render diverges from batch at %s", firstDiff(got, want))
	}
	if got := renderAggs(reversed, scen); got != want {
		t.Errorf("reverse-order merged render diverges from batch at %s", firstDiff(got, want))
	}
}
