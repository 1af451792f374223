package tamperdetect

// Go-test benchmarks for what the repo benchmark (benchmark/, see
// BENCHMARK.json) does not measure: the cost of adding geo-bearing
// records to the paper's aggregator set — the benchmark's captures
// carry no address plan, so there every country-keyed table stays
// empty — and the ablations DESIGN.md calls out. The tables and
// figures themselves are pinned by cmd/paperbench's golden, not timed
// here. Run with `go test -run='^$' -bench=. -benchmem`.

import (
	"math/rand/v2"
	"sync"
	"testing"

	"tamperdetect/internal/analysis"
	"tamperdetect/internal/capture"
	"tamperdetect/internal/core"
	"tamperdetect/internal/workload"
)

// benchDataset is built once and shared by the benchmarks.
var (
	benchOnce  sync.Once
	benchScen  *workload.Scenario
	benchConns []*capture.Connection
	benchRecs  []analysis.Record
)

func benchData(b *testing.B) ([]*capture.Connection, []analysis.Record, *workload.Scenario) {
	b.Helper()
	benchOnce.Do(func() {
		s, err := workload.BuildScenario("bench", 20000, 14*24, 2023)
		if err != nil {
			b.Fatalf("BuildScenario: %v", err)
		}
		benchScen = s
		benchConns = s.Run(0)
		benchRecs = classifyAll(benchConns, s.Geo)
	})
	if benchScen == nil {
		b.Fatal("bench dataset failed to build")
	}
	return benchConns, benchRecs, benchScen
}

// paperAggs mirrors the aggregator set cmd/paperbench fills from its
// shared dataset: the fleet tables plus the Figure 6 per-country and
// Figure 9 per-signature series.
func paperAggs() analysis.Multi {
	m := analysis.Multi{
		analysis.NewStageStatsAgg(),
		analysis.NewCountryBySignatureAgg(),
		analysis.NewEvidenceAgg(1000),
		analysis.NewSignatureByCountryAgg(),
		analysis.NewASNViewAgg(),
		analysis.NewIPVersionAgg(50),
		analysis.NewProtocolAgg(30),
		analysis.NewDomainAgg(),
		analysis.NewOverlapAgg(),
		analysis.NewStabilityAgg(30),
		analysis.NewScannerAgg(),
	}
	for _, c := range []string{"CN", "DE", "GB", "IN", "IR", "RU", "US"} {
		c := c
		m = append(m, analysis.NewTimeSeriesAgg(4,
			func(r *analysis.Record) bool { return r.Country == c },
			analysis.PostACKPSHMatch))
	}
	for _, sig := range []core.Signature{core.SigSYNRST, core.SigPSHRST, core.SigDataRST, core.SigDataRSTACK} {
		sig := sig
		m = append(m, analysis.NewTimeSeriesAgg(6, nil,
			func(r *analysis.Record) bool { return r.Res.Signature == sig }))
	}
	return m
}

// BenchmarkPaperAggregators adds the geo-bearing dataset's records to
// a fresh paperbench aggregator set and reports the cost per record —
// the only measurement of country-keyed Add.
func BenchmarkPaperAggregators(b *testing.B) {
	_, recs, _ := benchData(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		aggs := paperAggs()
		for j := range recs {
			aggs.Add(&recs[j])
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(recs)), "ns/record")
}

// --- Ablation benches (DESIGN.md §5) ---

// BenchmarkAblationReconstruction measures the value of header-based
// order reconstruction: the fraction of shuffled tampered connections
// whose signature changes when classification trusts log order.
func BenchmarkAblationReconstruction(b *testing.B) {
	conns, _, _ := benchData(b)
	cl := core.NewClassifier(core.DefaultConfig())
	changed, total := 0, 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := conns[i%len(conns)]
		ordered := cl.Classify(c)
		// Degrade: pretend all packets share one second, destroying
		// cross-second ordering information, then classify the raw log
		// order via a copy whose timestamps defeat reconstruction.
		degraded := *c
		degraded.Packets = append([]capture.PacketRecord(nil), c.Packets...)
		for j := range degraded.Packets {
			degraded.Packets[j].Timestamp = 0
			degraded.Packets[j].Seq = 0 // no sequence hints either
		}
		raw := cl.Classify(&degraded)
		total++
		if raw.Signature != ordered.Signature {
			changed++
		}
	}
	b.ReportMetric(100*float64(changed)/float64(total), "verdict-change-%")
}

// BenchmarkAblationCaptureDepth sweeps the first-N-packets cap and
// reports the Post-Data signature loss at N=6 versus the paper's N=10.
func BenchmarkAblationCaptureDepth(b *testing.B) {
	conns, _, _ := benchData(b)
	count := func(cl *core.Classifier, depth int) int {
		n := 0
		for _, c := range conns {
			truncated := *c
			if len(c.Packets) > depth {
				truncated.Packets = c.Packets[:depth]
			}
			r := cl.Classify(&truncated)
			if r.Signature.Stage() == core.StagePostData {
				n++
			}
		}
		return n
	}
	var at6, at10 int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cl6 := core.NewClassifier(core.Config{MaxPackets: 6})
		cl10 := core.NewClassifier(core.Config{MaxPackets: 10})
		at6 = count(cl6, 6)
		at10 = count(cl10, 10)
	}
	if at10 > 0 {
		b.ReportMetric(100*float64(at6)/float64(at10), "postdata-retained-at-depth6-%")
	}
}

// BenchmarkAblationSamplingRate compares per-country tampering
// estimates at 1-in-4 sampling against the full dataset, reporting the
// worst absolute error across major countries.
func BenchmarkAblationSamplingRate(b *testing.B) {
	conns, recs, scen := benchData(b)
	byCountry := func(recs []analysis.Record) []analysis.CountryDistribution {
		a := analysis.NewSignatureByCountryAgg()
		for i := range recs {
			a.Add(&recs[i])
		}
		return a.Table()
	}
	full := map[string]float64{}
	for _, d := range byCountry(recs) {
		full[d.Country] = d.TamperedShare()
	}
	rng := rand.New(rand.NewPCG(5, 5))
	var worst float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sampled := make([]*capture.Connection, 0, len(conns)/4)
		for _, c := range conns {
			if rng.IntN(4) == 0 {
				sampled = append(sampled, c)
			}
		}
		worst = 0
		for _, d := range byCountry(classifyAll(sampled, scen.Geo)) {
			if d.Total < 100 {
				continue
			}
			err := d.TamperedShare() - full[d.Country]
			if err < 0 {
				err = -err
			}
			if err > worst {
				worst = err
			}
		}
	}
	b.ReportMetric(100*worst, "worst-country-error-pp")
}
