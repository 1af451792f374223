package analysis

import (
	"strings"
	"sync"
	"testing"

	"tamperdetect/internal/capture"
	"tamperdetect/internal/core"
	"tamperdetect/internal/domains"
	"tamperdetect/internal/testlists"
	"tamperdetect/internal/workload"
)

// sharedDataset runs one moderate scenario for all analysis tests.
var (
	dsOnce  sync.Once
	dsConns []*capture.Connection
	dsRecs  []Record
	dsScen  *workload.Scenario
)

func dataset(t *testing.T) ([]*capture.Connection, []Record, *workload.Scenario) {
	t.Helper()
	dsOnce.Do(func() {
		s, err := workload.BuildScenario("analysis-test", 24000, 48, 99)
		if err != nil {
			t.Fatalf("BuildScenario: %v", err)
		}
		dsScen = s
		dsConns = s.Run(0)
		cl := core.NewClassifier(core.DefaultConfig())
		dsRecs = make([]Record, len(dsConns))
		for i, c := range dsConns {
			dsRecs[i] = NewRecord(c, s.Geo, cl.Classify(c))
		}
	})
	if dsScen == nil {
		t.Fatal("dataset initialization failed")
	}
	return dsConns, dsRecs, dsScen
}

// addAll adds every record to a and returns it: one serial pass, the
// reference every sharded, streamed and merged path must reproduce.
func addAll[A Aggregator](a A, recs []Record) A {
	for i := range recs {
		a.Add(&recs[i])
	}
	return a
}

func TestAnalyzeAttachesGeo(t *testing.T) {
	_, recs, _ := dataset(t)
	withCountry := 0
	for i := range recs {
		if recs[i].Country != "" {
			withCountry++
		}
	}
	if withCountry < len(recs)*99/100 {
		t.Errorf("only %d/%d records geolocated", withCountry, len(recs))
	}
}

func TestStageStatsShape(t *testing.T) {
	_, recs, _ := dataset(t)
	s := addAll(NewStageStatsAgg(), recs).Stats()
	pt := s.PossiblyTamperedShare()
	if pt < 0.05 || pt > 0.6 {
		t.Errorf("possibly tampered share = %.3f, outside plausible band", pt)
	}
	cov := s.SignatureCoverage()
	if cov < 0.7 || cov > 1.0 {
		t.Errorf("signature coverage = %.3f, want high (paper 86.9%%)", cov)
	}
	// Every canonical stage must be represented.
	for _, st := range []core.Stage{core.StagePostSYN, core.StagePostACK, core.StagePostPSH} {
		if s.StageCounts[st] == 0 {
			t.Errorf("stage %v empty", st)
		}
		if c := s.StageCoverage(st); c < 0.85 {
			t.Errorf("stage %v coverage %.3f, want near-complete", st, c)
		}
	}
	// Post-Data coverage is structurally lower (timeouts uncovered).
	if s.StageCounts[core.StagePostData] > 0 {
		if c := s.StageCoverage(core.StagePostData); c > 0.995 {
			t.Logf("note: Post-Data coverage %.3f (paper 69.2%%)", c)
		}
	}
}

func TestSignatureByCountryOrdering(t *testing.T) {
	_, recs, _ := dataset(t)
	ds := addAll(NewSignatureByCountryAgg(), recs).Table()
	if len(ds) < 30 {
		t.Fatalf("only %d countries", len(ds))
	}
	pos := map[string]int{}
	share := map[string]float64{}
	for i, d := range ds {
		pos[d.Country] = i
		share[d.Country] = d.TamperedShare()
	}
	// The paper's extremes: TM at the top, US/DE near the bottom.
	if share["TM"] < 0.5 {
		t.Errorf("TM tampered share = %.3f, want very high (paper 84%%)", share["TM"])
	}
	if pos["TM"] > 3 {
		t.Errorf("TM ranked %d, want top", pos["TM"])
	}
	// US/DE sit near the bottom but are not near zero: benign RST
	// closes and enterprise firewalls give every country a baseline of
	// Post-Data matches (paper §5.1, Figure 4).
	if share["US"] > 0.25 || share["DE"] > 0.25 {
		t.Errorf("US/DE shares = %.3f/%.3f, want low", share["US"], share["DE"])
	}
	if share["TM"] <= share["CN"] || share["CN"] <= share["US"] {
		t.Errorf("ordering TM(%.2f) > CN(%.2f) > US(%.2f) broken",
			share["TM"], share["CN"], share["US"])
	}
	// TM's dominant signature is ⟨SYN;ACK → RST⟩ (paper: 66.4% of its
	// tampered connections).
	var tm *CountryDistribution
	for i := range ds {
		if ds[i].Country == "TM" {
			tm = &ds[i]
		}
	}
	if tm.BySignature[core.SigACKRST] == 0 {
		t.Error("TM has no SYN;ACK→RST matches")
	}
}

func TestCountryBySignatureConcentration(t *testing.T) {
	_, recs, _ := dataset(t)
	comps := addAll(NewCountryBySignatureAgg(), recs).Table()
	bySig := map[core.Signature]*SignatureComposition{}
	for i := range comps {
		bySig[comps[i].Signature] = &comps[i]
	}
	// GFW burst signatures come overwhelmingly from CN.
	for _, sig := range []core.Signature{core.SigPSHRSTACKRSTACK, core.SigPSHRSTRSTZero} {
		sc := bySig[sig]
		if sc.Total == 0 {
			t.Errorf("%v: no matches", sig)
			continue
		}
		if sc.Share("CN") < 0.5 {
			t.Errorf("%v: CN share %.2f, want dominant", sig, sc.Share("CN"))
		}
	}
	// The KR ack-guesser dominates RST≠RST.
	if sc := bySig[core.SigPSHRSTNeqRST]; sc.Total > 0 && sc.Share("KR") < 0.4 {
		t.Errorf("RST≠RST: KR share %.2f, want dominant", sc.Share("KR"))
	}
	// Enterprise-firewall signatures spread across many countries.
	if sc := bySig[core.SigDataRSTACK]; sc.Total > 0 && len(sc.ByCountry) < 5 {
		t.Errorf("PSH;Data→RST+ACK seen in only %d countries", len(sc.ByCountry))
	}
}

func TestASNViewCentralizedVsDecentralized(t *testing.T) {
	_, recs, _ := dataset(t)
	asn := addAll(NewASNViewAgg(), recs)
	cn := asn.View("CN")
	ru := asn.View("RU")
	if len(cn) == 0 || len(ru) == 0 {
		t.Fatal("empty AS views")
	}
	spreadCN := SpreadOfASNView(cn)
	spreadRU := SpreadOfASNView(ru)
	if spreadRU <= spreadCN {
		t.Errorf("RU spread %.3f ≤ CN spread %.3f; decentralization contrast missing", spreadRU, spreadCN)
	}
	if v := asn.View("ZZ"); v != nil {
		t.Error("unknown country returned a view")
	}
}

func TestTimeSeriesDiurnal(t *testing.T) {
	_, recs, _ := dataset(t)
	series := addAll(NewTimeSeriesAgg(1,
		func(r *Record) bool { return r.Country == "IR" },
		PostACKPSHMatch), recs).Series()
	if len(series) < 24 {
		t.Fatalf("only %d hourly buckets", len(series))
	}
	// IR local night (TZ+4): aggregate counts across the window rather
	// than per-bucket shares (per-bucket volumes are small at test
	// scale).
	var nightM, nightT, dayM, dayT int
	for _, p := range series {
		local := (p.Hour + 4) % 24
		if local < 8 {
			nightM += p.Matched
			nightT += p.Total
		} else if local >= 10 && local < 22 {
			dayM += p.Matched
			dayT += p.Total
		}
	}
	if nightT == 0 || dayT == 0 {
		t.Fatal("series buckets missing")
	}
	nm := float64(nightM) / float64(nightT)
	dm := float64(dayM) / float64(dayT)
	if nm <= dm {
		t.Errorf("IR night share %.3f ≤ day %.3f; diurnal pattern missing", nm, dm)
	}
}

func TestIPVersionCompare(t *testing.T) {
	_, recs, _ := dataset(t)
	rows, slope := addAll(NewIPVersionAgg(30), recs).Table()
	if len(rows) < 5 {
		t.Fatalf("only %d countries with dual-stack volume", len(rows))
	}
	// Tampering applies to both families: slope near 1 (paper 0.92).
	if slope < 0.6 || slope > 1.4 {
		t.Errorf("v6-on-v4 slope = %.2f, want ≈1", slope)
	}
}

func TestProtocolCompare(t *testing.T) {
	_, recs, _ := dataset(t)
	rows, slope := addAll(NewProtocolAgg(20), recs).Table()
	if len(rows) < 5 {
		t.Fatalf("only %d countries", len(rows))
	}
	// TLS is generally more tampered than HTTP: slope below 1.
	if slope >= 1.0 {
		t.Errorf("HTTP-on-TLS slope = %.2f, want < 1 (paper 0.3)", slope)
	}
	// Turkmenistan is the inversion: HTTP ≫ TLS.
	for _, r := range rows {
		if r.Country == "TM" {
			if r.HTTPShare() <= r.TLSShare() {
				t.Errorf("TM HTTP %.2f ≤ TLS %.2f; Figure 7b outlier missing", r.HTTPShare(), r.TLSShare())
			}
		}
	}
}

func TestEvidenceCDFSeparation(t *testing.T) {
	_, recs, _ := dataset(t)
	cdfs := addAll(NewEvidenceAgg(1000), recs).CDFs()
	base := cdfs.IPID[core.SigNotTampering]
	if base == nil || base.Len() == 0 {
		t.Fatal("no baseline CDF")
	}
	// Baseline: overwhelmingly small deltas (paper: >95% ≤ 1).
	if p := base.At(2); p < 0.9 {
		t.Errorf("baseline P(ipid delta ≤ 2) = %.2f, want ≥0.9", p)
	}
	// Injection signatures: a large mass beyond 100.
	for _, sig := range []core.Signature{core.SigPSHRST, core.SigPSHRSTACKRSTACK} {
		c := cdfs.IPID[sig]
		if c == nil || c.Len() < 20 {
			t.Errorf("%v: too few IPv4 samples", sig)
			continue
		}
		if big := 1 - c.At(100); big < 0.4 {
			t.Errorf("%v: only %.2f of connections show ipid delta > 100 (paper: 40-100%%)", sig, big)
		}
	}
	// TTL: the KR random-TTL signature shows wide deltas.
	if c := cdfs.TTL[core.SigPSHRSTNeqRST]; c != nil && c.Len() > 10 {
		if 1-c.At(10) < 0.5 {
			t.Errorf("RST≠RST TTL deltas too small for a random-TTL injector")
		}
	}
}

func TestCategoryTableGlobalAndRegions(t *testing.T) {
	_, recs, sc := dataset(t)
	dom := addAll(NewDomainAgg(), recs)
	global := dom.CategoryTable(sc.Universe, "", 2)
	if global.TamperedTotal == 0 || len(global.Rows) < 3 {
		t.Fatalf("global category table empty: %+v", global)
	}
	cn := dom.CategoryTable(sc.Universe, "CN", 2)
	if len(cn.Rows) == 0 {
		t.Fatal("CN category table empty")
	}
	// CN's top category is Adult Themes with high coverage (Table 2:
	// 17.96% of tampered, 50.99% coverage).
	top := cn.Rows[0]
	if top.Category != domains.AdultThemes {
		t.Errorf("CN top category = %v, want Adult Themes", top.Category)
	}
	if top.Coverage < 0.2 {
		t.Errorf("CN adult coverage = %.2f, want high", top.Coverage)
	}
	// US coverage values are tiny (Table 2: ≤0.6%).
	us := dom.CategoryTable(sc.Universe, "US", 2)
	for _, row := range us.Top(3) {
		if row.Coverage > 0.2 {
			t.Errorf("US %v coverage %.3f, want ≪1", row.Category, row.Coverage)
		}
	}
	// The separation the paper highlights: CN blocks broad swathes of
	// a category; US tampering is concentrated on few domains.
	if cn.Rows[0].Coverage <= us.Rows[0].Coverage {
		t.Errorf("CN top coverage %.3f ≤ US top coverage %.3f; separation lost",
			cn.Rows[0].Coverage, us.Rows[0].Coverage)
	}
}

func TestListCoverageTable(t *testing.T) {
	_, recs, sc := dataset(t)
	sensitive := func(d *domains.Domain) bool {
		switch d.Category {
		case domains.AdultThemes, domains.News, domains.SocialNetworks, domains.Chat:
			return true
		}
		return false
	}
	suite := testlists.BuildSuite(sc.Universe, sensitive, testlists.DefaultBuildConfig())
	regions := []string{"", "CN", "IN", "RU"}
	rows := addAll(NewDomainAgg(), recs).ListCoverage(suite, regions, 2)
	if len(rows) != 16 {
		t.Fatalf("rows = %d, want 12 lists + 4 union/substring", len(rows))
	}
	byName := map[string]ListCoverageRow{}
	for _, r := range rows {
		byName[r.ListName] = r
	}
	// The full Tranco tier covers everything; small tiers and curated
	// lists must not (the paper's central §5.5 finding).
	if got := byName["Tranco_1M"].Exact["CN"]; got < 0.99 {
		t.Errorf("Tranco_1M CN coverage = %.2f, want ≈1", got)
	}
	curated := byName["Union: Citizenlab + Greatfire"]
	if curated.Exact["CN"] > 0.8 {
		t.Errorf("curated lists cover %.2f of CN tampered domains; should miss many", curated.Exact["CN"])
	}
	// Substring matching can only increase coverage.
	sub := byName["Substring: Citizenlab + Greatfire"]
	for _, reg := range regions {
		if sub.Substring[reg]+1e-9 < curated.Exact[reg] {
			t.Errorf("%s: substring %.2f < exact %.2f", reg, sub.Substring[reg], curated.Exact[reg])
		}
	}
	// Bigger Tranco tiers dominate smaller ones.
	if byName["Tranco_1K"].Exact[""] > byName["Tranco_100K"].Exact[""] {
		t.Error("Tranco tier ordering inverted")
	}
}

func TestOverlapMatrixDiagonal(t *testing.T) {
	_, recs, _ := dataset(t)
	m := addAll(NewOverlapAgg(), recs).Matrix()
	if m.Pairs < 50 {
		t.Skipf("only %d repeat pairs in dataset", m.Pairs)
	}
	if d := m.DiagonalMass(); d < 0.5 {
		t.Errorf("mean diagonal mass = %.2f, want dominant (Figure 10)", d)
	}
}

func TestScannerStats(t *testing.T) {
	_, recs, _ := dataset(t)
	s := addAll(NewScannerAgg(), recs).Stats()
	if s.Total == 0 || s.SYNRSTMatches == 0 {
		t.Fatalf("stats empty: %+v", s)
	}
	zmapShare := float64(s.SYNRSTZMap) / float64(s.SYNRSTMatches)
	if zmapShare <= 0 || zmapShare > 0.6 {
		t.Errorf("ZMap share of SYN→RST = %.2f, want small but nonzero", zmapShare)
	}
	if s.Port80SYNs == 0 || s.SYNPayload80 == 0 {
		t.Error("no SYN-payload traffic on port 80")
	}
	if s.HighTTL == 0 {
		t.Error("no high-TTL scanners")
	}
}

func TestRenderersProduceOutput(t *testing.T) {
	_, recs, sc := dataset(t)
	if out := RenderStageStats(addAll(NewStageStatsAgg(), recs).Stats()); !strings.Contains(out, "Possibly tampered") {
		t.Error("stage stats render empty")
	}
	if out := RenderCountryDistribution(addAll(NewSignatureByCountryAgg(), recs).Table(), 10); !strings.Contains(out, "TM") {
		t.Error("country distribution render missing TM")
	}
	if out := RenderSignatureComposition(addAll(NewCountryBySignatureAgg(), recs).Table()); len(out) < 100 {
		t.Error("signature composition render too short")
	}
	if out := RenderASNView("RU", addAll(NewASNViewAgg(), recs).View("RU")); !strings.Contains(out, "AS") {
		t.Error("ASN view render empty")
	}
	series := addAll(NewTimeSeriesAgg(4, nil, AnySignatureMatch), recs).Series()
	if out := RenderTimeSeries("global", series); len(out) < 50 {
		t.Error("time series render too short")
	}
	rows, slope := addAll(NewIPVersionAgg(30), recs).Table()
	if out := RenderVersionComparison(rows, slope); !strings.Contains(out, "slope") {
		t.Error("version comparison render missing slope")
	}
	prows, pslope := addAll(NewProtocolAgg(20), recs).Table()
	if out := RenderProtocolComparison(prows, pslope); !strings.Contains(out, "slope") {
		t.Error("protocol comparison render missing slope")
	}
	if out := RenderCategoryTable(addAll(NewDomainAgg(), recs).CategoryTable(sc.Universe, "", 2), 3); len(out) < 20 {
		t.Error("category table render too short")
	}
	cdfs := addAll(NewEvidenceAgg(500), recs).CDFs()
	if out := RenderEvidenceCDF("ipid", cdfs.IPID, []float64{1, 100, 1000}); len(out) < 50 {
		t.Error("evidence CDF render too short")
	}
	if out := RenderOverlapMatrix(addAll(NewOverlapAgg(), recs).Matrix()); len(out) < 50 {
		t.Error("overlap matrix render too short")
	}
	if out := RenderScannerStats(addAll(NewScannerAgg(), recs).Stats()); !strings.Contains(out, "ZMap") {
		t.Error("scanner stats render missing ZMap")
	}
}

func TestStabilityReport(t *testing.T) {
	_, recs, _ := dataset(t)
	rows := addAll(NewStabilityAgg(20), recs).Report()
	if len(rows) < 5 {
		t.Fatalf("only %d countries with enough volume", len(rows))
	}
	// Censor deployments are static within a scenario: signature mixes
	// must be highly consistent across the halves (§6's stability).
	if m := MeanStability(rows); m < 0.85 {
		t.Errorf("mean cross-half cosine similarity = %.3f, want high", m)
	}
	for _, r := range rows {
		if r.Cosine < 0 || r.Cosine > 1.0000001 {
			t.Errorf("%s: cosine %.3f out of range", r.Country, r.Cosine)
		}
	}
}

func TestStabilityEmpty(t *testing.T) {
	if rows := NewStabilityAgg(1).Report(); rows != nil {
		t.Error("empty input produced rows")
	}
	if MeanStability(nil) != 0 {
		t.Error("empty mean != 0")
	}
}

func TestIPVersionDisparities(t *testing.T) {
	// Figure 7a's named disparities: LK tampers IPv4 ≫ IPv6, KE the
	// reverse, while the global slope stays near 1.
	_, recs, _ := dataset(t)
	rows, _ := addAll(NewIPVersionAgg(10), recs).Table()
	found := map[string]bool{}
	for _, r := range rows {
		switch r.Country {
		case "LK":
			found["LK"] = true
			if r.V4Share() <= r.V6Share() {
				t.Errorf("LK v4 %.3f ≤ v6 %.3f, want v4 ≫ v6", r.V4Share(), r.V6Share())
			}
		case "KE":
			found["KE"] = true
			if r.V6Share() <= r.V4Share() {
				t.Errorf("KE v6 %.3f ≤ v4 %.3f, want v6 ≫ v4", r.V6Share(), r.V4Share())
			}
		}
	}
	if !found["LK"] || !found["KE"] {
		t.Errorf("LK/KE rows missing from comparison: %v", found)
	}
}
