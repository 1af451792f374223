package main

import (
	"math"
	"regexp"
	"testing"

	"tamperdetect/internal/analysis"
)

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.in); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("median reordered its argument: %v", in)
	}
}

func TestPercentile(t *testing.T) {
	s := make([]float64, 100)
	for i := range s {
		s[i] = float64(i + 1)
	}
	for _, tc := range []struct{ p, want float64 }{{0.5, 50}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := percentile(s, tc.p); got != tc.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

// The tail figure must keep at least ten samples beyond it.
func TestSupportedPercentile(t *testing.T) {
	for _, tc := range []struct {
		n          int
		want, pick float64
	}{
		{10, 0.99, 0.5},     // too few samples for any tail
		{100, 0.99, 0.90},   // p99 of 100 has one sample beyond it
		{1000, 0.99, 0.99},  // exactly ten beyond
		{18000, 0.99, 0.99}, // capped at what was asked for
		{500, 0.99, 0.98},
	} {
		got := supportedPercentile(tc.n, tc.want)
		if math.Abs(got-tc.pick) > 1e-12 {
			t.Errorf("supportedPercentile(%d, %v) = %v, want %v", tc.n, tc.want, got, tc.pick)
		}
		if beyond := float64(tc.n) * (1 - got); tc.n >= 20 && beyond < 10-1e-9 {
			t.Errorf("supportedPercentile(%d, %v) = %v leaves only %.1f samples beyond", tc.n, tc.want, got, beyond)
		}
	}
	s := summarize([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 100})
	if s.N != 20 || s.P50 != 10 || s.TailPct != 0.5 || s.Tail != 10 {
		t.Errorf("summarize of 20 samples = %+v, want the tail to fall back to the median", s)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 40},
		{ID: 3, Parent: 1, Start: 30, End: 60},  // overlaps span 2
		{ID: 4, Parent: 1, Start: 90, End: 120}, // runs past its parent
		{ID: 5, Parent: 2, Start: 15, End: 20},
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{
		1: 100 - (50 + 10), // children cover [10,60) and [90,100)
		2: 30 - 5,
		3: 30,
		4: 30,
		5: 5,
	} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

func TestPerOpTakesTheMedianRepetition(t *testing.T) {
	var spans []span
	id := 0
	add := func(parent int, name string, dur int64, count int) int {
		id++
		spans = append(spans, span{ID: id, Parent: parent, Name: name, Start: 0, End: dur, Count: count})
		return id
	}
	for _, nsPerOp := range []int64{10, 30, 12} { // the middle repetition was disturbed
		rep := add(0, "rep", 1, 0)
		add(rep, "stage", 1024*nsPerOp, 1024)
		add(rep, "stage", 512*nsPerOp, 512)
		add(rep, "other", 999, 1)
	}
	if got := perOp(spans, selfTimes(spans), "stage"); got != 12 {
		t.Errorf("perOp = %v, want the median repetition's 12", got)
	}
}

func TestStripDatasetLine(t *testing.T) {
	in := "# dataset: 199979 connections from /tmp/x.tdcap (2 shards), one-pass aggregation in 331ms\n\n== table1 ==\nConnections analyzed: 199979\n"
	want := "\n== table1 ==\nConnections analyzed: 199979\n"
	if got := string(stripDatasetLine([]byte(in))); got != want {
		t.Errorf("stripDatasetLine = %q, want %q", got, want)
	}
	if got := string(stripDatasetLine([]byte(want))); got != want {
		t.Errorf("stripDatasetLine changed output without a dataset line: %q", got)
	}
	a := stripDatasetLine([]byte("# dataset: a in 1ms\nbody\n"))
	b := stripDatasetLine([]byte("# dataset: b in 2ms\nbody\n"))
	if string(a) != string(b) {
		t.Errorf("two runs differing only in the dataset line compare unequal: %q vs %q", a, b)
	}
}

func TestRelWorse(t *testing.T) {
	if got := relWorse(100, 90, true); got != 0.1 {
		t.Errorf("throughput 100 -> 90 is worse by %v, want 0.1", got)
	}
	if got := relWorse(100, 110, false); got != 0.1 {
		t.Errorf("latency 100 -> 110 is worse by %v, want 0.1", got)
	}
	if got := relWorse(100, 110, true); got >= 0 {
		t.Errorf("throughput 100 -> 110 reads as worse by %v", got)
	}
}

// Every name the code prints is in BENCHMARK.json with the same unit, and
// every name there is one the code prints.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	bf, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	legal := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	check := func(kind, name string) {
		if !legal.MatchString(name) {
			t.Errorf("%s name %q is not made of [A-Za-z0-9_.-] (at most 64)", kind, name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}

	var fileWorkloads []string
	for _, w := range bf.Workloads {
		fileWorkloads = append(fileWorkloads, w.Name)
	}
	sameSet(t, "workload", workloadNames, fileWorkloads)
	for _, n := range workloadNames {
		check("workload", n)
		if newWorkload(n) == nil {
			t.Errorf("workload %q has no implementation", n)
		}
	}

	units := map[string]string{}
	var fileE2E, filePerLayer, codeE2E, codePerLayer []string
	for _, m := range bf.EndToEnd {
		fileE2E = append(fileE2E, m.Name)
		units[m.Name] = m.Unit
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v is outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range bf.PerLayer {
		filePerLayer = append(filePerLayer, m.Name)
		units[m.Name] = m.Unit
	}
	for _, m := range endToEndMetrics {
		codeE2E = append(codeE2E, m.Name)
	}
	for _, m := range perLayerMetrics {
		codePerLayer = append(codePerLayer, m.Name)
	}
	sameSet(t, "end-to-end metric", codeE2E, fileE2E)
	sameSet(t, "per-layer metric", codePerLayer, filePerLayer)
	for _, m := range append(append([]metricDef(nil), endToEndMetrics...), perLayerMetrics...) {
		check("metric", m.Name)
		if units[m.Name] != m.Unit {
			t.Errorf("%s: the code prints unit %q, BENCHMARK.json says %q", m.Name, m.Unit, units[m.Name])
		}
	}
	if n := len(analysis.NewFleetAggs()); len(fleetAggNames) != n {
		t.Errorf("%d fleet aggregator names for the %d members of analysis.NewFleetAggs", len(fleetAggNames), n)
	}
}

func sameSet(t *testing.T, kind string, code, file []string) {
	t.Helper()
	in := func(list []string, s string) bool {
		for _, v := range list {
			if v == s {
				return true
			}
		}
		return false
	}
	for _, n := range code {
		if !in(file, n) {
			t.Errorf("%s %q is printed by the code but missing from BENCHMARK.json", kind, n)
		}
	}
	for _, n := range file {
		if !in(code, n) {
			t.Errorf("%s %q is in BENCHMARK.json but the code does not print it", kind, n)
		}
	}
}
