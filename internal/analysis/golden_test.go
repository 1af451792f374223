package analysis

// The fleet-report golden pins RenderFleetReport over the shared
// geo-bearing test dataset (every country-keyed table populated), so
// aggregator internals can change while the printed report provably
// does not. The benchmark's captures carry no address plan and leave
// those tables empty, which is why this golden exists alongside
// cmd/paperbench's. Regenerate it only on purpose (and say why in
// CHANGES.md): run
//
//	go test ./internal/analysis -run TestFleetReportGolden
//
// and, on a mismatch, copy the file the failure names over
// testdata/fleet_report.golden.

import (
	"os"
	"path/filepath"
	"testing"
)

func TestFleetReportGolden(t *testing.T) {
	_, recs, _ := dataset(t)
	agg := NewFleetAggs()
	for i := range recs {
		agg.Add(&recs[i])
	}
	got := RenderFleetReport(agg)
	want, err := os.ReadFile("testdata/fleet_report.golden")
	if err == nil && got == string(want) {
		return
	}
	out := filepath.Join(os.TempDir(), "fleet_report.golden")
	if werr := os.WriteFile(out, []byte(got), 0o644); werr != nil {
		t.Logf("writing current render: %v", werr)
	}
	if err != nil {
		t.Fatalf("%v (current render written to %s)", err, out)
	}
	t.Fatalf("fleet report diverges from the golden at %s\n(current render written to %s)", firstDiff(got, string(want)), out)
}
