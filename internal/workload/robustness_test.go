package workload

import (
	"testing"

	"tamperdetect/internal/analysis"
	"tamperdetect/internal/core"
)

// TestLossyGradeZeroFalsePositives is the acceptance gate for the
// fault-injection layer: a ≥10k-connection tamper-free workload run
// under the "lossy" impairment grade must classify with a
// per-signature false-positive count of exactly zero — burst loss,
// retransmission, reordering, duplication, corruption, and truncation
// must never be mistaken for tampering. (-short runs a reduced
// population; scripts/check.sh runs the full gate.)
func TestLossyGradeZeroFalsePositives(t *testing.T) {
	total := 10000
	if testing.Short() {
		total = 2000
	}
	s, err := BenignScenario("robustness", total, 24, 7)
	if err != nil {
		t.Fatal(err)
	}
	outs, err := RobustnessSweep(s, []string{"clean", "lossy"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	grades := make([]analysis.RobustnessGrade, len(outs))
	byName := map[string]*analysis.RobustnessGrade{}
	for i, o := range outs {
		agg := analysis.NewRobustnessAgg(o.Grade, o.EffectiveLoss)
		for _, sig := range o.Signatures {
			agg.Add(&analysis.Record{Res: core.Result{Signature: sig}})
		}
		grades[i] = agg.Grade()
		byName[grades[i].Grade] = &grades[i]
	}
	clean, lossy := byName["clean"], byName["lossy"]
	if clean == nil || lossy == nil {
		t.Fatalf("sweep missing grades: %v", byName)
	}
	for _, g := range []*analysis.RobustnessGrade{clean, lossy} {
		for sig, n := range g.FalsePositives {
			if n != 0 {
				t.Errorf("grade %s: signature %q fired on %d benign connections",
					g.Grade, sig, n)
			}
		}
	}
	// The impaired population must actually survive and classify: the
	// zero-FP result would be vacuous if loss suppressed the captures.
	if clean.Total < total*95/100 {
		t.Errorf("clean grade classified %d of %d connections", clean.Total, total)
	}
	if lossy.Total < clean.Total*95/100 {
		t.Errorf("lossy grade classified %d connections vs %d clean — too many lost captures",
			lossy.Total, clean.Total)
	}
	if t.Failed() {
		t.Logf("matrix:\n%s", analysis.RenderRobustnessMatrix(grades))
	}
}
