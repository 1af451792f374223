package analysis

import (
	"fmt"
	"strings"

	"tamperdetect/internal/core"
	"tamperdetect/internal/stats"
)

// This file aggregates the robustness (false-positive) harness: a
// tamper-free workload is run under increasingly hostile benign link
// impairments, and every tampering-signature match is by construction a
// false positive. The matrix shows, per signature and grade, how many
// benign connections the detector would wrongly flag — the paper's §5.1
// robustness claim is that this stays at zero even on badly degraded
// links, because loss, retransmission, reordering, and duplication
// never produce a Table 1 flag sequence.

// RobustnessGrade is one impairment grade's classification outcome on a
// tamper-free workload.
type RobustnessGrade struct {
	// Grade is the impairment profile name ("clean", "lossy", …).
	Grade string
	// EffectiveLoss is the grade's steady-state per-traversal loss.
	EffectiveLoss float64
	// Total counts classified connections (the sampler can drop
	// connections whose every inbound packet was lost).
	Total int
	// FalsePositives counts, per tampering signature, the benign
	// connections that matched it.
	FalsePositives map[core.Signature]int
	// Anomalous counts SigOtherAnomalous outcomes — flagged as unusual
	// but, correctly, not as tampering.
	Anomalous int
	// NotTampering counts clean classifications.
	NotTampering int
}

// FalsePositiveTotal sums the tampering-signature matches.
func (g *RobustnessGrade) FalsePositiveTotal() int {
	n := 0
	for _, c := range g.FalsePositives {
		n += c
	}
	return n
}

// FalsePositiveRate is the share of classified connections wrongly
// flagged as tampered.
func (g *RobustnessGrade) FalsePositiveRate() float64 {
	return stats.Ratio(g.FalsePositiveTotal(), g.Total)
}

// RenderRobustnessMatrix prints the per-signature false-positive matrix
// across impairment grades.
func RenderRobustnessMatrix(grades []RobustnessGrade) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s", "signature \\ grade")
	for _, g := range grades {
		fmt.Fprintf(&b, " %12s", g.Grade)
	}
	b.WriteByte('\n')
	for _, sig := range core.AllSignatures() {
		fmt.Fprintf(&b, "%-28s", sig.String())
		for _, g := range grades {
			fmt.Fprintf(&b, " %12d", g.FalsePositives[sig])
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "%-28s", "— not tampering")
	for _, g := range grades {
		fmt.Fprintf(&b, " %12d", g.NotTampering)
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "%-28s", "— other anomalous")
	for _, g := range grades {
		fmt.Fprintf(&b, " %12d", g.Anomalous)
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "%-28s", "connections classified")
	for _, g := range grades {
		fmt.Fprintf(&b, " %12d", g.Total)
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "%-28s", "effective link loss")
	for _, g := range grades {
		fmt.Fprintf(&b, " %11.2f%%", 100*g.EffectiveLoss)
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "%-28s", "FALSE-POSITIVE RATE")
	for _, g := range grades {
		fmt.Fprintf(&b, " %11.4f%%", stats.Percent(g.FalsePositiveRate()))
	}
	b.WriteByte('\n')
	return b.String()
}
