package analysis

import (
	"tamperdetect/internal/core"
	"tamperdetect/internal/domains"
)

// CategoryRow is one (region, category) cell of Table 2.
type CategoryRow struct {
	Category domains.Category
	// TamperedShare is the category's proportion of all tampered
	// (Post-PSH) connections from the region.
	TamperedShare float64
	// Coverage is the proportion of the category's domains seen from
	// the region that are tampered (Table 2's last column).
	Coverage float64
	// TamperedConns is the raw count behind TamperedShare.
	TamperedConns int
}

// CategoryTable is Table 2 for one region.
type CategoryTable struct {
	Region string
	// Rows are ordered by descending TamperedShare.
	Rows []CategoryRow
	// TamperedTotal counts the region's Post-PSH tampered connections
	// with a visible domain.
	TamperedTotal int
}

// Top returns the top-n rows.
func (t *CategoryTable) Top(n int) []CategoryRow {
	if n > len(t.Rows) {
		n = len(t.Rows)
	}
	return t.Rows[:n]
}

// ListCoverageRow is one cell-row of Table 3: a list's coverage of each
// region's tampered domains.
type ListCoverageRow struct {
	ListName string
	Entries  int
	// Exact maps region → eTLD+1 coverage; Substring holds the §5.5
	// best case.
	Exact     map[string]float64
	Substring map[string]float64
}

// OverlapMatrix is Figure 10: for (client, domain) pairs observed at
// least twice, the distribution of (first signature, next signature)
// among Post-PSH outcomes.
type OverlapMatrix struct {
	// Sigs lists the matrix axes in order: Not-Tampering then the
	// Post-PSH signatures.
	Sigs []core.Signature
	// Fraction[i][j] is P(next = Sigs[j] | first = Sigs[i]).
	Fraction [][]float64
	// Counts[i][j] holds raw pair counts.
	Counts [][]int
	Pairs  int
}

// postPSHAxes are the Figure 10 axes.
func postPSHAxes() []core.Signature {
	out := []core.Signature{core.SigNotTampering}
	for _, s := range core.AllSignatures() {
		if s.Stage() == core.StagePostPSH {
			out = append(out, s)
		}
	}
	return out
}

// DiagonalMass is Figure 10's headline: the average over rows (with
// any observations) of the same-signature repeat probability.
func (m *OverlapMatrix) DiagonalMass() float64 {
	sum, rows := 0.0, 0
	for i := range m.Fraction {
		rowTotal := 0
		for _, c := range m.Counts[i] {
			rowTotal += c
		}
		if rowTotal == 0 {
			continue
		}
		sum += m.Fraction[i][i]
		rows++
	}
	if rows == 0 {
		return 0
	}
	return sum / float64(rows)
}
