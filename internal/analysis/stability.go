package analysis

import "math"

// This file implements the §6 "are tampering signatures stable?"
// analysis as a measurable experiment: split the observation window in
// half and compare each country's signature distribution across the
// halves. Stable censorship infrastructure (the paper's expectation)
// yields high similarity.

// StabilityRow is one country's cross-window comparison.
type StabilityRow struct {
	Country string
	// FirstTotal and SecondTotal count tampered connections per half.
	FirstTotal, SecondTotal int
	// Cosine is the cosine similarity of the two signature-count
	// vectors (1 = identical mix).
	Cosine float64
	// RateDelta is the absolute change in overall tampering rate.
	RateDelta float64
}

// cosine computes the cosine similarity of two count vectors.
func cosine(a, b []int) float64 {
	var dot, na, nb float64
	for i := range a {
		x, y := float64(a[i]), float64(b[i])
		dot += x * y
		na += x * x
		nb += y * y
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / math.Sqrt(na*nb)
}

// MeanStability is the report's headline: mean cosine similarity.
func MeanStability(rows []StabilityRow) float64 {
	if len(rows) == 0 {
		return 0
	}
	sum := 0.0
	for _, r := range rows {
		sum += r.Cosine
	}
	return sum / float64(len(rows))
}
