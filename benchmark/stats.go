package main

import (
	"math"
	"sort"
	"strings"
)

// median returns the middle value of v (mean of the two middle values for
// an even count); 0 for an empty slice. v is not modified.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of an
// ascending slice; 0 for an empty one.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// supportedPercentile returns the highest percentile not above want that
// still has at least ten of n samples beyond it, so the tail figure is
// never a single outlier; with fewer than 20 samples it is the median.
func supportedPercentile(n int, want float64) float64 {
	if n < 20 {
		return 0.5
	}
	return math.Min(want, 1-10/float64(n))
}

// latencySummary condenses latency samples (ms) into the figures the
// benchmark prints.
type latencySummary struct {
	N       int     `json:"n"`
	P50     float64 `json:"p50"`
	Tail    float64 `json:"tail"`     // value at TailPct
	TailPct float64 `json:"tail_pct"` // supportedPercentile(N, 0.99)
}

func summarize(ms []float64) latencySummary {
	s := append([]float64(nil), ms...)
	sort.Float64s(s)
	out := latencySummary{N: len(s), P50: percentile(s, 0.5), TailPct: supportedPercentile(len(s), 0.99)}
	out.Tail = percentile(s, out.TailPct)
	return out
}

// stripDatasetLine removes paperbench's "# dataset:" line, which carries
// the capture path, the shard placement and a wall-clock duration and so
// differs between two correct runs.
func stripDatasetLine(out []byte) []byte {
	lines := strings.SplitAfter(string(out), "\n")
	kept := lines[:0]
	for _, l := range lines {
		if !strings.HasPrefix(l, "# dataset:") {
			kept = append(kept, l)
		}
	}
	return []byte(strings.Join(kept, ""))
}

// relWorse returns by what share of base the value cur is worse, given
// the metric's direction; negative when cur is better.
func relWorse(base, cur float64, higherBetter bool) float64 {
	if base == 0 {
		return 0
	}
	if higherBetter {
		return (base - cur) / base
	}
	return (cur - base) / base
}
