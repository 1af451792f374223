package analysis

// Temporal-extent aggregation. TimeSpanAgg tracks which first-packet
// seconds a dataset actually covers, so the virtual-time determinism
// gate can assert the paper's longitudinal property end to end: a
// 14-day scenario generated in seconds of wall-clock still carries
// capture timestamps spanning the whole virtual window at 1-second
// resolution. Like every aggregator it is a pure function of the
// record multiset, so the check holds across worker counts and PoP
// merges.

import (
	"fmt"
	"sort"
)

// TimeSpan is TimeSpanAgg's finalized summary.
type TimeSpan struct {
	Total         int   // records observed
	MinTime       int64 // earliest first-packet timestamp, seconds from scenario start
	MaxTime       int64 // latest first-packet timestamp
	DistinctTimes int   // distinct first-packet seconds
	FirstHour     int   // MinTime's scenario hour
	LastHour      int   // MaxTime's scenario hour
	HoursSeen     int   // distinct scenario hours with at least one record
}

// CoversWindow reports whether the span covers an hours-hour virtual
// window end to end at sub-hour resolution: records in every scenario
// hour from 0 through hours-1, and strictly more distinct seconds
// than hours (timestamps quantized to hour boundaries would have
// exactly one distinct second per hour). A nil return is the
// determinism gate's pass condition.
func (ts TimeSpan) CoversWindow(hours int) error {
	if hours <= 0 {
		return fmt.Errorf("analysis: window of %d hours", hours)
	}
	if ts.Total == 0 {
		return fmt.Errorf("analysis: no records in a %d-hour window", hours)
	}
	if ts.FirstHour != 0 {
		return fmt.Errorf("analysis: earliest record at hour %d, want hour 0", ts.FirstHour)
	}
	if ts.LastHour != hours-1 {
		return fmt.Errorf("analysis: latest record at hour %d, want hour %d", ts.LastHour, hours-1)
	}
	if ts.HoursSeen != hours {
		return fmt.Errorf("analysis: records in %d of %d hours", ts.HoursSeen, hours)
	}
	if ts.DistinctTimes <= hours {
		return fmt.Errorf("analysis: %d distinct timestamps over %d hours — no sub-hour resolution", ts.DistinctTimes, hours)
	}
	return nil
}

// TimeSpanAgg incrementally computes TimeSpan. It keeps a count per
// distinct first-packet second, which makes Merge a plain union and
// the snapshot an exact carrier of the temporal profile.
type TimeSpanAgg struct {
	total int
	secs  map[int64]int
}

// NewTimeSpanAgg returns an empty temporal-extent aggregator.
func NewTimeSpanAgg() *TimeSpanAgg {
	return &TimeSpanAgg{secs: map[int64]int{}}
}

func (a *TimeSpanAgg) Add(r *Record) {
	a.total++
	a.secs[r.Time]++
}

func (a *TimeSpanAgg) Merge(other Aggregator) error {
	o, ok := other.(*TimeSpanAgg)
	if !ok {
		return mismatch(a, other)
	}
	a.total += o.total
	for t, n := range o.secs {
		a.secs[t] += n
	}
	return nil
}

// Span finalizes the temporal summary.
func (a *TimeSpanAgg) Span() TimeSpan {
	ts := TimeSpan{Total: a.total, DistinctTimes: len(a.secs)}
	if len(a.secs) == 0 {
		return ts
	}
	first := true
	hours := map[int64]bool{}
	for t := range a.secs {
		if first || t < ts.MinTime {
			ts.MinTime = t
		}
		if first || t > ts.MaxTime {
			ts.MaxTime = t
		}
		first = false
		hours[t/3600] = true
	}
	ts.FirstHour = int(ts.MinTime / 3600)
	ts.LastHour = int(ts.MaxTime / 3600)
	ts.HoursSeen = len(hours)
	return ts
}

func (a *TimeSpanAgg) Finalize() any { return a.Span() }

// sortedTimes lists the distinct seconds in increasing order, for the
// deterministic snapshot encoding.
func (a *TimeSpanAgg) sortedTimes() []int64 {
	keys := make([]int64, 0, len(a.secs))
	for t := range a.secs {
		keys = append(keys, t)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// RenderTimeSpan prints the temporal extent summary.
func RenderTimeSpan(ts TimeSpan) string {
	return fmt.Sprintf("time span: %d records over seconds [%d, %d], %d distinct timestamps, hours %d..%d (%d covered)\n",
		ts.Total, ts.MinTime, ts.MaxTime, ts.DistinctTimes, ts.FirstHour, ts.LastHour, ts.HoursSeen)
}
