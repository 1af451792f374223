package analysis

import (
	"bytes"
	"strings"
	"testing"
)

// spanOf is the span of a record slice, from one serial pass.
func spanOf(recs []Record) TimeSpan { return addAll(NewTimeSpanAgg(), recs).Span() }

// spanRecords synthesizes one record per (hour, offset) pair.
func spanRecords(times []int64) []Record {
	recs := make([]Record, len(times))
	for i, t := range times {
		recs[i] = Record{Time: t, Hour: int(t / 3600)}
	}
	return recs
}

func TestTimeSpanBasics(t *testing.T) {
	ts := spanOf(spanRecords([]int64{7200, 30, 30, 3601, 0, 7199}))
	want := TimeSpan{Total: 6, MinTime: 0, MaxTime: 7200, DistinctTimes: 5,
		FirstHour: 0, LastHour: 2, HoursSeen: 3}
	if ts != want {
		t.Errorf("span = %+v, want %+v", ts, want)
	}
	if zero := spanOf(nil); zero != (TimeSpan{}) {
		t.Errorf("empty span = %+v", zero)
	}
	if !strings.Contains(RenderTimeSpan(ts), "6 records") {
		t.Errorf("render: %q", RenderTimeSpan(ts))
	}
}

func TestTimeSpanCoversWindow(t *testing.T) {
	// Every hour of a 3-hour window populated at sub-hour offsets.
	full := []int64{5, 100, 3660, 3720, 7200, 10700}
	if err := spanOf(spanRecords(full)).CoversWindow(3); err != nil {
		t.Errorf("full window rejected: %v", err)
	}
	cases := []struct {
		name  string
		times []int64
		hours int
		want  string
	}{
		{"empty", nil, 3, "no records"},
		{"bad window", full, 0, "window"},
		{"late start", []int64{3700, 7300, 10900}, 3, "earliest"},
		{"early end", []int64{5, 3700, 7300}, 4, "latest"},
		{"hour gap", []int64{5, 10, 7300, 7400, 10700}, 3, "2 of 3"},
		{"hour-quantized", []int64{0, 3600, 7200}, 3, "sub-hour"},
	}
	for _, tc := range cases {
		err := spanOf(spanRecords(tc.times)).CoversWindow(tc.hours)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want mention of %q", tc.name, err, tc.want)
		}
	}
}

func TestTimeSpanMerge(t *testing.T) {
	recs := spanRecords([]int64{0, 50, 3660, 3660, 7300, 10999})
	whole := spanOf(recs)
	a, b := NewTimeSpanAgg(), NewTimeSpanAgg()
	for i := range recs[:3] {
		a.Add(&recs[i])
	}
	for i := 3; i < len(recs); i++ {
		b.Add(&recs[i])
	}
	if err := a.Merge(b); err != nil {
		t.Fatalf("merge: %v", err)
	}
	if got := a.Span(); got != whole {
		t.Errorf("merged span = %+v, want %+v", got, whole)
	}
	if err := NewTimeSpanAgg().Merge(NewStageStatsAgg()); err == nil {
		t.Error("cross-type merge accepted")
	}
}

func TestTimeSpanSnapshotRoundTrip(t *testing.T) {
	recs := spanRecords([]int64{10999, 0, 50, 3660, 3660, 7300})
	src := NewTimeSpanAgg()
	for i := range recs {
		src.Add(&recs[i])
	}
	frame := snapshotOf(t, src)

	dst := NewTimeSpanAgg()
	if err := RestoreSnapshot(frame, dst); err != nil {
		t.Fatalf("RestoreSnapshot: %v", err)
	}
	if got, want := dst.Span(), src.Span(); got != want {
		t.Errorf("restored span = %+v, want %+v", got, want)
	}
	if re := snapshotOf(t, dst); !bytes.Equal(re, frame) {
		t.Error("re-encoded snapshot differs")
	}

	// Restore into non-empty state folds in, exactly as Merge.
	extra := spanRecords([]int64{99, 3660})
	merged := NewTimeSpanAgg()
	for i := range extra {
		merged.Add(&extra[i])
	}
	if err := RestoreSnapshot(frame, merged); err != nil {
		t.Fatalf("RestoreSnapshot into non-empty: %v", err)
	}
	wantAll := spanOf(append(append([]Record(nil), recs...), extra...))
	if got := merged.Span(); got != wantAll {
		t.Errorf("restore-as-merge span = %+v, want %+v", got, wantAll)
	}

	// Truncations never decode cleanly.
	for cut := 0; cut < len(frame); cut++ {
		if err := RestoreSnapshot(frame[:cut], NewTimeSpanAgg()); err == nil {
			t.Fatalf("cut=%d: truncated snapshot decoded cleanly", cut)
		}
	}
}
