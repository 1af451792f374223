package tamperdetect

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"tamperdetect/internal/analysis"
	"tamperdetect/internal/capture"
	"tamperdetect/internal/core"
	"tamperdetect/internal/workload"
)

// streamAnalyzeCapture builds a fixed-seed scenario once and returns
// its connections, encoded TDCAP bytes, and geo plan.
func streamAnalyzeCapture(t *testing.T) ([]*capture.Connection, []byte, *GeoDB) {
	t.Helper()
	s, err := workload.BuildScenario("public-streamanalyze", 1500, 48, 7)
	if err != nil {
		t.Fatalf("BuildScenario: %v", err)
	}
	conns := s.Run(0)
	var buf bytes.Buffer
	w := capture.NewWriter(&buf)
	for _, c := range conns {
		if err := w.Write(c); err != nil {
			t.Fatalf("encode: %v", err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	return conns, buf.Bytes(), s.Geo
}

// classifyAll builds one aggregation record per connection, serially
// and in input order.
func classifyAll(conns []*capture.Connection, db *GeoDB) []analysis.Record {
	cl := core.NewClassifier(core.DefaultConfig())
	recs := make([]analysis.Record, len(conns))
	for i, c := range conns {
		recs[i] = analysis.NewRecord(c, db, cl.Classify(c))
	}
	return recs
}

// TestStreamAnalyzeMatchesBatch proves the public one-pass entry point
// reproduces a serial Add over every record exactly, at every worker
// count: the aggregators are pure functions of the record multiset, so
// the worker assignment cannot change the result.
func TestStreamAnalyzeMatchesBatch(t *testing.T) {
	conns, data, db := streamAnalyzeCapture(t)

	want := AggMulti{NewStageStatsAgg(), NewSignatureByCountryAgg()}
	for _, rec := range classifyAll(conns, db) {
		want.Add(&rec)
	}
	wantStages := want[0].(*StageStatsAgg).Stats()
	wantSigs := want[1].(*SignatureByCountryAgg).Table()

	for _, workers := range []int{1, 4} {
		agg, counts, err := StreamAnalyze(context.Background(), bytes.NewReader(data),
			StreamConfig{Workers: workers}, db,
			func() Aggregator {
				return AggMulti{NewStageStatsAgg(), NewSignatureByCountryAgg()}
			})
		if err != nil {
			t.Fatalf("workers=%d: StreamAnalyze: %v", workers, err)
		}
		if counts.Classified != int64(len(conns)) {
			t.Errorf("workers=%d: classified %d of %d", workers, counts.Classified, len(conns))
		}
		m := agg.(AggMulti)
		if got := m[0].(*StageStatsAgg).Stats(); !reflect.DeepEqual(got, wantStages) {
			t.Errorf("workers=%d: stage stats diverge from batch\ngot  %+v\nwant %+v", workers, got, wantStages)
		}
		if got := m[1].(*SignatureByCountryAgg).Table(); !reflect.DeepEqual(got, wantSigs) {
			t.Errorf("workers=%d: signature-by-country diverges from batch", workers)
		}
	}
}

// TestStreamAnalyzeNilDB checks geography-free analysis works and the
// default worker count kicks in.
func TestStreamAnalyzeNilDB(t *testing.T) {
	conns, data, _ := streamAnalyzeCapture(t)
	agg, counts, err := StreamAnalyze(context.Background(), bytes.NewReader(data),
		StreamConfig{}, nil,
		func() Aggregator { return NewStageStatsAgg() })
	if err != nil {
		t.Fatalf("StreamAnalyze: %v", err)
	}
	if counts.Classified != int64(len(conns)) {
		t.Errorf("classified %d of %d", counts.Classified, len(conns))
	}
	stats := agg.(*StageStatsAgg).Stats()
	if stats.Total != len(conns) {
		t.Errorf("aggregated %d of %d records", stats.Total, len(conns))
	}
}
