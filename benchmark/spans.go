package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed interval of the ledger run. Spans are recorded from
// the benchmark's own files, around calls into each layer; nothing inside
// the program is instrumented.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0 = no parent
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Start    int64  `json:"start_ns"` // since the tracer's origin
	End      int64  `json:"end_ns"`
	Count    int    `json:"count"` // operations the interval covered
}

// spanLog keeps spans in memory until the run ends. It is used from one
// goroutine only.
type spanLog struct {
	origin time.Time
	spans  []span
}

func (l *spanLog) now() int64 { return int64(time.Since(l.origin)) }

// start opens a span and returns its ID.
func (l *spanLog) start(name, workload string, parent int) int {
	l.spans = append(l.spans, span{ID: len(l.spans) + 1, Parent: parent, Name: name, Workload: workload})
	s := &l.spans[len(l.spans)-1]
	s.Start = l.now()
	return s.ID
}

// end closes span id over count operations.
func (l *spanLog) end(id, count int) {
	now := l.now()
	s := &l.spans[id-1]
	s.End, s.Count = now, count
}

// add records an interval measured elsewhere (a subprocess timed by the
// orchestrator), given relative to the log's origin.
func (l *spanLog) add(name, workload string, parent int, start, end int64, count int) {
	l.spans = append(l.spans, span{ID: len(l.spans) + 1, Parent: parent, Name: name, Workload: workload,
		Start: start, End: end, Count: count})
}

// batchSize is how many operations one stage span covers, so that the two
// clock reads per span stay far below 1 % of what they time.
const batchSize = 1024

// batches times fn over [0, n) in batchSize-operation spans.
func (l *spanLog) batches(name, workload string, parent, n int, fn func(lo, hi int)) {
	for lo := 0; lo < n; lo += batchSize {
		hi := min(lo+batchSize, n)
		id := l.start(name, workload, parent)
		fn(lo, hi)
		l.end(id, hi-lo)
	}
}

// selfTimes returns, per span ID, the span's duration minus the part of
// its interval that its child spans cover (children may overlap each
// other and are clipped to the parent).
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// perOp returns the named stage's self time per operation in
// nanoseconds: within each parent (one repetition) the self times and the
// counts of the stage's spans are summed and divided, and the median over
// repetitions is reported, so one disturbed repetition does not move it.
func perOp(spans []span, self map[int]int64, name string) float64 {
	type acc struct{ ns, n int64 }
	reps := map[int]*acc{}
	for _, s := range spans {
		if s.Name != name || s.Count == 0 {
			continue
		}
		a := reps[s.Parent]
		if a == nil {
			a = &acc{}
			reps[s.Parent] = a
		}
		a.ns += self[s.ID]
		a.n += int64(s.Count)
	}
	var v []float64
	for _, a := range reps {
		v = append(v, float64(a.ns)/float64(a.n))
	}
	return median(v)
}

// spanDurations returns each named span's duration in nanoseconds.
func spanDurations(spans []span, name string) []float64 {
	var v []float64
	for _, s := range spans {
		if s.Name == name {
			v = append(v, float64(s.End-s.Start))
		}
	}
	return v
}

// write stores the spans as JSON.
func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(struct {
		Spans []span `json:"spans"`
	}{l.spans}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
