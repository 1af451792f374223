package fleet

import (
	"bytes"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// TestMergerIdempotent: re-ingesting the same frame — the ACK-lost
// retransmission — changes nothing, not the report and not the
// pipeline counts.
func TestMergerIdempotent(t *testing.T) {
	pops, _ := fleetDataset(t)
	m := newTestMerger(t, nil)
	frames := popFrames(t, "pop00", pops[0])

	for _, f := range frames {
		env, err := DecodeEnvelope(f)
		if err != nil {
			t.Fatal(err)
		}
		if st, err := m.Ingest(env); err != nil || st != StatusAccepted {
			t.Fatalf("first ingest = %v, %v", st, err)
		}
	}
	report := m.ReportBody()
	countsBefore := m.Status().Counts

	for round := 0; round < 3; round++ {
		for _, f := range frames {
			env, _ := DecodeEnvelope(f)
			if st, err := m.Ingest(env); err != nil || st != StatusDuplicate {
				t.Fatalf("replay ingest = %v, %v", st, err)
			}
		}
	}
	if got := m.ReportBody(); got != report {
		t.Errorf("replay changed the report at %s", firstDiff(got, report))
	}
	if got := m.Status().Counts; got != countsBefore {
		t.Errorf("replay changed pipeline counts: %+v vs %+v", got, countsBefore)
	}
	st := m.Stats()
	if st.Accepted != int64(len(frames)) || st.Duplicates != int64(3*len(frames)) {
		t.Errorf("stats = %+v", st)
	}
}

// TestMergerOrderAndDuplicationInvariance is the distributed version
// of the algebra's multiset-determinism property: any arrival order of
// any frame multiset with any duplicate pattern yields byte-identical
// reports, equal to the single-process render.
func TestMergerOrderAndDuplicationInvariance(t *testing.T) {
	pops, want := fleetDataset(t)
	var frames [][]byte
	for pop := range pops {
		frames = append(frames, popFrames(t, "pop"+itoa(pop), pops[pop])...)
	}

	for trial := 0; trial < 4; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		order := rng.Perm(len(frames))
		m := newTestMerger(t, nil)
		for _, i := range order {
			env, err := DecodeEnvelope(frames[i])
			if err != nil {
				t.Fatal(err)
			}
			if _, err := m.Ingest(env); err != nil {
				t.Fatal(err)
			}
			// Random duplicate injection mid-stream.
			if rng.Float64() < 0.3 {
				dup := order[rng.Intn(len(order))]
				env, _ := DecodeEnvelope(frames[dup])
				if _, err := m.Ingest(env); err != nil {
					t.Fatal(err)
				}
			}
		}
		if got := m.ReportBody(); got != want {
			t.Fatalf("trial %d: merged report diverges from single-process at %s",
				trial, firstDiff(got, want))
		}
	}
}

// TestMergerEpochClose covers both close policies: quorum and
// deadline, with both straggler treatments.
func TestMergerEpochClose(t *testing.T) {
	pops, _ := fleetDataset(t)
	frameFor := func(pop int) *Envelope {
		frames := popFrames(t, "pop"+itoa(pop), pops[pop])
		env, err := DecodeEnvelope(frames[0]) // epoch 0
		if err != nil {
			t.Fatal(err)
		}
		return env
	}

	t.Run("quorum+merge", func(t *testing.T) {
		m := newTestMerger(t, func(c *MergerConfig) { c.Quorum = 2 })
		for pop := 0; pop < 2; pop++ {
			if st, _ := m.Ingest(frameFor(pop)); st != StatusAccepted {
				t.Fatalf("pop %d: %v", pop, st)
			}
		}
		if st, _ := m.Ingest(frameFor(2)); st != StatusLate {
			t.Errorf("straggler after quorum = %v, want late", st)
		}
		if got := m.Stats().LateMerged; got != 1 {
			t.Errorf("LateMerged = %d", got)
		}
	})

	t.Run("quorum+drop", func(t *testing.T) {
		m := newTestMerger(t, func(c *MergerConfig) { c.Quorum = 2; c.Late = LateDrop })
		for pop := 0; pop < 2; pop++ {
			m.Ingest(frameFor(pop))
		}
		report := m.ReportBody()
		if st, _ := m.Ingest(frameFor(2)); st != StatusDropped {
			t.Errorf("straggler = %v, want dropped", st)
		}
		if got := m.ReportBody(); got != report {
			t.Error("dropped frame changed the report")
		}
		if got := m.Stats().LateDropped; got != 1 {
			t.Errorf("LateDropped = %d", got)
		}
	})

	t.Run("deadline", func(t *testing.T) {
		now := time.Unix(1000, 0)
		m := newTestMerger(t, func(c *MergerConfig) {
			c.EpochDeadline = 10 * time.Minute
			c.Now = func() time.Time { return now }
		})
		if st, _ := m.Ingest(frameFor(0)); st != StatusAccepted {
			t.Fatal("first frame not accepted")
		}
		now = now.Add(11 * time.Minute)
		if st, _ := m.Ingest(frameFor(1)); st != StatusLate {
			t.Errorf("post-deadline frame = %v, want late", st)
		}
		epochs := m.Status().Epochs
		if len(epochs) != 1 || !epochs[0].Closed {
			t.Errorf("epoch status = %+v", epochs)
		}
	})
}

// TestMergerRejectsCorruptPayload: a frame with a valid envelope but a
// broken payload must fail without touching global state.
func TestMergerRejectsCorruptPayload(t *testing.T) {
	pops, _ := fleetDataset(t)
	m := newTestMerger(t, nil)
	frames := popFrames(t, "pop00", pops[0])
	env, err := DecodeEnvelope(frames[0])
	if err != nil {
		t.Fatal(err)
	}
	good := m.ReportBody()

	bad := *env
	bad.Payload = env.Payload[:len(env.Payload)/2]
	if _, err := m.Ingest(&bad); err == nil {
		t.Fatal("corrupt payload accepted")
	}
	if got := m.ReportBody(); got != good {
		t.Error("rejected frame changed the report")
	}
	if got := m.Stats().Rejected; got != 1 {
		t.Errorf("Rejected = %d", got)
	}
	// The intact original must still be mergeable afterwards.
	if st, err := m.Ingest(env); err != nil || st != StatusAccepted {
		t.Errorf("intact retry after reject = %v, %v", st, err)
	}
}

// TestMergerLiveness: PoPs go stale when silent past StaleAfter.
func TestMergerLiveness(t *testing.T) {
	pops, _ := fleetDataset(t)
	now := time.Unix(5000, 0)
	m := newTestMerger(t, func(c *MergerConfig) {
		c.StaleAfter = time.Minute
		c.Now = func() time.Time { return now }
	})
	frames := popFrames(t, "ams01", pops[0])
	env, _ := DecodeEnvelope(frames[0])
	m.Ingest(env)

	st := m.Status()
	if len(st.PoPs) != 1 || st.PoPs[0].Stale {
		t.Fatalf("fresh pop status = %+v", st.PoPs)
	}
	now = now.Add(2 * time.Minute)
	st = m.Status()
	if !st.PoPs[0].Stale {
		t.Errorf("silent pop not marked stale: %+v", st.PoPs[0])
	}
}

// TestMergerPushStatus: every strict prefix of a frame — a body cut
// short in transit — answers 408, which the Pusher retries; a frame
// whose own bytes are bad answers 400, which it does not.
func TestMergerPushStatus(t *testing.T) {
	pops, _ := fleetDataset(t)
	frame := popFrames(t, "pop00", pops[0])[0]
	m := newTestMerger(t, nil)
	push := m.Handler()["/v1/push"]
	post := func(body []byte) int {
		w := httptest.NewRecorder()
		push.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/push", bytes.NewReader(body)))
		return w.Code
	}
	for n := 1; n < len(frame); n += 1 + n/8 {
		if code := post(frame[:n]); code != http.StatusRequestTimeout {
			t.Fatalf("%d-byte prefix of a %d-byte frame: status %d, want 408", n, len(frame), code)
		}
	}
	bad := bytes.Replace(frame, []byte(magic), []byte("XXXXXX"), 1)
	if code := post(bad); code != http.StatusBadRequest {
		t.Errorf("bad magic: status %d, want 400", code)
	}
	if code := post(append(append([]byte(nil), frame...), 0)); code != http.StatusBadRequest {
		t.Errorf("trailing byte: status %d, want 400", code)
	}
	if code := post(frame); code != http.StatusOK {
		t.Errorf("intact frame: status %d, want 200", code)
	}
}
