package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"tamperdetect/internal/analysis"
	"tamperdetect/internal/pipeline"
	"tamperdetect/internal/telemetry"
	"tamperdetect/internal/trace"
	"tamperdetect/internal/wire"
)

// Merge-side span names. Both adopt the trace context carried by a v3
// frame, so the pusher's epoch span and these appear in one trace.
const (
	// SpanFleetValidate covers restoring the frame's payload into a
	// throwaway prototype (the reject-before-merge gate).
	SpanFleetValidate = "fleet.validate"
	// SpanFleetMerge covers folding the validated aggregate into the
	// global report under the merger lock.
	SpanFleetMerge = "fleet.merge"
)

// PushStatus is the merger's verdict on one frame. Every verdict is a
// protocol-level success (HTTP 200): the client must not retry any of
// them, because retrying is exactly what dedup makes harmless but
// pointless.
type PushStatus string

const (
	// StatusAccepted: a new (pop, epoch) frame, merged into the report.
	StatusAccepted PushStatus = "accepted"
	// StatusDuplicate: (pop, epoch) already merged — the frame changed
	// nothing. This is what an ACK-lost retransmission gets.
	StatusDuplicate PushStatus = "duplicate"
	// StatusLate: the epoch had already closed; the frame was merged
	// anyway (LateMerge policy) and surfaced in the status report.
	StatusLate PushStatus = "late"
	// StatusDropped: the epoch had already closed and the LateDrop
	// policy discarded the frame (also surfaced, never an error).
	StatusDropped PushStatus = "dropped"
)

// LatePolicy selects what happens to a frame for an already-closed
// epoch.
type LatePolicy int

const (
	// LateMerge folds stragglers in anyway — the report stays a pure
	// function of every distinct frame ever received (the chaos parity
	// gate depends on this being the default).
	LateMerge LatePolicy = iota
	// LateDrop discards stragglers, trading completeness for epoch
	// finality; drops are counted and visible in Status.
	LateDrop
)

// MergerConfig configures a Merger. Fresh is required and must build
// the same aggregator set the PoPs encode (NewFleetAggs on both sides).
type MergerConfig struct {
	Fresh func() analysis.Multi
	// Quorum closes an epoch once this many distinct PoPs have
	// contributed to it; 0 means epochs never close by quorum.
	Quorum int
	// EpochDeadline closes an epoch this long after its first frame
	// arrived; 0 means epochs never close by deadline.
	EpochDeadline time.Duration
	// Late selects the closed-epoch policy (default LateMerge).
	Late LatePolicy
	// StaleAfter marks a PoP stale in Status when it has not pushed
	// for this long (default 5 minutes).
	StaleAfter time.Duration
	// Now is the clock, injectable for tests (default time.Now).
	Now func() time.Time
	// Tracer, when non-nil, records fleet.validate / fleet.merge spans
	// for every ingested frame. Spans adopt the frame's TraceContext
	// when it carries one (v3), so the pusher's epoch span and the
	// merge-side spans share a trace; v1/v2 frames fall back to the
	// merger's own trace ID. Rejected frames leave an event in the
	// tracer's flight recorder.
	Tracer *trace.Tracer
}

// MergerStats counts frame verdicts plus rejects (undecodable frames).
type MergerStats struct {
	Accepted    int64
	Duplicates  int64
	LateMerged  int64
	LateDropped int64
	Rejected    int64
}

// PoPStatus is one PoP's liveness row.
type PoPStatus struct {
	PoP       string    `json:"pop"`
	LastSeen  time.Time `json:"last_seen"`
	LastEpoch uint64    `json:"last_epoch"`
	Frames    int64     `json:"frames"`
	Stale     bool      `json:"stale"`
}

// EpochStatus is one epoch's progress row.
type EpochStatus struct {
	Epoch  uint64 `json:"epoch"`
	PoPs   int    `json:"pops"`
	Closed bool   `json:"closed"`
}

// Status is the merger's introspection snapshot (served at /v1/status).
type Status struct {
	Stats  MergerStats     `json:"stats"`
	Counts pipeline.Counts `json:"pipeline_counts"`
	PoPs   []PoPStatus     `json:"pops"`
	Epochs []EpochStatus   `json:"epochs"`
}

type popEpoch struct {
	pop   string
	epoch uint64
}

type epochState struct {
	pops    map[string]bool
	firstAt time.Time
	closed  bool
}

type popState struct {
	lastSeen  time.Time
	lastEpoch uint64
	frames    int64
}

// Merger is the epoch-idempotent heart of popmerge. All state sits
// behind one mutex: pushes are rare (one per PoP per epoch) and the
// global aggregate must merge serially anyway.
type Merger struct {
	cfg MergerConfig

	mu     sync.Mutex
	agg    analysis.Multi
	counts pipeline.Counts
	seen   map[popEpoch]bool
	epochs map[uint64]*epochState
	pops   map[string]*popState
	stats  MergerStats
}

// NewMerger builds a merger around cfg.Fresh.
func NewMerger(cfg MergerConfig) (*Merger, error) {
	if cfg.Fresh == nil {
		return nil, errors.New("fleet: MergerConfig.Fresh is required")
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.StaleAfter == 0 {
		cfg.StaleAfter = 5 * time.Minute
	}
	return &Merger{
		cfg:    cfg,
		agg:    cfg.Fresh(),
		seen:   map[popEpoch]bool{},
		epochs: map[uint64]*epochState{},
		pops:   map[string]*popState{},
	}, nil
}

// Ingest validates and merges one decoded frame. The payload is
// restored into a throwaway prototype first, so a corrupt or
// parameter-drifted frame returns an error without touching global
// state; only a fully-validated aggregate is merged. Duplicate
// (pop, epoch) frames are acknowledged and ignored — re-pushing after
// a lost ACK is a no-op by construction.
func (m *Merger) Ingest(env *Envelope) (PushStatus, error) {
	tmp := m.cfg.Fresh()
	valStart := time.Now().UnixNano()
	if err := analysis.RestoreSnapshot(env.Payload, tmp); err != nil {
		m.mu.Lock()
		m.stats.Rejected++
		m.mu.Unlock()
		m.cfg.Tracer.Flight().Record("ERROR", "fleet frame rejected",
			trace.A("pop", env.PoP), trace.A("epoch", env.Epoch), trace.A("err", err))
		return "", fmt.Errorf("fleet: restore %s/%d: %w", env.PoP, env.Epoch, err)
	}
	m.emitSpan(SpanFleetValidate, env, valStart, time.Now().UnixNano())

	mrgStart := time.Now().UnixNano()
	defer func() { m.emitSpan(SpanFleetMerge, env, mrgStart, time.Now().UnixNano()) }()
	m.mu.Lock()
	defer m.mu.Unlock()
	now := m.cfg.Now()
	m.closeExpiredLocked(now)

	ps := m.pops[env.PoP]
	if ps == nil {
		ps = &popState{}
		m.pops[env.PoP] = ps
	}
	ps.lastSeen = now
	ps.frames++
	if env.Epoch > ps.lastEpoch {
		ps.lastEpoch = env.Epoch
	}

	key := popEpoch{pop: env.PoP, epoch: env.Epoch}
	if m.seen[key] {
		m.stats.Duplicates++
		return StatusDuplicate, nil
	}

	es := m.epochs[env.Epoch]
	if es == nil {
		es = &epochState{pops: map[string]bool{}, firstAt: now}
		m.epochs[env.Epoch] = es
	}
	late := es.closed
	if late && m.cfg.Late == LateDrop {
		// Dropped frames stay unseen: should the operator relax the
		// policy, a retransmission could still land.
		m.stats.LateDropped++
		return StatusDropped, nil
	}

	if err := m.agg.Merge(tmp); err != nil {
		// Unreachable when both sides share Fresh, but never corrupt
		// the global state silently.
		m.stats.Rejected++
		m.cfg.Tracer.Flight().Record("ERROR", "fleet merge failed",
			trace.A("pop", env.PoP), trace.A("epoch", env.Epoch), trace.A("err", err))
		return "", fmt.Errorf("fleet: merge %s/%d: %w", env.PoP, env.Epoch, err)
	}
	m.counts = m.counts.Add(env.Counts)
	m.seen[key] = true
	es.pops[env.PoP] = true
	if !es.closed && m.cfg.Quorum > 0 && len(es.pops) >= m.cfg.Quorum {
		es.closed = true
	}
	if late {
		m.stats.LateMerged++
		return StatusLate, nil
	}
	m.stats.Accepted++
	return StatusAccepted, nil
}

// emitSpan records one merge-side span on the shared ring, continuing
// the frame's trace when it carries one and parenting to the pusher's
// epoch span.
func (m *Merger) emitSpan(name string, env *Envelope, start, end int64) {
	t := m.cfg.Tracer
	if t == nil {
		return
	}
	traceID := env.Trace.TraceID
	if traceID == 0 {
		traceID = t.TraceID()
	}
	t.EmitShared(trace.SpanRec{
		TraceID: traceID, SpanID: t.NewSpanID(), Parent: env.Trace.SpanID,
		NameID: t.NameID(name), Start: start, Dur: end - start,
		Worker: -1, Shard: -1, Record: -1, Count: 1,
	})
}

// closeExpiredLocked applies the deadline policy lazily: any open
// epoch whose first frame is older than EpochDeadline closes now.
func (m *Merger) closeExpiredLocked(now time.Time) {
	if m.cfg.EpochDeadline <= 0 {
		return
	}
	for _, es := range m.epochs {
		if !es.closed && now.Sub(es.firstAt) >= m.cfg.EpochDeadline {
			es.closed = true
		}
	}
}

// ReportBody renders the continuously-updated global paper report —
// byte-comparable with analysis.RenderFleetReport over a
// single-process aggregate of the same records.
func (m *Merger) ReportBody() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return analysis.RenderFleetReport(m.agg)
}

// Stats returns the verdict counters.
func (m *Merger) Stats() MergerStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// Status returns the introspection snapshot, PoPs and epochs sorted.
func (m *Merger) Status() Status {
	m.mu.Lock()
	defer m.mu.Unlock()
	now := m.cfg.Now()
	m.closeExpiredLocked(now)
	st := Status{Stats: m.stats, Counts: m.counts}
	for pop, ps := range m.pops {
		st.PoPs = append(st.PoPs, PoPStatus{
			PoP:       pop,
			LastSeen:  ps.lastSeen,
			LastEpoch: ps.lastEpoch,
			Frames:    ps.frames,
			Stale:     now.Sub(ps.lastSeen) > m.cfg.StaleAfter,
		})
	}
	sort.Slice(st.PoPs, func(i, j int) bool { return st.PoPs[i].PoP < st.PoPs[j].PoP })
	for epoch, es := range m.epochs {
		st.Epochs = append(st.Epochs, EpochStatus{Epoch: epoch, PoPs: len(es.pops), Closed: es.closed})
	}
	sort.Slice(st.Epochs, func(i, j int) bool { return st.Epochs[i].Epoch < st.Epochs[j].Epoch })
	return st
}

// RegisterMetrics exposes the merger's counters on reg.
func (m *Merger) RegisterMetrics(reg *telemetry.Registry) {
	stat := func(f func(MergerStats) int64) func() int64 {
		return func() int64 { return f(m.Stats()) }
	}
	reg.CounterFunc("tamperdetect_fleet_frames_total", telemetry.Label("verdict", "accepted"),
		"Fleet frames merged as new (pop, epoch) deltas.",
		stat(func(s MergerStats) int64 { return s.Accepted }))
	reg.CounterFunc("tamperdetect_fleet_frames_total", telemetry.Label("verdict", "duplicate"),
		"Fleet frames deduplicated by (pop, epoch).",
		stat(func(s MergerStats) int64 { return s.Duplicates }))
	reg.CounterFunc("tamperdetect_fleet_frames_total", telemetry.Label("verdict", "late_merged"),
		"Fleet frames merged after their epoch closed.",
		stat(func(s MergerStats) int64 { return s.LateMerged }))
	reg.CounterFunc("tamperdetect_fleet_frames_total", telemetry.Label("verdict", "late_dropped"),
		"Fleet frames dropped after their epoch closed.",
		stat(func(s MergerStats) int64 { return s.LateDropped }))
	reg.CounterFunc("tamperdetect_fleet_frames_total", telemetry.Label("verdict", "rejected"),
		"Fleet frames rejected as undecodable or incompatible.",
		stat(func(s MergerStats) int64 { return s.Rejected }))
	reg.GaugeFunc("tamperdetect_fleet_pops", "",
		"Distinct PoPs that have ever pushed a frame.",
		func() int64 { return int64(len(m.Status().PoPs)) })
}

// Handler returns the merge service's HTTP API:
//
//	POST /v1/push   one EncodeSnapshot frame; replies {"status": ...}
//	GET  /report    the global paper report (plain text)
//	GET  /v1/status liveness + epoch progress (JSON)
//
// Mount it alongside the telemetry endpoints via
// telemetry.NewServerWith.
func (m *Merger) Handler() map[string]http.Handler {
	return map[string]http.Handler{
		"/v1/push":   http.HandlerFunc(m.handlePush),
		"/report":    http.HandlerFunc(m.handleReport),
		"/v1/status": http.HandlerFunc(m.handleStatus),
	}
}

func (m *Merger) handlePush(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxFrameBytes))
	if err != nil {
		m.mu.Lock()
		m.stats.Rejected++
		m.mu.Unlock()
		http.Error(w, "read: "+err.Error(), http.StatusBadRequest)
		return
	}
	env, err := DecodeEnvelope(body)
	if err != nil {
		m.mu.Lock()
		m.stats.Rejected++
		m.mu.Unlock()
		m.cfg.Tracer.Flight().Record("ERROR", "fleet frame undecodable", trace.A("err", err))
		// A body that ends before its frame does did not arrive whole,
		// so the client may send it again: 408, which the Pusher
		// retries. Any other defect is in the frame's own bytes and
		// recurs on every resend: 400, which it does not.
		status := http.StatusBadRequest
		if errors.Is(err, wire.ErrTruncated) {
			status = http.StatusRequestTimeout
		}
		http.Error(w, err.Error(), status)
		return
	}
	status, err := m.Ingest(env)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]string{"status": string(status)})
}

func (m *Merger) handleReport(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, m.ReportBody())
}

func (m *Merger) handleStatus(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(m.Status())
}
