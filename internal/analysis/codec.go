package analysis

// Snapshot wire codec: every Aggregator serializes its internal state
// to a compact binary form and restores by *folding the decoded state
// into the receiver*, exactly as Merge folds another aggregator in.
// This is what carries the merge algebra over the wire: a PoP encodes
// its per-epoch aggregate, ships the bytes, and the merger restores
// them into the global aggregate — Restore(snapshot(x)) ≡ Merge(x),
// so associativity, commutativity, and multiset determinism transfer
// unchanged to the distributed rollup.
//
// Every table-backed aggregator encodes its construction parameter
// followed by its table (tableAgg in table.go), and the fixed-cell
// ones their cells; the evidence sketches, overlap observations and
// time span keep bespoke encodings below. Restoring is strict and
// bounded for untrusted input (see internal/wire): every count is
// validated against the bytes actually remaining, every enum index
// against its range, and construction parameters (bucket widths,
// thresholds, grade labels) must match the receiver's — the same
// compatibility contract Merge enforces. Aggregators carrying
// function-valued parameters (TimeSeriesAgg's predicates) serialize
// only their counts; the receiver keeps its own predicates, which is
// why restoring always targets an identically-constructed prototype.
//
// Encoding visits entries in sorted key order, so the same aggregator
// state always yields the same bytes (handy for tests and content
// hashing); decoding never depends on entry order.

import (
	"fmt"
	"net/netip"
	"slices"
	"sort"
	"strings"

	"tamperdetect/internal/core"
	"tamperdetect/internal/stats"
	"tamperdetect/internal/wire"
)

// Type tags, one per concrete Aggregator. Part of the wire format:
// never renumber or reuse, only append. Tags 1–7, 9, 10, 12 and 13
// named the encodings that preceded the count table (stored totals
// beside their counts); a frame or spill file written with them fails
// to restore with a tag mismatch instead of being misread.
const (
	tagEvidence           = 8
	tagOverlap            = 11
	tagMulti              = 14
	tagTimeSpan           = 15
	tagStageStats         = 16
	tagSignatureByCountry = 17
	tagCountryBySignature = 18
	tagASNView            = 19
	tagTimeSeries         = 20
	tagIPVersion          = 21
	tagProtocol           = 22
	tagScanner            = 23
	tagDomain             = 24
	tagStability          = 25
	tagRobustness         = 26
)

// Typed enum sizes as plain ints, for array loops and Len bounds.
const (
	numSigs   = int(core.NumSignatures)
	numStages = int(core.NumStages)
)

// Decode-side hard caps. Real limits come from wire.Decoder's
// remaining-input checks; these bound the worst case a maliciously
// large (but well-formed) frame could demand per collection.
const (
	maxSnapshotEntries = 1 << 22
	maxSnapshotString  = 1 << 12
)

// snapshotter is the codec every Aggregator in this package
// implements: its wire tag, its state encoding, and the decoder that
// folds an encoded state in.
type snapshotter interface {
	tag() byte
	appendSnapshot(b []byte) ([]byte, error)
	restoreSnapshot(d *wire.Decoder) error
}

// AppendSnapshot appends a's wire snapshot (tag + state) to b.
func AppendSnapshot(b []byte, a Aggregator) ([]byte, error) {
	s, ok := a.(snapshotter)
	if !ok {
		return b, fmt.Errorf("analysis: no snapshot codec for %T", a)
	}
	return s.appendSnapshot(append(b, s.tag()))
}

// RestoreSnapshot decodes one snapshot produced by AppendSnapshot and
// folds its state into into, which must be an identically-constructed
// aggregator (same concrete type and parameters — the Merge
// compatibility contract). The whole input must be consumed. On error
// into may be partially updated and must be discarded.
func RestoreSnapshot(data []byte, into Aggregator) error {
	d := wire.NewDecoder(data)
	if err := restoreInto(d, into); err != nil {
		return err
	}
	return d.Done()
}

// restoreInto decodes one tagged aggregator from d into into.
func restoreInto(d *wire.Decoder, into Aggregator) error {
	s, ok := into.(snapshotter)
	if !ok {
		return fmt.Errorf("analysis: no snapshot codec for %T", into)
	}
	tag := d.Uvarint()
	if err := d.Err(); err != nil {
		return err
	}
	if tag != uint64(s.tag()) {
		return fmt.Errorf("analysis: snapshot tag %d does not match receiver %T (tag %d)", tag, into, s.tag())
	}
	return s.restoreSnapshot(d)
}

// restoreParam decodes one construction parameter and requires it to
// equal the receiver's.
func restoreParam(d *wire.Decoder, name string, want int) error {
	got := d.Uvarint()
	if err := d.Err(); err != nil {
		return err
	}
	if got != uint64(want) {
		return paramMismatch(name, got, want)
	}
	return nil
}

// ---------------------------------------------------------------------
// Multi

func (m Multi) tag() byte { return tagMulti }

func (m Multi) appendSnapshot(b []byte) ([]byte, error) {
	b = wire.AppendUvarint(b, uint64(len(m)))
	var err error
	for _, el := range m {
		if b, err = AppendSnapshot(b, el); err != nil {
			return b, err
		}
	}
	return b, nil
}

func (m Multi) restoreSnapshot(d *wire.Decoder) error {
	n := d.Uvarint()
	if err := d.Err(); err != nil {
		return err
	}
	if n != uint64(len(m)) {
		return fmt.Errorf("analysis: snapshot Multi of %d into Multi of %d", n, len(m))
	}
	for i := range m {
		if err := restoreInto(d, m[i]); err != nil {
			return fmt.Errorf("analysis: Multi element %d: %w", i, err)
		}
	}
	return nil
}

// ---------------------------------------------------------------------
// fixed cells, and the table-backed aggregators with scalars beside the
// table (the rest take tableAgg's codec as is)

func (a *StageStatsAgg) tag() byte { return tagStageStats }

func (a *StageStatsAgg) appendSnapshot(b []byte) ([]byte, error) {
	return appendCells(b, a.c[:]), nil
}

func (a *StageStatsAgg) restoreSnapshot(d *wire.Decoder) error {
	return restoreCells(d, a.c[:])
}

func (a *RobustnessAgg) tag() byte { return tagRobustness }

func (a *RobustnessAgg) appendSnapshot(b []byte) ([]byte, error) {
	b = wire.AppendString(b, a.grade)
	b = wire.AppendFloat64(b, a.effectiveLoss)
	return appendCells(b, a.c[:]), nil
}

func (a *RobustnessAgg) restoreSnapshot(d *wire.Decoder) error {
	grade := d.String(maxSnapshotString)
	loss := d.Float64()
	if err := d.Err(); err != nil {
		return err
	}
	if grade != a.grade {
		return paramMismatch("grade", grade, a.grade)
	}
	if loss != a.effectiveLoss {
		return paramMismatch("effectiveLoss", loss, a.effectiveLoss)
	}
	return restoreCells(d, a.c[:])
}

func (a *ScannerAgg) appendSnapshot(b []byte) ([]byte, error) {
	for _, p := range a.counters() {
		b = wire.AppendVarint(b, int64(*p))
	}
	return a.tableAgg.appendSnapshot(b)
}

func (a *ScannerAgg) restoreSnapshot(d *wire.Decoder) error {
	for _, p := range a.counters() {
		*p += d.Int()
	}
	return a.tableAgg.restoreSnapshot(d)
}

func (a *StabilityAgg) appendSnapshot(b []byte) ([]byte, error) {
	b, err := a.tableAgg.appendSnapshot(b)
	return wire.AppendVarint(b, int64(a.span)), err
}

func (a *StabilityAgg) restoreSnapshot(d *wire.Decoder) error {
	if err := a.tableAgg.restoreSnapshot(d); err != nil {
		return err
	}
	a.span = max(a.span, d.Int())
	return d.Err()
}

// ---------------------------------------------------------------------
// bespoke encodings

// decodeSig reads a signature index and validates its range.
func decodeSig(d *wire.Decoder) (core.Signature, error) {
	v := d.Uvarint()
	if err := d.Err(); err != nil {
		return 0, err
	}
	if v >= uint64(numSigs) {
		return 0, fmt.Errorf("analysis: signature index %d out of range", v)
	}
	return core.Signature(v), nil
}

// appendSketchMap appends a per-signature sketch map in signature
// order, each sketch's entries sorted by (key, value).
func appendSketchMap(b []byte, m map[core.Signature]*stats.Sketch) []byte {
	sigs := make([]core.Signature, 0, len(m))
	for sig := range m {
		sigs = append(sigs, sig)
	}
	sort.Slice(sigs, func(i, j int) bool { return sigs[i] < sigs[j] })
	b = wire.AppendUvarint(b, uint64(len(sigs)))
	for _, sig := range sigs {
		s := m[sig]
		type kv struct {
			key uint64
			val float64
		}
		entries := make([]kv, 0, s.Len())
		s.Each(func(key uint64, val float64) { entries = append(entries, kv{key, val}) })
		sort.Slice(entries, func(i, j int) bool {
			if entries[i].key != entries[j].key {
				return entries[i].key < entries[j].key
			}
			return entries[i].val < entries[j].val
		})
		b = wire.AppendUvarint(b, uint64(sig))
		b = wire.AppendUvarint(b, uint64(len(entries)))
		for _, e := range entries {
			b = wire.AppendUvarint(b, e.key)
			b = wire.AppendFloat64(b, e.val)
		}
	}
	return b
}

// restoreSketchMap folds an encoded sketch map into m, creating
// sketches with capacity k.
func restoreSketchMap(d *wire.Decoder, m map[core.Signature]*stats.Sketch, k int) error {
	n := d.Len(numSigs, 2)
	for i := 0; i < n; i++ {
		sig, err := decodeSig(d)
		if err != nil {
			return err
		}
		cnt := d.Len(k, 9)
		if err := d.Err(); err != nil {
			return err
		}
		s := m[sig]
		if s == nil {
			s = stats.NewSketch(k)
			m[sig] = s
		}
		for j := 0; j < cnt; j++ {
			key := d.Uvarint()
			val := d.Float64()
			if err := d.Err(); err != nil {
				return err
			}
			s.Add(key, val)
		}
	}
	return d.Err()
}

func (a *EvidenceAgg) tag() byte { return tagEvidence }

func (a *EvidenceAgg) appendSnapshot(b []byte) ([]byte, error) {
	b = wire.AppendUvarint(b, uint64(a.capPerSig))
	b = appendSketchMap(b, a.ipid)
	return appendSketchMap(b, a.ttl), nil
}

func (a *EvidenceAgg) restoreSnapshot(d *wire.Decoder) error {
	if err := restoreParam(d, "capPerSig", a.capPerSig); err != nil {
		return err
	}
	if err := restoreSketchMap(d, a.ipid, a.capPerSig); err != nil {
		return err
	}
	return restoreSketchMap(d, a.ttl, a.capPerSig)
}

func (a *OverlapAgg) tag() byte { return tagOverlap }

func (a *OverlapAgg) appendSnapshot(b []byte) ([]byte, error) {
	// The sorted log holds each pair's observations as one run in the
	// canonical (time, signature) order, so the frame is a pure
	// function of the observation multiset. Pairs are listed by the
	// address text the frame carries, then by domain — not by Addr
	// order — so entries appear in the order of their encoded bytes.
	a.sortLog()
	type run struct {
		src        string
		start, end int
	}
	var runs []run
	src := ""
	for i := 0; i < len(a.log); {
		j := i + 1
		for j < len(a.log) && samePair(&a.log[i], &a.log[j]) {
			j++
		}
		if i == 0 || a.log[i].src != a.log[i-1].src {
			src = addrText(a.log[i].src)
		}
		runs = append(runs, run{src, i, j})
		i = j
	}
	slices.SortFunc(runs, func(x, y run) int {
		if c := strings.Compare(x.src, y.src); c != 0 {
			return c
		}
		return strings.Compare(a.log[x.start].domain, a.log[y.start].domain)
	})
	b = wire.AppendUvarint(b, uint64(len(runs)))
	for _, r := range runs {
		b = wire.AppendString(b, r.src)
		b = wire.AppendString(b, a.log[r.start].domain)
		b = wire.AppendUvarint(b, uint64(r.end-r.start))
		for _, o := range a.log[r.start:r.end] {
			b = wire.AppendVarint(b, o.time)
			b = wire.AppendUvarint(b, uint64(o.sig))
		}
	}
	return b, nil
}

func (a *OverlapAgg) restoreSnapshot(d *wire.Decoder) error {
	n := d.Len(maxSnapshotEntries, 5)
	for i := 0; i < n; i++ {
		text := d.String(maxSnapshotString)
		domain := d.String(maxSnapshotString)
		cnt := d.Len(maxSnapshotEntries, 2)
		if err := d.Err(); err != nil {
			return err
		}
		src, err := parseAddrText(text)
		if err != nil {
			return err
		}
		for j := 0; j < cnt; j++ {
			t := d.Varint()
			sig, err := decodeSig(d)
			if err != nil {
				return err
			}
			if !onAxis[sig] {
				return fmt.Errorf("analysis: overlap snapshot carries off-axis signature %v", sig)
			}
			a.log = append(a.log, overlapObs{src: src, domain: domain, time: t, sig: sig})
		}
	}
	return d.Err()
}

// addrText is a client address's wire text: its canonical form, or ""
// for the zero Addr.
func addrText(a netip.Addr) string {
	if !a.IsValid() {
		return ""
	}
	return a.String()
}

// parseAddrText inverts addrText and accepts nothing else. Besides
// text that is no address at all ("010.0.0.1"), that rejects text that
// parses but prints differently ("2001:0db8::1"), which would restore
// a pair that re-encodes to other bytes.
func parseAddrText(s string) (netip.Addr, error) {
	if s == "" {
		return netip.Addr{}, nil
	}
	a, err := netip.ParseAddr(s)
	if err != nil || a.String() != s {
		return netip.Addr{}, fmt.Errorf("analysis: overlap snapshot carries non-canonical address %q", s)
	}
	return a, nil
}

func (a *TimeSpanAgg) tag() byte { return tagTimeSpan }

func (a *TimeSpanAgg) appendSnapshot(b []byte) ([]byte, error) {
	b = wire.AppendVarint(b, int64(a.total))
	keys := a.sortedTimes()
	b = wire.AppendUvarint(b, uint64(len(keys)))
	prev := int64(0)
	for i, t := range keys {
		// First second absolute (signed), the rest as the gap from the
		// previous one — sorted order makes every gap non-negative.
		if i == 0 {
			b = wire.AppendVarint(b, t)
		} else {
			b = wire.AppendUvarint(b, uint64(t-prev))
		}
		prev = t
		b = wire.AppendVarint(b, int64(a.secs[t]))
	}
	return b, nil
}

// maxTimeDelta bounds the gap between consecutive snapshot seconds;
// anything past ~136 years of virtual time is a corrupt frame, and
// the bound keeps the running sum from overflowing.
const maxTimeDelta = int64(1) << 32

func (a *TimeSpanAgg) restoreSnapshot(d *wire.Decoder) error {
	a.total += d.Int()
	n := d.Len(maxSnapshotEntries, 2)
	prev := int64(0)
	for i := 0; i < n; i++ {
		if i == 0 {
			prev = d.Varint()
		} else {
			gap := d.Uvarint()
			if gap == 0 || int64(gap) > maxTimeDelta {
				return fmt.Errorf("analysis: time-span snapshot gap %d out of range", gap)
			}
			prev += int64(gap)
		}
		cnt := d.Int()
		if err := d.Err(); err != nil {
			return err
		}
		if cnt <= 0 {
			return fmt.Errorf("analysis: time-span snapshot count %d for second %d", cnt, prev)
		}
		a.secs[prev] += cnt
	}
	return d.Err()
}
