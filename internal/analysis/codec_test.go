package analysis

// Codec suite: the snapshot wire format must carry the merge algebra
// exactly — Restore(snapshot(x)) behaves as Merge(x), encoding is
// byte-deterministic regardless of insertion order, and decoding
// rejects truncation, parameter drift, and type confusion without
// ever panicking.

import (
	"bytes"
	"encoding/hex"
	"net/netip"
	"os"
	"strings"
	"testing"

	"tamperdetect/internal/core"
	"tamperdetect/internal/stats"
	"tamperdetect/internal/wire"
)

// snapshotOf encodes a or fails the test.
func snapshotOf(t testing.TB, a Aggregator) []byte {
	t.Helper()
	b, err := AppendSnapshot(nil, a)
	if err != nil {
		t.Fatalf("AppendSnapshot: %v", err)
	}
	return b
}

// TestSnapshotRoundTripParity feeds the full dataset into the complete
// paper aggregator surface, ships it through the codec, and requires
// the restored render to be byte-identical — and the re-encoded bytes
// to match, proving the state (not just the render) survived exactly.
func TestSnapshotRoundTripParity(t *testing.T) {
	_, recs, scen := dataset(t)
	src := parityAggs()
	for i := range recs {
		src.Add(&recs[i])
	}
	want := renderAggs(src, scen)
	frame := snapshotOf(t, src)

	restored := parityAggs()
	if err := RestoreSnapshot(frame, restored); err != nil {
		t.Fatalf("RestoreSnapshot: %v", err)
	}
	if got := renderAggs(restored, scen); got != want {
		t.Errorf("restored render diverges at %s", firstDiff(got, want))
	}
	if re := snapshotOf(t, restored); !bytes.Equal(re, frame) {
		t.Errorf("re-encoded snapshot differs: %d vs %d bytes", len(re), len(frame))
	}
}

// TestSnapshotRestoreIsMerge checks the codec's defining property:
// restoring a snapshot into a non-empty aggregator folds state in
// exactly as Merge would.
func TestSnapshotRestoreIsMerge(t *testing.T) {
	_, recs, scen := dataset(t)
	half := len(recs) / 2

	all := parityAggs()
	for i := range recs {
		all.Add(&recs[i])
	}
	want := renderAggs(all, scen)

	first, second := parityAggs(), parityAggs()
	for i := range recs[:half] {
		first.Add(&recs[i])
	}
	for i := half; i < len(recs); i++ {
		second.Add(&recs[i])
	}
	if err := RestoreSnapshot(snapshotOf(t, second), first); err != nil {
		t.Fatalf("RestoreSnapshot into non-empty: %v", err)
	}
	if got := renderAggs(first, scen); got != want {
		t.Errorf("restore-as-merge render diverges at %s", firstDiff(got, want))
	}
}

// TestSnapshotEncodingOrderInsensitive builds the same state in
// forward and reverse record order and requires identical bytes —
// sorted-key encoding makes the frame a pure function of the state.
func TestSnapshotEncodingOrderInsensitive(t *testing.T) {
	_, recs, _ := dataset(t)
	fwd, rev := parityAggs(), parityAggs()
	for i := range recs {
		fwd.Add(&recs[i])
	}
	for i := len(recs) - 1; i >= 0; i-- {
		rev.Add(&recs[i])
	}
	if !bytes.Equal(snapshotOf(t, fwd), snapshotOf(t, rev)) {
		t.Error("snapshot bytes depend on insertion order")
	}
}

// TestSnapshotRobustnessAgg round-trips the one aggregator outside the
// parity set, including its grade/loss parameter checks.
func TestSnapshotRobustnessAgg(t *testing.T) {
	_, recs, _ := dataset(t)
	src := NewRobustnessAgg("lossy", 0.02)
	for i := range recs[:500] {
		src.Add(&recs[i])
	}
	frame := snapshotOf(t, src)

	dst := NewRobustnessAgg("lossy", 0.02)
	if err := RestoreSnapshot(frame, dst); err != nil {
		t.Fatalf("RestoreSnapshot: %v", err)
	}
	if !bytes.Equal(snapshotOf(t, dst), frame) {
		t.Error("robustness round trip not exact")
	}
	if err := RestoreSnapshot(frame, NewRobustnessAgg("hostile", 0.02)); err == nil {
		t.Error("grade mismatch accepted")
	}
	if err := RestoreSnapshot(frame, NewRobustnessAgg("lossy", 0.5)); err == nil {
		t.Error("effectiveLoss mismatch accepted")
	}
}

// TestSnapshotParameterMismatch: construction parameters are part of
// the Merge compatibility contract and must be enforced on restore.
func TestSnapshotParameterMismatch(t *testing.T) {
	_, recs, _ := dataset(t)
	cases := []struct {
		name     string
		src, dst Aggregator
	}{
		{"bucketHours", NewTimeSeriesAgg(4, nil, AnySignatureMatch), NewTimeSeriesAgg(8, nil, AnySignatureMatch)},
		{"minPerVersion", NewIPVersionAgg(50), NewIPVersionAgg(10)},
		{"minPerProto", NewProtocolAgg(30), NewProtocolAgg(10)},
		{"capPerSig", NewEvidenceAgg(1000), NewEvidenceAgg(100)},
		{"minPerHalf", NewStabilityAgg(30), NewStabilityAgg(10)},
		{"type", NewStageStatsAgg(), NewScannerAgg()},
		{"multiLen", Multi{NewStageStatsAgg(), NewScannerAgg()}, Multi{NewStageStatsAgg()}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for i := range recs[:200] {
				tc.src.Add(&recs[i])
			}
			if err := RestoreSnapshot(snapshotOf(t, tc.src), tc.dst); err == nil {
				t.Errorf("%s mismatch accepted", tc.name)
			}
		})
	}
}

// TestSnapshotTruncation cuts a small frame at every byte boundary; no
// prefix may decode cleanly or panic.
func TestSnapshotTruncation(t *testing.T) {
	_, recs, _ := dataset(t)
	src := Multi{NewStageStatsAgg(), NewSignatureByCountryAgg(), NewScannerAgg()}
	for i := range recs[:50] {
		src.Add(&recs[i])
	}
	frame := snapshotOf(t, src)
	for cut := 0; cut < len(frame); cut++ {
		dst := Multi{NewStageStatsAgg(), NewSignatureByCountryAgg(), NewScannerAgg()}
		if err := RestoreSnapshot(frame[:cut], dst); err == nil {
			t.Fatalf("cut=%d: truncated snapshot decoded cleanly", cut)
		}
	}
	// Trailing garbage after a complete frame is rejected too.
	dst := Multi{NewStageStatsAgg(), NewSignatureByCountryAgg(), NewScannerAgg()}
	if err := RestoreSnapshot(append(append([]byte(nil), frame...), 0xFF), dst); err == nil {
		t.Error("trailing byte accepted")
	}
}

// TestSnapshotRejectsPreTableFrame: a NewFleetAggs frame written by
// the encoder that preceded the count table (captured as hex in
// testdata) must fail with a tag mismatch — its stored totals are
// never misread as the new disjoint cells.
func TestSnapshotRejectsPreTableFrame(t *testing.T) {
	raw, err := os.ReadFile("testdata/parent_fleet_frame.hex")
	if err != nil {
		t.Fatal(err)
	}
	frame, err := hex.DecodeString(strings.TrimSpace(string(raw)))
	if err != nil {
		t.Fatal(err)
	}
	err = RestoreSnapshot(frame, NewFleetAggs())
	if err == nil || !strings.Contains(err.Error(), "snapshot tag 1 does not match") {
		t.Errorf("pre-table frame: err = %v, want a tag mismatch", err)
	}
}

// overlapFrame hand-encodes a one-pair OverlapAgg frame whose client
// text is src, bypassing the encoder's canonical form.
func overlapFrame(src string) []byte {
	b := []byte{tagOverlap}
	b = wire.AppendUvarint(b, 1)
	b = wire.AppendString(b, src)
	b = wire.AppendString(b, "example.com")
	b = wire.AppendUvarint(b, 1)
	b = wire.AppendVarint(b, 7)
	return wire.AppendUvarint(b, uint64(core.SigNotTampering))
}

// TestSnapshotOverlapCanonicalSrc: an overlap pair's client text is
// accepted only in the form the encoder writes — empty for no address,
// else the address's canonical text — so every accepted frame
// re-encodes to its own bytes.
func TestSnapshotOverlapCanonicalSrc(t *testing.T) {
	for _, src := range []string{"", "10.0.0.1", "2001:db8::1", "::ffff:10.0.0.1", "fe80::1%eth0"} {
		frame := overlapFrame(src)
		a := NewOverlapAgg()
		if err := RestoreSnapshot(frame, a); err != nil {
			t.Errorf("canonical src %q rejected: %v", src, err)
			continue
		}
		if re := snapshotOf(t, a); !bytes.Equal(re, frame) {
			t.Errorf("src %q: re-encoded frame %x, want %x", src, re, frame)
		}
	}
	for _, src := range []string{"010.0.0.1", "2001:0db8::1", "2001:DB8::1", "::FFFF:10.0.0.1", " 10.0.0.1", "invalid IP", "example.com"} {
		if err := RestoreSnapshot(overlapFrame(src), NewOverlapAgg()); err == nil {
			t.Errorf("non-canonical src %q accepted", src)
		}
	}
}

// inUnit fails the test unless v is a share in [0, 1].
func inUnit(t *testing.T, what string, v float64) {
	t.Helper()
	if !(v >= 0 && v <= 1) {
		t.Fatalf("%s = %v, outside [0, 1]", what, v)
	}
}

// checkShares asserts every share the fleet set's finalizers compute
// lies in [0, 1] — the property a frame with a stored total smaller
// than its counts used to break.
func checkShares(t *testing.T, m Multi) {
	t.Helper()
	s := m[fleetStages].(*StageStatsAgg).Stats()
	inUnit(t, "possibly-tampered share", s.PossiblyTamperedShare())
	inUnit(t, "signature coverage", s.SignatureCoverage())
	for st := core.Stage(0); st < core.NumStages; st++ {
		inUnit(t, "stage share", s.StageShare(st))
		inUnit(t, "stage coverage", s.StageCoverage(st))
	}
	for _, sc := range m[fleetComposition].(*CountryBySignatureAgg).Table() {
		for c := range sc.ByCountry {
			inUnit(t, "Figure 1 share", sc.Share(c))
		}
	}
	for _, d := range m[fleetDistribution].(*SignatureByCountryAgg).Table() {
		inUnit(t, "Figure 4 tampered share", d.TamperedShare())
		for _, sig := range core.AllSignatures() {
			inUnit(t, "Figure 4 signature share", d.SignatureShare(sig))
		}
	}
	for _, view := range m[fleetASN].(*ASNViewAgg).Finalize().(map[string][]ASNStat) {
		for _, a := range view {
			inUnit(t, "Figure 5 match share", a.MatchShare())
			inUnit(t, "Figure 5 country share", a.CountryShare)
		}
	}
	vRows, _ := m[fleetIPVersion].(*IPVersionAgg).Table()
	for _, v := range vRows {
		inUnit(t, "Figure 7a IPv4 share", v.V4Share())
		inUnit(t, "Figure 7a IPv6 share", v.V6Share())
	}
	pRows, _ := m[fleetProtocol].(*ProtocolAgg).Table()
	for _, p := range pRows {
		inUnit(t, "Figure 7b TLS share", p.TLSShare())
		inUnit(t, "Figure 7b HTTP share", p.HTTPShare())
	}
	for _, dc := range m[fleetDomains].(*DomainAgg).Finalize().([]DomainCount) {
		inUnit(t, "domain match share", stats.Ratio(dc.Matches, dc.Sightings))
	}
	for _, r := range m[fleetStability].(*StabilityAgg).Report() {
		inUnit(t, "stability rate delta", r.RateDelta)
	}
	sc := m[fleetScanners].(*ScannerAgg).Stats()
	inUnit(t, "port-80 payload share", stats.Ratio(sc.SYNPayload80, sc.Port80SYNs))
	inUnit(t, "peak-day payload share", sc.PeakDayShare)
	for _, p := range m[fleetSeries].(*TimeSeriesAgg).Series() {
		inUnit(t, "series share", p.Share())
	}
}

// FuzzSnapshotCodec feeds arbitrary bytes to RestoreSnapshot: decoding
// untrusted input must return an error or a state that re-encodes —
// never panic, hang, or over-allocate — and every share an accepted
// fleet or robustness frame finalizes to must lie in [0, 1]. Seeded
// with valid frames and with a frame in the pre-table encoding whose
// Figure 4 row claims one connection but five ⟨SYN → RST⟩ matches
// (accepted there as a 500% tampered share).
func FuzzSnapshotCodec(f *testing.F) {
	src := NewFleetAggs()
	rec := Record{}
	src.Add(&rec)
	if seed, err := AppendSnapshot(nil, src); err == nil {
		f.Add(seed)
	}
	f.Add([]byte{})
	f.Add([]byte{byte(tagMulti), 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	preTable, _ := hex.DecodeString("0e0c010000000000000000000000000000000300000000000000000000000000000000000000000000000000000000000000000000000000000000000008" +
		"e8070000020102434e0200000a0000000000000000000000000000000000000400063200071e000a000b000c1e0000000900000000000000000000000000050400")
	f.Add(preTable)
	// The same claim in the table encoding can only state counts:
	// five matches are five connections.
	crafted := NewFleetAggs()
	crafted[fleetDistribution].(*SignatureByCountryAgg).t.row("CN")[core.SigSYNRST] = 5
	if seed, err := AppendSnapshot(nil, crafted); err == nil {
		f.Add(seed)
	}
	// A fleet frame whose overlap pair names its client "010.0.0.1":
	// not an address's canonical text, so it must be rejected.
	overlap := NewFleetAggs()
	overlap.Add(&Record{Src: netip.MustParseAddr("10.0.0.1"),
		Res: core.Result{Signature: core.SigNotTampering, Domain: "example.com"}})
	if seed, err := AppendSnapshot(nil, overlap); err == nil {
		f.Add(bytes.Replace(seed, wire.AppendString(nil, "10.0.0.1"), wire.AppendString(nil, "010.0.0.1"), 1))
	}
	rob := NewRobustnessAgg("clean", 0)
	rob.Add(&Record{Res: core.Result{Signature: core.SigSYNRST}})
	if seed, err := AppendSnapshot(nil, rob); err == nil {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dst := NewFleetAggs()
		if err := RestoreSnapshot(data, dst); err == nil {
			if _, err := AppendSnapshot(nil, dst); err != nil {
				t.Fatalf("accepted frame failed to re-encode: %v", err)
			}
			checkShares(t, dst)
		}
		g := NewRobustnessAgg("clean", 0)
		if err := RestoreSnapshot(data, g); err == nil {
			grade := g.Grade()
			inUnit(t, "false-positive rate", grade.FalsePositiveRate())
		}
	})
}
