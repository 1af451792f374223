package analysis

// Incremental, mergeable aggregation. Every paper table is computed by
// an Aggregator: records stream in one at a time (Add), independently
// built aggregators combine (Merge — the multi-PoP rollup: each
// simulated PoP aggregates its own traffic and the merged result is
// the global report), and a finalize step renders the table.
//
// The load-bearing invariant, which the parity suite, the goldens and
// the merge fuzz target enforce, is that every finalized table is a
// pure function of the record *multiset*: insertion order, shard
// partitioning, and merge order must not change a single output byte.
// That is what lets the streaming pipeline shard records across
// workers nondeterministically (pipeline.Config.Observe) and lets N
// PoP shards merge in any order. Merge is associative, commutative,
// and identity-respecting (a fresh aggregator is the identity
// element).
//
// Every group-by aggregator is a projection onto one count table
// (table.go): Add picks a key and a cell, Merge is the table's merge,
// and every total a finalizer reports is a sum of disjoint cells. Only
// the evidence sketches, the overlap observations and the time span
// keep bespoke state.
//
// This file holds the interface and the per-connection aggregators;
// the per-domain, overlap, stability, and robustness aggregators live
// in aggregate_domains.go, and the per-worker pipeline adapter in
// sharded.go.

import (
	"cmp"
	"fmt"
	"hash/fnv"
	"math"
	"sort"

	"tamperdetect/internal/core"
	"tamperdetect/internal/stats"
	"tamperdetect/internal/wire"
)

// Aggregator is one incrementally computed paper table.
type Aggregator interface {
	// Add folds one classified record into the aggregate. The record
	// is only borrowed for the call.
	Add(r *Record)
	// Merge folds another aggregator of the same concrete type (and
	// same construction parameters) into this one, as if every record
	// added to other had been added here. Merging a mismatched type
	// returns an error and changes nothing.
	Merge(other Aggregator) error
	// Finalize computes the aggregator's table. It does not consume
	// the aggregator: more Adds and Merges may follow, and Finalize may
	// be called again.
	Finalize() any
}

// mismatch is the shared Merge type-check failure.
func mismatch(dst, src Aggregator) error {
	return fmt.Errorf("analysis: cannot merge %T into %T", src, dst)
}

// mergeSame runs fold when other has a's concrete type T, and fails
// with mismatch otherwise.
func mergeSame[T Aggregator](a T, other Aggregator, fold func(o T) error) error {
	o, ok := other.(T)
	if !ok {
		return mismatch(a, other)
	}
	return fold(o)
}

// paramMismatch is the shared failure for differing construction
// parameters, on Merge and on restore alike.
func paramMismatch(name string, got, want any) error {
	return fmt.Errorf("analysis: cannot merge %s=%v into %s=%v", name, got, name, want)
}

// Multi composes aggregators so one streaming pass fills all of them.
// Merge is element-wise and requires equal length and matching
// element types.
type Multi []Aggregator

func (m Multi) Add(r *Record) {
	for _, a := range m {
		a.Add(r)
	}
}

func (m Multi) Merge(other Aggregator) error {
	o, ok := other.(Multi)
	if !ok {
		return mismatch(m, other)
	}
	if len(o) != len(m) {
		return fmt.Errorf("analysis: cannot merge Multi of %d into Multi of %d", len(o), len(m))
	}
	// Pre-check element types so a type mismatch cannot leave the
	// Multi half-merged (parameter mismatches, e.g. differing bucket
	// widths, still surface from the element Merge itself).
	for i := range m {
		if fmt.Sprintf("%T", m[i]) != fmt.Sprintf("%T", o[i]) {
			return mismatch(m[i], o[i])
		}
	}
	for i := range m {
		if err := m[i].Merge(o[i]); err != nil {
			return err
		}
	}
	return nil
}

func (m Multi) Finalize() any {
	out := make([]any, len(m))
	for i, a := range m {
		out[i] = a.Finalize()
	}
	return out
}

// Cells of the (unmatched, matched) rows several aggregators keep.
const (
	cellUnmatched = iota
	cellMatched
)

// matchCell picks a record's cell in an (unmatched, matched) row.
func matchCell(matched bool) int {
	if matched {
		return cellMatched
	}
	return cellUnmatched
}

// ---------------------------------------------------------------------
// §4.1 stage stats (Table 1 narrative)

// StageStatsAgg incrementally computes the §4.1 breakdown. Cell 0
// counts records that are not possibly tampered; for each stage st,
// cells 1+2*st and 2+2*st count its possibly-tampered records without
// and with a signature match.
type StageStatsAgg struct {
	c [1 + 2*numStages]int
}

// NewStageStatsAgg returns an empty §4.1 aggregator.
func NewStageStatsAgg() *StageStatsAgg { return &StageStatsAgg{} }

func (a *StageStatsAgg) Add(rec *Record) {
	r := &rec.Res
	if !r.PossiblyTampered {
		a.c[0]++
		return
	}
	st := r.Signature.Stage()
	if r.Signature == core.SigOtherAnomalous {
		// Attribute to the prefix stage when known (Post-Data
		// timeouts), else Other.
		st = r.Stage
		if st == core.StageNone {
			st = core.StageOther
		}
	}
	a.c[1+2*int(st)+matchCell(r.Signature.IsTampering())]++
}

func (a *StageStatsAgg) Merge(other Aggregator) error {
	return mergeSame(a, other, func(o *StageStatsAgg) error {
		addCells(a.c[:], o.c[:])
		return nil
	})
}

// Stats finalizes the §4.1 breakdown.
func (a *StageStatsAgg) Stats() StageStats {
	var s StageStats
	for st := 0; st < numStages; st++ {
		unmatched, matched := a.c[1+2*st], a.c[2+2*st]
		s.StageCounts[st] = unmatched + matched
		s.StageMatched[st] = matched
		s.PossiblyTampered += unmatched + matched
		s.Matched += matched
	}
	s.Total = a.c[0] + s.PossiblyTampered
	return s
}

func (a *StageStatsAgg) Finalize() any { return a.Stats() }

// ---------------------------------------------------------------------
// Figure 4: per-country signature distribution

// SignatureByCountryAgg incrementally computes Figure 4: per country,
// one cell per signature.
type SignatureByCountryAgg struct {
	tableAgg[string]
}

// NewSignatureByCountryAgg returns an empty Figure 4 aggregator.
func NewSignatureByCountryAgg() *SignatureByCountryAgg {
	return &SignatureByCountryAgg{newTableAgg(tagSignatureByCountry, &countryKeys, numSigs, "", 0)}
}

func (a *SignatureByCountryAgg) Add(r *Record) {
	if r.Country != "" {
		a.t.add(r.Country, int(r.Res.Signature))
	}
}

func (a *SignatureByCountryAgg) Merge(other Aggregator) error {
	return mergeSame(a, other, func(o *SignatureByCountryAgg) error { return a.fold(&o.tableAgg) })
}

// Table finalizes Figure 4, sorted by descending tampered share.
func (a *SignatureByCountryAgg) Table() []CountryDistribution {
	out := make([]CountryDistribution, 0, len(a.t.rows))
	for c, row := range a.t.rows {
		d := CountryDistribution{Country: c, Total: sumCells(row)}
		copy(d.BySignature[:], row)
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool {
		ti, tj := out[i].TamperedShare(), out[j].TamperedShare()
		if ti != tj {
			return ti > tj
		}
		return out[i].Country < out[j].Country
	})
	return out
}

func (a *SignatureByCountryAgg) Finalize() any { return a.Table() }

// ---------------------------------------------------------------------
// Figure 1: per-signature country composition

// CountryBySignatureAgg incrementally computes Figure 1: per country,
// one cell per signature, counting tampering records only.
type CountryBySignatureAgg struct {
	tableAgg[string]
}

// NewCountryBySignatureAgg returns an empty Figure 1 aggregator.
func NewCountryBySignatureAgg() *CountryBySignatureAgg {
	return &CountryBySignatureAgg{newTableAgg(tagCountryBySignature, &countryKeys, numSigs, "", 0)}
}

func (a *CountryBySignatureAgg) Add(r *Record) {
	if sig := r.Res.Signature; sig.IsTampering() && r.Country != "" {
		a.t.add(r.Country, int(sig))
	}
}

func (a *CountryBySignatureAgg) Merge(other Aggregator) error {
	return mergeSame(a, other, func(o *CountryBySignatureAgg) error { return a.fold(&o.tableAgg) })
}

// Table finalizes Figure 1 for all 19 signatures.
func (a *CountryBySignatureAgg) Table() []SignatureComposition {
	out := make([]SignatureComposition, 0, len(core.AllSignatures()))
	for _, sig := range core.AllSignatures() {
		sc := SignatureComposition{Signature: sig, ByCountry: map[string]int{}}
		for c, row := range a.t.rows {
			if n := row[sig]; n > 0 {
				sc.ByCountry[c] = n
				sc.Total += n
			}
		}
		out = append(out, sc)
	}
	return out
}

func (a *CountryBySignatureAgg) Finalize() any { return a.Table() }

// ---------------------------------------------------------------------
// Figure 5: per-AS view

type countryASN struct {
	country string
	asn     uint32
}

var countryASNKeys = keyCodec[countryASN]{
	append: func(b []byte, k countryASN) []byte {
		return wire.AppendUvarint(wire.AppendString(b, k.country), uint64(k.asn))
	},
	decode: func(d *wire.Decoder) (countryASN, error) {
		c, asn := d.String(maxSnapshotString), d.Uvarint()
		if err := d.Err(); err != nil {
			return countryASN{}, err
		}
		if asn > math.MaxUint32 {
			return countryASN{}, fmt.Errorf("analysis: ASN %d out of range", asn)
		}
		return countryASN{c, uint32(asn)}, nil
	},
	minBytes: 2,
}

// ASNViewAgg incrementally computes Figure 5 for every country at
// once: per (country, AS), unmatched and matched records.
type ASNViewAgg struct {
	tableAgg[countryASN]
}

// NewASNViewAgg returns an empty Figure 5 aggregator.
func NewASNViewAgg() *ASNViewAgg {
	return &ASNViewAgg{newTableAgg(tagASNView, &countryASNKeys, 2, "", 0)}
}

func (a *ASNViewAgg) Add(r *Record) {
	if r.Country != "" {
		a.t.add(countryASN{r.Country, r.ASN}, matchCell(r.Res.Signature.IsTampering()))
	}
}

func (a *ASNViewAgg) Merge(other Aggregator) error {
	return mergeSame(a, other, func(o *ASNViewAgg) error { return a.fold(&o.tableAgg) })
}

// View finalizes Figure 5 for one country: per-AS match proportions
// among the top ASes carrying 80% of the country's connections,
// ordered by traffic share (ties broken by ASN so the cut is a pure
// function of the counts).
func (a *ASNViewAgg) View(country string) []ASNStat {
	var all []ASNStat
	total := 0
	for k, row := range a.t.rows {
		if k.country != country {
			continue
		}
		n := row[cellUnmatched] + row[cellMatched]
		all = append(all, ASNStat{ASN: k.asn, Total: n, Matched: row[cellMatched]})
		total += n
	}
	if total == 0 {
		return nil
	}
	for i := range all {
		all[i].CountryShare = stats.Ratio(all[i].Total, total)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Total != all[j].Total {
			return all[i].Total > all[j].Total
		}
		return all[i].ASN < all[j].ASN
	})
	// Keep the top ASes covering 80% of traffic.
	covered := 0.0
	cut := len(all)
	for i := range all {
		covered += all[i].CountryShare
		if covered >= 0.8 {
			cut = i + 1
			break
		}
	}
	return all[:cut]
}

// Countries lists the countries with any records, sorted.
func (a *ASNViewAgg) Countries() []string {
	var out []string
	for _, k := range a.t.order(func(x, y countryASN) bool { return x.country < y.country }) {
		if c := k.country; len(out) == 0 || out[len(out)-1] != c {
			out = append(out, c)
		}
	}
	return out
}

// Finalize returns every country's view, keyed by country code.
func (a *ASNViewAgg) Finalize() any {
	out := map[string][]ASNStat{}
	for _, c := range a.Countries() {
		out[c] = a.View(c)
	}
	return out
}

// ---------------------------------------------------------------------
// Figures 6, 8, 9: longitudinal series

// TimeSeriesAgg incrementally computes a match-share series bucketed
// by hour for one (bucketHours, include, matched) parameterisation,
// fixed at construction: per bucket, unmatched and matched records
// that pass include (Figures 6, 8, 9 use different predicates).
// Merging aggregators built with different predicates is not
// detectable (functions are not comparable) and is the caller's
// responsibility; mismatched bucket widths are rejected.
type TimeSeriesAgg struct {
	tableAgg[int] // param: bucketHours
	include       func(*Record) bool
	matched       func(*Record) bool
}

// NewTimeSeriesAgg returns an empty longitudinal-series aggregator; a
// nil include admits every record.
func NewTimeSeriesAgg(bucketHours int, include func(*Record) bool, matched func(*Record) bool) *TimeSeriesAgg {
	if bucketHours <= 0 {
		bucketHours = 1
	}
	return &TimeSeriesAgg{
		tableAgg: newTableAgg(tagTimeSeries, &intKeys, 2, "bucketHours", bucketHours),
		include:  include,
		matched:  matched,
	}
}

func (a *TimeSeriesAgg) Add(r *Record) {
	if a.include != nil && !a.include(r) {
		return
	}
	a.t.add(r.Hour/a.param*a.param, matchCell(a.matched(r)))
}

func (a *TimeSeriesAgg) Merge(other Aggregator) error {
	return mergeSame(a, other, func(o *TimeSeriesAgg) error { return a.fold(&o.tableAgg) })
}

// Series finalizes the bucketed series in hour order.
func (a *TimeSeriesAgg) Series() []SeriesPoint {
	out := make([]SeriesPoint, 0, len(a.t.rows))
	for _, h := range a.t.order(cmp.Less[int]) {
		row := a.t.rows[h]
		out = append(out, SeriesPoint{
			Hour:    h,
			Total:   row[cellUnmatched] + row[cellMatched],
			Matched: row[cellMatched],
		})
	}
	return out
}

func (a *TimeSeriesAgg) Finalize() any { return a.Series() }

// ---------------------------------------------------------------------
// Figure 7: IPv4 vs IPv6, TLS vs HTTP

// familyRow is one country's Figure 7 counts for the first family
// (IPv4, TLS) and the second (IPv6, HTTP). Its table row holds each
// family's unmatched and matched cells in turn.
type familyRow struct {
	country        string
	total, matched [2]int
}

// familyRows lists the Figure 7 rows with at least min records in both
// families, in country order, with the through-origin slope of the
// second family's match share on the first's. The slope's inputs
// accumulate in sorted country order so the float sum is reproducible
// bit for bit.
func familyRows(t *table[string], min int) ([]familyRow, float64) {
	var rows []familyRow
	var xs, ys []float64
	for _, country := range t.order(cmp.Less[string]) {
		c := t.rows[country]
		f := familyRow{country, [2]int{c[0] + c[1], c[2] + c[3]}, [2]int{c[1], c[3]}}
		if f.total[0] < min || f.total[1] < min {
			continue
		}
		rows = append(rows, f)
		xs = append(xs, stats.Percent(stats.Ratio(f.matched[0], f.total[0])))
		ys = append(ys, stats.Percent(stats.Ratio(f.matched[1], f.total[1])))
	}
	return rows, stats.SlopeThroughOrigin(xs, ys)
}

// IPVersionAgg incrementally computes Figure 7a: per country, IPv4 and
// IPv6 records without and with a Post-ACK/Post-PSH match. The
// minPerVersion row filter is fixed at construction.
type IPVersionAgg struct {
	tableAgg[string] // param: minPerVersion
}

// NewIPVersionAgg returns an empty Figure 7a aggregator.
func NewIPVersionAgg(minPerVersion int) *IPVersionAgg {
	return &IPVersionAgg{newTableAgg(tagIPVersion, &countryKeys, 4, "minPerVersion", minPerVersion)}
}

func (a *IPVersionAgg) Add(r *Record) {
	if r.Country == "" {
		return
	}
	fam := 0
	if r.IPVersion == 6 {
		fam = 1
	}
	a.t.add(r.Country, 2*fam+matchCell(PostACKPSHMatch(r)))
}

func (a *IPVersionAgg) Merge(other Aggregator) error {
	return mergeSame(a, other, func(o *IPVersionAgg) error { return a.fold(&o.tableAgg) })
}

// Table finalizes Figure 7a: the rows with at least minPerVersion
// connections in each family, in country order, plus the
// through-origin regression slope (paper: 0.92).
func (a *IPVersionAgg) Table() ([]VersionComparison, float64) {
	rows, slope := familyRows(&a.t, a.param)
	var out []VersionComparison
	for _, f := range rows {
		out = append(out, VersionComparison{f.country, f.total[0], f.matched[0], f.total[1], f.matched[1]})
	}
	return out, slope
}

// VersionTable pairs Table's results for Finalize.
type VersionTable struct {
	Rows  []VersionComparison
	Slope float64
}

func (a *IPVersionAgg) Finalize() any {
	rows, slope := a.Table()
	return VersionTable{Rows: rows, Slope: slope}
}

// ProtocolAgg incrementally computes Figure 7b: per country, TLS and
// HTTP records without and with a Post-ACK/Post-PSH match. The
// minPerProto row filter is fixed at construction.
type ProtocolAgg struct {
	tableAgg[string] // param: minPerProto
}

// NewProtocolAgg returns an empty Figure 7b aggregator.
func NewProtocolAgg(minPerProto int) *ProtocolAgg {
	return &ProtocolAgg{newTableAgg(tagProtocol, &countryKeys, 4, "minPerProto", minPerProto)}
}

func (a *ProtocolAgg) Add(r *Record) {
	if r.Country == "" || r.Res.Protocol == core.ProtoUnknown {
		return
	}
	fam := 1
	if r.Res.Protocol == core.ProtoTLS {
		fam = 0
	}
	a.t.add(r.Country, 2*fam+matchCell(PostACKPSHMatch(r)))
}

func (a *ProtocolAgg) Merge(other Aggregator) error {
	return mergeSame(a, other, func(o *ProtocolAgg) error { return a.fold(&o.tableAgg) })
}

// Table finalizes Figure 7b over Post-PSH-visible signatures: the rows
// with at least minPerProto connections per protocol, with the
// through-origin slope of HTTP share regressed on TLS share (paper:
// ≈0.3, i.e. TLS more tampered, with Turkmenistan the HTTP-only
// outlier).
func (a *ProtocolAgg) Table() ([]ProtocolComparison, float64) {
	rows, slope := familyRows(&a.t, a.param)
	var out []ProtocolComparison
	for _, f := range rows {
		out = append(out, ProtocolComparison{f.country, f.total[0], f.matched[0], f.total[1], f.matched[1]})
	}
	return out, slope
}

// ProtocolTable pairs Table's results for Finalize.
type ProtocolTable struct {
	Rows  []ProtocolComparison
	Slope float64
}

func (a *ProtocolAgg) Finalize() any {
	rows, slope := a.Table()
	return ProtocolTable{Rows: rows, Slope: slope}
}

// ---------------------------------------------------------------------
// Figures 2, 3: evidence CDFs

// EvidenceAgg incrementally computes the Figure 2/3 evidence CDFs. It
// samples up to capPerSig connections per signature with a
// deterministic bottom-k-by-hash sketch (stats.Sketch) keyed by the
// record's identity — never the order-dependent first capPerSig — so
// the retained sample is a pure function of the record multiset.
type EvidenceAgg struct {
	capPerSig int
	ipid      map[core.Signature]*stats.Sketch
	ttl       map[core.Signature]*stats.Sketch
}

// NewEvidenceAgg returns an empty Figures 2/3 aggregator sampling up
// to capPerSig connections per signature (the paper uses 1 000).
func NewEvidenceAgg(capPerSig int) *EvidenceAgg {
	if capPerSig < 1 {
		capPerSig = 1
	}
	return &EvidenceAgg{
		capPerSig: capPerSig,
		ipid:      map[core.Signature]*stats.Sketch{},
		ttl:       map[core.Signature]*stats.Sketch{},
	}
}

// evidenceKey hashes the record's identity for the sampling sketch.
// It uses only record-derived fields, never arrival order, so every
// shard computes the same key for the same record.
func evidenceKey(r *Record) uint64 {
	h := fnv.New64a()
	var src [64]byte // holds any address text short of a long IPv6 zone
	h.Write(r.Src.AppendTo(src[:0]))
	var b [12]byte
	b[0] = byte(r.SrcPort >> 8)
	b[1] = byte(r.SrcPort)
	b[2] = byte(r.DstPort >> 8)
	b[3] = byte(r.DstPort)
	for i := 0; i < 8; i++ {
		b[4+i] = byte(r.Time >> (8 * i))
	}
	h.Write(b[:])
	return h.Sum64()
}

func (a *EvidenceAgg) Add(r *Record) {
	sig := r.Res.Signature
	if sig == core.SigOtherAnomalous {
		return
	}
	key := evidenceKey(r)
	t := a.ttl[sig]
	if t == nil {
		t = stats.NewSketch(a.capPerSig)
		a.ttl[sig] = t
	}
	t.Add(key, float64(r.Res.Evidence.MaxTTLDelta))
	if r.Res.Evidence.IPIDValid {
		p := a.ipid[sig]
		if p == nil {
			p = stats.NewSketch(a.capPerSig)
			a.ipid[sig] = p
		}
		p.Add(key, float64(r.Res.Evidence.MaxIPIDDelta))
	}
}

func (a *EvidenceAgg) Merge(other Aggregator) error {
	o, ok := other.(*EvidenceAgg)
	if !ok {
		return mismatch(a, other)
	}
	if o.capPerSig != a.capPerSig {
		return fmt.Errorf("analysis: cannot merge capPerSig=%d into capPerSig=%d",
			o.capPerSig, a.capPerSig)
	}
	for sig, os := range o.ttl {
		s := a.ttl[sig]
		if s == nil {
			s = stats.NewSketch(a.capPerSig)
			a.ttl[sig] = s
		}
		s.Merge(os)
	}
	for sig, os := range o.ipid {
		s := a.ipid[sig]
		if s == nil {
			s = stats.NewSketch(a.capPerSig)
			a.ipid[sig] = s
		}
		s.Merge(os)
	}
	return nil
}

// CDFs finalizes the Figure 2/3 distributions.
func (a *EvidenceAgg) CDFs() EvidenceCDFs {
	out := EvidenceCDFs{
		IPID: make(map[core.Signature]*stats.CDF, len(a.ipid)),
		TTL:  make(map[core.Signature]*stats.CDF, len(a.ttl)),
	}
	for sig, s := range a.ipid {
		out.IPID[sig] = stats.NewCDF(s.Values())
	}
	for sig, s := range a.ttl {
		out.TTL[sig] = stats.NewCDF(s.Values())
	}
	return out
}

func (a *EvidenceAgg) Finalize() any { return a.CDFs() }

// ---------------------------------------------------------------------
// §4.2 scanner fingerprints

// ScannerAgg incrementally computes the §4.2 scanner fingerprints from
// records alone (Record carries DstPort). Port-80 SYNs are counted per
// day, without and with payload, and the port-80 totals derive from
// those cells. It additionally tracks the §5.1 companion counters:
// total tampering matches and the Post-ACK/Post-PSH subset.
type ScannerAgg struct {
	tableAgg[int] // per day
	s             ScannerStats
	// TamperingMatches and PostACKPSHMatches serve the §5.1
	// "Post-ACK/Post-PSH share of matches" statistic.
	TamperingMatches  int
	PostACKPSHMatches int
}

// NewScannerAgg returns an empty §4.2 aggregator.
func NewScannerAgg() *ScannerAgg {
	return &ScannerAgg{tableAgg: newTableAgg(tagScanner, &intKeys, 2, "", 0)}
}

// counters lists the scalar counters, in wire order.
func (a *ScannerAgg) counters() [9]*int {
	return [9]*int{
		&a.s.Total, &a.s.HighTTL, &a.s.NoSYNOptions, &a.s.SYNRSTMatches,
		&a.s.SYNRSTZMap, &a.s.SYNPayload443, &a.s.Port443SYNs,
		&a.TamperingMatches, &a.PostACKPSHMatches,
	}
}

func (a *ScannerAgg) Add(r *Record) {
	a.s.Total++
	ev := &r.Res.Evidence
	if ev.HighTTL {
		a.s.HighTTL++
	}
	if ev.NoSYNOptions {
		a.s.NoSYNOptions++
	}
	if r.Res.Signature == core.SigSYNRST {
		a.s.SYNRSTMatches++
		if ev.ZMapFingerprint {
			a.s.SYNRSTZMap++
		}
	}
	if r.Res.Signature.IsTampering() {
		a.TamperingMatches++
		if r.Res.Signature.PostACKOrPSH() {
			a.PostACKPSHMatches++
		}
	}
	switch r.DstPort {
	case 80:
		a.t.add(r.Hour/24, matchCell(ev.SYNPayloadLen > 0))
	case 443:
		a.s.Port443SYNs++
		if ev.SYNPayloadLen > 0 {
			a.s.SYNPayload443++
		}
	}
}

func (a *ScannerAgg) Merge(other Aggregator) error {
	return mergeSame(a, other, func(o *ScannerAgg) error {
		oc := o.counters()
		for i, p := range a.counters() {
			*p += *oc[i]
		}
		return a.fold(&o.tableAgg)
	})
}

// Stats finalizes the §4.2 numbers. PeakDay scans days in ascending
// order with a strict comparison, so ties resolve to the earliest day
// regardless of insertion order.
func (a *ScannerAgg) Stats() ScannerStats {
	s := a.s
	s.PeakDay = -1
	for _, day := range a.t.order(cmp.Less[int]) {
		row := a.t.rows[day]
		n := row[cellUnmatched] + row[cellMatched]
		s.Port80SYNs += n
		s.SYNPayload80 += row[cellMatched]
		if n < 50 {
			continue
		}
		if share := float64(row[cellMatched]) / float64(n); share > s.PeakDayShare {
			s.PeakDayShare = share
			s.PeakDay = day
		}
	}
	return s
}

func (a *ScannerAgg) Finalize() any { return a.Stats() }
