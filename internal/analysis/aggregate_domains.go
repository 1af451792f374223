package analysis

// Aggregators over (country, domain) keys — Tables 2 and 3, the §5.5
// observation set, the Figure 10 overlap matrix — plus the §6
// stability report and the robustness false-positive matrix. See
// aggregate.go for the Aggregator contract and the multiset
// determinism invariant.

import (
	"cmp"
	"net/netip"
	"slices"
	"sort"
	"strings"

	"tamperdetect/internal/core"
	"tamperdetect/internal/domains"
	"tamperdetect/internal/stats"
	"tamperdetect/internal/testlists"
	"tamperdetect/internal/wire"
)

// ---------------------------------------------------------------------
// Tables 2, 3 and §5.5: per-(country, domain) sighting/match counts

// DomainCount is one (country, domain) row of the DomainAgg table.
type DomainCount struct {
	Country string
	Domain  string
	// Sightings counts records naming the domain; Matches counts the
	// Post-PSH/Post-Data tampering subset.
	Sightings int
	Matches   int
}

type domKey struct{ country, domain string }

var domKeys = keyCodec[domKey]{
	append: func(b []byte, k domKey) []byte {
		return wire.AppendString(wire.AppendString(b, k.country), k.domain)
	},
	decode: func(d *wire.Decoder) (domKey, error) {
		return domKey{d.String(maxSnapshotString), d.String(maxSnapshotString)}, d.Err()
	},
	minBytes: 2,
}

// DomainAgg incrementally counts, per (country, domain), sightings
// without and with a Post-PSH/Post-Data tampering match — the single
// state behind Table 2 (CategoryTable), the §5.5 observation set
// (TamperedDomains) and Table 3 (ListCoverage), each a finalize over
// the same counts.
type DomainAgg struct {
	tableAgg[domKey]
}

// NewDomainAgg returns an empty per-domain aggregator.
func NewDomainAgg() *DomainAgg {
	return &DomainAgg{newTableAgg(tagDomain, &domKeys, 2, "", 0)}
}

func (a *DomainAgg) Add(r *Record) {
	if r.Res.Domain == "" {
		return
	}
	st := r.Res.Signature.Stage()
	m := r.Res.Signature.IsTampering() && (st == core.StagePostPSH || st == core.StagePostData)
	a.t.add(domKey{country: r.Country, domain: r.Res.Domain}, matchCell(m))
}

func (a *DomainAgg) Merge(other Aggregator) error {
	return mergeSame(a, other, func(o *DomainAgg) error { return a.fold(&o.tableAgg) })
}

// Finalize returns the per-(country, domain) counts sorted by
// (country, domain).
func (a *DomainAgg) Finalize() any {
	out := make([]DomainCount, 0, len(a.t.rows))
	for _, k := range a.t.order(func(x, y domKey) bool {
		if x.country != y.country {
			return x.country < y.country
		}
		return x.domain < y.domain
	}) {
		row := a.t.rows[k]
		out = append(out, DomainCount{
			Country:   k.country,
			Domain:    k.domain,
			Sightings: row[cellUnmatched] + row[cellMatched],
			Matches:   row[cellMatched],
		})
	}
	return out
}

// regionCounts folds the per-country counts down to per-domain counts
// for one region ("" means global).
func (a *DomainAgg) regionCounts(region string) (matches, sightings map[string]int) {
	matches = map[string]int{}
	sightings = map[string]int{}
	for k, row := range a.t.rows {
		if region != "" && k.country != region {
			continue
		}
		sightings[k.domain] += row[cellUnmatched] + row[cellMatched]
		matches[k.domain] += row[cellMatched]
	}
	return matches, sightings
}

// CategoryTable finalizes Table 2 for one region ("" means global). A
// domain counts as tampered when it has at least minMatches Post-PSH
// signature matches from the region (the paper uses 100 per day at CDN
// scale; scale it to the dataset size).
func (a *DomainAgg) CategoryTable(u *domains.Universe, region string, minMatches int) CategoryTable {
	if minMatches < 1 {
		minMatches = 1
	}
	matches, sightings := a.regionCounts(region)
	// Both the tampered set (numerator) and the observed set
	// (denominator) use the same sighting threshold, mirroring the
	// paper's "domains observed to be accessed" at its larger scale.
	seen := map[string]bool{}
	for d, n := range sightings {
		if n >= minMatches {
			seen[d] = true
		}
	}
	tampered := map[string]bool{}
	for d, n := range matches {
		if n >= minMatches {
			tampered[d] = true
		}
	}
	var tamperedConns [domains.NumCategories]int
	var seenDomains [domains.NumCategories]int
	var tamperedDomains [domains.NumCategories]int
	total := 0
	for d := range seen {
		dom := u.ByName(d)
		if dom == nil {
			continue
		}
		seenDomains[dom.Category]++
		if tampered[d] {
			tamperedDomains[dom.Category]++
		}
	}
	for d, n := range matches {
		if !tampered[d] {
			continue
		}
		dom := u.ByName(d)
		if dom == nil {
			continue
		}
		tamperedConns[dom.Category] += n
		total += n
	}
	t := CategoryTable{Region: region, TamperedTotal: total}
	for _, c := range domains.AllCategories() {
		if tamperedConns[c] == 0 {
			continue
		}
		t.Rows = append(t.Rows, CategoryRow{
			Category:      c,
			TamperedShare: stats.Ratio(tamperedConns[c], total),
			Coverage:      stats.Ratio(tamperedDomains[c], seenDomains[c]),
			TamperedConns: tamperedConns[c],
		})
	}
	sort.Slice(t.Rows, func(i, j int) bool {
		if t.Rows[i].TamperedShare != t.Rows[j].TamperedShare {
			return t.Rows[i].TamperedShare > t.Rows[j].TamperedShare
		}
		return t.Rows[i].Category < t.Rows[j].Category
	})
	return t
}

// TamperedDomains finalizes the §5.5 observation set: domains with at
// least minMatches Post-PSH matches from the region, sorted.
func (a *DomainAgg) TamperedDomains(region string, minMatches int) []string {
	if minMatches < 1 {
		minMatches = 1
	}
	matches, _ := a.regionCounts(region)
	var out []string
	for d, n := range matches {
		if n >= minMatches {
			out = append(out, d)
		}
	}
	sort.Strings(out)
	return out
}

// ListCoverage finalizes Table 3 over the given regions ("" means
// global).
func (a *DomainAgg) ListCoverage(suite *testlists.Suite, regions []string, minMatches int) []ListCoverageRow {
	tamperedByRegion := map[string][]string{}
	for _, reg := range regions {
		tamperedByRegion[reg] = a.TamperedDomains(reg, minMatches)
	}
	lists := suite.Lists()
	// Union rows, as in the table's last four rows.
	curated := testlists.Union("Union: Citizenlab + Greatfire", suite.CitizenLab, suite.CitizenLabGlobal, suite.GreatfireAll, suite.Greatfire30d)
	all := testlists.Union("Union: All lists", append([]*testlists.List{curated}, lists...)...)
	rows := make([]ListCoverageRow, 0, len(lists)+4)
	addRow := func(l *testlists.List, substring bool, nameOverride string) {
		row := ListCoverageRow{
			ListName:  l.Name,
			Entries:   l.Len(),
			Exact:     map[string]float64{},
			Substring: map[string]float64{},
		}
		if nameOverride != "" {
			row.ListName = nameOverride
		}
		for _, reg := range regions {
			td := tamperedByRegion[reg]
			row.Exact[reg] = testlists.Coverage(l, td, false)
			if substring {
				row.Substring[reg] = testlists.Coverage(l, td, true)
			}
		}
		rows = append(rows, row)
	}
	for _, l := range lists {
		addRow(l, false, "")
	}
	addRow(curated, false, "")
	addRow(all, false, "")
	addRow(curated, true, "Substring: Citizenlab + Greatfire")
	addRow(all, true, "Substring: All lists")
	return rows
}

// ---------------------------------------------------------------------
// Figure 10: signature overlap

// overlapObs is one Figure 10 observation: a domain-visible record
// whose signature lies on the matrix axes.
type overlapObs struct {
	src    netip.Addr
	domain string
	time   int64
	sig    core.Signature
}

// overlapAxis maps a signature to its Figure 10 row/column; onAxis
// says whether it has one.
var overlapAxis, onAxis = func() (idx [numSigs]int, on [numSigs]bool) {
	for i, s := range postPSHAxes() {
		idx[s], on[s] = i, true
	}
	return idx, on
}()

// OverlapAgg incrementally computes Figure 10. It keeps one flat log
// with one (client, domain, time, signature) observation per
// domain-visible record on the Figure 10 axes (Not-Tampering and the
// Post-PSH signatures): Add and Merge only append. Memory therefore
// grows with the number of such records, not with the number of
// distinct pairs: the log beats a per-pair layout while pairs average
// fewer than about 3 observations and loses above (DESIGN.md §3c).
// Matrix and the snapshot encoder sort the log by (client, domain,
// time, signature) and walk runs of equal pairs, so the transition
// counts and the frame bytes are a pure function of the record
// multiset: unordered sinks or shuffled inputs produce the identical
// matrix.
//
// Because Matrix and AppendSnapshot sort the log in place, each needs
// exclusive access to the aggregator, as Add and Merge do.
type OverlapAgg struct {
	log []overlapObs
}

// NewOverlapAgg returns an empty Figure 10 aggregator.
func NewOverlapAgg() *OverlapAgg { return &OverlapAgg{} }

func (a *OverlapAgg) Add(r *Record) {
	s := r.Res.Signature
	if r.Res.Domain == "" || uint(s) >= uint(numSigs) || !onAxis[s] {
		return
	}
	a.log = append(a.log, overlapObs{src: r.Src, domain: r.Res.Domain, time: r.Time, sig: s})
}

func (a *OverlapAgg) Merge(other Aggregator) error {
	o, ok := other.(*OverlapAgg)
	if !ok {
		return mismatch(a, other)
	}
	a.log = append(a.log, o.log...)
	return nil
}

// sortLog orders the log by pair, then by (time, signature) — the
// canonical temporal order, with the signature tie-break covering the
// 1-second timestamp granularity.
func (a *OverlapAgg) sortLog() {
	slices.SortFunc(a.log, func(x, y overlapObs) int {
		if c := x.src.Compare(y.src); c != 0 {
			return c
		}
		if c := strings.Compare(x.domain, y.domain); c != 0 {
			return c
		}
		if c := cmp.Compare(x.time, y.time); c != 0 {
			return c
		}
		return cmp.Compare(x.sig, y.sig)
	})
}

// samePair reports whether two observations belong to one pair.
func samePair(x, y *overlapObs) bool { return x.src == y.src && x.domain == y.domain }

// Matrix finalizes Figure 10: within each pair, observations in
// (time, signature) order and each adjacent two contribute one
// transition.
func (a *OverlapAgg) Matrix() OverlapMatrix {
	axes := postPSHAxes()
	n := len(axes)
	counts := make([][]int, n)
	for i := range counts {
		counts[i] = make([]int, n)
	}
	a.sortLog()
	pairs := 0
	for i := 1; i < len(a.log); i++ {
		if samePair(&a.log[i-1], &a.log[i]) {
			counts[overlapAxis[a.log[i-1].sig]][overlapAxis[a.log[i].sig]]++
			pairs++
		}
	}
	frac := make([][]float64, n)
	for i := range frac {
		frac[i] = make([]float64, n)
		rowTotal := 0
		for j := range counts[i] {
			rowTotal += counts[i][j]
		}
		for j := range counts[i] {
			frac[i][j] = stats.Ratio(counts[i][j], rowTotal)
		}
	}
	return OverlapMatrix{Sigs: axes, Fraction: frac, Counts: counts, Pairs: pairs}
}

func (a *OverlapAgg) Finalize() any { return a.Matrix() }

// ---------------------------------------------------------------------
// §6 stability

type countryHour struct {
	country string
	hour    int
}

var countryHourKeys = keyCodec[countryHour]{
	append: func(b []byte, k countryHour) []byte {
		return wire.AppendVarint(wire.AppendString(b, k.country), int64(k.hour))
	},
	decode: func(d *wire.Decoder) (countryHour, error) {
		return countryHour{d.String(maxSnapshotString), int(d.Varint())}, d.Err()
	},
	minBytes: 2,
}

// StabilityAgg incrementally computes the §6 comparison: per
// (country, hour), one cell per signature. The half-window split
// depends on the maximum hour seen, so the hours fold into halves at
// finalize; span covers every record, including the country-less ones
// that add no row.
type StabilityAgg struct {
	tableAgg[countryHour] // param: minPerHalf
	// span is one past the largest hour seen (hours before 0 count as
	// 0), and 0 until the first record.
	span int
}

// NewStabilityAgg returns an empty §6 aggregator with the given
// per-half inclusion threshold.
func NewStabilityAgg(minPerHalf int) *StabilityAgg {
	return &StabilityAgg{tableAgg: newTableAgg(tagStability, &countryHourKeys, numSigs, "minPerHalf", minPerHalf)}
}

func (a *StabilityAgg) Add(r *Record) {
	a.span = max(a.span, r.Hour+1, 1)
	if r.Country != "" {
		a.t.add(countryHour{r.Country, r.Hour}, int(r.Res.Signature))
	}
}

func (a *StabilityAgg) Merge(other Aggregator) error {
	return mergeSame(a, other, func(o *StabilityAgg) error {
		if err := a.fold(&o.tableAgg); err != nil {
			return err
		}
		a.span = max(a.span, o.span)
		return nil
	})
}

// Report finalizes the §6 comparison: the signature mixes of the
// window's first and second halves for countries with at least
// minPerHalf tampered connections in each half, sorted by ascending
// similarity (least stable first).
func (a *StabilityAgg) Report() []StabilityRow {
	if a.span == 0 {
		return nil
	}
	split := (a.span - 1) / 2
	type halves struct {
		sig        [2][core.NumSignatures]int
		total, all [2]int
	}
	byCountry := map[string]*halves{}
	for k, row := range a.t.rows {
		h := byCountry[k.country]
		if h == nil {
			h = &halves{}
			byCountry[k.country] = h
		}
		half := 0
		if k.hour > split {
			half = 1
		}
		for sig, n := range row {
			h.all[half] += n
			if core.Signature(sig).IsTampering() {
				h.sig[half][sig] += n
				h.total[half] += n
			}
		}
	}
	var out []StabilityRow
	for country, h := range byCountry {
		if h.total[0] < a.param || h.total[1] < a.param {
			continue
		}
		row := StabilityRow{
			Country:     country,
			FirstTotal:  h.total[0],
			SecondTotal: h.total[1],
			Cosine:      cosine(h.sig[0][:], h.sig[1][:]),
		}
		r0 := stats.Ratio(h.total[0], h.all[0])
		r1 := stats.Ratio(h.total[1], h.all[1])
		if r1 > r0 {
			row.RateDelta = r1 - r0
		} else {
			row.RateDelta = r0 - r1
		}
		out = append(out, row)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Cosine != out[j].Cosine {
			return out[i].Cosine < out[j].Cosine
		}
		return out[i].Country < out[j].Country
	})
	return out
}

func (a *StabilityAgg) Finalize() any { return a.Report() }

// ---------------------------------------------------------------------
// Robustness false-positive matrix

// RobustnessAgg incrementally computes one impairment grade's cell of
// the robustness matrix from a tamper-free run's verdicts: one count
// per signature, so the false positives, the anomalous and clean
// verdicts, and the total all derive from disjoint cells. Merge models
// the same grade observed at several PoPs, so grade labels must match.
type RobustnessAgg struct {
	grade         string
	effectiveLoss float64
	c             [numSigs]int
}

// NewRobustnessAgg returns an empty aggregator for one grade.
func NewRobustnessAgg(grade string, effectiveLoss float64) *RobustnessAgg {
	return &RobustnessAgg{grade: grade, effectiveLoss: effectiveLoss}
}

func (a *RobustnessAgg) Add(r *Record) { a.c[r.Res.Signature]++ }

func (a *RobustnessAgg) Merge(other Aggregator) error {
	return mergeSame(a, other, func(o *RobustnessAgg) error {
		if o.grade != a.grade {
			return paramMismatch("grade", o.grade, a.grade)
		}
		addCells(a.c[:], o.c[:])
		return nil
	})
}

// Grade finalizes the cell.
func (a *RobustnessAgg) Grade() RobustnessGrade {
	g := RobustnessGrade{
		Grade:          a.grade,
		EffectiveLoss:  a.effectiveLoss,
		Total:          sumCells(a.c[:]),
		FalsePositives: make(map[core.Signature]int),
		Anomalous:      a.c[core.SigOtherAnomalous],
		NotTampering:   a.c[core.SigNotTampering],
	}
	for _, sig := range core.AllSignatures() {
		if n := a.c[sig]; n > 0 {
			g.FalsePositives[sig] = n
		}
	}
	return g
}

func (a *RobustnessAgg) Finalize() any { return a.Grade() }
