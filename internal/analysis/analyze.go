// Package analysis aggregates classified connections into the paper's
// tables and figures: per-country and per-AS tampering rates (Figures
// 1, 4, 5), longitudinal series (Figures 6, 8, 9), IP-version and
// protocol comparisons (Figure 7), category and test-list tables
// (Tables 2, 3), evidence CDFs (Figures 2, 3), the signature-overlap
// matrix (Figure 10), and the §4.1/§4.2 summary statistics.
package analysis

import (
	"net/netip"
	"sort"

	"tamperdetect/internal/capture"
	"tamperdetect/internal/core"
	"tamperdetect/internal/geo"
	"tamperdetect/internal/stats"
)

// Record is one classified connection with its aggregation keys.
type Record struct {
	Res       core.Result
	Country   string
	ASN       uint32
	IPVersion int
	// Hour is the scenario hour of the first packet (capture
	// timestamps are seconds from scenario start).
	Hour int
	// Time is the first packet's timestamp in seconds — the canonical
	// per-pair ordering key of the overlap matrix.
	Time int64
	// Src is the client address: the overlap matrix's pair key and
	// part of the evidence sampling key. It stays an Addr so building
	// a record formats nothing; the codecs and hashes use its text.
	Src netip.Addr
	// SrcPort and DstPort come from the connection's flow key; DstPort
	// drives the scanner port counters without the raw connection.
	SrcPort uint16
	DstPort uint16
}

// NewRecord builds one aggregation record from a classified
// connection, attaching country/AS via the geo resolver — exactly the
// paper's pipeline: aggregation keys come only from the source
// address. Every aggregation path builds its records with it;
// streaming classification sinks pass a per-worker *geo.Cache so the
// per-record resolution skips the binary search.
func NewRecord(c *capture.Connection, db geo.Resolver, res core.Result) Record {
	rec := Record{
		Res:       res,
		IPVersion: c.IPVersion,
		Src:       c.SrcIP,
		SrcPort:   c.SrcPort,
		DstPort:   c.DstPort,
	}
	if as := db.Lookup(c.SrcIP); as != nil {
		rec.Country = as.Country
		rec.ASN = as.ASN
	}
	if len(c.Packets) > 0 {
		rec.Time = c.Packets[0].Timestamp
		rec.Hour = int(rec.Time / 3600)
	}
	return rec
}

// StageStats is the §4.1 headline breakdown (Table 1's narrative).
type StageStats struct {
	Total            int
	PossiblyTampered int
	// StageCounts counts possibly-tampered connections per stage
	// (StageOther collects the uncovered remainder).
	StageCounts [core.NumStages]int
	// StageMatched counts, per stage, those matching a Table 1
	// signature.
	StageMatched [core.NumStages]int
	// Matched is the total matching any signature.
	Matched int
}

// PossiblyTamperedShare is the §4.1 25.7% statistic.
func (s *StageStats) PossiblyTamperedShare() float64 {
	return stats.Ratio(s.PossiblyTampered, s.Total)
}

// SignatureCoverage is the §4.1 86.9% statistic: the share of possibly
// tampered connections matching one of the 19 signatures.
func (s *StageStats) SignatureCoverage() float64 {
	return stats.Ratio(s.Matched, s.PossiblyTampered)
}

// StageShare is a stage's share of possibly-tampered connections
// (43.2% / 16.1% / 5.3% / 33.0% / 2.3% in the paper).
func (s *StageStats) StageShare(st core.Stage) float64 {
	return stats.Ratio(s.StageCounts[st], s.PossiblyTampered)
}

// StageCoverage is the share of a stage's connections matched by a
// signature (99.5% / 98.7% / 97.9% / 69.2%).
func (s *StageStats) StageCoverage(st core.Stage) float64 {
	return stats.Ratio(s.StageMatched[st], s.StageCounts[st])
}

// CountryDistribution is Figure 4: per country, the share of
// connections per signature (and not tampering).
type CountryDistribution struct {
	Country string
	Total   int
	// BySignature counts connections per signature.
	BySignature [core.NumSignatures]int
}

// TamperedShare is the country's share of connections matching any of
// the 19 signatures.
func (c *CountryDistribution) TamperedShare() float64 {
	matched := 0
	for _, sig := range core.AllSignatures() {
		matched += c.BySignature[sig]
	}
	return stats.Ratio(matched, c.Total)
}

// SignatureShare is the country share matching one signature.
func (c *CountryDistribution) SignatureShare(sig core.Signature) float64 {
	return stats.Ratio(c.BySignature[sig], c.Total)
}

// SignatureComposition is Figure 1: for one signature, which countries
// its matches come from.
type SignatureComposition struct {
	Signature core.Signature
	Total     int
	// ByCountry maps country → match count.
	ByCountry map[string]int
}

// Share returns the country's share of the signature's matches.
func (s *SignatureComposition) Share(country string) float64 {
	return stats.Ratio(s.ByCountry[country], s.Total)
}

// TopCountries returns up to n countries by descending share.
func (s *SignatureComposition) TopCountries(n int) []string {
	type kv struct {
		c string
		n int
	}
	var kvs []kv
	for c, cnt := range s.ByCountry {
		kvs = append(kvs, kv{c, cnt})
	}
	sort.Slice(kvs, func(i, j int) bool {
		if kvs[i].n != kvs[j].n {
			return kvs[i].n > kvs[j].n
		}
		return kvs[i].c < kvs[j].c
	})
	if len(kvs) > n {
		kvs = kvs[:n]
	}
	out := make([]string, len(kvs))
	for i, kv := range kvs {
		out[i] = kv.c
	}
	return out
}

// ASNStat is one AS's row in Figure 5.
type ASNStat struct {
	ASN          uint32
	Total        int
	Matched      int
	CountryShare float64 // share of the country's connections
}

// MatchShare is the AS's tampering match proportion.
func (a *ASNStat) MatchShare() float64 { return stats.Ratio(a.Matched, a.Total) }

// SpreadOfASNView measures Figure 5's key contrast: the range (max-min)
// of match shares across a country's major ASes — small for
// centralized censors, large for decentralized ones.
func SpreadOfASNView(view []ASNStat) float64 {
	if len(view) == 0 {
		return 0
	}
	lo, hi := view[0].MatchShare(), view[0].MatchShare()
	for _, a := range view[1:] {
		m := a.MatchShare()
		if m < lo {
			lo = m
		}
		if m > hi {
			hi = m
		}
	}
	return hi - lo
}

// SeriesPoint is one bucket of a longitudinal series.
type SeriesPoint struct {
	Hour    int
	Total   int
	Matched int
}

// Share is the bucket's match proportion.
func (p SeriesPoint) Share() float64 { return stats.Ratio(p.Matched, p.Total) }

// PostACKPSHMatch is the Figure 6/7 matched-predicate: Post-ACK or
// Post-PSH signatures only (§4.2 robustness restriction).
func PostACKPSHMatch(r *Record) bool { return r.Res.Signature.PostACKOrPSH() }

// AnySignatureMatch matches all 19 signatures.
func AnySignatureMatch(r *Record) bool { return r.Res.Signature.IsTampering() }

// VersionComparison is Figure 7a: per-country tampering shares over
// IPv4 vs IPv6.
type VersionComparison struct {
	Country      string
	V4Total, V4M int
	V6Total, V6M int
}

// V4Share and V6Share are the per-version match proportions.
func (v *VersionComparison) V4Share() float64 { return stats.Ratio(v.V4M, v.V4Total) }
func (v *VersionComparison) V6Share() float64 { return stats.Ratio(v.V6M, v.V6Total) }

// ProtocolComparison is Figure 7b: per-country Post-PSH match shares
// for TLS vs HTTP.
type ProtocolComparison struct {
	Country          string
	TLSTotal, TLSM   int
	HTTPTotal, HTTPM int
}

// TLSShare and HTTPShare are the per-protocol Post-PSH match rates.
func (p *ProtocolComparison) TLSShare() float64  { return stats.Ratio(p.TLSM, p.TLSTotal) }
func (p *ProtocolComparison) HTTPShare() float64 { return stats.Ratio(p.HTTPM, p.HTTPTotal) }

// EvidenceCDFs holds the Figure 2 and Figure 3 distributions: per
// signature (plus the Not-Tampering baseline), the CDF of the maximum
// IP-ID delta (IPv4 only) and maximum TTL delta.
type EvidenceCDFs struct {
	// IPID[sig] and TTL[sig] index by signature; SigNotTampering holds
	// the baseline.
	IPID map[core.Signature]*stats.CDF
	TTL  map[core.Signature]*stats.CDF
}

// ScannerStats are the §4.2 threat-to-validity numbers.
type ScannerStats struct {
	Total         int
	HighTTL       int
	NoSYNOptions  int
	SYNRSTMatches int
	SYNRSTZMap    int
	SYNPayload80  int // port-80 SYNs carrying payload
	Port80SYNs    int
	SYNPayload443 int
	Port443SYNs   int
	// PeakDay and PeakDayShare report the day with the highest share
	// of payload-carrying port-80 SYNs (§4.1's surge observation).
	PeakDay      int
	PeakDayShare float64
}
