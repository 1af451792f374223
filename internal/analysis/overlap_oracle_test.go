package analysis

// The map-of-slices Figure 10 aggregator that OverlapAgg's flat
// observation log replaced, kept verbatim (only the type is renamed)
// as the differential oracle for FuzzOverlapAggOracle and
// TestOverlapAggMatchesOracle: one slice of (time, signature)
// observations per (client, domain) pair, sorted per pair at finalize
// and encode.

import (
	"fmt"
	"net/netip"
	"sort"

	"tamperdetect/internal/core"
	"tamperdetect/internal/stats"
	"tamperdetect/internal/wire"
)

type pairKey struct {
	src    netip.Addr
	domain string
}

type pairObs struct {
	time int64
	sig  core.Signature
}

type oracleOverlapAgg struct {
	axisIdx map[core.Signature]int
	obs     map[pairKey][]pairObs
}

func newOracleOverlapAgg() *oracleOverlapAgg {
	a := &oracleOverlapAgg{axisIdx: map[core.Signature]int{}, obs: map[pairKey][]pairObs{}}
	for i, s := range postPSHAxes() {
		a.axisIdx[s] = i
	}
	return a
}

func (a *oracleOverlapAgg) Add(r *Record) {
	if r.Res.Domain == "" {
		return
	}
	if _, ok := a.axisIdx[r.Res.Signature]; !ok {
		return
	}
	k := pairKey{src: r.Src, domain: r.Res.Domain}
	a.obs[k] = append(a.obs[k], pairObs{time: r.Time, sig: r.Res.Signature})
}

func (a *oracleOverlapAgg) Merge(other Aggregator) error {
	o, ok := other.(*oracleOverlapAgg)
	if !ok {
		return mismatch(a, other)
	}
	for k, oo := range o.obs {
		a.obs[k] = append(a.obs[k], oo...)
	}
	return nil
}

func (a *oracleOverlapAgg) Matrix() OverlapMatrix {
	axes := postPSHAxes()
	n := len(axes)
	counts := make([][]int, n)
	for i := range counts {
		counts[i] = make([]int, n)
	}
	pairs := 0
	for _, obs := range a.obs {
		sort.Slice(obs, func(i, j int) bool {
			if obs[i].time != obs[j].time {
				return obs[i].time < obs[j].time
			}
			return obs[i].sig < obs[j].sig
		})
		for i := 1; i < len(obs); i++ {
			counts[a.axisIdx[obs[i-1].sig]][a.axisIdx[obs[i].sig]]++
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

func (a *oracleOverlapAgg) Finalize() any { return a.Matrix() }

func (a *oracleOverlapAgg) tag() byte { return tagOverlap }

func (a *oracleOverlapAgg) appendSnapshot(b []byte) ([]byte, error) {
	// Pairs sort by the address text the frame carries, not by Addr
	// order, so entries appear in the order of their encoded bytes.
	type entry struct {
		src string
		k   pairKey
	}
	keys := make([]entry, 0, len(a.obs))
	for k := range a.obs {
		keys = append(keys, entry{addrText(k.src), k})
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].src != keys[j].src {
			return keys[i].src < keys[j].src
		}
		return keys[i].k.domain < keys[j].k.domain
	})
	b = wire.AppendUvarint(b, uint64(len(keys)))
	for _, e := range keys {
		// The stored slice keeps Add order; encode the canonical
		// (time, signature) order instead so the frame is a pure
		// function of the observation multiset. Matrix() applies the
		// same ordering at finalize, so this is behavior-preserving.
		obs := append([]pairObs(nil), a.obs[e.k]...)
		sort.Slice(obs, func(i, j int) bool {
			if obs[i].time != obs[j].time {
				return obs[i].time < obs[j].time
			}
			return obs[i].sig < obs[j].sig
		})
		b = wire.AppendString(b, e.src)
		b = wire.AppendString(b, e.k.domain)
		b = wire.AppendUvarint(b, uint64(len(obs)))
		for _, o := range obs {
			b = wire.AppendVarint(b, o.time)
			b = wire.AppendUvarint(b, uint64(o.sig))
		}
	}
	return b, nil
}

func (a *oracleOverlapAgg) restoreSnapshot(d *wire.Decoder) error {
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
		k := pairKey{src: src, domain: domain}
		for j := 0; j < cnt; j++ {
			t := d.Varint()
			sig, err := decodeSig(d)
			if err != nil {
				return err
			}
			if _, ok := a.axisIdx[sig]; !ok {
				return fmt.Errorf("analysis: overlap snapshot carries off-axis signature %v", sig)
			}
			a.obs[k] = append(a.obs[k], pairObs{time: t, sig: sig})
		}
	}
	return d.Err()
}
