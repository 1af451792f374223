package analysis

// The count table: the one mergeable primitive under every group-by
// aggregator of the paper. A table maps a key to a fixed-width row of
// int cells; an aggregator's Add projects the record to a key and a
// cell and bumps it, and its finalize derives every total as a sum of
// cells. Cells are disjoint counts, so no stored total can disagree
// with the counts it summarizes — not after a Merge, and not after
// restoring an untrusted frame.
//
// This file holds the only table Merge loop, the only table encoder,
// and the only table decoder. A key type contributes just its append
// and decode functions (keyCodec), and tableAgg turns a table into a
// table-backed aggregator's Merge and snapshot codec.

import (
	"bytes"
	"fmt"
	"sort"

	"tamperdetect/internal/wire"
)

// maxSnapshotCount bounds each decoded cell. A cell near the bound
// takes six encoded bytes, so no sum over one frame's cells can
// overflow an int before the frame passes ~800 MB — far past the
// fleet's frame limit — and every derived total stays exact.
const maxSnapshotCount = 1 << 36

// keyCodec is what a table key type supplies to the snapshot codec.
type keyCodec[K comparable] struct {
	append func(b []byte, k K) []byte
	decode func(d *wire.Decoder) (K, error)
	// minBytes is the smallest encoding of any key, for Len's bound.
	minBytes int
}

// table is a key → row-of-width-cells count table.
type table[K comparable] struct {
	codec *keyCodec[K]
	width int
	rows  map[K][]int
}

func newTable[K comparable](codec *keyCodec[K], width int) table[K] {
	return table[K]{codec: codec, width: width, rows: map[K][]int{}}
}

// row returns k's cells, adding a zero row for a new key.
func (t *table[K]) row(k K) []int {
	r, ok := t.rows[k]
	if !ok {
		r = make([]int, t.width)
		t.rows[k] = r
	}
	return r
}

// add counts one record in k's cell.
func (t *table[K]) add(k K, cell int) { t.row(k)[cell]++ }

// order returns the keys sorted under less.
func (t *table[K]) order(less func(a, b K) bool) []K {
	keys := make([]K, 0, len(t.rows))
	for k := range t.rows {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return less(keys[i], keys[j]) })
	return keys
}

// merge folds o's counts in, as if o's records had been added here.
func (t *table[K]) merge(o *table[K]) {
	for k, r := range o.rows {
		addCells(t.row(k), r)
	}
}

// appendTo encodes the table: an entry count, then each key and its
// cells, ordered by the key's encoded bytes so the same state always
// yields the same frame.
func (t *table[K]) appendTo(b []byte) []byte {
	type entry struct {
		key []byte
		row []int
	}
	entries := make([]entry, 0, len(t.rows))
	var enc []byte
	for k, r := range t.rows {
		start := len(enc)
		enc = t.codec.append(enc, k)
		entries = append(entries, entry{enc[start:len(enc):len(enc)], r})
	}
	sort.Slice(entries, func(i, j int) bool { return bytes.Compare(entries[i].key, entries[j].key) < 0 })
	b = wire.AppendUvarint(b, uint64(len(entries)))
	for _, e := range entries {
		b = appendCells(append(b, e.key...), e.row)
	}
	return b
}

// restore folds an encoded table into t. Every row must carry a
// nonzero count — no Add creates an empty row — and duplicate keys
// fold together exactly as Merge would.
func (t *table[K]) restore(d *wire.Decoder) error {
	n := d.Len(maxSnapshotEntries, t.codec.minBytes+t.width)
	vals := make([]int, t.width)
	for i := 0; i < n; i++ {
		k, err := t.codec.decode(d)
		if err != nil {
			return err
		}
		clear(vals)
		if err := restoreCells(d, vals); err != nil {
			return err
		}
		if sumCells(vals) == 0 {
			return fmt.Errorf("analysis: snapshot row %v has no counts", k)
		}
		addCells(t.row(k), vals)
	}
	return d.Err()
}

// addCells adds src into dst cell by cell.
func addCells(dst, src []int) {
	for i, v := range src {
		dst[i] += v
	}
}

// sumCells totals a row.
func sumCells(cells []int) int {
	n := 0
	for _, v := range cells {
		n += v
	}
	return n
}

// appendCells encodes counts in order.
func appendCells(b []byte, cells []int) []byte {
	for _, v := range cells {
		b = wire.AppendVarint(b, int64(v))
	}
	return b
}

// restoreCells decodes len(into) counts and adds them into into.
func restoreCells(d *wire.Decoder, into []int) error {
	for i := range into {
		v := d.Int()
		if v > maxSnapshotCount {
			return fmt.Errorf("analysis: snapshot count %d exceeds limit %d", v, maxSnapshotCount)
		}
		into[i] += v
	}
	return d.Err()
}

// Key codecs for the table keys the aggregators use.

var countryKeys = keyCodec[string]{
	append: wire.AppendString,
	decode: func(d *wire.Decoder) (string, error) {
		return d.String(maxSnapshotString), d.Err()
	},
	minBytes: 1,
}

var intKeys = keyCodec[int]{
	append: func(b []byte, k int) []byte { return wire.AppendVarint(b, int64(k)) },
	decode: func(d *wire.Decoder) (int, error) {
		return int(d.Varint()), d.Err()
	},
	minBytes: 1,
}

// tableAgg is the state a table-backed aggregator embeds: its wire tag,
// at most one integer construction parameter that Merge and restore
// require to match (paramName is empty when there is none), and its
// count table. It supplies the aggregator's snapshot codec: the
// parameter, then the table.
type tableAgg[K comparable] struct {
	tagByte   byte
	paramName string
	param     int
	t         table[K]
}

func newTableAgg[K comparable](tag byte, codec *keyCodec[K], width int, paramName string, param int) tableAgg[K] {
	return tableAgg[K]{tagByte: tag, paramName: paramName, param: param, t: newTable(codec, width)}
}

// fold merges o's counts in after checking the parameters agree.
func (a *tableAgg[K]) fold(o *tableAgg[K]) error {
	if o.param != a.param {
		return paramMismatch(a.paramName, o.param, a.param)
	}
	a.t.merge(&o.t)
	return nil
}

func (a *tableAgg[K]) tag() byte { return a.tagByte }

func (a *tableAgg[K]) appendSnapshot(b []byte) ([]byte, error) {
	if a.paramName != "" {
		b = wire.AppendUvarint(b, uint64(a.param))
	}
	return a.t.appendTo(b), nil
}

func (a *tableAgg[K]) restoreSnapshot(d *wire.Decoder) error {
	if a.paramName != "" {
		if err := restoreParam(d, a.paramName, a.param); err != nil {
			return err
		}
	}
	return a.t.restore(d)
}
