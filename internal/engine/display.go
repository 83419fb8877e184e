package engine

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/dataset"
	"repro/internal/stats"
)

// Display is the result "screen" a user examines after executing an action
// (Section 2.1). It owns the materialized results table plus the provenance
// needed by the interestingness measures: whether the display is aggregated,
// which columns carry groups and values, how many source tuples it covers
// and how many tuples the original dataset has.
type Display struct {
	// Table is the materialized result set.
	Table *dataset.Table

	// FromAction is the action that produced this display; nil for the
	// root display d0.
	FromAction *Action

	// Aggregated reports whether the display is a group-and-aggregate
	// result (one row per group).
	Aggregated bool
	// GroupColumn and ValueColumn name the group and aggregate-value
	// columns of an aggregated display's table.
	GroupColumn string
	ValueColumn string

	// OriginRows is |O|: the number of tuples of the original dataset the
	// session started from (used by Compaction Gain).
	OriginRows int
	// CoveredRows is the number of source tuples this display represents:
	// the row count for a filter result, the input row count for an
	// aggregation.
	CoveredRows int

	// summaryRows is the row count of a summary display (one restored
	// from a snapshot or a wire context, which carries a profile but no
	// materialized table); NumRows falls back to it when Table is nil.
	summaryRows int

	profileOnce sync.Once
	profile     *Profile

	// refs holds the prepared histograms other displays are scored
	// against when this display is their session root (reference.go);
	// allocated on first use, so displays never used as a root stay nil.
	refs atomic.Pointer[references]
}

// NewRootDisplay wraps a freshly loaded dataset as the preliminary display
// d0 of a session.
func NewRootDisplay(t *dataset.Table) *Display {
	return &Display{
		Table:       t,
		OriginRows:  t.NumRows(),
		CoveredRows: t.NumRows(),
	}
}

// NewSummaryDisplay builds a table-less display from its distance-relevant
// summary: row count, aggregation shape and a precomputed profile. It is
// the decode target of snapshot/wire contexts — the session distance
// metric (see internal/distance) reads only NumRows, Aggregated,
// GroupColumn and the profile's column names and Profile.TopFreq, so a
// summary display compares bit-identically to the materialized display it
// was encoded from. Methods that need the table (AggValues, String's table
// rendering) are not available on summary displays.
func NewSummaryDisplay(rows int, aggregated bool, groupColumn, valueColumn string, profile *Profile) *Display {
	d := &Display{
		Aggregated:  aggregated,
		GroupColumn: groupColumn,
		ValueColumn: valueColumn,
		summaryRows: rows,
		profile:     profile,
	}
	// Burn the once so GetProfile never tries to build from the nil table.
	d.profileOnce.Do(func() {})
	return d
}

// NumRows returns the display's own row count m (the "number of elements"
// in the conciseness measures). For a summary display (no materialized
// table) it is the encoded row count.
func (d *Display) NumRows() int {
	if d.Table == nil {
		return d.summaryRows
	}
	return d.Table.NumRows()
}

// AggValues returns the aggregate values v_j of an aggregated display in
// row order, or nil for a raw display.
func (d *Display) AggValues() []float64 {
	if !d.Aggregated {
		return nil
	}
	c := d.Table.ColumnByName(d.ValueColumn)
	if c == nil {
		return nil
	}
	out := make([]float64, c.Len())
	for i := 0; i < c.Len(); i++ {
		out[i] = c.Value(i).Float()
	}
	return out
}

// String renders the display with a one-line provenance header.
func (d *Display) String() string {
	head := "root display"
	if d.FromAction != nil {
		head = "display of " + d.FromAction.String()
	}
	return fmt.Sprintf("%s\n%s", head, d.Table)
}

// ColumnProfile summarizes one column of a display for the measures and
// ground metrics: a value->relative-frequency histogram plus basic numeric
// moments for numeric columns.
type ColumnProfile struct {
	Name string
	Kind dataset.Kind
	// freq is the column's value histogram (see Freq).
	freq *stats.IDHist
	// Distinct is the number of distinct values.
	Distinct int
	// Numeric moments; only meaningful for int/float/time columns.
	Mean, Std, Min, Max float64
	IsNumeric           bool
}

// Freq returns the column's value histogram: the relative frequency of
// each value present, by its id in the column's dictionary
// (dataset.Column.Dict), ids ascending. It is nil in a decoded summary
// (NewProfile); read a column's truncated histogram through
// Profile.TopFreq. Callers must not modify it.
func (c *ColumnProfile) Freq() *stats.IDHist { return c.freq }

// Profile caches per-column summaries of the display's table. Computing a
// profile is O(rows x cols) so displays memoize it; Profile is safe for
// concurrent use.
type Profile struct {
	Rows    int
	Columns []ColumnProfile
	byName  map[string]*ColumnProfile

	// prep holds the form the display ground metric reads (see
	// prepared). A summary profile is prepared by NewProfile; one built
	// from a table on the first read, so displays that are only scored
	// never sort their columns for it.
	prep atomic.Pointer[prepared]
}

// Hist is a truncated value histogram as the display ground metric
// merge-walks it: Keys in ascending byte order, Weights[i] the relative
// frequency of Keys[i].
type Hist struct {
	Keys    []string
	Weights []float64
}

// prepared is a profile's comparison form, built once: every column's
// truncated histogram sorted by key, each column's ordinal among the
// columns sharing its name, and the distinct column names in ascending
// byte order.
type prepared struct {
	cols  []preparedColumn
	names []string
}

type preparedColumn struct {
	top     Hist
	ordinal int
}

// Column returns the named column profile, or nil.
func (p *Profile) Column(name string) *ColumnProfile { return p.byName[name] }

// KeyWeight is one key of a column histogram and its weight.
type KeyWeight struct {
	Key    string
	Weight float64
}

// NewProfile assembles a summary profile (the decode path of
// snapshot/wire displays) from column summaries and each column's
// truncated histogram, tops[i] for column i as key/weight pairs in any
// order (nil or empty for none). The cols slice is retained and its
// order preserved — the distance ground metric iterates columns in
// declaration order, so order is part of a display's identity. The
// pairs are copied into Profile.TopFreq's form, one key and one weight
// array for the whole profile with each column's keys ascending, and
// tops is not retained.
func NewProfile(rows int, cols []ColumnProfile, tops [][]KeyWeight) *Profile {
	p := &Profile{Rows: rows, Columns: cols, byName: make(map[string]*ColumnProfile, len(cols))}
	for i := range p.Columns {
		p.byName[p.Columns[i].Name] = &p.Columns[i]
	}
	p.prep.Store(prepare(cols, sortedTops(len(cols), tops)))
	return p
}

// TopFreq returns column i's value histogram truncated to the
// TopFreqLimit most frequent values, with the remainder folded into the
// OtherBucket key. The display ground metric compares it, so
// high-cardinality columns (packet ids, ports) stay cheap to compare, and
// the wire encoder ships it.
func (p *Profile) TopFreq(i int) Hist { return p.prepared().cols[i].top }

// Ordinal returns how many columns before column i carry its name, so
// column i is the Ordinal(i)-th (0-based) column of that name.
func (p *Profile) Ordinal(i int) int { return p.prepared().cols[i].ordinal }

// DistinctNames returns the profile's column names without duplicates,
// in ascending byte order.
func (p *Profile) DistinctNames() []string { return p.prepared().names }

// prepared returns the profile's comparison form, truncating each
// column's Freq on the first call for a profile built from a table.
func (p *Profile) prepared() *prepared {
	if pr := p.prep.Load(); pr != nil {
		return pr
	}
	n := 0
	for j := range p.Columns {
		n += min(p.Columns[j].freq.Len(), TopFreqLimit+1)
	}
	keys, weights := make([]string, n), make([]float64, n)
	tops := make([]Hist, len(p.Columns))
	for j := range p.Columns {
		tops[j] = truncateHist(p.Columns[j].freq, TopFreqLimit, keys, weights)
		keys, weights = keys[len(tops[j].Keys):], weights[len(tops[j].Keys):]
	}
	// Racing callers prepare equal forms; the first published wins.
	p.prep.CompareAndSwap(nil, prepare(p.Columns, tops))
	return p.prep.Load()
}

// sortedTops returns the n histograms tops as key-sorted Hists sharing
// one key and one weight array, each sorted through a stack scratch of
// key-weight pairs.
func sortedTops(n int, tops [][]KeyWeight) []Hist {
	total := 0
	for _, top := range tops {
		total += len(top)
	}
	keys, weights := make([]string, total), make([]float64, total)
	out := make([]Hist, n)
	var scratch [TopFreqLimit + 1]KeyWeight
	for i := range out {
		pairs := scratch[:0]
		if i < len(tops) {
			pairs = append(pairs, tops[i]...)
		}
		slices.SortFunc(pairs, func(a, b KeyWeight) int { return strings.Compare(a.Key, b.Key) })
		top := Hist{Keys: keys[:len(pairs):len(pairs)], Weights: weights[:len(pairs):len(pairs)]}
		keys, weights = keys[len(pairs):], weights[len(pairs):]
		for j, e := range pairs {
			top.Keys[j], top.Weights[j] = e.Key, e.Weight
		}
		out[i] = top
	}
	return out
}

// prepare builds the comparison form of columns cols with truncated,
// key-sorted histograms tops.
func prepare(cols []ColumnProfile, tops []Hist) *prepared {
	pr := &prepared{cols: make([]preparedColumn, len(cols))}
	for i := range cols {
		for j := 0; j < i; j++ {
			if cols[j].Name == cols[i].Name {
				pr.cols[i].ordinal++
			}
		}
		pr.cols[i].top = tops[i]
	}
	pr.names = make([]string, len(cols))
	for i := range cols {
		pr.names[i] = cols[i].Name
	}
	slices.Sort(pr.names)
	pr.names = slices.Compact(pr.names)
	return pr
}

// GetProfile computes (once) and returns the display's profile.
func (d *Display) GetProfile() *Profile {
	d.profileOnce.Do(func() {
		d.profile = buildProfile(d.Table)
	})
	return d.profile
}

// TopFreqLimit is the number of most-frequent values Profile.TopFreq
// keeps before folding the tail into OtherBucket, so a truncated
// histogram holds at most TopFreqLimit+1 keys.
const TopFreqLimit = 24

// OtherBucket is the TopFreq key that absorbs the frequency mass of all
// values beyond the TopFreqLimit most frequent ones.
const OtherBucket = "\x00other"

// truncateHist returns h as Profile.TopFreq holds it, written into the
// front of keys and weights: all of h when it has at most limit keys,
// and otherwise its limit most frequent keys (ties broken by key, as ids
// order as keys do) plus OtherBucket holding the rest of the mass, summed
// from the most frequent down. Keys ascend by bytes.
func truncateHist(h *stats.IDHist, limit int, keys []string, weights []float64) Hist {
	n := h.Len()
	if n <= limit {
		for i := 0; i < n; i++ {
			keys[i], weights[i] = h.Key(i), h.Weights[i]
		}
		return Hist{Keys: keys[:n:n], Weights: weights[:n:n]}
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		if c := cmp.Compare(h.Weights[b], h.Weights[a]); c != 0 {
			return c
		}
		return a - b
	})
	other := 0.0
	for _, i := range order[limit:] {
		other += h.Weights[i]
	}
	kept := order[:limit]
	slices.Sort(kept)
	top := Hist{Keys: keys[:0], Weights: weights[:0]}
	for _, i := range kept {
		top.Keys = append(top.Keys, h.Key(i))
		top.Weights = append(top.Weights, h.Weights[i])
	}
	// A kept value spelled like OtherBucket holds the rest of the mass
	// instead, as in a histogram keyed by string.
	if at, found := slices.BinarySearch(top.Keys, OtherBucket); found {
		top.Weights[at] = other
	} else {
		top.Keys = slices.Insert(top.Keys, at, OtherBucket)
		top.Weights = slices.Insert(top.Weights, at, other)
	}
	m := len(top.Keys)
	return Hist{Keys: top.Keys[:m:m], Weights: top.Weights[:m:m]}
}

func buildProfile(t *dataset.Table) *Profile {
	p := &Profile{Rows: t.NumRows(), byName: make(map[string]*ColumnProfile, t.NumCols())}
	p.Columns = make([]ColumnProfile, t.NumCols())
	hists := make([]stats.IDHist, t.NumCols())
	var counts []int32
	for j := 0; j < t.NumCols(); j++ {
		col := t.Column(j)
		cp := ColumnProfile{Name: col.Name, Kind: col.Kind, freq: &hists[j]}
		counts = countIDs(cp.freq, col.Dict(), col.IDs(), counts)
		cp.Distinct = cp.freq.Len()
		n := col.Len()
		isNum := col.Kind == dataset.KindInt || col.Kind == dataset.KindFloat || col.Kind == dataset.KindTime
		cp.IsNumeric = isNum
		if isNum && n > 0 {
			var sum, sumSq float64
			for i := 0; i < n; i++ {
				f := col.Value(i).Float()
				sum += f
				sumSq += f * f
				if i == 0 || f < cp.Min {
					cp.Min = f
				}
				if i == 0 || f > cp.Max {
					cp.Max = f
				}
			}
			cp.Mean = sum / float64(n)
			variance := sumSq/float64(n) - cp.Mean*cp.Mean
			if variance < 0 {
				variance = 0
			}
			cp.Std = math.Sqrt(variance)
		}
		p.Columns[j] = cp
		p.byName[col.Name] = &p.Columns[j]
	}
	return p
}

// countIDs fills h with the histogram of ids over dict: the relative
// frequency float64(count)/float64(len(ids)) of each id present. It
// counts into counts, grown to the dictionary's length, and returns it
// for reuse.
func countIDs(h *stats.IDHist, dict []string, ids []uint32, counts []int32) []int32 {
	h.Dict = dict
	n := len(ids)
	if n == 0 {
		return counts
	}
	if cap(counts) < len(dict) {
		counts = make([]int32, len(dict))
	}
	counts = counts[:len(dict)]
	clear(counts)
	distinct := 0
	for _, id := range ids {
		if counts[id] == 0 {
			distinct++
		}
		counts[id]++
	}
	h.IDs, h.Weights = make([]uint32, 0, distinct), make([]float64, 0, distinct)
	for id, c := range counts {
		if c > 0 {
			h.IDs = append(h.IDs, uint32(id))
			h.Weights = append(h.Weights, float64(c)/float64(n))
		}
	}
	return counts
}
