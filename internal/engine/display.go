package engine

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/dataset"
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
	// Freq maps a value's string form to its relative frequency.
	Freq map[string]float64
	// TopFreq is the truncated histogram of a column without Freq (a
	// decoded summary, assembled by NewProfile). A profile built from a
	// table leaves it nil: read any column's truncated histogram through
	// Profile.TopFreq, which derives it from Freq on first use.
	TopFreq map[string]float64
	// Distinct is the number of distinct values.
	Distinct int
	// Numeric moments; only meaningful for int/float/time columns.
	Mean, Std, Min, Max float64
	IsNumeric           bool
}

// Profile caches per-column summaries of the display's table. Computing a
// profile is O(rows x cols) so displays memoize it; Profile is safe for
// concurrent use.
type Profile struct {
	Rows    int
	Columns []ColumnProfile
	byName  map[string]*ColumnProfile

	// top holds the truncated histograms derived from Freq, one per
	// column, published by the first TopFreq call. Only displays compared
	// by the distance metric or encoded for the wire ever derive them.
	top atomic.Pointer[[]map[string]float64]
}

// Column returns the named column profile, or nil.
func (p *Profile) Column(name string) *ColumnProfile { return p.byName[name] }

// NewProfile assembles a profile from externally supplied column
// summaries (the decode path of snapshot/wire displays), wiring the
// by-name index. The cols slice is retained; column order is preserved —
// the distance ground metric iterates columns in declaration order, so
// order is part of a display's identity.
func NewProfile(rows int, cols []ColumnProfile) *Profile {
	p := &Profile{Rows: rows, Columns: cols, byName: make(map[string]*ColumnProfile, len(cols))}
	for i := range p.Columns {
		p.byName[p.Columns[i].Name] = &p.Columns[i]
	}
	return p
}

// TopFreq returns column i's value histogram truncated to the
// TopFreqLimit most frequent values, with the remainder folded into the
// OtherBucket key. The display ground metric compares it, so
// high-cardinality columns (packet ids, ports) stay cheap to compare, and
// the wire encoder ships it. A column without Freq (a decoded summary)
// returns its ColumnProfile.TopFreq as given. A profile built from a
// table derives every column's histogram from Freq on the first call;
// scoring never asks, so displays that are only scored never sort their
// columns for it.
func (p *Profile) TopFreq(i int) map[string]float64 {
	if p.Columns[i].Freq == nil {
		return p.Columns[i].TopFreq
	}
	top := p.top.Load()
	if top == nil {
		derived := make([]map[string]float64, len(p.Columns))
		for j := range p.Columns {
			if f := p.Columns[j].Freq; len(f) > 0 {
				derived[j] = truncateFreq(f, TopFreqLimit)
			}
		}
		// Racing callers derive equal histograms; the first published wins.
		p.top.CompareAndSwap(nil, &derived)
		top = p.top.Load()
	}
	return (*top)[i]
}

// GetProfile computes (once) and returns the display's profile.
func (d *Display) GetProfile() *Profile {
	d.profileOnce.Do(func() {
		d.profile = buildProfile(d.Table)
	})
	return d.profile
}

// TopFreqLimit is the number of most-frequent values Profile.TopFreq
// keeps before folding the tail into OtherBucket.
const TopFreqLimit = 24

// OtherBucket is the TopFreq key that absorbs the frequency mass of all
// values beyond the TopFreqLimit most frequent ones.
const OtherBucket = "\x00other"

// truncateFreq keeps the limit most frequent entries of freq (ties broken
// by key for determinism) and folds the rest into OtherBucket.
func truncateFreq(freq map[string]float64, limit int) map[string]float64 {
	if len(freq) <= limit {
		return freq
	}
	type kv struct {
		k string
		v float64
	}
	all := make([]kv, 0, len(freq))
	for k, v := range freq {
		all = append(all, kv{k, v})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].v != all[j].v {
			return all[i].v > all[j].v
		}
		return all[i].k < all[j].k
	})
	out := make(map[string]float64, limit+1)
	other := 0.0
	for i, e := range all {
		if i < limit {
			out[e.k] = e.v
		} else {
			other += e.v
		}
	}
	out[OtherBucket] = other
	return out
}

func buildProfile(t *dataset.Table) *Profile {
	p := &Profile{Rows: t.NumRows(), byName: make(map[string]*ColumnProfile, t.NumCols())}
	p.Columns = make([]ColumnProfile, t.NumCols())
	for j := 0; j < t.NumCols(); j++ {
		col := t.Column(j)
		cp := ColumnProfile{
			Name: col.Name,
			Kind: col.Kind,
			Freq: make(map[string]float64),
		}
		n := col.Len()
		isNum := col.Kind == dataset.KindInt || col.Kind == dataset.KindFloat || col.Kind == dataset.KindTime
		cp.IsNumeric = isNum
		var sum, sumSq float64
		first := true
		for i := 0; i < n; i++ {
			v := col.Value(i)
			cp.Freq[v.String()]++
			if isNum {
				f := v.Float()
				sum += f
				sumSq += f * f
				if first || f < cp.Min {
					cp.Min = f
				}
				if first || f > cp.Max {
					cp.Max = f
				}
				first = false
			}
		}
		cp.Distinct = len(cp.Freq)
		if n > 0 {
			for k := range cp.Freq {
				cp.Freq[k] /= float64(n)
			}
			if isNum {
				cp.Mean = sum / float64(n)
				variance := sumSq/float64(n) - cp.Mean*cp.Mean
				if variance < 0 {
					variance = 0
				}
				cp.Std = math.Sqrt(variance)
			}
		}
		p.Columns[j] = cp
		p.byName[col.Name] = &p.Columns[j]
	}
	return p
}
