package engine

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/dataset"
)

// Execution errors.
var (
	// ErrEmptyResult is returned when an action produces a display with no
	// rows; the offline analysis uses it to prune degenerate reference
	// actions (Section 4.1 omits reference results "comprising less than
	// two rows").
	ErrEmptyResult = errors.New("engine: action produced an empty display")
	// ErrUnknownColumn is returned when an action references a column the
	// parent display does not have.
	ErrUnknownColumn = errors.New("engine: unknown column")
)

// Execute runs an analysis action on a parent display and returns the
// resulting display. The parent is not modified. ActionBack is handled at
// the session layer (it navigates, it does not compute) and is rejected
// here.
func Execute(parent *Display, a *Action) (*Display, error) {
	if parent == nil || a == nil {
		return nil, fmt.Errorf("engine: execute: nil parent or action")
	}
	switch a.Type {
	case ActionFilter:
		return executeFilter(parent, a)
	case ActionGroup:
		return executeGroup(parent, a)
	case ActionTopK:
		return executeTopK(parent, a)
	case ActionBack:
		return nil, fmt.Errorf("engine: execute: back actions are navigation, not computation")
	default:
		return nil, fmt.Errorf("engine: execute: unknown action type %v", a.Type)
	}
}

func executeTopK(parent *Display, a *Action) (*Display, error) {
	t := parent.Table
	c := t.ColumnByName(a.SortColumn)
	if c == nil {
		return nil, fmt.Errorf("%w: top-k %q", ErrUnknownColumn, a.SortColumn)
	}
	if a.K < 1 {
		return nil, fmt.Errorf("engine: top-k with k = %d", a.K)
	}
	n := t.NumRows()
	rows := make([]int, n)
	for i := range rows {
		rows[i] = i
	}
	// Stable order: sort by value, ties by original row index, so the
	// same action on the same display always yields the same result.
	sort.SliceStable(rows, func(i, j int) bool {
		cmp := c.Value(rows[i]).Compare(c.Value(rows[j]))
		if a.Ascending {
			return cmp < 0
		}
		return cmp > 0
	})
	if n > a.K {
		rows = rows[:a.K]
	}
	if len(rows) == 0 {
		return nil, ErrEmptyResult
	}
	d := &Display{
		Table:       t.Select(rows),
		FromAction:  a.Clone(),
		OriginRows:  parent.OriginRows,
		CoveredRows: len(rows),
	}
	// A top-k over an aggregated display keeps its aggregation shape
	// (top 5 protocols by count is still one row per group).
	if parent.Aggregated {
		d.Aggregated = true
		d.GroupColumn = parent.GroupColumn
		d.ValueColumn = parent.ValueColumn
	}
	return d, nil
}

func executeFilter(parent *Display, a *Action) (*Display, error) {
	t := parent.Table
	if len(a.Predicates) == 0 {
		return nil, fmt.Errorf("engine: filter with no predicates")
	}
	cols := make([]*dataset.Column, len(a.Predicates))
	for i, p := range a.Predicates {
		c := t.ColumnByName(p.Column)
		if c == nil {
			return nil, fmt.Errorf("%w: %q", ErrUnknownColumn, p.Column)
		}
		cols[i] = c
	}
	var rows []int
	n := t.NumRows()
rowLoop:
	for i := 0; i < n; i++ {
		for j, p := range a.Predicates {
			if !p.Matches(cols[j].Value(i)) {
				continue rowLoop
			}
		}
		rows = append(rows, i)
	}
	if len(rows) == 0 {
		return nil, ErrEmptyResult
	}
	return &Display{
		Table:       t.Select(rows),
		FromAction:  a.Clone(),
		OriginRows:  parent.OriginRows,
		CoveredRows: len(rows),
	}, nil
}

func executeGroup(parent *Display, a *Action) (*Display, error) {
	t := parent.Table
	gc := t.ColumnByName(a.GroupBy)
	if gc == nil {
		return nil, fmt.Errorf("%w: group-by %q", ErrUnknownColumn, a.GroupBy)
	}
	var ac *dataset.Column
	if a.Agg != AggCount {
		ac = t.ColumnByName(a.AggColumn)
		if ac == nil {
			return nil, fmt.Errorf("%w: aggregate %q", ErrUnknownColumn, a.AggColumn)
		}
	}
	type groupState struct {
		key   dataset.Value
		count int
		sum   float64
		min   float64
		max   float64
	}
	groups := make(map[dataset.Value]*groupState)
	order := make([]*groupState, 0, 16)
	// A NaN key never equals itself, so the map would open a group per NaN
	// row and never find one again: every NaN row joins one group instead,
	// which sorts after every number.
	var nan *groupState
	floatKeys := gc.Kind == dataset.KindFloat
	n := t.NumRows()
	for i := 0; i < n; i++ {
		k := gc.Value(i)
		var g *groupState
		if floatKeys && k.Flt != k.Flt {
			if nan == nil {
				nan = &groupState{key: k}
			}
			g = nan
		} else if g = groups[k]; g == nil {
			g = &groupState{key: k}
			groups[k] = g
			order = append(order, g)
		}
		g.count++
		if ac != nil {
			f := ac.Value(i).Float()
			g.sum += f
			if g.count == 1 || f < g.min {
				g.min = f
			}
			if g.count == 1 || f > g.max {
				g.max = f
			}
		}
	}
	// Deterministic output order: sort groups by key so identical actions
	// always yield identical displays (needed for byte-stable logs).
	sort.Slice(order, func(i, j int) bool { return order[i].key.Compare(order[j].key) < 0 })
	if nan != nil {
		order = append(order, nan)
	}
	if len(order) == 0 {
		return nil, ErrEmptyResult
	}

	valueName := a.Agg.String()
	if a.AggColumn != "" {
		valueName = a.Agg.String() + "_" + a.AggColumn
	}
	b := dataset.NewBuilder(t.Name(), dataset.Schema{
		{Name: a.GroupBy, Kind: gc.Kind},
		{Name: valueName, Kind: dataset.KindFloat},
	})
	for _, g := range order {
		var v float64
		switch a.Agg {
		case AggCount:
			v = float64(g.count)
		case AggSum:
			v = g.sum
		case AggAvg:
			v = g.sum / float64(g.count)
		case AggMin:
			v = g.min
		case AggMax:
			v = g.max
		}
		b.Append(g.key, dataset.F(v))
	}
	table, err := b.Build()
	if err != nil {
		return nil, err
	}
	return &Display{
		Table:       table,
		FromAction:  a.Clone(),
		Aggregated:  true,
		GroupColumn: a.GroupBy,
		ValueColumn: valueName,
		OriginRows:  parent.OriginRows,
		CoveredRows: n,
	}, nil
}
