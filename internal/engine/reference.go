package engine

import (
	"sync"

	"repro/internal/stats"
)

// references is the prepared reference state of a display that other
// displays are compared with: the session root, against which the
// Deviation measure scores every display of the session. It lives as long
// as the display, so every analysis, simulation and recommendation over
// one root shares it.
type references struct {
	// columns holds one prepared histogram per profile column, by name.
	columnsOnce sync.Once
	columns     map[string]*stats.Reference
	// groups maps a grouping to its prepared group histogram, or to nil
	// when the grouping does not execute on this display.
	groups sync.Map // grouping -> *stats.Reference
}

// grouping identifies a group-and-aggregate of a display.
type grouping struct {
	by, aggColumn string
	agg           AggFunc
}

func (d *Display) references() *references {
	if r := d.refs.Load(); r != nil {
		return r
	}
	d.refs.CompareAndSwap(nil, new(references))
	return d.refs.Load()
}

// ColumnReference returns the value histogram (ColumnProfile.Freq) of the
// display's column name prepared as a KL reference, or nil when the
// display has no such column. The display's columns are prepared together
// on the first call.
func (d *Display) ColumnReference(name string) *stats.Reference {
	r := d.references()
	r.columnsOnce.Do(func() {
		prof := d.GetProfile()
		r.columns = make(map[string]*stats.Reference, len(prof.byName))
		for name, cp := range prof.byName {
			r.columns[name] = stats.NewReference(cp.Freq())
		}
	})
	return r.columns[name]
}

// GroupReference returns the group histogram (GroupWeights) of the
// display grouped by column by with aggregate agg over aggColumn,
// prepared as a KL reference, or nil when that grouping fails to execute.
// Each grouping executes once per display.
func (d *Display) GroupReference(by string, agg AggFunc, aggColumn string) *stats.Reference {
	r := d.references()
	key := grouping{by: by, aggColumn: aggColumn, agg: agg}
	if v, ok := r.groups.Load(key); ok {
		return v.(*stats.Reference)
	}
	var ref *stats.Reference
	g, err := Execute(d, &Action{Type: ActionGroup, GroupBy: by, Agg: agg, AggColumn: aggColumn})
	if err == nil {
		ref = stats.NewReference(g.GroupWeights())
	}
	// Racing builders compute equal references; the first stored wins.
	v, _ := r.groups.LoadOrStore(key, ref)
	return v.(*stats.Reference)
}

// GroupWeights returns each group's aggregate value of an aggregated
// display as a histogram over its group column's dictionary. It is empty
// when the display lacks its group or value column.
func (d *Display) GroupWeights() *stats.IDHist {
	gc := d.Table.ColumnByName(d.GroupColumn)
	vc := d.Table.ColumnByName(d.ValueColumn)
	if gc == nil || vc == nil {
		return &stats.IDHist{}
	}
	// last[id] is one past the last row holding id, or 0.
	dict, ids := gc.Dict(), gc.IDs()
	last := make([]int, len(dict))
	for row, id := range ids {
		last[id] = row + 1
	}
	h := &stats.IDHist{Dict: dict}
	for id, row := range last {
		if row > 0 {
			h.IDs = append(h.IDs, uint32(id))
			h.Weights = append(h.Weights, vc.Value(row-1).Float())
		}
	}
	return h
}
