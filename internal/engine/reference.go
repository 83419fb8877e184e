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
			r.columns[name] = stats.NewReference(cp.Freq)
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

// GroupWeights maps each group of an aggregated display, by its group
// value's string form, to its aggregate value. It is empty when the
// display lacks its group or value column.
func (d *Display) GroupWeights() map[string]float64 {
	out := make(map[string]float64, d.Table.NumRows())
	gc := d.Table.ColumnByName(d.GroupColumn)
	vc := d.Table.ColumnByName(d.ValueColumn)
	if gc == nil || vc == nil {
		return out
	}
	for i := 0; i < d.Table.NumRows(); i++ {
		out[gc.Value(i).String()] = vc.Value(i).Float()
	}
	return out
}
