// Package distance implements the session similarity notion used by the
// paper's kNN model: an ordered-tree edit distance between n-contexts
// (following the metric of Milo & Somech, KDD 2018) with two ground
// metrics — one comparing individual analysis actions by syntax and one
// comparing displays by content.
package distance

import (
	"math"
	"sort"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/session"
)

// mDisplayDistCalls counts actual ground-metric computations (memo misses
// land here through Memo; direct calls always do).
var mDisplayDistCalls = obs.C("distance.display.calls")

// ActionDistance compares two actions' syntax on a [0, 1] scale: 0 for
// identical actions, 1 for actions of different types; within a type it
// blends column overlap, operator agreement and operand/aggregate
// agreement.
func ActionDistance(a, b *engine.Action) float64 {
	switch {
	case a == nil && b == nil:
		return 0
	case a == nil || b == nil:
		return 1
	case a.Type != b.Type:
		return 1
	}
	switch a.Type {
	case engine.ActionFilter:
		return filterDistance(a, b)
	case engine.ActionGroup:
		return groupDistance(a, b)
	case engine.ActionTopK:
		return topKDistance(a, b)
	default:
		return 0
	}
}

func topKDistance(a, b *engine.Action) float64 {
	d := 0.0
	if a.SortColumn != b.SortColumn {
		d += 0.6
	}
	if a.Ascending != b.Ascending {
		d += 0.2
	}
	if a.K != b.K {
		// Log-scale gap between the cut-offs, capped at the remaining
		// budget.
		gap := math.Abs(math.Log(float64(maxInt(a.K, 1))) - math.Log(float64(maxInt(b.K, 1))))
		d += math.Min(0.2, 0.2*gap/math.Log(100))
	}
	return d
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func filterDistance(a, b *engine.Action) float64 {
	colD := 1 - jaccard(a.Columns(), b.Columns())
	// Operator and operand agreement over best-effort predicate pairing
	// (predicates paired by column).
	opAgree, operandAgree, pairs := 0.0, 0.0, 0
	for _, pa := range a.Predicates {
		for _, pb := range b.Predicates {
			if pa.Column != pb.Column {
				continue
			}
			pairs++
			if pa.Op == pb.Op {
				opAgree++
			}
			if pa.Operand.Equal(pb.Operand) {
				operandAgree++
			}
		}
	}
	opD, operandD := 1.0, 1.0
	if pairs > 0 {
		opD = 1 - opAgree/float64(pairs)
		operandD = 1 - operandAgree/float64(pairs)
	}
	return 0.5*colD + 0.25*opD + 0.25*operandD
}

func groupDistance(a, b *engine.Action) float64 {
	d := 0.0
	if a.GroupBy != b.GroupBy {
		d += 0.5
	}
	if a.Agg != b.Agg {
		d += 0.25
	}
	if a.AggColumn != b.AggColumn {
		d += 0.25
	}
	return d
}

func jaccard(a, b []string) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	set := make(map[string]uint8, len(a)+len(b))
	for _, s := range a {
		set[s] |= 1
	}
	for _, s := range b {
		set[s] |= 2
	}
	inter, union := 0, 0
	for _, bits := range set {
		union++
		if bits == 3 {
			inter++
		}
	}
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}

// DisplayDistance compares two displays' content on a [0, 1] scale. It
// blends (a) schema overlap, (b) the log-scale row-count gap, (c) the
// total-variation distance between the value histograms of shared columns,
// and (d) aggregation-shape agreement.
func DisplayDistance(a, b *engine.Display) float64 {
	if obs.On() {
		mDisplayDistCalls.Inc()
	}
	switch {
	case a == nil && b == nil:
		return 0
	case a == nil || b == nil:
		return 1
	}
	pa, pb := a.GetProfile(), b.GetProfile()

	schemaD := 1 - jaccard(columnNames(pa), columnNames(pb))

	rowD := 0.0
	ra, rb := float64(a.NumRows()), float64(b.NumRows())
	if ra > 0 && rb > 0 {
		rowD = math.Abs(math.Log(ra)-math.Log(rb)) / math.Log(1e6)
		if rowD > 1 {
			rowD = 1
		}
	} else if ra != rb {
		rowD = 1
	}

	// Pair shared columns by (name, occurrence ordinal), not by a plain
	// name lookup: an aggregated display can carry duplicate column names
	// (e.g. grouping by "count" and counting into "count"), and a by-name
	// index would compare both duplicates against the same column — making
	// the metric non-reflexive (d(x, x) > 0). That asymmetry stayed hidden
	// in-process behind the memo's pointer-identity shortcut and only
	// surfaced once snapshot-reloaded displays stopped sharing pointers.
	contentD, shared := 0.0, 0
	occ := make(map[string]int, len(pa.Columns))
	for i := range pa.Columns {
		name := pa.Columns[i].Name
		j := nthColumn(pb, name, occ[name])
		occ[name]++
		if j < 0 {
			continue
		}
		shared++
		contentD += totalVariation(pa.TopFreq(i), pb.TopFreq(j))
	}
	if shared > 0 {
		contentD /= float64(shared)
	} else {
		contentD = 1
	}

	aggD := 0.0
	if a.Aggregated != b.Aggregated {
		aggD = 1
	} else if a.Aggregated && a.GroupColumn != b.GroupColumn {
		aggD = 0.5
	}

	return 0.25*schemaD + 0.15*rowD + 0.4*contentD + 0.2*aggD
}

// nthColumn returns the index of the n-th (0-based) column named name in
// declaration order, or -1 when fewer than n+1 columns carry the name.
func nthColumn(p *engine.Profile, name string, n int) int {
	for i := range p.Columns {
		if p.Columns[i].Name != name {
			continue
		}
		if n == 0 {
			return i
		}
		n--
	}
	return -1
}

func columnNames(p *engine.Profile) []string {
	out := make([]string, len(p.Columns))
	for i, c := range p.Columns {
		out[i] = c.Name
	}
	return out
}

// totalVariation is half the L1 distance between two frequency maps,
// a [0, 1] distance between discrete distributions. It accumulates over
// sorted keys: map iteration order is randomized per call, and float
// addition is not associative, so summing in map order would let two
// identical calls differ in the last ULP — breaking the pipeline's
// bit-identical determinism contract (DESIGN.md, "Determinism under
// fan-out").
func totalVariation(a, b map[string]float64) float64 {
	keys := make([]string, 0, len(a)+len(b))
	for k := range a {
		keys = append(keys, k)
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	d := 0.0
	for _, k := range keys {
		d += math.Abs(a[k] - b[k])
	}
	return d / 2
}

// NodeDistance is the relabel cost between two context nodes: an equal
// blend of the action and display ground metrics (a root node's missing
// incoming action compares as nil).
func NodeDistance(a, b *session.CtxNode) float64 {
	return 0.5*ActionDistance(a.Action, b.Action) + 0.5*DisplayDistance(a.Display, b.Display)
}
