// Package distance implements the session similarity notion used by the
// paper's kNN model: an ordered-tree edit distance between n-contexts
// (following the metric of Milo & Somech, KDD 2018) with two ground
// metrics — one comparing individual analysis actions by syntax and one
// comparing displays by content.
package distance

import (
	"math"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/session"
)

// mDisplayDistCalls counts display ground-metric computations: every
// direct DisplayDistance call (a Memo's misses among them), plus the
// evaluations an Evaluator tallies and adds in one write (Flush).
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
	colD := 1 - predicateColumnJaccard(a.Predicates, b.Predicates)
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

// predicateColumnJaccard is the Jaccard similarity of two filters' sets
// of predicate columns (Action.Columns), 1 when both are empty. It counts
// each column at its first predicate and looks it up in the other
// filter, so it allocates nothing.
func predicateColumnJaccard(a, b []engine.Predicate) float64 {
	inter, union := 0, 0
	for i := range a {
		if hasColumn(a[:i], a[i].Column) {
			continue
		}
		union++
		if hasColumn(b, a[i].Column) {
			inter++
		}
	}
	for j := range b {
		if !hasColumn(b[:j], b[j].Column) && !hasColumn(a, b[j].Column) {
			union++
		}
	}
	return jaccardCounts(inter, union)
}

func hasColumn(ps []engine.Predicate, col string) bool {
	for i := range ps {
		if ps[i].Column == col {
			return true
		}
	}
	return false
}

// jaccardCounts is |A ∩ B| / |A ∪ B| from the two counts, 1 for two
// empty sets.
func jaccardCounts(inter, union int) float64 {
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
	mDisplayDistCalls.Inc()
	return displayDistance(a, b)
}

// displayDistance is DisplayDistance without the call counter. It reads
// each profile's prepared form (engine.Profile.TopFreq, DistinctNames,
// Ordinal), built once per display, and once both are built it
// allocates nothing.
func displayDistance(a, b *engine.Display) float64 {
	switch {
	case a == nil && b == nil:
		return 0
	case a == nil || b == nil:
		return 1
	}
	pa, pb := a.GetProfile(), b.GetProfile()

	schemaD := 1 - sortedJaccard(pa.DistinctNames(), pb.DistinctNames())

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
	for i := range pa.Columns {
		j := nthColumn(pb, pa.Columns[i].Name, pa.Ordinal(i))
		if j < 0 {
			continue
		}
		shared++
		contentD += totalVariationSorted(pa.TopFreq(i), pb.TopFreq(j))
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

// sortedJaccard is the Jaccard similarity of two sets given as ascending
// duplicate-free lists, 1 when both are empty.
func sortedJaccard(a, b []string) float64 {
	inter, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			inter++
			i++
			j++
		}
	}
	return jaccardCounts(inter, len(a)+len(b)-inter)
}

// totalVariationSorted is half the L1 distance between two truncated
// histograms, a [0, 1] distance between discrete distributions. It
// merge-walks the two key-sorted vectors, so it sums |a[k] − b[k]| over
// the union of keys in ascending order with a key missing from one side
// read as 0 — a fixed order, since float addition is not associative and
// the pipeline's determinism contract is bit-for-bit (DESIGN.md,
// "Determinism under fan-out"). One-sided keys keep the subtraction
// against 0 that a map lookup of a missing key gave.
func totalVariationSorted(a, b engine.Hist) float64 {
	d, i, j := 0.0, 0, 0
	for i < len(a.Keys) && j < len(b.Keys) {
		switch {
		case a.Keys[i] < b.Keys[j]:
			d += math.Abs(a.Weights[i] - 0)
			i++
		case a.Keys[i] > b.Keys[j]:
			d += math.Abs(0 - b.Weights[j])
			j++
		default:
			d += math.Abs(a.Weights[i] - b.Weights[j])
			i++
			j++
		}
	}
	for ; i < len(a.Keys); i++ {
		d += math.Abs(a.Weights[i] - 0)
	}
	for ; j < len(b.Keys); j++ {
		d += math.Abs(0 - b.Weights[j])
	}
	return d / 2
}

// NodeDistance is the relabel cost between two context nodes: an equal
// blend of the action and display ground metrics (a root node's missing
// incoming action compares as nil).
func NodeDistance(a, b *session.CtxNode) float64 {
	return 0.5*ActionDistance(a.Action, b.Action) + 0.5*DisplayDistance(a.Display, b.Display)
}
