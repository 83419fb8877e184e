package measures

import (
	"math"

	"repro/internal/engine"
	"repro/internal/stats"
)

// OSFMeasure is the Peculiarity measure "Outlier Score Function" of Table 1
// (Lin & Brown 2006). The original OSF scores the peculiarity of a single
// element within the examined display and the final display score is the
// maximum of the elements' individual scores.
//
// Substitution note (documented in DESIGN.md): Lin & Brown's incident-
// linking OSF is defined over clustered categorical incident data; this
// reproduction uses the standard robust-statistics formulation of an
// element outlier score — the MAD-standardized distance of each element's
// magnitude from the display's median,
//
//	z_j = |x_j - median(x)| / (1.4826·MAD(x) + ε)
//
// squashed to (0,1) via z/(1+z) — which preserves OSF's two defining
// properties: per-element scoring and max-aggregation.
type OSFMeasure struct{}

// Name implements Measure.
func (OSFMeasure) Name() string { return "osf" }

// Class implements Measure.
func (OSFMeasure) Class() Class { return Peculiarity }

// Score implements Measure.
func (OSFMeasure) Score(ctx *Context) float64 {
	if ctx.Display != nil && ctx.Display.Aggregated {
		return osfOf(ctx.Display.AggValues())
	}
	// Raw display: the most peculiar element across numeric columns.
	best := 0.0
	if ctx.Display == nil {
		return 0
	}
	t := ctx.Display.Table
	prof := ctx.Display.GetProfile()
	for _, cp := range prof.Columns {
		if !cp.IsNumeric {
			continue
		}
		col := t.ColumnByName(cp.Name)
		vals := make([]float64, col.Len())
		for i := range vals {
			vals[i] = col.Value(i).Float()
		}
		if s := osfOf(vals); s > best {
			best = s
		}
	}
	return best
}

func osfOf(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	med := stats.Median(xs)
	mad := stats.MADAbout(xs, med)
	scale := 1.4826*mad + 1e-9
	if mad == 0 {
		// Half the display identical: fall back to standard deviation so
		// a lone extreme value still registers.
		scale = stats.StdDev(xs) + 1e-9
	}
	maxZ := 0.0
	for _, x := range xs {
		z := math.Abs(x-med) / scale
		if z > maxZ {
			maxZ = z
		}
	}
	return maxZ / (1 + maxZ)
}

// DeviationMeasure is the Peculiarity measure "Deviation" of Table 1
// (following SeeDB): the Kullback-Leibler divergence between the display's
// distribution {p_j} and the distribution {p'_j} of the same quantity in a
// reference display — the session's root display d0.
//
// For an aggregated display, the reference distribution is obtained by
// re-grouping the root dataset by the display's group column (with the same
// aggregate); for a raw display the score is the maximum divergence across
// columns shared with the root.
type DeviationMeasure struct{}

// Name implements Measure.
func (DeviationMeasure) Name() string { return "deviation" }

// Class implements Measure.
func (DeviationMeasure) Class() Class { return Peculiarity }

// Score implements Measure.
func (DeviationMeasure) Score(ctx *Context) float64 {
	d := ctx.Display
	root := ctx.Root
	if d == nil || root == nil || d == root {
		return 0
	}
	if d.Aggregated {
		// Reference: the same grouping applied to the root dataset.
		ref := root.GroupReference(d.GroupColumn, aggOf(d), aggColumnOf(d))
		if ref == nil {
			return 0
		}
		return ref.KL(d.GroupWeights(), 1e-6)
	}
	// Raw display: maximum column-histogram divergence vs the root.
	prof := d.GetProfile()
	best := 0.0
	for i := range prof.Columns {
		cp := &prof.Columns[i]
		ref := root.ColumnReference(cp.Name)
		if ref == nil {
			continue
		}
		if kl := ref.KL(cp.Freq, 1e-6); kl > best {
			best = kl
		}
	}
	return best
}

func aggOf(d *engine.Display) engine.AggFunc {
	if d.FromAction != nil && d.FromAction.Type == engine.ActionGroup {
		return d.FromAction.Agg
	}
	return engine.AggCount
}

func aggColumnOf(d *engine.Display) string {
	if d.FromAction != nil && d.FromAction.Type == engine.ActionGroup {
		return d.FromAction.AggColumn
	}
	return ""
}
