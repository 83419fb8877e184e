// Package measures implements the eight interestingness measures of the
// paper's Table 1, grouped into the four facets (classes) Diversity,
// Dispersion, Peculiarity and Conciseness, plus a registry that supports
// user-defined measures.
//
// A measure scores an action q together with its results display d
// (i(q, d) in the paper); some measures additionally consult the parent
// display or the session's root display d0 (the Deviation measure's
// reference display). Higher scores mean "more interesting" with respect
// to the facet the measure captures.
package measures

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/dataset"
	"repro/internal/engine"
)

// Class is an interestingness facet per the categorization in the paper
// (following Geng & Hamilton and Hilderman & Hamilton).
type Class uint8

const (
	Diversity Class = iota
	Dispersion
	Peculiarity
	Conciseness
)

// Classes lists all facets in canonical order.
var Classes = []Class{Diversity, Dispersion, Peculiarity, Conciseness}

// String returns the class name as used in the paper's figures.
func (c Class) String() string {
	switch c {
	case Diversity:
		return "Diversity"
	case Dispersion:
		return "Dispersion"
	case Peculiarity:
		return "Peculiarity"
	case Conciseness:
		return "Conciseness"
	default:
		return fmt.Sprintf("Class(%d)", uint8(c))
	}
}

// ParseClass inverts Class.String.
func ParseClass(s string) (Class, error) {
	for _, c := range Classes {
		if c.String() == s {
			return c, nil
		}
	}
	return 0, fmt.Errorf("measures: unknown class %q", s)
}

// Context carries everything a measure may consult when scoring one action:
// the action, its results display, the parent display it was executed from,
// and the session's root display d0 (the reference display for
// deviation-based peculiarity). Distribution extraction is memoized, so
// scoring all eight measures against one Context profiles the display once.
type Context struct {
	Action  *engine.Action
	Display *engine.Display
	Parent  *engine.Display
	Root    *engine.Display

	once  sync.Once
	dists []Distribution
}

// Distribution is a named discrete probability distribution extracted from
// a display, with the raw magnitudes kept for element-level measures.
type Distribution struct {
	// Column is the display column the distribution describes; for an
	// aggregated display it is the group column.
	Column string
	// P are relative frequencies (sum to 1).
	P []float64
	// Raw are the underlying magnitudes (aggregate values or counts)
	// before normalization, aligned with P.
	Raw []float64
	// Keys are the string forms of the cell identities, aligned with P;
	// used to align against a reference display's distribution.
	Keys []string
}

// Distributions extracts (once) the display's distributions:
//
//   - For an aggregated display: one distribution over the groups, with
//     p_j = v_j / Σv_k exactly as in Table 1 of the paper.
//   - For a raw (filter-result) display: one distribution per column — the
//     value-frequency histogram for categorical columns, a 10-bin
//     equal-width histogram for numeric columns.
func (c *Context) Distributions() []Distribution {
	c.once.Do(func() { c.dists = extractDistributions(c.Display) })
	return c.dists
}

const numericBins = 10

// binKeys are the keys of a binned numeric distribution's cells.
var binKeys = [numericBins]string{"bin0", "bin1", "bin2", "bin3", "bin4", "bin5", "bin6", "bin7", "bin8", "bin9"}

func extractDistributions(d *engine.Display) []Distribution {
	if d == nil || d.Table == nil || d.Table.NumRows() == 0 {
		return nil
	}
	if d.Aggregated {
		vals := d.AggValues()
		keys := make([]string, d.Table.NumRows())
		if col := d.Table.ColumnByName(d.GroupColumn); col != nil {
			dict := col.Dict()
			for i, id := range col.IDs() {
				keys[i] = dict[id]
			}
		}
		return []Distribution{makeDistribution(d.GroupColumn, keys, vals)}
	}
	prof := d.GetProfile()
	out := make([]Distribution, 0, len(prof.Columns))
	for i := range prof.Columns {
		cp := &prof.Columns[i]
		if cp.IsNumeric && cp.Distinct > numericBins {
			out = append(out, binnedNumericDistribution(d.Table.ColumnByName(cp.Name)))
			continue
		}
		// The histogram's ids ascend, so its keys come sorted.
		h := cp.Freq()
		keys := make([]string, h.Len())
		raw := make([]float64, h.Len())
		for i := range keys {
			keys[i] = h.Key(i)
			raw[i] = h.Weights[i] * float64(prof.Rows)
		}
		out = append(out, makeDistribution(cp.Name, keys, raw))
	}
	return out
}

func binnedNumericDistribution(col *dataset.Column) Distribution {
	n := col.Len()
	lo, hi := math.Inf(1), math.Inf(-1)
	vals := make([]float64, n)
	for i := 0; i < n; i++ {
		f := col.Value(i).Float()
		vals[i] = f
		if f < lo {
			lo = f
		}
		if f > hi {
			hi = f
		}
	}
	raw := make([]float64, numericBins)
	width := (hi - lo) / numericBins
	for _, f := range vals {
		b := 0
		if width > 0 {
			b = int((f - lo) / width)
			if b >= numericBins {
				b = numericBins - 1
			}
		}
		raw[b]++
	}
	return makeDistribution(col.Name, binKeys[:], raw)
}

// makeDistribution normalizes raw into a Distribution, which keeps raw
// and keys.
func makeDistribution(column string, keys []string, raw []float64) Distribution {
	p := make([]float64, len(raw))
	sum := 0.0
	for _, v := range raw {
		if v > 0 {
			sum += v
		}
	}
	if sum > 0 {
		for i, v := range raw {
			if v > 0 {
				p[i] = v / sum
			}
		}
	} else if len(raw) > 0 {
		u := 1 / float64(len(raw))
		for i := range p {
			p[i] = u
		}
	}
	return Distribution{Column: column, P: p, Raw: raw, Keys: keys}
}

// Measure scores the interestingness facet it captures; higher is more
// interesting. Implementations must be safe for concurrent use.
type Measure interface {
	// Name is the measure's unique registry name (e.g. "variance").
	Name() string
	// Class is the facet the measure belongs to.
	Class() Class
	// Score returns i(q, d) for the context's action and display.
	Score(ctx *Context) float64
}

// Score is a convenience that builds a one-off Context and scores it.
func Score(m Measure, q *engine.Action, display, parent, root *engine.Display) float64 {
	return m.Score(&Context{Action: q, Display: display, Parent: parent, Root: root})
}

// meanOverDistributions applies f to every distribution of the context's
// display and averages — the documented semantics for applying an
// aggregation-oriented measure to a raw display.
func meanOverDistributions(ctx *Context, f func(Distribution) float64) float64 {
	dists := ctx.Distributions()
	if len(dists) == 0 {
		return 0
	}
	s := 0.0
	for _, d := range dists {
		s += f(d)
	}
	return s / float64(len(dists))
}
