package engine

import (
	"sort"

	"repro/internal/dataset"
)

// EnumerateOptions bounds candidate-action generation.
type EnumerateOptions struct {
	// MaxFilterValuesPerColumn caps how many distinct values of a
	// categorical column yield equality-filter candidates (most frequent
	// first). <=0 means 8.
	MaxFilterValuesPerColumn int
	// NumericQuantiles are the quantiles at which > / < filter candidates
	// are generated for numeric columns. Nil means {0.25, 0.5, 0.75}.
	NumericQuantiles []float64
	// IncludeAggregates enables sum/avg/min/max candidates per
	// (group column, numeric column) pair in addition to counts.
	IncludeAggregates bool
	// IncludeTopK enables top-k candidates on numeric columns (kept off
	// by default so that reference sets match the paper's filter/group
	// action vocabulary).
	IncludeTopK bool
	// TopKSizes are the k values enumerated when IncludeTopK is set;
	// nil means {5, 10}.
	TopKSizes []int
	// MaxCategoricalCardinality skips group-by/filter enumeration on
	// categorical columns with more distinct values than this (such
	// columns — e.g. a packet-id — are unlikely analysis targets).
	// <=0 means 64.
	MaxCategoricalCardinality int
}

func (o EnumerateOptions) withDefaults() EnumerateOptions {
	if o.MaxFilterValuesPerColumn <= 0 {
		o.MaxFilterValuesPerColumn = 8
	}
	if o.NumericQuantiles == nil {
		o.NumericQuantiles = []float64{0.25, 0.5, 0.75}
	}
	if o.MaxCategoricalCardinality <= 0 {
		o.MaxCategoricalCardinality = 64
	}
	return o
}

// EnumerateActions generates the candidate analysis actions applicable to a
// display. It is the primitive behind (a) the reference sets R(q) of the
// Reference-Based comparison, (b) the simulator's choice set, and (c) the
// next-action recommendation example.
//
// The candidate set contains, subject to the options' caps:
//   - group[c].count() for every categorical column c;
//   - group[c].agg(v) for every categorical c and numeric v when
//     IncludeAggregates is set;
//   - filter[c == val] for the most frequent values of each categorical
//     column;
//   - filter[v > q] and filter[v <= q] at the configured quantiles of each
//     numeric column.
func EnumerateActions(d *Display, opts EnumerateOptions) []*Action {
	opts = opts.withDefaults()
	t := d.Table
	prof := d.GetProfile()
	var out []*Action

	var catCols, numCols []string
	for _, cp := range prof.Columns {
		if d.Aggregated && cp.Name == d.ValueColumn {
			// The synthetic aggregate column supports numeric filters but
			// not regrouping.
			numCols = append(numCols, cp.Name)
			continue
		}
		if cp.IsNumeric && cp.Kind != dataset.KindTime {
			numCols = append(numCols, cp.Name)
			// Low-cardinality numeric columns (e.g. port numbers) also
			// work as group targets.
			if cp.Distinct <= opts.MaxCategoricalCardinality {
				catCols = append(catCols, cp.Name)
			}
			continue
		}
		if cp.Kind == dataset.KindTime {
			numCols = append(numCols, cp.Name)
			continue
		}
		if cp.Distinct <= opts.MaxCategoricalCardinality {
			catCols = append(catCols, cp.Name)
		}
	}

	// Group candidates.
	for _, c := range catCols {
		out = append(out, NewGroupCount(c))
		if opts.IncludeAggregates {
			for _, v := range numCols {
				if v == c {
					continue
				}
				out = append(out, NewGroupAgg(c, AggSum, v))
				out = append(out, NewGroupAgg(c, AggAvg, v))
			}
		}
	}

	// Categorical equality filters on the most frequent values.
	for _, c := range catCols {
		counts := t.ValueCounts(c)
		limit := opts.MaxFilterValuesPerColumn
		if limit > len(counts) {
			limit = len(counts)
		}
		for i := 0; i < limit; i++ {
			out = append(out, NewFilter(Predicate{Column: c, Op: OpEq, Operand: counts[i].Value}))
		}
	}

	// Top-k candidates on numeric columns.
	if opts.IncludeTopK {
		sizes := opts.TopKSizes
		if sizes == nil {
			sizes = []int{5, 10}
		}
		for _, c := range numCols {
			for _, k := range sizes {
				if k < d.Table.NumRows() {
					out = append(out, NewTopK(c, k, false))
				}
			}
		}
	}

	// Numeric threshold filters at quantiles.
	for _, c := range numCols {
		col := t.ColumnByName(c)
		if col == nil || col.Len() == 0 {
			continue
		}
		vals := make([]float64, col.Len())
		for i := 0; i < col.Len(); i++ {
			vals[i] = col.Value(i).Float()
		}
		sort.Float64s(vals)
		for _, q := range opts.NumericQuantiles {
			thr := quantileSorted(vals, q)
			operand := numericOperand(col.Kind, thr)
			out = append(out, NewFilter(Predicate{Column: c, Op: OpGt, Operand: operand}))
			out = append(out, NewFilter(Predicate{Column: c, Op: OpLe, Operand: operand}))
		}
	}
	return out
}

func numericOperand(kind dataset.Kind, f float64) dataset.Value {
	switch kind {
	case dataset.KindInt:
		return dataset.I(int64(f))
	case dataset.KindTime:
		return dataset.Value{Kind: dataset.KindTime, TimeNS: int64(f)}
	default:
		return dataset.F(f)
	}
}

// quantileSorted returns the q-th quantile of the ascending xs with
// linear interpolation.
func quantileSorted(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	if q <= 0 {
		return xs[0]
	}
	if q >= 1 {
		return xs[n-1]
	}
	pos := q * float64(n-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= n {
		return xs[n-1]
	}
	return xs[lo]*(1-frac) + xs[lo+1]*frac
}
