package measures

import (
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/netlog"
	"repro/internal/stats"
)

// twoCallDeviation is the Deviation formula written out with the
// unprepared two-call KL (AlignedDistributions, then KLDivergence) and a
// fresh execution of the root grouping per call. DeviationMeasure must
// equal it to the bit.
func twoCallDeviation(d, root *engine.Display) float64 {
	if d == root {
		return 0
	}
	weights := func(d *engine.Display) map[string]float64 {
		out := make(map[string]float64)
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
	if d.Aggregated {
		ref, err := engine.Execute(root, &engine.Action{
			Type: engine.ActionGroup, GroupBy: d.GroupColumn, Agg: aggOf(d), AggColumn: aggColumnOf(d),
		})
		if err != nil {
			return 0
		}
		pa, pb := stats.AlignedDistributions(weights(d), weights(ref))
		return stats.KLDivergence(pa, pb, 1e-6)
	}
	rootProf := root.GetProfile()
	best := 0.0
	for _, cp := range d.GetProfile().Columns {
		rp := rootProf.Column(cp.Name)
		if rp == nil {
			continue
		}
		pa, pb := stats.AlignedDistributions(freqMap(cp.Freq()), freqMap(rp.Freq()))
		if kl := stats.KLDivergence(pa, pb, 1e-6); kl > best {
			best = kl
		}
	}
	return best
}

// freqMap returns an id histogram as a key->weight map.
func freqMap(h *stats.IDHist) map[string]float64 {
	m := make(map[string]float64, h.Len())
	for i, w := range h.Weights {
		m[h.Key(i)] = w
	}
	return m
}

// deviationCoverage counts what a bit-identity sweep exercised.
type deviationCoverage struct {
	raw, aggregated int
	// outside counts raw displays holding a column value the root's
	// column lacks: the keys Reference.KL must merge into the union.
	outside int
}

// checkDeviationSweep scores every display one enumeration step below
// root, and the displays below each aggregated one and every 8th raw one,
// with DeviationMeasure and with the two-call formula, to the bit.
func checkDeviationSweep(t *testing.T, root *engine.Display) deviationCoverage {
	t.Helper()
	var cov deviationCoverage
	m := DeviationMeasure{}
	opts := engine.EnumerateOptions{IncludeAggregates: true, IncludeTopK: true}
	check := func(d *engine.Display) {
		got := m.Score(&Context{Display: d, Root: root})
		want := twoCallDeviation(d, root)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("deviation of %s = %v (%#x), two-call formula %v (%#x)",
				d.FromAction, got, math.Float64bits(got), want, math.Float64bits(want))
		}
		if d.Aggregated {
			cov.aggregated++
			return
		}
		cov.raw++
		rootProf := root.GetProfile()
		for _, cp := range d.GetProfile().Columns {
			rp := rootProf.Column(cp.Name)
			if rp == nil {
				continue
			}
			rootFreq := freqMap(rp.Freq())
			for k := range freqMap(cp.Freq()) {
				if _, ok := rootFreq[k]; !ok {
					cov.outside++
					return
				}
			}
		}
	}
	check(root)
	for i, a := range engine.EnumerateActions(root, opts) {
		d, err := engine.Execute(root, a)
		if err != nil {
			continue
		}
		check(d)
		if i%8 != 0 && !d.Aggregated {
			continue
		}
		for _, b := range engine.EnumerateActions(d, opts) {
			if dd, err := engine.Execute(d, b); err == nil {
				check(dd)
			}
		}
	}
	return cov
}

func TestDeviationMatchesTwoCallFormulaOnNetlog(t *testing.T) {
	root := engine.NewRootDisplay(netlog.Generate(netlog.PortScan, netlog.Config{Rows: 400, Seed: 5}))
	cov := checkDeviationSweep(t, root)
	if cov.raw == 0 || cov.aggregated == 0 {
		t.Fatalf("sweep covered %d raw and %d aggregated displays; want both", cov.raw, cov.aggregated)
	}
	// Scoring again reads the references prepared by the first sweep.
	checkDeviationSweep(t, root)
}

// TestDeviationMatchesTwoCallFormulaCountIntoCount covers a dataset with
// a column named "count": grouping it by "count" and counting into
// "count" yields a display with two columns of one name, and filtering
// that display gives raw displays whose "count" values the root's
// "count" column lacks.
func TestDeviationMatchesTwoCallFormulaCountIntoCount(t *testing.T) {
	logs := engine.NewRootDisplay(netlog.Generate(netlog.PortScan, netlog.Config{Rows: 400, Seed: 5}))
	perPort, err := engine.Execute(logs, engine.NewGroupCount("dst_port"))
	if err != nil {
		t.Fatal(err)
	}
	b := dataset.NewBuilder("ports", dataset.Schema{
		{Name: "dst_port", Kind: dataset.KindInt},
		{Name: "count", Kind: dataset.KindInt},
	})
	for i := 0; i < perPort.Table.NumRows(); i++ {
		b.Append(perPort.Table.Column(0).Value(i), dataset.I(int64(perPort.Table.Column(1).Value(i).Float())))
	}
	root := engine.NewRootDisplay(b.MustBuild())
	byCount, err := engine.Execute(root, engine.NewGroupCount("count"))
	if err != nil {
		t.Fatal(err)
	}
	if byCount.GroupColumn != "count" || byCount.ValueColumn != "count" {
		t.Fatalf("group[count].count() has columns %q and %q", byCount.GroupColumn, byCount.ValueColumn)
	}
	cov := checkDeviationSweep(t, root)
	if cov.aggregated == 0 || cov.outside == 0 {
		t.Fatalf("sweep covered %d aggregated displays and %d with keys outside the root; want both", cov.aggregated, cov.outside)
	}
}
