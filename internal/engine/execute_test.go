package engine

import (
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/dataset"
)

// trafficDisplay builds the running-example-style packet table: skewed
// protocol mix, a time column, and a length column with one outlier.
func trafficDisplay(t *testing.T) *Display {
	t.Helper()
	b := dataset.NewBuilder("traffic", dataset.Schema{
		{Name: "protocol", Kind: dataset.KindString},
		{Name: "dst_ip", Kind: dataset.KindString},
		{Name: "length", Kind: dataset.KindInt},
		{Name: "hour", Kind: dataset.KindInt},
	})
	rows := []struct {
		p, ip string
		l     int64
		h     int64
	}{
		{"HTTP", "10.0.0.1", 300, 9},
		{"HTTP", "10.0.0.1", 320, 10},
		{"HTTP", "10.0.0.2", 310, 22},
		{"HTTP", "10.0.0.2", 9000, 23},
		{"HTTPS", "10.0.0.3", 400, 11},
		{"HTTPS", "10.0.0.1", 410, 12},
		{"DNS", "10.0.0.9", 60, 13},
		{"SSH", "10.0.0.7", 150, 3},
	}
	for _, r := range rows {
		b.Append(dataset.S(r.p), dataset.S(r.ip), dataset.I(r.l), dataset.I(r.h))
	}
	return NewRootDisplay(b.MustBuild())
}

func TestExecuteFilterEquality(t *testing.T) {
	root := trafficDisplay(t)
	d, err := Execute(root, NewFilter(Predicate{Column: "protocol", Op: OpEq, Operand: dataset.S("HTTP")}))
	if err != nil {
		t.Fatal(err)
	}
	if d.NumRows() != 4 {
		t.Fatalf("HTTP rows = %d, want 4", d.NumRows())
	}
	if d.Aggregated {
		t.Error("filter result must not be aggregated")
	}
	if d.OriginRows != 8 || d.CoveredRows != 4 {
		t.Errorf("origin/covered = %d/%d, want 8/4", d.OriginRows, d.CoveredRows)
	}
	if d.FromAction == nil || d.FromAction.Type != ActionFilter {
		t.Error("provenance action missing")
	}
}

func TestExecuteFilterConjunction(t *testing.T) {
	root := trafficDisplay(t)
	// The running example's q2: HTTP after business hours.
	a := NewFilter(
		Predicate{Column: "protocol", Op: OpEq, Operand: dataset.S("HTTP")},
		Predicate{Column: "hour", Op: OpGt, Operand: dataset.I(19)},
	)
	d, err := Execute(root, a)
	if err != nil {
		t.Fatal(err)
	}
	if d.NumRows() != 2 {
		t.Fatalf("after-hours HTTP rows = %d, want 2", d.NumRows())
	}
}

func TestExecuteFilterOperators(t *testing.T) {
	root := trafficDisplay(t)
	cases := []struct {
		op   CompareOp
		val  dataset.Value
		col  string
		want int
	}{
		{OpNeq, dataset.S("HTTP"), "protocol", 4},
		{OpLt, dataset.I(300), "length", 2},
		{OpLe, dataset.I(300), "length", 3},
		{OpGe, dataset.I(9000), "length", 1},
		{OpContains, dataset.S("0.0.1"), "dst_ip", 3},
	}
	for _, c := range cases {
		d, err := Execute(root, NewFilter(Predicate{Column: c.col, Op: c.op, Operand: c.val}))
		if err != nil {
			t.Fatalf("%v: %v", c.op, err)
		}
		if d.NumRows() != c.want {
			t.Errorf("filter %v %v on %s: %d rows, want %d", c.op, c.val, c.col, d.NumRows(), c.want)
		}
	}
}

func TestExecuteFilterEmptyResult(t *testing.T) {
	root := trafficDisplay(t)
	_, err := Execute(root, NewFilter(Predicate{Column: "protocol", Op: OpEq, Operand: dataset.S("GOPHER")}))
	if !errors.Is(err, ErrEmptyResult) {
		t.Errorf("want ErrEmptyResult, got %v", err)
	}
}

func TestExecuteFilterUnknownColumn(t *testing.T) {
	root := trafficDisplay(t)
	_, err := Execute(root, NewFilter(Predicate{Column: "nope", Op: OpEq, Operand: dataset.S("x")}))
	if !errors.Is(err, ErrUnknownColumn) {
		t.Errorf("want ErrUnknownColumn, got %v", err)
	}
}

func TestExecuteGroupCount(t *testing.T) {
	root := trafficDisplay(t)
	d, err := Execute(root, NewGroupCount("protocol"))
	if err != nil {
		t.Fatal(err)
	}
	if !d.Aggregated || d.GroupColumn != "protocol" || d.ValueColumn != "count" {
		t.Fatalf("aggregation metadata wrong: %+v", d)
	}
	if d.NumRows() != 4 {
		t.Fatalf("groups = %d, want 4", d.NumRows())
	}
	// Deterministic order: groups sorted by key (DNS, HTTP, HTTPS, SSH).
	if got := d.Table.Cell(0, 0); !got.Equal(dataset.S("DNS")) {
		t.Errorf("first group = %v, want DNS", got)
	}
	counts := map[string]float64{}
	for i := 0; i < d.NumRows(); i++ {
		counts[d.Table.Cell(i, 0).Str] = d.Table.Cell(i, 1).Flt
	}
	if counts["HTTP"] != 4 || counts["HTTPS"] != 2 || counts["DNS"] != 1 || counts["SSH"] != 1 {
		t.Errorf("counts = %v", counts)
	}
	if d.CoveredRows != 8 {
		t.Errorf("covered = %d, want 8", d.CoveredRows)
	}
}

func TestExecuteGroupAggregates(t *testing.T) {
	root := trafficDisplay(t)
	cases := []struct {
		agg  AggFunc
		http float64
	}{
		{AggSum, 300 + 320 + 310 + 9000},
		{AggAvg, (300 + 320 + 310 + 9000) / 4.0},
		{AggMin, 300},
		{AggMax, 9000},
	}
	for _, c := range cases {
		d, err := Execute(root, NewGroupAgg("protocol", c.agg, "length"))
		if err != nil {
			t.Fatalf("%v: %v", c.agg, err)
		}
		var got float64
		found := false
		for i := 0; i < d.NumRows(); i++ {
			if d.Table.Cell(i, 0).Str == "HTTP" {
				got = d.Table.Cell(i, 1).Flt
				found = true
			}
		}
		if !found || got != c.http {
			t.Errorf("%v(HTTP length) = %v, want %v", c.agg, got, c.http)
		}
	}
}

func TestExecuteGroupOnFilteredDisplay(t *testing.T) {
	root := trafficDisplay(t)
	f, err := Execute(root, NewFilter(Predicate{Column: "protocol", Op: OpEq, Operand: dataset.S("HTTP")}))
	if err != nil {
		t.Fatal(err)
	}
	g, err := Execute(f, NewGroupCount("dst_ip"))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumRows() != 2 {
		t.Fatalf("groups = %d, want 2", g.NumRows())
	}
	// OriginRows tracks the session's original dataset, not the parent.
	if g.OriginRows != 8 {
		t.Errorf("origin = %d, want 8", g.OriginRows)
	}
	if g.CoveredRows != 4 {
		t.Errorf("covered = %d, want 4 (the filtered input)", g.CoveredRows)
	}
}

// TestExecuteGroupNaNKeys: every NaN of a float group column falls into
// one group, ordered after every number, with the aggregates of its rows.
func TestExecuteGroupNaNKeys(t *testing.T) {
	b := dataset.NewBuilder("nan", dataset.Schema{
		{Name: "x", Kind: dataset.KindFloat},
		{Name: "y", Kind: dataset.KindInt},
	})
	nan := math.NaN()
	for i, x := range []float64{nan, 2, 1, nan} {
		b.Append(dataset.F(x), dataset.I(int64(10*(i+1))))
	}
	root := NewRootDisplay(b.MustBuild())
	for _, tc := range []struct {
		action *Action
		want   []float64
	}{
		{NewGroupCount("x"), []float64{1, 1, 2}},
		{NewGroupAgg("x", AggSum, "y"), []float64{30, 20, 50}},
	} {
		d, err := Execute(root, tc.action)
		if err != nil {
			t.Fatalf("%v: %v", tc.action, err)
		}
		if d.NumRows() != 3 || d.CoveredRows != 4 {
			t.Fatalf("%v: %d groups over %d rows, want 3 over 4", tc.action, d.NumRows(), d.CoveredRows)
		}
		for i, key := range []float64{1, 2, nan} {
			k, v := d.Table.Cell(i, 0).Flt, d.Table.Cell(i, 1).Flt
			if math.Float64bits(k) != math.Float64bits(key) && !(math.IsNaN(k) && math.IsNaN(key)) || v != tc.want[i] {
				t.Errorf("%v: group %d = (%v, %v), want (%v, %v)", tc.action, i, k, v, key, tc.want[i])
			}
		}
	}
}

func TestExecuteGroupUnknownColumns(t *testing.T) {
	root := trafficDisplay(t)
	if _, err := Execute(root, NewGroupCount("ghost")); !errors.Is(err, ErrUnknownColumn) {
		t.Errorf("group-by ghost: %v", err)
	}
	if _, err := Execute(root, NewGroupAgg("protocol", AggSum, "ghost")); !errors.Is(err, ErrUnknownColumn) {
		t.Errorf("agg ghost: %v", err)
	}
}

func TestExecuteRejectsBackAndNil(t *testing.T) {
	root := trafficDisplay(t)
	if _, err := Execute(root, &Action{Type: ActionBack}); err == nil {
		t.Error("back action must be rejected by the engine")
	}
	if _, err := Execute(nil, NewGroupCount("x")); err == nil {
		t.Error("nil parent must fail")
	}
	if _, err := Execute(root, nil); err == nil {
		t.Error("nil action must fail")
	}
	if _, err := Execute(root, &Action{Type: ActionFilter}); err == nil {
		t.Error("filter without predicates must fail")
	}
}

func TestExecuteDoesNotMutateParent(t *testing.T) {
	root := trafficDisplay(t)
	before := root.Table.NumRows()
	if _, err := Execute(root, NewGroupCount("protocol")); err != nil {
		t.Fatal(err)
	}
	if root.Table.NumRows() != before {
		t.Error("execution mutated the parent display")
	}
}

func TestAggValues(t *testing.T) {
	root := trafficDisplay(t)
	d, err := Execute(root, NewGroupCount("protocol"))
	if err != nil {
		t.Fatal(err)
	}
	vals := d.AggValues()
	if len(vals) != 4 {
		t.Fatalf("agg values = %v", vals)
	}
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	if sum != 8 {
		t.Errorf("counts should sum to 8, got %v", sum)
	}
	if root.AggValues() != nil {
		t.Error("raw display has no aggregate values")
	}
}

func TestTimeFilter(t *testing.T) {
	b := dataset.NewBuilder("times", dataset.Schema{{Name: "when", Kind: dataset.KindTime}})
	t0 := time.Date(2018, 3, 1, 0, 0, 0, 0, time.UTC)
	for h := 0; h < 10; h++ {
		b.Append(dataset.T(t0.Add(time.Duration(h) * time.Hour)))
	}
	root := NewRootDisplay(b.MustBuild())
	cut := dataset.T(t0.Add(5 * time.Hour))
	d, err := Execute(root, NewFilter(Predicate{Column: "when", Op: OpGe, Operand: cut}))
	if err != nil {
		t.Fatal(err)
	}
	if d.NumRows() != 5 {
		t.Errorf("time filter rows = %d, want 5", d.NumRows())
	}
}
