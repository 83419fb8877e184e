package dataset

import (
	"math"
	"slices"
	"strings"
	"testing"
	"time"
)

func packetsTable(t *testing.T) *Table {
	t.Helper()
	b := NewBuilder("packets", Schema{
		{Name: "protocol", Kind: KindString},
		{Name: "length", Kind: KindInt},
		{Name: "score", Kind: KindFloat},
	})
	rows := []struct {
		p string
		l int64
		s float64
	}{
		{"HTTP", 100, 0.5},
		{"HTTP", 200, 0.25},
		{"DNS", 60, 0.75},
		{"SSH", 400, 0.1},
		{"HTTP", 150, 0.9},
	}
	for _, r := range rows {
		b.Append(S(r.p), I(r.l), F(r.s))
	}
	return b.MustBuild()
}

func TestBuilderAndAccessors(t *testing.T) {
	tbl := packetsTable(t)
	if tbl.NumRows() != 5 || tbl.NumCols() != 3 {
		t.Fatalf("got %dx%d, want 5x3", tbl.NumRows(), tbl.NumCols())
	}
	if tbl.Name() != "packets" {
		t.Errorf("name = %q", tbl.Name())
	}
	if got := tbl.Cell(2, 0); !got.Equal(S("DNS")) {
		t.Errorf("Cell(2,0) = %v", got)
	}
	row := tbl.Row(3)
	if len(row) != 3 || !row[1].Equal(I(400)) {
		t.Errorf("Row(3) = %v", row)
	}
	if c := tbl.ColumnByName("nope"); c != nil {
		t.Error("ColumnByName(nope) should be nil")
	}
	if tbl.ColumnByName("length").Kind != KindInt {
		t.Error("length column should be int")
	}
}

func TestBuilderSchemaMismatch(t *testing.T) {
	b := NewBuilder("bad", Schema{{Name: "a", Kind: KindInt}})
	b.Append(S("oops"))
	if _, err := b.Build(); err == nil {
		t.Fatal("kind mismatch must fail Build")
	}
	b2 := NewBuilder("bad2", Schema{{Name: "a", Kind: KindInt}})
	b2.Append(I(1), I(2))
	if _, err := b2.Build(); err == nil {
		t.Fatal("arity mismatch must fail Build")
	}
}

func TestSchemaHelpers(t *testing.T) {
	s := packetsTable(t).Schema()
	if s.Index("length") != 1 || s.Index("zzz") != -1 {
		t.Error("Schema.Index wrong")
	}
	if got := s.Names(); strings.Join(got, ",") != "protocol,length,score" {
		t.Errorf("Names() = %v", got)
	}
	if !s.Equal(packetsTable(t).Schema()) {
		t.Error("identical schemas must be Equal")
	}
	other := Schema{{Name: "protocol", Kind: KindString}}
	if s.Equal(other) {
		t.Error("different schemas must not be Equal")
	}
}

func TestSelect(t *testing.T) {
	tbl := packetsTable(t)
	sub := tbl.Select([]int{4, 0})
	if sub.NumRows() != 2 {
		t.Fatalf("select rows = %d", sub.NumRows())
	}
	if !sub.Cell(0, 1).Equal(I(150)) || !sub.Cell(1, 1).Equal(I(100)) {
		t.Errorf("select preserved wrong rows: %v %v", sub.Cell(0, 1), sub.Cell(1, 1))
	}
	if !sub.Schema().Equal(tbl.Schema()) {
		t.Error("select must preserve schema")
	}
	empty := tbl.Select(nil)
	if empty.NumRows() != 0 {
		t.Error("empty select should have 0 rows")
	}
}

func TestCellAtBounds(t *testing.T) {
	tbl := packetsTable(t)
	if v, ok := tbl.CellAt(2, 0); !ok || !v.Equal(S("DNS")) {
		t.Errorf("CellAt(2,0) = %v, %v", v, ok)
	}
	for _, rc := range [][2]int{{-1, 0}, {5, 0}, {0, -1}, {0, 3}} {
		if _, ok := tbl.CellAt(rc[0], rc[1]); ok {
			t.Errorf("CellAt(%d,%d) should report out of range", rc[0], rc[1])
		}
	}
}

func TestSelectChecked(t *testing.T) {
	tbl := packetsTable(t)
	sub, err := tbl.SelectChecked([]int{4, 0})
	if err != nil || sub.NumRows() != 2 {
		t.Fatalf("SelectChecked = %v rows, err %v", sub.NumRows(), err)
	}
	if _, err := tbl.SelectChecked([]int{0, 5}); err == nil {
		t.Error("row 5 of a 5-row table must error")
	}
	if _, err := tbl.SelectChecked([]int{-1}); err == nil {
		t.Error("negative row index must error")
	}
}

func TestValueCounts(t *testing.T) {
	tbl := packetsTable(t)
	counts := tbl.ValueCounts("protocol")
	if len(counts) != 3 {
		t.Fatalf("distinct protocols = %d, want 3", len(counts))
	}
	if !counts[0].Value.Equal(S("HTTP")) || counts[0].Count != 3 {
		t.Errorf("top count = %v x%d, want HTTP x3", counts[0].Value, counts[0].Count)
	}
	// Ties (DNS=1, SSH=1) must order deterministically by value.
	if !counts[1].Value.Equal(S("DNS")) || !counts[2].Value.Equal(S("SSH")) {
		t.Errorf("tie order: %v, %v", counts[1].Value, counts[2].Value)
	}
	if got := tbl.ValueCounts("missing"); got != nil {
		t.Error("ValueCounts on missing column should be nil")
	}
}

func TestDistinctValues(t *testing.T) {
	tbl := packetsTable(t)
	vals := tbl.DistinctValues("protocol", 0)
	if len(vals) != 3 {
		t.Fatalf("distinct = %v", vals)
	}
	// First-seen order.
	if !vals[0].Equal(S("HTTP")) || !vals[1].Equal(S("DNS")) {
		t.Errorf("order = %v", vals)
	}
	if got := tbl.DistinctValues("protocol", 2); len(got) != 2 {
		t.Errorf("limit ignored: %v", got)
	}
}

func TestTableString(t *testing.T) {
	s := packetsTable(t).String()
	if !strings.Contains(s, "packets (5 rows)") || !strings.Contains(s, "HTTP") {
		t.Errorf("String() preview missing content:\n%s", s)
	}
}

func TestColumnValueRoundTrip(t *testing.T) {
	tbl := packetsTable(t)
	col := tbl.ColumnByName("score")
	if col.Len() != 5 {
		t.Fatalf("col len = %d", col.Len())
	}
	if got := col.Value(2); !got.Equal(F(0.75)) {
		t.Errorf("col.Value(2) = %v", got)
	}
}

// TestDictionaryEncoding checks each column's dictionary: the distinct
// string forms of its cells in ascending byte order, which every row's
// id indexes, including floats whose bits differ but whose strings do
// not (NaNs) and ints whose numeric and byte orders differ; a selection
// shares its source's dictionary.
func TestDictionaryEncoding(t *testing.T) {
	b := NewBuilder("enc", Schema{
		{Name: "s", Kind: KindString},
		{Name: "i", Kind: KindInt},
		{Name: "f", Kind: KindFloat},
		{Name: "t", Kind: KindTime},
	})
	nan2 := math.Float64frombits(math.Float64bits(math.NaN()) ^ 1)
	t0 := time.Date(2018, 3, 1, 0, 0, 0, 0, time.UTC)
	rows := []struct {
		s string
		i int64
		f float64
		h int
	}{
		{"b", 10, math.NaN(), 0}, {"a", 9, 0.5, 1}, {"", -1, nan2, 0},
		{"b", 10, math.Copysign(0, -1), 2}, {"é", 100, 0, 1}, {"a", 9, math.Inf(1), 0},
	}
	for _, r := range rows {
		b.Append(S(r.s), I(r.i), F(r.f), T(t0.Add(time.Duration(r.h)*time.Hour)))
	}
	tbl := b.MustBuild()
	for j := 0; j < tbl.NumCols(); j++ {
		c := tbl.Column(j)
		dict, ids := c.Dict(), c.IDs()
		if !slices.IsSorted(dict) || len(slices.Compact(slices.Clone(dict))) != len(dict) {
			t.Fatalf("column %s: dictionary %q not strictly ascending", c.Name, dict)
		}
		if len(ids) != c.Len() {
			t.Fatalf("column %s: %d ids for %d rows", c.Name, len(ids), c.Len())
		}
		used := make([]bool, len(dict))
		for i, id := range ids {
			if dict[id] != c.Value(i).String() {
				t.Fatalf("column %s row %d: id %d is %q, cell is %q", c.Name, i, id, dict[id], c.Value(i).String())
			}
			used[id] = true
		}
		if slices.Contains(used, false) {
			t.Fatalf("column %s: dictionary %q holds a string no cell has", c.Name, dict)
		}
	}
	if got := tbl.Column(1).Dict(); !slices.Equal(got, []string{"-1", "10", "100", "9"}) {
		t.Errorf("int dictionary %q, want byte order", got)
	}
	if got := tbl.Column(2).Dict(); !slices.Equal(got, []string{"+Inf", "-0", "0", "0.5", "NaN"}) {
		t.Errorf("float dictionary %q", got)
	}
	sel := tbl.Select([]int{4, 4, 1})
	for j := 0; j < sel.NumCols(); j++ {
		c, src := sel.Column(j), tbl.Column(j)
		if &c.Dict()[0] != &src.Dict()[0] {
			t.Errorf("column %s: selection has its own dictionary", c.Name)
		}
		for i, r := range []int{4, 4, 1} {
			if c.IDs()[i] != src.IDs()[r] {
				t.Errorf("column %s: selected row %d has id %d, source row %d has %d", c.Name, i, c.IDs()[i], r, src.IDs()[r])
			}
		}
	}
}
