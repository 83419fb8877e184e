package engine

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/dataset"
	"repro/internal/stats"
)

func TestProfileBasics(t *testing.T) {
	root := trafficDisplay(t)
	p := root.GetProfile()
	if p.Rows != 8 {
		t.Fatalf("profile rows = %d", p.Rows)
	}
	cp := p.Column("protocol")
	if cp == nil {
		t.Fatal("protocol profile missing")
	}
	if cp.Distinct != 4 {
		t.Errorf("distinct protocols = %d", cp.Distinct)
	}
	freq := freqMap(cp.Freq())
	if got := freq["HTTP"]; got != 0.5 {
		t.Errorf("HTTP freq = %v, want 0.5", got)
	}
	sum := 0.0
	for _, f := range freq {
		sum += f
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("frequencies sum to %v", sum)
	}
	if cp.IsNumeric {
		t.Error("protocol should not be numeric")
	}
	lp := p.Column("length")
	if !lp.IsNumeric {
		t.Fatal("length should be numeric")
	}
	if lp.Min != 60 || lp.Max != 9000 {
		t.Errorf("length min/max = %v/%v", lp.Min, lp.Max)
	}
	wantMean := (300.0 + 320 + 310 + 9000 + 400 + 410 + 60 + 150) / 8
	if math.Abs(lp.Mean-wantMean) > 1e-9 {
		t.Errorf("length mean = %v, want %v", lp.Mean, wantMean)
	}
	if p.Column("ghost") != nil {
		t.Error("missing column should be nil")
	}
}

func TestProfileMemoizedAndConcurrent(t *testing.T) {
	root := trafficDisplay(t)
	var wg sync.WaitGroup
	profiles := make([]*Profile, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			profiles[i] = root.GetProfile()
		}(i)
	}
	wg.Wait()
	for _, p := range profiles[1:] {
		if p != profiles[0] {
			t.Fatal("GetProfile must return the same memoized instance")
		}
	}
}

// truncateFreq is TopFreq's definition on a key->frequency map: keep the
// limit most frequent entries (ties broken by key) and fold the rest into
// OtherBucket, summed from the most frequent down.
func truncateFreq(freq map[string]float64, limit int) map[string]float64 {
	if len(freq) <= limit {
		return freq
	}
	type kv struct {
		k string
		v float64
	}
	all := make([]kv, 0, len(freq))
	for k, v := range freq {
		all = append(all, kv{k, v})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].v != all[j].v {
			return all[i].v > all[j].v
		}
		return all[i].k < all[j].k
	})
	out := make(map[string]float64, limit+1)
	other := 0.0
	for i, e := range all {
		if i < limit {
			out[e.k] = e.v
		} else {
			other += e.v
		}
	}
	out[OtherBucket] = other
	return out
}

// freqMap returns an id histogram as a key->weight map.
func freqMap(h *stats.IDHist) map[string]float64 {
	m := make(map[string]float64, h.Len())
	for i, w := range h.Weights {
		m[h.Key(i)] = w
	}
	return m
}

// idHist returns freq as a histogram over a dictionary of its keys.
func idHist(freq map[string]float64) *stats.IDHist {
	h := &stats.IDHist{}
	for k := range freq {
		h.Dict = append(h.Dict, k)
	}
	sort.Strings(h.Dict)
	for id, k := range h.Dict {
		h.IDs = append(h.IDs, uint32(id))
		h.Weights = append(h.Weights, freq[k])
	}
	return h
}

// TestProfileFreqMatchesStringCounts checks column histograms against
// their definition, counting each cell's Value.String() into a map and
// dividing by the row count, to the bit: on a root table and on
// selections of it from one row up, whose dictionary, shared with the
// root, can be many times their row count.
func TestProfileFreqMatchesStringCounts(t *testing.T) {
	b := dataset.NewBuilder("wide", dataset.Schema{
		{Name: "id", Kind: dataset.KindInt},
		{Name: "x", Kind: dataset.KindFloat},
		{Name: "s", Kind: dataset.KindString},
	})
	for i := 0; i < 500; i++ {
		x := float64(i%37) / 4
		if i%50 == 0 {
			x = math.NaN()
		}
		b.Append(dataset.I(int64(i*7919%1000)), dataset.F(x), dataset.S(fmt.Sprint("v", i%90)))
	}
	root := b.MustBuild()
	rng := stats.NewRNG(5)
	for _, size := range []int{500, 1, 2, 10, 62, 63, 64, 200} {
		rows := make([]int, size)
		for i := range rows {
			rows[i] = rng.Intn(root.NumRows())
		}
		tbl := root
		if size != root.NumRows() {
			tbl = root.Select(rows)
		}
		prof := NewRootDisplay(tbl).GetProfile()
		for j, cp := range prof.Columns {
			want := map[string]float64{}
			col := tbl.Column(j)
			for i := 0; i < col.Len(); i++ {
				want[col.Value(i).String()]++
			}
			for k := range want {
				want[k] /= float64(col.Len())
			}
			got := freqMap(cp.Freq())
			if len(got) != len(want) || cp.Distinct != len(want) {
				t.Fatalf("%d rows, column %s: histogram %v (distinct %d), want %v", size, cp.Name, got, cp.Distinct, want)
			}
			for k, w := range want {
				if math.Float64bits(got[k]) != math.Float64bits(w) {
					t.Fatalf("%d rows, column %s: weight of %q %v, want %v", size, cp.Name, k, got[k], w)
				}
			}
			if !slices.IsSorted(cp.Freq().IDs) {
				t.Fatalf("%d rows, column %s: ids %v not ascending", size, cp.Name, cp.Freq().IDs)
			}
		}
	}
}

// TestColumnProfileSize pins ColumnProfile at 80 bytes on 64-bit
// platforms: every decoded serving display holds one per column, so a
// larger one grows the served heap.
func TestColumnProfileSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes below are for 64-bit platforms")
	}
	if got := unsafe.Sizeof(ColumnProfile{}); got != 80 {
		t.Fatalf("ColumnProfile is %d bytes, want 80", got)
	}
}

func TestTruncateFreq(t *testing.T) {
	truncate := func(freq map[string]float64, limit int) Hist {
		return truncateHist(idHist(freq), limit, make([]string, len(freq)+1), make([]float64, len(freq)+1))
	}
	freq := make(map[string]float64)
	n := 40
	for i := 0; i < n; i++ {
		freq[fmt.Sprintf("v%02d", i)] = float64(n-i) / 820.0 // descending mass
	}
	out := histMap(truncate(freq, 10))
	if len(out) != 11 {
		t.Fatalf("truncated size = %d, want 10 + other", len(out))
	}
	if _, ok := out[OtherBucket]; !ok {
		t.Fatal("missing other bucket")
	}
	// Mass must be preserved.
	var inSum, outSum float64
	for _, v := range freq {
		inSum += v
	}
	for _, v := range out {
		outSum += v
	}
	if math.Abs(inSum-outSum) > 1e-9 {
		t.Errorf("mass changed: %v -> %v", inSum, outSum)
	}
	// The most frequent value stays.
	if _, ok := out["v00"]; !ok {
		t.Error("top value evicted")
	}
	// Small histograms come back whole.
	small := map[string]float64{"a": 1}
	if got := histMap(truncate(small, 10)); !reflect.DeepEqual(got, small) {
		t.Errorf("small histogram truncated to %v", got)
	}
	// Against the map definition, to the bit, in key order: ties, keys
	// sorting before the other bucket, and a kept key spelled like it.
	rng := stats.NewRNG(3)
	for trial := 0; trial < 300; trial++ {
		freq := map[string]float64{}
		for i := rng.Intn(60); i > 0; i-- {
			freq[fmt.Sprintf("%c%d", "\x00ab"[rng.Intn(3)], rng.Intn(40))] = float64(1+rng.Intn(4)) / 7
		}
		if trial%3 == 0 {
			freq[""] = 0.5
			freq[OtherBucket] = 0.75
		}
		got := truncate(freq, 10)
		if !slices.IsSorted(got.Keys) || len(slices.Compact(slices.Clone(got.Keys))) != len(got.Keys) {
			t.Fatalf("keys %q not strictly ascending", got.Keys)
		}
		want := truncateFreq(freq, 10)
		if len(want) != len(got.Keys) {
			t.Fatalf("truncated %v to %v, want %v", freq, histMap(got), want)
		}
		for i, k := range got.Keys {
			if w, ok := want[k]; !ok || math.Float64bits(w) != math.Float64bits(got.Weights[i]) {
				t.Fatalf("truncated %v to %v, want %v", freq, histMap(got), want)
			}
		}
	}
}

func TestProfileTopFreqHighCardinality(t *testing.T) {
	b := dataset.NewBuilder("wide", dataset.Schema{{Name: "id", Kind: dataset.KindInt}})
	for i := 0; i < 500; i++ {
		b.Append(dataset.I(int64(i)))
	}
	d := NewRootDisplay(b.MustBuild())
	prof := d.GetProfile()
	cp := prof.Column("id")
	if cp.Distinct != 500 {
		t.Fatalf("distinct = %d", cp.Distinct)
	}
	top := histMap(prof.TopFreq(0))
	if len(top) > TopFreqLimit+1 {
		t.Errorf("TopFreq size = %d, want <= %d", len(top), TopFreqLimit+1)
	}
	if top[OtherBucket] <= 0.9 {
		t.Errorf("other bucket mass = %v, want > 0.9 for uniform ids", top[OtherBucket])
	}
}

func TestDisplayString(t *testing.T) {
	root := trafficDisplay(t)
	if !strings.Contains(root.String(), "root display") {
		t.Error("root display header missing")
	}
	d, err := Execute(root, NewGroupCount("protocol"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(d.String(), "group[protocol].count()") {
		t.Errorf("provenance missing from String:\n%s", d.String())
	}
}

// histMap returns a prepared histogram as a key->weight map.
func histMap(h Hist) map[string]float64 {
	m := make(map[string]float64, len(h.Keys))
	for i, k := range h.Keys {
		m[k] = h.Weights[i]
	}
	return m
}

// TestPreparedProfileForm checks the comparison form of a table-built
// profile against its definition — each column's truncateFreq map with
// keys strictly ascending — and a summary profile assembled from those
// maps against the table-built one, duplicate column names included.
func TestPreparedProfileForm(t *testing.T) {
	b := dataset.NewBuilder("dup", dataset.Schema{
		{Name: "id", Kind: dataset.KindInt},
		{Name: "count", Kind: dataset.KindString},
		{Name: "count", Kind: dataset.KindInt},
	})
	for i := 0; i < 200; i++ {
		b.Append(dataset.I(int64(i)), dataset.S(fmt.Sprint("v", i%7)), dataset.I(int64(i%3)))
	}
	built := NewRootDisplay(b.MustBuild()).GetProfile()
	cols := make([]ColumnProfile, len(built.Columns))
	tops := make([][]KeyWeight, len(built.Columns))
	for i, c := range built.Columns {
		want := truncateFreq(freqMap(c.Freq()), TopFreqLimit)
		top := built.TopFreq(i)
		if !reflect.DeepEqual(histMap(top), want) {
			t.Fatalf("column %d: TopFreq %v, want %v", i, histMap(top), want)
		}
		if !slices.IsSorted(top.Keys) || len(slices.Compact(slices.Clone(top.Keys))) != len(top.Keys) {
			t.Fatalf("column %d: keys %q not strictly ascending", i, top.Keys)
		}
		cols[i] = ColumnProfile{Name: c.Name}
		for k, v := range want {
			tops[i] = append(tops[i], KeyWeight{k, v})
		}
	}
	summary := NewProfile(built.Rows, cols, tops)
	for _, p := range []*Profile{built, summary} {
		if got := p.DistinctNames(); !reflect.DeepEqual(got, []string{"count", "id"}) {
			t.Fatalf("DistinctNames = %q", got)
		}
		for i, want := range []int{0, 0, 1} {
			if got := p.Ordinal(i); got != want {
				t.Fatalf("Ordinal(%d) = %d, want %d", i, got, want)
			}
		}
	}
	for i := range cols {
		if !reflect.DeepEqual(summary.TopFreq(i), built.TopFreq(i)) {
			t.Fatalf("column %d: summary %v, built %v", i, summary.TopFreq(i), built.TopFreq(i))
		}
	}
}
