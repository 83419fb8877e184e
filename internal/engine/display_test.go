package engine

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/dataset"
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
	if got := cp.Freq["HTTP"]; got != 0.5 {
		t.Errorf("HTTP freq = %v, want 0.5", got)
	}
	sum := 0.0
	for _, f := range cp.Freq {
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

func TestTruncateFreq(t *testing.T) {
	freq := make(map[string]float64)
	n := 40
	for i := 0; i < n; i++ {
		freq[fmt.Sprintf("v%02d", i)] = float64(n-i) / 820.0 // descending mass
	}
	out := truncateFreq(freq, 10)
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
	// Small maps returned unchanged (same map).
	small := map[string]float64{"a": 1}
	if got := truncateFreq(small, 10); len(got) != 1 {
		t.Error("small map should be unchanged")
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
	tops := make([]map[string]float64, len(built.Columns))
	for i, c := range built.Columns {
		want := truncateFreq(c.Freq, TopFreqLimit)
		top := built.TopFreq(i)
		if !reflect.DeepEqual(histMap(top), want) {
			t.Fatalf("column %d: TopFreq %v, want %v", i, histMap(top), want)
		}
		if !slices.IsSorted(top.Keys) || len(slices.Compact(slices.Clone(top.Keys))) != len(top.Keys) {
			t.Fatalf("column %d: keys %q not strictly ascending", i, top.Keys)
		}
		cols[i], tops[i] = ColumnProfile{Name: c.Name}, want
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
