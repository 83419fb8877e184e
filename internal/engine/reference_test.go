package engine

import (
	"math"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/stats"
)

// TestRootReferencesSharedAcrossGoroutines prepares a root's references
// and truncated histograms from many goroutines at once (run it under
// -race): every caller must get the one prepared value.
func TestRootReferencesSharedAcrossGoroutines(t *testing.T) {
	root := trafficDisplay(t)
	const workers = 8
	refs := make([][]*stats.Reference, workers)
	tops := make([]Hist, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			refs[g] = []*stats.Reference{
				root.ColumnReference("protocol"),
				root.ColumnReference("hour"),
				root.GroupReference("protocol", AggCount, ""),
				root.GroupReference("dst_ip", AggAvg, "length"),
			}
			tops[g] = root.GetProfile().TopFreq(0)
		}(g)
	}
	wg.Wait()
	for g := 0; g < workers; g++ {
		for i, r := range refs[g] {
			if r == nil || r != refs[0][i] {
				t.Fatalf("goroutine %d reference %d = %p, goroutine 0 got %p", g, i, r, refs[0][i])
			}
		}
		if reflect.ValueOf(tops[g].Keys).Pointer() != reflect.ValueOf(tops[0].Keys).Pointer() {
			t.Fatalf("goroutine %d derived its own TopFreq", g)
		}
	}
	if !reflect.DeepEqual(histMap(tops[0]), freqMap(root.GetProfile().Column("protocol").Freq())) {
		t.Errorf("TopFreq of a 4-value column = %v, want its Freq", tops[0])
	}
	if root.ColumnReference("no such column") != nil {
		t.Error("a missing column has a reference")
	}
	if root.GroupReference("no such column", AggCount, "") != nil {
		t.Error("a grouping that fails to execute has a reference")
	}
}

// TestGroupWeightsMatchesStringMap checks GroupWeights against mapping
// each group's key string to its aggregate, on int keys whose numeric
// and byte orders differ and float keys with a signed zero.
func TestGroupWeightsMatchesStringMap(t *testing.T) {
	b := dataset.NewBuilder("g", dataset.Schema{
		{Name: "i", Kind: dataset.KindInt},
		{Name: "f", Kind: dataset.KindFloat},
		{Name: "v", Kind: dataset.KindInt},
	})
	for i, k := range []int64{9, 10, 100, 9, -3, 10, 9} {
		f := []float64{0.5, math.Copysign(0, -1), 0, 2.25}[i%4]
		b.Append(dataset.I(k), dataset.F(f), dataset.I(int64(i*i)))
	}
	root := NewRootDisplay(b.MustBuild())
	for _, a := range []*Action{
		NewGroupCount("i"), NewGroupAgg("i", AggSum, "v"), NewGroupAgg("f", AggMax, "v"),
		NewTopK("count", 2, false),
	} {
		d := root
		if a.Type == ActionTopK {
			var err error
			if d, err = Execute(root, NewGroupCount("i")); err != nil {
				t.Fatal(err)
			}
		}
		d, err := Execute(d, a)
		if err != nil {
			t.Fatal(err)
		}
		want := map[string]float64{}
		for i := 0; i < d.Table.NumRows(); i++ {
			want[d.Table.Cell(i, 0).String()] = d.Table.Cell(i, 1).Float()
		}
		h := d.GroupWeights()
		if got := freqMap(h); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: GroupWeights %v, want %v", a, got, want)
		}
		if !slices.IsSorted(h.IDs) {
			t.Errorf("%s: ids %v not ascending", a, h.IDs)
		}
	}
}
