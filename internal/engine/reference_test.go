package engine

import (
	"reflect"
	"sync"
	"testing"

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
	if !reflect.DeepEqual(histMap(tops[0]), root.GetProfile().Column("protocol").Freq) {
		t.Errorf("TopFreq of a 4-value column = %v, want its Freq", tops[0])
	}
	if root.ColumnReference("no such column") != nil {
		t.Error("a missing column has a reference")
	}
	if root.GroupReference("no such column", AggCount, "") != nil {
		t.Error("a grouping that fails to execute has a reference")
	}
}
