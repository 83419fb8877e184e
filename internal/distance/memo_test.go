package distance

import (
	"math"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/session"
)

// TestMemoConcurrentLookupsMatchDirect runs concurrent lookups of every
// pair of distinct displays, in both argument orders and with a nil
// display among them, and checks each answer against the direct metric
// bit for bit. Concurrent misses on one key both compute it, so this is
// the race that matters: run under -race (the CI does).
func TestMemoConcurrentLookupsMatchDirect(t *testing.T) {
	ds := append(groundDisplays(t), nil)
	want := make([][]float64, len(ds))
	for i, a := range ds {
		want[i] = make([]float64, len(ds))
		for j, b := range ds {
			want[i][j] = DisplayDistance(a, b)
		}
	}
	m := NewMemo()
	const goroutines = 8
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for k := 0; k < len(ds)*len(ds); k++ {
				// Each goroutine walks the pairs from its own offset, so
				// the same key is missed by several at once.
				i, j := (k+g)%len(ds), ((k+g)/len(ds))%len(ds)
				if i == j {
					continue
				}
				if got := m.DisplayDistance(ds[i], ds[j]); math.Float64bits(got) != math.Float64bits(want[i][j]) {
					t.Errorf("memo (%d,%d) = %v, direct %v", i, j, got, want[i][j])
				}
			}
		}(g)
	}
	close(start)
	wg.Wait()
	if pairs := len(ds) * (len(ds) - 1); m.Size() == 0 || m.Size() > pairs {
		t.Fatalf("memo size = %d, want 1..%d", m.Size(), pairs)
	}
}

// TestMemoIdentityFastPath: a display compared with itself costs 0
// through the memo without a computation, though the direct metric is not
// reflexive for a display without columns.
func TestMemoIdentityFastPath(t *testing.T) {
	d := engine.NewSummaryDisplay(5, false, "", "", engine.NewProfile(5, nil, nil))
	if got := DisplayDistance(d, d); got != 0.4 {
		t.Fatalf("direct d(x,x) = %v, want 0.4", got)
	}
	m := NewMemo()
	if got := m.DisplayDistance(d, d); got != 0 {
		t.Fatalf("memo d(x,x) = %v, want 0", got)
	}
	if m.Size() != 0 {
		t.Fatalf("identity lookup cached %d entries", m.Size())
	}
}

// TestMemoizedTreeEditDisplaylessNode: a context built without displays
// (as the serving tests' chains are) meets the memo with pairs holding
// exactly one nil display, where the metric answers 1.
func TestMemoizedTreeEditDisplaylessNode(t *testing.T) {
	root := packetRoot(t)
	s := sessionWith(t, root,
		engine.NewFilter(engine.Predicate{Column: "protocol", Op: engine.OpEq, Operand: dataset.S("HTTP")}),
		engine.NewGroupCount("dst_ip"))
	full := ctxAtEnd(t, s, 5)
	bare := &session.Context{SessionID: "bare", N: 3, Size: 3, Root: &session.CtxNode{
		Children: []*session.CtxNode{{Action: engine.NewGroupCount("dst_ip"), Step: 1}},
	}}
	plain, memo := TreeEdit{}, NewMemoizedTreeEdit(nil)
	for _, pair := range [][2]*session.Context{{full, bare}, {bare, full}, {bare, bare}} {
		p, c := plain.Distance(pair[0], pair[1]), memo.Distance(pair[0], pair[1])
		if math.Float64bits(p) != math.Float64bits(c) {
			t.Errorf("memoized %v, plain %v", c, p)
		}
	}
}
