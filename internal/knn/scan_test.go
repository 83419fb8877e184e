package knn

import (
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/distance"
	"repro/internal/engine"
	"repro/internal/offline"
	"repro/internal/session"
	"repro/internal/stats"
)

// actionTree builds a random context tree whose nodes carry actions of
// every type (displays stay nil, so relabels cost their action half only
// and the action bound is tight). Few shapes and few actions make exact
// distance ties common.
func actionTree(rng *stats.RNG) *session.Context {
	actions := []*engine.Action{
		engine.NewFilter(engine.Predicate{Column: "a", Op: engine.OpEq, Operand: dataset.I(1)}),
		engine.NewFilter(engine.Predicate{Column: "b", Op: engine.OpGt, Operand: dataset.I(2)}),
		engine.NewGroupCount("a"),
		engine.NewGroupCount("b"),
	}
	var build func(depth int) *session.CtxNode
	build = func(depth int) *session.CtxNode {
		n := &session.CtxNode{Action: actions[rng.Intn(len(actions))]}
		if depth > 0 {
			for i := 1 + rng.Intn(2); i > 0; i-- {
				n.Children = append(n.Children, build(depth-1))
			}
		}
		return n
	}
	root := &session.CtxNode{}
	for i := 1 + rng.Intn(2); i > 0; i-- {
		root.Children = append(root.Children, build(rng.Intn(2)))
	}
	return &session.Context{Root: root}
}

// TestTreeEditScanEquivalence runs the tree-edit scan — prepared
// contexts, one evaluator per query, size/height and action bounds —
// against the brute-force reference at several worker counts, over a set
// large enough for the chunked scan. Predictions must match bit for bit,
// and so must Candidates under θ_δ and under +∞: each is the reference's
// top-k within the same limit.
func TestTreeEditScanEquivalence(t *testing.T) {
	rng := stats.NewRNG(5)
	labels := []string{"variance", "osf", "schutz"}
	samples := make([]*offline.Sample, minParallelScan+88)
	for i := range samples {
		samples[i] = &offline.Sample{Context: actionTree(rng), Labels: []string{labels[rng.Intn(len(labels))]}}
	}
	queries := make([]*session.Context, 10)
	for i := range queries {
		queries[i] = actionTree(rng)
	}
	exact := distance.TreeEdit{}
	for _, cfg := range []Config{
		{K: 1, ThetaDelta: 0.1},
		{K: 3, ThetaDelta: 0.2},
		{K: 7, ThetaDelta: 0.05},
		{K: 5, ThetaDelta: math.Inf(1)},
	} {
		for _, workers := range []int{1, 3} {
			c := cfg
			c.Workers = workers
			clf := New(samples, distance.NewMemoizedTreeEdit(nil), c)
			for qi, q := range queries {
				want := referencePredict(samples, exact, cfg, q)
				if got := clf.Predict(q); !predictionsEqual(got, want) {
					t.Fatalf("cfg=%+v workers=%d query %d:\n got %+v\nwant %+v", cfg, workers, qi, got, want)
				}
				for _, limit := range []float64{cfg.ThetaDelta, math.Inf(1)} {
					top := referencePredict(samples, exact, Config{K: cfg.K, ThetaDelta: limit}, q)
					cands := candidates(t, clf, q, limit)
					if len(cands) != len(top.Neighbors) {
						t.Fatalf("cfg=%+v workers=%d limit=%v query %d: %d candidates, want %d", cfg, workers, limit, qi, len(cands), len(top.Neighbors))
					}
					for i, cd := range cands {
						if n := top.Neighbors[i]; samples[cd.Index] != n.Sample || math.Float64bits(cd.Dist) != math.Float64bits(n.Dist) {
							t.Fatalf("cfg=%+v workers=%d limit=%v query %d: candidate %d is (%d, %v), want (%v, %v)",
								cfg, workers, limit, qi, i, cd.Index, cd.Dist, n.Sample.Context, n.Dist)
						}
					}
				}
			}
		}
	}
}
