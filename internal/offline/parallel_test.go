package offline

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/measures"
	"repro/internal/netlog"
	"repro/internal/simulate"
)

// analyzeSim runs the full analysis over a freshly simulated repository.
func analyzeSim(t *testing.T, seed uint64, workers int) *Analysis {
	t.Helper()
	repo, err := simulate.Generate(simulate.Config{
		Analysts:      4,
		Sessions:      24,
		MeanActions:   4.0,
		Seed:          seed,
		DatasetConfig: netlog.Config{Rows: 400},
	})
	if err != nil {
		t.Fatal(err)
	}
	a, err := Analyze(repo, Options{RefLimit: 20, Seed: seed, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestAnalyzeParallelEquivalence is the offline determinism contract: the
// analysis output — raw scores, both relative score maps, the fitted
// normalizer, and the labeled training sets derived from them — is
// bit-identical at every worker count, across seeds.
func TestAnalyzeParallelEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated-log equivalence sweep")
	}
	for _, seed := range []uint64{3, 1234} {
		want := analyzeSim(t, seed, 1)
		for _, workers := range []int{0, 2, 5} {
			got := analyzeSim(t, seed, workers)
			if len(got.Nodes) != len(want.Nodes) {
				t.Fatalf("seed=%d workers=%d: %d nodes, want %d", seed, workers, len(got.Nodes), len(want.Nodes))
			}
			for i := range want.Nodes {
				w, g := want.Nodes[i], got.Nodes[i]
				if !reflect.DeepEqual(g.Raw, w.Raw) {
					t.Fatalf("seed=%d workers=%d node %d: Raw diverged\n got %v\nwant %v", seed, workers, i, g.Raw, w.Raw)
				}
				if !reflect.DeepEqual(g.RefRelative, w.RefRelative) {
					t.Fatalf("seed=%d workers=%d node %d: RefRelative diverged\n got %v\nwant %v", seed, workers, i, g.RefRelative, w.RefRelative)
				}
				if !reflect.DeepEqual(g.NormRelative, w.NormRelative) {
					t.Fatalf("seed=%d workers=%d node %d: NormRelative diverged\n got %v\nwant %v", seed, workers, i, g.NormRelative, w.NormRelative)
				}
			}
			if !reflect.DeepEqual(got.Normalizer.Params, want.Normalizer.Params) {
				t.Fatalf("seed=%d workers=%d: normalizer params diverged", seed, workers)
			}
			// Labels and sample order must agree for both methods.
			I := measures.DefaultSet()
			for _, m := range Methods {
				wantTS := BuildTrainingSet(want, I, TrainingOptions{N: 2, Method: m, ThetaI: math.Inf(-1), SuccessfulOnly: true})
				gotTS := BuildTrainingSet(got, I, TrainingOptions{N: 2, Method: m, ThetaI: math.Inf(-1), SuccessfulOnly: true})
				if len(wantTS) != len(gotTS) {
					t.Fatalf("seed=%d workers=%d %v: %d samples, want %d", seed, workers, m, len(gotTS), len(wantTS))
				}
				for i := range wantTS {
					if !reflect.DeepEqual(gotTS[i].Labels, wantTS[i].Labels) || gotTS[i].Best != wantTS[i].Best {
						t.Fatalf("seed=%d workers=%d %v sample %d: labels %v/%v best %v/%v",
							seed, workers, m, i, gotTS[i].Labels, wantTS[i].Labels, gotTS[i].Best, wantTS[i].Best)
					}
				}
			}
		}
	}
}

// TestFitNormalizerWorkersEquivalence pins the per-measure fan-out of the
// Box-Cox fits.
func TestFitNormalizerWorkersEquivalence(t *testing.T) {
	a, err := Analyze(testRepo(t), Options{SkipReference: true})
	if err != nil {
		t.Fatal(err)
	}
	msrs := measures.BuiltinMeasures()
	want, err := FitNormalizer(nil, msrs, a.Nodes, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 3, 8} {
		got, err := FitNormalizer(nil, msrs, a.Nodes, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Params, want.Params) {
			t.Fatalf("workers=%d: params diverged", workers)
		}
	}
}

// TestExecCacheSingleflight checks each (parent, action) computes once
// even under a concurrent pass (the counter delta is observable through
// the cache abstraction: compute must be called exactly once per key).
func TestExecCacheSingleflight(t *testing.T) {
	c := &execCache{m: make(map[execCacheKey]*execEntry)}
	calls := 0
	key := execCacheKey{action: "x"}
	for i := 0; i < 5; i++ {
		v, _ := c.get(key, func() (map[string]float64, bool) {
			calls++
			return map[string]float64{"m": 1}, false
		})
		if v["m"] != 1 {
			t.Fatalf("cached value %v", v)
		}
	}
	if calls != 1 {
		t.Fatalf("compute ran %d times, want 1", calls)
	}
}
