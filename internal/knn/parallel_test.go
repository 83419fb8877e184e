package knn

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"repro/internal/faults"
	"repro/internal/offline"
	"repro/internal/session"
	"repro/internal/stats"
)

// hashMetric is a deterministic pseudo-random metric over Context.T pairs.
// The coarse quantization (64 levels) forces frequent exact distance ties,
// which is what stresses the (dist, idx) tie-breaking of the top-k path.
type hashMetric struct{}

func (hashMetric) Name() string { return "hash" }
func (hashMetric) Distance(a, b *session.Context) float64 {
	x := uint64(a.T)*2654435761 ^ uint64(b.T)*0x9E3779B97F4A7C15
	x ^= x >> 33
	x *= 0xFF51AFD7ED558CCD
	x ^= x >> 29
	return float64(x%64) / 64
}

// buildSyntheticSamples creates a labeled training set big enough to cross
// the parallel-scan threshold.
func buildSyntheticSamples(n int, seed uint64) []*offline.Sample {
	rng := stats.NewRNG(seed)
	labels := []string{"variance", "osf", "peculiarity", "conciseness"}
	samples := make([]*offline.Sample, n)
	for i := range samples {
		ls := []string{labels[rng.Intn(len(labels))]}
		if rng.Intn(5) == 0 { // occasional tie-labeled sample
			ls = append(ls, labels[rng.Intn(len(labels))])
		}
		samples[i] = &offline.Sample{Context: &session.Context{T: i + 1}, Labels: ls}
	}
	return samples
}

// referencePredict is the pre-optimization algorithm, kept verbatim as the
// equivalence oracle: collect every eligible neighbor, stable-sort, keep
// k, vote.
func referencePredict(samples []*offline.Sample, m interface {
	Distance(a, b *session.Context) float64
}, cfg Config, query *session.Context) Prediction {
	ns := make([]Neighbor, 0, len(samples))
	for _, s := range samples {
		d := m.Distance(query, s.Context)
		if d > cfg.ThetaDelta {
			continue
		}
		ns = append(ns, Neighbor{Sample: s, Dist: d})
	}
	if len(ns) == 0 {
		return Prediction{Covered: false}
	}
	sort.SliceStable(ns, func(i, j int) bool { return ns[i].Dist < ns[j].Dist })
	k := cfg.K
	if k < 1 {
		k = 1
	}
	if len(ns) > k {
		ns = ns[:k]
	}
	return voteSorted(ns)
}

func predictionsEqual(a, b Prediction) bool {
	if a.Label != b.Label || a.Covered != b.Covered {
		return false
	}
	if !reflect.DeepEqual(a.Votes, b.Votes) {
		return false
	}
	if len(a.Neighbors) != len(b.Neighbors) {
		return false
	}
	for i := range a.Neighbors {
		if a.Neighbors[i].Sample != b.Neighbors[i].Sample || a.Neighbors[i].Dist != b.Neighbors[i].Dist {
			return false
		}
	}
	return true
}

// TestPredictParallelEquivalence checks that every worker count — and the
// sequential oracle — produces bit-identical Predictions across seeds,
// thresholds and k values, including the early-abandon and top-k paths.
func TestPredictParallelEquivalence(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42} {
		samples := buildSyntheticSamples(700, seed) // > minParallelScan
		for _, cfg := range []Config{
			{K: 1, ThetaDelta: 0.1},
			{K: 3, ThetaDelta: 0.2},
			{K: 7, ThetaDelta: 0.05},
			{K: 5, ThetaDelta: math.Inf(1)},
			{K: 40, ThetaDelta: 0.5},
		} {
			for qt := 0; qt < 25; qt++ {
				query := &session.Context{T: qt * 13}
				want := referencePredict(samples, hashMetric{}, cfg, query)
				for _, workers := range []int{1, 2, 3, 8} {
					c := cfg
					c.Workers = workers
					clf := New(samples, hashMetric{}, c)
					got := clf.Predict(query)
					if !predictionsEqual(got, want) {
						t.Fatalf("seed=%d cfg=%+v workers=%d query=%d:\n got %+v\nwant %+v",
							seed, cfg, workers, qt, got, want)
					}
				}
			}
		}
	}
}

// TestPredictAllMatchesPredict checks the batch API is index-aligned and
// identical to per-query Predict at every worker count.
func TestPredictAllMatchesPredict(t *testing.T) {
	samples := buildSyntheticSamples(600, 3)
	queries := make([]*session.Context, 40)
	for i := range queries {
		queries[i] = &session.Context{T: 7 * i}
	}
	base := New(samples, hashMetric{}, Config{K: 3, ThetaDelta: 0.15, Workers: 1})
	want := make([]Prediction, len(queries))
	for i, q := range queries {
		want[i] = base.Predict(q)
	}
	for _, workers := range []int{1, 4, 16} {
		clf := New(samples, hashMetric{}, Config{K: 3, ThetaDelta: 0.15, Workers: workers})
		got := clf.PredictAll(queries)
		if len(got) != len(queries) {
			t.Fatalf("workers=%d: %d predictions for %d queries", workers, len(got), len(queries))
		}
		for i := range got {
			if !predictionsEqual(got[i], want[i]) {
				t.Fatalf("workers=%d query %d:\n got %+v\nwant %+v", workers, i, got[i], want[i])
			}
		}
	}
}

// TestVoteDoesNotMutateInput pins the aliasing contract: Vote must never
// reorder its caller's slice (callers reuse neighbor lists).
func TestVoteDoesNotMutateInput(t *testing.T) {
	ns := []Neighbor{
		{Sample: sample("c"), Dist: 0.9},
		{Sample: sample("a"), Dist: 0.1},
		{Sample: sample("b"), Dist: 0.5},
		{Sample: sample("a"), Dist: 0.1},
	}
	orig := make([]Neighbor, len(ns))
	copy(orig, ns)
	p := Vote(ns, 2)
	for i := range ns {
		if ns[i] != orig[i] {
			t.Fatalf("Vote reordered its input at %d: %+v != %+v", i, ns[i], orig[i])
		}
	}
	if p.Label != "a" {
		t.Errorf("label = %q, want a", p.Label)
	}
	// The returned Neighbors must not alias the input backing array either:
	// mutating them must leave the input intact.
	if len(p.Neighbors) > 0 {
		p.Neighbors[0].Dist = -1
		if ns[1].Dist == -1 || ns[3].Dist == -1 {
			t.Error("Prediction.Neighbors aliases the caller's slice")
		}
	}
}

// TestTopKMatchesStableSort fuzzes the bounded accumulator against the
// stable-sort oracle, with heavy duplicate distances.
func TestTopKMatchesStableSort(t *testing.T) {
	rng := stats.NewRNG(99)
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(200)
		k := 1 + rng.Intn(12)
		dists := make([]float64, n)
		for i := range dists {
			dists[i] = float64(rng.Intn(10)) / 10 // many ties
		}
		acc := newTopK(k, n)
		for i, d := range dists {
			acc.add(Candidate{Index: i, Dist: d})
		}
		got := acc.drain()

		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(a, b int) bool { return dists[idx[a]] < dists[idx[b]] })
		if len(idx) > k {
			idx = idx[:k]
		}
		if len(got) != len(idx) {
			t.Fatalf("trial %d: kept %d, want %d", trial, len(got), len(idx))
		}
		for i := range idx {
			if got[i].Index != idx[i] || got[i].Dist != dists[idx[i]] {
				t.Fatalf("trial %d (n=%d k=%d): position %d got (%v,%d), want (%v,%d)",
					trial, n, k, i, got[i].Dist, got[i].Index, dists[idx[i]], idx[i])
			}
		}
	}
}

// TestScanBoundNeverDropsTies guards the strictness of the early-abandon
// bound: candidates exactly at θ_δ or at the k-th-best distance must
// survive.
func TestScanBoundNeverDropsTies(t *testing.T) {
	samples := []*offline.Sample{
		{Context: &session.Context{T: 1}, Labels: []string{"a"}},
		{Context: &session.Context{T: 2}, Labels: []string{"b"}},
		{Context: &session.Context{T: 3}, Labels: []string{"c"}},
	}
	// stubMetric: distance |a.T-b.T|/10. Query T=0 → distances .1, .2, .3.
	clf := New(samples, stubMetric{}, Config{K: 2, ThetaDelta: 0.2})
	p := clf.Predict(&session.Context{T: 0})
	if len(p.Neighbors) != 2 {
		t.Fatalf("neighbors = %+v, want the two within θ_δ=0.2 inclusive", p.Neighbors)
	}
	if p.Neighbors[1].Dist != 0.2 {
		t.Errorf("the θ_δ-tied neighbor was dropped: %+v", p.Neighbors)
	}
}

// TestPredictAllRaceStress exists to be run under -race: concurrent
// batch prediction over one shared classifier and memoized metric.
func TestPredictAllRaceStress(t *testing.T) {
	samples := buildSyntheticSamples(300, 11)
	clf := New(samples, hashMetric{}, Config{K: 3, ThetaDelta: 0.3, Workers: 8})
	queries := make([]*session.Context, 128)
	for i := range queries {
		queries[i] = &session.Context{T: i}
	}
	done := make(chan []Prediction, 4)
	for g := 0; g < 4; g++ {
		go func() { done <- clf.PredictAll(queries) }()
	}
	first := <-done
	for g := 1; g < 4; g++ {
		other := <-done
		for i := range first {
			if !predictionsEqual(first[i], other[i]) {
				t.Fatalf("concurrent PredictAll diverged at %d", i)
			}
		}
	}
}

// TestUnboundedParallelCoverage pins θ_δ = +∞ semantics on the parallel
// path: full coverage, k-th-best pruning still exact.
func TestUnboundedParallelCoverage(t *testing.T) {
	samples := buildSyntheticSamples(600, 5)
	for _, workers := range []int{1, 4} {
		clf := New(samples, hashMetric{}, Config{K: 3, ThetaDelta: math.Inf(1), Workers: workers})
		for qt := 0; qt < 10; qt++ {
			p := clf.Predict(&session.Context{T: 1000 + qt})
			if !p.Covered {
				t.Fatalf("workers=%d: unbounded classifier abstained", workers)
			}
			if len(p.Neighbors) != 3 {
				t.Fatalf("workers=%d: %d neighbors, want 3", workers, len(p.Neighbors))
			}
		}
	}
}

// TestPredictWorkersAgreeUnderFaults pins DESIGN.md §7's promise that a
// chaos run answers identically at every worker count: with the knn.scan
// probe armed, Predict at 1, 2 and 8 workers and PredictAll agree on every
// query, including those whose probe exhausts, which get no candidates.
// The test restores the injector it found, so an environment-armed run
// keeps its faults.
func TestPredictWorkersAgreeUnderFaults(t *testing.T) {
	if prev, armed := faults.Active(); armed {
		t.Cleanup(func() { faults.Enable(prev) })
	} else {
		t.Cleanup(faults.Disable)
	}
	samples := buildSyntheticSamples(700, 4) // > minParallelScan
	queries := make([]*session.Context, 200)
	for i := range queries {
		queries[i] = &session.Context{SessionID: "q", T: i, N: 2}
	}
	for _, cfg := range []Config{
		{K: 3, ThetaDelta: 0.15, Workers: 4},
		{K: 3, ThetaDelta: 0.05, Workers: 4, Fallback: FallbackNearest},
		{K: 5, ThetaDelta: 0.05, Workers: 4, Fallback: FallbackPrior},
	} {
		faults.Disable()
		clean := New(samples, hashMetric{}, cfg).PredictAll(queries)
		faults.Enable(faults.Config{Prob: 0.3, Seed: 1, Kinds: faults.KindError | faults.KindPanic, Sites: []string{faults.SiteKNNScan}})
		want := New(samples, hashMetric{}, cfg).PredictAll(queries)
		degraded := 0
		for _, workers := range []int{1, 2, 8} {
			cfg.Workers = workers
			clf := New(samples, hashMetric{}, cfg)
			for i, q := range queries {
				if got := clf.Predict(q); !predictionsEqual(got, want[i]) || got.Fallback != want[i].Fallback {
					t.Fatalf("cfg=%+v query %d: Predict %+v, PredictAll %+v", cfg, i, got, want[i])
				}
				if workers == 1 && (!predictionsEqual(want[i], clean[i]) || want[i].Fallback != clean[i].Fallback) {
					// An exhausted probe leaves no candidates: only the
					// prior answers, and FallbackNearest has nothing to re-vote.
					degraded++
					if want[i].Neighbors != nil || want[i].Covered != (cfg.Fallback == FallbackPrior) {
						t.Fatalf("cfg=%+v query %d: exhausted probe answered %+v", cfg, i, want[i])
					}
				}
			}
		}
		if degraded == 0 {
			t.Fatalf("cfg=%+v: no query degraded at p=0.3; the test is vacuous", cfg)
		}
	}
}
