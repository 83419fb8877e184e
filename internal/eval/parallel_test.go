package eval

import (
	"reflect"
	"testing"

	"repro/internal/distance"
	"repro/internal/measures"
	"repro/internal/offline"
	"repro/internal/svm"
)

// TestPairwiseDistancesWorkersEquivalence checks the parallel matrix fill
// is bit-identical to the sequential one at every width.
func TestPairwiseDistancesWorkersEquivalence(t *testing.T) {
	a := smallAnalysis(t)
	samples := offline.BuildTrainingSet(a, measures.DefaultSet(), offline.TrainingOptions{
		N: 2, Method: offline.Normalized, ThetaI: -100, SuccessfulOnly: true,
	})
	if len(samples) < 10 {
		t.Fatalf("fixture too small: %d samples", len(samples))
	}
	want, _ := PairwiseDistances(nil, samples, distance.NewMemoizedTreeEdit(nil), 1)
	wantNB, _ := sortNeighbors(nil, want, 1)
	for _, workers := range []int{0, 2, 7} {
		got, _ := PairwiseDistances(nil, samples, distance.NewMemoizedTreeEdit(nil), workers)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: matrix diverged", workers)
		}
		nb, _ := sortNeighbors(nil, got, workers)
		if !reflect.DeepEqual(nb, wantNB) {
			t.Fatalf("workers=%d: neighbor lists diverged", workers)
		}
	}
}

// TestEvaluateKNNWorkersEquivalence pins the LOOCV fan-out: identical
// Metrics at every worker count across representative grid configurations.
func TestEvaluateKNNWorkersEquivalence(t *testing.T) {
	a := smallAnalysis(t)
	configs := []KNNConfig{
		{K: 1, ThetaDelta: 0.1, ThetaI: -100},
		{K: 3, ThetaDelta: 0.2, ThetaI: 0},
		{K: 9, ThetaDelta: 0.5, ThetaI: 0.7},
		{K: 40, ThetaDelta: 0.05, ThetaI: -2.5},
	}
	for _, method := range offline.Methods {
		base := BuildEvalSet(a, measures.DefaultSet(), method, 2, nil)
		base.Workers = 1
		for _, cfg := range configs {
			want := base.EvaluateKNN(cfg)
			wantOut, _ := base.knnOutcomes(nil, cfg)
			for _, workers := range []int{0, 3, 16} {
				es := *base
				es.Workers = workers
				if got := es.EvaluateKNN(cfg); !reflect.DeepEqual(got, want) {
					t.Fatalf("%v workers=%d cfg=%+v:\n got %+v\nwant %+v", method, workers, cfg, got, want)
				}
				// Outcome ORDER must match too, not just the aggregates.
				if got, _ := es.knnOutcomes(nil, cfg); !reflect.DeepEqual(got, wantOut) {
					t.Fatalf("%v workers=%d cfg=%+v: outcome order diverged", method, workers, cfg)
				}
			}
		}
	}
}

// TestEvaluateSVMWorkersEquivalence pins the fold fan-out: the folds
// trained across four workers give the Metrics one worker gives, for
// both methods, several fold counts and seeds, and θ_I filters.
func TestEvaluateSVMWorkersEquivalence(t *testing.T) {
	a := smallAnalysis(t)
	for _, method := range offline.Methods {
		base := BuildEvalSet(a, measures.DefaultSet(), method, 2, nil)
		for _, c := range []struct {
			thetaI float64
			opts   SVMOptions
		}{
			{-100, SVMOptions{Folds: 4, Seed: 5}},
			{0, SVMOptions{Folds: 8, Seed: 1, Config: svm.Config{C: 2}}},
			{0.7, SVMOptions{Seed: 9}},
		} {
			seq := *base
			seq.Workers = 1
			want, wantErr := seq.EvaluateSVM(c.thetaI, c.opts)
			if wantErr != nil || want.Coverage != 1 {
				t.Fatalf("%v θ_I=%v %+v: one worker gave %+v (err %v), want a full-coverage result", method, c.thetaI, c.opts, want, wantErr)
			}
			par := *base
			par.Workers = 4
			got, err := par.EvaluateSVM(c.thetaI, c.opts)
			if err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("%v θ_I=%v %+v, 4 workers:\n got %+v (err %v)\nwant %+v", method, c.thetaI, c.opts, got, err, want)
			}
		}
	}
}

// TestCachedWorkersMatchesSequential checks a parallel DistanceCache
// produces the same matrices and metrics as the sequential uncached build.
func TestCachedWorkersMatchesSequential(t *testing.T) {
	a := smallAnalysis(t)
	I := measures.DefaultSet()
	cache := NewDistanceCache()
	cache.Workers = 6
	for _, method := range offline.Methods {
		seq := BuildEvalSet(a, I, method, 3, nil)
		seq.Workers = 1
		par := BuildEvalSetCached(a, I, method, 3, cache)
		if par.Workers != 6 {
			t.Fatalf("EvalSet did not inherit cache workers: %d", par.Workers)
		}
		if !reflect.DeepEqual(par.Dist, seq.Dist) {
			t.Fatalf("%v: cached parallel matrix diverged", method)
		}
		cfg := KNNConfig{K: 3, ThetaDelta: 0.2, ThetaI: -100}
		if got, want := par.EvaluateKNN(cfg), seq.EvaluateKNN(cfg); !reflect.DeepEqual(got, want) {
			t.Fatalf("%v: metrics diverged\n got %+v\nwant %+v", method, got, want)
		}
	}
}

// TestEvaluateKNNRaceStress exists to be run under -race: one shared
// EvalSet evaluated concurrently, as a parallel grid sweep would.
func TestEvaluateKNNRaceStress(t *testing.T) {
	a := smallAnalysis(t)
	es := BuildEvalSet(a, measures.DefaultSet(), offline.Normalized, 2, nil)
	es.Workers = 8
	cfg := KNNConfig{K: 3, ThetaDelta: 0.3, ThetaI: -100}
	want := es.EvaluateKNN(cfg)
	done := make(chan Metrics, 4)
	for g := 0; g < 4; g++ {
		go func() { done <- es.EvaluateKNN(cfg) }()
	}
	for g := 0; g < 4; g++ {
		if got := <-done; !reflect.DeepEqual(got, want) {
			t.Fatalf("concurrent EvaluateKNN diverged:\n got %+v\nwant %+v", got, want)
		}
	}
}
