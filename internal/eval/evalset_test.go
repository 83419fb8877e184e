package eval

import (
	"math"
	"sync"
	"testing"

	"repro/internal/measures"
	"repro/internal/netlog"
	"repro/internal/offline"
	"repro/internal/simulate"
)

var (
	cachedAnalysis *offline.Analysis
	analysisOnce   sync.Once
	analysisErr    error
)

// smallAnalysis builds a compact simulated repository and runs the offline
// analysis once, shared across this package's tests (it is read-only).
func smallAnalysis(t *testing.T) *offline.Analysis {
	t.Helper()
	analysisOnce.Do(func() {
		repo, err := simulate.Generate(simulate.Config{
			Analysts:      8,
			Sessions:      48,
			SuccessRate:   0.5,
			MeanActions:   4.5,
			Seed:          11,
			DatasetConfig: netlog.Config{Rows: 1200},
		})
		if err != nil {
			analysisErr = err
			return
		}
		cachedAnalysis, analysisErr = offline.Analyze(repo, offline.Options{RefLimit: 25, Seed: 1})
	})
	if analysisErr != nil {
		t.Fatal(analysisErr)
	}
	return cachedAnalysis
}

func smallEvalSet(t *testing.T) *EvalSet {
	t.Helper()
	return BuildEvalSet(smallAnalysis(t), measures.DefaultSet(), offline.Normalized, 3, nil)
}

func TestBuildEvalSetShape(t *testing.T) {
	es := smallEvalSet(t)
	n := len(es.Samples)
	if n < 20 {
		t.Fatalf("too few samples: %d", n)
	}
	if len(es.Best) != n || len(es.Dist) != n || len(es.neighbors) != n {
		t.Fatal("parallel arrays out of sync")
	}
	for i := 0; i < n; i++ {
		if es.Dist[i][i] != 0 {
			t.Fatalf("self distance = %v", es.Dist[i][i])
		}
		for j := 0; j < n; j++ {
			d := es.Dist[i][j]
			if d < 0 || d > 1 || d != es.Dist[j][i] {
				t.Fatalf("distance (%d,%d) = %v invalid", i, j, d)
			}
		}
		// Neighbor lists must be sorted ascending.
		prev := -1.0
		for _, jj := range es.neighbors[i] {
			if es.Dist[i][jj] < prev {
				t.Fatal("neighbors not sorted")
			}
			prev = es.Dist[i][jj]
		}
		if len(es.neighbors[i]) != n-1 {
			t.Fatalf("neighbor list size = %d", len(es.neighbors[i]))
		}
	}
}

func TestEvaluateKNNThresholdTradeoffs(t *testing.T) {
	es := smallEvalSet(t)
	loose := es.EvaluateKNN(KNNConfig{K: 5, ThetaDelta: 0.5, ThetaI: math.Inf(-1)})
	tight := es.EvaluateKNN(KNNConfig{K: 5, ThetaDelta: 0.02, ThetaI: math.Inf(-1)})
	if tight.Coverage > loose.Coverage {
		t.Errorf("tighter θ_δ cannot increase coverage: %v vs %v", tight.Coverage, loose.Coverage)
	}
	if loose.Coverage < 0.9 {
		t.Errorf("θ_δ=0.5 should cover nearly everything, got %v", loose.Coverage)
	}
	if loose.Samples != len(es.Samples) {
		t.Errorf("unfiltered sample count = %d", loose.Samples)
	}
	// θ_I filter shrinks the evaluated set.
	filtered := es.EvaluateKNN(KNNConfig{K: 5, ThetaDelta: 0.5, ThetaI: 1.0})
	if filtered.Samples >= loose.Samples {
		t.Errorf("θ_I should drop samples: %d vs %d", filtered.Samples, loose.Samples)
	}
}

func TestEvaluateKNNBeatsRandom(t *testing.T) {
	es := smallEvalSet(t)
	knn := es.EvaluateKNN(KNNConfig{K: 5, ThetaDelta: 0.2, ThetaI: 0})
	rnd := es.EvaluateRandom(0, 99)
	if knn.Accuracy <= rnd.Accuracy {
		t.Errorf("kNN (%v) should beat RANDOM (%v)", knn.Accuracy, rnd.Accuracy)
	}
}

func TestEvaluateRandomIsNearUniform(t *testing.T) {
	es := smallEvalSet(t)
	m := es.EvaluateRandom(math.Inf(-1), 7)
	if m.Coverage != 1 {
		t.Errorf("RANDOM coverage = %v, want 1", m.Coverage)
	}
	// Accuracy should be loosely near 1/4 (ties push it a bit up).
	if m.Accuracy < 0.1 || m.Accuracy > 0.5 {
		t.Errorf("RANDOM accuracy = %v, expected in [0.1, 0.5]", m.Accuracy)
	}
}

func TestEvaluateBestSM(t *testing.T) {
	es := smallEvalSet(t)
	m := es.EvaluateBestSM(math.Inf(-1))
	if m.Coverage != 1 {
		t.Errorf("BestSM coverage = %v", m.Coverage)
	}
	// BestSM accuracy equals the prevalence of the most common label —
	// strictly below 1 and above 1/|I| for a non-degenerate log.
	if m.Accuracy <= 0.25 || m.Accuracy >= 0.9 {
		t.Errorf("BestSM accuracy = %v looks degenerate", m.Accuracy)
	}
	// Its macro-recall is dominated by predicting a single class.
	if m.MacroRecall > 0.5 {
		t.Errorf("BestSM macro-recall = %v, should be low", m.MacroRecall)
	}
}

func TestEvaluateSVM(t *testing.T) {
	es := smallEvalSet(t)
	m, err := es.EvaluateSVM(math.Inf(-1), SVMOptions{Folds: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if m.Coverage != 1 {
		t.Errorf("SVM coverage = %v, want 1", m.Coverage)
	}
	rnd := es.EvaluateRandom(math.Inf(-1), 123)
	if m.Accuracy <= rnd.Accuracy {
		t.Errorf("SVM (%v) should beat RANDOM (%v)", m.Accuracy, rnd.Accuracy)
	}
}

func TestPaperOrderingOnSimulatedLog(t *testing.T) {
	// The qualitative Table-5 ordering: RANDOM < BestSM < learned models.
	es := smallEvalSet(t)
	rnd := es.EvaluateRandom(0, 1)
	bsm := es.EvaluateBestSM(0)
	knn := es.EvaluateKNN(KNNConfig{K: 5, ThetaDelta: 0.15, ThetaI: 0})
	if !(rnd.Accuracy < bsm.Accuracy) {
		t.Errorf("RANDOM %v should trail BestSM %v", rnd.Accuracy, bsm.Accuracy)
	}
	if !(bsm.Accuracy < knn.Accuracy) {
		t.Errorf("BestSM %v should trail I-kNN %v", bsm.Accuracy, knn.Accuracy)
	}
}

func TestGridSearchAndSkyline(t *testing.T) {
	a := smallAnalysis(t)
	g := GridSpec{
		Ns:          []int{1, 3},
		Ks:          []int{1, 5},
		ThetaDeltas: []float64{0.1, 0.5},
		ThetaIs:     []float64{-2.5, 0.7},
	}
	points := GridSearch(a, measures.DefaultSet(), offline.Normalized, g, nil)
	if len(points) != g.Size() {
		t.Fatalf("grid points = %d, want %d", len(points), g.Size())
	}
	sky := Skyline(points)
	if len(sky) == 0 {
		t.Fatal("empty skyline")
	}
	// Skyline must be sorted by coverage and strictly improving in
	// accuracy as coverage decreases.
	for i := 1; i < len(sky); i++ {
		if sky[i].Metrics.Coverage < sky[i-1].Metrics.Coverage {
			t.Error("skyline not sorted by coverage")
		}
		if sky[i].Metrics.Accuracy >= sky[i-1].Metrics.Accuracy {
			t.Error("skyline accuracy should strictly decrease with coverage")
		}
	}
	// No point may dominate a skyline member.
	for _, s := range sky {
		for _, p := range points {
			if p.Metrics.Coverage >= s.Metrics.Coverage && p.Metrics.Accuracy > s.Metrics.Accuracy {
				t.Fatalf("skyline member dominated: %+v by %+v", s.Metrics, p.Metrics)
			}
		}
	}
	if _, ok := BestByF1TimesCoverage(sky); !ok {
		t.Error("default-config selection failed")
	}
	if _, ok := BestByF1TimesCoverage(nil); ok {
		t.Error("empty skyline should not yield a config")
	}
}

func TestDefaultAndFullGrids(t *testing.T) {
	for _, m := range offline.Methods {
		dg := DefaultGrid(m)
		if dg.Size() == 0 {
			t.Fatalf("default grid empty for %v", m)
		}
		fg := FullGrid(m)
		if fg.Size() < 50000 {
			t.Errorf("full grid for %v has %d points, want >= 50000 (the paper's scale)", m, fg.Size())
		}
	}
}

func TestDefaultKNNMatchesTable4(t *testing.T) {
	n, cfg := DefaultKNN(offline.ReferenceBased)
	if n != 3 || cfg.K != 3 || cfg.ThetaDelta != 0.2 || cfg.ThetaI != 0.92 {
		t.Errorf("RB default = n=%d %+v", n, cfg)
	}
	n, cfg = DefaultKNN(offline.Normalized)
	if n != 2 || cfg.K != 3 || cfg.ThetaDelta != 0.1 || cfg.ThetaI != 0.7 {
		t.Errorf("Norm default = n=%d %+v", n, cfg)
	}
}
