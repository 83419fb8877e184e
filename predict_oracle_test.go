package repro

import (
	"testing"

	"repro/internal/distance"
	"repro/internal/knn"
	"repro/internal/session"
)

// TestPredictAllMatchesBruteForce checks the served predictor against the
// I-kNN definition itself: the exact distance to every training sample,
// the θ_δ gate, then the vote. Queries are the n-contexts of every state
// of every unsuccessful session, which training never sees. On this
// fixture, a search that prunes by the triangle inequality drops an
// in-threshold neighbor, because the display ground cost is not a metric
// (DESIGN.md §12).
func TestPredictAllMatchesBruteForce(t *testing.T) {
	if testing.Short() {
		t.Skip("trains on a 120-session log")
	}
	fw, err := GenerateBenchmark(SimulatorConfig{
		Analysts:      12,
		Sessions:      120,
		SuccessRate:   0.6,
		Seed:          7,
		DatasetConfig: NetlogConfig{Rows: 600},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := fw.RunOfflineAnalysis(AnalysisOptions{SkipReference: true}); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultPredictorConfig(Normalized)
	cfg.ThetaI = -10
	pred, err := fw.TrainPredictor(DefaultMeasureSet(), Normalized, cfg)
	if err != nil {
		t.Fatal(err)
	}

	var queries []*NContext
	for _, s := range fw.Repo.Sessions() {
		if s.Successful {
			continue
		}
		for step := 1; step <= s.Steps(); step++ {
			st, err := s.StateAt(step)
			if err != nil {
				t.Fatal(err)
			}
			queries = append(queries, session.Extract(st, cfg.N))
		}
	}
	got := pred.PredictAll(queries)

	samples := pred.clf.Samples()
	exact := distance.NewMemoizedTreeEdit(nil)
	wrong := 0
	for i, q := range queries {
		var eligible []knn.Neighbor
		for _, s := range samples {
			if d := exact.Distance(q, s.Context); d <= cfg.ThetaDelta {
				eligible = append(eligible, knn.Neighbor{Sample: s, Dist: d})
			}
		}
		want := knn.Vote(eligible, cfg.K)
		if got[i].MeasureName != want.Label || got[i].OK != want.Covered {
			wrong++
			t.Errorf("query %d (%s@%d): predicted (%q, %v), brute force (%q, %v)",
				i, q.SessionID, q.T, got[i].MeasureName, got[i].OK, want.Label, want.Covered)
		}
	}
	if wrong > 0 {
		t.Errorf("%d of %d predictions differ from the brute-force oracle", wrong, len(queries))
	}
}
