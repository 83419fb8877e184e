package repro

import (
	"encoding/json"
	"testing"
)

// TestTelemetryAfterFullPipeline checks that the pipeline's counters
// move. The shared fixture may have been generated and analyzed by an
// earlier test, so its counters are checked as totals; training and
// prediction are this test's own work, so theirs are checked as deltas
// across it.
func TestTelemetryAfterFullPipeline(t *testing.T) {
	fw := testFramework(t) // gen + offline (shared across the package)
	before := Telemetry()

	pred, err := fw.TrainPredictor(DefaultMeasureSet(), Normalized, DefaultPredictorConfig(Normalized))
	if err != nil {
		t.Fatal(err)
	}
	// Predict a handful of states so the kNN scan counters move.
	predicted := 0
	for _, s := range fw.Repo.Sessions() {
		if predicted >= 5 {
			break
		}
		st, err := s.StateAt(s.Steps())
		if err != nil {
			continue
		}
		pred.PredictState(st)
		predicted++
	}
	if predicted == 0 {
		t.Fatal("no states predicted")
	}

	snap := Telemetry()
	for _, name := range []string{
		"offline.actions_scored",
		"stats.boxcox.lambda_evals",
		"simulate.sessions",
		"measures.variance.evals",
	} {
		if snap.Counters[name] == 0 {
			t.Errorf("counter %q is zero after a full pipeline run", name)
		}
	}
	for _, name := range []string{
		"offline.train.samples",
		"knn.scans",
		"knn.distance_evals",
		"distance.treeedit.calls",
		"distance.treeedit.bounded_calls",
		"distance.treeedit.early_abandon",
		"distance.display.calls",
	} {
		if snap.Counters[name] <= before.Counters[name] {
			t.Errorf("counter %q did not move across training and %d predictions (%d before, %d after)",
				name, predicted, before.Counters[name], snap.Counters[name])
		}
	}
	for _, stage := range []string{"stage.gen", "stage.offline"} {
		if snap.Histograms[stage].Count == 0 {
			t.Errorf("stage histogram %q empty", stage)
		}
	}
	for _, stage := range []string{"stage.train", "stage.predict"} {
		if snap.Histograms[stage].Count <= before.Histograms[stage].Count {
			t.Errorf("stage histogram %q did not move across training and prediction", stage)
		}
	}
	if _, err := json.Marshal(snap); err != nil {
		t.Fatalf("snapshot does not marshal: %v", err)
	}
	if snap.Table() == "" {
		t.Fatal("empty telemetry table")
	}
}

// TestTelemetryLevelRoundTrip checks the level switch and reset surface.
func TestTelemetryLevelRoundTrip(t *testing.T) {
	defer SetTelemetryLevel(TelemetryCounters)
	SetTelemetryLevel(TelemetryTiming)
	if got := Telemetry().Mode; got != "timing" {
		t.Fatalf("mode = %q, want timing", got)
	}
	SetTelemetryLevel(TelemetryCounters)
	if got := Telemetry().Mode; got != "counters" {
		t.Fatalf("mode = %q, want counters", got)
	}
}
