package repro

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/eval"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/offline"
)

// The chaos suite arms the deterministic fault injector across every
// site and kind and drives the full pipeline end to end. The contract
// under test is the degradation ladder: injected errors, latency and
// panics must surface as per-item degradation (dropped scores, z-only
// fits, normalized fallbacks, abstentions) — never as a test-killing
// panic and never as a failed pipeline run. Run it under -race to also
// catch unsynchronized recovery paths:
//
//	go test -race -run Chaos .

// chaosFramework generates a fresh small benchmark. Generation has no
// fault sites, but using a dedicated repo keeps the shared testFramework
// fixture untouched by injector state.
func chaosFramework(t *testing.T) *Framework {
	t.Helper()
	fw, err := GenerateBenchmark(SimulatorConfig{
		Analysts:      4,
		Sessions:      20,
		SuccessRate:   0.5,
		MeanActions:   4,
		Seed:          7,
		DatasetConfig: NetlogConfig{Rows: 600},
	})
	if err != nil {
		t.Fatal(err)
	}
	return fw
}

// armFaults enables the injector for the duration of the test, then
// restores the injector it found (an environment-armed run keeps its
// faults).
func armFaults(t *testing.T, cfg faults.Config) {
	t.Helper()
	if prev, armed := faults.Active(); armed {
		t.Cleanup(func() { faults.Enable(prev) })
	} else {
		t.Cleanup(faults.Disable)
	}
	faults.Enable(cfg)
}

// chaosAll is the acceptance configuration: every site, every kind,
// p=0.05, with a tiny latency cap so sleep faults stay cheap.
func chaosAll() faults.Config {
	return faults.Config{
		Prob:       0.05,
		Seed:       1,
		Kinds:      faults.KindAll,
		MaxLatency: 200 * time.Microsecond,
	}
}

func TestChaosFullPipelineNoPanics(t *testing.T) {
	fw := chaosFramework(t)
	armFaults(t, chaosAll())

	// Offline analysis: raw scoring, Box-Cox fits and reference execution
	// all carry probes; every failure must degrade per item, so the run
	// as a whole succeeds.
	err := fw.RunOfflineAnalysisContext(context.Background(), AnalysisOptions{RefLimit: 10, MinRefs: 2})
	if err != nil {
		t.Fatalf("offline analysis under chaos failed: %v", err)
	}
	if fw.Analysis == nil || len(fw.Analysis.Nodes) == 0 {
		t.Fatal("chaos analysis produced no nodes")
	}

	// Prediction: the scan probe can only downgrade single queries to
	// abstentions, never fail the batch.
	pred, err := fw.TrainPredictor(DefaultMeasureSet(), Normalized, PredictorConfig{
		N: 2, K: 5, ThetaDelta: 0.5, ThetaI: -10,
	})
	if err != nil {
		t.Fatal(err)
	}
	qs := testContexts(t, fw, 2, 32)
	out, err := pred.PredictAllContext(context.Background(), qs)
	if err != nil {
		t.Fatalf("batch prediction under chaos failed: %v", err)
	}
	if len(out) != len(qs) {
		t.Fatalf("batch returned %d results for %d queries", len(out), len(qs))
	}

	// Evaluation: pairwise distances and LOOCV outcomes degrade per pair
	// and per sample.
	es, err := eval.BuildEvalSetCachedCtx(context.Background(), fw.Analysis,
		DefaultMeasureSet(), offline.Normalized, 2, nil)
	if err != nil {
		t.Fatalf("eval-set build under chaos failed: %v", err)
	}
	m := es.EvaluateKNN(eval.KNNConfig{K: 3, ThetaDelta: 0.5, ThetaI: -10})
	if m.Accuracy < 0 || m.Accuracy > 1 || m.Coverage < 0 || m.Coverage > 1 {
		t.Errorf("chaos evaluation metrics out of range: %+v", m)
	}

	// The injector must actually have fired, and at least one recovery
	// path must have run — otherwise this suite is vacuous.
	if got := obs.C("faults.injected").Load(); got == 0 {
		t.Error("no faults injected at p=0.05 across a full pipeline run")
	}
	if obs.C("faults.injected.panic").Load() > 0 && obs.C("faults.panics_recovered").Load() == 0 {
		t.Error("panic faults fired but none were recovered")
	}
}

// TestChaosDeterministicAcrossWorkerCounts pins the content-keyed
// injection contract: fire decisions hash the work item, not the
// schedule, so a faulted run is bit-identical at every worker count.
func TestChaosDeterministicAcrossWorkerCounts(t *testing.T) {
	fw := chaosFramework(t)
	armFaults(t, faults.Config{Prob: 0.1, Seed: 3, Kinds: faults.KindError | faults.KindPanic})

	run := func(workers int) *Analysis {
		t.Helper()
		f := NewFramework(fw.Repo)
		err := f.RunOfflineAnalysisContext(context.Background(),
			AnalysisOptions{RefLimit: 10, MinRefs: 2, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return f.Analysis
	}
	seq, par := run(1), run(4)
	if len(seq.Nodes) != len(par.Nodes) {
		t.Fatalf("node counts differ: %d vs %d", len(seq.Nodes), len(par.Nodes))
	}
	for i := range seq.Nodes {
		a, b := seq.Nodes[i], par.Nodes[i]
		for _, maps := range []struct {
			name string
			x, y map[string]float64
		}{
			{"Raw", a.Raw, b.Raw},
			{"NormRelative", a.NormRelative, b.NormRelative},
			{"RefRelative", a.RefRelative, b.RefRelative},
		} {
			if len(maps.x) != len(maps.y) {
				t.Fatalf("node %d: %s sizes differ under faults: %d vs %d",
					i, maps.name, len(maps.x), len(maps.y))
			}
			for k, v := range maps.x {
				if w, ok := maps.y[k]; !ok || w != v {
					t.Fatalf("node %d: %s[%q] = %v sequential vs %v parallel",
						i, maps.name, k, v, w)
				}
			}
		}
	}
}

// TestChaosBatchMatchesSingleUnderFaults checks the prediction paths
// agree with each other while the injector is live: the kNN scan probe
// keys on the query fingerprint, so batch fan-out and one-at-a-time
// calls degrade identically.
func TestChaosBatchMatchesSingleUnderFaults(t *testing.T) {
	fw := chaosFramework(t)
	if err := fw.RunOfflineAnalysis(AnalysisOptions{RefLimit: 10, MinRefs: 2, SkipReference: true}); err != nil {
		t.Fatal(err)
	}
	pred, err := fw.TrainPredictor(DefaultMeasureSet(), Normalized, PredictorConfig{
		N: 2, K: 5, ThetaDelta: 0.5, ThetaI: -10, Fallback: FallbackNearest,
	})
	if err != nil {
		t.Fatal(err)
	}
	qs := testContexts(t, fw, 2, 24)
	armFaults(t, faults.Config{Prob: 0.3, Seed: 9, Kinds: faults.KindError | faults.KindPanic})

	batch := pred.PredictAll(qs)
	for i, q := range qs {
		label, ok := pred.Predict(q)
		if batch[i].MeasureName != label || batch[i].OK != ok {
			t.Fatalf("query %d: batch (%q,%v) != single (%q,%v) under faults",
				i, batch[i].MeasureName, batch[i].OK, label, ok)
		}
	}
}

// TestChaosServePredict drives the HTTP prediction server with the
// serve.predict probe armed: requests must degrade to 503s (the retryable
// kind) or answer exactly — never crash the server, never change a
// successful answer. The probe keys on request content, so which requests
// degrade is deterministic across runs.
func TestChaosServePredict(t *testing.T) {
	fw := chaosFramework(t)
	if err := fw.RunOfflineAnalysis(AnalysisOptions{RefLimit: 10, MinRefs: 2, SkipReference: true}); err != nil {
		t.Fatal(err)
	}
	pred, err := fw.TrainPredictor(DefaultMeasureSet(), Normalized, PredictorConfig{
		N: 2, K: 5, ThetaDelta: 0.5, ThetaI: -10,
	})
	if err != nil {
		t.Fatal(err)
	}
	qs := testContexts(t, fw, 2, 24)
	want := pred.PredictAll(qs)

	srv := httptest.NewServer(pred.Handler(ServeOptions{}))
	defer srv.Close()
	armFaults(t, faults.Config{
		Prob:  0.5,
		Seed:  1,
		Kinds: faults.KindError | faults.KindPanic,
		Sites: []string{faults.SiteServePredict},
	})

	degraded, answered := 0, 0
	for i, q := range qs {
		body, err := json.Marshal(map[string]any{"context": EncodeWireContext(q)})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(srv.URL+"/v1/predict", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		blob, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		switch resp.StatusCode {
		case http.StatusServiceUnavailable:
			degraded++
			if resp.Header.Get("Retry-After") == "" {
				t.Fatalf("query %d: degraded 503 without Retry-After", i)
			}
		case http.StatusOK:
			answered++
			var got struct {
				Measure  string `json:"measure"`
				OK       bool   `json:"ok"`
				Fallback bool   `json:"fallback"`
			}
			if err := json.Unmarshal(blob, &got); err != nil {
				t.Fatal(err)
			}
			if got.Measure != want[i].MeasureName || got.OK != want[i].OK || got.Fallback != want[i].Fallback {
				t.Fatalf("query %d: faulted 200 drifted from unfaulted prediction: %+v vs %+v", i, got, want[i])
			}
		default:
			t.Fatalf("query %d: status %d under chaos (body %s)", i, resp.StatusCode, blob)
		}
	}
	if degraded == 0 || answered == 0 {
		t.Fatalf("chaos run is vacuous: %d degraded, %d answered", degraded, answered)
	}
}
