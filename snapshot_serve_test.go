package repro

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/session"
	"repro/internal/snapshot"
)

// evalContexts extracts one n-context per session state across the whole
// repository — successful and unsuccessful sessions alike, so the batch
// contains covered predictions and abstentions.
func evalContexts(t *testing.T, fw *Framework, n int) []*NContext {
	t.Helper()
	var out []*NContext
	for _, s := range fw.Repo.Sessions() {
		for tt := 0; tt < s.Steps(); tt++ {
			st, err := s.StateAt(tt)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, session.Extract(st, n))
		}
	}
	if len(out) == 0 {
		t.Fatal("no eval contexts")
	}
	return out
}

// trainSnapshotPredictor trains the shared fixture's predictor with the
// given config.
func trainSnapshotPredictor(t *testing.T, fw *Framework, cfg PredictorConfig) *Predictor {
	t.Helper()
	pred, err := fw.TrainPredictor(DefaultMeasureSet(), Normalized, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return pred
}

// assertSamePredictions compares two index-aligned batch outputs exactly —
// measure names, coverage, and fallback provenance.
func assertSamePredictions(t *testing.T, label string, want, got []BatchPrediction) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d vs %d predictions", label, len(want), len(got))
	}
	covered, abstained := 0, 0
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: prediction %d drifted: %+v -> %+v", label, i, want[i], got[i])
		}
		if want[i].OK {
			covered++
		} else {
			abstained++
		}
	}
	if covered == 0 {
		t.Fatalf("%s: no covered predictions — the comparison is vacuous", label)
	}
	t.Logf("%s: %d covered, %d abstained, all bit-identical", label, covered, abstained)
}

// TestSnapshotRoundTripBitIdentical is the acceptance property of the
// snapshot format: train → Save → Load in a pristine predictor → the
// reloaded model answers every evaluation context exactly as the original,
// abstentions and fallbacks included.
func TestSnapshotRoundTripBitIdentical(t *testing.T) {
	fw := testFramework(t)
	cfg := PredictorConfig{N: 2, K: 3, ThetaDelta: 0.25, ThetaI: 0}
	pred := trainSnapshotPredictor(t, fw, cfg)
	ctxs := evalContexts(t, fw, cfg.N)
	want := pred.PredictAll(ctxs)

	path := filepath.Join(t.TempDir(), "model.snap")
	if err := pred.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadPredictor(path)
	if err != nil {
		t.Fatal(err)
	}

	if loaded.Config() != pred.Config() {
		t.Fatalf("config drifted: %+v -> %+v", pred.Config(), loaded.Config())
	}
	if loaded.Method() != pred.Method() {
		t.Fatalf("method drifted: %v -> %v", pred.Method(), loaded.Method())
	}
	if loaded.TrainingSize() != pred.TrainingSize() {
		t.Fatalf("training size drifted: %d -> %d", pred.TrainingSize(), loaded.TrainingSize())
	}
	if w, g := pred.MeasureSet().Names(), loaded.MeasureSet().Names(); !reflect.DeepEqual(w, g) {
		t.Fatalf("measure set drifted: %v -> %v", w, g)
	}
	if pred.norm == nil || loaded.norm == nil {
		t.Fatal("normalization state lost in the round trip")
	}
	if !reflect.DeepEqual(pred.norm.Params, loaded.norm.Params) {
		t.Fatal("normalization parameters drifted through the snapshot")
	}

	assertSamePredictions(t, "reload", want, loaded.PredictAll(ctxs))

	// The guarantee is worker-independent: a reloaded model answering
	// sequentially still matches the parallel original bit for bit.
	loaded.SetWorkers(1)
	assertSamePredictions(t, "reload/sequential", want, loaded.PredictAll(ctxs))
}

// TestSnapshotRoundTripWithFallback covers the degradation ladder through
// the format: a tight-θ_δ model with a prior fallback must reload with the
// policy (and its Fallback provenance bits) intact.
func TestSnapshotRoundTripWithFallback(t *testing.T) {
	fw := testFramework(t)
	cfg := PredictorConfig{N: 2, K: 3, ThetaDelta: 0.02, ThetaI: 0, Fallback: FallbackPrior}
	pred := trainSnapshotPredictor(t, fw, cfg)
	ctxs := evalContexts(t, fw, cfg.N)
	want := pred.PredictAll(ctxs)

	fellBack := 0
	for _, p := range want {
		if p.Fallback {
			fellBack++
		}
	}
	if fellBack == 0 {
		t.Fatal("fixture produced no fallback predictions — tighten θ_δ")
	}

	var buf bytes.Buffer
	if err := pred.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadPredictor(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Config().Fallback != FallbackPrior {
		t.Fatalf("fallback policy drifted: %v", loaded.Config().Fallback)
	}
	assertSamePredictions(t, "fallback reload", want, loaded.PredictAll(ctxs))
}

// TestServeHTTPBitIdentical: a snapshot served over HTTP answers exactly
// like the in-process batch API — the full train → save → load → serve →
// query path preserves every prediction bit for bit.
func TestServeHTTPBitIdentical(t *testing.T) {
	fw := testFramework(t)
	cfg := PredictorConfig{N: 2, K: 3, ThetaDelta: 0.25, ThetaI: 0}
	pred := trainSnapshotPredictor(t, fw, cfg)
	ctxs := evalContexts(t, fw, cfg.N)
	want := pred.PredictAll(ctxs)

	// Serve from a reloaded snapshot, as a fresh process would.
	path := filepath.Join(t.TempDir(), "model.snap")
	if err := pred.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadPredictor(path)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(loaded.Handler(ServeOptions{}))
	defer srv.Close()

	// Batch endpoint over every evaluation context.
	wire := make([]*snapshot.WireContext, len(ctxs))
	for i, c := range ctxs {
		wire[i] = EncodeWireContext(c)
	}
	body, err := json.Marshal(map[string]any{"contexts": wire})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v1/predict/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch predict: %d", resp.StatusCode)
	}
	var batch struct {
		Predictions []struct {
			Measure  string `json:"measure"`
			OK       bool   `json:"ok"`
			Fallback bool   `json:"fallback"`
		} `json:"predictions"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&batch); err != nil {
		t.Fatal(err)
	}
	got := make([]BatchPrediction, len(batch.Predictions))
	for i, p := range batch.Predictions {
		got[i] = BatchPrediction{MeasureName: p.Measure, OK: p.OK, Fallback: p.Fallback}
	}
	assertSamePredictions(t, "http batch", want, got)

	// Single-prediction endpoint agrees with the batch on a covered query.
	idx := -1
	for i, p := range want {
		if p.OK {
			idx = i
			break
		}
	}
	single, err := json.Marshal(map[string]any{"context": wire[idx]})
	if err != nil {
		t.Fatal(err)
	}
	resp2, err := http.Post(srv.URL+"/v1/predict", "application/json", bytes.NewReader(single))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("single predict: %d", resp2.StatusCode)
	}
	var one struct {
		Measure  string `json:"measure"`
		OK       bool   `json:"ok"`
		Fallback bool   `json:"fallback"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&one); err != nil {
		t.Fatal(err)
	}
	if one.Measure != want[idx].MeasureName || one.OK != want[idx].OK || one.Fallback != want[idx].Fallback {
		t.Fatalf("single prediction drifted: %+v vs %+v", one, want[idx])
	}

	// Operational surface: model description and probes.
	mresp, err := http.Get(srv.URL + "/v1/model")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var info ServeModelInfo
	if err := json.NewDecoder(mresp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	if info.Method != "normalized" || info.K != cfg.K || info.ThetaDelta != cfg.ThetaDelta ||
		info.TrainingSize != pred.TrainingSize() || !reflect.DeepEqual(info.Measures, pred.MeasureSet().Names()) {
		t.Fatalf("model info drifted: %+v", info)
	}
	for _, probe := range []string{"/healthz", "/readyz"} {
		presp, err := http.Get(srv.URL + probe)
		if err != nil {
			t.Fatal(err)
		}
		presp.Body.Close()
		if presp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d", probe, presp.StatusCode)
		}
	}
}

// TestPredictorServeCancel: Predictor.Serve exits nil on context
// cancellation — the path `idarepro serve` takes on SIGINT.
func TestPredictorServeCancel(t *testing.T) {
	fw := testFramework(t)
	pred := trainSnapshotPredictor(t, fw, PredictorConfig{N: 2, K: 3, ThetaDelta: 0.25, ThetaI: 0})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- pred.Serve(ctx, "127.0.0.1:0", ServeOptions{}) }()
	cancel()
	if err := <-done; err != nil && !strings.Contains(err.Error(), "Server closed") {
		t.Fatalf("Serve after cancel: %v", err)
	}
}

// TestRetiredIndexSectionStillLoads pins snapshot compatibility across
// the removal of the metric index. Earlier builds appended the index as a
// kind-1 trailing section; such a file must still load through both
// LoadPredictor and ReadPredictor and answer exactly like the same model
// without the section. New snapshots carry no section, and saving a
// predictor loaded from the old file writes the sectionless bytes.
func TestRetiredIndexSectionStillLoads(t *testing.T) {
	fw := testFramework(t)
	cfg := PredictorConfig{N: 2, K: 3, ThetaDelta: 0.25, ThetaI: 0}
	pred := trainSnapshotPredictor(t, fw, cfg)
	ctxs := evalContexts(t, fw, cfg.N)
	want := pred.PredictAll(ctxs)

	var plain bytes.Buffer
	if err := pred.WriteSnapshot(&plain); err != nil {
		t.Fatal(err)
	}
	if _, secs, err := snapshot.ReadSections(bytes.NewReader(plain.Bytes())); err != nil || len(secs) != 0 {
		t.Fatalf("new snapshot: %d trailing sections, err %v; want none", len(secs), err)
	}

	var old bytes.Buffer
	index := snapshot.Section{Kind: snapshot.SectionKNNIndex, Version: snapshot.KNNIndexVersion,
		Payload: []byte(`{"leaf_size":8,"count":2,"root":0,"nodes":[{"v":-1,"in":-1,"out":-1,"leaf":[0,1]}]}`)}
	if err := snapshot.WriteSections(&old, pred.buildModel(), index); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "indexed.snap")
	if err := os.WriteFile(path, old.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	fromFile, err := LoadPredictor(path)
	if err != nil {
		t.Fatal(err)
	}
	fromStream, err := ReadPredictor(bytes.NewReader(old.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for _, loaded := range []struct {
		name string
		p    *Predictor
	}{{"LoadPredictor", fromFile}, {"ReadPredictor", fromStream}} {
		assertSamePredictions(t, loaded.name, want, loaded.p.PredictAll(ctxs))
		var again bytes.Buffer
		if err := loaded.p.WriteSnapshot(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), plain.Bytes()) {
			t.Fatalf("%s: re-saving the old snapshot did not write the sectionless bytes", loaded.name)
		}
	}
}
