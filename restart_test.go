package repro

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/faults"
	"repro/internal/frame"
	"repro/internal/obs"
	"repro/internal/snapshot"
)

// Restart-survivability acceptance (DESIGN.md §9): a training run killed
// at an arbitrary point and resumed from its checkpoint must produce a
// byte-identical model snapshot, and a server that hot-reloads a
// snapshot must serve predictions identical to the in-process model.
// Run under -race alongside the chaos suite:
//
//	go test -race -run 'KillResume|Reload' .

// trainSnapshotBytes runs analysis + training end to end under opts and
// returns the serialized model snapshot.
func trainSnapshotBytes(ctx context.Context, t *testing.T, fw *Framework, opts AnalysisOptions, method Method, cfg PredictorConfig) ([]byte, error) {
	t.Helper()
	f := NewFramework(fw.Repo)
	if err := f.RunOfflineAnalysisContext(ctx, opts); err != nil {
		return nil, err
	}
	p, err := f.TrainPredictorContext(ctx, DefaultMeasureSet(), method, cfg)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := p.WriteSnapshot(&buf); err != nil {
		t.Fatalf("snapshot write: %v", err)
	}
	return buf.Bytes(), nil
}

// TestChaosKillResumeCompare is the kill-resume-compare acceptance: the
// analysis + training pipeline is repeatedly killed by a context
// deadline at unpredictable points, resumed from its checkpoint
// directory, and — once it finally completes — its snapshot must be
// byte-identical to an uninterrupted run's. Error and panic faults stay
// armed throughout (content-keyed injection degrades both runs
// identically); checkpoint-write faults degrade to a skipped flush, so
// they only move the resume point, never the output.
func TestChaosKillResumeCompare(t *testing.T) {
	fw := chaosFramework(t)
	armFaults(t, faults.Config{Prob: 0.05, Seed: 11, Kinds: faults.KindError | faults.KindPanic})

	method := ReferenceBased // exercises the checkpointed reference pass
	opts := AnalysisOptions{RefLimit: 10, MinRefs: 2, CheckpointEvery: 4}
	cfg := DefaultPredictorConfig(method)

	baseline, err := trainSnapshotBytes(context.Background(), t, fw, opts, method, cfg)
	if err != nil {
		t.Fatalf("uninterrupted run failed: %v", err)
	}

	ckptOpts := opts
	ckptOpts.CheckpointDir = t.TempDir()
	ckptOpts.Resume = true
	interrupted := 0
	deadline := time.Millisecond
	for attempt := 0; ; attempt++ {
		if attempt > 60 {
			t.Fatalf("pipeline never completed after %d interrupted attempts", interrupted)
		}
		ctx, cancel := context.WithTimeout(context.Background(), deadline)
		snap, err := trainSnapshotBytes(ctx, t, fw, ckptOpts, method, cfg)
		timedOut := ctx.Err() != nil
		cancel()
		if err == nil {
			if !bytes.Equal(snap, baseline) {
				t.Fatalf("resumed snapshot differs from uninterrupted baseline (%d vs %d bytes) after %d kills",
					len(snap), len(baseline), interrupted)
			}
			if interrupted == 0 {
				t.Fatal("pipeline completed within 1ms; the kill sweep never interrupted anything")
			}
			t.Logf("byte-identical snapshot (%d bytes) after %d mid-run kills", len(snap), interrupted)
			return
		}
		if !timedOut {
			t.Fatalf("attempt %d failed for a non-deadline reason: %v", attempt, err)
		}
		interrupted++
		// Grow the deadline slowly so several attempts die mid-stage at
		// different points before one finally finishes.
		deadline = deadline * 3 / 2
	}
}

// TestReloadServesIdenticalPredictions is the hot-reload acceptance: a
// server wired with a SnapshotReloader swaps in generation 2 on
// /v1/admin/reload, and the predictions it then serves over HTTP (via
// the resilient client) are identical to the in-process model's
// PredictAll answers.
func TestReloadServesIdenticalPredictions(t *testing.T) {
	fw := chaosFramework(t)
	if err := fw.RunOfflineAnalysis(AnalysisOptions{RefLimit: 10, MinRefs: 2, SkipReference: true}); err != nil {
		t.Fatal(err)
	}
	pred, err := fw.TrainPredictor(DefaultMeasureSet(), Normalized, PredictorConfig{
		N: 2, K: 5, ThetaDelta: 0.5, ThetaI: -10, Fallback: FallbackPrior,
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.snap")
	if err := pred.Save(path); err != nil {
		t.Fatal(err)
	}

	srv := pred.NewServer(ServeOptions{Reloader: SnapshotReloader(path)})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/admin/reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var st ServeModelStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || st.Generation != 2 {
		t.Fatalf("reload: status %d generation %d, want 200 generation 2", resp.StatusCode, st.Generation)
	}
	if got := srv.Status(); got.Generation != 2 || got.TrainingSize != pred.TrainingSize() {
		t.Fatalf("post-reload status = %+v", got)
	}

	qs := testContexts(t, fw, 2, 24)
	want := pred.PredictAll(qs)
	cl, err := client.New(client.Options{BaseURL: ts.URL})
	if err != nil {
		t.Fatal(err)
	}
	wire := make([]*snapshot.WireContext, len(qs))
	for i, q := range qs {
		wire[i] = EncodeWireContext(q)
	}
	got, err := cl.PredictBatch(context.Background(), wire)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("batch returned %d predictions for %d queries", len(got), len(want))
	}
	for i := range want {
		if got[i].Measure != want[i].MeasureName || got[i].OK != want[i].OK || got[i].Fallback != want[i].Fallback || got[i].Degraded {
			t.Fatalf("query %d: reloaded server %+v != in-process %+v", i, got[i], want[i])
		}
	}
}

// TestReloadKeepsServerWorkers: the worker count is the serving
// process's, never the snapshot's. A 512-sample model served by a
// one-worker replica is reloaded through /v1/admin/reload and then
// pushed through /v1/admin/snapshot, both times from a file whose JSON
// carries the "workers": 64 key earlier builds wrote; the server's
// batch predictions and candidate scans still run inline
// (parallel.batches does not move), and the file still loads and answers
// bit-identically to the same model without the key.
func TestReloadKeepsServerWorkers(t *testing.T) {
	fw := chaosFramework(t)
	if err := fw.RunOfflineAnalysis(AnalysisOptions{SkipReference: true}); err != nil {
		t.Fatal(err)
	}
	trained, err := fw.TrainPredictor(DefaultMeasureSet(), Normalized, PredictorConfig{N: 2, K: 5, ThetaDelta: 0.5, ThetaI: -10})
	if err != nil {
		t.Fatal(err)
	}
	// Repeat the training set past the 512 samples a scan needs to split
	// across workers.
	m := trained.buildModel()
	for base := m.Samples; len(m.Samples) < 512; {
		m.Samples = append(m.Samples, base...)
	}
	dir := t.TempDir()
	plainPath, path := filepath.Join(dir, "plain.snap"), filepath.Join(dir, "model.snap")
	if err := snapshot.Save(plainPath, m); err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var withKey bytes.Buffer
	if err := frame.Write(&withKey, "IDASNAPv", snapshot.Version, append([]byte(`{"workers":64,`), raw[1:]...)); err != nil {
		t.Fatal(err)
	}
	plain, err := LoadPredictor(plainPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, withKey.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	keyed, err := LoadPredictor(path)
	if err != nil {
		t.Fatalf("a snapshot carrying the workers key: %v", err)
	}
	qs := testContexts(t, fw, 2, 24)
	want := plain.PredictAll(qs)
	assertSamePredictions(t, "workers key", want, keyed.PredictAll(qs))

	plain.SetWorkers(1)
	spec := &RingSpec{Shards: 1, Replicas: 1, Nodes: []RingNode{{Name: "n0", Addr: "http://127.0.0.1:1"}}}
	srv, err := plain.NewShardServer(spec, "n0", ServeOptions{Reloader: SnapshotReloader(path), ModelPath: path})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	wire := make([]*snapshot.WireContext, len(qs))
	for i, q := range qs {
		wire[i] = EncodeWireContext(q)
	}
	batch, err := json.Marshal(map[string]any{"contexts": wire})
	if err != nil {
		t.Fatal(err)
	}
	cands, err := json.Marshal(map[string]any{"shard": 0, "contexts": wire[:1]})
	if err != nil {
		t.Fatal(err)
	}
	post := func(endpoint string, body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, endpoint, bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: %d %s", endpoint, rec.Code, rec.Body)
		}
		return rec
	}
	for i, reload := range []struct {
		endpoint string
		body     []byte
	}{{"/v1/admin/reload", nil}, {"/v1/admin/snapshot", withKey.Bytes()}} {
		post(reload.endpoint, reload.body)
		if gen := srv.Status().Generation; gen != uint64(i+2) {
			t.Fatalf("reload %d: generation %d, want %d", i+1, gen, i+2)
		}
		before := obs.Default.Snapshot().Counters["parallel.batches"]
		var got struct {
			Predictions []struct {
				Measure  string `json:"measure"`
				OK       bool   `json:"ok"`
				Fallback bool   `json:"fallback"`
			} `json:"predictions"`
		}
		if err := json.Unmarshal(post("/v1/predict/batch", batch).Body.Bytes(), &got); err != nil {
			t.Fatal(err)
		}
		post("/v1/knn/candidates", cands)
		if after := obs.Default.Snapshot().Counters["parallel.batches"]; after != before {
			t.Fatalf("reload %d: parallel.batches moved %d -> %d; the server took the snapshot's worker count", i+1, before, after)
		}
		served := make([]BatchPrediction, len(got.Predictions))
		for j, p := range got.Predictions {
			served[j] = BatchPrediction{MeasureName: p.Measure, OK: p.OK, Fallback: p.Fallback}
		}
		assertSamePredictions(t, "served after a reload", want, served)
	}
}
