package repro

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/binary"
	"encoding/json"
	"hash/fnv"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/faults"
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
	if n := binary.BigEndian.Uint64(plain.Bytes()[16:24]); uint64(plain.Len()) != 24+n+8 {
		t.Fatalf("new snapshot: %d bytes, want exactly the %d of its model frame", plain.Len(), 24+n+8)
	}

	var old bytes.Buffer
	if err := snapshot.Write(&old, pred.buildModel()); err != nil {
		t.Fatal(err)
	}
	appendRetiredIndex(t, &old, []byte(`{"leaf_size":8,"count":2,"root":0,"nodes":[{"v":-1,"in":-1,"out":-1,"leaf":[0,1]}]}`))
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

// appendRetiredIndex appends a kind-1 trailing section, version 1, as the
// builds that searched through a metric index wrote it: the "IDASECTv"
// header, the gzipped payload, and an FNV-64a checksum over the header
// fields and the payload (internal/snapshot/section.go).
func appendRetiredIndex(t *testing.T, buf *bytes.Buffer, index []byte) {
	t.Helper()
	var zbuf bytes.Buffer
	zw := gzip.NewWriter(&zbuf)
	if _, err := zw.Write(index); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	head := make([]byte, 28)
	copy(head, "IDASECTv")
	binary.BigEndian.PutUint32(head[8:12], 1)  // kind: the retired index
	binary.BigEndian.PutUint32(head[12:16], 1) // version
	binary.BigEndian.PutUint32(head[16:20], 1) // flags: gzip
	binary.BigEndian.PutUint64(head[20:28], uint64(zbuf.Len()))
	h := fnv.New64a()
	h.Write(head[8:])
	h.Write(zbuf.Bytes())
	buf.Write(head)
	buf.Write(zbuf.Bytes())
	buf.Write(binary.BigEndian.AppendUint64(nil, h.Sum64()))
}

// pushReplica saves pred to a fresh model file and returns a handler
// that accepts snapshot pushes onto it, reloading through
// SnapshotReloader as `idarepro serve -reload` does.
func pushReplica(t *testing.T, pred *Predictor) (http.Handler, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "model.snap")
	if err := pred.Save(path); err != nil {
		t.Fatal(err)
	}
	return pred.Handler(ServeOptions{ModelPath: path, Reloader: SnapshotReloader(path)}), path
}

// push POSTs body to /v1/admin/snapshot and returns the status code.
func push(h http.Handler, body []byte) int {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/admin/snapshot", bytes.NewReader(body)))
	return rec.Code
}

// modelGeneration reads the serving generation from /v1/model.
func modelGeneration(t *testing.T, h http.Handler) uint64 {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/model", nil))
	var st ServeModelStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	return st.Generation
}

// TestRejectedPushKeepsSnapshot: a well-framed snapshot whose model
// Validate refuses is answered 400 before the replica's model file is
// written; one that validates but whose reload fails (an injected
// serve.reload fault) is answered 500 and has the replaced bytes written
// back. Either way the file keeps the bytes the replica serves from, so
// a restart still loads, and the generation does not move.
func TestRejectedPushKeepsSnapshot(t *testing.T) {
	pred := trainSnapshotPredictor(t, testFramework(t), PredictorConfig{N: 2, K: 3, ThetaDelta: 0.25})
	h, path := pushReplica(t, pred)
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	encode := func(m *snapshot.Model) []byte {
		var buf bytes.Buffer
		if err := snapshot.Write(&buf, m); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	keeps := func(what string) {
		t.Helper()
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, orig) {
			t.Fatalf("model file after %s: %d bytes (%v), want the original %d", what, len(got), err, len(orig))
		}
		if gen := modelGeneration(t, h); gen != 1 {
			t.Fatalf("generation after %s: %d, want 1", what, gen)
		}
	}
	for name, mutate := range map[string]func(m *snapshot.Model){
		"an unknown method": func(m *snapshot.Model) { m.Method = "bogus" },
		"k = 0":             func(m *snapshot.Model) { m.K = 0 },
		"n = 0":             func(m *snapshot.Model) { m.N = 0 },
		"a sample context over n nodes": func(m *snapshot.Model) {
			root := m.Samples[0].Context.Root
			for i := 0; i < m.N; i++ {
				root.Children = append(root.Children, &snapshot.WireNode{Step: 100 + i})
			}
		},
	} {
		m := pred.buildModel()
		mutate(m)
		if code := push(h, encode(m)); code != http.StatusBadRequest {
			t.Fatalf("push of a model with %s: %d, want 400", name, code)
		}
		keeps("a push of a model with " + name)
	}

	// A model that validates but whose reload fails restores the file.
	other := pred.buildModel()
	other.K = 5
	armFaults(t, faults.Config{Prob: 1, Seed: 1, Kinds: faults.KindError, Sites: []string{faults.SiteServeReload}})
	if code := push(h, encode(other)); code != http.StatusInternalServerError {
		t.Fatalf("push under an armed serve.reload site: %d, want 500", code)
	}
	faults.Disable()
	keeps("a push whose reload failed")
	if _, err := LoadPredictor(path); err != nil {
		t.Fatalf("restart after the rejected pushes: %v", err)
	}
	// A good push still lands.
	if code := push(h, encode(other)); code != http.StatusOK {
		t.Fatalf("push of a valid model: %d, want 200", code)
	}
}

// inflateBomb is a well-framed snapshot, checksum included, whose payload
// of 256 MiB of spaces and then "{}" gzips to about 261 KB: 256
// concatenated gzip members of 1 MiB of spaces, then one of "{}".
func inflateBomb(t *testing.T) []byte {
	t.Helper()
	zip := func(raw []byte) []byte {
		var buf bytes.Buffer
		zw := gzip.NewWriter(&buf)
		if _, err := zw.Write(raw); err != nil {
			t.Fatal(err)
		}
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	payload := append(bytes.Repeat(zip(bytes.Repeat([]byte(" "), 1<<20)), 256), zip([]byte("{}"))...)
	head := make([]byte, 24)
	copy(head, "IDASNAPv")
	binary.BigEndian.PutUint32(head[8:12], snapshot.Version)
	binary.BigEndian.PutUint32(head[12:16], 1) // flags: gzip
	binary.BigEndian.PutUint64(head[16:24], uint64(len(payload)))
	h := fnv.New64a()
	h.Write(payload)
	return binary.BigEndian.AppendUint64(append(head, payload...), h.Sum64())
}

// TestInflateBombRefused: a snapshot that inflates about 1,000 times is
// refused by snapshot.Read, which stops inflating at the frame's bound
// (64 times the stored payload) after allocating less than twice that
// bound, and by POST /v1/admin/snapshot, which leaves the model file
// alone.
func TestInflateBombRefused(t *testing.T) {
	bomb := inflateBomb(t)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, err := snapshot.Read(bytes.NewReader(bomb))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatalf("snapshot.Read accepted a %d-byte frame inflating to 256 MiB", len(bomb))
	}
	alloc, bound := after.TotalAlloc-before.TotalAlloc, uint64(len(bomb)-32)*64 // frame: 24-byte header, 8-byte checksum
	if alloc >= 2*bound {
		t.Fatalf("refusing the bomb allocated %.1f MB, want under %.1f MB (twice the %.1f MB inflate bound)",
			float64(alloc)/1e6, float64(2*bound)/1e6, float64(bound)/1e6)
	}

	h, path := pushReplica(t, trainSnapshotPredictor(t, testFramework(t), PredictorConfig{N: 2, K: 3, ThetaDelta: 0.25}))
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if code := push(h, bomb); code != http.StatusBadRequest {
		t.Fatalf("push of the bomb: %d, want 400", code)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, orig) {
		t.Fatal("a refused push changed the model file")
	}
}
