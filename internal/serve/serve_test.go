package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/distance"
	"repro/internal/knn"
	"repro/internal/offline"
	"repro/internal/session"
	"repro/internal/snapshot"
)

// tinyServer builds a server over a one-sample classifier whose training
// context is trivially reachable (θ_δ generous), so requests matching it
// predict "variance" and distant ones abstain.
func tinyServer(t *testing.T, opts Options) *Server {
	t.Helper()
	sample := &offline.Sample{
		Context: trainCtx("train", 1),
		Labels:  []string{"variance"},
	}
	clf := knn.New([]*offline.Sample{sample}, distance.NewMemoizedTreeEdit(nil), knn.Config{
		K: 1, ThetaDelta: 0.25, Workers: 1,
	})
	return New(clf, ModelInfo{Method: "normalized", Measures: []string{"variance"}, N: 2, K: 1, ThetaDelta: 0.25, Fallback: "abstain", TrainingSize: 1}, opts)
}

// trainCtx is a minimal 1-node context (nil display ≡ empty-session root).
func trainCtx(id string, t int) *session.Context {
	return &session.Context{SessionID: id, T: t, N: 2, Size: 1, Root: &session.CtxNode{Step: t}}
}

func wireBody(t testing.TB, batch bool, ctxs ...*session.Context) string {
	t.Helper()
	wire := make([]*snapshot.WireContext, len(ctxs))
	for i, c := range ctxs {
		wire[i] = snapshot.EncodeContext(c, nil)
	}
	var v any
	if batch {
		v = map[string]any{"contexts": wire}
	} else {
		v = map[string]any{"context": wire[0]}
	}
	blob, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(blob)
}

func post(t *testing.T, h http.Handler, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func TestPredictSingleAndBatch(t *testing.T) {
	s := tinyServer(t, Options{})
	h := s.Handler()

	rec := post(t, h, "/v1/predict", wireBody(t, false, trainCtx("q", 1)))
	if rec.Code != http.StatusOK {
		t.Fatalf("single predict: %d %s", rec.Code, rec.Body)
	}
	var single predictResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &single); err != nil {
		t.Fatal(err)
	}
	if !single.OK || single.Measure != "variance" {
		t.Fatalf("single = %+v, want covered variance", single)
	}

	rec = post(t, h, "/v1/predict/batch", wireBody(t, true, trainCtx("q1", 1), trainCtx("q2", 2)))
	if rec.Code != http.StatusOK {
		t.Fatalf("batch predict: %d %s", rec.Code, rec.Body)
	}
	var batch struct {
		Predictions []predictResponse `json:"predictions"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &batch); err != nil {
		t.Fatal(err)
	}
	if len(batch.Predictions) != 2 {
		t.Fatalf("batch returned %d predictions, want 2", len(batch.Predictions))
	}
	for i, p := range batch.Predictions {
		if !p.OK || p.Measure != "variance" {
			t.Fatalf("batch[%d] = %+v, want covered variance", i, p)
		}
	}
}

func TestClientErrors(t *testing.T) {
	s := tinyServer(t, Options{MaxBatch: 2})
	h := s.Handler()

	if rec := post(t, h, "/v1/predict", `{not json`); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad JSON: %d", rec.Code)
	}
	if rec := post(t, h, "/v1/predict", `{}`); rec.Code != http.StatusBadRequest {
		t.Fatalf("missing context: %d", rec.Code)
	}
	if rec := post(t, h, "/v1/predict/batch", `{"contexts":[]}`); rec.Code != http.StatusBadRequest {
		t.Fatalf("empty batch: %d", rec.Code)
	}
	over := wireBody(t, true, trainCtx("a", 1), trainCtx("b", 2), trainCtx("c", 3))
	if rec := post(t, h, "/v1/predict/batch", over); rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("over-cap batch: %d", rec.Code)
	}
	// Bad display ref inside an otherwise well-formed context.
	if rec := post(t, h, "/v1/predict", `{"context":{"session_id":"s","root":{"ref":9}}}`); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad ref: %d %s", rec.Code, rec.Body)
	}

	req := httptest.NewRequest(http.MethodGet, "/v1/predict", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET predict: %d", rec.Code)
	}
	if allow := rec.Header().Get("Allow"); allow != http.MethodPost {
		t.Fatalf("Allow = %q", allow)
	}
}

func TestSaturationSheds(t *testing.T) {
	s := tinyServer(t, Options{MaxInFlight: 1})
	if s.MaxInFlight() != 1 {
		t.Fatalf("MaxInFlight = %d", s.MaxInFlight())
	}
	// Occupy the only slot directly; the next request must be shed, not
	// queued.
	s.lim.tryAcquire()
	defer s.lim.release()

	rec := post(t, s.Handler(), "/v1/predict", wireBody(t, false, trainCtx("q", 1)))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("saturated predict: %d, want 503", rec.Code)
	}
	if ra := rec.Header().Get("Retry-After"); ra == "" {
		t.Fatal("saturated 503 without Retry-After")
	}
	// Health endpoints never shed.
	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	hrec := httptest.NewRecorder()
	s.Handler().ServeHTTP(hrec, req)
	if hrec.Code != http.StatusOK {
		t.Fatalf("healthz under saturation: %d", hrec.Code)
	}
}

func TestReadyzDrain(t *testing.T) {
	s := tinyServer(t, Options{})
	get := func(path string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodGet, path, nil)
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		return rec
	}
	if rec := get("/readyz"); rec.Code != http.StatusOK {
		t.Fatalf("readyz before drain: %d", rec.Code)
	}
	s.SetReady(false)
	if rec := get("/readyz"); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining: %d", rec.Code)
	}
	// Predictions still answer during the drain window.
	if rec := post(t, s.Handler(), "/v1/predict", wireBody(t, false, trainCtx("q", 1))); rec.Code != http.StatusOK {
		t.Fatalf("predict while draining: %d", rec.Code)
	}
}

func TestModelEndpoint(t *testing.T) {
	s := tinyServer(t, Options{})
	req := httptest.NewRequest(http.MethodGet, "/v1/model", nil)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("model: %d", rec.Code)
	}
	var info ModelInfo
	if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	if info.Method != "normalized" || info.K != 1 || info.TrainingSize != 1 {
		t.Fatalf("model info drifted: %+v", info)
	}
}

// TestRunListenerGracefulShutdown: canceling the context drains and
// returns nil — the SIGINT path must exit 0.
func TestRunListenerGracefulShutdown(t *testing.T) {
	s := tinyServer(t, Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.RunListener(ctx, ln) }()

	base := fmt.Sprintf("http://%s", ln.Addr())
	resp, err := http.Post(base+"/v1/predict", "application/json",
		strings.NewReader(wireBody(t, false, trainCtx("q", 1))))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("live predict: %d", resp.StatusCode)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("graceful shutdown returned %v, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("RunListener did not return after cancel")
	}
}
