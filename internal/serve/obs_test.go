package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestEveryResponseCarriesRequestIDAndContentType is the response-header
// audit: every handler, on every status class it can produce — success,
// 4xx, shed-503, panic-500, even the mux's own 404 — must answer with an
// X-Request-ID and an explicit Content-Type.
func TestEveryResponseCarriesRequestIDAndContentType(t *testing.T) {
	cases := []struct {
		name       string
		method     string
		path       string
		body       string
		status     int
		ctPrefix   string
		prep       func(t *testing.T, s *Server)
		wantHeader map[string]bool // extra headers that must be present
	}{
		{name: "healthz", method: "GET", path: "/healthz", status: 200, ctPrefix: "text/plain"},
		{name: "readyz ready", method: "GET", path: "/readyz", status: 200, ctPrefix: "text/plain"},
		{name: "readyz draining", method: "GET", path: "/readyz", status: 503, ctPrefix: "text/plain",
			prep: func(_ *testing.T, s *Server) { s.SetReady(false) }},
		{name: "metrics", method: "GET", path: "/metrics", status: 200, ctPrefix: "text/plain; version=0.0.4"},
		{name: "metrics wrong method", method: "POST", path: "/metrics", status: 405, ctPrefix: "application/json"},
		{name: "model", method: "GET", path: "/v1/model", status: 200, ctPrefix: "application/json"},
		{name: "predict ok", method: "POST", path: "/v1/predict", body: "VALID", status: 200, ctPrefix: "application/json"},
		{name: "predict wrong method", method: "GET", path: "/v1/predict", status: 405, ctPrefix: "application/json"},
		{name: "predict bad json", method: "POST", path: "/v1/predict", body: "{nope", status: 400, ctPrefix: "application/json"},
		{name: "predict missing context", method: "POST", path: "/v1/predict", body: "{}", status: 400, ctPrefix: "application/json"},
		{name: "batch over cap", method: "POST", path: "/v1/predict/batch", body: "BATCH2", status: 413, ctPrefix: "application/json",
			prep: func(_ *testing.T, s *Server) { s.opts.MaxBatch = 1 }},
		{name: "predict shed", method: "POST", path: "/v1/predict", body: "VALID", status: 503, ctPrefix: "application/json",
			prep:       func(_ *testing.T, s *Server) { s.lim.tryAcquire() },
			wantHeader: map[string]bool{"Retry-After": true}},
		{name: "reload wrong method", method: "GET", path: "/v1/admin/reload", status: 405, ctPrefix: "application/json"},
		{name: "reload no reloader", method: "POST", path: "/v1/admin/reload", status: 501, ctPrefix: "application/json"},
		{name: "candidates wrong method", method: "GET", path: "/v1/knn/candidates", status: 405, ctPrefix: "application/json"},
		{name: "candidates not sharded", method: "POST", path: "/v1/knn/candidates", body: "{}", status: 501, ctPrefix: "application/json"},
		{name: "snapshot wrong method", method: "GET", path: "/v1/admin/snapshot", status: 405, ctPrefix: "application/json"},
		{name: "snapshot not enabled", method: "POST", path: "/v1/admin/snapshot", body: "x", status: 501, ctPrefix: "application/json"},
		{name: "trace", method: "GET", path: "/v1/admin/trace", status: 200, ctPrefix: "application/json"},
		{name: "trace bad n", method: "GET", path: "/v1/admin/trace?n=zero", status: 400, ctPrefix: "application/json"},
		{name: "unknown path 404", method: "GET", path: "/nope", status: 404, ctPrefix: "text/plain"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := tinyServer(t, Options{MaxInFlight: 1})
			if tc.prep != nil {
				tc.prep(t, s)
			}
			body := tc.body
			switch body {
			case "VALID":
				body = wireBody(t, false, trainCtx("q", 1))
			case "BATCH2":
				body = wireBody(t, true, trainCtx("q1", 1), trainCtx("q2", 2))
			}
			req := httptest.NewRequest(tc.method, tc.path, strings.NewReader(body))
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, req)
			if rec.Code != tc.status {
				t.Fatalf("status = %d, want %d (body %s)", rec.Code, tc.status, rec.Body)
			}
			if id := rec.Header().Get("X-Request-ID"); id == "" {
				t.Error("response missing X-Request-ID")
			}
			if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, tc.ctPrefix) {
				t.Errorf("Content-Type = %q, want prefix %q", ct, tc.ctPrefix)
			}
			for h := range tc.wantHeader {
				if rec.Header().Get(h) == "" {
					t.Errorf("response missing %s header", h)
				}
			}
		})
	}
}

// TestPanic500CarriesHeaders pins the hardest header path: a panicking
// prediction must still answer 500 with both headers set (a nil
// classifier makes the predict call itself panic).
func TestPanic500CarriesHeaders(t *testing.T) {
	s := tinyServer(t, Options{})
	s.cur.Store(&activeModel{clf: nil, info: s.Status().ModelInfo, gen: 1})
	rec := post(t, s.Handler(), "/v1/predict", wireBody(t, false, trainCtx("q", 1)))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500 (body %s)", rec.Code, rec.Body)
	}
	if rec.Header().Get("X-Request-ID") == "" {
		t.Error("panic-500 missing X-Request-ID")
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("panic-500 Content-Type = %q", ct)
	}
}

// TestRequestIDPropagation: a caller-supplied X-Request-ID is echoed on
// the response and names the trace in the ring, so client logs join
// server traces on one key.
func TestRequestIDPropagation(t *testing.T) {
	s := tinyServer(t, Options{})
	req := httptest.NewRequest(http.MethodPost, "/v1/predict",
		strings.NewReader(wireBody(t, false, trainCtx("q", 1))))
	req.Header.Set("X-Request-ID", "caller-chose-this")
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if got := rec.Header().Get("X-Request-ID"); got != "caller-chose-this" {
		t.Fatalf("response id = %q, want the caller's", got)
	}
	recs := s.trace.traces.Snapshot(0)
	if len(recs) != 1 || recs[0].ID != "caller-chose-this" {
		t.Fatalf("ring traces = %+v, want one trace with the caller's id", recs)
	}
}

// TestTraceEndpointShowsStageBreakdown issues a prediction and reads it
// back from /v1/admin/trace: the per-stage timings, candidate counts and
// distance-eval counts recorded on the way through must be there.
func TestTraceEndpointShowsStageBreakdown(t *testing.T) {
	s := tinyServer(t, Options{})
	h := s.Handler()
	if rec := post(t, h, "/v1/predict", wireBody(t, false, trainCtx("q", 1))); rec.Code != 200 {
		t.Fatalf("predict: %d %s", rec.Code, rec.Body)
	}

	req := httptest.NewRequest(http.MethodGet, "/v1/admin/trace", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("trace endpoint: %d %s", rec.Code, rec.Body)
	}
	var resp struct {
		Capacity int               `json:"capacity"`
		Traces   []obs.TraceRecord `json:"traces"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Capacity < 1 || len(resp.Traces) != 1 {
		t.Fatalf("trace log = %+v, want exactly the predict trace", resp)
	}
	tr := resp.Traces[0]
	if tr.Op != "POST /v1/predict" || tr.Status != 200 || tr.ID == "" || tr.TotalNS == 0 {
		t.Fatalf("trace envelope wrong: %+v", tr)
	}
	stages := map[string]bool{}
	for _, st := range tr.Stages {
		stages[st.Name] = true
	}
	for _, want := range []string{"serve.predict", "serve.decode", "serve.encode", "knn.predict_all"} {
		if !stages[want] {
			t.Errorf("trace missing stage %q (got %v)", want, tr.Stages)
		}
	}
	if tr.Candidates < 1 || tr.DistanceEvals < 1 {
		t.Errorf("scan-cost annotations missing: candidates=%d dist_evals=%d", tr.Candidates, tr.DistanceEvals)
	}

	// The trace endpoint itself must not appear in the ring (a prober
	// would evict the traces an operator came to read).
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/v1/admin/trace", nil))
	if got := len(s.trace.traces.Snapshot(0)); got != 1 {
		t.Errorf("trace reads leaked into the ring: %d traces", got)
	}
}

// TestTraceRingHonorsCapAndShedRung: the ring evicts oldest beyond
// traceRingSize, and a shed request's trace carries the serve.shed rung
// with its 503.
func TestTraceRingHonorsCapAndShedRung(t *testing.T) {
	s := tinyServer(t, Options{MaxInFlight: 1})
	h := s.Handler()
	s.lim.tryAcquire() // saturate: every predict sheds
	for i := 0; i < traceRingSize+3; i++ {
		if rec := post(t, h, "/v1/predict", wireBody(t, false, trainCtx("q", i+1))); rec.Code != 503 {
			t.Fatalf("want shed 503, got %d", rec.Code)
		}
	}
	recs := s.trace.traces.Snapshot(0)
	if len(recs) != traceRingSize {
		t.Fatalf("ring holds %d traces, want cap %d", len(recs), traceRingSize)
	}
	for _, tr := range recs {
		if tr.Status != 503 || tr.Rungs["serve.shed"] != 1 {
			t.Errorf("shed trace = %+v, want 503 with serve.shed rung", tr)
		}
	}
}

// TestMetricsEndpointIsStrictPrometheus scrapes /metrics after live
// traffic and validates the full exposition with the strict parser; the
// surface must include the build-info series, serving counters, latency
// summaries, and a zero-valued series for every registered fault site.
func TestMetricsEndpointIsStrictPrometheus(t *testing.T) {
	s := tinyServer(t, Options{})
	h := s.Handler()
	for i := 0; i < 3; i++ {
		post(t, h, "/v1/predict", wireBody(t, false, trainCtx("q", i+1)))
	}
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("/metrics: %d %s", rec.Code, rec.Body)
	}
	body := rec.Body.String()
	if err := obs.ValidatePrometheus(bytes.NewReader(rec.Body.Bytes())); err != nil {
		t.Fatalf("/metrics is not strict Prometheus text:\n%v", err)
	}
	for _, want := range []string{
		"idarepro_build_info{",
		"idarepro_serve_requests_total",
		`idarepro_faults_injected_total{site="serve.predict"}`,
		`idarepro_faults_injected_total{site="knn.scan"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestModelReportsBuild: /v1/model must stamp the serving binary.
func TestModelReportsBuild(t *testing.T) {
	s := tinyServer(t, Options{})
	req := httptest.NewRequest(http.MethodGet, "/v1/model", nil)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	var st ModelStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Build.GoVersion == "" || st.Build.Version == "" {
		t.Fatalf("model status missing build info: %+v", st.Build)
	}
}
