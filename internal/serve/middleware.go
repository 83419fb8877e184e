package serve

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/obs"
)

// tracePipe is the request-tracing envelope shared by the standalone
// Server and the ring Router: it assigns (or propagates) the X-Request-ID
// correlation header, threads a per-request obs.Trace through the
// context, and on completion pushes /v1/* traces into a ring buffer, the
// one trace sink (GET /v1/admin/trace). Health probes and /metrics
// scrapes are traced for the header but kept out of the ring so a prober
// cannot evict the prediction traces an operator came to read.
type tracePipe struct {
	traces *obs.TraceRing
}

// wrap is the root middleware around a mux. Every response — including
// 404s from unknown paths — passes through it, so every response carries
// an X-Request-ID header.
func (t *tracePipe) wrap(mux *http.ServeMux) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-ID")
		if id == "" {
			id = obs.NewRequestID()
		}
		w.Header().Set("X-Request-ID", id)
		tr := obs.NewTrace(id, r.Method+" "+r.URL.Path)
		sw := &statusWriter{ResponseWriter: w}
		mux.ServeHTTP(sw, r.WithContext(obs.WithTrace(r.Context(), tr)))
		status := sw.status
		if status == 0 {
			status = http.StatusOK
		}
		tr.Finish(status)
		if strings.HasPrefix(r.URL.Path, "/v1/") && r.URL.Path != "/v1/admin/trace" {
			t.traces.Push(tr)
		}
	})
}

// statusWriter captures the response status for the completed trace.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// handleTraceLog returns the most recent completed request traces,
// newest first. ?n=K limits the count.
func (t *tracePipe) handleTraceLog(w http.ResponseWriter, r *http.Request) {
	if !allowMethod(w, r, http.MethodGet) {
		return
	}
	limit := 0
	if v := r.URL.Query().Get("n"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			httpClientError(w, http.StatusBadRequest, fmt.Errorf("invalid n=%q: want a positive integer", v))
			return
		}
		limit = n
	}
	recs := t.traces.Snapshot(limit)
	if recs == nil {
		recs = []obs.TraceRecord{}
	}
	writeJSON(w, http.StatusOK, struct {
		Capacity int               `json:"capacity"`
		Traces   []obs.TraceRecord `json:"traces"`
	}{t.traces.Cap(), recs})
}

// httpClientError answers a request whose fault is the caller's,
// counting it as a serve error.
func httpClientError(w http.ResponseWriter, code int, err error) {
	mErrors.Inc()
	writeJSON(w, code, errorResponse{Error: err.Error()})
}
