package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/pipeline"
)

// The envelope's fixed limits, the same for every Server and Router.
const (
	// maxBodyBytes caps a predict or candidates request body, and the
	// candidates response a router reads back from a replica.
	maxBodyBytes = 32 << 20
	// shutdownGrace bounds the graceful drain; a draining instance
	// advertises it as its Retry-After.
	shutdownGrace = 10 * time.Second
	// traceRingSize caps the completed-request traces kept for
	// GET /v1/admin/trace.
	traceRingSize = 128
)

// envelope is the request lifecycle Server and Router share: the
// tracing middleware and its mux, the in-flight limiter and service-time
// estimate behind admission, the readiness flag, and the graceful drain.
// Each embeds one and registers its own endpoints next to the shared
// /healthz, /metrics and /v1/admin/trace.
type envelope struct {
	// name ("server" or "router") words the shed response.
	name string
	lim  limiter
	// est tracks the service time of admitted requests — the estimate a
	// stamped X-Deadline-Ms budget is checked against.
	est latEstimator
	// trace is the shared tracing middleware (see middleware.go); it
	// also backs GET /v1/admin/trace.
	trace *tracePipe
	mux   *http.ServeMux

	readyMu sync.Mutex
	ready   bool
}

// newEnvelope builds the shared lifecycle around a resolved in-flight
// bound.
func newEnvelope(name string, maxInFlight int) *envelope {
	e := &envelope{
		name:  name,
		lim:   newLimiter(maxInFlight),
		trace: &tracePipe{traces: obs.NewTraceRing(traceRingSize)},
		mux:   http.NewServeMux(),
		ready: true,
	}
	e.mux.HandleFunc("/healthz", handleHealthz)
	e.mux.HandleFunc("/metrics", handleMetrics)
	e.mux.HandleFunc("/v1/admin/trace", e.trace.handleTraceLog)
	return e
}

// Handler returns the HTTP handler (also usable under httptest or an
// existing mux). Every response — including 404s from unknown paths —
// passes through the tracing middleware (see middleware.go), so every
// response carries an X-Request-ID header.
func (e *envelope) Handler() http.Handler { return e.trace.wrap(e.mux) }

// SetReady flips the readiness probe (the drain flips it to false).
func (e *envelope) SetReady(v bool) {
	e.readyMu.Lock()
	e.ready = v
	e.readyMu.Unlock()
}

func (e *envelope) isReady() bool {
	e.readyMu.Lock()
	defer e.readyMu.Unlock()
	return e.ready
}

func handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeText(w, http.StatusOK, "ok\n")
}

func (e *envelope) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if !e.isReady() {
		writeText(w, http.StatusServiceUnavailable, "draining\n")
		return
	}
	writeText(w, http.StatusOK, "ready\n")
}

// retryAfterSeconds is the Retry-After hint of a shed or degraded
// response: 1s while serving, and the shutdown grace while draining —
// the instance is going away and a retry should land elsewhere after the
// drain.
func (e *envelope) retryAfterSeconds() int {
	if !e.isReady() {
		return int(shutdownGrace / time.Second)
	}
	return 1
}

// admit is the prologue of every admission-controlled endpoint (predict,
// batch, candidates): count the request, claim an in-flight slot or shed
// it at once with 503 + Retry-After, then check its X-Deadline-Ms budget
// against the service-time estimate (504 when the budget cannot cover
// it). A shed beats a budget reject when both apply — the client's retry
// policy treats them the same, and the shed carries the Retry-After
// hint. When ok is false the response is already written. Otherwise ctx
// carries the budget and the caller must defer done: it answers a panic
// below with a 500 naming site (the server stays up), feeds the service
// time into the estimate, and releases the slot.
func (e *envelope) admit(w http.ResponseWriter, r *http.Request, site string) (ctx context.Context, done func(), ok bool) {
	mRequests.Inc()
	tr := obs.TraceFrom(r.Context())
	if !e.lim.tryAcquire() {
		mRejected.Inc()
		tr.Rung("serve.shed")
		w.Header().Set("Retry-After", strconv.Itoa(e.retryAfterSeconds()))
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: e.name + " saturated; retry"})
		return nil, nil, false
	}
	t0 := time.Now()
	ctx, cancel, ok := admitDeadline(w, r, &e.est, tr)
	if !ok {
		e.lim.release()
		return nil, nil, false
	}
	return ctx, func() {
		// recover works here because the caller defers this func itself.
		if rec := recover(); rec != nil {
			mErrors.Inc()
			tr.Rung("serve.panic_500")
			writeJSON(w, http.StatusInternalServerError, errorResponse{Error: pipeline.Recovered(site, rec).Error()})
		}
		cancel()
		e.est.observe(time.Since(t0))
		e.lim.release()
	}, true
}

// timePredict opens the serve.predict stage span of a predict or batch
// request; the returned func ends it and records serve.latency.
func timePredict(ctx context.Context) func() {
	t0 := time.Now()
	sp := stServe.StartCtx(ctx)
	return func() {
		sp.End()
		hLatency.ObserveSince(t0)
	}
}

// writePredictions counts the answers and encodes them: the bare object
// for /v1/predict, {"predictions": [...]} for the batch endpoint.
func writePredictions(w http.ResponseWriter, ctx context.Context, out []predictResponse, batch bool) {
	for _, p := range out {
		mPredictions.Inc()
		switch {
		case p.Fallback:
			mFallback.Inc()
		case !p.OK:
			mAbstain.Inc()
		}
	}
	sp := stEncode.StartCtx(ctx)
	defer sp.End()
	if batch {
		writeJSON(w, http.StatusOK, struct {
			Predictions []predictResponse `json:"predictions"`
		}{out})
		return
	}
	writeJSON(w, http.StatusOK, out[0])
}

// listenAndRun listens on addr and hands the listener to run.
func listenAndRun(ctx context.Context, addr string, run func(context.Context, net.Listener) error) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("serve: listen %s: %w", addr, err)
	}
	return run(ctx, ln)
}

// serve answers on ln until ctx is canceled, then drains gracefully:
// readiness flips to 503, the listener closes, and in-flight requests
// get the shutdown grace to complete. A clean drain returns nil — the
// path a SIGINT through signal.NotifyContext takes.
func (e *envelope) serve(ctx context.Context, ln net.Listener) error {
	// The read/write/idle timeouts bound what a single stalled client can
	// hold: without them, a connection that trickles its body (or never
	// reads the response) pins a kernel socket — and, once admitted, an
	// in-flight slot — forever.
	srv := &http.Server{
		Handler:           e.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
		WriteTimeout:      2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return fmt.Errorf("serve: %w", err)
	case <-ctx.Done():
	}
	e.SetReady(false)
	shCtx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
	defer cancel()
	if err := srv.Shutdown(shCtx); err != nil {
		return fmt.Errorf("serve: shutdown: %w", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return fmt.Errorf("serve: %w", err)
	}
	return nil
}

// allowMethod answers 405 with an Allow header unless r uses method.
func allowMethod(w http.ResponseWriter, r *http.Request, method string) bool {
	if r.Method == method {
		return true
	}
	w.Header().Set("Allow", method)
	writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: method + " required"})
	return false
}

func writeText(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(code)
	io.WriteString(w, msg)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}
