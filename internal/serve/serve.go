// Package serve is the HTTP prediction server over a trained I-kNN
// classifier: it answers single and batch measure predictions for JSON
// wire contexts (internal/snapshot's self-contained form), with the
// operational envelope a long-running process needs — health/readiness
// probes, bounded in-flight concurrency with explicit load-shedding,
// request telemetry through internal/obs, deterministic fault-injection
// sites for chaos coverage, graceful drain on context cancellation, and
// hot model reload without dropping in-flight requests.
//
// Degradation under load is deliberate and layered (DESIGN.md §8): when
// more requests are in flight than the configured bound, new prediction
// requests are rejected immediately with 503 + Retry-After instead of
// queueing without bound; health endpoints never shed, so orchestrators
// keep seeing the process as alive-but-saturated. Retry-After is 1s
// while serving and the 10s shutdown grace while draining. During
// shutdown the readiness probe flips to 503 first, so load balancers
// drain the instance while in-flight requests complete.
//
// Model reload (DESIGN.md §9) is load-validate-swap: the Reloader builds
// a candidate classifier off to the side, a self-test probes it against
// its own training contexts, and only then does an atomic pointer swap
// publish it. Requests already executing keep the model they started
// with; a failed load leaves the old model serving and bumps a counter.
package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/faults"
	"repro/internal/knn"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/pipeline"
	"repro/internal/ring"
	"repro/internal/session"
)

// Request telemetry: the covered/abstain/fallback split mirrors the
// classifier's own counters but is attributed to the serving layer, so the
// -v snapshot and the -telemetry expvar page show what HTTP traffic (as
// opposed to in-process batches) experienced.
var (
	mRequests     = obs.C("serve.requests")
	mRejected     = obs.C("serve.rejected")
	mErrors       = obs.C("serve.errors")
	mPredictions  = obs.C("serve.predictions")
	mAbstain      = obs.C("serve.abstain")
	mFallback     = obs.C("serve.fallback")
	mReloads      = obs.C("serve.reloads")
	mReloadFailed = obs.C("serve.reload_failed")
	gGeneration   = obs.G("serve.model_generation")
	hLatency      = obs.H("serve.latency")
	stServe       = obs.S("serve.predict")
	stDecode      = obs.S("serve.decode")
	stEncode      = obs.S("serve.encode")
	// mDecodeFallback counts the request bodies the one-pass reader
	// declined and encoding/json decoded (decode.go).
	mDecodeFallback = obs.C("serve.decode_fallback")
)

// ModelInfo describes the loaded model on /v1/model. N, the model's
// context size n, also caps a request context's node count: every
// endpoint that decodes contexts answers 400 to one with more than N
// nodes (snapshot.CheckContext), so a model with N = 0 accepts none.
type ModelInfo struct {
	Method       string   `json:"method"`
	Measures     []string `json:"measures"`
	N            int      `json:"n"`
	K            int      `json:"k"`
	ThetaDelta   float64  `json:"theta_delta"`
	ThetaI       float64  `json:"theta_i"`
	Fallback     string   `json:"fallback"`
	TrainingSize int      `json:"training_size"`
	// Prior is the training set's most common label — the answer a
	// degraded client falls back to when the server is unreachable.
	Prior string `json:"prior,omitempty"`
	// Checksum is the FNV-64a hash of the snapshot file the model was
	// loaded from (snapshot.FileChecksum), empty when the model did not
	// come from a file. The ring repair loop compares this value across
	// replicas to detect stale snapshots (DESIGN.md §11).
	Checksum string `json:"checksum,omitempty"`
}

// ModelStatus is the /v1/model response: the model description plus its
// reload provenance and the build serving it.
type ModelStatus struct {
	ModelInfo
	// Generation counts model swaps: 1 for the model the server started
	// with, +1 per successful reload.
	Generation uint64 `json:"generation"`
	// LoadedAt is when this generation went live.
	LoadedAt time.Time `json:"loaded_at"`
	// Build identifies the binary answering, so a client error report can
	// name the exact server build it talked to.
	Build buildinfo.Info `json:"build"`
	// Role distinguishes ring members: "replica" for a shard-serving
	// node, "router" for the fan-out tier, empty for a standalone server.
	Role string `json:"role,omitempty"`
	// Shards lists the ring shards this replica serves candidates for
	// (nil for standalone servers and routers).
	Shards []int `json:"shards,omitempty"`
}

// Reloader builds a replacement model for hot reload — typically by
// re-reading a snapshot file (see repro.SnapshotReloader). It runs off
// the request path; an error (or panic) leaves the current model
// serving.
type Reloader func() (*knn.Classifier, ModelInfo, error)

// ErrDraining rejects a reload that races a graceful shutdown: the swap
// would never serve a request and the drain deadline must not wait on a
// model load.
var ErrDraining = errors.New("serve: draining; reload rejected")

// ErrNoReloader reports a reload request against a server constructed
// without a Reloader.
var ErrNoReloader = errors.New("serve: no reloader configured")

// Options bounds the server's resource envelope.
type Options struct {
	// MaxInFlight caps concurrently served prediction requests; excess
	// requests are shed with 503 + Retry-After. <1 sizes the bound like a
	// worker pool: one slot per CPU (see parallel.Workers).
	MaxInFlight int
	// MaxBatch caps the contexts accepted by one batch request
	// (413 beyond it). <1 means 1024.
	MaxBatch int
	// Reloader, when set, enables hot model reload via Server.Reload
	// (wired to SIGHUP and POST /v1/admin/reload by cmd/idarepro).
	Reloader Reloader
	// Ring, with NodeName, makes this server a ring replica: it builds
	// per-shard classifiers for the shards the ring places on NodeName
	// and serves their candidate sets on POST /v1/knn/candidates.
	Ring *ring.Ring
	// NodeName is this process's identity in the ring spec.
	NodeName string
	// ModelPath, when set, enables POST /v1/admin/snapshot: the repair
	// loop pushes a verified snapshot here (atomic write) and the server
	// hot-reloads it. Requires Reloader.
	ModelPath string
}

func (o Options) withDefaults() Options {
	o.MaxInFlight = parallel.Workers(o.MaxInFlight)
	if o.MaxBatch < 1 {
		o.MaxBatch = 1024
	}
	return o
}

// activeModel is the immutable unit of hot reload: classifier, its
// description, and reload provenance, swapped atomically as one value so
// /v1/model never describes a classifier other than the one serving.
type activeModel struct {
	clf      *knn.Classifier
	info     ModelInfo
	gen      uint64
	loadedAt time.Time
	// shards holds this replica's per-shard classifiers (nil when the
	// server is not a ring member), rebuilt on every reload so candidate
	// answers always come from the generation /v1/model reports.
	shards map[int]*shardModel
	role   string
}

func (a *activeModel) status() ModelStatus {
	st := ModelStatus{ModelInfo: a.info, Generation: a.gen, LoadedAt: a.loadedAt, Build: buildinfo.Get(), Role: a.role}
	if len(a.shards) > 0 {
		st.Shards = make([]int, 0, len(a.shards))
		for sh := range a.shards {
			st.Shards = append(st.Shards, sh)
		}
		sort.Ints(st.Shards)
	}
	return st
}

// Server serves predictions from a trained classifier.
type Server struct {
	*envelope
	cur  atomic.Pointer[activeModel]
	opts Options

	// reloadMu serializes Reload calls; the swap itself is the atomic
	// pointer store, so the request path never takes this lock.
	reloadMu sync.Mutex
	// pushMu serializes snapshot pushes, so a push whose reload fails
	// writes back the bytes it replaced, not a concurrent push's.
	pushMu sync.Mutex
}

// New builds a server. The classifier must be fully constructed; the
// server never mutates it.
func New(clf *knn.Classifier, info ModelInfo, opts Options) *Server {
	opts = opts.withDefaults()
	s := &Server{envelope: newEnvelope("server", opts.MaxInFlight), opts: opts}
	if s.opts.NodeName != "" {
		// Pre-register this node's gray-failure chaos site so its
		// injection counter exports a stable series from startup.
		faults.RegisterSite(faults.SiteServeSlow + "." + s.opts.NodeName)
	}
	s.cur.Store(s.buildActive(clf, info, 1))
	gGeneration.Set(1)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	s.mux.HandleFunc("/v1/model", s.handleModel)
	s.mux.HandleFunc("/v1/predict", func(w http.ResponseWriter, r *http.Request) { s.servePrediction(w, r, false) })
	s.mux.HandleFunc("/v1/predict/batch", func(w http.ResponseWriter, r *http.Request) { s.servePrediction(w, r, true) })
	s.mux.HandleFunc("/v1/knn/candidates", s.handleCandidates)
	s.mux.HandleFunc("/v1/admin/reload", s.handleReload)
	s.mux.HandleFunc("/v1/admin/snapshot", s.handleSnapshotPush)
	return s
}

// buildActive assembles one immutable model unit, including the
// per-shard classifiers when this server is a ring replica.
func (s *Server) buildActive(clf *knn.Classifier, info ModelInfo, gen uint64) *activeModel {
	am := &activeModel{clf: clf, info: info, gen: gen, loadedAt: time.Now()}
	if s.opts.Ring != nil && s.opts.NodeName != "" {
		am.role = "replica"
		am.shards = buildShards(clf, s.opts.Ring, s.opts.NodeName)
	}
	return am
}

// MaxInFlight reports the resolved in-flight bound.
func (s *Server) MaxInFlight() int { return s.opts.MaxInFlight }

// Status reports the live model's description and generation.
func (s *Server) Status() ModelStatus { return s.cur.Load().status() }

// Reload swaps in a fresh model from the configured Reloader:
// load, validate (checksum verification and snapshot.Validate happen
// inside the reloader's snapshot read; a self-test probe here), then an
// atomic pointer swap. The new classifier takes the live one's worker
// count before the self-test, so a reload never changes how the process
// fans out. In-flight requests finish on the model they started with.
// Any failure — load error, injected fault, panic, self-test rejection —
// leaves the previous model serving and returns the error. A draining
// server rejects reloads with ErrDraining.
func (s *Server) Reload() (ModelStatus, error) {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	if !s.isReady() {
		return ModelStatus{}, ErrDraining
	}
	if s.opts.Reloader == nil {
		return ModelStatus{}, ErrNoReloader
	}
	prev := s.cur.Load()
	gen := prev.gen + 1
	clf, info, err := s.loadGuarded(gen)
	if err == nil && clf != nil {
		clf.SetWorkers(prev.clf.Config().Workers)
	}
	if err == nil {
		err = selfTest(clf)
	}
	if err != nil {
		mReloadFailed.Inc()
		return ModelStatus{}, fmt.Errorf("serve: reload (generation %d kept): %w", prev.gen, err)
	}
	next := s.buildActive(clf, info, gen)
	s.cur.Store(next)
	mReloads.Inc()
	gGeneration.Set(int64(gen))
	return next.status(), nil
}

// loadGuarded runs the reloader under the serve.reload fault site with
// panic isolation: a reloader that panics (or an injected fault) is an
// ordinary failed reload, never a crashed server.
func (s *Server) loadGuarded(gen uint64) (clf *knn.Classifier, info ModelInfo, err error) {
	defer func() {
		if r := recover(); r != nil {
			clf, info, err = nil, ModelInfo{}, pipeline.Recovered(faults.SiteServeReload, r)
		}
	}()
	if err := faults.Inject(nil, faults.SiteServeReload, "gen:"+strconv.FormatUint(gen, 10), faults.KindAll); err != nil {
		return nil, ModelInfo{}, err
	}
	return s.opts.Reloader()
}

// selfTest validates a candidate model before it may serve traffic: it
// must exist, carry training samples, and survive predicting a few of
// its own training contexts. A model that panics on its own data would
// 500 every request — better to reject the swap.
func selfTest(clf *knn.Classifier) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("self-test: %v", pipeline.Recovered("serve.selftest", r))
		}
	}()
	if clf == nil {
		return errors.New("self-test: reloader returned a nil classifier")
	}
	samples := clf.Samples()
	if len(samples) == 0 {
		return errors.New("self-test: model has no training samples")
	}
	for i := 0; i < len(samples) && i < 3; i++ {
		clf.Predict(samples[i].Context)
	}
	return nil
}

// Run listens on addr and serves until ctx is canceled, then drains
// gracefully (see RunListener).
func (s *Server) Run(ctx context.Context, addr string) error {
	return listenAndRun(ctx, addr, s.RunListener)
}

// RunListener serves on ln (tests use :0) until ctx is canceled, then
// drains: readiness flips to 503, the listener closes, and in-flight
// requests get the shutdown grace to complete. A clean drain returns nil.
func (s *Server) RunListener(ctx context.Context, ln net.Listener) error { return s.serve(ctx, ln) }

// predictResponse is one prediction result on the wire. OK=false is an
// abstention (measure empty); Fallback marks a prediction produced by the
// configured degradation policy rather than the θ_δ-gated vote.
type predictResponse struct {
	Measure  string `json:"measure,omitempty"`
	OK       bool   `json:"ok"`
	Fallback bool   `json:"fallback,omitempty"`
}

type errorResponse struct {
	Error string `json:"error"`
}

func (s *Server) handleModel(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.cur.Load().status())
}

// handleMetrics exposes every obs counter, gauge, and latency histogram
// in Prometheus text format, led by an idarepro_build_info series naming
// the binary. Shared verbatim by the standalone Server and the ring
// Router (obs state is process-wide).
func handleMetrics(w http.ResponseWriter, r *http.Request) {
	if !allowMethod(w, r, http.MethodGet) {
		return
	}
	var b bytes.Buffer
	writeBuildInfoMetric(&b)
	if err := obs.WritePrometheus(&b, obs.Default.Snapshot()); err != nil {
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(b.Bytes())
}

// writeBuildInfoMetric emits the constant idarepro_build_info gauge: the
// conventional value-1 series whose labels carry build identity, so a
// dashboard can join any latency series to the build that produced it.
func writeBuildInfoMetric(b *bytes.Buffer) {
	info := buildinfo.Get()
	fmt.Fprintf(b, "# HELP idarepro_build_info Build metadata of the running binary; the value is always 1.\n")
	fmt.Fprintf(b, "# TYPE idarepro_build_info gauge\n")
	fmt.Fprintf(b, "idarepro_build_info{version=%q,go_version=%q,revision=%q,dirty=%q} 1\n",
		info.Version, info.GoVersion, info.Revision, strconv.FormatBool(info.Dirty))
}

// handleReload is the POST /v1/admin/reload endpoint: 200 with the new
// ModelStatus on success, 409 while draining, 501 without a reloader,
// 500 on a failed load (old model still serving).
func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if !allowMethod(w, r, http.MethodPost) {
		return
	}
	st, err := s.Reload()
	switch {
	case errors.Is(err, ErrDraining):
		writeJSON(w, http.StatusConflict, errorResponse{Error: err.Error()})
	case errors.Is(err, ErrNoReloader):
		writeJSON(w, http.StatusNotImplemented, errorResponse{Error: err.Error()})
	case err != nil:
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
	default:
		writeJSON(w, http.StatusOK, st)
	}
}

// servePrediction is the shared single/batch prediction path: decode
// wire contexts, run the classifier under the admission envelope, and
// translate abstentions/fallbacks to the wire form. The model pointer is
// read once per request, so a concurrent reload never changes the model
// mid-request, node cap included.
func (s *Server) servePrediction(w http.ResponseWriter, r *http.Request, batch bool) {
	if !allowMethod(w, r, http.MethodPost) {
		return
	}
	rctx, done, ok := s.admit(w, r, faults.SiteServePredict)
	if !ok {
		return
	}
	defer done()
	defer timePredict(r.Context())()
	tr := obs.TraceFrom(r.Context())
	am := s.cur.Load()

	spDecode := stDecode.StartCtx(r.Context())
	_, ctxs, ok := decodeWireRequest(w, r, batch, s.opts.MaxBatch, am.info.N)
	spDecode.End()
	if !ok {
		return
	}

	// Chaos probe: one deterministic, content-keyed fault site per
	// request, so the chaos suite exercises the server's degradation
	// (503, never a crash or a wrong answer). Keyed by the first
	// context's identity plus the batch size — call order and goroutine
	// identity never factor in.
	if faults.Enabled() {
		if err := faults.Probe(rctx, faults.SiteServePredict, requestKey(ctxs[0].SessionID, ctxs[0].T, ctxs[0].N, len(ctxs))); err != nil {
			mErrors.Inc()
			tr.FaultSite(faults.SiteServePredict)
			tr.Rung("serve.degraded_503")
			w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
			writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "degraded: " + err.Error()})
			return
		}
	}

	preds, err := am.clf.PredictAllCtx(rctx, ctxs)
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) && rctx.Err() != nil {
			deadlineExceeded(w, tr)
			return
		}
		mErrors.Inc()
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: err.Error()})
		return
	}
	out := make([]predictResponse, len(preds))
	for i, p := range preds {
		out[i] = predictResponse{Measure: p.Label, OK: p.Covered, Fallback: p.Fallback}
	}
	writePredictions(w, r.Context(), out, batch)
}

// requestKey is a request's fault-probe key: its first context's
// identity plus the batch size, the key internal/client's probe uses
// too.
func requestKey(sessionID string, t, n, size int) string {
	return session.Key(sessionID, t, n) + "#" + strconv.Itoa(size)
}

// decodeWireRequest is the single/batch request decode shared by the
// standalone Server and the ring Router. It returns the request, whose
// forwarded bytes the router sends to replicas, and the decoded
// contexts. Both answer a malformed context, or one with more than
// maxNodes nodes, with the same 400: forwarded, every replica would
// refuse it, and the router would count each refusal as a replica
// failure.
func decodeWireRequest(w http.ResponseWriter, r *http.Request, batch bool, maxBatch, maxNodes int) (request, []*session.Context, bool) {
	body, err := readBody(w, r)
	if err != nil {
		httpClientError(w, http.StatusRequestEntityTooLarge, err)
		return request{}, nil, false
	}
	req, ok := readPredict(body, batch, maxBatch, maxNodes)
	if !ok {
		mDecodeFallback.Inc()
		if req, err = unmarshalPredict(body, batch); err != nil {
			httpClientError(w, http.StatusBadRequest, err)
			return request{}, nil, false
		}
	}
	if !batch && req.len() == 0 {
		httpClientError(w, http.StatusBadRequest, errors.New(`missing "context"`))
		return request{}, nil, false
	}
	if !req.checkBatch(w, maxBatch) {
		return request{}, nil, false
	}
	ctxs, err := req.contexts(maxNodes)
	if err != nil {
		httpClientError(w, http.StatusBadRequest, err)
		return request{}, nil, false
	}
	return req, ctxs, true
}
