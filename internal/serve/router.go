package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/faults"
	"repro/internal/knn"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/ring"
	"repro/internal/session"
)

// Router is the fan-out tier of the replicated sharded serving layer
// (DESIGN.md §11). It owns no training data: each predict request is
// scattered to every shard's replica group as a candidates call carrying
// the model's scan limit, the per-shard top-k lists within that limit are
// merged, and the θ_δ gate + vote + fallback run router-side over the
// merged list — bit-identical to a single-process scan of the undivided
// model (see knn.Candidates for the proof sketch).
//
// Availability is layered (the ring rungs of the degradation ladder):
//
//  1. Replica failover: a failed replica call moves to the shard's next
//     replica immediately — no sleeping, same request.
//  2. Last-ditch ejected replicas: when every routable replica of a
//     shard failed, the router tries even Ejected ones — a wrong health
//     opinion must degrade latency, never correctness.
//  3. Prior-label degradation: only when a whole shard stays
//     unanswerable does the router fall back to the model's prior label
//     (or 503 when the model has none).
//
// Health is observed two ways: passively from routing outcomes and
// actively by a /readyz prober (ring.Checker holds the state machine).
// A repair loop compares every replica's snapshot checksum against the
// router's own and pushes the router's snapshot to stale nodes — the
// self-healing path that re-converges a replica restored from an old
// disk image.
type Router struct {
	*envelope
	ring    *ring.Ring
	checker *ring.Checker
	opts    RouterOptions
	httpc   *http.Client
	// hedge paces hedged replica requests; nil means hedging is off.
	hedge *hedgePacer

	loadedAt time.Time

	// healthRound and repairSweep key the ring.health / ring.repair fault
	// probes: including a monotonic round in the key re-rolls the
	// deterministic injection each cycle, so an armed site perturbs rounds
	// without permanently wedging one node.
	healthRound atomic.Uint64
	repairSweep atomic.Uint64
}

// Ring-tier telemetry (the counters the chaos suite and the CI ring
// smoke assert on).
var (
	mRouteFailover    = obs.C("ring.route_failover")
	mShardUnavailable = obs.C("ring.shard_unavailable")
	mStaleReplica     = obs.C("ring.stale_replica")
	mRepairs          = obs.C("ring.repairs")
	mRepairFailed     = obs.C("ring.repair_failed")
)

// The router's fixed intervals and timeouts. Its drain grace, shed
// hint, body cap and trace ring are the envelope's, the same as a
// Server's.
const (
	// probeInterval spaces active health-probe rounds.
	probeInterval = 500 * time.Millisecond
	// repairInterval spaces repair sweeps.
	repairInterval = 5 * time.Second
	// replicaTimeout bounds one replica call: a candidates hop, a probe,
	// a model fetch or a snapshot push.
	replicaTimeout = 5 * time.Second
)

// RouterOptions configures a Router.
type RouterOptions struct {
	// MaxInFlight and MaxBatch mean exactly what they do in Options.
	MaxInFlight int
	MaxBatch    int

	// HedgeFraction enables hedged replica requests: after a per-shard
	// pacing delay, a slow shard call gets ONE backup request to the next
	// replica in health order, capped so fired hedges never exceed this
	// fraction of shard calls. <=0 disables hedging.
	HedgeFraction float64

	// Info describes the model the router merges for (served on
	// /v1/model with Role "router"). Info.Checksum is the reference the
	// repair loop compares replicas against; Info.Prior is the last-rung
	// degradation answer; Info.N caps a request context's node count.
	Info ModelInfo
	// Cfg carries the gate/vote/fallback hyper-parameters the router-side
	// merge applies; it must come from the same snapshot the replicas
	// serve (NewRingRouter loads both from one file).
	Cfg knn.Config

	// ModelPath is the router's local snapshot file — the bytes the
	// repair loop pushes to stale replicas. Empty disables repair pushes
	// (staleness is still detected and counted).
	ModelPath string

	// Transport overrides the outbound HTTP transport (tests). Nil gives
	// the router a pool of its own, sized to its concurrency.
	Transport http.RoundTripper
}

// NewRouter builds a router over a resolved ring.
func NewRouter(r *ring.Ring, opts RouterOptions) *Router {
	base := Options{MaxInFlight: opts.MaxInFlight, MaxBatch: opts.MaxBatch}.withDefaults()
	opts.MaxBatch = base.MaxBatch
	transport := opts.Transport
	if transport == nil {
		transport = replicaTransport(r, base.MaxInFlight)
	}
	rt := &Router{
		envelope: newEnvelope("router", base.MaxInFlight),
		ring:     r,
		opts:     opts,
		httpc:    &http.Client{Transport: transport},
		loadedAt: time.Now(),
	}
	if opts.HedgeFraction > 0 {
		rt.hedge = newHedgePacer(opts.HedgeFraction)
	}
	rt.checker = ring.NewChecker(r, ring.CheckerOptions{
		ProbeTimeout: replicaTimeout,
		Probe:        rt.probeReplica,
	})
	rt.mux.HandleFunc("/readyz", rt.handleReadyz)
	rt.mux.HandleFunc("/v1/model", rt.handleModel)
	rt.mux.HandleFunc("/v1/predict", func(w http.ResponseWriter, r *http.Request) { rt.routePrediction(w, r, false) })
	rt.mux.HandleFunc("/v1/predict/batch", func(w http.ResponseWriter, r *http.Request) { rt.routePrediction(w, r, true) })
	rt.mux.HandleFunc("/v1/ring", rt.handleRing)
	return rt
}

// replicaTransport is the router's connection pool when RouterOptions
// names no transport: http.DefaultTransport's settings, keeping idle
// every call the router can hold open to one replica. That is
// maxInFlight requests times openAttempts calls per shard, and one node
// may serve every shard. http.DefaultTransport's two idle connections
// per host are fewer than one request's calls to a node serving two
// shards, so under load it closes connections and dials new ones.
func replicaTransport(r *ring.Ring, maxInFlight int) *http.Transport {
	perNode := maxInFlight * r.Shards() * openAttempts
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConnsPerHost = perNode
	t.MaxIdleConns = perNode * len(r.Nodes())
	return t
}

// Checker exposes the router's health view (tests and /v1/ring).
func (rt *Router) Checker() *ring.Checker { return rt.checker }

// handleReadyz is ring-aware: the router is ready only while every shard
// retains at least one Healthy replica. A load balancer therefore stops
// sending a router traffic it could only answer from the prior label.
func (rt *Router) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if bad := rt.checker.UnhealthyShards(); len(bad) > 0 && rt.isReady() {
		writeText(w, http.StatusServiceUnavailable, fmt.Sprintf("shards without a healthy replica: %v\n", bad))
		return
	}
	rt.envelope.handleReadyz(w, r)
}

func (rt *Router) handleModel(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, ModelStatus{
		ModelInfo:  rt.opts.Info,
		Generation: 1,
		LoadedAt:   rt.loadedAt,
		Build:      buildinfo.Get(),
		Role:       "router",
	})
}

// ringStatus is the GET /v1/ring response: the resolved topology plus
// this router's health opinion of it.
type ringStatus struct {
	Spec            ring.Spec           `json:"spec"`
	States          map[string]string   `json:"states"`
	Groups          map[string][]string `json:"groups"`
	UnhealthyShards []int               `json:"unhealthy_shards"`
	// Latency is each node's windowed latency view (EWMA and p95, in
	// milliseconds) from real routed requests — the evidence behind any
	// "degraded" state above.
	Latency map[string]nodeLatency `json:"latency,omitempty"`
}

type nodeLatency struct {
	EwmaMs  float64 `json:"ewma_ms"`
	P95Ms   float64 `json:"p95_ms"`
	Samples int     `json:"samples"`
}

func (rt *Router) handleRing(w http.ResponseWriter, r *http.Request) {
	if !allowMethod(w, r, http.MethodGet) {
		return
	}
	st := ringStatus{
		Spec:            rt.ring.Spec(),
		States:          make(map[string]string),
		Groups:          make(map[string][]string),
		UnhealthyShards: []int{},
	}
	st.Latency = make(map[string]nodeLatency)
	for name, s := range rt.checker.States() {
		st.States[name] = s.String()
		if ewma, p95, n := rt.checker.Latency(name); n > 0 {
			st.Latency[name] = nodeLatency{
				EwmaMs:  float64(ewma) / float64(time.Millisecond),
				P95Ms:   float64(p95) / float64(time.Millisecond),
				Samples: n,
			}
		}
	}
	for sh := 0; sh < rt.ring.Shards(); sh++ {
		names := []string{}
		for _, n := range rt.ring.ReplicaGroup(sh) {
			names = append(names, n.Name)
		}
		st.Groups[strconv.Itoa(sh)] = names
	}
	if bad := rt.checker.UnhealthyShards(); bad != nil {
		st.UnhealthyShards = bad
	}
	writeJSON(w, http.StatusOK, st)
}

// routePrediction is the scatter-gather predict path. The router decodes
// the query contexts only to validate them: it forwards the client's
// bytes to replicas (canonical ones when only encoding/json read the
// client's), one body per shard (candidatesBody), and works with the
// candidate lists they return.
func (rt *Router) routePrediction(w http.ResponseWriter, r *http.Request, batch bool) {
	if !allowMethod(w, r, http.MethodPost) {
		return
	}
	rctx, done, ok := rt.admit(w, r, faults.SiteRingRoute)
	if !ok {
		return
	}
	defer done()
	defer timePredict(r.Context())()
	tr := obs.TraceFrom(r.Context())

	spDecode := stDecode.StartCtx(r.Context())
	req, ctxs, ok := decodeWireRequest(w, r, batch, rt.opts.MaxBatch, rt.opts.Info.N)
	spDecode.End()
	if !ok {
		return
	}
	raw := req.forwarded()

	// Scatter: every shard in parallel; within a shard, replicas in the
	// checker's preference order, then last-ditch ejected ones.
	limit := rt.opts.Cfg.ScanLimit()
	shards := rt.ring.Shards()
	lists := make([][][]knn.Candidate, shards)
	var failed atomic.Int32
	var wg sync.WaitGroup
	for sh := 0; sh < shards; sh++ {
		wg.Add(1)
		go func(sh int) {
			defer wg.Done()
			res, err := rt.shardCandidates(rctx, sh, ctxs[0], candidatesBody(sh, limit, raw), len(raw), tr)
			if err != nil {
				mShardUnavailable.Inc()
				tr.Rung("ring.shard_unavailable")
				failed.Add(1)
				return
			}
			lists[sh] = res
		}(sh)
	}
	wg.Wait()

	// Budget exhaustion mid-scatter is its own outcome (504, retryable),
	// not a shard loss: the shard may be fine — the caller's budget was
	// not — and answering the prior here would trade a truthful timeout
	// for a made-up prediction.
	if failed.Load() > 0 && errors.Is(rctx.Err(), context.DeadlineExceeded) {
		deadlineExceeded(w, tr)
		return
	}

	if failed.Load() > 0 {
		// Last rung: a shard's candidates are gone, so an exact merge is
		// impossible. Answer the model's prior for every query rather
		// than failing the request; 503 only when there is no prior.
		if rt.opts.Info.Prior == "" {
			mErrors.Inc()
			w.Header().Set("Retry-After", strconv.Itoa(rt.retryAfterSeconds()))
			writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "shard unavailable and model has no prior label"})
			return
		}
		tr.Rung("ring.prior")
		out := make([]predictResponse, len(raw))
		for i := range out {
			out[i] = predictResponse{Measure: rt.opts.Info.Prior, OK: true, Fallback: true}
		}
		writePredictions(w, r.Context(), out, batch)
		return
	}

	// Gather: merge the per-shard top-k per query and reproduce the
	// gate + vote + fallback exactly as the whole model would.
	out := make([]predictResponse, len(raw))
	perShard := make([][]knn.Candidate, shards)
	for qi := range raw {
		for sh := 0; sh < shards; sh++ {
			perShard[sh] = lists[sh][qi]
		}
		merged := knn.MergeCandidates(rt.opts.Cfg.K, perShard...)
		p := knn.PredictFromCandidates(merged, rt.opts.Cfg, rt.opts.Info.Prior)
		out[qi] = predictResponse{Measure: p.Label, OK: p.Covered, Fallback: p.Fallback}
		tr.AddCandidates(len(merged))
	}
	writePredictions(w, r.Context(), out, batch)
}

// openAttempts is the most attempts one shard call holds open at once:
// the one in flight and its hedge. A failover replaces a failed attempt.
const openAttempts = 2

// shardOutcome is one replica attempt's result, as seen by the shard
// call's select loop.
type shardOutcome struct {
	idx     int
	n       ring.Node
	res     *candidatesResponse
	err     error
	elapsed time.Duration
}

// shardCandidates asks one shard's replicas for the batch's candidate
// lists, walking the failover ladder: preference order first, then the
// ejected last-ditch, two sweeps total (the ring.route fault key
// re-rolls per attempt, so a deterministic injected hop fault is
// transient across the retry). Failover is sequential — a failed
// attempt launches the next. Hedging is the one concurrency exception:
// with a pacer configured, an attempt that outlives the shard's pacing
// delay gets a single backup launched in parallel, and whichever answers
// first wins; the loser is cancelled, its elapsed time feeding the gray
// detector as a censored lower bound but never the failure machine (the
// node did not fail — the router stopped waiting). Every call, the hedge
// included, takes a plan slot, so one shard call makes at most 2R
// candidates calls (R = replicas per shard; DESIGN.md §11), and every
// call sends the same body: the shard's request for its queries.
func (rt *Router) shardCandidates(ctx context.Context, shard int, first *session.Context, body []byte, queries int, tr *obs.Trace) ([][]knn.Candidate, error) {
	order := rt.checker.Order(shard)
	tried := make(map[string]bool, len(order))
	for _, n := range order {
		tried[n.Name] = true
	}
	// Last-ditch: a wrong health opinion must cost latency, not
	// correctness — ejected replicas are still tried before the prior
	// rung gets a say.
	for _, n := range rt.ring.ReplicaGroup(shard) {
		if !tried[n.Name] {
			order = append(order, n)
		}
	}
	if len(order) == 0 {
		return nil, fmt.Errorf("shard %d unavailable: no replicas", shard)
	}
	const sweeps = 2
	plan := make([]ring.Node, 0, len(order)*sweeps)
	for sweep := 0; sweep < sweeps; sweep++ {
		plan = append(plan, order...)
	}
	if rt.hedge != nil {
		rt.hedge.startCall()
	}

	// outc is buffered to the whole plan so an attempt finishing after
	// this function returned (a cancelled loser, a late success) can
	// always deliver its outcome and exit — no goroutine leaks, ever.
	outc := make(chan shardOutcome, len(plan))
	cancels := make([]context.CancelFunc, len(plan))
	abandoned := make([]*atomic.Bool, len(plan))
	defer func() {
		for _, cancel := range cancels {
			if cancel != nil {
				cancel()
			}
		}
	}()
	launch := func(i int) {
		// One context per attempt: its cancel settles a hedge race, its
		// deadline bounds the call and is the budget stamped on the hop.
		actx, cancel := context.WithTimeout(ctx, replicaTimeout)
		cancels[i] = cancel
		flag := &atomic.Bool{}
		abandoned[i] = flag
		n := plan[i]
		go func() {
			t0 := time.Now()
			res, err := rt.callCandidates(actx, n, shard, first, i, body, queries, tr)
			elapsed := time.Since(t0)
			if err != nil && flag.Load() {
				// Cancelled loser of a won race: feed the gray detector
				// (the elapsed time is a lower bound on how slow the node
				// really was), count the cancel, exit. Not a failure.
				rt.checker.ReportLatency(n.Name, elapsed)
				mHedgeCancelled.Inc()
				return
			}
			outc <- shardOutcome{idx: i, n: n, res: res, err: err, elapsed: elapsed}
		}()
	}

	launch(0)
	next, pending := 1, 1
	hedgeIdx := -1
	var hedgeC <-chan time.Time
	if rt.hedge != nil && next < len(plan) {
		t := time.NewTimer(rt.hedge.delay(shard))
		defer t.Stop()
		hedgeC = t.C
	}

	var lastErr error
	for pending > 0 {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-hedgeC:
			hedgeC = nil
			if next < len(plan) && rt.hedge.tryHedge() {
				mHedgeFired.Inc()
				tr.Rung("ring.hedge")
				hedgeIdx = next
				launch(next)
				next++
				pending++
			}
		case o := <-outc:
			pending--
			if o.err != nil {
				// A shed says the replica is at its in-flight limit, not
				// that it failed: fail over, and leave judging the node to
				// the prober and the latency detector.
				if errors.Is(o.err, errShed) {
					tr.Hop(fmt.Sprintf("shard%d→%s shed", shard, o.n.Name))
				} else {
					rt.checker.ReportFailure(o.n.Name)
					tr.Hop(fmt.Sprintf("shard%d→%s fail", shard, o.n.Name))
				}
				lastErr = o.err
				if ctx.Err() != nil {
					return nil, ctx.Err()
				}
				if next < len(plan) {
					mRouteFailover.Inc()
					tr.Rung("ring.failover")
					launch(next)
					next++
					pending++
				}
				continue
			}
			// Winner. Report health and latency, settle the hedge race,
			// cancel everything still in flight.
			rt.checker.ReportSuccess(o.n.Name)
			rt.checker.ReportLatency(o.n.Name, o.elapsed)
			if rt.hedge != nil {
				rt.hedge.observeWin(shard, o.elapsed)
			}
			if o.idx == hedgeIdx {
				mHedgeWon.Inc()
				tr.Rung("ring.hedge_won")
			}
			for j, cancel := range cancels {
				if j != o.idx && cancel != nil {
					abandoned[j].Store(true)
					cancel()
				}
			}
			hop := fmt.Sprintf("shard%d→%s ok", shard, o.n.Name)
			if o.res.Checksum != "" && rt.opts.Info.Checksum != "" && o.res.Checksum != rt.opts.Info.Checksum {
				// The answer still merges — same topology, possibly older
				// labels — but the staleness is surfaced and the repair loop
				// will converge the node.
				mStaleReplica.Inc()
				tr.Rung("ring.stale")
				hop = fmt.Sprintf("shard%d→%s stale", shard, o.n.Name)
			}
			tr.Hop(hop)
			return o.res.Results, nil
		}
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("shard %d has no replicas", shard)
	}
	return nil, fmt.Errorf("shard %d unavailable: %w", shard, lastErr)
}

// candidatesBody writes one shard's candidates request,
// {"shard":N,"max_dist":L,"contexts":[…]}, around the contexts' forwarded
// bytes: the router validated them, and re-encoding the decoded form
// cost a marshal per replica call. max_dist is the scan limit in
// shortest round-trip form — a candidate at exactly θ_δ passes the gate,
// so the replica must scan under the same bits — and is left out when
// the limit is +∞, which JSON cannot write and an absent max_dist means.
func candidatesBody(shard int, limit float64, raw [][]byte) []byte {
	size := 64
	for _, rc := range raw {
		size += len(rc) + 1
	}
	b := make([]byte, 0, size)
	b = append(b, `{"shard":`...)
	b = strconv.AppendInt(b, int64(shard), 10)
	if !math.IsInf(limit, 1) {
		b = append(b, `,"max_dist":`...)
		b = strconv.AppendFloat(b, limit, 'g', -1, 64)
	}
	b = append(b, `,"contexts":[`...)
	for i, rc := range raw {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, rc...)
	}
	return append(b, "]}"...)
}

// errShed marks a candidates call the replica answered 503: its
// admission limiter shed the call, the only 503 that endpoint sends.
var errShed = errors.New("shed by the replica's admission limit")

// callCandidates performs one replica candidates call behind the
// ring.route fault probe. The probe key is (first query's identity,
// batch size, shard, replica) with the failover position as the attempt
// re-roll — deterministic across runs, independent across replicas, so
// an armed site exercises failover without any replica pair failing
// together systematically. The key is formatted only while the injector
// is armed.
func (rt *Router) callCandidates(ctx context.Context, n ring.Node, shard int, first *session.Context, attempt int, body []byte, queries int, tr *obs.Trace) (res *candidatesResponse, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, pipeline.Recovered(faults.SiteRingRoute, r)
		}
	}()
	if faults.Enabled() {
		base := requestKey(first.SessionID, first.T, first.N, queries)
		key := faults.Key(base+"/s"+strconv.Itoa(shard)+"@"+n.Name, attempt)
		if ferr := faults.Inject(ctx, faults.SiteRingRoute, key, faults.KindAll); ferr != nil {
			tr.FaultSite(faults.SiteRingRoute)
			return nil, ferr
		}
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, n.Addr+"/v1/knn/candidates", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	// Forward the remaining budget (the tighter of the caller's deadline
	// and replicaTimeout, the attempt's deadline) so the replica can
	// fast-fail work it cannot finish in time.
	stampDeadline(req, ctx)
	if id := tr.ID(); id != "" {
		// Propagate the request's correlation ID across the hop so the
		// replica's trace log and access log stitch to the router's.
		req.Header.Set("X-Request-ID", id)
	}
	resp, err := rt.httpc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, maxBodyBytes))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode == http.StatusServiceUnavailable {
		return nil, fmt.Errorf("%s: %s: %s: %w", n.Name, resp.Status, firstLine(raw), errShed)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %s: %s", n.Name, resp.Status, firstLine(raw))
	}
	var cr candidatesResponse
	if err := json.Unmarshal(raw, &cr); err != nil {
		return nil, fmt.Errorf("%s: decode candidates: %w", n.Name, err)
	}
	if len(cr.Results) != queries {
		return nil, fmt.Errorf("%s: %d results for %d queries", n.Name, len(cr.Results), queries)
	}
	return &cr, nil
}

// firstLine trims a response body to its first line for error messages.
func firstLine(b []byte) string {
	if i := bytes.IndexByte(b, '\n'); i >= 0 {
		b = b[:i]
	}
	if len(b) > 200 {
		b = b[:200]
	}
	return string(bytes.TrimSpace(b))
}

// probeReplica is the active health check: GET /readyz behind the
// ring.health fault probe. The probe key includes the round counter so a
// deterministic injection perturbs some rounds of some nodes instead of
// permanently condemning one node.
func (rt *Router) probeReplica(ctx context.Context, n ring.Node) error {
	if faults.Enabled() {
		key := n.Name + "/round:" + strconv.FormatUint(rt.healthRound.Load(), 10)
		if err := faults.Probe(ctx, faults.SiteRingHealth, key); err != nil {
			return err
		}
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, n.Addr+"/readyz", nil)
	if err != nil {
		return err
	}
	resp, err := rt.httpc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: readyz %s", n.Name, resp.Status)
	}
	return nil
}

// ProbeOnce drives one active health-probe round (tests and the startup
// path use it; Run's ticker calls it in production).
func (rt *Router) ProbeOnce(ctx context.Context) {
	rt.healthRound.Add(1)
	rt.checker.ProbeOnce(ctx)
}

// RepairOnce runs one repair sweep: every node's /v1/model checksum is
// compared against the router's reference; stale nodes get the router's
// snapshot pushed (verified server-side, written atomically, then
// hot-reloaded). Returns the number of successful repairs. Unreachable
// nodes are skipped — convergence is the health prober's signal to wait
// for, not the repair loop's to force.
func (rt *Router) RepairOnce(ctx context.Context) int {
	if rt.opts.Info.Checksum == "" {
		return 0
	}
	sweep := rt.repairSweep.Add(1)
	repaired := 0
	for _, n := range rt.ring.Nodes() {
		if ctx.Err() != nil {
			return repaired
		}
		st, err := rt.fetchModel(ctx, n)
		if err != nil || st.Checksum == "" || st.Checksum == rt.opts.Info.Checksum {
			continue
		}
		mStaleReplica.Inc()
		if rt.opts.ModelPath == "" {
			continue
		}
		if err := rt.pushSnapshot(ctx, n, sweep); err != nil {
			mRepairFailed.Inc()
			continue
		}
		mRepairs.Inc()
		repaired++
	}
	return repaired
}

// fetchModel reads a replica's /v1/model status.
func (rt *Router) fetchModel(ctx context.Context, n ring.Node) (ModelStatus, error) {
	cctx, cancel := context.WithTimeout(ctx, replicaTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(cctx, http.MethodGet, n.Addr+"/v1/model", nil)
	if err != nil {
		return ModelStatus{}, err
	}
	resp, err := rt.httpc.Do(req)
	if err != nil {
		return ModelStatus{}, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return ModelStatus{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return ModelStatus{}, fmt.Errorf("%s: model %s", n.Name, resp.Status)
	}
	var st ModelStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		return ModelStatus{}, err
	}
	return st, nil
}

// pushSnapshot sends the router's snapshot file to one stale replica,
// behind the ring.repair fault probe (keyed by node and sweep so an
// armed site fails some pushes — which the next sweep retries — rather
// than wedging repair for one node forever).
func (rt *Router) pushSnapshot(ctx context.Context, n ring.Node, sweep uint64) error {
	if faults.Enabled() {
		key := n.Name + "/sweep:" + strconv.FormatUint(sweep, 10)
		if err := faults.Probe(ctx, faults.SiteRingRepair, key); err != nil {
			return err
		}
	}
	blob, err := os.ReadFile(rt.opts.ModelPath)
	if err != nil {
		return err
	}
	cctx, cancel := context.WithTimeout(ctx, replicaTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(cctx, http.MethodPost, n.Addr+"/v1/admin/snapshot", bytes.NewReader(blob))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := rt.httpc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: snapshot push %s: %s", n.Name, resp.Status, firstLine(raw))
	}
	return nil
}

// Run listens on addr and serves until ctx is canceled, running the
// health prober and repair loop alongside; then it drains like Server.
func (rt *Router) Run(ctx context.Context, addr string) error {
	return listenAndRun(ctx, addr, rt.RunListener)
}

// RunListener is Run over an existing listener (tests use :0). The
// prober and repair loop stop with ctx and have exited when it returns,
// and the idle replica connections are closed.
func (rt *Router) RunListener(ctx context.Context, ln net.Listener) error {
	bg, cancel := context.WithCancel(ctx)
	var loops sync.WaitGroup
	defer rt.httpc.CloseIdleConnections()
	defer loops.Wait()
	defer cancel()
	loops.Add(2)
	go func() {
		defer loops.Done()
		every(bg, probeInterval, rt.ProbeOnce)
	}()
	go func() {
		defer loops.Done()
		every(bg, repairInterval, func(ctx context.Context) { rt.RepairOnce(ctx) })
	}()
	return rt.serve(ctx, ln)
}

// every calls f once per interval until ctx is done.
func every(ctx context.Context, interval time.Duration, f func(context.Context)) {
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			f(ctx)
		}
	}
}
