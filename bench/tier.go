package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/distance"
	"repro/internal/knn"
	"repro/internal/loadtest"
	"repro/internal/offline"
	"repro/internal/snapshot"
)

const (
	// reportQPS is the open-loop rate of each round's first pass, under
	// half of what the tier completes saturated.
	reportQPS = 80
	// reportConns bounds the generator's in-flight requests. It must stay
	// above what the tier holds in flight at its tail, or requests wait for
	// a free connection and the generator, not the tier, sets the latency.
	reportConns = 8
	// prePass is how many queries go through the router, and are checked,
	// before anything is timed.
	prePass = 16
	// tierStride keeps every 8th held-out query (194): a round then takes
	// about 3.5 s on a 2-CPU box, so a run fits several.
	tierStride = 8
)

// runTier is the tier-ring workload: a 3-shard × 2-replica ring and its
// router in-process on loopback sockets, serving the paper-scale snapshot.
// Each replica loads the snapshot itself, as a separate process would. The
// router is sent every tierStride-th held-out query, in rounds: once from
// loadtest at reportQPS (open loop), then once more from GOMAXPROCS callers
// back to back (closed loop) for saturated throughput. Rounds repeat until
// o.seconds are spent, minRounds at least.
func runTier(o options, fx fixture, cfg repro.PredictorConfig) (*result, error) {
	r := newResult(o)
	dir, err := fx.ensure(o)
	if err != nil {
		return nil, err
	}
	var tr *tierTrace
	if o.trace {
		tr = &tierTrace{}
	}
	ring, wires, err := setUp(o, r, dir, cfg, "ring.start_s",
		func(path string) (*tierRing, error) { return startRing(path, tr) },
		func(t *tierRing) { t.close() })
	if err != nil {
		return nil, err
	}
	defer ring.close()
	qs := newQueryOrder(every(wires, tierStride), o.seed)
	bodies := make([][]byte, qs.len())
	for i := range bodies {
		b, err := json.Marshal(map[string]any{"context": qs.wire(i)})
		if err != nil {
			return nil, err
		}
		bodies[i] = b
	}

	// The router must answer every query bit-identically to one process
	// scanning the same snapshot. An untimed pre-pass checks the first few
	// through the router before anything is timed.
	oracle, err := scanOracle(ring.path)
	if err != nil {
		return nil, err
	}
	in := make([]*repro.NContext, qs.len())
	for i := range in {
		if in[i], err = qs.decode(i); err != nil {
			return nil, err
		}
	}
	want := make([]answer, qs.len())
	for i, p := range oracle.PredictAll(in) {
		want[i] = answer{p.Label, p.Covered}
	}
	oracle, in = nil, nil
	for i := 0; i < min(prePass, qs.len()); i++ {
		st, got, err := ring.predict(bodies[i], "bench-pre-"+strconv.Itoa(i))
		r.Attempted++
		if err != nil || st != http.StatusOK || got != want[i] {
			r.fail(1, "pre-pass query %d: router %d %+v (%v), single-process scan %+v", i, st, got, err, want[i])
		}
	}
	verify := func(name string, p *phase) {
		for _, s := range p.sent {
			r.Attempted++
			switch {
			case s.err != nil || s.status != http.StatusOK:
				r.fail(1, "%s request %d: status %d: %v", name, s.i, s.status, s.err)
			case s.ans != want[s.i]:
				r.fail(1, "%s request %d: router answered %+v, single-process scan %+v", name, s.i, s.ans, want[s.i])
			}
		}
	}

	var (
		lats  [][]float64 // open-loop latency per round, per query
		late  []float64   // open-loop send lateness, every round
		rates []float64   // saturated completions per second, per round
		heap  float64
	)
	runtime.GC()
	m0 := memNow()
	for start := time.Now(); len(lats) < minRounds || time.Since(start) < o.seconds; {
		rep, err := reportPhase(ring, bodies)
		if err != nil {
			return nil, err
		}
		sat := saturate(ring, bodies, runtime.GOMAXPROCS(0))
		verify("open-loop", rep)
		verify("saturation", sat)
		late = append(late, rep.lateness()...)
		rates = append(rates, sat.rate)
		if lats = append(lats, rep.latencies()); len(lats) == 1 {
			heap = liveHeapMB()
		}
	}
	m1 := memNow()

	lat := best(lats)
	tailMS, tailPct := tail(lat)
	q1, _, q3 := quartiles(rates)
	r.EndToEnd["latency_p50_ms"] = value{Value: median(lat), Unit: "ms", N: len(lat),
		Note: fmt.Sprintf("each query's fastest of %d open-loop rounds at %d qps, from the scheduled send", len(lats), reportQPS)}
	r.EndToEnd["latency_tail_ms"] = value{Value: tailMS, Unit: "ms", N: len(lat), Note: tailNote(tailPct, len(lat))}
	r.EndToEnd["throughput_per_s"] = value{Value: slices.Max(rates), Unit: "1/s", N: len(rates), Q1: q1, Q3: q3,
		Note: fmt.Sprintf("fastest of %d rounds of %d callers back to back over all %d queries", len(rates), runtime.GOMAXPROCS(0), qs.len())}
	r.EndToEnd["heap_mb"] = value{Value: heap, Unit: "MB", Note: "after the first round"}
	if p99, budget := percentile(late, 0.99), 0.1*median(lat); p99 > budget {
		r.warn("open loop invalid: send lateness p99 %.3fms exceeds 10%% of p50 (%.3fms)", p99, budget)
	}
	if !o.trace {
		return r, nil
	}

	runtimeLayers(r, m1.since(m0), 2*len(lats)*qs.len())
	r.layer("loadtest.send_lateness_p50_ms", median(late))
	r.layer("loadtest.send_lateness_p99_ms", percentile(late, 0.99))
	tr.on.Store(true)
	c0 := counters()
	traced, err := reportPhase(ring, bodies)
	c1 := counters()
	tr.on.Store(false)
	if err != nil {
		return nil, err
	}
	verify("traced", traced)
	requests := float64(len(traced.sent))
	tr.layers(r, len(traced.sent))
	knnLayers(r, c0, c1, requests, "request")
	r.layer("ring.hedges_per_request", ratio(delta(c0, c1, "ring.hedge.fired"), requests))
	r.layer("ring.failovers", delta(c0, c1, "ring.route_failover"))
	r.layer("serve.shed", delta(c0, c1, "serve.rejected"))
	r.layer("trace_overhead_frac", median(traced.latencies())/median(lats[len(lats)-1])-1)
	return r, nil
}

// scanOracle loads the snapshot at path into a classifier that answers by
// the plain linear scan over the training set, the reference every search
// path must agree with. It stands in for the served predictor's own
// PredictAll, whose metric index misses in-threshold neighbours for a few
// paper-scale queries (see README.md).
func scanOracle(path string) (*knn.Classifier, error) {
	m, err := snapshot.Load(path)
	if err != nil {
		return nil, err
	}
	displays := snapshot.DecodeDisplays(m.Displays)
	samples := make([]*offline.Sample, len(m.Samples))
	for i, rec := range m.Samples {
		c, err := snapshot.DecodeContext(rec.Context, displays)
		if err != nil {
			return nil, err
		}
		samples[i] = &offline.Sample{Context: c, Labels: rec.Labels, Best: rec.Best}
	}
	fb, err := knn.ParseFallbackPolicy(m.Fallback)
	if err != nil {
		return nil, err
	}
	return knn.New(samples, distance.NewMemoizedTreeEdit(nil), knn.Config{K: m.K, ThetaDelta: m.ThetaDelta, Fallback: fb}), nil
}

// sent is one tier request as its caller saw it.
type sent struct {
	i      int // position in the query order
	late   time.Duration
	lat    time.Duration
	status int
	ans    answer
	err    error
}

// phase is the record of one load phase.
type phase struct {
	sent []sent
	rate float64 // completed requests per second
}

func (p *phase) latencies() []float64 {
	out := make([]float64, len(p.sent))
	for i, s := range p.sent {
		out[i] = ms(s.lat)
	}
	return out
}

func (p *phase) lateness() []float64 {
	out := make([]float64, len(p.sent))
	for i, s := range p.sent {
		out[i] = ms(s.late)
	}
	return out
}

// reportPhase sends every body to the router once, in order, at reportQPS
// with loadtest: open loop, up to reportConns connections. Bodies are
// distinct (each names its session and step), so the proxy that takes one
// to the router knows which arrival it is and when it was due: latency
// counts from then, and how late the generator sent it is reported on its
// own.
func reportPhase(ring *tierRing, bodies [][]byte) (*phase, error) {
	interval := float64(time.Second) / reportQPS
	n := len(bodies)
	px := &proxy{ring: ring, interval: interval, pending: map[string]int{}, sent: make([]sent, n)}
	for i, b := range bodies {
		px.pending[string(b)] = i
	}
	px.start = time.Now()
	res, err := loadtest.Run(context.Background(), loadtest.Options{
		Handler:     px,
		Bodies:      bodies,
		QPS:         reportQPS,
		Concurrency: reportConns,
		Duration:    time.Duration(float64(n) * interval),
	})
	if err != nil {
		return nil, err
	}
	if int(res.Requests) != n {
		return nil, fmt.Errorf("loadtest sent %d requests, %d were scheduled", res.Requests, n)
	}
	return &phase{sent: px.sent}, nil
}

// proxy is loadtest's target: it forwards each request over a socket to
// the router and records it against its arrival index.
type proxy struct {
	ring     *tierRing
	start    time.Time
	interval float64
	mu       sync.Mutex
	pending  map[string]int // body → its arrival index, until sent
	sent     []sent
}

func (p *proxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	now := time.Now()
	b, err := io.ReadAll(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	p.mu.Lock()
	i, ok := p.pending[string(b)]
	delete(p.pending, string(b))
	p.mu.Unlock()
	if !ok {
		http.Error(w, "unscheduled body", http.StatusInternalServerError)
		return
	}
	due := p.start.Add(time.Duration(float64(i) * p.interval))
	status, ans, raw, err := p.ring.forward(b, "bench-"+strconv.Itoa(i))
	done := time.Now()
	p.sent[i] = sent{i: i, late: now.Sub(due), lat: done.Sub(due), status: status, ans: ans, err: err}
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	w.WriteHeader(status)
	w.Write(raw)
}

// saturate has callers send every body to the router once more, back to
// back, and measures the completed rate.
func saturate(ring *tierRing, bodies [][]byte, callers int) *phase {
	var (
		next  atomic.Int64
		mu    sync.Mutex
		wg    sync.WaitGroup
		all   []sent
		start = time.Now()
	)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []sent
			for {
				i := int(next.Add(1) - 1)
				if i >= len(bodies) {
					break
				}
				t0 := time.Now()
				st, ans, err := ring.predict(bodies[i], "bench-sat-"+strconv.Itoa(i))
				mine = append(mine, sent{i: i, lat: time.Since(t0), status: st, ans: ans, err: err})
			}
			mu.Lock()
			all = append(all, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return &phase{sent: all, rate: float64(len(all)) / time.Since(start).Seconds()}
}

// tierRing is the running tier.
type tierRing struct {
	path    string // the snapshot every member loaded
	router  string // router base URL
	client  *http.Client
	servers []*http.Server
	serving sync.WaitGroup
	cancel  context.CancelFunc
	loops   sync.WaitGroup
	once    sync.Once
}

// startRing loads the snapshot at path into three replicas (each serving
// two of three shards, as ring placement assigns them) and a router, on
// loopback listeners, and returns once the router reports ready. A
// non-nil tr wraps the router and replica handlers and the router's
// outbound transport.
func startRing(path string, tr *tierTrace) (*tierRing, error) {
	const nodes = 3
	ring := &tierRing{
		path: path,
		client: &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: 64, IdleConnTimeout: time.Minute},
			Timeout:   30 * time.Second,
		},
	}
	var lns []net.Listener
	for i := 0; i <= nodes; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns {
				l.Close()
			}
			return nil, err
		}
		lns = append(lns, ln)
	}
	spec := &repro.RingSpec{Shards: 3, Replicas: 2}
	for i := 0; i < nodes; i++ {
		spec.Nodes = append(spec.Nodes, repro.RingNode{Name: "n" + strconv.Itoa(i), Addr: "http://" + lns[i].Addr().String()})
	}
	fail := func(err error) (*tierRing, error) {
		for _, l := range lns[len(ring.servers):] {
			l.Close()
		}
		ring.close()
		return nil, err
	}
	for i, n := range spec.Nodes {
		p, err := repro.LoadPredictor(path)
		if err != nil {
			return fail(err)
		}
		srv, err := p.NewShardServer(spec, n.Name, repro.ServeOptions{MaxInFlight: 32})
		if err != nil {
			return fail(err)
		}
		ring.serve(lns[i], tr.wrap(srv.Handler(), false))
	}
	ropts := repro.RingRouterOptions{MaxInFlight: 32}
	if tr != nil {
		ropts.Transport = tr
	}
	rt, err := repro.NewRingRouter(path, spec, ropts)
	if err != nil {
		return fail(err)
	}
	ring.serve(lns[nodes], tr.wrap(rt.Handler(), true))
	ring.router = "http://" + lns[nodes].Addr().String()

	// The router's background health prober and repair sweep, at their
	// default intervals, as the router's own Run loop drives them.
	ctx, cancel := context.WithCancel(context.Background())
	ring.cancel = cancel
	ring.loops.Add(1)
	go func() {
		defer ring.loops.Done()
		probe, repair := time.NewTicker(500*time.Millisecond), time.NewTicker(5*time.Second)
		defer probe.Stop()
		defer repair.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-probe.C:
				rt.ProbeOnce(ctx)
			case <-repair.C:
				rt.RepairOnce(ctx)
			}
		}
	}()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		resp, err := ring.client.Get(ring.router + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return ring, nil
			}
		}
		if time.Now().After(deadline) {
			return fail(fmt.Errorf("ring router not ready after 10s (last error %v)", err))
		}
	}
}

func (t *tierRing) serve(ln net.Listener, h http.Handler) {
	srv := &http.Server{Handler: h}
	t.servers = append(t.servers, srv)
	t.serving.Add(1)
	go func() {
		defer t.serving.Done()
		srv.Serve(ln)
	}()
}

// close stops the background loops and every server, and waits for all
// of them to exit.
func (t *tierRing) close() {
	t.once.Do(func() {
		if t.cancel != nil {
			t.cancel()
		}
		t.loops.Wait()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		for _, s := range t.servers {
			s.Shutdown(ctx)
		}
		t.serving.Wait()
		t.client.CloseIdleConnections()
	})
}

// forward posts one predict body to the router under request id and
// returns the status, the decoded answer and the raw response body.
func (t *tierRing) forward(body []byte, id string) (int, answer, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, t.router+"/v1/predict", bytes.NewReader(body))
	if err != nil {
		return 0, answer{}, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-ID", id)
	resp, err := t.client.Do(req)
	if err != nil {
		return 0, answer{}, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, answer{}, nil, err
	}
	var pr struct {
		Measure string `json:"measure"`
		OK      bool   `json:"ok"`
	}
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &pr); err != nil {
			return resp.StatusCode, answer{}, raw, err
		}
	}
	return resp.StatusCode, answer{pr.Measure, pr.OK}, raw, nil
}

func (t *tierRing) predict(body []byte, id string) (int, answer, error) {
	st, ans, _, err := t.forward(body, id)
	return st, ans, err
}

// hopHeader carries the benchmark's id for one router→replica call, so
// the replica's handler time joins the hop the router's transport timed.
const hopHeader = "X-Bench-Hop"

// tierTrace times the tier's layers while on: the router handler per
// request, every candidates hop the router sends (to its response
// headers, which a replica sends together with its whole body), and each
// replica handler per hop.
type tierTrace struct {
	on      atomic.Bool
	nextHop atomic.Uint64
	mu      sync.Mutex
	router  map[string]time.Duration // request id → router handler time
	hops    []hopRec
	replica map[string]time.Duration // hop id → replica handler time
}

type hopRec struct {
	id, request string
	rtt         time.Duration
}

// wrap times a router (or replica) handler when tracing is on. A nil
// trace leaves the handler as it is.
func (t *tierTrace) wrap(h http.Handler, router bool) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() || r.Method != http.MethodPost {
			h.ServeHTTP(w, r)
			return
		}
		t0 := time.Now()
		h.ServeHTTP(w, r)
		d := time.Since(t0)
		t.mu.Lock()
		defer t.mu.Unlock()
		switch {
		case router && r.URL.Path == "/v1/predict":
			if t.router == nil {
				t.router = map[string]time.Duration{}
			}
			t.router[r.Header.Get("X-Request-ID")] = d
		case !router && r.URL.Path == "/v1/knn/candidates":
			if t.replica == nil {
				t.replica = map[string]time.Duration{}
			}
			t.replica[r.Header.Get(hopHeader)] = d
		}
	})
}

// RoundTrip is the router's outbound transport: http.DefaultTransport,
// with candidates hops stamped and timed while tracing is on.
func (t *tierTrace) RoundTrip(req *http.Request) (*http.Response, error) {
	if !t.on.Load() || req.URL.Path != "/v1/knn/candidates" {
		return http.DefaultTransport.RoundTrip(req)
	}
	id := strconv.FormatUint(t.nextHop.Add(1), 10)
	out := req.Clone(req.Context())
	out.Header.Set(hopHeader, id)
	t0 := time.Now()
	resp, err := http.DefaultTransport.RoundTrip(out)
	t.mu.Lock()
	t.hops = append(t.hops, hopRec{id: id, request: req.Header.Get("X-Request-ID"), rtt: time.Since(t0)})
	t.mu.Unlock()
	return resp, err
}

// layers joins the traced phase's records into the serve and ring layer
// metrics. requests is how many requests the phase sent.
func (t *tierTrace) layers(r *result, requests int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var routerMS, hopMS, replicaMS, wireMS, selfMS []float64
	slowest := map[string]time.Duration{}
	for _, h := range t.hops {
		hopMS = append(hopMS, ms(h.rtt))
		if h.rtt > slowest[h.request] {
			slowest[h.request] = h.rtt
		}
		if rep, ok := t.replica[h.id]; ok {
			replicaMS = append(replicaMS, ms(rep))
			wireMS = append(wireMS, ms(h.rtt-rep))
		}
	}
	for id, d := range t.router {
		routerMS = append(routerMS, ms(d))
		if s, ok := slowest[id]; ok {
			selfMS = append(selfMS, ms(d-s))
		}
	}
	r.layer("serve.router_p50_ms", median(routerMS))
	r.layer("serve.router_p99_ms", percentile(routerMS, 0.99))
	r.layer("serve.router_self_ms", median(selfMS))
	r.layer("ring.hop_p50_ms", median(hopMS))
	r.layer("ring.hop_p99_ms", percentile(hopMS, 0.99))
	r.layer("serve.replica_p50_ms", median(replicaMS))
	r.layer("serve.replica_p99_ms", percentile(replicaMS, 0.99))
	r.layer("ring.hop_wire_ms", median(wireMS))
	r.layer("ring.attempts_per_request", ratio(float64(len(t.hops)), float64(requests)))
	t.router, t.hops, t.replica = nil, nil, nil
}
