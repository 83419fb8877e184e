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
	"net/http/httptest"
	"net/http/httptrace"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/distance"
	"repro/internal/engine"
	"repro/internal/knn"
	"repro/internal/offline"
	"repro/internal/ring"
	"repro/internal/session"
	"repro/internal/snapshot"
)

// chainCtx builds an n-context whose tree is a chain of depth nodes, so
// the tree-edit distance between two chains varies with their depth
// difference — enough variety to exercise the gate, the vote, and the
// fallback rungs over real HTTP round-trips.
func chainCtx(id string, t, depth int) *session.Context {
	root := &session.CtxNode{Step: t}
	cur := root
	for i := 1; i < depth; i++ {
		child := &session.CtxNode{Step: t + i}
		cur.Children = []*session.CtxNode{child}
		cur = child
	}
	return &session.Context{SessionID: id, T: t, N: 3, Size: depth, Root: root}
}

// ringTrainingSet builds n samples across several sessions with varied
// context depths and a label mix that includes multi-labels and
// unlabeled samples.
func ringTrainingSet(n int) []*offline.Sample {
	labels := [][]string{
		{"variance"}, {"osf"}, {"schutz"}, {"variance", "osf"}, nil, {"osf"},
	}
	out := make([]*offline.Sample, n)
	for i := 0; i < n; i++ {
		out[i] = &offline.Sample{
			Context: chainCtx(fmt.Sprintf("s%d", i%9), i, 1+i%5),
			Labels:  labels[i%len(labels)],
		}
	}
	return out
}

// hswap is a late-bound handler: the httptest servers must exist before
// the ring spec (their URLs are the node addrs), but the replica servers
// need the resolved ring — so the handler is swapped in afterwards.
type hswap struct {
	mu sync.Mutex
	h  http.Handler
}

func (s *hswap) set(h http.Handler) {
	s.mu.Lock()
	s.h = h
	s.mu.Unlock()
}

func (s *hswap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	h := s.h
	s.mu.Unlock()
	if h == nil {
		w.WriteHeader(http.StatusServiceUnavailable)
		return
	}
	h.ServeHTTP(w, r)
}

// testRing is a full in-process tier: replica servers behind httptest
// listeners plus a router over them.
type testRing struct {
	rt       *Router
	r        *ring.Ring
	replicas []*Server
	ts       []*httptest.Server
	nodes    []ring.Node
	swaps    []*hswap
}

// killOwner closes the test server of the first replica of shard and
// returns its node name. Placement hashes node names, so which node owns
// a shard is deterministic but not positional — tests that need "a node
// that matters is down" must pick the victim from the replica group.
func (tr *testRing) killOwner(t *testing.T, shard int) string {
	t.Helper()
	victim := tr.r.ReplicaGroup(shard)[0].Name
	idx, err := strconv.Atoi(strings.TrimPrefix(victim, "n"))
	if err != nil {
		t.Fatalf("unexpected node name %q", victim)
	}
	tr.ts[idx].Close()
	return victim
}

// startRing boots nodes named n0..n{count-1}, each a ring replica over
// the shared classifier, and a router configured from info/cfg.
func startRing(t *testing.T, shards, replicas, count int, clf *knn.Classifier, info ModelInfo, ropts RouterOptions) *testRing {
	t.Helper()
	tr := &testRing{}
	swaps := make([]*hswap, count)
	spec := &ring.Spec{Shards: shards, Replicas: replicas}
	for i := 0; i < count; i++ {
		swaps[i] = &hswap{}
		ts := httptest.NewServer(swaps[i])
		t.Cleanup(ts.Close)
		tr.ts = append(tr.ts, ts)
		spec.Nodes = append(spec.Nodes, ring.Node{Name: fmt.Sprintf("n%d", i), Addr: ts.URL})
	}
	r, err := ring.New(spec)
	if err != nil {
		t.Fatal(err)
	}
	tr.r = r
	tr.nodes = r.Nodes()
	tr.swaps = swaps
	for i, n := range spec.Nodes {
		s := New(clf, info, Options{Ring: r, NodeName: n.Name})
		tr.replicas = append(tr.replicas, s)
		swaps[i].set(s.Handler())
	}
	ropts.Info = info
	ropts.Cfg = clf.Config()
	tr.rt = NewRouter(r, ropts)
	return tr
}

func decodeBatch(t *testing.T, body []byte) []predictResponse {
	t.Helper()
	var resp struct {
		Predictions []predictResponse `json:"predictions"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("decode batch response: %v (%s)", err, body)
	}
	return resp.Predictions
}

// ringQueries mixes queries near training contexts (covered), between
// them, and far away (abstaining under a tight gate).
func ringQueries() []*session.Context {
	var qs []*session.Context
	for i := 0; i < 12; i++ {
		qs = append(qs, chainCtx(fmt.Sprintf("q%d", i), i, 1+i%6))
	}
	return qs
}

// TestRouterBitIdenticalToWholeModel is the tentpole invariant: the
// scatter-gather answer over a 3-shard / 2-replica ring must equal a
// single-process scan of the undivided model — label, coverage, and
// fallback bit, for every query, under every fallback policy.
func TestRouterBitIdenticalToWholeModel(t *testing.T) {
	samples := ringTrainingSet(60)
	cases := []struct {
		name string
		cfg  knn.Config
	}{
		{"gated abstain", knn.Config{K: 3, ThetaDelta: 0.3, Workers: 1}},
		{"tight gate prior", knn.Config{K: 3, ThetaDelta: 0.05, Workers: 1, Fallback: knn.FallbackPrior}},
		{"tight gate nearest", knn.Config{K: 2, ThetaDelta: 0.05, Workers: 1, Fallback: knn.FallbackNearest}},
		{"unbounded", knn.Config{K: 4, ThetaDelta: math.Inf(1), Workers: 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			whole := knn.New(samples, distance.NewMemoizedTreeEdit(nil), tc.cfg)
			info := ModelInfo{Method: "normalized", Measures: []string{"variance", "osf", "schutz"}, N: 6,
				K: tc.cfg.K, ThetaDelta: tc.cfg.ThetaDelta, TrainingSize: len(samples),
				Prior: whole.Prior(), Checksum: "cafe"}
			tr := startRing(t, 3, 2, 3, whole, info, RouterOptions{})

			queries := ringQueries()
			rec := post(t, tr.rt.Handler(), "/v1/predict/batch", wireBody(t, true, queries...))
			if rec.Code != http.StatusOK {
				t.Fatalf("router batch: %d %s", rec.Code, rec.Body)
			}
			got := decodeBatch(t, rec.Body.Bytes())
			if len(got) != len(queries) {
				t.Fatalf("got %d predictions for %d queries", len(got), len(queries))
			}
			for i, q := range queries {
				want := whole.Predict(q)
				if got[i].Measure != want.Label || got[i].OK != want.Covered || got[i].Fallback != want.Fallback {
					t.Errorf("query %d: router (%q, ok=%v, fb=%v) != whole model (%q, ok=%v, fb=%v)",
						i, got[i].Measure, got[i].OK, got[i].Fallback, want.Label, want.Covered, want.Fallback)
				}
			}
		})
	}
}

// TestRouterFailoverKeepsAnswersIdentical kills one replica process
// mid-tier: every shard still has a live replica, so every prediction
// must stay 200 and bit-identical. Routing failures take the dead node
// out of preference (Probation or Ejected — a second routing failure
// depends on shard goroutines racing, since Probation sorts it behind
// its live peer), and one probe round then ejects it.
func TestRouterFailoverKeepsAnswersIdentical(t *testing.T) {
	samples := ringTrainingSet(60)
	cfg := knn.Config{K: 3, ThetaDelta: 0.3, Workers: 1}
	whole := knn.New(samples, distance.NewMemoizedTreeEdit(nil), cfg)
	info := ModelInfo{N: 6, Prior: whole.Prior(), Checksum: "cafe", TrainingSize: len(samples)}
	tr := startRing(t, 3, 2, 3, whole, info, RouterOptions{})

	tr.ts[1].Close() // SIGKILL stand-in: connections now refuse

	queries := ringQueries()
	for i, q := range queries {
		rec := post(t, tr.rt.Handler(), "/v1/predict", wireBody(t, false, q))
		if rec.Code != http.StatusOK {
			t.Fatalf("query %d after kill: %d %s", i, rec.Code, rec.Body)
		}
		var got predictResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
			t.Fatal(err)
		}
		want := whole.Predict(q)
		if got.Measure != want.Label || got.OK != want.Covered || got.Fallback != want.Fallback {
			t.Errorf("query %d: degraded answer (%q, %v, %v) != whole model (%q, %v, %v)",
				i, got.Measure, got.OK, got.Fallback, want.Label, want.Covered, want.Fallback)
		}
	}
	if st := tr.rt.Checker().State("n1"); st != ring.Probation && st != ring.Ejected {
		t.Errorf("dead node state = %v after routing failures, want probation or ejected", st)
	}
	tr.rt.ProbeOnce(context.Background())
	if st := tr.rt.Checker().State("n1"); st != ring.Ejected {
		t.Errorf("dead node state = %v after a probe round, want ejected", st)
	}
	// The failover hops must be visible in the router's trace log.
	recs := tr.rt.trace.traces.Snapshot(0)
	failHops := 0
	for _, r := range recs {
		for _, h := range r.Hops {
			if strings.Contains(h, "fail") {
				failHops++
			}
		}
	}
	if failHops == 0 {
		t.Error("no failed hops recorded in traces despite a dead replica")
	}
}

// TestRouterDegradesToPriorWhenShardLost: with replicas=1 a dead node
// takes whole shards with it. The router must answer the model's prior
// label (fallback-marked), not an error — and 503 only when the model
// has no prior at all.
func TestRouterDegradesToPriorWhenShardLost(t *testing.T) {
	samples := ringTrainingSet(30)
	cfg := knn.Config{K: 3, ThetaDelta: 0.3, Workers: 1}
	whole := knn.New(samples, distance.NewMemoizedTreeEdit(nil), cfg)
	info := ModelInfo{N: 6, Prior: whole.Prior(), Checksum: "cafe"}
	tr := startRing(t, 3, 1, 3, whole, info, RouterOptions{})
	tr.killOwner(t, 0)

	rec := post(t, tr.rt.Handler(), "/v1/predict/batch", wireBody(t, true, ringQueries()...))
	if rec.Code != http.StatusOK {
		t.Fatalf("batch with lost shard: %d %s", rec.Code, rec.Body)
	}
	for i, p := range decodeBatch(t, rec.Body.Bytes()) {
		if p.Measure != whole.Prior() || !p.OK || !p.Fallback {
			t.Errorf("prediction %d = %+v, want the prior label with the fallback bit", i, p)
		}
	}

	// Without a prior the honest answer is 503.
	noPrior := info
	noPrior.Prior = ""
	tr2 := startRing(t, 3, 1, 3, whole, noPrior, RouterOptions{})
	tr2.killOwner(t, 0)
	rec = post(t, tr2.rt.Handler(), "/v1/predict", wireBody(t, false, chainCtx("q", 1, 2)))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("lost shard without prior: %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("degraded 503 missing Retry-After")
	}
}

// TestRouterRetryAfterHeader: the router's degraded and shed 503s
// advertise Retry-After 1 while it serves, and 10 once it is draining.
func TestRouterRetryAfterHeader(t *testing.T) {
	whole := knn.New(ringTrainingSet(30), distance.NewMemoizedTreeEdit(nil), knn.Config{K: 3, ThetaDelta: 0.3, Workers: 1})
	tr := startRing(t, 3, 1, 3, whole, ModelInfo{N: 6}, RouterOptions{MaxInFlight: 1})
	tr.killOwner(t, 0) // no prior: a lost shard answers 503
	body := wireBody(t, false, chainCtx("q", 1, 2))
	check := func(what, want string) {
		t.Helper()
		rec := post(t, tr.rt.Handler(), "/v1/predict", body)
		if rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("%s: %d, want 503", what, rec.Code)
		}
		if ra := rec.Header().Get("Retry-After"); ra != want {
			t.Fatalf("%s: Retry-After = %q, want %q", what, ra, want)
		}
	}
	check("degraded", "1")
	tr.rt.lim.tryAcquire()
	check("saturated", "1")
	tr.rt.SetReady(false)
	check("saturated while draining", "10")
	tr.rt.lim.release()
	check("degraded while draining", "10")
}

// TestRouterReadyzReflectsRing: /readyz must go 503 as soon as any shard
// has zero Healthy replicas, and recover when the prober readmits them.
func TestRouterReadyzReflectsRing(t *testing.T) {
	samples := ringTrainingSet(20)
	whole := knn.New(samples, distance.NewMemoizedTreeEdit(nil), knn.Config{K: 1, ThetaDelta: 0.3, Workers: 1})
	info := ModelInfo{N: 6, Prior: whole.Prior()}
	tr := startRing(t, 3, 1, 3, whole, info, RouterOptions{})

	get := func(path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		tr.rt.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		return rec
	}
	if rec := get("/readyz"); rec.Code != http.StatusOK {
		t.Fatalf("readyz with healthy ring: %d %s", rec.Code, rec.Body)
	}

	victim := tr.killOwner(t, 0)
	tr.rt.ProbeOnce(context.Background())
	if rec := get("/readyz"); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz with a shard down: %d, want 503", rec.Code)
	}

	// /v1/ring names the sick node and the unhealthy shards.
	rec := get("/v1/ring")
	var st ringStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.States[victim] == "healthy" {
		t.Errorf("ring status still reports %s healthy: %+v", victim, st.States)
	}
	if len(st.UnhealthyShards) == 0 {
		t.Error("ring status lists no unhealthy shards")
	}
}

// TestRouterRejectsMalformedContexts: a context a single server refuses
// as malformed — an unknown action type, or a null child node — gets the
// same 400 from the router. Forwarded unchecked, each replica's refusal
// counted as a replica failure: one such request ejected every node,
// turned the router's /readyz to 503 and was answered 200 from the prior.
func TestRouterRejectsMalformedContexts(t *testing.T) {
	whole := knn.New(ringTrainingSet(30), distance.NewMemoizedTreeEdit(nil), knn.Config{K: 3, ThetaDelta: 0.3, Workers: 1})
	info := ModelInfo{N: 6, Prior: whole.Prior(), Checksum: "cafe"}
	tr := startRing(t, 3, 2, 3, whole, info, RouterOptions{})
	single := New(whole, info, Options{}).Handler()
	for _, body := range []string{
		`{"context":{"session_id":"q","t":1,"n":3,"root":{"step":1,"action":{"type":"nope"}}}}`,
		`{"context":{"session_id":"q","t":1,"n":3,"root":{"step":1,"children":[null]}}}`,
	} {
		for name, h := range map[string]http.Handler{"single server": single, "router": tr.rt.Handler()} {
			if rec := post(t, h, "/v1/predict", body); rec.Code != http.StatusBadRequest {
				t.Errorf("%s answered %d %s to %s, want 400", name, rec.Code, rec.Body, body)
			}
		}
	}
	for _, n := range tr.nodes {
		if st := tr.rt.Checker().State(n.Name); st != ring.Healthy {
			t.Errorf("node %s is %v after malformed requests, want healthy", n.Name, st)
		}
	}
	rec := httptest.NewRecorder()
	tr.rt.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rec.Code != http.StatusOK {
		t.Errorf("router readyz = %d after malformed requests, want 200", rec.Code)
	}
}

// TestContextsOverNRefused: the node cap is the served model's n. A
// context of n+1 nodes is answered 400 by a single server, by a
// replica's /v1/knn/candidates and by the router, which counts no
// replica failure for it; a context of exactly n nodes is served.
func TestContextsOverNRefused(t *testing.T) {
	whole := knn.New(ringTrainingSet(30), distance.NewMemoizedTreeEdit(nil), knn.Config{K: 3, ThetaDelta: 0.3, Workers: 1})
	info := ModelInfo{N: 4, Prior: whole.Prior(), Checksum: "cafe"}
	tr := startRing(t, 3, 2, 3, whole, info, RouterOptions{})
	single := New(whole, info, Options{}).Handler()
	replica := tr.replicas[0]
	for _, r := range tr.replicas {
		if len(r.Status().Shards) > 0 {
			replica = r
			break
		}
	}
	for nodes, want := range map[int]int{info.N: http.StatusOK, info.N + 1: http.StatusBadRequest} {
		q := chainCtx("q", 1, nodes)
		body := wireBody(t, false, q)
		cands, err := json.Marshal(candidatesRequest{
			Shard:    replica.Status().Shards[0],
			Contexts: []*snapshot.WireContext{snapshot.EncodeContext(q, nil)},
		})
		if err != nil {
			t.Fatal(err)
		}
		for name, rec := range map[string]*httptest.ResponseRecorder{
			"single server": post(t, single, "/v1/predict", body),
			"replica":       post(t, replica.Handler(), "/v1/knn/candidates", string(cands)),
			"router":        post(t, tr.rt.Handler(), "/v1/predict", body),
		} {
			if rec.Code != want {
				t.Errorf("%s answered %d %s to a %d-node context (n = %d), want %d", name, rec.Code, rec.Body, nodes, info.N, want)
			}
		}
	}
	for _, n := range tr.nodes {
		if st := tr.rt.Checker().State(n.Name); st != ring.Healthy {
			t.Errorf("node %s is %v after an oversized request, want healthy", n.Name, st)
		}
	}
	rec := httptest.NewRecorder()
	tr.rt.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rec.Code != http.StatusOK {
		t.Errorf("router readyz = %d after an oversized request, want 200", rec.Code)
	}
}

// TestOversizedHistogramRejected: a request display whose column carries
// more histogram keys than any encoder writes (engine.TopFreqLimit+1) is
// refused at decode — 400 from a single server and from the router,
// whose validation keeps it off the replicas — while a column at the cap
// is served.
func TestOversizedHistogramRejected(t *testing.T) {
	whole := knn.New(ringTrainingSet(30), distance.TreeEdit{}, knn.Config{K: 3, ThetaDelta: 0.3, Workers: 1})
	info := ModelInfo{N: 6, Prior: whole.Prior(), Checksum: "cafe"}
	tr := startRing(t, 3, 2, 3, whole, info, RouterOptions{})
	single := New(whole, info, Options{}).Handler()
	body := func(keys int) string {
		top := make(map[string]float64, keys)
		for i := 0; i < keys; i++ {
			top[fmt.Sprint("v", i)] = 1 / float64(keys)
		}
		raw, err := json.Marshal(map[string]any{"context": &snapshot.WireContext{
			SessionID: "q", T: 1, N: 3, Size: 1,
			Root: &snapshot.WireNode{Step: 1, Display: &snapshot.WireDisplay{
				Rows: keys, Columns: []snapshot.WireColumn{{Name: "protocol", TopFreq: top}},
			}},
		}})
		if err != nil {
			t.Fatal(err)
		}
		return string(raw)
	}
	for _, tc := range []struct {
		keys int
		want int
	}{{engine.TopFreqLimit + 1, http.StatusOK}, {engine.TopFreqLimit + 2, http.StatusBadRequest}} {
		for name, h := range map[string]http.Handler{"single server": single, "router": tr.rt.Handler()} {
			if rec := post(t, h, "/v1/predict", body(tc.keys)); rec.Code != tc.want {
				t.Errorf("%s answered %d %s to a %d-key column, want %d", name, rec.Code, rec.Body, tc.keys, tc.want)
			}
		}
	}
	for _, n := range tr.nodes {
		if st := tr.rt.Checker().State(n.Name); st != ring.Healthy {
			t.Errorf("node %s is %v after an oversized histogram, want healthy", n.Name, st)
		}
	}
}

// testSnapshotModel builds a minimal but valid snapshot model whose
// serialized bytes differ per tag, so two saves have distinct checksums.
func testSnapshotModel(tag string) *snapshot.Model {
	pool := snapshot.NewPool()
	m := &snapshot.Model{
		Method: "normalized", Measures: []string{"variance"},
		N: 3, K: 1, ThetaDelta: 0.3, Fallback: "abstain",
	}
	for i := 0; i < 3; i++ {
		m.Samples = append(m.Samples, snapshot.SampleRec{
			Context: snapshot.EncodeContext(chainCtx(tag+fmt.Sprint(i), i, 1+i), pool),
			Labels:  []string{"variance"},
		})
	}
	m.Displays = pool.Displays()
	return m
}

// TestRouterRepairsStaleReplica is the self-healing loop end to end: a
// replica serving an old snapshot is detected by checksum comparison,
// receives the router's snapshot over POST /v1/admin/snapshot, verifies
// and hot-reloads it, and the next sweep finds nothing to repair.
func TestRouterRepairsStaleReplica(t *testing.T) {
	dir := t.TempDir()
	oldPath, newPath := dir+"/old.snap", dir+"/new.snap"
	if err := snapshot.Save(oldPath, testSnapshotModel("old")); err != nil {
		t.Fatal(err)
	}
	if err := snapshot.Save(newPath, testSnapshotModel("new")); err != nil {
		t.Fatal(err)
	}
	oldSum, err := snapshot.FileChecksum(oldPath)
	if err != nil {
		t.Fatal(err)
	}
	newSum, err := snapshot.FileChecksum(newPath)
	if err != nil {
		t.Fatal(err)
	}
	if oldSum == newSum {
		t.Fatal("fixture snapshots collide; tags must differ")
	}

	// The replica's reloader mirrors SnapshotReloader: re-read its own
	// model file and restamp the checksum.
	replicaPath := dir + "/replica.snap"
	if err := snapshot.Save(replicaPath, testSnapshotModel("old")); err != nil {
		t.Fatal(err)
	}
	mkClf := func() *knn.Classifier {
		return knn.New(ringTrainingSet(5), distance.NewMemoizedTreeEdit(nil), knn.Config{K: 1, ThetaDelta: 0.3, Workers: 1})
	}
	reload := func() (*knn.Classifier, ModelInfo, error) {
		sum, err := snapshot.FileChecksum(replicaPath)
		if err != nil {
			return nil, ModelInfo{}, err
		}
		return mkClf(), ModelInfo{N: 6, Checksum: sum}, nil
	}

	swap := &hswap{}
	ts := httptest.NewServer(swap)
	defer ts.Close()
	spec := &ring.Spec{Shards: 1, Replicas: 1, Nodes: []ring.Node{{Name: "n0", Addr: ts.URL}}}
	r, err := ring.New(spec)
	if err != nil {
		t.Fatal(err)
	}
	replica := New(mkClf(), ModelInfo{N: 6, Checksum: oldSum}, Options{
		Ring: r, NodeName: "n0", ModelPath: replicaPath, Reloader: reload,
	})
	swap.set(replica.Handler())

	rt := NewRouter(r, RouterOptions{
		Info:      ModelInfo{N: 6, Checksum: newSum, Prior: "variance"},
		ModelPath: newPath,
	})

	if n := rt.RepairOnce(context.Background()); n != 1 {
		t.Fatalf("first sweep repaired %d replicas, want 1", n)
	}
	if got := replica.Status().Checksum; got != newSum {
		t.Fatalf("replica checksum after repair = %s, want %s", got, newSum)
	}
	if gen := replica.Status().Generation; gen != 2 {
		t.Fatalf("replica generation after repair = %d, want 2 (hot reload)", gen)
	}
	if n := rt.RepairOnce(context.Background()); n != 0 {
		t.Fatalf("second sweep repaired %d replicas, want 0 (converged)", n)
	}
	// The replica's model file itself must hold the pushed bytes.
	sum, err := snapshot.FileChecksum(replicaPath)
	if err != nil {
		t.Fatal(err)
	}
	if sum != newSum {
		t.Fatalf("replica file checksum = %s, want %s", sum, newSum)
	}
}

// TestRequestIDPropagatesAcrossHops: the correlation ID a caller sends
// to the router must arrive at the replicas, so the tier's trace logs
// stitch into one request history.
func TestRequestIDPropagatesAcrossHops(t *testing.T) {
	samples := ringTrainingSet(20)
	whole := knn.New(samples, distance.NewMemoizedTreeEdit(nil), knn.Config{K: 1, ThetaDelta: 0.3, Workers: 1})
	info := ModelInfo{N: 6, Prior: whole.Prior()}
	tr := startRing(t, 2, 1, 2, whole, info, RouterOptions{})

	req := httptest.NewRequest(http.MethodPost, "/v1/predict",
		strings.NewReader(wireBody(t, false, chainCtx("q", 1, 2))))
	req.Header.Set("X-Request-ID", "hop-trace-1")
	rec := httptest.NewRecorder()
	tr.rt.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("predict: %d %s", rec.Code, rec.Body)
	}

	// Every replica that served a candidates call must have traced it
	// under the router's correlation ID.
	sawHop := false
	for _, rep := range tr.replicas {
		for _, trc := range rep.trace.traces.Snapshot(0) {
			if trc.Op == "POST /v1/knn/candidates" {
				sawHop = true
				if trc.ID != "hop-trace-1" {
					t.Errorf("replica trace id = %q, want the router's", trc.ID)
				}
			}
		}
	}
	if !sawHop {
		t.Fatal("no replica traced a candidates call")
	}
	// And the router's own trace must list the hop path.
	var hops []string
	for _, trc := range tr.rt.trace.traces.Snapshot(0) {
		if trc.ID == "hop-trace-1" {
			hops = trc.Hops
		}
	}
	if len(hops) != 2 {
		t.Fatalf("router trace hops = %v, want one per shard", hops)
	}
}

// shardTopK is the brute-force reference of a replica's answer: the k
// nearest of the shard's samples (globals, in training order) within
// limit, by exact tree-edit distance, in ascending (dist, index) order and
// globally numbered.
func shardTopK(samples []*offline.Sample, globals []int, q *session.Context, k int, limit float64) []knn.Candidate {
	var out []knn.Candidate
	for _, g := range globals {
		if d := (distance.TreeEdit{}).Distance(q, samples[g].Context); d <= limit {
			out = append(out, knn.Candidate{Index: g, Dist: d, Labels: samples[g].Labels})
		}
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].Dist < out[b].Dist })
	return out[:min(k, len(out))]
}

// recordingTransport is a router's outbound transport that records every
// candidates call's body by shard. The first call for failShard fails and
// the second waits delay (or its cancellation), so one request through it
// makes that shard fail over and, under a hedging router, fire a hedge.
type recordingTransport struct {
	base      *http.Transport
	failShard int
	delay     time.Duration

	mu     sync.Mutex
	bodies map[int][][]byte
}

func (rt *recordingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Path != "/v1/knn/candidates" {
		return rt.base.RoundTrip(req)
	}
	body, err := io.ReadAll(req.Body)
	req.Body.Close()
	if err != nil {
		return nil, err
	}
	var head struct {
		Shard int `json:"shard"`
	}
	if err := json.Unmarshal(body, &head); err != nil {
		return nil, err
	}
	rt.mu.Lock()
	rt.bodies[head.Shard] = append(rt.bodies[head.Shard], body)
	call := len(rt.bodies[head.Shard])
	rt.mu.Unlock()
	if head.Shard == rt.failShard {
		switch call {
		case 1:
			return nil, errors.New("recording transport: first call refused")
		case 2:
			select {
			case <-time.After(rt.delay):
			case <-req.Context().Done():
				return nil, req.Context().Err()
			}
		}
	}
	out := req.Clone(req.Context())
	out.Body = io.NopCloser(bytes.NewReader(body))
	return rt.base.RoundTrip(out)
}

// TestRouterSendsOneBodyPerShard: the router writes each shard's
// candidates body once per request, from the contexts' bytes as the client
// sent them, and every call for that shard (the failed one, its failover
// and the hedge) carries those same bytes. max_dist is θ_δ to the bit; under
// FallbackNearest, whose scan limit is +∞, it is left out. Answers stay
// the whole model's.
func TestRouterSendsOneBodyPerShard(t *testing.T) {
	samples := ringTrainingSet(60)
	for _, tc := range []struct {
		name string
		cfg  knn.Config
	}{
		// θ_δ just above 0.3: shortest round-trip formatting must keep its bits.
		{"abstain", knn.Config{K: 3, ThetaDelta: math.Nextafter(0.3, 1), Workers: 1}},
		{"nearest", knn.Config{K: 2, ThetaDelta: 0.05, Workers: 1, Fallback: knn.FallbackNearest}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			whole := knn.New(samples, distance.NewMemoizedTreeEdit(nil), tc.cfg)
			info := ModelInfo{N: 6, Prior: whole.Prior(), Checksum: "cafe", TrainingSize: len(samples)}
			transport := &recordingTransport{base: &http.Transport{}, failShard: 0, delay: 5 * time.Second, bodies: map[int][][]byte{}}
			t.Cleanup(transport.base.CloseIdleConnections)
			tr := startRing(t, 3, 2, 3, whole, info, RouterOptions{HedgeFraction: 1, Transport: transport})

			// The client's contexts, indented and spaced, so a re-encoding
			// anywhere on the way would show in the forwarded bytes.
			queries := ringQueries()[:2]
			raws := make([]string, len(queries))
			for i, q := range queries {
				blob, err := json.MarshalIndent(snapshot.EncodeContext(q, nil), "", "  ")
				if err != nil {
					t.Fatal(err)
				}
				raws[i] = string(blob)
			}
			failovers, hedges := mRouteFailover.Load(), mHedgeFired.Load()
			rec := post(t, tr.rt.Handler(), "/v1/predict/batch", `{"contexts": [`+raws[0]+" ,\n "+raws[1]+`]}`)
			if rec.Code != http.StatusOK {
				t.Fatalf("router batch: %d %s", rec.Code, rec.Body)
			}
			for i, got := range decodeBatch(t, rec.Body.Bytes()) {
				want := whole.Predict(queries[i])
				if got.Measure != want.Label || got.OK != want.Covered || got.Fallback != want.Fallback {
					t.Errorf("query %d: router (%q, %v, %v) != whole model (%q, %v, %v)",
						i, got.Measure, got.OK, got.Fallback, want.Label, want.Covered, want.Fallback)
				}
			}
			if mRouteFailover.Load() == failovers || mHedgeFired.Load() == hedges {
				t.Fatalf("failovers %d → %d, hedges %d → %d: the request must fail over and hedge",
					failovers, mRouteFailover.Load(), hedges, mHedgeFired.Load())
			}

			transport.mu.Lock()
			defer transport.mu.Unlock()
			if n := len(transport.bodies[0]); n < 3 {
				t.Fatalf("shard 0 got %d calls, want the refused one, its failover and a hedge", n)
			}
			for sh := 0; sh < 3; sh++ {
				bodies := transport.bodies[sh]
				if len(bodies) == 0 {
					t.Fatalf("shard %d got no call", sh)
				}
				for i, b := range bodies[1:] {
					if !bytes.Equal(b, bodies[0]) {
						t.Errorf("shard %d: call %d sent\n%s\nbut call 0 sent\n%s", sh, i+1, b, bodies[0])
					}
				}
				var got map[string]json.RawMessage
				if err := json.Unmarshal(bodies[0], &got); err != nil {
					t.Fatal(err)
				}
				if string(got["shard"]) != strconv.Itoa(sh) {
					t.Errorf("shard %d: body names shard %s", sh, got["shard"])
				}
				if want := "[" + raws[0] + "," + raws[1] + "]"; string(got["contexts"]) != want {
					t.Errorf("shard %d: forwarded contexts\n%s\nwant the client's bytes\n%s", sh, got["contexts"], want)
				}
				md, ok := got["max_dist"]
				switch limit := tc.cfg.ScanLimit(); {
				case math.IsInf(limit, 1):
					if ok {
						t.Errorf("shard %d: max_dist %s sent for a +∞ scan limit", sh, md)
					}
				default:
					var f float64
					if err := json.Unmarshal(md, &f); err != nil || math.Float64bits(f) != math.Float64bits(limit) {
						t.Errorf("shard %d: max_dist %s (%v), want θ_δ = %v to the bit", sh, md, err, limit)
					}
				}
			}
		})
	}
}

// TestRouterReusesReplicaConnections: a router answering concurrent
// requests keeps its replica connections between calls. Each replica
// counts the client addresses its requests arrive from, which must stay
// within the router's idle pool per node. With http.DefaultTransport,
// which keeps two idle connections per host, the router dialed for over
// a third of its 600 calls here.
func TestRouterReusesReplicaConnections(t *testing.T) {
	const shards, callers, perCaller, maxInFlight = 3, 4, 50, 4
	samples := ringTrainingSet(60)
	whole := knn.New(samples, distance.NewMemoizedTreeEdit(nil), knn.Config{K: 3, ThetaDelta: 0.3, Workers: 1})
	info := ModelInfo{N: 6, Prior: whole.Prior(), Checksum: "cafe", TrainingSize: len(samples)}
	tr := startRing(t, shards, 2, 3, whole, info, RouterOptions{MaxInFlight: maxInFlight})
	var mu sync.Mutex
	conns := make([]map[string]bool, len(tr.swaps))
	for i, sw := range tr.swaps {
		conns[i] = map[string]bool{}
		inner := tr.replicas[i].Handler()
		sw.set(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			mu.Lock()
			conns[i][r.RemoteAddr] = true
			mu.Unlock()
			inner.ServeHTTP(w, r)
		}))
	}

	var bodies []string
	for _, q := range ringQueries() {
		bodies = append(bodies, wireBody(t, false, q))
	}
	h := tr.rt.Handler()
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perCaller; i++ {
				if rec := post(t, h, "/v1/predict", bodies[(c+i)%len(bodies)]); rec.Code != http.StatusOK {
					t.Errorf("caller %d, predict %d: %d %s", c, i, rec.Code, rec.Body)
					return
				}
			}
		}()
	}
	wg.Wait()

	bound := maxInFlight * shards * openAttempts
	for i, seen := range conns {
		t.Logf("n%d: %d connections", i, len(seen))
		if len(seen) > bound {
			t.Errorf("n%d saw %d connections from the router, more than its pool of %d per node", i, len(seen), bound)
		}
	}
}

// TestRouterShedIsNotFailure: replicas at an in-flight limit of one shed
// the router's concurrent candidates calls with 503. The router fails
// over on a shed without reporting the node failed, so load alone ejects
// no replica, and every answered prediction is the whole model's. The
// model has no prior, so a shard whose every attempt was shed answers
// 503, never a prior in place of the merge.
func TestRouterShedIsNotFailure(t *testing.T) {
	const callers, perCaller = 6, 30
	samples := ringTrainingSet(60)
	whole := knn.New(samples, distance.NewMemoizedTreeEdit(nil), knn.Config{K: 3, ThetaDelta: 0.3, Workers: 1})
	info := ModelInfo{N: 6, Checksum: "cafe", TrainingSize: len(samples)}
	tr := startRing(t, 3, 2, 3, whole, info, RouterOptions{MaxInFlight: callers})
	var sheds atomic.Int64
	for i, sw := range tr.swaps {
		inner := New(whole, info, Options{Ring: tr.r, NodeName: fmt.Sprintf("n%d", i), MaxInFlight: 1}).Handler()
		sw.set(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			rec := httptest.NewRecorder()
			inner.ServeHTTP(rec, r)
			if rec.Code == http.StatusServiceUnavailable {
				sheds.Add(1)
			}
			for k, v := range rec.Header() {
				w.Header()[k] = v
			}
			w.WriteHeader(rec.Code)
			_, _ = w.Write(rec.Body.Bytes())
		}))
	}

	queries := ringQueries()
	var bodies []string
	for _, q := range queries {
		bodies = append(bodies, wireBody(t, false, q))
	}
	h := tr.rt.Handler()
	var answered atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perCaller; i++ {
				qi := (c + i) % len(queries)
				rec := post(t, h, "/v1/predict", bodies[qi])
				if rec.Code != http.StatusOK {
					continue
				}
				answered.Add(1)
				var got predictResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
					t.Errorf("caller %d: decode: %v", c, err)
					return
				}
				want := whole.Predict(queries[qi])
				if got.Measure != want.Label || got.OK != want.Covered || got.Fallback != want.Fallback {
					t.Errorf("query %d: router (%q, %v, %v) != whole model (%q, %v, %v)",
						qi, got.Measure, got.OK, got.Fallback, want.Label, want.Covered, want.Fallback)
				}
			}
		}(c)
	}
	wg.Wait()

	t.Logf("%d of %d predictions answered, %d candidates calls shed", answered.Load(), callers*perCaller, sheds.Load())
	if sheds.Load() == 0 {
		t.Fatal("no replica shed a call, so the test exercised nothing")
	}
	if answered.Load() == 0 {
		t.Fatal("no prediction was answered")
	}
	for name, st := range tr.rt.Checker().States() {
		if st == ring.Ejected {
			t.Errorf("%s reads ejected after sheds alone", name)
		}
	}
}

// TestRouterRunListenerClosesIdleConnections: the router's replica
// connections do not outlive RunListener. After it returns, a call
// through the router's client finds no connection to reuse. The ring
// has one node, so each predict makes one call and no dial started for
// a call that then took another connection can finish after the close.
func TestRouterRunListenerClosesIdleConnections(t *testing.T) {
	samples := ringTrainingSet(30)
	whole := knn.New(samples, distance.NewMemoizedTreeEdit(nil), knn.Config{K: 3, ThetaDelta: 0.3, Workers: 1})
	info := ModelInfo{N: 6, Prior: whole.Prior(), Checksum: "cafe", TrainingSize: len(samples)}
	tr := startRing(t, 1, 1, 1, whole, info, RouterOptions{})
	t.Cleanup(tr.rt.httpc.CloseIdleConnections)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- tr.rt.RunListener(ctx, ln) }()
	if rec := post(t, tr.rt.Handler(), "/v1/predict", wireBody(t, false, chainCtx("q", 1, 3))); rec.Code != http.StatusOK {
		t.Fatalf("predict: %d %s", rec.Code, rec.Body)
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("RunListener returned %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("RunListener did not return after cancel")
	}

	var reused atomic.Bool
	trace := &httptrace.ClientTrace{GotConn: func(c httptrace.GotConnInfo) { reused.Store(c.Reused) }}
	n := tr.r.ReplicaGroup(0)[0]
	req, err := http.NewRequestWithContext(httptrace.WithClientTrace(context.Background(), trace), http.MethodGet, n.Addr+"/readyz", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := tr.rt.httpc.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if reused.Load() {
		t.Errorf("a connection to %s outlived RunListener", n.Name)
	}
}

// TestCandidatesEndpointContract pins the replica-side wire behavior:
// shard ownership 404s, standalone servers 501, indexes come back in the
// global numbering, and max_dist bounds the scan.
func TestCandidatesEndpointContract(t *testing.T) {
	samples := ringTrainingSet(30)
	whole := knn.New(samples, distance.NewMemoizedTreeEdit(nil), knn.Config{K: 3, ThetaDelta: 0.3, Workers: 1})
	tr := startRing(t, 3, 1, 3, whole, ModelInfo{N: 6, Checksum: "cafe"}, RouterOptions{})

	// Find a shard the first replica does NOT serve.
	r0 := tr.replicas[0]
	owned := map[int]bool{}
	for _, sh := range r0.Status().Shards {
		owned[sh] = true
	}
	notOwned := -1
	for sh := 0; sh < 3; sh++ {
		if !owned[sh] {
			notOwned = sh
			break
		}
	}
	q := snapshot.EncodeContext(chainCtx("q", 1, 2), nil)
	body := func(shard int) string {
		blob, _ := json.Marshal(candidatesRequest{Shard: shard, Contexts: []*snapshot.WireContext{q}})
		return string(blob)
	}
	if notOwned >= 0 {
		rec := post(t, r0.Handler(), "/v1/knn/candidates", body(notOwned))
		if rec.Code != http.StatusNotFound {
			t.Fatalf("unowned shard: %d, want 404", rec.Code)
		}
	}
	ownedShard := r0.Status().Shards[0]
	rec := post(t, r0.Handler(), "/v1/knn/candidates", body(ownedShard))
	if rec.Code != http.StatusOK {
		t.Fatalf("owned shard: %d %s", rec.Code, rec.Body)
	}
	var resp candidatesResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Shard != ownedShard || resp.Checksum != "cafe" || resp.Generation != 1 {
		t.Fatalf("response envelope = %+v", resp)
	}
	if len(resp.Results) != 1 {
		t.Fatalf("results = %d, want 1", len(resp.Results))
	}
	// Returned indexes must be valid global training positions whose
	// samples actually live on this shard.
	am := r0.cur.Load()
	sm := am.shards[ownedShard]
	globals := map[int]bool{}
	for _, g := range sm.global {
		globals[g] = true
	}
	for _, cd := range resp.Results[0] {
		if !globals[cd.Index] {
			t.Errorf("candidate index %d is not one of shard %d's global positions", cd.Index, ownedShard)
		}
	}

	// The scan limit. Without max_dist the replica answers its shard's
	// ungated top-k, which is what a router that sends no limit merges;
	// with one, exactly the dist ≤ max_dist prefix of that list, a
	// candidate at the limit included; a negative max_dist is refused.
	wq, err := snapshot.DecodeContext(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	ungated := shardTopK(samples, sm.global, wq, 3, math.Inf(1))
	if !reflect.DeepEqual(resp.Results[0], ungated) {
		t.Fatalf("no max_dist: candidates %+v, want the ungated top-k %+v", resp.Results[0], ungated)
	}
	limits := []float64{0}
	for _, cd := range ungated {
		limits = append(limits, cd.Dist, math.Nextafter(cd.Dist, -1))
	}
	cut := false
	for _, limit := range limits {
		if limit < 0 {
			continue
		}
		blob, _ := json.Marshal(candidatesRequest{Shard: ownedShard, MaxDist: &limit, Contexts: []*snapshot.WireContext{q}})
		rec := post(t, r0.Handler(), "/v1/knn/candidates", string(blob))
		if rec.Code != http.StatusOK {
			t.Fatalf("max_dist %v: %d %s", limit, rec.Code, rec.Body)
		}
		var got candidatesResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
			t.Fatal(err)
		}
		prefix := ungated
		for i, cd := range ungated {
			if cd.Dist > limit {
				prefix = ungated[:i]
				break
			}
		}
		cut = cut || len(prefix) < len(ungated)
		if len(got.Results) != 1 || len(got.Results[0]) != len(prefix) || (len(prefix) > 0 && !reflect.DeepEqual(got.Results[0], prefix)) {
			t.Fatalf("max_dist %v: candidates %+v, want the prefix %+v of %+v", limit, got.Results, prefix, ungated)
		}
	}
	if !cut {
		t.Fatalf("no limit cut the ungated list %+v; the fixture must tell them apart", ungated)
	}
	qb, _ := json.Marshal(q)
	neg := fmt.Sprintf(`{"shard":%d,"max_dist":-0.5,"contexts":[%s]}`, ownedShard, qb)
	if rec := post(t, r0.Handler(), "/v1/knn/candidates", neg); rec.Code != http.StatusBadRequest {
		t.Fatalf("negative max_dist: %d %s, want 400", rec.Code, rec.Body)
	}

	// A standalone server (no ring) answers 501.
	lone := tinyServer(t, Options{})
	rec = post(t, lone.Handler(), "/v1/knn/candidates", body(0))
	if rec.Code != http.StatusNotImplemented {
		t.Fatalf("standalone candidates: %d, want 501", rec.Code)
	}
}
