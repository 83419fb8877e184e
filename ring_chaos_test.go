package repro

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/loadtest"
	"repro/internal/obs"
	"repro/internal/ring"
)

// ringSwap late-binds a replica's handler: the httptest listeners must
// exist before the spec (their URLs are the node addrs), and the replica
// servers need the resolved spec.
type ringSwap struct {
	mu sync.Mutex
	h  http.Handler
}

func (s *ringSwap) set(h http.Handler) {
	s.mu.Lock()
	s.h = h
	s.mu.Unlock()
}

func (s *ringSwap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	h := s.h
	s.mu.Unlock()
	if h == nil {
		w.WriteHeader(http.StatusServiceUnavailable)
		return
	}
	h.ServeHTTP(w, r)
}

// TestChaosRingFailover is the tentpole acceptance run for the sharded
// tier (DESIGN.md §11): a 3-shard / 2-replica ring with the ring.* fault
// sites armed, one replica killed mid-loadtest. The contract:
//
//   - error rate stays exactly 0 and p99 stays within SLO — failover and
//     the degradation ladder absorb both the injected faults and the kill;
//   - with every shard reachable, router answers are BIT-IDENTICAL to a
//     single-process PredictAll over the same snapshot, faults and all.
//
// Only ring.route / ring.health / ring.repair are armed: those faults the
// router must hide. serve.predict or knn.scan faults would legitimately
// change answers, which is a different test (TestChaosServePredict).
func TestChaosRingFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node loadtest run")
	}
	fw := chaosFramework(t)
	if err := fw.RunOfflineAnalysis(AnalysisOptions{RefLimit: 10, MinRefs: 2, SkipReference: true}); err != nil {
		t.Fatal(err)
	}
	trained, err := fw.TrainPredictor(DefaultMeasureSet(), Normalized, PredictorConfig{
		N: 2, K: 3, ThetaDelta: 0.5, ThetaI: -10, Fallback: FallbackPrior,
	})
	if err != nil {
		t.Fatal(err)
	}
	modelPath := filepath.Join(t.TempDir(), "model.snap")
	if err := trained.Save(modelPath); err != nil {
		t.Fatal(err)
	}
	// Replicas and router all load the snapshot from disk, like real
	// processes would; the load stamps the checksum the repair loop keys
	// on.
	pred, err := LoadPredictor(modelPath)
	if err != nil {
		t.Fatal(err)
	}

	const nodes = 3
	swaps := make([]*ringSwap, nodes)
	listeners := make([]*httptest.Server, nodes)
	spec := &RingSpec{Shards: 3, Replicas: 2}
	for i := 0; i < nodes; i++ {
		swaps[i] = &ringSwap{}
		listeners[i] = httptest.NewServer(swaps[i])
		defer listeners[i].Close()
		spec.Nodes = append(spec.Nodes, RingNode{Name: fmt.Sprintf("n%d", i), Addr: listeners[i].URL})
	}
	for i, n := range spec.Nodes {
		// Explicit in-flight caps: the default is one per CPU, which on a
		// small CI box sheds under the loadtest's concurrency and would
		// make the zero-shed assertion about machine size, not the tier.
		srv, err := pred.NewShardServer(spec, n.Name, ServeOptions{MaxInFlight: 32})
		if err != nil {
			t.Fatal(err)
		}
		swaps[i].set(srv.Handler())
	}
	rt, err := NewRingRouter(modelPath, spec, RingRouterOptions{MaxInFlight: 32})
	if err != nil {
		t.Fatal(err)
	}

	abandonBefore := obs.C("distance.treeedit.early_abandon").Load()
	armFaults(t, faults.Config{
		Prob:       0.05,
		Seed:       1,
		Kinds:      faults.KindAll,
		MaxLatency: 200 * time.Microsecond,
		Sites:      []string{faults.SiteRingRoute, faults.SiteRingHealth, faults.SiteRingRepair},
	})

	// Phase 1 — bit-identity under armed faults, every shard reachable.
	// Injected hop faults may cost failovers, never answers.
	qs := testContexts(t, fw, 2, 24)
	want := pred.PredictAll(qs)
	handler := rt.Handler()
	for i, q := range qs {
		body, err := json.Marshal(map[string]any{"context": EncodeWireContext(q)})
		if err != nil {
			t.Fatal(err)
		}
		req := httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("query %d: router answered %d under ring faults (body %s)", i, rec.Code, rec.Body)
		}
		var got struct {
			Measure  string `json:"measure"`
			OK       bool   `json:"ok"`
			Fallback bool   `json:"fallback"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
			t.Fatal(err)
		}
		if got.Measure != want[i].MeasureName || got.OK != want[i].OK || got.Fallback != want[i].Fallback {
			t.Fatalf("query %d: router (%q, ok=%v, fb=%v) drifted from PredictAll (%q, ok=%v, fb=%v) under ring faults",
				i, got.Measure, got.OK, got.Fallback, want[i].MeasureName, want[i].OK, want[i].Fallback)
		}
	}

	// Phase 2 — open-loop load through the router with one replica
	// SIGKILLed mid-run. Every shard keeps a live replica (R=2), so the
	// error rate must stay exactly 0 and p99 within SLO.
	bodies := make([][]byte, len(qs))
	for i, q := range qs {
		b, err := json.Marshal(map[string]any{"context": EncodeWireContext(q)})
		if err != nil {
			t.Fatal(err)
		}
		bodies[i] = b
	}
	victim := 0 // n0 serves at least one shard in this spec (asserted below)
	if shards := mustRing(t, spec).NodeShards("n0"); len(shards) == 0 {
		t.Fatal("fixture assumption broken: n0 serves no shards")
	}
	killed := make(chan struct{})
	go func() {
		time.Sleep(400 * time.Millisecond)
		listeners[victim].CloseClientConnections()
		listeners[victim].Close()
		close(killed)
	}()
	res, err := loadtest.Run(context.Background(), loadtest.Options{
		Handler:     handler,
		Bodies:      bodies,
		QPS:         100,
		Concurrency: 8,
		Duration:    1200 * time.Millisecond,
		SLO: loadtest.SLO{
			MaxP99:       2 * time.Second,
			MaxErrorRate: 0,
			MaxShedRate:  0,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	<-killed
	if len(res.Violations) > 0 {
		t.Fatalf("ring chaos run violated SLOs: %v (result %+v)", res.Violations, res)
	}
	if res.Errors != 0 {
		t.Fatalf("error rate %d/%d with a replica killed mid-run, want 0", res.Errors, res.Requests)
	}
	if res.Requests < 50 {
		t.Fatalf("loadtest scheduled only %d requests — run too short to mean anything", res.Requests)
	}

	// The kill must be visible in the tier's telemetry: failovers fired
	// and the router's checker walked the dead node out of rotation.
	if obs.C("ring.route_failover").Load() == 0 {
		t.Error("no ring.route_failover recorded despite armed faults and a dead replica")
	}
	if st := rt.Checker().State("n0"); st == ring.Healthy {
		t.Error("router still believes the killed replica is healthy")
	}
	// The replicas' scans must have pruned with the evaluator's lower
	// bounds: zero abandons would mean every candidate paid the exact
	// distance, a tier that silently lost its pruning.
	if got := obs.C("distance.treeedit.early_abandon").Load() - abandonBefore; got == 0 {
		t.Error("distance.treeedit.early_abandon did not advance — the sharded tier's scans never pruned a candidate")
	}

	// Phase 3 — the answers after the kill are still bit-identical: the
	// survivors cover every shard.
	for i, q := range qs[:8] {
		body, _ := json.Marshal(map[string]any{"context": EncodeWireContext(q)})
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("post-kill query %d: %d %s", i, rec.Code, rec.Body)
		}
		var got struct {
			Measure  string `json:"measure"`
			OK       bool   `json:"ok"`
			Fallback bool   `json:"fallback"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
			t.Fatal(err)
		}
		if got.Measure != want[i].MeasureName || got.OK != want[i].OK || got.Fallback != want[i].Fallback {
			t.Fatalf("post-kill query %d: (%q, %v, %v) != PredictAll (%q, %v, %v)",
				i, got.Measure, got.OK, got.Fallback, want[i].MeasureName, want[i].OK, want[i].Fallback)
		}
	}
}

func mustRing(t *testing.T, spec *RingSpec) *ring.Ring {
	t.Helper()
	r, err := ring.New(spec)
	if err != nil {
		t.Fatal(err)
	}
	return r
}
