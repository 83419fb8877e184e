package repro

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/loadtest"
	"repro/internal/obs"
	"repro/internal/ring"
)

// TestTailLatencyArmor is the acceptance run for the tail-latency armor
// (DESIGN.md §13): a 3-shard / 2-replica ring where ONE replica — the
// preferred replica for at least one shard — answers candidate calls
// roughly 100x slower than its peers (latency-only fault, no errors).
// The contract:
//
//   - the loadtest sees zero errors, zero sheds, zero timeouts, and a
//     p99 within SLO: hedged requests mask the slow replica's latency
//     while the gray-failure detector walks it to the back of the
//     routing order;
//   - the slow replica ends the run Degraded, not Ejected: it never
//     failed a request, so it must stay routable (it is still the only
//     surviving replica for its shards if the other one dies);
//   - router answers remain BIT-IDENTICAL to a single-process
//     PredictAll over the same snapshot, hedging and all.
//
// Only serve.slow.<victim> is armed: the fault is pure latency on one
// node, the gray failure this armor exists for. Error-injecting sites
// are the failover test's job (TestChaosRingFailover).
func TestTailLatencyArmor(t *testing.T) {
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
		// Generous in-flight caps on the replicas: this test's fault is
		// latency, not overload, and the zero-shed assertion must hold.
		srv, err := pred.NewShardServer(spec, n.Name, ServeOptions{
			MaxInFlight: 32,
		})
		if err != nil {
			t.Fatal(err)
		}
		swaps[i].set(srv.Handler())
	}
	rt, err := NewRingRouter(modelPath, spec, RingRouterOptions{
		MaxInFlight:   32,
		HedgeFraction: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}

	// The victim is the PREFERRED replica of shard 0: untreated, its
	// latency lands on every request for that shard.
	victim := mustRing(t, spec).ReplicaGroup(0)[0].Name
	if _, err := strconv.Atoi(strings.TrimPrefix(victim, "n")); err != nil {
		t.Fatalf("unexpected node name %q", victim)
	}

	wonBefore := obs.C("ring.hedge.won").Load()
	armFaults(t, faults.Config{
		Prob:  1,
		Seed:  1,
		Kinds: faults.KindLatency,
		// Healthy replicas answer candidates in well under a millisecond
		// on this model; a 0–120ms injected sleep is the "~100x slower"
		// gray failure.
		MaxLatency: 120 * time.Millisecond,
		Sites:      []string{faults.SiteServeSlow + "." + victim},
	})

	// Phase 1 — bit-identity with the slow replica in preferred position.
	// The fault is latency-only, so hedged or not, merged answers must
	// match the single-process model exactly.
	qs := testContexts(t, fw, 2, 24)
	want := pred.PredictAll(qs)
	handler := rt.Handler()
	bodies := make([][]byte, len(qs))
	for i, q := range qs {
		b, err := json.Marshal(map[string]any{"context": EncodeWireContext(q)})
		if err != nil {
			t.Fatal(err)
		}
		bodies[i] = b
	}
	checkIdentity := func(tag string) {
		t.Helper()
		for i := range qs {
			req := httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(bodies[i]))
			rec := httptest.NewRecorder()
			handler.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				t.Fatalf("%s query %d: router answered %d with a slow replica (body %s)", tag, i, rec.Code, rec.Body)
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
				t.Fatalf("%s query %d: router (%q, ok=%v, fb=%v) drifted from PredictAll (%q, ok=%v, fb=%v)",
					tag, i, got.Measure, got.OK, got.Fallback, want[i].MeasureName, want[i].OK, want[i].Fallback)
			}
		}
	}
	checkIdentity("warm-up")

	// Phase 2 — open-loop load with the fault still armed. No deadline is
	// stamped: the armor must bound the tail on its own (hedges + the
	// degrade ladder), not by shedding doomed requests.
	res, err := loadtest.Run(context.Background(), loadtest.Options{
		Handler:     handler,
		Bodies:      bodies,
		QPS:         100,
		Concurrency: 8,
		Duration:    1200 * time.Millisecond,
		SLO: loadtest.SLO{
			MaxP99:         time.Second,
			MaxErrorRate:   0,
			MaxShedRate:    0,
			MaxTimeoutRate: 0,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) > 0 {
		t.Fatalf("tail-latency run violated SLOs: %v (result %+v)", res.Violations, res)
	}
	if res.Errors != 0 || res.Timeouts != 0 || res.Shed != 0 {
		t.Fatalf("errors=%d timeouts=%d shed=%d with one slow replica, want all 0 (of %d requests)",
			res.Errors, res.Timeouts, res.Shed, res.Requests)
	}
	if res.Requests < 50 {
		t.Fatalf("loadtest scheduled only %d requests — run too short to mean anything", res.Requests)
	}

	// The armor must be visible in telemetry, not incidental: hedges
	// actually won against the slow replica, and the gray-failure
	// detector holds it at Degraded — behind healthy peers, never
	// ejected, its shards still fully covered.
	if obs.C("ring.hedge.won").Load() == wonBefore {
		t.Error("no hedge ever won against a ~100x slower preferred replica")
	}
	if st := rt.Checker().State(victim); st != ring.Degraded {
		ewma, p95, n := rt.Checker().Latency(victim)
		t.Errorf("slow replica state = %v (ewma %v, p95 %v, %d samples), want Degraded", st, ewma, p95, n)
	}
	if g := obs.G("ring.replica_state[state=degraded]").Load(); g < 1 {
		t.Errorf("ring.replica_state[state=degraded] gauge = %d, want >= 1", g)
	}
	for shard := 0; shard < spec.Shards; shard++ {
		if !rt.Checker().ShardHealthy(shard) {
			t.Errorf("shard %d reported unhealthy: Degraded must keep replicas serving", shard)
		}
	}

	// Phase 3 — bit-identity AFTER the run, now with the victim demoted
	// in the routing order: reordering replicas must not change answers.
	checkIdentity("post-load")
}
