package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/distance"
	"repro/internal/knn"
	"repro/internal/ring"
)

func TestHedgePacerDelayAndCap(t *testing.T) {
	p := newHedgePacer(0.5)

	// Before hedgeMinSamples winner latencies, the floor rules.
	if d := p.delay(0); d != hedgeDelayFloor {
		t.Fatalf("cold delay = %v, want the %v floor", d, hedgeDelayFloor)
	}
	for i := 0; i < hedgeMinSamples; i++ {
		p.observeWin(0, 20*time.Millisecond)
	}
	if d := p.delay(0); d < 15*time.Millisecond {
		t.Fatalf("warm delay = %v, want the shard's ~20ms p95", d)
	}
	// The ceiling clamps a pathological p95.
	for i := 0; i < hedgeMinSamples; i++ {
		p.observeWin(1, time.Minute)
	}
	if d := p.delay(1); d != hedgeDelayCeil {
		t.Fatalf("ceiled delay = %v, want %v", d, hedgeDelayCeil)
	}
	// Other shards keep their own windows.
	if d := p.delay(2); d != hedgeDelayFloor {
		t.Fatalf("unseen shard delay = %v, want floor", d)
	}

	// Fraction cap: at 0.5, hedges may never exceed half the calls.
	for i := 0; i < 10; i++ {
		p.startCall()
	}
	granted := 0
	for i := 0; i < 10; i++ {
		if p.tryHedge() {
			granted++
		}
	}
	if granted != 5 {
		t.Fatalf("granted %d hedges over 10 calls at fraction 0.5, want 5", granted)
	}
}

// hedgeRing builds a 1-shard / 2-replica tier with an aggressive pacer,
// returning the ring plus the victim (preferred replica) index.
func hedgeRing(t *testing.T, clf *knn.Classifier, info ModelInfo) (*testRing, int, string) {
	t.Helper()
	tr := startRing(t, 1, 2, 2, clf, info, RouterOptions{HedgeFraction: 1})
	victim := tr.r.ReplicaGroup(0)[0].Name
	idx, err := strconv.Atoi(strings.TrimPrefix(victim, "n"))
	if err != nil {
		t.Fatalf("unexpected node name %q", victim)
	}
	return tr, idx, victim
}

// TestHedgeLoserCancelledNoLeak pins hedge hygiene under -race: when the
// backup replica wins, the loser's request context is cancelled, its
// goroutine exits (no leak), and the abandoned node is NOT punished by
// the failure machine — the router stopped waiting; the node did not
// fail.
func TestHedgeLoserCancelledNoLeak(t *testing.T) {
	samples := ringTrainingSet(40)
	whole := knn.New(samples, distance.NewMemoizedTreeEdit(nil), knn.Config{K: 3, ThetaDelta: 0.3, Workers: 1})
	info := ModelInfo{N: 6, Prior: whole.Prior(), Checksum: "cafe", TrainingSize: len(samples)}
	tr, vidx, victim := hedgeRing(t, whole, info)

	// The victim answers candidates calls only after its request context
	// dies (or a long fallback, which would fail the cancellation
	// assertion below).
	var cancelled atomic.Bool
	inner := tr.replicas[vidx].Handler()
	tr.swaps[vidx].set(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/knn/candidates" {
			// Drain the body first: net/http only watches for a client
			// disconnect (and cancels r.Context()) once the request has
			// been fully read.
			_, _ = io.Copy(io.Discard, r.Body)
			select {
			case <-r.Context().Done():
				cancelled.Store(true)
				return
			case <-time.After(5 * time.Second):
			}
		}
		inner.ServeHTTP(w, r)
	}))

	wonBefore := mHedgeWon.Load()
	before := runtime.NumGoroutine()

	q := chainCtx("q", 1, 3)
	rec := post(t, tr.rt.Handler(), "/v1/predict", wireBody(t, false, q))
	if rec.Code != http.StatusOK {
		t.Fatalf("hedged predict: %d %s", rec.Code, rec.Body)
	}
	var got predictResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	want := whole.Predict(q)
	if got.Measure != want.Label || got.OK != want.Covered || got.Fallback != want.Fallback {
		t.Errorf("hedged answer (%q, %v, %v) != whole model (%q, %v, %v)",
			got.Measure, got.OK, got.Fallback, want.Label, want.Covered, want.Fallback)
	}
	if mHedgeWon.Load() == wonBefore {
		t.Fatal("the backup replica's win was not counted (ring.hedge.won)")
	}

	// The loser's request context must die promptly.
	waitUntil := time.Now().Add(3 * time.Second)
	for !cancelled.Load() && time.Now().Before(waitUntil) {
		time.Sleep(2 * time.Millisecond)
	}
	if !cancelled.Load() {
		t.Fatal("losing hedge's request context was never cancelled")
	}

	// Abandonment is censorship, not failure: the slow node keeps its
	// Healthy base state (one abandoned call is far too few latency
	// samples to degrade it, and it must not enter Probation).
	if st := tr.rt.Checker().State(victim); st != ring.Healthy {
		t.Errorf("abandoned node state = %v, want Healthy (no failure report)", st)
	}

	// And the loser goroutine (plus its connection) drains back to the
	// baseline — no leak per hedge.
	tr.rt.httpc.CloseIdleConnections()
	for time.Now().Before(waitUntil) {
		if runtime.NumGoroutine() <= before {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before+3 {
		t.Errorf("goroutines %d after hedge vs %d before: loser leaked", g, before)
	}
}

// TestHedgedMergeBitIdentical is the correctness regression for hedging
// on a tie-dense training set: with a pacer aggressive enough to hedge
// nearly every call against a deliberately slow preferred replica, every
// answer must equal the unhedged whole-model scan bit for bit.
func TestHedgedMergeBitIdentical(t *testing.T) {
	samples := ringTrainingSet(60) // many duplicate depths → distance ties
	cfg := knn.Config{K: 3, ThetaDelta: 0.3, Workers: 1}
	whole := knn.New(samples, distance.NewMemoizedTreeEdit(nil), cfg)
	info := ModelInfo{Method: "normalized", N: 6, K: cfg.K, ThetaDelta: cfg.ThetaDelta,
		TrainingSize: len(samples), Prior: whole.Prior(), Checksum: "cafe"}
	tr, vidx, _ := hedgeRing(t, whole, info)

	// The preferred replica answers, but slowly — the gray case hedging
	// exists for.
	inner := tr.replicas[vidx].Handler()
	tr.swaps[vidx].set(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/knn/candidates" {
			time.Sleep(25 * time.Millisecond)
		}
		inner.ServeHTTP(w, r)
	}))

	firedBefore := mHedgeFired.Load()
	queries := ringQueries()
	for i, q := range queries {
		rec := post(t, tr.rt.Handler(), "/v1/predict", wireBody(t, false, q))
		if rec.Code != http.StatusOK {
			t.Fatalf("query %d: %d %s", i, rec.Code, rec.Body)
		}
		var got predictResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
			t.Fatal(err)
		}
		want := whole.Predict(q)
		if got.Measure != want.Label || got.OK != want.Covered || got.Fallback != want.Fallback {
			t.Errorf("query %d: hedged (%q, ok=%v, fb=%v) != whole (%q, ok=%v, fb=%v)",
				i, got.Measure, got.OK, got.Fallback, want.Label, want.Covered, want.Fallback)
		}
	}
	if mHedgeFired.Load() == firedBefore {
		t.Fatal("no hedge ever fired against a 25ms replica with a 5ms floor")
	}
}
