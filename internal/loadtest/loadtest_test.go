package loadtest

import (
	"context"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// okHandler answers every request 200 {"ok":true}.
func okHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"measure":"variance","ok":true}`))
	})
}

func body() [][]byte { return [][]byte{[]byte(`{"context":{}}`)} }

func TestRunCountsAndPasses(t *testing.T) {
	res, err := Run(context.Background(), Options{
		Handler:     okHandler(),
		Bodies:      body(),
		QPS:         500,
		Concurrency: 4,
		Duration:    200 * time.Millisecond,
		SLO:         SLO{MaxErrorRate: 0, MaxShedRate: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests == 0 || res.OK != res.Requests {
		t.Fatalf("want all-OK traffic, got %+v", res)
	}
	if res.Errors != 0 || res.Shed != 0 || res.Degraded != 0 {
		t.Fatalf("unexpected failures: %+v", res)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("clean run reported violations: %v", res.Violations)
	}
	if res.StatusCounts[http.StatusOK] != res.Requests {
		t.Fatalf("status counts disagree: %v vs %d requests", res.StatusCounts, res.Requests)
	}
	if res.Mode != "in-process" || res.Date == "" || res.Build.GoVersion == "" {
		t.Fatalf("artifact metadata incomplete: %+v", res)
	}
	if res.Latency.Count != res.Requests || res.Latency.P99NS < res.Latency.P50NS {
		t.Fatalf("latency summary inconsistent: %+v", res.Latency)
	}
	// ~500 qps over 200ms schedules ~100 arrivals; a fast handler should
	// complete nearly all of them.
	if res.Requests < 50 {
		t.Fatalf("open-loop pacing scheduled only %d requests", res.Requests)
	}
}

func TestRunClassifiesOutcomes(t *testing.T) {
	cases := []struct {
		name  string
		h     http.HandlerFunc
		check func(t *testing.T, r *Result)
	}{
		{"errors", func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "boom", http.StatusInternalServerError)
		}, func(t *testing.T, r *Result) {
			if r.Errors != r.Requests || r.ErrorRate != 1 {
				t.Fatalf("want all-error run, got %+v", r)
			}
			if len(r.Violations) == 0 {
				t.Fatal("error-rate SLO did not fire")
			}
		}},
		{"shed", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Retry-After", "1")
			http.Error(w, "saturated", http.StatusServiceUnavailable)
		}, func(t *testing.T, r *Result) {
			if r.Shed != r.Requests || r.Errors != 0 {
				t.Fatalf("503s must count as shed, not errors: %+v", r)
			}
			if len(r.Violations) == 0 {
				t.Fatal("shed-rate SLO did not fire")
			}
		}},
		{"degraded", func(w http.ResponseWriter, r *http.Request) {
			_, _ = w.Write([]byte(`{"measure":"variance","ok":true,"fallback":true}`))
		}, func(t *testing.T, r *Result) {
			if r.Degraded != r.Requests || r.Errors != 0 {
				t.Fatalf("fallback answers must count as degraded: %+v", r)
			}
			if r.DegradedRate != 1 {
				t.Fatalf("degraded rate = %v", r.DegradedRate)
			}
		}},
		{"abstain", func(w http.ResponseWriter, r *http.Request) {
			_, _ = w.Write([]byte(`{"ok":false}`))
		}, func(t *testing.T, r *Result) {
			if r.Abstain != r.Requests {
				t.Fatalf("abstentions misclassified: %+v", r)
			}
		}},
		{"timeout", func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, `{"error":"serve.deadline_rejected"}`, http.StatusGatewayTimeout)
		}, func(t *testing.T, r *Result) {
			if r.Timeouts != r.Requests || r.Errors != 0 || r.Shed != 0 {
				t.Fatalf("504s must count as timeouts, not errors or shed: %+v", r)
			}
			if r.TimeoutRate != 1 {
				t.Fatalf("timeout rate = %v", r.TimeoutRate)
			}
			if len(r.Violations) == 0 {
				t.Fatal("timeout-rate SLO did not fire")
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Run(context.Background(), Options{
				Handler:     tc.h,
				Bodies:      body(),
				QPS:         400,
				Concurrency: 2,
				Duration:    100 * time.Millisecond,
				SLO:         SLO{MaxErrorRate: 0, MaxShedRate: 0, MaxTimeoutRate: 0},
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Requests == 0 {
				t.Fatal("no requests ran")
			}
			tc.check(t, res)
		})
	}
}

func TestRunP99SLO(t *testing.T) {
	slow := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(5 * time.Millisecond)
		_, _ = w.Write([]byte(`{"ok":true}`))
	})
	res, err := Run(context.Background(), Options{
		Handler:     slow,
		Bodies:      body(),
		QPS:         200,
		Concurrency: 4,
		Duration:    150 * time.Millisecond,
		SLO:         SLO{MaxP99: time.Millisecond, MaxErrorRate: -1, MaxShedRate: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Latency.P99NS < uint64(5*time.Millisecond) {
		t.Fatalf("p99 %d below the handler's own sleep", res.Latency.P99NS)
	}
	if len(res.Violations) == 0 {
		t.Fatal("p99 SLO did not fire on a 5ms handler vs a 1ms bound")
	}
}

// TestOpenLoopChargesQueueing pins the coordinated-omission correction:
// with one worker and a handler slower than the arrival interval, queued
// arrivals must record the wait, so tail latency well exceeds a single
// handler sleep.
func TestOpenLoopChargesQueueing(t *testing.T) {
	const sleep = 10 * time.Millisecond
	slow := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(sleep)
		_, _ = w.Write([]byte(`{"ok":true}`))
	})
	res, err := Run(context.Background(), Options{
		Handler:     slow,
		Bodies:      body(),
		QPS:         1000, // 1ms arrival interval vs 10ms service time
		Concurrency: 1,
		Duration:    100 * time.Millisecond,
		SLO:         SLO{MaxErrorRate: -1, MaxShedRate: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	// With a 10x overload, the last completed request queued behind many
	// others; closed-loop measurement would report ~10ms for every one.
	if res.Latency.MaxNS < uint64(3*sleep) {
		t.Fatalf("max latency %v does not include queueing delay", time.Duration(res.Latency.MaxNS))
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	if _, err := Run(context.Background(), Options{Handler: okHandler()}); err == nil {
		t.Fatal("no bodies must be rejected")
	}
	if _, err := Run(context.Background(), Options{Bodies: body()}); err == nil {
		t.Fatal("no target must be rejected")
	}
}

func TestHDRQuantileBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	h := newHDR()
	const n = 100_000
	vals := make([]uint64, n)
	for i := range vals {
		v := uint64(rng.Int63n(50_000_000)) + 1 // up to 50ms in ns
		vals[i] = v
		h.record(v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		idx := int(q*float64(n)) - 1
		if idx < 0 {
			idx = 0
		}
		truth := vals[idx]
		est := h.quantile(q)
		if est < truth {
			t.Errorf("q=%v estimate %d below truth %d", q, est, truth)
		}
		// Sub-bucket resolution bounds relative error to 1/32.
		if float64(est) > float64(truth)*(1+1.0/32)+1 {
			t.Errorf("q=%v estimate %d exceeds truth %d by more than 1/32", q, est, truth)
		}
	}
	if h.quantile(1.0) != vals[n-1] {
		t.Errorf("q=1 estimate %d, want max %d", h.quantile(1.0), vals[n-1])
	}
}

func TestHDRIndexRoundTrip(t *testing.T) {
	for _, v := range []uint64{0, 1, 63, 64, 65, 127, 128, 1 << 20, 1<<40 + 12345} {
		e, s := hdrIndex(v)
		u := hdrUpper(e, s)
		if u < v {
			t.Errorf("v=%d: upper bound %d below value", v, u)
		}
		if v >= hdrSub && float64(u) > float64(v)*(1+1.0/32)+1 {
			t.Errorf("v=%d: upper bound %d too loose", v, u)
		}
		if v < hdrSub && u != v {
			t.Errorf("v=%d: small values must be exact, got %d", v, u)
		}
	}
}

// TestMultiTargetRoundRobin: with several BaseURLs the offered load
// round-robins across targets by arrival index, every target shares the
// traffic, and the artifact records the target list.
func TestMultiTargetRoundRobin(t *testing.T) {
	const n = 3
	var counts [n]atomic.Int64
	servers := make([]*httptest.Server, n)
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		i := i
		servers[i] = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			counts[i].Add(1)
			w.Header().Set("Content-Type", "application/json")
			_, _ = w.Write([]byte(`{"measure":"variance","ok":true}`))
		}))
		defer servers[i].Close()
		urls[i] = servers[i].URL
	}

	res, err := Run(context.Background(), Options{
		BaseURL:     urls[0],
		BaseURLs:    urls[1:],
		Bodies:      body(),
		QPS:         600,
		Concurrency: 4,
		Duration:    300 * time.Millisecond,
		SLO:         SLO{MaxErrorRate: 0, MaxShedRate: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != "http" {
		t.Fatalf("mode = %q, want http", res.Mode)
	}
	if len(res.Targets) != n || res.Targets[0] != urls[0] {
		t.Fatalf("artifact targets = %v, want the %d offered URLs", res.Targets, n)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("clean multi-target run reported violations: %v", res.Violations)
	}
	var total int64
	for i := 0; i < n; i++ {
		got := counts[i].Load()
		total += got
		if got == 0 {
			t.Fatalf("target %d received no traffic", i)
		}
	}
	if uint64(total) != res.Requests {
		t.Fatalf("servers saw %d requests, artifact says %d", total, res.Requests)
	}
	// Round-robin by arrival index keeps the split near-even; allow slack
	// for the few arrivals at the schedule tail.
	for i := 0; i < n; i++ {
		if got := counts[i].Load(); got < total/(2*n) {
			t.Fatalf("target %d got %d of %d requests — not round-robined", i, got, total)
		}
	}
}

// TestDeadlineStampAndTransportTimeout: Options.Deadline stamps the
// X-Deadline-Ms header on every request, and transport-level timeouts
// (the per-request budget dying in flight) land in the timeout class,
// not errors.
func TestDeadlineStampAndTransportTimeout(t *testing.T) {
	var stamped atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get(deadlineHeader) != "" {
			stamped.Add(1)
		}
		time.Sleep(80 * time.Millisecond)
		_, _ = w.Write([]byte(`{"ok":true}`))
	}))
	defer ts.Close()

	res, err := Run(context.Background(), Options{
		BaseURL:        ts.URL,
		Bodies:         body(),
		QPS:            100,
		Concurrency:    4,
		Duration:       100 * time.Millisecond,
		RequestTimeout: 10 * time.Millisecond,
		Deadline:       10 * time.Millisecond,
		SLO:            SLO{MaxErrorRate: 0, MaxShedRate: -1, MaxTimeoutRate: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if stamped.Load() == 0 {
		t.Fatal("no request carried the deadline header")
	}
	if res.Timeouts == 0 || res.Errors != 0 {
		t.Fatalf("in-flight timeouts misclassified: %+v", res)
	}
	if res.TimeoutRate != 1 {
		t.Fatalf("timeout rate = %v, want 1 (every request outlives its budget)", res.TimeoutRate)
	}
	fired := false
	for _, v := range res.Violations {
		if strings.Contains(v, "timeout rate") {
			fired = true
		}
	}
	if !fired {
		t.Fatalf("timeout-rate SLO did not fire: %v", res.Violations)
	}
}

// TestRunReusesConnections: a live run keeps a connection per request
// in flight, so the number of connections the server accepts does not
// grow with the requests it answers. A dial started while every
// connection was busy can finish after one freed, so a run may hold a
// few more than Concurrency; the bound allows twice as many. A client
// keeping net/http's default of two idle connections per host dialed
// over a hundred times for this run's thousand requests.
func TestRunReusesConnections(t *testing.T) {
	const concurrency = 8
	var dialed atomic.Int64
	ts := httptest.NewUnstartedServer(okHandler())
	ts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			dialed.Add(1)
		}
	}
	ts.Start()
	defer ts.Close()

	res, err := Run(context.Background(), Options{
		BaseURL:     ts.URL,
		Bodies:      body(),
		QPS:         2000,
		Concurrency: concurrency,
		Duration:    500 * time.Millisecond,
		SLO:         SLO{MaxErrorRate: 0, MaxShedRate: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.OK != res.Requests || res.Requests == 0 {
		t.Fatalf("want all-OK traffic, got %+v", res)
	}
	t.Logf("%d connections for %d requests", dialed.Load(), res.Requests)
	if n := dialed.Load(); n > 2*concurrency {
		t.Errorf("the server accepted %d connections for %d requests from a run of %d in flight", n, res.Requests, concurrency)
	}
}
