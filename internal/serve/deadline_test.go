package serve

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/distance"
	"repro/internal/faults"
	"repro/internal/knn"
	"repro/internal/obs"
	"repro/internal/session"
	"repro/internal/snapshot"
)

func TestParseDeadline(t *testing.T) {
	mk := func(v string) *http.Request {
		r := httptest.NewRequest(http.MethodPost, "/v1/predict", nil)
		if v != "" {
			r.Header.Set(DeadlineHeader, v)
		}
		return r
	}
	if _, ok := parseDeadline(mk("")); ok {
		t.Fatal("missing header parsed as a budget")
	}
	if _, ok := parseDeadline(mk("soon")); ok {
		t.Fatal("malformed header parsed as a budget")
	}
	if d, ok := parseDeadline(mk("250")); !ok || d != 250*time.Millisecond {
		t.Fatalf("parse 250 = (%v, %v)", d, ok)
	}
	// Negative budgets clamp to zero but stay "stamped" — the caller
	// declared a budget and it is gone; that must reject, not pass.
	if d, ok := parseDeadline(mk("-5")); !ok || d != 0 {
		t.Fatalf("parse -5 = (%v, %v), want (0, true)", d, ok)
	}
}

// FuzzParseDeadline: a hostile X-Deadline-Ms never yields a negative
// budget; an in-range non-negative n is exactly n milliseconds, a
// negative n is a zero budget, and a value too large for a
// time.Duration (9223372036855 ms is about 292 years) is no budget at
// all, not a negative one that admission would answer 504.
func FuzzParseDeadline(f *testing.F) {
	for _, seed := range []string{
		"", "250", "0", "-5", "soon", "+7", "9223372036854", "9223372036855",
		"9223372036854775807", "99999999999999999999",
	} {
		f.Add(seed)
	}
	const maxMs = math.MaxInt64 / int64(time.Millisecond)
	r := httptest.NewRequest(http.MethodPost, "/v1/predict", nil)
	f.Fuzz(func(t *testing.T, v string) {
		r.Header.Set(DeadlineHeader, v)
		d, ok := parseDeadline(r)
		if d < 0 || (!ok && d != 0) {
			t.Fatalf("parseDeadline(%q) = (%v, %v)", v, d, ok)
		}
		n, err := strconv.ParseInt(v, 10, 64)
		switch {
		case err != nil:
		case n < 0 && (!ok || d != 0):
			t.Fatalf("parseDeadline(%q) = (%v, %v), want a zero budget", v, d, ok)
		case n >= 0 && n <= maxMs && (!ok || d != time.Duration(n)*time.Millisecond):
			t.Fatalf("parseDeadline(%q) = (%v, %v), want %dms", v, d, ok, n)
		case n > maxMs && ok:
			t.Fatalf("parseDeadline(%q) = (%v, %v) past time.Duration, want no budget", v, d, ok)
		}
	})
}

func TestLatEstimatorEWMA(t *testing.T) {
	var e latEstimator
	if e.estimate() != 0 {
		t.Fatal("fresh estimator must estimate zero")
	}
	e.observe(10 * time.Millisecond)
	if got := e.estimate(); got != 10*time.Millisecond {
		t.Fatalf("first observation = %v, want taken verbatim", got)
	}
	for i := 0; i < 50; i++ {
		e.observe(2 * time.Millisecond)
	}
	got := e.estimate()
	if got > 3*time.Millisecond || got < time.Millisecond {
		t.Fatalf("estimate after convergence = %v, want ~2ms", got)
	}
	e.observe(-time.Second) // clock weirdness is dropped, not absorbed
	if e.estimate() != got {
		t.Fatal("negative observation moved the estimate")
	}
}

// TestDeadlineAdmission drives the real predict handler: no header is
// permissive, a generous budget passes, and a budget below the server's
// own service-time estimate is rejected 504 before any work happens.
func TestDeadlineAdmission(t *testing.T) {
	s := tinyServer(t, Options{})
	h := s.Handler()
	body := wireBody(t, false, trainCtx("q", 1))

	// No header: served exactly as before deadlines existed.
	if rec := post(t, h, "/v1/predict", body); rec.Code != http.StatusOK {
		t.Fatalf("no-header predict: %d", rec.Code)
	}
	// Roomy budget: served, and the service-time estimator warms up.
	req := httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader(body))
	req.Header.Set(DeadlineHeader, "5000")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("roomy budget: %d %s", rec.Code, rec.Body)
	}
	if s.est.estimate() <= 0 {
		t.Fatal("serving did not feed the latency estimator")
	}

	// A budget the estimate says cannot be met: fast-fail 504.
	s.est.observe(time.Second) // pretend service time is ~1s
	rejBefore := mDeadlineRejected.Load()
	req = httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader(body))
	req.Header.Set(DeadlineHeader, "3")
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("doomed budget: %d, want 504", rec.Code)
	}
	var er struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Error == "" {
		t.Fatalf("504 body not a typed error: %s", rec.Body)
	}
	if mDeadlineRejected.Load() == rejBefore {
		t.Fatal("rejection not counted in serve.deadline_rejected")
	}

	// Zero budget rejects even with no estimate at all.
	s2 := tinyServer(t, Options{})
	req = httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader(body))
	req.Header.Set(DeadlineHeader, "0")
	rec = httptest.NewRecorder()
	s2.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("zero budget: %d, want 504", rec.Code)
	}
}

// TestDeadlineAdmissionOnCandidates: the replica-side scatter endpoint
// applies the same budget admission as the public predict paths.
func TestDeadlineAdmissionOnCandidates(t *testing.T) {
	samples := ringTrainingSet(20)
	clf := knn.New(samples, distance.NewMemoizedTreeEdit(nil), knn.Config{K: 1, ThetaDelta: 0.3, Workers: 1})
	tr := startRing(t, 1, 1, 1, clf, ModelInfo{N: 6, Checksum: "cafe"}, RouterOptions{})
	rep := tr.replicas[0]
	rep.est.observe(time.Second)

	q := snapshot.EncodeContext(chainCtx("q", 1, 2), nil)
	blob, _ := json.Marshal(candidatesRequest{Shard: 0, Contexts: []*snapshot.WireContext{q}})
	req := httptest.NewRequest(http.MethodPost, "/v1/knn/candidates", strings.NewReader(string(blob)))
	req.Header.Set(DeadlineHeader, "3")
	rec := httptest.NewRecorder()
	rep.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("doomed candidates budget: %d, want 504", rec.Code)
	}
}

func TestStampDeadline(t *testing.T) {
	req := httptest.NewRequest(http.MethodPost, "/x", nil)
	stampDeadline(req, req.Context()) // no deadline on the context
	if req.Header.Get(DeadlineHeader) != "" {
		t.Fatal("stamped a header with no deadline to derive it from")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	stampDeadline(req, ctx)
	got := req.Header.Get(DeadlineHeader)
	if got == "" {
		t.Fatal("no header stamped")
	}
	ms, err := strconv.ParseInt(got, 10, 64)
	if err != nil || ms <= 0 || ms > 200 {
		t.Fatalf("stamped %q, want ~200ms remaining", got)
	}
}

// TestInjectedLatencyEndsWithCaller: a replica armed with serve.slow
// (every call, up to 30 s of injected latency) stops waiting when its
// caller gives up. A candidates call whose client abandons it after
// 50 ms returns long before the injected delay, and its in-flight slot
// is free again.
func TestInjectedLatencyEndsWithCaller(t *testing.T) {
	if prev, armed := faults.Active(); armed {
		t.Cleanup(func() { faults.Enable(prev) })
	} else {
		t.Cleanup(faults.Disable)
	}
	samples := ringTrainingSet(20)
	clf := knn.New(samples, distance.TreeEdit{}, knn.Config{K: 1, ThetaDelta: 0.3, Workers: 1})
	tr := startRing(t, 1, 1, 1, clf, ModelInfo{N: 6, Checksum: "cafe"}, RouterOptions{})
	faults.Enable(faults.Config{Prob: 1, Seed: 1, Kinds: faults.KindLatency,
		Sites: []string{faults.SiteServeSlow + "." + tr.nodes[0].Name}, MaxLatency: 30 * time.Second})
	abandonCandidates(t, tr)
}

// slowMetric is the tree-edit distance after a fixed sleep per pair.
type slowMetric struct{ d time.Duration }

func (slowMetric) Name() string { return "slow" }

func (m slowMetric) Distance(a, b *session.Context) float64 {
	time.Sleep(m.d)
	return distance.TreeEdit{}.Distance(a, b)
}

// TestCancelledScanEndsWithCaller: a replica whose sequential shard scan
// would take over 5 s (5,000 samples at 1 ms each) stops scanning when
// its caller gives up after 50 ms, frees its in-flight slot and counts
// the scan as abandoned.
func TestCancelledScanEndsWithCaller(t *testing.T) {
	samples := ringTrainingSet(5000)
	clf := knn.New(samples, slowMetric{time.Millisecond}, knn.Config{K: 1, ThetaDelta: 0.3, Workers: 1})
	tr := startRing(t, 1, 1, 1, clf, ModelInfo{N: 6, Checksum: "cafe"}, RouterOptions{})
	abandoned := obs.C("knn.scans_abandoned").Load()
	abandonCandidates(t, tr)
	if obs.C("knn.scans_abandoned").Load() == abandoned {
		t.Error("knn.scans_abandoned did not move")
	}
}

// abandonCandidates sends the one-node ring's replica a candidates call
// from a client that gives up after 50 ms, and asserts that the handler
// returns soon after with its in-flight slot free.
func abandonCandidates(t *testing.T, tr *testRing) {
	t.Helper()
	rep := tr.replicas[0]
	returned := make(chan struct{})
	tr.swaps[0].set(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rep.Handler().ServeHTTP(w, r)
		close(returned)
	}))

	body := `{"shard":0,"contexts":[` + mustJSON(t, snapshot.EncodeContext(chainCtx("q", 1, 2), nil)) + `]}`
	client := &http.Client{Timeout: 50 * time.Millisecond}
	t0 := time.Now()
	resp, err := client.Post(tr.ts[0].URL+"/v1/knn/candidates", "application/json", strings.NewReader(body))
	if err == nil {
		resp.Body.Close()
		t.Fatalf("the slow replica answered %s within the client's 50 ms", resp.Status)
	}
	select {
	case <-returned:
	case <-time.After(5 * time.Second):
		t.Fatal("the handler still runs 5 s after its caller gave up")
	}
	if waited := time.Since(t0); waited > 2*time.Second {
		t.Errorf("the handler returned %v after the call began, want soon after the client's 50 ms", waited)
	}
	if n := len(rep.lim); n != 0 {
		t.Errorf("%d in-flight slots held after the handler returned, want 0", n)
	}
}
