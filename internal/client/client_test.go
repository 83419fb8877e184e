package client

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/distance"
	"repro/internal/faults"
	"repro/internal/knn"
	"repro/internal/offline"
	"repro/internal/serve"
	"repro/internal/session"
	"repro/internal/snapshot"
)

func trainCtx(id string, t int) *session.Context {
	return &session.Context{SessionID: id, T: t, N: 2, Size: 1, Root: &session.CtxNode{Step: t}}
}

func wire(id string, t int) *snapshot.WireContext {
	return snapshot.EncodeContext(trainCtx(id, t), nil)
}

// realServer runs an actual serve.Server over a one-sample classifier
// answering "variance".
func realServer(t *testing.T) *httptest.Server {
	t.Helper()
	sample := &offline.Sample{Context: trainCtx("train", 1), Labels: []string{"variance"}}
	clf := knn.New([]*offline.Sample{sample}, distance.NewMemoizedTreeEdit(nil), knn.Config{
		K: 1, ThetaDelta: 0.25, Workers: 1,
	})
	s := serve.New(clf, serve.ModelInfo{Method: "normalized", N: 2, TrainingSize: 1, Prior: "variance"}, serve.Options{})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// fastRetry shrinks c's retry loop to tries attempts with a
// sub-millisecond backoff.
func fastRetry(c *Client, tries int) {
	c.tries, c.backoff = tries, time.Microsecond
}

// setBreaker resizes c's breaker: it opens when threshold of a full
// window of outcomes failed, and probes after cooldown.
func setBreaker(c *Client, window int, threshold float64, cooldown time.Duration) {
	c.br.window = make([]bool, window)
	c.br.threshold, c.br.cooldown = threshold, cooldown
}

func TestPredictRoundTrip(t *testing.T) {
	ts := realServer(t)
	c, err := New(Options{BaseURL: ts.URL})
	if err != nil {
		t.Fatal(err)
	}
	p, err := c.Predict(context.Background(), wire("q", 1))
	if err != nil {
		t.Fatal(err)
	}
	if !p.OK || p.Measure != "variance" || p.Degraded {
		t.Fatalf("predict = %+v, want covered variance", p)
	}

	batch, err := c.PredictBatch(context.Background(), []*snapshot.WireContext{wire("a", 1), wire("b", 2)})
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != 2 {
		t.Fatalf("batch returned %d predictions, want 2", len(batch))
	}
	for i, p := range batch {
		if !p.OK || p.Measure != "variance" {
			t.Fatalf("batch[%d] = %+v, want covered variance", i, p)
		}
	}

	st, err := c.Model(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Generation != 1 || st.Prior != "variance" {
		t.Fatalf("model status = %+v, want generation 1 prior variance", st)
	}
}

func TestRetriesTransient503(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprint(w, `{"error":"saturated"}`)
			return
		}
		fmt.Fprint(w, `{"measure":"variance","ok":true}`)
	}))
	defer ts.Close()

	c, err := New(Options{BaseURL: ts.URL})
	if err != nil {
		t.Fatal(err)
	}
	fastRetry(c, 3)
	p, err := c.Predict(context.Background(), wire("q", 1))
	if err != nil {
		t.Fatal(err)
	}
	if p.Measure != "variance" || calls.Load() != 2 {
		t.Fatalf("predict = %+v after %d calls, want variance after 2", p, calls.Load())
	}
	if st := c.BreakerState(); st != "closed" {
		t.Fatalf("breaker after recovered retry: %s, want closed", st)
	}
}

func TestPermanent4xxDoesNotRetryOrTrip(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusBadRequest)
		fmt.Fprint(w, `{"error":"bad context"}`)
	}))
	defer ts.Close()

	c, err := New(Options{BaseURL: ts.URL})
	if err != nil {
		t.Fatal(err)
	}
	fastRetry(c, 3)
	setBreaker(c, 2, 0.5, breakerCooldown)
	for i := 0; i < 4; i++ {
		if _, err := c.Predict(context.Background(), wire("q", 1)); err == nil {
			t.Fatal("400 response did not surface as an error")
		}
	}
	if calls.Load() != 4 {
		t.Fatalf("server saw %d calls for 4 predicts, want 4 (no retries on 4xx)", calls.Load())
	}
	if st := c.BreakerState(); st != "closed" {
		t.Fatalf("breaker after 4xx streak: %s, want closed (client bugs are not outages)", st)
	}
}

func TestBreakerOpensAndDegradesToPrior(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusInternalServerError)
	}))
	defer ts.Close()

	c, err := New(Options{BaseURL: ts.URL, PriorLabel: "variance"})
	if err != nil {
		t.Fatal(err)
	}
	fastRetry(c, 1)
	setBreaker(c, 4, 0.5, time.Hour)
	for i := 0; i < 4; i++ {
		if _, err := c.Predict(context.Background(), wire(fmt.Sprintf("q%d", i), 1)); err == nil {
			t.Fatal("500 streak did not surface errors")
		}
	}
	if st := c.BreakerState(); st != "open" {
		t.Fatalf("breaker after failure streak: %s, want open", st)
	}

	before := calls.Load()
	p, err := c.Predict(context.Background(), wire("degraded", 1))
	if err != nil {
		t.Fatalf("open-breaker predict failed instead of degrading: %v", err)
	}
	if !p.Degraded || !p.Fallback || !p.OK || p.Measure != "variance" {
		t.Fatalf("degraded prediction = %+v, want prior variance with Degraded set", p)
	}
	if calls.Load() != before {
		t.Fatal("degraded prediction still hit the dying server")
	}

	// Batch degrades the same way, index-aligned.
	batch, err := c.PredictBatch(context.Background(), []*snapshot.WireContext{wire("a", 1), wire("b", 2)})
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != 2 || !batch[0].Degraded || !batch[1].Degraded {
		t.Fatalf("degraded batch = %+v, want 2 degraded priors", batch)
	}
}

func TestBreakerOpenWithoutPriorSurfaces(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
	}))
	defer ts.Close()

	c, err := New(Options{BaseURL: ts.URL})
	if err != nil {
		t.Fatal(err)
	}
	fastRetry(c, 1)
	setBreaker(c, 2, 0.5, time.Hour)
	for i := 0; i < 2; i++ {
		c.Predict(context.Background(), wire("q", 1))
	}
	if _, err := c.Predict(context.Background(), wire("q", 1)); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("open breaker with no prior: err = %v, want ErrBreakerOpen", err)
	}
}

func TestBreakerHalfOpenRecovery(t *testing.T) {
	var healthy atomic.Bool
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !healthy.Load() {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		fmt.Fprint(w, `{"measure":"variance","ok":true}`)
	}))
	defer ts.Close()

	c, err := New(Options{BaseURL: ts.URL})
	if err != nil {
		t.Fatal(err)
	}
	fastRetry(c, 1)
	setBreaker(c, 2, 0.5, time.Minute)
	clock := time.Unix(1000, 0)
	c.now = func() time.Time { return clock }

	for i := 0; i < 2; i++ {
		c.Predict(context.Background(), wire("q", 1))
	}
	if st := c.BreakerState(); st != "open" {
		t.Fatalf("breaker = %s, want open", st)
	}

	// Still inside the cooldown: refused.
	if _, err := c.Predict(context.Background(), wire("q", 1)); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("mid-cooldown predict: %v, want ErrBreakerOpen", err)
	}

	// Server heals, cooldown elapses: the single half-open probe goes
	// through and closes the breaker.
	healthy.Store(true)
	clock = clock.Add(2 * time.Minute)
	p, err := c.Predict(context.Background(), wire("probe", 1))
	if err != nil || p.Measure != "variance" {
		t.Fatalf("half-open probe = %+v, %v; want variance", p, err)
	}
	if st := c.BreakerState(); st != "closed" {
		t.Fatalf("breaker after successful probe: %s, want closed", st)
	}
}

func TestBreakerHalfOpenFailureReopens(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
	}))
	defer ts.Close()

	c, err := New(Options{BaseURL: ts.URL})
	if err != nil {
		t.Fatal(err)
	}
	fastRetry(c, 1)
	setBreaker(c, 2, 0.5, time.Minute)
	clock := time.Unix(1000, 0)
	c.now = func() time.Time { return clock }
	for i := 0; i < 2; i++ {
		c.Predict(context.Background(), wire("q", 1))
	}
	clock = clock.Add(2 * time.Minute)
	if _, err := c.Predict(context.Background(), wire("probe", 1)); err == nil {
		t.Fatal("failed probe reported success")
	}
	if st := c.BreakerState(); st != "open" {
		t.Fatalf("breaker after failed probe: %s, want open (cooldown restarted)", st)
	}
}

func TestModelLearnsPrior(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/model" {
			json.NewEncoder(w).Encode(serve.ModelStatus{
				ModelInfo: serve.ModelInfo{Method: "normalized", Prior: "osf"}, Generation: 3,
			})
			return
		}
		w.WriteHeader(http.StatusInternalServerError)
	}))
	defer ts.Close()

	c, err := New(Options{BaseURL: ts.URL})
	if err != nil {
		t.Fatal(err)
	}
	fastRetry(c, 1)
	setBreaker(c, 2, 0.5, time.Hour)
	st, err := c.Model(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Generation != 3 {
		t.Fatalf("generation = %d, want 3", st.Generation)
	}
	for i := 0; i < 2; i++ {
		c.Predict(context.Background(), wire("q", 1))
	}
	p, err := c.Predict(context.Background(), wire("q", 1))
	if err != nil || p.Measure != "osf" || !p.Degraded {
		t.Fatalf("degraded predict = %+v, %v; want learned prior osf", p, err)
	}
}

// TestCancelMidBackoff: a caller canceling while the retry loop sleeps
// on the server's long Retry-After hint returns promptly with the
// context error — the client never holds a dead request hostage.
func TestCancelMidBackoff(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "10")
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer ts.Close()

	c, err := New(Options{BaseURL: ts.URL})
	if err != nil {
		t.Fatal(err)
	}
	fastRetry(c, 3)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	t0 := time.Now()
	_, err = c.Predict(ctx, wire("q", 1))
	if elapsed := time.Since(t0); elapsed > 2*time.Second {
		t.Fatalf("canceled predict took %v; the 10s Retry-After hint was not interruptible", elapsed)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// recordSleeps makes c's backoff waits return at once, appending each
// requested sleep to the returned slice.
func recordSleeps(c *Client) *[]time.Duration {
	var sleeps []time.Duration
	c.sleep = func(_ context.Context, d time.Duration) bool {
		sleeps = append(sleeps, d)
		return true
	}
	return &sleeps
}

// TestBackoffJitterStaysWithinBound: against a server that always
// answers 503 without a hint, each request makes maxTries attempts, and
// the sleep before try i+1 is a random draw from [0, baseBackoff·2^i].
func TestBackoffJitterStaysWithinBound(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer ts.Close()

	c, err := New(Options{BaseURL: ts.URL})
	if err != nil {
		t.Fatal(err)
	}
	sleeps := recordSleeps(c)
	const requests = 5 // 15 outcomes: the 16-slot breaker window stays open for business
	for i := 0; i < requests; i++ {
		if _, err := c.Predict(context.Background(), wire("q", i)); err == nil {
			t.Fatal("an always-503 server answered")
		}
	}
	if got := calls.Load(); got != requests*maxTries {
		t.Fatalf("server saw %d calls for %d requests, want %d tries each", got, requests, maxTries)
	}
	if len(*sleeps) != requests*(maxTries-1) {
		t.Fatalf("%d sleeps for %d requests, want %d each", len(*sleeps), requests, maxTries-1)
	}
	distinct := map[time.Duration]bool{}
	for i, d := range *sleeps {
		bound := baseBackoff << (i % (maxTries - 1))
		if d < 0 || d > bound {
			t.Fatalf("sleep %d = %v, outside [0, %v]", i, d, bound)
		}
		distinct[d] = true
	}
	if len(distinct) < 2 {
		t.Fatalf("every sleep was %v: no jitter", (*sleeps)[0])
	}
}

// TestRetryAfterFloorsBackoff: a server's Retry-After longer than the
// backoff bound is the sleep, exactly.
func TestRetryAfterFloorsBackoff(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer ts.Close()

	c, err := New(Options{BaseURL: ts.URL})
	if err != nil {
		t.Fatal(err)
	}
	sleeps := recordSleeps(c)
	if _, err := c.Predict(context.Background(), wire("q", 1)); err == nil {
		t.Fatal("an always-503 server answered")
	}
	if len(*sleeps) != maxTries-1 {
		t.Fatalf("%d sleeps, want %d", len(*sleeps), maxTries-1)
	}
	for i, d := range *sleeps {
		if d != time.Second {
			t.Fatalf("sleep %d = %v, want the server's 1s Retry-After", i, d)
		}
	}
}

// TestBudgetExhaustedStopsRetries: when the caller's remaining deadline
// cannot cover the next backoff sleep plus one full attempt, the retry
// loop stops immediately with ErrBudgetExhausted instead of launching a
// doomed attempt that dies mid-flight.
func TestBudgetExhaustedStopsRetries(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprint(w, `{"error":"saturated"}`)
	}))
	defer ts.Close()

	c, err := New(Options{BaseURL: ts.URL})
	if err != nil {
		t.Fatal(err)
	}
	c.backoff = time.Millisecond
	// Budget of 1s < 1ms sleep + the 5s attempt timeout: the first
	// transient failure must end the loop.
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	t0 := time.Now()
	_, err = c.Predict(ctx, wire("q", 1))
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("err = %v, want ErrBudgetExhausted", err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("server saw %d calls, want 1 (no doomed retries)", got)
	}
	if elapsed := time.Since(t0); elapsed > 500*time.Millisecond {
		t.Fatalf("budget-exhausted predict took %v; should fail fast", elapsed)
	}
	// The transient cause stays inspectable through the wrapper.
	var herr interface{ StatusCode() int }
	if !errors.As(err, &herr) || herr.StatusCode() != http.StatusServiceUnavailable {
		t.Fatalf("budget error does not wrap the 503 cause: %v", err)
	}
}

// TestBudgetAllowsRetryWhenRoomy: a generous deadline leaves the retry
// behavior untouched.
func TestBudgetAllowsRetryWhenRoomy(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		fmt.Fprint(w, `{"measure":"variance","ok":true}`)
	}))
	defer ts.Close()

	c, err := New(Options{BaseURL: ts.URL})
	if err != nil {
		t.Fatal(err)
	}
	fastRetry(c, 3)
	c.timeout = time.Second
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	p, err := c.Predict(ctx, wire("q", 1))
	if err != nil {
		t.Fatal(err)
	}
	if p.Measure != "variance" || calls.Load() != 2 {
		t.Fatalf("predict = %+v after %d calls, want variance after 2", p, calls.Load())
	}
}

// TestDeadlineHeaderStamped: every attempt carries X-Deadline-Ms derived
// from its per-attempt context so servers can budget admission.
func TestDeadlineHeaderStamped(t *testing.T) {
	var sawMs atomic.Int64
	sawMs.Store(-1)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if v := r.Header.Get(serve.DeadlineHeader); v != "" {
			var ms int64
			fmt.Sscanf(v, "%d", &ms)
			sawMs.Store(ms)
		}
		fmt.Fprint(w, `{"measure":"variance","ok":true}`)
	}))
	defer ts.Close()

	c, err := New(Options{BaseURL: ts.URL})
	if err != nil {
		t.Fatal(err)
	}
	c.timeout = 2 * time.Second
	if _, err := c.Predict(context.Background(), wire("q", 1)); err != nil {
		t.Fatal(err)
	}
	ms := sawMs.Load()
	// The per-attempt budget is the attempt timeout (2s) minus scheduling
	// slop; anything in (0, 2000] proves the stamp is real and bounded.
	if ms <= 0 || ms > 2000 {
		t.Fatalf("X-Deadline-Ms = %d, want in (0, 2000]", ms)
	}
}

func TestInjectedFaultSite(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		fmt.Fprint(w, `{"measure":"variance","ok":true}`)
	}))
	defer ts.Close()

	// Restore the injector this test found, so an environment-armed run
	// keeps its faults in later tests.
	if prev, armed := faults.Active(); armed {
		t.Cleanup(func() { faults.Enable(prev) })
	} else {
		t.Cleanup(faults.Disable)
	}
	faults.Enable(faults.Config{
		Prob: 1, Seed: 1, Kinds: faults.KindError,
		Sites: []string{faults.SiteClientRequest},
	})

	c, err := New(Options{BaseURL: ts.URL, PriorLabel: "variance"})
	if err != nil {
		t.Fatal(err)
	}
	fastRetry(c, 2)
	_, err = c.Predict(context.Background(), wire("q", 1))
	if err == nil || !faults.IsInjected(err) {
		t.Fatalf("p=1 client.request fault: err = %v, want injected", err)
	}
	if calls.Load() != 0 {
		t.Fatalf("server saw %d calls under a p=1 client fault, want 0", calls.Load())
	}

	// Disarmed, the same client recovers on the next request.
	faults.Disable()
	p, err := c.Predict(context.Background(), wire("q", 1))
	if err != nil || p.Measure != "variance" {
		t.Fatalf("post-chaos predict = %+v, %v; want variance", p, err)
	}
}

func TestConnectionRefusedRetriesAndFails(t *testing.T) {
	// A port nothing listens on: every attempt is a transport error.
	c, err := New(Options{BaseURL: "http://127.0.0.1:1"})
	if err != nil {
		t.Fatal(err)
	}
	fastRetry(c, 2)
	_, err = c.Predict(context.Background(), wire("q", 1))
	if err == nil {
		t.Fatal("predict against a dead port succeeded")
	}
	var te *transportError
	if !errors.As(err, &te) {
		t.Fatalf("err = %T %v, want transportError", err, err)
	}
}

func TestNewRequiresBaseURL(t *testing.T) {
	if _, err := New(Options{}); err == nil {
		t.Fatal("New without BaseURL succeeded")
	}
}

// TestRequestIDStableAcrossRetries: one logical request keeps one
// X-Request-ID across every retry attempt, so server-side traces join
// the attempts into one story.
func TestRequestIDStableAcrossRetries(t *testing.T) {
	var (
		calls atomic.Int64
		ids   sync.Map
	)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := calls.Add(1)
		ids.Store(n, r.Header.Get("X-Request-ID"))
		if n < 3 {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprint(w, `{"error":"saturated"}`)
			return
		}
		fmt.Fprint(w, `{"measure":"variance","ok":true}`)
	}))
	defer ts.Close()

	c, err := New(Options{BaseURL: ts.URL})
	if err != nil {
		t.Fatal(err)
	}
	fastRetry(c, 3)
	if _, err := c.Predict(context.Background(), wire("q", 1)); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 3 {
		t.Fatalf("want 3 attempts, got %d", calls.Load())
	}
	first, _ := ids.Load(int64(1))
	if first == "" {
		t.Fatal("attempts carried no X-Request-ID")
	}
	for n := int64(2); n <= 3; n++ {
		if got, _ := ids.Load(n); got != first {
			t.Fatalf("attempt %d sent id %v, attempt 1 sent %v — must be stable", n, got, first)
		}
	}

	// Two logical requests must NOT share an ID.
	calls.Store(2) // next attempt answers 200 immediately
	if _, err := c.Predict(context.Background(), wire("q", 2)); err != nil {
		t.Fatal(err)
	}
	second, _ := ids.Load(int64(3))
	if fresh, _ := ids.Load(int64(4)); fresh == second {
		t.Fatalf("two logical requests shared id %v", fresh)
	}
}

// TestErrorNamesServerRequestID: a terminal HTTP failure's error string
// carries the server-assigned request ID, the key to pull the matching
// trace from GET /v1/admin/trace.
func TestErrorNamesServerRequestID(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Request-ID", "srv-trace-42")
		w.WriteHeader(http.StatusBadRequest)
		fmt.Fprint(w, `{"error":"malformed"}`)
	}))
	defer ts.Close()

	c, err := New(Options{BaseURL: ts.URL})
	if err != nil {
		t.Fatal(err)
	}
	fastRetry(c, 2)
	_, err = c.Predict(context.Background(), wire("q", 1))
	if err == nil {
		t.Fatal("want error from a 400 server")
	}
	if !strings.Contains(err.Error(), "srv-trace-42") {
		t.Fatalf("error %q does not name the server request id", err)
	}
	var he *httpError
	if !errors.As(err, &he) || he.RequestID() != "srv-trace-42" {
		t.Fatalf("httpError.RequestID not carried: %v", err)
	}
}

func TestParseRetryAfterForms(t *testing.T) {
	// Fixed clock: HTTP-dates have whole-second granularity, so exact
	// expected durations need a now with no sub-second part.
	now := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	cases := []struct {
		name string
		v    string
		want time.Duration
	}{
		{"empty", "", 0},
		{"delay seconds", "7", 7 * time.Second},
		{"zero seconds", "0", 0},
		{"negative seconds clamp", "-3", 0},
		{"http date future", now.Add(90 * time.Second).Format(http.TimeFormat), 90 * time.Second},
		{"http date past clamps", now.Add(-time.Hour).Format(http.TimeFormat), 0},
		{"http date rfc850 form", now.Add(30 * time.Second).Format("Monday, 02-Jan-06 15:04:05 GMT"), 30 * time.Second},
		{"garbage", "soon", 0},
	}
	for _, tc := range cases {
		if got := parseRetryAfter(tc.v, now); got != tc.want {
			t.Errorf("%s: parseRetryAfter(%q) = %v, want %v", tc.name, tc.v, got, tc.want)
		}
	}
}

// FuzzParseRetryAfter: whatever a proxy or foreign server sends, the
// hint is never negative, an in-range delay-seconds n is exactly n
// seconds, and a delay too long for a time.Duration is no hint at all.
func FuzzParseRetryAfter(f *testing.F) {
	now := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	for _, seed := range []string{
		"", "7", "0", "-3", "soon", "+5", "9223372036", "9223372037", "18446744074",
		"99999999999999999999", now.Add(time.Minute).Format(http.TimeFormat),
	} {
		f.Add(seed)
	}
	const maxSecs = math.MaxInt64 / int64(time.Second)
	f.Fuzz(func(t *testing.T, v string) {
		got := parseRetryAfter(v, now)
		if got < 0 {
			t.Fatalf("parseRetryAfter(%q) = %v, a negative hint", v, got)
		}
		n, err := strconv.ParseInt(v, 10, 64)
		switch {
		case err != nil:
		case n >= 0 && n <= maxSecs && got != time.Duration(n)*time.Second:
			t.Fatalf("parseRetryAfter(%q) = %v, want %ds", v, got, n)
		case n > maxSecs && got != 0:
			t.Fatalf("parseRetryAfter(%q) = %v for a delay past time.Duration, want no hint", v, got)
		}
	})
}

func TestRetryAfterDateHintReachesBackoff(t *testing.T) {
	// End to end: a 503 carrying the HTTP-date form must surface as
	// httpError's Retry-After hint just like delay-seconds does.
	var when atomic.Value // string; the header the stub sends
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", when.Load().(string))
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprint(w, `{"error":"draining"}`)
	}))
	defer srv.Close()
	c, err := New(Options{BaseURL: srv.URL})
	if err != nil {
		t.Fatal(err)
	}
	c.tries = 1
	for _, form := range []string{
		"5",
		time.Now().UTC().Add(5 * time.Second).Format(http.TimeFormat),
	} {
		when.Store(form)
		_, err := c.Predict(context.Background(), wire("q", 1))
		var he *httpError
		if !errors.As(err, &he) {
			t.Fatalf("Retry-After %q: want httpError, got %v", form, err)
		}
		if d := he.retryAfter; d <= 0 || d > 5*time.Second {
			t.Fatalf("Retry-After %q: hint %v, want a positive duration <= 5s", form, d)
		}
	}
}

// TestBreakerHalfOpenSingleProbe: when the cooldown elapses, exactly ONE
// request may claim the half-open probe slot. Concurrent requests racing
// it must fail fast with ErrBreakerOpen — not queue behind the probe, and
// not stampede the recovering server.
func TestBreakerHalfOpenSingleProbe(t *testing.T) {
	var (
		healthy atomic.Bool
		served  atomic.Int64
		entered = make(chan struct{}, 1)
		release = make(chan struct{})
	)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !healthy.Load() {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		served.Add(1)
		select {
		case entered <- struct{}{}:
		default:
		}
		<-release // hold the probe in flight while the losers race
		fmt.Fprint(w, `{"measure":"variance","ok":true}`)
	}))
	defer ts.Close()

	c, err := New(Options{BaseURL: ts.URL})
	if err != nil {
		t.Fatal(err)
	}
	fastRetry(c, 1)
	setBreaker(c, 2, 0.5, time.Minute)
	var mu sync.Mutex
	clock := time.Unix(1000, 0)
	c.now = func() time.Time { mu.Lock(); defer mu.Unlock(); return clock }

	// Trip the breaker, heal the server, let the cooldown pass.
	for i := 0; i < 2; i++ {
		c.Predict(context.Background(), wire("q", 1))
	}
	if st := c.BreakerState(); st != "open" {
		t.Fatalf("breaker = %s, want open", st)
	}
	healthy.Store(true)
	mu.Lock()
	clock = clock.Add(2 * time.Minute)
	mu.Unlock()

	// The probe claims the half-open slot and parks inside the server.
	probeErr := make(chan error, 1)
	go func() {
		_, err := c.Predict(context.Background(), wire("probe", 1))
		probeErr <- err
	}()
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("probe never reached the server")
	}

	// Racers while the probe is in flight: all must lose fast.
	const racers = 8
	var wg sync.WaitGroup
	losses := make(chan error, racers)
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := c.Predict(context.Background(), wire(fmt.Sprintf("r%d", i), 1))
			losses <- err
		}(i)
	}
	wg.Wait()
	close(losses)
	for err := range losses {
		if !errors.Is(err, ErrBreakerOpen) {
			t.Errorf("racer error = %v, want ErrBreakerOpen", err)
		}
	}
	if n := served.Load(); n != 1 {
		t.Fatalf("server saw %d requests during half-open, want exactly the 1 probe", n)
	}

	// Releasing the probe closes the breaker; traffic flows again.
	close(release)
	if err := <-probeErr; err != nil {
		t.Fatalf("probe failed: %v", err)
	}
	if st := c.BreakerState(); st != "closed" {
		t.Fatalf("breaker after probe success = %s, want closed", st)
	}
	if _, err := c.Predict(context.Background(), wire("after", 1)); err != nil {
		t.Fatalf("post-recovery predict: %v", err)
	}
}
