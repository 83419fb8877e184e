// Package client is the self-healing HTTP client for the prediction
// server (internal/serve): the piece that keeps a caller useful while
// the server restarts, reloads, or sheds load.
//
// Resilience is layered (DESIGN.md §9), with fixed settings. Each
// attempt gets a 5s timeout; transient failures — network errors,
// timeouts, 5xx, 429 — retry up to 3 tries in all, sleeping a jittered
// exponential backoff raised to the server's Retry-After hint. Above
// the retry loop sits a rolling-window circuit breaker: when at least 8
// of the last 16 outcomes failed the breaker opens and requests stop
// hitting the dying server; while open, predictions degrade to the
// model's prior label (the same zero-information answer as
// knn.FallbackPrior, learned from /v1/model or configured directly)
// instead of failing. After a 5s cooldown the breaker lets one probe
// through; success closes it, failure re-opens it.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/session"
	"repro/internal/snapshot"
)

// The client's retry and breaker settings.
const (
	// maxTries bounds the HTTP attempts of one logical request.
	maxTries = 3
	// baseBackoff bounds the sleep before the second try; the bound
	// doubles before each later one.
	baseBackoff = 100 * time.Millisecond
	// requestTimeout bounds each attempt, not the whole retry loop.
	requestTimeout = 5 * time.Second
	// The breaker opens when breakerThreshold of a full breakerWindow of
	// outcomes failed, and lets one probe through after breakerCooldown.
	breakerWindow    = 16
	breakerThreshold = 0.5
	breakerCooldown  = 5 * time.Second
)

var (
	mRequests    = obs.C("client.requests")
	mFailures    = obs.C("client.failures")
	mDegraded    = obs.C("client.degraded")
	mBreakerOpen = obs.C("client.breaker_open")
	// Retries count into the injector's retry counters, so the -v table
	// and /metrics show one retry total for the process.
	mRetries        = obs.C("faults.retries")
	mRetryExhausted = obs.C("faults.retry_exhausted")
)

// ErrBreakerOpen reports a request refused by an open circuit breaker
// with no prior label to degrade to.
var ErrBreakerOpen = errors.New("client: circuit breaker open")

// ErrBudgetExhausted reports a retry loop stopped early because the
// caller's remaining context budget could not cover another useful
// attempt (the next backoff sleep plus one full attempt timeout). Match
// with errors.Is; the underlying transient failure is wrapped.
var ErrBudgetExhausted = errors.New("client: deadline budget exhausted")

// budgetError carries ErrBudgetExhausted identity plus the transient
// cause that would otherwise have been retried.
type budgetError struct {
	need      time.Duration
	remaining time.Duration
	cause     error
}

func (e *budgetError) Error() string {
	return fmt.Sprintf("client: deadline budget exhausted: %s remaining, next attempt needs %s (last failure: %v)",
		e.remaining, e.need, e.cause)
}

func (e *budgetError) Unwrap() error { return e.cause }

func (e *budgetError) Is(target error) bool { return target == ErrBudgetExhausted }

// Options configures the client.
type Options struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080". The
	// client talks to this one endpoint; against a sharded tier it is the
	// router, which owns replica failover (DESIGN.md §11).
	BaseURL string
	// PriorLabel seeds the degraded answer served while the breaker is
	// open. When empty the client learns it from /v1/model's "prior".
	PriorLabel string
}

// Prediction is one answer. Degraded marks a prior-label answer the
// client synthesized while the breaker was open — the server never saw
// the request.
type Prediction struct {
	Measure  string `json:"measure"`
	OK       bool   `json:"ok"`
	Fallback bool   `json:"fallback,omitempty"`
	Degraded bool   `json:"degraded,omitempty"`
}

// Client is a resilient prediction-server client. Safe for concurrent
// use.
type Client struct {
	opts Options
	// tries, backoff and timeout are maxTries, baseBackoff and
	// requestTimeout; tests shrink them.
	tries   int
	backoff time.Duration
	timeout time.Duration
	// now is the clock and sleep the backoff wait, swappable in tests.
	now   func() time.Time
	sleep func(context.Context, time.Duration) bool
	br    breaker

	priorMu sync.Mutex
	prior   string
}

// New builds a client for the server at opts.BaseURL.
func New(opts Options) (*Client, error) {
	if opts.BaseURL == "" {
		return nil, errors.New("client: BaseURL required")
	}
	return &Client{
		opts:    opts,
		tries:   maxTries,
		backoff: baseBackoff,
		timeout: requestTimeout,
		now:     time.Now,
		sleep:   sleepCtx,
		prior:   opts.PriorLabel,
		br: breaker{
			window:    make([]bool, breakerWindow),
			threshold: breakerThreshold,
			cooldown:  breakerCooldown,
		},
	}, nil
}

// BreakerState reports the breaker position ("closed", "open" or
// "half-open") for logs and tests.
func (c *Client) BreakerState() string { return c.br.state(c.now()) }

// Model fetches /v1/model and remembers the model's prior label as the
// degraded answer (unless Options.PriorLabel pinned one).
func (c *Client) Model(ctx context.Context) (serve.ModelStatus, error) {
	var st serve.ModelStatus
	if err := c.do(ctx, http.MethodGet, "/v1/model", "model", nil, &st); err != nil {
		return serve.ModelStatus{}, err
	}
	if c.opts.PriorLabel == "" && st.Prior != "" {
		c.priorMu.Lock()
		c.prior = st.Prior
		c.priorMu.Unlock()
	}
	return st, nil
}

// Predict asks for the best measure for one wire context. While the
// breaker is open it returns the prior-label degradation (Degraded set)
// instead of an error, or ErrBreakerOpen when no prior is known.
func (c *Client) Predict(ctx context.Context, wc *snapshot.WireContext) (Prediction, error) {
	preds, err := c.predict(ctx, "/v1/predict", predictKey(wc, 1),
		map[string]any{"context": wc}, 1, false)
	if err != nil {
		return Prediction{}, err
	}
	return preds[0], nil
}

// PredictBatch is Predict over several contexts; the result is
// index-aligned with ctxs.
func (c *Client) PredictBatch(ctx context.Context, ctxs []*snapshot.WireContext) ([]Prediction, error) {
	if len(ctxs) == 0 {
		return nil, errors.New("client: empty batch")
	}
	return c.predict(ctx, "/v1/predict/batch", predictKey(ctxs[0], len(ctxs)),
		map[string]any{"contexts": ctxs}, len(ctxs), true)
}

func (c *Client) predict(ctx context.Context, path, key string, body any, n int, batch bool) ([]Prediction, error) {
	blob, err := json.Marshal(body)
	if err != nil {
		return nil, fmt.Errorf("client: encode request: %w", err)
	}
	var (
		single Prediction
		multi  struct {
			Predictions []Prediction `json:"predictions"`
		}
	)
	out := any(&single)
	if batch {
		out = &multi
	}
	err = c.do(ctx, http.MethodPost, path, key, blob, out)
	if err != nil {
		if preds, ok := c.degraded(err, n); ok {
			return preds, nil
		}
		return nil, err
	}
	if batch {
		if len(multi.Predictions) != n {
			return nil, fmt.Errorf("client: server answered %d predictions for %d contexts", len(multi.Predictions), n)
		}
		return multi.Predictions, nil
	}
	return []Prediction{single}, nil
}

// degraded synthesizes prior-label answers for a breaker-refused
// request; ok is false when the failure should surface instead (breaker
// closed, or no prior known).
func (c *Client) degraded(err error, n int) ([]Prediction, bool) {
	if !errors.Is(err, ErrBreakerOpen) {
		return nil, false
	}
	c.priorMu.Lock()
	prior := c.prior
	c.priorMu.Unlock()
	if prior == "" {
		return nil, false
	}
	mDegraded.Add(uint64(n))
	preds := make([]Prediction, n)
	for i := range preds {
		preds[i] = Prediction{Measure: prior, OK: true, Fallback: true, Degraded: true}
	}
	return preds, true
}

// do runs one logical request through the breaker and the retry loop,
// decoding a 200 response into out. Each attempt claims breaker
// admission and reports its outcome; 4xx answers say nothing about
// server health and count as successes. Only transient failures retry:
// before try i+1 (i from 0) the loop sleeps a draw from
// [0, backoff·2^i], raised to the server's Retry-After when that is
// longer, and a ctx canceled before a try or mid-sleep ends the loop
// with its error. ErrBreakerOpen is not retryable, so callers degrade to
// the prior label immediately instead of sleeping through a hopeless
// backoff.
func (c *Client) do(ctx context.Context, method, path, key string, body []byte, out any) (err error) {
	mRequests.Inc()
	defer func() {
		if err != nil {
			mFailures.Inc()
		}
	}()
	// One correlation ID per LOGICAL request: every retry of it carries
	// the same X-Request-ID, so the server's trace ring shows the
	// attempts as one story instead of unrelated requests.
	rid := obs.NewRequestID()
	var hint time.Duration // the last failure's Retry-After
	for try := 0; try < c.tries; try++ {
		if ctx != nil && ctx.Err() != nil {
			return ctx.Err()
		}
		if try > 0 {
			mRetries.Inc()
			if !c.sleep(ctx, max(rand.N(c.backoff<<(try-1)+1), hint)) {
				return ctx.Err()
			}
		}
		if !c.br.allow(c.now()) {
			return ErrBreakerOpen
		}
		// The fault-site key re-rolls per attempt so a chaos run injects
		// independently across retries.
		err = c.attempt(ctx, method, path, faults.Key(key, try), rid, body, out)
		if c.br.record(err == nil || permanent(err), c.now()) {
			mBreakerOpen.Inc()
		}
		if err == nil || !transient(err) {
			return err
		}
		hint = 0
		if he, ok := err.(*httpError); ok {
			hint = he.retryAfter
		}
		// This transient failure would now sleep and retry. When the
		// caller's remaining budget cannot cover the bound of that sleep
		// plus one full attempt, the retry is doomed to die mid-flight —
		// return the typed budget error so the caller gets a fast, honest
		// answer instead of a late ctx timeout.
		if try+1 < c.tries && ctx != nil {
			if dl, ok := ctx.Deadline(); ok {
				need := max(c.backoff<<try, hint) + c.timeout
				if remaining := time.Until(dl); remaining < need {
					return &budgetError{need: need, remaining: remaining, cause: err}
				}
			}
		}
	}
	mRetryExhausted.Inc()
	return err
}

// sleepCtx waits d or until ctx is canceled, whichever comes first,
// reporting whether the full sleep elapsed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return true
	}
	if ctx == nil {
		time.Sleep(d)
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// attempt is one HTTP round trip under the per-attempt timeout and the
// client.request fault site.
func (c *Client) attempt(ctx context.Context, method, path, key, rid string, body []byte, out any) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = recoveredErr(r)
		}
	}()
	if err := faults.Inject(ctx, faults.SiteClientRequest, key, faults.KindAll); err != nil {
		return err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	actx, cancel := context.WithTimeout(ctx, c.timeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(actx, method, c.opts.BaseURL+path, rd)
	if err != nil {
		return fmt.Errorf("client: build request: %w", err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	req.Header.Set("X-Request-ID", rid)
	// Stamp the attempt's budget (the tighter of the caller's deadline
	// and the attempt timeout — actx carries both) so the server can fast-fail
	// a request it cannot finish in time instead of timing out silently.
	if dl, ok := actx.Deadline(); ok {
		ms := time.Until(dl).Milliseconds()
		if ms < 0 {
			ms = 0
		}
		req.Header.Set(serve.DeadlineHeader, strconv.FormatInt(ms, 10))
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		// The caller's context ending is final; this attempt's timeout
		// is a transient slow-server signal.
		if ctx.Err() != nil {
			return ctx.Err()
		}
		return &transportError{err: err}
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(io.LimitReader(resp.Body, 32<<20))
	if err != nil {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		return &transportError{err: err}
	}
	if resp.StatusCode != http.StatusOK {
		return &httpError{
			code:       resp.StatusCode,
			body:       errBody(blob),
			requestID:  resp.Header.Get("X-Request-ID"),
			retryAfter: parseRetryAfter(resp.Header.Get("Retry-After"), c.now()),
		}
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(blob, out); err != nil {
		return fmt.Errorf("client: decode response: %w", err)
	}
	return nil
}

func recoveredErr(r any) error {
	if err, ok := r.(error); ok {
		return fmt.Errorf("client: recovered panic: %w", err)
	}
	return fmt.Errorf("client: recovered panic: %v", r)
}

// transient classifies an attempt failure for the retry loop: injected
// faults, transport errors, per-attempt timeouts and 5xx/429 retry;
// other HTTP errors, caller cancellation, and budget exhaustion do not.
// The budget check comes first: a budgetError wraps a transient cause,
// and unwrapping past it would turn the deliberate stop back into a
// retry.
func transient(err error) bool {
	var be *budgetError
	if errors.As(err, &be) {
		return false
	}
	if faults.IsInjected(err) {
		return true
	}
	var te *transportError
	if errors.As(err, &te) {
		return true
	}
	var he *httpError
	if errors.As(err, &he) {
		return he.code >= 500 || he.code == http.StatusTooManyRequests
	}
	return false
}

// permanent reports an error that says nothing about server health — a
// 4xx is the caller's bug, not an outage — so it must not trip the
// breaker.
func permanent(err error) bool {
	var he *httpError
	return errors.As(err, &he) && he.code < 500 && he.code != http.StatusTooManyRequests
}

// transportError is a network-level failure (connection refused, reset,
// attempt timeout): always retryable, always a breaker failure.
type transportError struct{ err error }

func (e *transportError) Error() string { return "client: " + e.err.Error() }
func (e *transportError) Unwrap() error { return e.err }

// httpError is a non-200 response. It carries the server's Retry-After
// hint, so the retry loop waits at least as long as the server asked
// before the next attempt, and the server's X-Request-ID so the error
// message names the trace to pull from GET /v1/admin/trace.
type httpError struct {
	code       int
	body       string
	requestID  string
	retryAfter time.Duration
}

func (e *httpError) Error() string {
	msg := fmt.Sprintf("client: server answered %d", e.code)
	if e.body != "" {
		msg += ": " + e.body
	}
	if e.requestID != "" {
		msg += " (request " + e.requestID + ")"
	}
	return msg
}

// StatusCode reports the HTTP status.
func (e *httpError) StatusCode() int { return e.code }

// RequestID reports the server-assigned X-Request-ID, when present.
func (e *httpError) RequestID() string { return e.requestID }

// parseRetryAfter reads both RFC 9110 forms of Retry-After: delay-seconds
// and HTTP-date. internal/serve only emits delay-seconds, but the client
// also talks through proxies and to foreign implementations that send
// dates; before HTTP-date support, those hints were silently dropped and
// the backoff fell back to its generic schedule. A date is converted to
// a delay relative to now; dates in the past (or clock-skewed) clamp to
// 0, which the retry loop treats as no hint. Malformed values, and
// delays too long for a time.Duration, also yield 0 — a garbled hint
// must never stall or crash the retry loop.
func parseRetryAfter(v string, now time.Time) time.Duration {
	if v == "" {
		return 0
	}
	if secs, err := strconv.ParseInt(v, 10, 64); err == nil {
		if secs < 0 || secs > math.MaxInt64/int64(time.Second) {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	t, err := http.ParseTime(v)
	if err != nil {
		return 0
	}
	if d := t.Sub(now); d > 0 {
		return d
	}
	return 0
}

// errBody extracts the server's {"error": ...} message when present.
func errBody(blob []byte) string {
	var er struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(blob, &er) == nil && er.Error != "" {
		return er.Error
	}
	return ""
}

// predictKey is the deterministic fault-site key for a prediction
// request: the first context's identity plus the batch size, the same
// shape the server's own probe uses, so chaos runs line up across both
// sides of the wire.
func predictKey(wc *snapshot.WireContext, n int) string {
	return session.Key(wc.SessionID, wc.T, wc.N) + "#" + strconv.Itoa(n)
}

// breaker is a rolling-window circuit breaker. Closed: outcomes feed a
// ring buffer; a full window at or above the failure threshold opens
// it. Open: requests are refused until cooldown elapses. Half-open: one
// probe goes through; success closes and clears the window, failure
// re-opens and restarts the cooldown.
type breaker struct {
	mu        sync.Mutex
	window    []bool // ring of outcomes, true = success
	idx       int
	count     int
	opened    time.Time
	openState int // 0 closed, 1 open, 2 half-open (probe in flight)
	threshold float64
	cooldown  time.Duration
}

func (b *breaker) state(now time.Time) string {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.openState {
	case 1:
		if now.Sub(b.opened) >= b.cooldown {
			return "half-open"
		}
		return "open"
	case 2:
		return "half-open"
	default:
		return "closed"
	}
}

func (b *breaker) allow(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.openState {
	case 0:
		return true
	case 1:
		if now.Sub(b.opened) < b.cooldown {
			return false
		}
		b.openState = 2 // claim the single half-open probe
		return true
	default: // half-open, a probe already in flight
		return false
	}
}

// record feeds one outcome back, reporting whether it opened (or
// re-opened) the breaker.
func (b *breaker) record(ok bool, now time.Time) (opened bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.openState == 2 {
		if ok {
			b.openState = 0
			b.count, b.idx = 0, 0
			return false
		}
		b.openState = 1
		b.opened = now
		return true
	}
	if b.openState == 1 {
		// A request that started before the breaker opened; its outcome
		// is stale.
		return false
	}
	b.window[b.idx] = ok
	b.idx = (b.idx + 1) % len(b.window)
	if b.count < len(b.window) {
		b.count++
	}
	if b.count < len(b.window) {
		return false
	}
	fails := 0
	for _, s := range b.window {
		if !s {
			fails++
		}
	}
	if float64(fails)/float64(len(b.window)) >= b.threshold {
		b.openState = 1
		b.opened = now
		b.count, b.idx = 0, 0
		return true
	}
	return false
}
