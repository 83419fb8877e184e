// Package loadtest is the SLO harness for the prediction server: it
// drives a target (a live HTTP server, or an http.Handler in-process) at
// a configured request rate and concurrency for a fixed duration, and
// reports the latency distribution, the error/shed/degraded split, and
// whether the run met its service-level objectives.
//
// The generator is OPEN-LOOP: request arrival times are fixed on a
// schedule (i/QPS after start) before the run begins, and each request's
// latency is measured from its SCHEDULED start, not from when a worker
// got around to sending it. A closed-loop generator (send, wait, send)
// silently slows its offered load to whatever the server can absorb,
// hiding exactly the latencies a saturated server inflicts — the
// coordinated-omission trap. Here a server that stalls for a second eats
// that second in every queued request's recorded latency, which is what
// a real client arriving on schedule would have seen.
//
// Latencies accumulate in an HDR-style histogram (power-of-two exponent
// buckets × 64 linear sub-buckets), giving quantile estimates with
// bounded relative error (≤1/32) over nanoseconds to minutes without
// storing samples. Workers record into private histograms and tallies,
// merged once at the end — the hot loop takes no locks.
package loadtest

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/parallel"
)

// SLO is the pass/fail contract of a run. Zero/negative fields disable
// the corresponding assertion.
type SLO struct {
	// MaxP99 bounds the p99 latency (measured from scheduled start).
	MaxP99 time.Duration `json:"max_p99_ns,omitempty"`
	// MaxErrorRate bounds errors/requests (transport failures, non-200
	// non-503 statuses, and arrivals dropped because the run overran).
	// Negative disables; 0 demands perfection.
	MaxErrorRate float64 `json:"max_error_rate"`
	// MaxShedRate bounds 503-shed/requests. Negative disables.
	MaxShedRate float64 `json:"max_shed_rate"`
	// MaxTimeoutRate bounds timeouts/requests (504 deadline rejections
	// plus transport-level timeouts). Negative disables; 0 demands
	// perfection.
	MaxTimeoutRate float64 `json:"max_timeout_rate"`
	// MinQPS asserts a floor on achieved (completed) throughput.
	MinQPS float64 `json:"min_qps,omitempty"`
}

// Options configures one run.
type Options struct {
	// BaseURL targets a live server ("http://127.0.0.1:8080").
	BaseURL string
	// BaseURLs lists additional targets. Scheduled arrivals round-robin
	// across BaseURL + BaseURLs by arrival index, so a ring of replicas
	// (or several routers) shares the offered load evenly — the
	// multi-node analogue of one server's SLO run.
	BaseURLs []string
	// Handler, when set, targets an in-process handler instead of
	// BaseURL — no sockets, useful for CI smoke and tests.
	Handler http.Handler
	// Path is the endpoint driven. Default "/v1/predict".
	Path string
	// Bodies are the request payloads, round-robined across requests.
	// Required.
	Bodies [][]byte
	// QPS is the offered arrival rate. Default 100.
	QPS float64
	// Concurrency bounds in-flight requests; <1 sizes it like a worker
	// pool (one per CPU).
	Concurrency int
	// Duration is the scheduled arrival window. Default 5s. An
	// overloaded run may finish later (queued arrivals complete), but
	// never schedules past this window.
	Duration time.Duration
	// RequestTimeout bounds one request. Default 5s.
	RequestTimeout time.Duration
	// Deadline, when positive, stamps each request with an X-Deadline-Ms
	// budget so deadline-aware servers can fast-fail work they cannot
	// finish in time. Those 504s land in the timeout outcome class, not
	// errors.
	Deadline time.Duration
	// SLO is the pass/fail contract checked into Result.Violations.
	SLO SLO
}

// deadlineHeader mirrors serve.DeadlineHeader without pulling the whole
// serving stack into the load generator.
const deadlineHeader = "X-Deadline-Ms"

func (o Options) withDefaults() Options {
	if o.Path == "" {
		o.Path = "/v1/predict"
	}
	if o.QPS <= 0 {
		o.QPS = 100
	}
	o.Concurrency = parallel.Workers(o.Concurrency)
	if o.Duration <= 0 {
		o.Duration = 5 * time.Second
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 5 * time.Second
	}
	return o
}

// LatencySummary is the recorded distribution, in nanoseconds measured
// from each request's scheduled start.
type LatencySummary struct {
	Count  uint64 `json:"count"`
	MeanNS uint64 `json:"mean_ns"`
	MaxNS  uint64 `json:"max_ns"`
	P50NS  uint64 `json:"p50_ns"`
	P90NS  uint64 `json:"p90_ns"`
	P99NS  uint64 `json:"p99_ns"`
	P999NS uint64 `json:"p999_ns"`
}

// Result is the artifact of one run (what LOAD_<date>.json holds).
type Result struct {
	// Date is the run date (UTC), the artifact's natural key.
	Date string `json:"date"`
	// Build identifies the binary that generated the load.
	Build buildinfo.Info `json:"build"`
	// Mode is "http" (live server) or "in-process".
	Mode string `json:"mode"`
	// Targets lists the base URLs the load round-robined across (absent
	// for in-process runs).
	Targets []string `json:"targets,omitempty"`
	// Target echoes the offered load.
	Path        string  `json:"path"`
	TargetQPS   float64 `json:"target_qps"`
	Concurrency int     `json:"concurrency"`
	DurationSec float64 `json:"duration_sec"`
	// ElapsedSec is wall time actually spent (an overloaded open-loop
	// run finishes after the arrival window closes).
	ElapsedSec float64 `json:"elapsed_sec"`

	// Requests counts scheduled arrivals (attempted + dropped).
	Requests uint64 `json:"requests"`
	// OK counts 200s answered by the θ_δ-gated vote.
	OK uint64 `json:"ok"`
	// Abstain counts 200s where the model abstained.
	Abstain uint64 `json:"abstain"`
	// Degraded counts 200s answered by the fallback policy.
	Degraded uint64 `json:"degraded"`
	// Shed counts 503s (load-shed or fault-degraded).
	Shed uint64 `json:"shed"`
	// Timeouts counts deadline-exceeded outcomes: 504s from
	// deadline-aware servers and transport-level timeouts. They are
	// their own class — a budget the server honestly declined is not a
	// server error.
	Timeouts uint64 `json:"timeouts"`
	// Errors counts transport failures and unexpected statuses.
	Errors uint64 `json:"errors"`
	// Dropped counts scheduled arrivals never sent because the run
	// overran its grace window; they also count into Errors.
	Dropped uint64 `json:"dropped,omitempty"`
	// StatusCounts maps HTTP status -> responses (transport failures
	// under 0).
	StatusCounts map[int]uint64 `json:"status_counts"`

	AchievedQPS  float64 `json:"achieved_qps"`
	ErrorRate    float64 `json:"error_rate"`
	ShedRate     float64 `json:"shed_rate"`
	TimeoutRate  float64 `json:"timeout_rate"`
	DegradedRate float64 `json:"degraded_rate"`

	Latency LatencySummary `json:"latency"`

	// SLO echoes the contract; Violations lists every assertion the run
	// failed (empty means the run passed).
	SLO        SLO      `json:"slo"`
	Violations []string `json:"violations"`
}

// Run executes one load test. The returned error covers configuration
// and cancellation problems only — SLO failures are reported in
// Result.Violations so the caller can both persist the artifact and
// fail the build.
func Run(ctx context.Context, opts Options) (*Result, error) {
	o := opts.withDefaults()
	if len(o.Bodies) == 0 {
		return nil, errors.New("loadtest: no request bodies")
	}
	bases := o.BaseURLs
	if o.BaseURL != "" {
		bases = append([]string{o.BaseURL}, o.BaseURLs...)
	}
	if o.Handler == nil && len(bases) == 0 {
		return nil, errors.New("loadtest: need BaseURL or Handler")
	}
	if ctx == nil {
		ctx = context.Background()
	}

	mode := "http"
	targets := bases
	var transport http.RoundTripper
	if o.Handler != nil {
		mode = "in-process"
		bases = []string{"http://in-process"}
		targets = nil
		transport = handlerTransport{h: o.Handler}
	} else {
		// Keep a connection for every request that can be in flight to
		// one target. With http.DefaultTransport's two per host, a run
		// with more in flight dials per request and times the dial as
		// the server's latency.
		t := http.DefaultTransport.(*http.Transport).Clone()
		t.MaxIdleConnsPerHost = o.Concurrency
		t.MaxIdleConns = o.Concurrency * len(bases)
		defer t.CloseIdleConnections()
		transport = t
	}
	hc := &http.Client{Transport: transport, Timeout: o.RequestTimeout}

	// Overloaded runs may queue arrivals past the window's end; the
	// grace bounds total wall time, after which remaining scheduled
	// arrivals are dropped (and counted as errors).
	grace := o.Duration/2 + 5*time.Second

	var (
		seq     atomic.Uint64
		wg      sync.WaitGroup
		workers = make([]*workerState, o.Concurrency)
		start   = time.Now()
		end     = start.Add(o.Duration)
	)
	for w := 0; w < o.Concurrency; w++ {
		ws := newWorkerState()
		workers[w] = ws
		wg.Add(1)
		go func() {
			defer wg.Done()
			runWorker(ctx, ws, &seq, o, hc, bases, start, end, grace)
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("loadtest: %w", err)
	}

	res := &Result{
		Date:         start.UTC().Format("2006-01-02"),
		Build:        buildinfo.Get(),
		Mode:         mode,
		Targets:      targets,
		Path:         o.Path,
		TargetQPS:    o.QPS,
		Concurrency:  o.Concurrency,
		DurationSec:  o.Duration.Seconds(),
		ElapsedSec:   elapsed.Seconds(),
		StatusCounts: map[int]uint64{},
		SLO:          o.SLO,
		Violations:   []string{},
	}
	hist := newHDR()
	for _, ws := range workers {
		res.OK += ws.ok
		res.Abstain += ws.abstain
		res.Degraded += ws.degraded
		res.Shed += ws.shed
		res.Timeouts += ws.timeouts
		res.Errors += ws.errors
		res.Dropped += ws.dropped
		for code, n := range ws.statuses {
			res.StatusCounts[code] += n
		}
		hist.merge(ws.hist)
	}
	res.Errors += res.Dropped
	res.Requests = res.OK + res.Abstain + res.Degraded + res.Shed + res.Timeouts + res.Errors
	if res.Requests > 0 {
		res.ErrorRate = float64(res.Errors) / float64(res.Requests)
		res.ShedRate = float64(res.Shed) / float64(res.Requests)
		res.TimeoutRate = float64(res.Timeouts) / float64(res.Requests)
		res.DegradedRate = float64(res.Degraded) / float64(res.Requests)
	}
	if elapsed > 0 {
		res.AchievedQPS = float64(res.Requests-res.Dropped) / elapsed.Seconds()
	}
	res.Latency = hist.summary()
	res.Violations = res.checkSLO(o.SLO)
	return res, nil
}

// checkSLO evaluates every armed assertion against the run.
func (r *Result) checkSLO(slo SLO) []string {
	v := []string{}
	if slo.MaxP99 > 0 && r.Latency.P99NS > uint64(slo.MaxP99) {
		v = append(v, fmt.Sprintf("p99 %v exceeds SLO %v",
			time.Duration(r.Latency.P99NS), slo.MaxP99))
	}
	if slo.MaxErrorRate >= 0 && r.ErrorRate > slo.MaxErrorRate {
		v = append(v, fmt.Sprintf("error rate %.4f exceeds SLO %.4f (%d/%d)",
			r.ErrorRate, slo.MaxErrorRate, r.Errors, r.Requests))
	}
	if slo.MaxShedRate >= 0 && r.ShedRate > slo.MaxShedRate {
		v = append(v, fmt.Sprintf("shed rate %.4f exceeds SLO %.4f (%d/%d)",
			r.ShedRate, slo.MaxShedRate, r.Shed, r.Requests))
	}
	if slo.MaxTimeoutRate >= 0 && r.TimeoutRate > slo.MaxTimeoutRate {
		v = append(v, fmt.Sprintf("timeout rate %.4f exceeds SLO %.4f (%d/%d)",
			r.TimeoutRate, slo.MaxTimeoutRate, r.Timeouts, r.Requests))
	}
	if slo.MinQPS > 0 && r.AchievedQPS < slo.MinQPS {
		v = append(v, fmt.Sprintf("achieved %.1f qps below SLO floor %.1f", r.AchievedQPS, slo.MinQPS))
	}
	return v
}

// workerState is one worker's private tallies; no other goroutine
// touches it until the post-run merge.
type workerState struct {
	ok, abstain, degraded, shed, timeouts, errors, dropped uint64
	statuses                                               map[int]uint64
	hist                                                   *hdrHist
}

func newWorkerState() *workerState {
	return &workerState{statuses: map[int]uint64{}, hist: newHDR()}
}

// runWorker claims scheduled arrival slots (the shared atomic sequence)
// and executes them: sleep until the arrival time, send, record latency
// from the SCHEDULED time. A worker running behind schedule skips the
// sleep, so queueing delay lands in the recorded latency.
func runWorker(ctx context.Context, ws *workerState, seq *atomic.Uint64,
	o Options, hc *http.Client, bases []string, start, end time.Time, grace time.Duration) {
	interval := float64(time.Second) / o.QPS
	for {
		i := seq.Add(1) - 1
		off := time.Duration(float64(i) * interval)
		if start.Add(off).After(end) || start.Add(off).Equal(end) {
			return
		}
		sched := start.Add(off)
		now := time.Now()
		if d := sched.Sub(now); d > 0 {
			t := time.NewTimer(d)
			select {
			case <-ctx.Done():
				t.Stop()
				return
			case <-t.C:
			}
		} else if now.After(end.Add(grace)) {
			ws.dropped++
			continue
		}
		if ctx.Err() != nil {
			return
		}
		status, degraded, abstain, timedOut := doRequest(ctx, hc,
			bases[i%uint64(len(bases))]+o.Path, o.Bodies[i%uint64(len(o.Bodies))], o.Deadline)
		ws.hist.record(uint64(time.Since(sched)))
		ws.statuses[status]++
		switch {
		case status == http.StatusOK && degraded:
			ws.degraded++
		case status == http.StatusOK && abstain:
			ws.abstain++
		case status == http.StatusOK:
			ws.ok++
		case status == http.StatusGatewayTimeout || timedOut:
			ws.timeouts++
		case status == http.StatusServiceUnavailable:
			ws.shed++
		default:
			ws.errors++
		}
	}
}

// doRequest sends one request and classifies the answer. status 0 means
// a transport-level failure; timedOut marks transport failures that were
// timeouts (per-request budget ran out in flight).
func doRequest(ctx context.Context, hc *http.Client, url string, body []byte, deadline time.Duration) (status int, degraded, abstain, timedOut bool) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, false, false, false
	}
	req.Header.Set("Content-Type", "application/json")
	if deadline > 0 {
		req.Header.Set(deadlineHeader, fmt.Sprintf("%d", deadline.Milliseconds()))
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, false, false, isTimeout(err)
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return 0, false, false, isTimeout(err)
	}
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, false, false, false
	}
	var pr struct {
		OK       bool `json:"ok"`
		Fallback bool `json:"fallback"`
	}
	if err := json.Unmarshal(blob, &pr); err != nil {
		return 0, false, false, false
	}
	return http.StatusOK, pr.Fallback, !pr.OK && !pr.Fallback, false
}

// isTimeout reports whether a transport failure was a timeout: the
// http.Client per-request timeout, a context deadline, or a net-level
// timeout condition.
func isTimeout(err error) bool {
	if errors.Is(err, context.DeadlineExceeded) {
		return true
	}
	var nerr net.Error
	return errors.As(err, &nerr) && nerr.Timeout()
}

// handlerTransport drives an http.Handler without a socket: each
// RoundTrip synthesizes a response writer, so the in-process mode
// exercises the full middleware + handler stack.
type handlerTransport struct{ h http.Handler }

func (t handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := &memResponse{header: make(http.Header)}
	t.h.ServeHTTP(rec, req)
	if rec.code == 0 {
		rec.code = http.StatusOK
	}
	return &http.Response{
		StatusCode:    rec.code,
		Status:        fmt.Sprintf("%d %s", rec.code, http.StatusText(rec.code)),
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        rec.header,
		Body:          io.NopCloser(bytes.NewReader(rec.buf.Bytes())),
		ContentLength: int64(rec.buf.Len()),
		Request:       req,
	}, nil
}

// memResponse is a minimal in-memory http.ResponseWriter.
type memResponse struct {
	header http.Header
	code   int
	buf    bytes.Buffer
}

func (m *memResponse) Header() http.Header { return m.header }
func (m *memResponse) WriteHeader(c int) {
	if m.code == 0 {
		m.code = c
	}
}
func (m *memResponse) Write(p []byte) (int, error) {
	if m.code == 0 {
		m.code = http.StatusOK
	}
	return m.buf.Write(p)
}

// HDR-style histogram: 64 linear sub-buckets per power-of-two exponent
// bucket. Values < 64 land exactly; larger values keep their top 6
// mantissa bits, so the bucket upper bound over-estimates by at most
// 1/32 of the true value.
const (
	hdrSubBits = 6
	hdrSub     = 1 << hdrSubBits // 64
	hdrExps    = 64 - hdrSubBits + 1
)

type hdrHist struct {
	counts [hdrExps][hdrSub]uint64
	count  uint64
	sum    uint64
	max    uint64
}

func newHDR() *hdrHist { return &hdrHist{} }

// index maps a value to (exponent, sub-bucket). Exponent 0 holds values
// < hdrSub exactly; exponent e>=1 holds values with bit length
// hdrSubBits+e, sub-bucketed by their top hdrSubBits bits.
func hdrIndex(v uint64) (int, int) {
	if v < hdrSub {
		return 0, int(v)
	}
	e := bits.Len64(v) - hdrSubBits
	return e, int(v >> uint(e))
}

// hdrUpper is the inclusive upper bound of bucket (e, sub).
func hdrUpper(e, sub int) uint64 {
	if e == 0 {
		return uint64(sub)
	}
	return (uint64(sub+1) << uint(e)) - 1
}

func (h *hdrHist) record(v uint64) {
	e, sub := hdrIndex(v)
	h.counts[e][sub]++
	h.count++
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

func (h *hdrHist) merge(o *hdrHist) {
	for e := range o.counts {
		for s, n := range o.counts[e] {
			h.counts[e][s] += n
		}
	}
	h.count += o.count
	h.sum += o.sum
	if o.max > h.max {
		h.max = o.max
	}
}

// quantile returns the smallest bucket upper bound covering q of the
// recorded values.
func (h *hdrHist) quantile(q float64) uint64 {
	if h.count == 0 {
		return 0
	}
	target := uint64(math.Ceil(q * float64(h.count)))
	if target < 1 {
		target = 1
	}
	var cum uint64
	for e := 0; e < hdrExps; e++ {
		for s := 0; s < hdrSub; s++ {
			cum += h.counts[e][s]
			if cum >= target {
				u := hdrUpper(e, s)
				if u > h.max {
					u = h.max
				}
				return u
			}
		}
	}
	return h.max
}

func (h *hdrHist) summary() LatencySummary {
	s := LatencySummary{
		Count:  h.count,
		MaxNS:  h.max,
		P50NS:  h.quantile(0.50),
		P90NS:  h.quantile(0.90),
		P99NS:  h.quantile(0.99),
		P999NS: h.quantile(0.999),
	}
	if h.count > 0 {
		s.MeanNS = h.sum / h.count
	}
	return s
}
