package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Request-scoped tracing: where the rest of this package aggregates
// process-wide totals, a Trace records what happened to ONE request —
// which pipeline stages it passed through and for how long, which
// degradation-ladder rungs it hit, which fault sites fired, and how much
// work (distance evaluations, voting candidates) the scan did. The
// serving layer creates a Trace per HTTP request, threads it through
// context.Context (WithTrace/TraceFrom), and pushes the completed trace
// into a lock-free ring buffer exposed at GET /v1/admin/trace — the
// session-level provenance the source paper mines from analysts' logs,
// applied to our own serving logs.
//
// Cost model: tracing is pay-per-request, never pay-per-probe. A nil
// trace (the non-HTTP pipelines, benchmarks, batch CLI runs) costs one
// nil check at each annotation site; ctx lookup happens once per request
// boundary, not in inner loops. Within a request the Trace is guarded by
// a mutex because batch predictions fan out across the worker pool; the
// handful of annotations per request make lock contention irrelevant.

// TraceStage is one timed phase of a request ("serve.decode",
// "knn.predict", "serve.encode").
type TraceStage struct {
	Name string `json:"name"`
	NS   uint64 `json:"ns"`
}

// Trace accumulates the observable history of one request. Create with
// NewTrace, annotate during handling (all methods are nil-safe and
// goroutine-safe), Finish exactly once, then Push into a TraceRing.
type Trace struct {
	id    string
	op    string
	start time.Time

	mu         sync.Mutex
	stages     []TraceStage
	rungs      map[string]int
	faultSites []string
	hops       []string
	candidates int
	distEvals  uint64
	status     int
	elapsed    time.Duration
	done       bool
}

// NewTrace starts a trace for one request. id is the request's
// correlation ID (X-Request-ID); op names the operation ("POST
// /v1/predict").
func NewTrace(id, op string) *Trace {
	return &Trace{id: id, op: op, start: time.Now()}
}

// ID returns the request's correlation ID.
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// AddStage records one completed stage timing.
func (t *Trace) AddStage(name string, d time.Duration) {
	if t == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	t.mu.Lock()
	t.stages = append(t.stages, TraceStage{Name: name, NS: uint64(d)})
	t.mu.Unlock()
}

// Rung counts one hit of a degradation-ladder rung ("knn.fallback",
// "serve.shed", …).
func (t *Trace) Rung(name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.rungs == nil {
		t.rungs = make(map[string]int, 2)
	}
	t.rungs[name]++
	t.mu.Unlock()
}

// FaultSite records that a deterministic fault-injection site fired
// during this request.
func (t *Trace) FaultSite(site string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.faultSites = append(t.faultSites, site)
	t.mu.Unlock()
}

// Hop records one router→replica hop of a fanned-out request, e.g.
// "shard0→node-b ok" — the path a prediction took through the ring, in
// completion order. Single-process serving never records hops.
func (t *Trace) Hop(hop string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.hops = append(t.hops, hop)
	t.mu.Unlock()
}

// AddCandidates counts voting candidates (kNN neighbors) consulted.
func (t *Trace) AddCandidates(n int) {
	if t == nil || n <= 0 {
		return
	}
	t.mu.Lock()
	t.candidates += n
	t.mu.Unlock()
}

// AddDistanceEvals counts distance evaluations the scan performed.
func (t *Trace) AddDistanceEvals(n uint64) {
	if t == nil || n == 0 {
		return
	}
	t.mu.Lock()
	t.distEvals += n
	t.mu.Unlock()
}

// Finish seals the trace with the response status and total elapsed
// time. Further annotations are ignored by Record; Finish is idempotent
// (the first call wins).
func (t *Trace) Finish(status int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if !t.done {
		t.status = status
		t.elapsed = time.Since(t.start)
		t.done = true
	}
	t.mu.Unlock()
}

// TraceRecord is the JSON-serializable copy of a completed trace — what
// GET /v1/admin/trace returns.
type TraceRecord struct {
	ID string `json:"id"`
	Op string `json:"op"`
	// Start is the request arrival time.
	Start time.Time `json:"start"`
	// Status is the HTTP status the request was answered with.
	Status int `json:"status"`
	// TotalNS is the end-to-end handling time.
	TotalNS uint64 `json:"total_ns"`
	// Stages are the per-stage timings, in completion order.
	Stages []TraceStage `json:"stages,omitempty"`
	// Rungs maps degradation-ladder rung name -> hit count.
	Rungs map[string]int `json:"rungs,omitempty"`
	// FaultSites lists injection sites that fired, in firing order.
	FaultSites []string `json:"fault_sites,omitempty"`
	// Hops lists router→replica hops of a fanned-out request, in
	// completion order (empty for single-process serving).
	Hops []string `json:"hops,omitempty"`
	// Candidates is the number of kNN voting candidates consulted.
	Candidates int `json:"candidates,omitempty"`
	// DistanceEvals is the number of distance evaluations performed.
	DistanceEvals uint64 `json:"distance_evals,omitempty"`
}

// Record copies the trace into its serializable form.
func (t *Trace) Record() TraceRecord {
	if t == nil {
		return TraceRecord{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	rec := TraceRecord{
		ID:            t.id,
		Op:            t.op,
		Start:         t.start,
		Status:        t.status,
		TotalNS:       uint64(t.elapsed),
		Candidates:    t.candidates,
		DistanceEvals: t.distEvals,
	}
	if len(t.stages) > 0 {
		rec.Stages = append([]TraceStage(nil), t.stages...)
	}
	if len(t.rungs) > 0 {
		rec.Rungs = make(map[string]int, len(t.rungs))
		for k, v := range t.rungs {
			rec.Rungs[k] = v
		}
	}
	if len(t.faultSites) > 0 {
		rec.FaultSites = append([]string(nil), t.faultSites...)
	}
	if len(t.hops) > 0 {
		rec.Hops = append([]string(nil), t.hops...)
	}
	return rec
}

// traceKey carries a *Trace through context.Context.
type traceKey struct{}

// WithTrace attaches a trace to a context.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	if ctx == nil {
		ctx = context.Background()
	}
	return context.WithValue(ctx, traceKey{}, t)
}

// TraceFrom returns the context's trace, or nil. Nil-safe on a nil ctx,
// so pipeline code can call it unconditionally.
func TraceFrom(ctx context.Context) *Trace {
	if ctx == nil {
		return nil
	}
	t, _ := ctx.Value(traceKey{}).(*Trace)
	return t
}

// TraceRing keeps the last N completed request traces. Push is lock-free
// (one atomic increment plus one atomic pointer store), so the request
// path never serializes on the ring; Snapshot reads whatever completed
// traces the slots hold.
type TraceRing struct {
	slots []atomic.Pointer[Trace]
	cur   atomic.Uint64
}

// NewTraceRing builds a ring keeping the last n traces (n < 1 means 128).
func NewTraceRing(n int) *TraceRing {
	if n < 1 {
		n = 128
	}
	return &TraceRing{slots: make([]atomic.Pointer[Trace], n)}
}

// Cap reports the ring capacity.
func (r *TraceRing) Cap() int {
	if r == nil {
		return 0
	}
	return len(r.slots)
}

// Push stores a completed trace, evicting the oldest when full. Nil-safe.
func (r *TraceRing) Push(t *Trace) {
	if r == nil || t == nil {
		return
	}
	i := r.cur.Add(1) - 1
	r.slots[i%uint64(len(r.slots))].Store(t)
}

// Snapshot returns up to limit completed traces, newest first (limit < 1
// means all). Traces pushed concurrently with the snapshot may or may not
// appear; each returned record is internally consistent.
func (r *TraceRing) Snapshot(limit int) []TraceRecord {
	if r == nil {
		return nil
	}
	out := make([]TraceRecord, 0, len(r.slots))
	for i := range r.slots {
		if t := r.slots[i].Load(); t != nil {
			out = append(out, t.Record())
		}
	}
	// Newest first: arrival time orders the ring regardless of slot
	// position (the cursor wraps).
	sort.Slice(out, func(i, j int) bool { return out[i].Start.After(out[j].Start) })
	if limit >= 1 && len(out) > limit {
		out = out[:limit]
	}
	return out
}

// Request-ID generation: a per-process random prefix plus an atomic
// counter. IDs are unique within and across processes (8 random bytes of
// prefix) without per-call entropy reads.
var (
	ridPrefix = func() string {
		var b [4]byte
		if _, err := rand.Read(b[:]); err != nil {
			// Fall back to the start time; uniqueness degrades to
			// per-process, which the counter still provides.
			return hex.EncodeToString([]byte(time.Now().Format("150405")))[:8]
		}
		return hex.EncodeToString(b[:])
	}()
	ridSeq atomic.Uint64
)

// NewRequestID returns a process-unique request correlation ID, e.g.
// "a1b2c3d4-000017". Callers (server middleware, the HTTP client) use it
// as the X-Request-ID value when the caller did not supply one.
func NewRequestID() string {
	return ridPrefix + "-" + hexUint(ridSeq.Add(1))
}

// hexUint formats n as fixed-width hex without fmt (the ID path runs per
// request).
func hexUint(n uint64) string {
	const digits = "0123456789abcdef"
	var b [6]byte
	for i := len(b) - 1; i >= 0; i-- {
		b[i] = digits[n&0xf]
		n >>= 4
	}
	return string(b[:])
}
