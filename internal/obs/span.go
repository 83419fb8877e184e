package obs

import (
	"context"
	"runtime/trace"
	"time"
)

// Stage is a named pipeline phase ("gen", "offline", "train", "predict",
// …). Starting a stage records a runtime/trace region (visible in
// `go tool trace`) and times the phase into the "stage.<name>" histogram.
// Stage handles are meant to be created once (package variable) and
// started per phase execution.
type Stage struct {
	name string
	h    *Histogram
}

// NewStage returns a stage handle on the collector.
func (c *Collector) NewStage(name string) *Stage {
	return &Stage{name: name, h: c.Histogram("stage." + name)}
}

// S returns a stage handle on the default collector.
func S(name string) *Stage { return Default.NewStage(name) }

// Span is one in-flight execution of a stage; End it exactly once.
type Span struct {
	h      *Histogram
	region *trace.Region
	t0     time.Time
	// tr, when non-nil, receives the stage timing as a request-trace
	// stage on End (see StartCtx).
	tr   *Trace
	name string
}

// Start begins a span. The trace region is a no-op unless a runtime trace
// is being captured. Stages are coarse — a handful per pipeline run — so
// the clock reads are not a hot-path concern.
func (st *Stage) Start() Span {
	if st == nil {
		return Span{}
	}
	return Span{h: st.h, region: trace.StartRegion(context.Background(), st.name), t0: time.Now()}
}

// StartCtx is Start plus request-trace attachment: when ctx carries a
// Trace (see WithTrace), End additionally records this stage's elapsed
// time onto that request's trace, so the per-request breakdown at
// GET /v1/admin/trace reuses the exact spans the process-wide stage
// histograms already time. A ctx without a trace (or nil) behaves like
// Start.
func (st *Stage) StartCtx(ctx context.Context) Span {
	sp := st.Start()
	if tr := TraceFrom(ctx); tr != nil && st != nil {
		sp.tr = tr
		sp.name = st.name
	}
	return sp
}

// End closes the span, ending the trace region and recording the elapsed
// time. Safe on a zero Span.
func (sp Span) End() {
	if sp.h == nil {
		return
	}
	sp.region.End()
	d := time.Since(sp.t0)
	sp.h.Observe(d)
	if sp.tr != nil {
		sp.tr.AddStage(sp.name, d)
	}
}
