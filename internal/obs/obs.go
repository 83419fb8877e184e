// Package obs is the pipeline telemetry substrate: lock-free atomic
// counters, gauges, fixed-bucket log-scale latency histograms and named
// pipeline-stage spans, collected into a process-wide Collector that every
// subsystem (distance, offline, knn, measures, simulate, netlog) threads
// its instrumentation through.
//
// Design constraints (and the benchmarks in bench_test.go that hold them):
//
//   - A counter increment is one atomic add and allocates zero bytes;
//     histogram observation is three atomic adds, zero bytes.
//   - Everything is nil-safe: methods on a nil *Collector, *Counter,
//     *Gauge or *Histogram are no-ops, so instrumented code never needs a
//     nil check.
//
// Counters, gauges and stage histograms always record. The one setting is
// process-wide and decides whether hot paths (tree-edit inner loops, kNN
// scans, per-measure scoring) read clocks: by default (ModeCounters) they
// do not, and a site guarded by Timing() costs one atomic load; under
// ModeTiming they also time each event into a latency histogram.
//
// The Collector is exported three ways: Snapshot() (a JSON-serializable
// struct, re-exported on the repro facade as repro.Telemetry()), expvar
// publication plus an optional pprof HTTP server (see server.go), and
// runtime/trace regions emitted by stage spans (see span.go) so that
// `go tool trace` shows the gen → offline → train → predict phases.
package obs

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// Mode is the process-wide timing switch.
type Mode uint32

const (
	// ModeCounters (the default) keeps clock reads off hot paths.
	ModeCounters Mode = iota
	// ModeTiming additionally records per-event latencies on hot paths.
	ModeTiming
)

// String names the mode for snapshots.
func (m Mode) String() string {
	switch m {
	case ModeCounters:
		return "counters"
	case ModeTiming:
		return "timing"
	default:
		return "unknown"
	}
}

// Counter is a monotonically increasing lock-free event counter.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Load returns the current total.
func (c *Counter) Load() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a lock-free instantaneous value (e.g. a cache size).
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adds d (may be negative).
func (g *Gauge) Add(d int64) {
	if g != nil {
		g.v.Add(d)
	}
}

// Load returns the current value.
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets is the number of log-scale duration buckets. Bucket i counts
// observations whose nanosecond value has bit-length i, i.e. durations in
// [2^(i-1), 2^i) ns; the last bucket absorbs everything ≥ ~9.2 minutes.
const histBuckets = 40

// Histogram is a fixed-bucket log-scale latency histogram. Observing is
// three atomic adds and never allocates; there is no locking, so a
// concurrent Snapshot sees each observation's count/sum/bucket updates
// independently (monotonically, but not necessarily together).
type Histogram struct {
	count   atomic.Uint64
	sumNS   atomic.Uint64
	buckets [histBuckets]atomic.Uint64
}

// Observe records one duration. Negative durations are clamped to zero.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	ns := uint64(d)
	h.count.Add(1)
	h.sumNS.Add(ns)
	i := bits.Len64(ns)
	if i >= histBuckets {
		i = histBuckets - 1
	}
	h.buckets[i].Add(1)
}

// ObserveSince records the elapsed time since t0.
func (h *Histogram) ObserveSince(t0 time.Time) { h.Observe(time.Since(t0)) }

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Collector is a named-metric registry. Metric handles (get-or-create by
// name) are intended to be hoisted into package variables or struct fields
// so the hot path never touches the registry map.
type Collector struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// New returns an empty collector.
func New() *Collector {
	return &Collector{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Default is the process-wide collector all subsystems record into.
var Default = New()

// mode holds the process-wide Mode; its zero value is ModeCounters.
var mode atomic.Uint32

// Timing reports whether hot paths record fine-grained latencies.
func Timing() bool { return mode.Load() >= uint32(ModeTiming) }

// SetMode switches the process-wide timing mode.
func SetMode(m Mode) { mode.Store(uint32(m)) }

// Counter returns the named counter, creating it on first use.
func (c *Collector) Counter(name string) *Counter {
	if c == nil {
		return new(Counter)
	}
	c.mu.RLock()
	v := c.counters[name]
	c.mu.RUnlock()
	if v != nil {
		return v
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if v = c.counters[name]; v == nil {
		v = new(Counter)
		c.counters[name] = v
	}
	return v
}

// Gauge returns the named gauge, creating it on first use.
func (c *Collector) Gauge(name string) *Gauge {
	if c == nil {
		return new(Gauge)
	}
	c.mu.RLock()
	v := c.gauges[name]
	c.mu.RUnlock()
	if v != nil {
		return v
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if v = c.gauges[name]; v == nil {
		v = new(Gauge)
		c.gauges[name] = v
	}
	return v
}

// Histogram returns the named histogram, creating it on first use.
func (c *Collector) Histogram(name string) *Histogram {
	if c == nil {
		return new(Histogram)
	}
	c.mu.RLock()
	v := c.hists[name]
	c.mu.RUnlock()
	if v != nil {
		return v
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if v = c.hists[name]; v == nil {
		v = new(Histogram)
		c.hists[name] = v
	}
	return v
}

// C returns a named counter on the default collector; hoist the handle out
// of hot loops (typically into a package variable).
func C(name string) *Counter { return Default.Counter(name) }

// G returns a named gauge on the default collector.
func G(name string) *Gauge { return Default.Gauge(name) }

// H returns a named histogram on the default collector.
func H(name string) *Histogram { return Default.Histogram(name) }

// Reset zeroes every registered metric (the registry itself is kept, so
// hoisted handles stay valid). Meant for tests and for delta-style CLI
// reporting; concurrent recorders may interleave with the zeroing.
func (c *Collector) Reset() {
	if c == nil {
		return
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, v := range c.counters {
		v.v.Store(0)
	}
	for _, v := range c.gauges {
		v.v.Store(0)
	}
	for _, h := range c.hists {
		h.count.Store(0)
		h.sumNS.Store(0)
		for i := range h.buckets {
			h.buckets[i].Store(0)
		}
	}
}

// bucketUpperNS returns the exclusive upper bound (in ns) of bucket i.
func bucketUpperNS(i int) uint64 {
	if i >= 63 {
		return math.MaxUint64
	}
	return uint64(1) << uint(i)
}
