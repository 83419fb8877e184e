package main

import (
	"math"
	"runtime"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/measures"
)

// The benchmark measures layers from outside the program: it decorates
// the values it passes into public entry points, wraps the handlers and
// transports it wires together, and reads the program's own counters by
// name. Nothing here adds a span inside the program.

// timedMeasure decorates a measure with a clock around Score. The
// distributions a measures.Context extracts lazily are charged to the
// first measure that asks for them.
type timedMeasure struct {
	repro.Measure
	ns, calls *atomic.Int64
}

func (m timedMeasure) Score(ctx *measures.Context) float64 {
	t0 := time.Now()
	v := m.Measure.Score(ctx)
	m.ns.Add(int64(time.Since(t0)))
	m.calls.Add(1)
	return v
}

// measureClock times every built-in measure through timedMeasure.
type measureClock struct {
	names     []string
	ns, calls []atomic.Int64
}

// newMeasureClock returns the clock and the decorated built-ins to pass
// as AnalysisOptions.Measures.
func newMeasureClock() (*measureClock, []repro.Measure) {
	builtins := repro.BuiltinMeasures()
	c := &measureClock{
		names: make([]string, len(builtins)),
		ns:    make([]atomic.Int64, len(builtins)),
		calls: make([]atomic.Int64, len(builtins)),
	}
	decorated := make([]repro.Measure, len(builtins))
	for i, m := range builtins {
		c.names[i] = m.Name()
		decorated[i] = timedMeasure{Measure: m, ns: &c.ns[i], calls: &c.calls[i]}
	}
	return c, decorated
}

// offlineLayers records the layer rows of one traced analysis (run with
// one worker, so component times add up to wall time) and checks that
// they reconcile: the named components must explain the wall time, and the
// per-measure clocks must add up to the scoring components, each within
// 10%.
func offlineLayers(r *result, a *repro.Analysis, wall time.Duration, clock *measureClock) {
	ref, norm := a.RefTimings, a.NormTimings
	parts := []struct {
		name string
		d    time.Duration
	}{
		{"offline.ref.exec_s", ref.ActionExecution},
		{"offline.ref.score_s", ref.CalcInterestingness},
		{"offline.ref.rank_s", ref.CalcRelative},
		{"offline.norm.score_s", norm.CalcInterestingness},
		{"offline.norm.fit_s", norm.CalcRelative},
	}
	var sum time.Duration
	for _, p := range parts {
		r.layer(p.name, p.d.Seconds())
		sum += p.d
	}
	unattributed := wall - sum
	r.layer("offline.wall_s", wall.Seconds())
	r.layer("offline.unattributed_s", unattributed.Seconds())
	if math.Abs(unattributed.Seconds()) > 0.10*wall.Seconds() {
		r.fail(1, "offline layers do not reconcile: components %.3fs vs wall %.3fs", sum.Seconds(), wall.Seconds())
	}

	var measured, calls float64
	for i, name := range clock.names {
		s := time.Duration(clock.ns[i].Load()).Seconds()
		r.layer("measures."+name+".score_s", s)
		measured += s
		calls += float64(clock.calls[i].Load())
	}
	r.layer("measures.score_calls", calls)
	scoring := (ref.CalcInterestingness + norm.CalcInterestingness).Seconds()
	if math.Abs(measured-scoring) > 0.10*scoring {
		r.fail(1, "measure clocks do not reconcile: %.3fs summed vs %.3fs scoring", measured, scoring)
	}
}

// memSnap is the slice of runtime.MemStats the runtime layer reports.
type memSnap struct {
	alloc, mallocs, pauseNS uint64
	gcs                     uint32
}

func memNow() memSnap {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memSnap{alloc: m.TotalAlloc, mallocs: m.Mallocs, pauseNS: m.PauseTotalNs, gcs: m.NumGC}
}

// since is the growth from an earlier snapshot to m.
func (m memSnap) since(before memSnap) memSnap {
	return memSnap{m.alloc - before.alloc, m.mallocs - before.mallocs, m.pauseNS - before.pauseNS, m.gcs - before.gcs}
}

// plus adds the growth d to m.
func (m memSnap) plus(d memSnap) memSnap {
	return memSnap{m.alloc + d.alloc, m.mallocs + d.mallocs, m.pauseNS + d.pauseNS, m.gcs + d.gcs}
}

// runtimeLayers records the allocation and GC cost d of ops operations of
// the workload.
func runtimeLayers(r *result, d memSnap, ops int) {
	r.layer("runtime.alloc_mb_per_op", ratio(float64(d.alloc)/1e6, float64(ops)))
	r.layer("runtime.allocs_per_op", ratio(float64(d.mallocs), float64(ops)))
	r.layer("runtime.gc_cycles", float64(d.gcs))
	r.layer("runtime.gc_pause_ms", float64(d.pauseNS)/1e6)
}

// liveHeapMB collects garbage and returns the live heap in MB. The second
// collection frees what the first left in sync.Pool victim caches.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}

// counters reads the program's counters by name. A counter a later change
// removes simply reads 0.
func counters() map[string]uint64 { return repro.Telemetry().Counters }

// delta is how far counter name moved between two reads.
func delta(before, after map[string]uint64, name string) float64 {
	return float64(after[name] - before[name])
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
