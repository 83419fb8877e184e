package measures

import (
	"sync"
	"time"

	"repro/internal/obs"
)

// measureStats caches the telemetry handles of one measure so scoring
// loops never touch the obs registry by name.
type measureStats struct {
	evals *obs.Counter
	ns    *obs.Histogram
}

var (
	msMu     sync.RWMutex
	msByName = make(map[string]*measureStats)
)

func statsFor(name string) *measureStats {
	msMu.RLock()
	st := msByName[name]
	msMu.RUnlock()
	if st != nil {
		return st
	}
	msMu.Lock()
	defer msMu.Unlock()
	if st = msByName[name]; st == nil {
		st = &measureStats{
			evals: obs.C("measures." + name + ".evals"),
			ns:    obs.H("measures." + name + ".ns"),
		}
		msByName[name] = st
	}
	return st
}

// ObservedScore scores the context with the measure while recording the
// measure's evaluation count and (under ModeTiming) its latency. The
// offline analysis scores through this wrapper so every i(q, d) evaluation
// — recorded actions and reference alternatives alike — is visible in the
// telemetry snapshot.
func ObservedScore(m Measure, ctx *Context) float64 {
	st := statsFor(m.Name())
	st.evals.Inc()
	if !obs.Timing() {
		return m.Score(ctx)
	}
	t0 := time.Now()
	v := m.Score(ctx)
	st.ns.ObserveSince(t0)
	return v
}
