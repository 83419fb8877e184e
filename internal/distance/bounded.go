package distance

import (
	"repro/internal/obs"
	"repro/internal/session"
)

// Telemetry handles for the bounded path: bounded_calls counts
// DistanceWithin invocations, early_abandon those a lower bound rejected
// before any display distance was computed — the early-abandon hit rate
// of the kNN scan.
var (
	mBoundedCalls = obs.C("distance.treeedit.bounded_calls")
	mEarlyAbandon = obs.C("distance.treeedit.early_abandon")
)

// BoundedMetric is a Metric that can prove "farther than bound" without
// paying for the exact distance. The kNN scan feeds it θ_δ tightened by
// the current k-th-best neighbor distance, so hopeless candidates abandon
// before their exact distance is computed.
type BoundedMetric interface {
	Metric
	// DistanceWithin returns (d, true) with the exact distance when
	// d <= bound, or (lb, false) when the true distance provably exceeds
	// bound — lb is then a lower bound on the true distance, not the
	// distance itself, and must only be used to discard the pair.
	DistanceWithin(a, b *session.Context, bound float64) (float64, bool)
}

// Within evaluates m's distance against bound, early-abandoning when m
// implements BoundedMetric and falling back to a full computation plus
// comparison otherwise. The second return is true iff d <= bound, with d
// exact in that case.
func Within(m Metric, a, b *session.Context, bound float64) (float64, bool) {
	if bm, ok := m.(BoundedMetric); ok {
		return bm.DistanceWithin(a, b, bound)
	}
	d := m.Distance(a, b)
	return d, d <= bound
}

// DistanceWithin implements BoundedMetric through a one-off Evaluator;
// see Evaluator.DistanceWithin for the abandon tests.
func (m TreeEdit) DistanceWithin(a, b *session.Context, bound float64) (float64, bool) {
	return m.NewEvaluator(a).DistanceWithin(m.Prepare(b), bound)
}

// lowerBound returns the normalized-distance lower bound of two non-empty
// flattened trees. The unit insert/delete cost cancels out of the
// normalization, so the bound is cost-model-free.
func lowerBound(ta, tb *flatTree) float64 {
	sizeDiff := len(ta.nodes) - len(tb.nodes)
	if sizeDiff < 0 {
		sizeDiff = -sizeDiff
	}
	heightDiff := ta.height - tb.height
	if heightDiff < 0 {
		heightDiff = -heightDiff
	}
	diff := sizeDiff
	if heightDiff > diff {
		diff = heightDiff
	}
	return float64(diff) / float64(len(ta.nodes)+len(tb.nodes))
}
