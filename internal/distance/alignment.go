package distance

import (
	"repro/internal/obs"
	"repro/internal/session"
)

// Telemetry handles: fallbacks count the degenerate action-less paths
// where the alignment cannot run and the metric falls back to a display
// comparison or the maximal distance.
var (
	mAlignCalls     = obs.C("distance.alignment.calls")
	mAlignFallbacks = obs.C("distance.alignment.fallbacks")
)

// AlignmentMetric is the alternative session-similarity notion the paper
// cites (Aligon et al., "Similarity measures for OLAP sessions"): a
// Smith-Waterman local sequence alignment over the contexts' action
// sequences. Where the tree-edit metric compares the branching structure,
// alignment rewards long, contiguous runs of similar actions regardless of
// where the branches hang — the two metrics are plug-compatible in the
// kNN model (Section 3.2 notes either can back the classifier).
type AlignmentMetric struct {
	// MatchThreshold is the maximal ground action distance still counted
	// as a (partial) match; 0 means 0.6.
	MatchThreshold float64
	// GapPenalty is the alignment gap cost; 0 means 0.5.
	GapPenalty float64
}

// Name implements Metric.
func (AlignmentMetric) Name() string { return "sequence-alignment" }

// Distance implements Metric: 1 - normalizedAlignmentScore, in [0, 1].
func (m AlignmentMetric) Distance(a, b *session.Context) float64 {
	mAlignCalls.Inc()
	sa, sb := actionSequence(a), actionSequence(b)
	switch {
	case len(sa) == 0 && len(sb) == 0:
		// Both contexts are action-less (t=0 roots): compare displays.
		mAlignFallbacks.Inc()
		na, nb := newestNode(a), newestNode(b)
		if na == nil || nb == nil {
			return 1
		}
		return DisplayDistance(na.Display, nb.Display)
	case len(sa) == 0 || len(sb) == 0:
		mAlignFallbacks.Inc()
		return 1
	}
	thr := m.MatchThreshold
	if thr <= 0 {
		thr = 0.6
	}
	gap := m.GapPenalty
	if gap <= 0 {
		gap = 0.5
	}
	score := smithWaterman(sa, sb, thr, gap)
	// Perfect score: every element of the shorter sequence matches with
	// similarity 1.
	max := float64(min2(len(sa), len(sb)))
	if max == 0 {
		return 1
	}
	d := 1 - score/max
	if d < 0 {
		d = 0
	}
	if d > 1 {
		d = 1
	}
	return d
}

// actionSequence flattens a context's actions in execution (step) order.
func actionSequence(c *session.Context) []*session.CtxNode {
	if c == nil {
		return nil
	}
	var out []*session.CtxNode
	for _, n := range c.Nodes() {
		if n.Action != nil {
			out = append(out, n)
		}
	}
	// Nodes() is pre-order; sort by originating step for sequence order.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Step < out[j-1].Step; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// smithWaterman computes the local alignment score where the per-pair
// award is (1 - actionDistance) when below the match threshold and a
// mismatch penalty otherwise.
func smithWaterman(sa, sb []*session.CtxNode, matchThreshold, gapPenalty float64) float64 {
	n, m := len(sa), len(sb)
	prev := make([]float64, m+1)
	cur := make([]float64, m+1)
	best := 0.0
	for i := 1; i <= n; i++ {
		for j := 1; j <= m; j++ {
			d := ActionDistance(sa[i-1].Action, sb[j-1].Action)
			var award float64
			if d <= matchThreshold {
				award = 1 - d
			} else {
				award = -(d - matchThreshold) // mismatch penalty grows with distance
			}
			v := prev[j-1] + award
			if w := prev[j] - gapPenalty; w > v {
				v = w
			}
			if w := cur[j-1] - gapPenalty; w > v {
				v = w
			}
			if v < 0 {
				v = 0
			}
			cur[j] = v
			if v > best {
				best = v
			}
		}
		prev, cur = cur, prev
		for k := range cur {
			cur[k] = 0
		}
	}
	return best
}

func min2(a, b int) int {
	if a < b {
		return a
	}
	return b
}
