package distance

import (
	"math"
	"time"

	"repro/internal/obs"
	"repro/internal/session"
)

// Telemetry handles (hoisted; see internal/obs). Tree-edit calls are the
// kNN hot path, so the latency histogram only records under ModeTiming.
var (
	mTreeEditCalls = obs.C("distance.treeedit.calls")
	mTreeEditNS    = obs.H("distance.treeedit.ns")
	mLastActCalls  = obs.C("distance.lastaction.calls")
)

// Metric computes a distance between two n-contexts. Implementations must
// be safe for concurrent use.
type Metric interface {
	Distance(a, b *session.Context) float64
	Name() string
}

// TreeEdit is the paper's context distance: the Zhang-Shasha ordered-tree
// edit distance where deleting or inserting a node costs 1 and relabeling
// costs the blended ground distance between the nodes (NodeDistance:
// actions + displays), normalized by the combined tree size so results
// fall in [0, 1].
type TreeEdit struct {
	// Memo caches the display ground metric across calls (see
	// NewMemoizedTreeEdit), which pays off where both sides of every
	// pair live as long as the cache, as in eval's pairwise matrices;
	// nil computes DisplayDistance afresh, as served predictors do.
	Memo *Memo
}

// Name implements Metric.
func (TreeEdit) Name() string { return "tree-edit" }

// Distance implements Metric.
func (m TreeEdit) Distance(a, b *session.Context) float64 {
	mTreeEditCalls.Inc()
	if obs.Timing() {
		t0 := time.Now()
		defer mTreeEditNS.ObserveSince(t0)
	}
	e := m.NewEvaluator(a)
	d, _ := e.within(m.Prepare(b), math.Inf(1))
	e.Flush()
	return d
}

// degenerateDistance resolves the empty-tree cases before any dynamic
// program runs.
func degenerateDistance(ta, tb *flatTree) (float64, bool) {
	switch {
	case len(ta.nodes) == 0 && len(tb.nodes) == 0:
		return 0, true
	case len(ta.nodes) == 0 || len(tb.nodes) == 0:
		return 1, true
	}
	return 0, false
}

// flatTree is a postorder flattening of a context tree, with the leftmost
// leaf descendant index of every node and the keyroots — the inputs to the
// Zhang-Shasha dynamic program.
type flatTree struct {
	nodes    []*session.CtxNode // postorder, 0-based
	leftmost []int              // leftmost[i] = postorder index of leftmost leaf of subtree i
	keyroots []int
}

func flatten(c *session.Context) *flatTree {
	ft := &flatTree{}
	if c == nil || c.Root == nil {
		return ft
	}
	var walk func(n *session.CtxNode) int
	walk = func(n *session.CtxNode) int {
		lm := -1
		for _, ch := range n.Children {
			l := walk(ch)
			if lm == -1 {
				lm = l
			}
		}
		idx := len(ft.nodes)
		ft.nodes = append(ft.nodes, n)
		if lm == -1 {
			lm = idx
		}
		ft.leftmost = append(ft.leftmost, lm)
		return lm
	}
	walk(c.Root)
	// Keyroots: nodes with no parent, or that are not the leftmost child —
	// equivalently the largest postorder index for each distinct leftmost
	// value.
	lastWithLeftmost := make(map[int]int)
	for i, lm := range ft.leftmost {
		lastWithLeftmost[lm] = i
	}
	for _, i := range lastWithLeftmost {
		ft.keyroots = append(ft.keyroots, i)
	}
	sortInts(ft.keyroots)
	return ft
}

func sortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

func min3(a, b, c float64) float64 {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}

// LastActionMetric is the ablation metric: it ignores the context's tree
// structure and compares only the most recent action and display. It
// stands in for "flat" baselines when evaluating how much the tree
// structure contributes.
type LastActionMetric struct{}

// Name implements Metric.
func (LastActionMetric) Name() string { return "last-action" }

// Distance implements Metric.
func (LastActionMetric) Distance(a, b *session.Context) float64 {
	mLastActCalls.Inc()
	na, nb := newestNode(a), newestNode(b)
	switch {
	case na == nil && nb == nil:
		return 0
	case na == nil || nb == nil:
		return 1
	}
	return NodeDistance(na, nb)
}

func newestNode(c *session.Context) *session.CtxNode {
	if c == nil {
		return nil
	}
	var best *session.CtxNode
	for _, n := range c.Nodes() {
		if best == nil || n.Step > best.Step {
			best = n
		}
	}
	return best
}
