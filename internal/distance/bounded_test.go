package distance

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/session"
)

// boundedContexts builds a spread of contexts with different sizes and
// depths, plus same-shape contexts whose actions differ in type, so both
// the action bound and the full-DP path are exercised.
func boundedContexts(t *testing.T) []*session.Context {
	t.Helper()
	root := packetRoot(t)
	gc := func(col string) *engine.Action { return engine.NewGroupCount(col) }
	flt := func(h int64) *engine.Action {
		return engine.NewFilter(engine.Predicate{Column: "hour", Op: engine.OpGt, Operand: dataset.I(h)})
	}
	var ctxs []*session.Context
	// Linear filter chains of growing length (filters preserve the schema,
	// so chains of any depth stay executable), capped by a group-count.
	for l := 1; l <= 5; l++ {
		actions := make([]*engine.Action, 0, l)
		for i := 0; i < l-1; i++ {
			actions = append(actions, flt(int64(8+i)))
		}
		actions = append(actions, gc([]string{"protocol", "dst_ip", "hour"}[l%3]))
		s := sessionWith(t, root, actions...)
		for n := 1; n <= 4; n += 3 {
			ctxs = append(ctxs, ctxAtEnd(t, s, n))
		}
	}
	// Pure filter chains: the same shapes as the chains above, whose last
	// action is a group-by instead, so only the action bound tells them
	// apart before the display distances are computed.
	for l := 1; l <= 3; l++ {
		actions := make([]*engine.Action, l)
		for i := range actions {
			actions[i] = flt(int64(8 + i))
		}
		ctxs = append(ctxs, ctxAtEnd(t, sessionWith(t, root, actions...), 4))
	}
	// A branchy session: several actions from the root.
	s := sessionWith(t, root, gc("protocol"))
	if err := s.BackTo(s.Root()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Apply(gc("dst_ip")); err != nil {
		t.Fatal(err)
	}
	if err := s.BackTo(s.Root()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Apply(flt(19)); err != nil {
		t.Fatal(err)
	}
	ctxs = append(ctxs, ctxAtEnd(t, s, 3), ctxAtEnd(t, s, 5))
	return ctxs
}

// TestDistanceWithinMatchesDistance is the early-abandon correctness
// contract: for every pair and a sweep of bounds, (d, true) must carry the
// exact distance and (lb, false) must only ever discard pairs that the
// exact metric would discard too.
func TestDistanceWithinMatchesDistance(t *testing.T) {
	ctxs := boundedContexts(t)
	m := TreeEdit{}
	bounds := []float64{0, 0.01, 0.05, 0.1, 0.2, 0.3, 0.5, 0.9, 1}
	abandoned := 0
	for i, a := range ctxs {
		for j, b := range ctxs {
			exact := m.Distance(a, b)
			for _, bound := range bounds {
				d, within := m.NewEvaluator(a).DistanceWithin(m.Prepare(b), bound)
				if within {
					if d != exact {
						t.Fatalf("pair (%d,%d) bound %g: within=true d=%v, exact %v", i, j, bound, d, exact)
					}
					if d > bound {
						t.Fatalf("pair (%d,%d) bound %g: within=true but d=%v > bound", i, j, bound, d)
					}
				} else {
					abandoned++
					if exact <= bound {
						t.Fatalf("pair (%d,%d) bound %g: abandoned but exact %v <= bound", i, j, bound, exact)
					}
					if d > exact {
						t.Fatalf("pair (%d,%d) bound %g: reported lower bound %v exceeds exact %v", i, j, bound, d, exact)
					}
				}
			}
		}
	}
	if abandoned == 0 {
		t.Fatal("no pair ever abandoned; the bound is vacuous for this corpus")
	}
}

// TestDistanceWithinMemoized checks the memoized metric variant keeps the
// same contract.
func TestDistanceWithinMemoized(t *testing.T) {
	ctxs := boundedContexts(t)
	m := NewMemoizedTreeEdit(nil)
	plain := TreeEdit{}
	for _, a := range ctxs {
		for _, b := range ctxs {
			exact := plain.Distance(a, b)
			d, within := m.NewEvaluator(a).DistanceWithin(m.Prepare(b), 0.25)
			if within && d != exact {
				t.Fatalf("memoized within d=%v, exact %v", d, exact)
			}
			if !within && exact <= 0.25 {
				t.Fatalf("memoized abandoned a pair with exact %v <= 0.25", exact)
			}
		}
	}
}

// actionBound is the evaluator's action-only lower bound for two
// non-empty contexts: the dynamic program with relabel cost
// 0.5·ActionDistance.
func actionBound(m TreeEdit, a, b *session.Context) float64 {
	e, tb := m.NewEvaluator(a), flatten(b)
	e.grow(len(e.q.nodes), len(tb.nodes))
	e.actionCosts(tb)
	return e.run(tb)
}

// TestLowerBoundNeverExceedsDistance checks the action bound the
// evaluator abandons on against the exact metric over all corpus pairs.
// The comparison is exact, with no tolerance: the scan compares the
// bound against θ_δ and the k-th-best distance in floating point, so a
// bound one ULP above the computed distance could drop a true neighbor.
func TestLowerBoundNeverExceedsDistance(t *testing.T) {
	ctxs := boundedContexts(t)
	for _, m := range []TreeEdit{{}, NewMemoizedTreeEdit(nil)} {
		for i, a := range ctxs {
			for j, b := range ctxs {
				if got, exact := actionBound(m, a, b), m.Distance(a, b); got > exact {
					t.Fatalf("metric %+v, action bound of pair (%d,%d) is %v, above the exact distance %v",
						m, i, j, got, exact)
				}
			}
		}
	}
}
