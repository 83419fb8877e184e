package distance

import (
	"testing"

	"repro/internal/session"
)

// emptyCtx is a context with no tree at all (nil root).
func emptyCtx() *session.Context { return &session.Context{} }

// TestEvaluatorBitIdenticalToDistanceWithin is the prepared fast path's
// core contract: for every pair and bound, an evaluator reused across a
// whole scan must return exactly what a fresh one-pair evaluator returns —
// same float bits, same within flag — including after scratch reuse across
// many differently-sized evaluations (the reuse order below deliberately
// interleaves sizes so a stale-scratch bug would surface).
func TestEvaluatorBitIdenticalToDistanceWithin(t *testing.T) {
	ctxs := boundedContexts(t)
	for _, m := range []TreeEdit{{}, NewMemoizedTreeEdit(nil)} {
		prepared := make([]*Prepared, len(ctxs))
		for i, c := range ctxs {
			prepared[i] = m.Prepare(c)
		}
		bounds := []float64{0, 0.01, 0.05, 0.1, 0.25, 0.5, 1}
		for i, q := range ctxs {
			ev := m.NewEvaluator(q)
			for _, bound := range bounds {
				for j := range ctxs {
					wd, wok := m.NewEvaluator(q).DistanceWithin(m.Prepare(ctxs[j]), bound)
					gd, gok := ev.DistanceWithin(prepared[j], bound)
					if gd != wd || gok != wok {
						t.Fatalf("metric %+v pair (%d,%d) bound %g: evaluator (%v,%v), plain (%v,%v)",
							m, i, j, bound, gd, gok, wd, wok)
					}
				}
			}
		}
	}
}

// TestEvaluatorUnboundedMatchesDistance: an unbounded evaluation is always
// exact and equals Distance bit-for-bit.
func TestEvaluatorUnboundedMatchesDistance(t *testing.T) {
	ctxs := boundedContexts(t)
	m := TreeEdit{}
	for _, q := range ctxs {
		ev := m.NewEvaluator(q)
		for _, c := range ctxs {
			want := m.Distance(q, c)
			got, ok := ev.DistanceWithin(m.Prepare(c), 2)
			if !ok || got != want {
				t.Fatalf("unbounded evaluator (%v,%v), Distance %v", got, ok, want)
			}
		}
	}
}

// TestEvaluatorEmptyTrees covers the degenerate cases the shared
// degenerateDistance helper resolves before any scratch is touched.
func TestEvaluatorEmptyTrees(t *testing.T) {
	ctxs := boundedContexts(t)
	m := TreeEdit{}
	empty := emptyCtx()
	ev := m.NewEvaluator(empty)
	if d, ok := ev.DistanceWithin(m.Prepare(empty), 0); d != 0 || !ok {
		t.Fatalf("empty-vs-empty = (%v,%v), want (0,true)", d, ok)
	}
	if d, ok := ev.DistanceWithin(m.Prepare(ctxs[0]), 0.5); d != 1 || ok {
		t.Fatalf("empty-vs-tree = (%v,%v), want (1,false)", d, ok)
	}
	ev2 := m.NewEvaluator(ctxs[0])
	if d, ok := ev2.DistanceWithin(m.Prepare(empty), 1); d != 1 || !ok {
		t.Fatalf("tree-vs-empty = (%v,%v), want (1,true)", d, ok)
	}
}
