package knn

import (
	"context"
	"errors"
	"testing"

	"repro/internal/offline"
	"repro/internal/pipeline"
	"repro/internal/session"
)

// fallbackSamples: two "variance" contexts near T=1..2, one "osf" far out
// at T=9. A query at T=5 is outside θ_δ=0.15 of everything.
func fallbackSamples() []*offline.Sample {
	return []*offline.Sample{
		{Context: &session.Context{T: 1}, Labels: []string{"variance"}},
		{Context: &session.Context{T: 2}, Labels: []string{"variance"}},
		{Context: &session.Context{T: 9}, Labels: []string{"osf"}},
	}
}

func TestFallbackAbstainIsDefault(t *testing.T) {
	clf := New(fallbackSamples(), stubMetric{}, Config{K: 2, ThetaDelta: 0.15})
	p := clf.Predict(&session.Context{T: 5})
	if p.Covered || p.Fallback {
		t.Errorf("default policy must keep the abstention, got %+v", p)
	}
}

func TestFallbackNearest(t *testing.T) {
	clf := New(fallbackSamples(), stubMetric{}, Config{K: 1, ThetaDelta: 0.15, Fallback: FallbackNearest})
	// T=5 abstains under θ_δ; the unbounded k=1 rescan finds T=2
	// ("variance", dist 0.3) nearer than T=9 ("osf", dist 0.4).
	p := clf.Predict(&session.Context{T: 5})
	if !p.Covered || !p.Fallback || p.Label != "variance" {
		t.Errorf("nearest fallback = %+v, want covered variance via fallback", p)
	}
	// A covered prediction must not be marked as fallback.
	p = clf.Predict(&session.Context{T: 1})
	if !p.Covered || p.Fallback {
		t.Errorf("in-threshold prediction flagged as fallback: %+v", p)
	}
}

// One unbounded scan serves both of FallbackNearest's votes: a gated hit
// lists only its in-threshold neighbors, a fallback the k nearest.
func TestFallbackNearestNeighbors(t *testing.T) {
	clf := New(fallbackSamples(), stubMetric{}, Config{K: 3, ThetaDelta: 0.15, Fallback: FallbackNearest})
	for _, tc := range []struct{ t, neighbors int }{{1, 2}, {5, 3}} {
		p := clf.Predict(&session.Context{T: tc.t})
		if len(p.Neighbors) != tc.neighbors || p.Fallback != (tc.t == 5) {
			t.Errorf("query T=%d: %+v, want %d neighbors", tc.t, p, tc.neighbors)
		}
	}
}

func TestFallbackPrior(t *testing.T) {
	clf := New(fallbackSamples(), stubMetric{}, Config{K: 2, ThetaDelta: 0.15, Fallback: FallbackPrior})
	p := clf.Predict(&session.Context{T: 5})
	if !p.Covered || !p.Fallback || p.Label != "variance" {
		t.Errorf("prior fallback = %+v, want the majority label variance", p)
	}
}

func TestFallbackPriorEmptyTrainingLabels(t *testing.T) {
	samples := []*offline.Sample{{Context: &session.Context{T: 1}}}
	clf := New(samples, stubMetric{}, Config{K: 1, ThetaDelta: 0.05, Fallback: FallbackPrior})
	p := clf.Predict(&session.Context{T: 5})
	if p.Covered || p.Fallback {
		t.Errorf("no labels anywhere: must still abstain, got %+v", p)
	}
}

func TestPriorLabelTieBreak(t *testing.T) {
	samples := []*offline.Sample{
		{Labels: []string{"b"}},
		{Labels: []string{"a"}},
	}
	if got := priorLabel(samples); got != "a" {
		t.Errorf("priorLabel tie = %q, want lexicographic winner a", got)
	}
}

func TestPredictAllMatchesPredictWithFallback(t *testing.T) {
	clf := New(fallbackSamples(), stubMetric{}, Config{K: 2, ThetaDelta: 0.15, Fallback: FallbackNearest})
	queries := []*session.Context{{T: 1}, {T: 5}, {T: 9}, {T: 100}}
	batch := clf.PredictAll(queries)
	for i, q := range queries {
		single := clf.Predict(q)
		if batch[i].Label != single.Label || batch[i].Covered != single.Covered || batch[i].Fallback != single.Fallback {
			t.Errorf("query %d: batch %+v != single %+v", i, batch[i], single)
		}
	}
}

func TestPredictCtxCanceled(t *testing.T) {
	clf := New(fallbackSamples(), stubMetric{}, Config{K: 2, ThetaDelta: 0.15})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := clf.PredictCtx(ctx, &session.Context{T: 1}); !errors.Is(err, context.Canceled) {
		t.Errorf("PredictCtx err = %v, want context.Canceled", err)
	}
	var pe *pipeline.Error
	_, err := clf.PredictAllCtx(ctx, []*session.Context{{T: 1}, {T: 2}})
	if !errors.As(err, &pe) || pe.Stage != "knn.predict_all" {
		t.Errorf("PredictAllCtx err = %v, want *pipeline.Error at knn.predict_all", err)
	}
}
