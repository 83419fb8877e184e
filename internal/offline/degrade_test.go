package offline

import (
	"math"
	"testing"
	"time"

	"repro/internal/stats"
)

// checkFiniteNorm asserts a fitted normalization has finite moments and
// produces a finite relative score for a finite input.
func checkFiniteNorm(t *testing.T, shape string, mn MeasureNorm) {
	t.Helper()
	if math.IsNaN(mn.Mean) || math.IsInf(mn.Mean, 0) {
		t.Errorf("%s: mean = %v, want finite", shape, mn.Mean)
	}
	if math.IsNaN(mn.Std) || math.IsInf(mn.Std, 0) || mn.Std < 0 {
		t.Errorf("%s: std = %v, want finite >= 0", shape, mn.Std)
	}
	if rel := mn.Relative(1.5); math.IsNaN(rel) || math.IsInf(rel, 0) {
		t.Errorf("%s: Relative(1.5) = %v, want finite", shape, rel)
	}
}

// TestFitOneDegenerateShapes is the per-shape regression suite for the
// Box-Cox → z-score-only degradation rung: every degenerate distribution
// must fit without error and yield finite, usable parameters.
func TestFitOneDegenerateShapes(t *testing.T) {
	shapes := map[string][]float64{
		"empty":        {},
		"single":       {2.5},
		"constant":     {3, 3, 3, 3, 3},
		"with-nan":     {1, 2, math.NaN(), 4, 5},
		"with+inf":     {1, 2, math.Inf(1), 4, 5},
		"with-inf":     {1, 2, math.Inf(-1), 4, 5},
		"all-nan":      {math.NaN(), math.NaN(), math.NaN()},
		"all-inf":      {math.Inf(1), math.Inf(-1), math.Inf(1)},
		"nan-and-inf":  {math.NaN(), math.Inf(1), 1, 2, 3},
		"tiny-variant": {1, 1 + 1e-16, 1},
	}
	for shape, series := range shapes {
		mn, err := fitOne(series)
		if err != nil {
			t.Errorf("%s: fitOne error %v, want z-score-only fallback", shape, err)
			continue
		}
		checkFiniteNorm(t, shape, mn)
	}
}

// TestFitOneConstantKeepsHistoricalMoments pins the bit-identical
// contract: an all-finite constant series takes the λ=1 MLE shortcut
// (not the degradation rung), so its moments stay those of the λ=1
// Box-Cox transform (x-1), exactly as before this PR.
func TestFitOneConstantKeepsHistoricalMoments(t *testing.T) {
	mn, err := fitOne([]float64{7, 7, 7, 7})
	if err != nil {
		t.Fatal(err)
	}
	if mn.BoxCox.Lambda != 1 || mn.Mean != 6 || mn.Std != 0 {
		t.Errorf("constant fit = %+v, want λ=1, mean 6 (= 7-1), std 0", mn)
	}
	if z := mn.Relative(7); z != 0 {
		t.Errorf("Relative(7) = %v, want the no-signal 0", z)
	}
}

// TestFitOneNonFiniteUsesFiniteMoments checks the moments come from the
// finite observations only, not poisoned by the NaN/Inf entries.
func TestFitOneNonFiniteUsesFiniteMoments(t *testing.T) {
	mn, err := fitOne([]float64{math.NaN(), 2, 4, math.Inf(1), 6})
	if err != nil {
		t.Fatal(err)
	}
	if mn.Mean != 4 {
		t.Errorf("mean over finite {2,4,6} = %v, want 4", mn.Mean)
	}
	if mn.Std == 0 || math.IsNaN(mn.Std) {
		t.Errorf("std = %v, want finite > 0", mn.Std)
	}
}

// TestNormalizerSurvivesDegenerateMeasure runs the full fit over nodes
// carrying a NaN-scoring measure next to a healthy one: the healthy
// measure keeps a real Box-Cox fit, the poisoned one degrades, and Apply
// emits no NaN for finite raw inputs.
func TestNormalizerSurvivesDegenerateMeasure(t *testing.T) {
	repo := testRepo(t)
	a, err := Analyze(repo, Options{MinRefs: 1, SkipReference: true})
	if err != nil {
		t.Fatal(err)
	}
	// Poison one synthetic measure with NaN scores on every node.
	for i, ns := range a.Nodes {
		ns.Raw["poisoned"] = math.NaN()
		if i%2 == 0 {
			ns.Raw["poisoned"] = math.Inf(1)
		}
	}
	msrs := a.Measures
	norm, err := FitNormalizer(nil, msrs, a.Nodes, 1)
	if err != nil {
		t.Fatal(err)
	}
	for name, mn := range norm.Params {
		checkFiniteNorm(t, name, mn)
	}
}

// TestRefBudgetTriggersNormalizedFallback forces every reference
// execution over a 1ns budget: all executions become abnormal, so every
// node that would otherwise rank against references must land on the
// normalized-fallback rung — RefRelative = Φ(z) of its NormRelative.
func TestRefBudgetTriggersNormalizedFallback(t *testing.T) {
	repo := testRepo(t)
	a, err := Analyze(repo, Options{MinRefs: 1, RefBudget: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	fallbacks := 0
	for _, ns := range a.Nodes {
		if len(ns.RefRelative) == 0 {
			continue
		}
		fallbacks++
		for name, z := range ns.NormRelative {
			want := stats.NormalCDF(z)
			if got := ns.RefRelative[name]; got != want {
				t.Fatalf("node %s/%s: RefRelative = %v, want Φ(%v) = %v",
					ns.Session.ID, name, got, z, want)
			}
		}
	}
	if fallbacks == 0 {
		t.Fatal("no node took the normalized fallback rung")
	}
}

// TestRefBudgetUnsetKeepsReferenceScores pins that without a budget the
// reference pass still produces genuine percentile ranks (not Φ(z)).
func TestRefBudgetUnsetKeepsReferenceScores(t *testing.T) {
	repo := testRepo(t)
	a, err := Analyze(repo, Options{MinRefs: 1})
	if err != nil {
		t.Fatal(err)
	}
	ranked := 0
	for _, ns := range a.Nodes {
		ranked += len(ns.RefRelative)
	}
	if ranked == 0 {
		t.Fatal("reference pass produced no scores")
	}
}
