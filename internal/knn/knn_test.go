package knn

import (
	"math"
	"testing"

	"repro/internal/offline"
	"repro/internal/session"
)

func sample(labels ...string) *offline.Sample {
	return &offline.Sample{Labels: labels}
}

func TestVoteMajority(t *testing.T) {
	ns := []Neighbor{
		{Sample: sample("variance"), Dist: 0.1},
		{Sample: sample("variance"), Dist: 0.2},
		{Sample: sample("osf"), Dist: 0.05},
	}
	p := Vote(ns, 3)
	if !p.Covered || p.Label != "variance" {
		t.Errorf("prediction = %+v, want variance", p)
	}
	if p.Votes["variance"] != 2 || p.Votes["osf"] != 1 {
		t.Errorf("votes = %v", p.Votes)
	}
}

func TestVoteRespectsK(t *testing.T) {
	ns := []Neighbor{
		{Sample: sample("osf"), Dist: 0.01},
		{Sample: sample("variance"), Dist: 0.2},
		{Sample: sample("variance"), Dist: 0.3},
	}
	// k=1: only the nearest votes.
	p := Vote(ns, 1)
	if p.Label != "osf" {
		t.Errorf("k=1 label = %s, want osf", p.Label)
	}
	// k=3: majority flips.
	p = Vote(ns, 3)
	if p.Label != "variance" {
		t.Errorf("k=3 label = %s, want variance", p.Label)
	}
}

func TestVoteAbstainsOnEmpty(t *testing.T) {
	p := Vote(nil, 5)
	if p.Covered || p.Label != "" {
		t.Errorf("empty neighbors must abstain: %+v", p)
	}
	// Neighbors with no labels also abstain.
	p = Vote([]Neighbor{{Sample: sample(), Dist: 0.1}}, 1)
	if p.Covered {
		t.Error("label-less neighbors must abstain")
	}
}

func TestVoteTieBrokenByCloseness(t *testing.T) {
	ns := []Neighbor{
		{Sample: sample("osf"), Dist: 0.01},
		{Sample: sample("variance"), Dist: 0.4},
	}
	p := Vote(ns, 2)
	if p.Label != "osf" {
		t.Errorf("tie should go to the closer neighbor's label, got %s", p.Label)
	}
}

func TestVoteTieWeighting(t *testing.T) {
	// A neighbor with two tied labels contributes half a vote to each.
	ns := []Neighbor{
		{Sample: sample("variance", "osf"), Dist: 0.1},
		{Sample: sample("schutz"), Dist: 0.1},
	}
	p := Vote(ns, 2)
	if p.Votes["variance"] != 0.5 || p.Votes["schutz"] != 1 {
		t.Errorf("votes = %v", p.Votes)
	}
	if p.Label != "schutz" {
		t.Errorf("label = %s, want schutz (full vote beats half votes)", p.Label)
	}
}

func TestVoteDeterministicLexicalTieBreak(t *testing.T) {
	ns := []Neighbor{
		{Sample: sample("b_measure"), Dist: 0.2},
		{Sample: sample("a_measure"), Dist: 0.2},
	}
	for i := 0; i < 5; i++ {
		p := Vote(append([]Neighbor(nil), ns...), 2)
		if p.Label != "a_measure" {
			t.Fatalf("fully tied vote should break lexically, got %s", p.Label)
		}
	}
}

// stubMetric measures distance as |len(labels of a) - steps| — it only
// needs to be deterministic for the classifier test.
type stubMetric struct{}

func (stubMetric) Name() string { return "stub" }
func (stubMetric) Distance(a, b *session.Context) float64 {
	if a == b {
		return 0
	}
	da := a.T - b.T
	if da < 0 {
		da = -da
	}
	return float64(da) / 10
}

func TestClassifierThresholdAndAbstention(t *testing.T) {
	samples := []*offline.Sample{
		{Context: &session.Context{T: 1}, Labels: []string{"variance"}},
		{Context: &session.Context{T: 2}, Labels: []string{"variance"}},
		{Context: &session.Context{T: 9}, Labels: []string{"osf"}},
	}
	clf := New(samples, stubMetric{}, Config{K: 2, ThetaDelta: 0.15})
	// Query near T=1/2: both variance samples within 0.15.
	p := clf.Predict(&session.Context{T: 1})
	if !p.Covered || p.Label != "variance" {
		t.Errorf("prediction = %+v", p)
	}
	// Query at T=5: nothing within 0.15 -> abstain.
	p = clf.Predict(&session.Context{T: 5})
	if p.Covered {
		t.Errorf("expected abstention, got %+v", p)
	}
	// θ_δ = +∞: must always cover.
	clfU := New(samples, stubMetric{}, Config{K: 1, ThetaDelta: math.Inf(1)})
	p = clfU.Predict(&session.Context{T: 5})
	if !p.Covered {
		t.Error("unbounded classifier must not abstain")
	}
	if len(clf.Samples()) != 3 {
		t.Error("Samples accessor wrong")
	}
}

func TestClassifierDefaultMetricAndK(t *testing.T) {
	// nil metric defaults to tree edit; k<1 coerced to 1; must not panic
	// on empty contexts.
	clf := New([]*offline.Sample{{Context: &session.Context{}, Labels: []string{"x"}}}, nil, Config{K: 0, ThetaDelta: math.Inf(1)})
	p := clf.Predict(&session.Context{})
	if !p.Covered || p.Label != "x" {
		t.Errorf("prediction = %+v", p)
	}
}
