package knn

import (
	"math"
	"reflect"
	"runtime"
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

// TestHugeKAllocatesBySamples: a model's k sizes no allocation beyond
// what its samples can fill. One Predict on a 3-sample classifier at
// k = 1,000,000, and the merge of two 3-candidate lists at that k, each
// allocate under 1 MB, and answer as at k = 3.
func TestHugeKAllocatesBySamples(t *testing.T) {
	samples := []*offline.Sample{
		{Context: &session.Context{T: 1}, Labels: []string{"variance"}},
		{Context: &session.Context{T: 2}, Labels: []string{"osf"}},
		{Context: &session.Context{T: 9}, Labels: []string{"osf"}},
	}
	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	const huge = 1_000_000
	q := &session.Context{T: 3}
	want := New(samples, stubMetric{}, Config{K: 3, ThetaDelta: math.Inf(1)}).Predict(q)
	clf := New(samples, stubMetric{}, Config{K: huge, ThetaDelta: math.Inf(1)})
	var got Prediction
	if b := allocated(func() { got = clf.Predict(q) }); b >= 1<<20 {
		t.Errorf("Predict at k = %d allocated %d bytes, want under 1 MB", huge, b)
	}
	if got.Label != want.Label || !reflect.DeepEqual(got.Votes, want.Votes) || len(got.Neighbors) != len(want.Neighbors) {
		t.Errorf("k = %d answered %+v, k = 3 answered %+v", huge, got, want)
	}
	a, b := candidates(t, clf, q, clf.Config().ScanLimit()), candidates(t, clf, &session.Context{T: 8}, clf.Config().ScanLimit())
	var merged []Candidate
	if n := allocated(func() { merged = MergeCandidates(huge, a, b) }); n >= 1<<20 {
		t.Errorf("MergeCandidates at k = %d allocated %d bytes, want under 1 MB", huge, n)
	}
	if !reflect.DeepEqual(merged, MergeCandidates(3, a, b)) {
		t.Errorf("merge at k = %d: %+v, at k = 3: %+v", huge, merged, MergeCandidates(3, a, b))
	}
}
