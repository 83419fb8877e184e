package measures

import (
	"fmt"
	"sync"

	"repro/internal/stats"
)

// This file implements the paper's Section-5 extension direction:
// *subjective* interestingness measures that consult a model of the user's
// prior beliefs (following Liu et al. and De Bie). A BeliefBase encodes
// what the user expects specific column distributions to look like; the
// derived Surprisingness measure scores a display by how strongly its
// content violates those expectations. Unlike the objective Table-1
// measures, two users with different belief bases rank the same display
// differently.

// Belief is one expectation: the anticipated relative-frequency
// distribution of a column's values. Values absent from Expected are
// expected to be (near-)absent from the data.
type Belief struct {
	// Column the expectation concerns.
	Column string
	// Expected maps value (string form) -> expected relative frequency.
	// It is normalized on first use.
	Expected map[string]float64
	// Confidence in (0, 1] weights the belief's contribution; 0 means 1.
	Confidence float64
}

// BeliefBase is a user's set of expectations. It is safe for concurrent
// use once built.
type BeliefBase struct {
	mu      sync.RWMutex
	beliefs map[string]Belief
}

// NewBeliefBase builds a base from beliefs; later beliefs on the same
// column replace earlier ones.
func NewBeliefBase(beliefs ...Belief) *BeliefBase {
	b := &BeliefBase{beliefs: make(map[string]Belief, len(beliefs))}
	for _, bel := range beliefs {
		b.Add(bel)
	}
	return b
}

// Add inserts or replaces a belief.
func (b *BeliefBase) Add(bel Belief) {
	if bel.Confidence <= 0 || bel.Confidence > 1 {
		bel.Confidence = 1
	}
	b.mu.Lock()
	b.beliefs[bel.Column] = bel
	b.mu.Unlock()
}

// Columns returns the columns with registered expectations.
func (b *BeliefBase) Columns() []string {
	b.mu.RLock()
	defer b.mu.RUnlock()
	out := make([]string, 0, len(b.beliefs))
	for c := range b.beliefs {
		out = append(out, c)
	}
	return out
}

// get returns the belief for one column.
func (b *BeliefBase) get(column string) (Belief, bool) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	bel, ok := b.beliefs[column]
	return bel, ok
}

// SurprisingnessMeasure scores a display by the belief-weighted KL
// divergence between the observed distributions of believed-about columns
// and the user's expected distributions. Displays over columns the user
// holds no beliefs about score 0 (nothing to be surprised by). It belongs
// to the Peculiarity facet — surprise is subjective anomaly.
type SurprisingnessMeasure struct {
	// Beliefs is the user's belief base; a nil base always scores 0.
	Beliefs *BeliefBase
	// MeasureName allows several users' measures to coexist in one
	// registry; "" means "surprisingness".
	MeasureName string
}

// Name implements Measure.
func (m SurprisingnessMeasure) Name() string {
	if m.MeasureName != "" {
		return m.MeasureName
	}
	return "surprisingness"
}

// Class implements Measure.
func (SurprisingnessMeasure) Class() Class { return Peculiarity }

// Score implements Measure.
func (m SurprisingnessMeasure) Score(ctx *Context) float64 {
	if m.Beliefs == nil || ctx.Display == nil {
		return 0
	}
	total, weight := 0.0, 0.0
	for _, dist := range ctx.Distributions() {
		bel, ok := m.Beliefs.get(dist.Column)
		if !ok {
			continue
		}
		observed := make(map[string]float64, len(dist.Keys))
		for i, k := range dist.Keys {
			observed[k] = dist.P[i]
		}
		po, pe := stats.AlignedDistributions(observed, bel.Expected)
		total += bel.Confidence * stats.KLDivergence(po, pe, 1e-6)
		weight += bel.Confidence
	}
	if weight == 0 {
		return 0
	}
	return total / weight
}

// LearnBeliefs builds a belief base from a reference display — "the user
// has internalized the dataset's overall shape" — so that surprisingness
// against it behaves like an expectation-calibrated deviation measure.
// Columns with more than maxCardinality distinct values are skipped
// (users do not hold per-value beliefs about packet ids).
func LearnBeliefs(ctx *Context, maxCardinality int, confidence float64) (*BeliefBase, error) {
	if ctx == nil || ctx.Display == nil {
		return nil, fmt.Errorf("measures: LearnBeliefs needs a display")
	}
	if maxCardinality <= 0 {
		maxCardinality = 32
	}
	base := NewBeliefBase()
	prof := ctx.Display.GetProfile()
	for _, cp := range prof.Columns {
		if cp.Distinct > maxCardinality {
			continue
		}
		h := cp.Freq()
		expected := make(map[string]float64, h.Len())
		for i, w := range h.Weights {
			expected[h.Key(i)] = w
		}
		base.Add(Belief{Column: cp.Name, Expected: expected, Confidence: confidence})
	}
	if len(base.Columns()) == 0 {
		return nil, fmt.Errorf("measures: no learnable columns (all exceed cardinality %d)", maxCardinality)
	}
	return base, nil
}
