package knn

import (
	"context"

	"repro/internal/parallel"
	"repro/internal/session"
)

// Candidate is one nearest-neighbor candidate in wire-friendly form: the
// training sample's index, its distance from the query, and the sample's
// labels — everything the vote reads, nothing more. It is the unit the
// sharded serving tier ships from replicas to the router (DESIGN.md §11):
// a replica scans only its shard and returns its local top-k as
// Candidates; the router merges the per-shard lists and votes.
//
// Index is an opaque tie-break key to this package. For the distributed
// merge to be bit-identical to a single-process scan, every shard must
// report indexes from the same global numbering (the serving layer maps
// shard-local positions back to training order before merging).
type Candidate struct {
	Index  int      `json:"index"`
	Dist   float64  `json:"dist"`
	Labels []string `json:"labels,omitempty"`
}

// Candidates scans the classifier's whole training set and returns its
// top-k nearest candidates within limit (dist ≤ limit) in ascending
// (dist, index) order. A caller that will decide the list under cfg
// passes cfg.ScanLimit(): the θ_δ-gated top-k is the dist ≤ θ_δ prefix of
// any wider top-k (the gate preserves (dist, index) order, and a sample
// inside the gate that misses a wider top-k is beaten by k closer samples
// that are also inside), so a list scanned under θ_δ decides the gated
// vote exactly, and +∞ also serves FallbackNearest's re-vote.
//
// Indexes are positions in this classifier's own sample slice. A ctx
// that ends mid-scan stops it and returns the "knn.predict" stage error;
// a nil ctx never cancels.
func (c *Classifier) Candidates(ctx context.Context, query *session.Context, limit float64) ([]Candidate, error) {
	return c.scan(ctx, query, limit, parallel.Workers(c.cfg.Workers))
}

// MergeCandidates folds per-shard candidate lists into the global top-k
// in ascending (dist, index) order. Each shard's list holds the best k of
// its partition, so the union provably contains the global top-k; the
// merge order is fixed by candidate keys, never by arrival order. The
// same argument covers a chunked scan's per-worker lists, which merge
// here too.
//
// Lists are deduplicated by training index before selection: replica
// failover can surface the same index in more than one list (a replica
// answering from a stale snapshot still reports the shard another node
// now also covers), and offering duplicates to the heap let one index
// occupy two of the k slots — and let whichever list arrived last pick
// the kept payload at equal distances. Deduped, every offered (dist,
// index) key is unique, so the kept set is a pure k-minimum under a
// strict total order: fixed by the keys, never by which replica answered
// first. Disagreeing duplicates keep the closest copy — the one the
// matching single-process scan would have measured.
func MergeCandidates(k int, lists ...[]Candidate) []Candidate {
	total := 0
	for _, list := range lists {
		total += len(list)
	}
	byIndex := make(map[int]Candidate, total)
	for _, list := range lists {
		for _, cd := range list {
			if old, ok := byIndex[cd.Index]; !ok || cd.Dist < old.Dist {
				byIndex[cd.Index] = cd
			}
		}
	}
	merged := newTopK(k, len(byIndex))
	for _, cd := range byIndex {
		merged.add(cd)
	}
	return merged.drain()
}

// PredictFromCandidates decides an ascending candidate list: θ_δ gate,
// tie-weighted vote, then the fallback rung. It is the one decision of
// every prediction — Classifier.Predict decides its own scan's list with
// it — so given the global top-k within cfg.ScanLimit() or any wider
// limit (MergeCandidates over every shard's Candidates) and the model's
// own Config and prior, the result is bit-identical to Classifier.Predict
// on the undivided training set.
//
// The returned Prediction carries no Neighbors — the caller holds
// candidates, not samples.
func PredictFromCandidates(sorted []Candidate, cfg Config, prior string) Prediction {
	p, _ := predictFromCandidates(sorted, cfg, prior)
	return p
}

// predictFromCandidates is PredictFromCandidates, also returning the
// candidates the deciding vote ran over: the in-process path lists them
// as the prediction's Neighbors.
func predictFromCandidates(sorted []Candidate, cfg Config, prior string) (Prediction, []Candidate) {
	// The list is ascending by distance, so the gate is a prefix.
	gated := sorted
	for i, cd := range sorted {
		if cd.Dist > cfg.ThetaDelta {
			gated = sorted[:i]
			break
		}
	}
	p := voteCandidates(gated)
	if p.Covered {
		return p, gated
	}
	switch cfg.Fallback {
	case FallbackNearest:
		if np := voteCandidates(sorted); np.Covered {
			np.Fallback = true
			return np, sorted
		}
	case FallbackPrior:
		if prior != "" {
			p.Label = prior
			p.Covered = true
			p.Fallback = true
		}
	}
	return p, gated
}

// voteCandidates tallies the tie-weighted vote over an already-selected,
// nearest-first candidate list: every vote, in process or router-side,
// runs this arithmetic.
func voteCandidates(sorted []Candidate) Prediction {
	if len(sorted) == 0 {
		return Prediction{Covered: false}
	}
	votes := make(map[string]float64, 4)
	closeness := make(map[string]float64, 4)
	for _, cd := range sorted {
		if len(cd.Labels) == 0 {
			continue
		}
		w := 1 / float64(len(cd.Labels))
		for _, l := range cd.Labels {
			votes[l] += w
			closeness[l] += (1 - cd.Dist) * w
		}
	}
	if len(votes) == 0 {
		return Prediction{Covered: false}
	}
	best := ""
	for l := range votes {
		if best == "" {
			best = l
			continue
		}
		switch {
		case votes[l] > votes[best]:
			best = l
		case votes[l] == votes[best]:
			if closeness[l] > closeness[best] || (closeness[l] == closeness[best] && l < best) {
				best = l
			}
		}
	}
	return Prediction{Label: best, Votes: votes, Covered: true}
}
