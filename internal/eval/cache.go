package eval

import (
	"context"
	"sync"

	"repro/internal/distance"
	"repro/internal/measures"
	"repro/internal/offline"
)

// DistanceCache shares pairwise context-distance matrices across EvalSets.
// The samples of an EvalSet depend on (repository, n, method) but NOT on
// the measure configuration I — BuildTrainingSet with θ_I = -∞ keeps every
// labeled state in deterministic order — so the 16-configuration sweeps of
// Table 5 / Figures 4-5 can reuse one matrix per (n, method) instead of
// recomputing hundreds of thousands of tree edit distances per
// configuration.
type DistanceCache struct {
	// Metric is the underlying context metric (shared display memo
	// included when built via NewDistanceCache). With Workers != 1 it must
	// be safe for concurrent use; the default memoized tree edit metric is.
	Metric distance.Metric

	// Workers bounds the matrix-fill and neighbor-sort fan-out on cache
	// misses, and is inherited by the EvalSets built through this cache:
	// <1 means one worker per CPU, 1 forces the sequential path. Matrices
	// are bit-identical at every setting.
	Workers int

	mu sync.Mutex
	m  map[cacheKey]*cachedDistances
}

type cacheKey struct {
	n      int
	method offline.Method
}

type cachedDistances struct {
	dist      [][]float64
	neighbors [][]int32
	signature []*offline.Sample // used only for a cheap alignment check
}

// NewDistanceCache builds a cache around a memoized tree edit metric.
func NewDistanceCache() *DistanceCache {
	return &DistanceCache{
		Metric: distance.NewMemoizedTreeEdit(nil),
		m:      make(map[cacheKey]*cachedDistances),
	}
}

// distancesFor returns (possibly cached) pairwise distances and sorted
// neighbor lists for the samples of one (n, method) slot. If a cached
// entry's sample count mismatches (which would mean the caller's training
// set diverged), it is recomputed rather than trusted.
func (c *DistanceCache) distancesFor(ctx context.Context, n int, method offline.Method, samples []*offline.Sample) ([][]float64, [][]int32, error) {
	if c == nil {
		metric := distance.NewMemoizedTreeEdit(nil)
		d, err := PairwiseDistances(ctx, samples, metric, 1)
		if err != nil {
			return nil, nil, err
		}
		nb, err := sortNeighbors(ctx, d, 1)
		return d, nb, err
	}
	key := cacheKey{n: n, method: method}
	c.mu.Lock()
	entry := c.m[key]
	c.mu.Unlock()
	if entry != nil && len(entry.signature) == len(samples) {
		ok := true
		for i := range samples {
			// Contexts are freshly extracted per training set, so compare
			// by originating state instead of pointer identity.
			if entry.signature[i].State != samples[i].State {
				ok = false
				break
			}
		}
		if ok {
			return entry.dist, entry.neighbors, nil
		}
	}
	d, err := PairwiseDistances(ctx, samples, c.Metric, c.Workers)
	if err != nil {
		return nil, nil, err
	}
	nb, err := sortNeighbors(ctx, d, c.Workers)
	if err != nil {
		return nil, nil, err
	}
	c.mu.Lock()
	c.m[key] = &cachedDistances{dist: d, neighbors: nb, signature: samples}
	c.mu.Unlock()
	return d, nb, nil
}

// BuildEvalSetCached is BuildEvalSet with distance-matrix sharing. The
// EvalSet inherits the cache's Workers setting for its own LOOCV fan-out.
func BuildEvalSetCached(a *offline.Analysis, I measures.Set, method offline.Method, n int, cache *DistanceCache) *EvalSet {
	es, _ := BuildEvalSetCachedCtx(nil, a, I, method, n, cache)
	return es
}

// BuildEvalSetCachedCtx is BuildEvalSetCached with cancellation: a
// canceled ctx aborts the distance-matrix fill or neighbor sort and
// returns the typed stage error (the partially built EvalSet is
// discarded, never cached).
func BuildEvalSetCachedCtx(ctx context.Context, a *offline.Analysis, I measures.Set, method offline.Method, n int, cache *DistanceCache) (*EvalSet, error) {
	es := buildSamplesOnly(a, I, method, n)
	var err error
	es.Dist, es.neighbors, err = cache.distancesFor(ctx, n, method, es.Samples)
	if err != nil {
		return nil, err
	}
	if cache != nil {
		es.Workers = cache.Workers
	}
	return es, nil
}
