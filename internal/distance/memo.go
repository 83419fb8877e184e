package distance

import (
	"sync"

	"repro/internal/engine"
	"repro/internal/obs"
)

// Telemetry handles, hoisted so the hot path never touches the registry.
var (
	mMemoHits   = obs.C("distance.memo.hits")
	mMemoMisses = obs.C("distance.memo.misses")
	mMemoSize   = obs.G("distance.memo.size")
)

// displayPair keys a memoized display-distance lookup.
type displayPair struct{ a, b *engine.Display }

// pairKey orders a pair so that (a, b) and (b, a) share one key: a nil
// display first, then the display with fewer rows. Go pointers have no
// order, so two displays with equal row counts keep the given order and
// their pair may take two entries.
func pairKey(a, b *engine.Display) displayPair {
	if b == nil || (a != nil && b.NumRows() < a.NumRows()) {
		return displayPair{b, a}
	}
	return displayPair{a, b}
}

// Memo caches display-distance computations across many tree-edit calls.
// Displays repeat heavily across n-contexts (every context of a session
// shares node displays; most contexts contain the dataset's root display),
// so memoizing the display ground metric turns the O(pairs) distance-matrix
// construction from minutes into seconds. Memo is safe for concurrent use.
// Concurrent misses on one key each compute it, in the key's order, so
// every stored value is the same function of its key.
type Memo struct {
	mu sync.RWMutex
	m  map[displayPair]float64
}

// NewMemo returns an empty cache.
func NewMemo() *Memo {
	return &Memo{m: make(map[displayPair]float64)}
}

// DisplayDistance is the memoized ground metric. A display compared with
// itself costs 0 without a computation: DisplayDistance is not reflexive
// for a display without columns (0.4).
func (c *Memo) DisplayDistance(a, b *engine.Display) float64 {
	if a == b {
		return 0
	}
	key := pairKey(a, b)
	c.mu.RLock()
	v, ok := c.m[key]
	c.mu.RUnlock()
	if ok {
		mMemoHits.Inc()
		return v
	}
	mMemoMisses.Inc()
	v = DisplayDistance(key.a, key.b)
	c.mu.Lock()
	c.m[key] = v
	size := len(c.m)
	c.mu.Unlock()
	mMemoSize.Set(int64(size))
	return v
}

// Size returns the number of cached pairs.
func (c *Memo) Size() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.m)
}

// NewMemoizedTreeEdit returns a TreeEdit metric whose display ground metric
// is memoized through the given cache (a nil cache allocates a fresh one).
func NewMemoizedTreeEdit(cache *Memo) TreeEdit {
	if cache == nil {
		cache = NewMemo()
	}
	return TreeEdit{Memo: cache}
}
