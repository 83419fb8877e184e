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
	mMemoWaits  = obs.C("distance.memo.waits")
	mMemoSize   = obs.G("distance.memo.size")
)

// displayPair keys a memoized unordered display-distance lookup.
type displayPair struct{ a, b *engine.Display }

// inflight tracks one in-progress ground-metric computation so that
// concurrent misses on the same pair wait for the first computation
// instead of duplicating it (a singleflight per key).
type inflight struct {
	done chan struct{}
	v    float64
}

// Memo caches display-distance computations across many tree-edit calls.
// Displays repeat heavily across n-contexts (every context of a session
// shares node displays; most contexts contain the dataset's root display),
// so memoizing the display ground metric turns the O(pairs) distance-matrix
// construction from minutes into seconds. Memo is safe for concurrent use;
// concurrent misses on the same pair compute the ground metric exactly
// once.
type Memo struct {
	mu      sync.RWMutex
	m       map[displayPair]float64
	pending map[displayPair]*inflight
	// ground overrides the ground metric; nil means DisplayDistance.
	// Tests inject counting/blocking metrics through it.
	ground func(a, b *engine.Display) float64
}

// NewMemo returns an empty cache.
func NewMemo() *Memo {
	return &Memo{
		m:       make(map[displayPair]float64),
		pending: make(map[displayPair]*inflight),
	}
}

// DisplayDistance is the memoized ground metric.
func (c *Memo) DisplayDistance(a, b *engine.Display) float64 {
	if a == b {
		return 0
	}
	key := displayPair{a, b}
	if uintptrLess(b, a) {
		key = displayPair{b, a}
	}
	c.mu.RLock()
	v, ok := c.m[key]
	c.mu.RUnlock()
	if ok {
		if obs.On() {
			mMemoHits.Inc()
		}
		return v
	}

	// Miss: either claim the computation or wait for whoever did. The
	// cached-value recheck under the write lock closes the window between
	// the RUnlock above and the Lock here.
	c.mu.Lock()
	if v, ok := c.m[key]; ok {
		c.mu.Unlock()
		mMemoHits.Inc()
		return v
	}
	if fl, ok := c.pending[key]; ok {
		c.mu.Unlock()
		mMemoWaits.Inc()
		<-fl.done
		return fl.v
	}
	fl := &inflight{done: make(chan struct{})}
	c.pending[key] = fl
	c.mu.Unlock()

	mMemoMisses.Inc()
	ground := c.ground
	if ground == nil {
		ground = DisplayDistance
	}
	fl.v = ground(a, b)

	c.mu.Lock()
	c.m[key] = fl.v
	delete(c.pending, key)
	size := len(c.m)
	c.mu.Unlock()
	mMemoSize.Set(int64(size))
	close(fl.done)
	return fl.v
}

// uintptrLess gives a stable order over two display pointers so (a,b) and
// (b,a) share one cache slot. Any consistent order works; we compare the
// addresses via fmt-free reflection-free trickery: Go guarantees pointer
// comparability but not ordering, so we fall back to comparing through a
// map-insertion-free identity — the pair is simply stored under both
// orders when ordering is unavailable. To keep it simple and portable we
// order by the displays' row counts and, on ties, keep the given order
// (storing at most two entries per unordered pair, still bounded).
func uintptrLess(a, b *engine.Display) bool {
	return a.NumRows() < b.NumRows()
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
