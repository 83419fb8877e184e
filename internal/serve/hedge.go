package serve

import (
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/ring"
)

// Hedged replica requests (DESIGN.md §13, after Dean & Barroso): the
// p99 of a fan-out is hostage to its slowest shard, and sequential
// failover only helps once the straggler *fails* — a gray-slow replica
// never does. So when a shard call outlives the shard's typical latency
// (rolling p95 of recent winners), the router fires ONE hedge at the
// next replica in health-preference order and takes whichever answer
// lands first, cancelling the loser. Correctness is free: replicas are
// deterministic over the same snapshot, and the merge dedups by global
// index, so a hedged answer is bit-identical to an unhedged one.
//
// Two brakes keep hedging from becoming the retry storm it defends
// against: the delay never drops below a floor (hedging the median
// would double traffic for nothing), and fired hedges are capped at a
// fraction of shard calls — when the whole tier is slow, p95-triggered
// hedges would otherwise fire on every call exactly when spare capacity
// is gone.
var (
	mHedgeFired     = obs.C("ring.hedge.fired")
	mHedgeWon       = obs.C("ring.hedge.won")
	mHedgeCancelled = obs.C("ring.hedge.cancelled")
	mHedgeCapped    = obs.C("ring.hedge.capped")
)

const (
	// hedgeMinSamples is how many winner latencies a shard's window needs
	// before its p95 is trusted over the floor.
	hedgeMinSamples = 8
	// hedgeDelayFloor is the minimum time a shard call must run before a
	// hedge may fire, and the pacing delay until the window warms up.
	hedgeDelayFloor = 5 * time.Millisecond
	// hedgeDelayCeil caps the pacing delay so a shard whose p95 has
	// drifted high still hedges usefully.
	hedgeDelayCeil = replicaTimeout / 2
)

// hedgePacer owns the two hedging decisions: when a shard call has run
// long enough to hedge (delay), and whether the fraction cap still
// permits one (tryHedge).
type hedgePacer struct {
	fraction float64

	mu     sync.Mutex
	wins   map[int]*ring.LatencyWindow // per-shard winner latency
	calls  uint64
	hedges uint64
}

func newHedgePacer(fraction float64) *hedgePacer {
	return &hedgePacer{fraction: fraction, wins: make(map[int]*ring.LatencyWindow)}
}

// startCall records one shard call beginning (the denominator of the
// fraction cap).
func (p *hedgePacer) startCall() {
	p.mu.Lock()
	p.calls++
	p.mu.Unlock()
}

// delay is how long a shard call may run before a hedge fires: the
// shard's rolling p95 winner latency, clamped to [hedgeDelayFloor,
// hedgeDelayCeil]. Until the window has hedgeMinSamples the floor is
// used — early traffic should not hedge off two lucky samples.
func (p *hedgePacer) delay(shard int) time.Duration {
	p.mu.Lock()
	w := p.wins[shard]
	p.mu.Unlock()
	d := hedgeDelayFloor
	if w.Count() >= hedgeMinSamples {
		if q := w.Quantile(0.95); q > d {
			d = q
		}
	}
	return min(d, hedgeDelayCeil)
}

// tryHedge consumes hedge budget under the fraction cap, reporting
// whether the hedge may fire. A refused hedge bumps ring.hedge.capped.
func (p *hedgePacer) tryHedge() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if float64(p.hedges+1) > p.fraction*float64(p.calls) {
		mHedgeCapped.Inc()
		return false
	}
	p.hedges++
	return true
}

// observeWin feeds one shard call's winning latency into the pacing
// window. Recording winners (not losers) is what makes the delay
// self-stabilizing: once hedging routes around a slow replica, the
// shard's p95 reflects the fast path and stays low, instead of learning
// the straggler's latency and pacing itself out of firing.
func (p *hedgePacer) observeWin(shard int, d time.Duration) {
	p.mu.Lock()
	w := p.wins[shard]
	if w == nil {
		w = ring.NewLatencyWindow(64)
		p.wins[shard] = w
	}
	p.mu.Unlock()
	w.Observe(d)
}
