package serve

// Admission control (DESIGN.md §13) is a fixed in-flight bound: a
// request that finds every slot taken is shed at once with 503 and a
// Retry-After of 1s (10s while draining) instead of queueing behind the
// others.
//
// Priority admission is structural rather than a queue discipline:
// only the prediction/candidates paths acquire limiter slots, so
// /healthz, /readyz, /metrics and /v1/admin/* are never shed behind
// predict load — an orchestrator can always see a saturated server as
// alive, and an operator can always reach it.

// limiter is a semaphore that never queues; its capacity is the
// resolved MaxInFlight.
type limiter chan struct{}

func newLimiter(maxInFlight int) limiter { return make(limiter, maxInFlight) }

// tryAcquire claims a slot without queueing; false means shed now.
func (l limiter) tryAcquire() bool {
	select {
	case l <- struct{}{}:
		return true
	default:
		return false
	}
}

// release returns a slot; releasing an empty limiter is a no-op.
func (l limiter) release() {
	select {
	case <-l:
	default:
	}
}
