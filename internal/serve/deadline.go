package serve

import (
	"context"
	"math"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Deadline budget propagation (DESIGN.md §13). A caller that will stop
// waiting at T gains nothing from work finishing at T+ε — it only costs
// the tier capacity. So the budget travels with the request: clients
// stamp X-Deadline-Ms with how long they will wait, every hop debits its
// own elapsed time by deriving child contexts from the budgeted one, and
// each server admits a request only if the remaining budget plausibly
// covers its own service time (a latency-EWMA estimate). A request that
// cannot finish in time is failed *fast* with 504 — retryable, cheap,
// and honest — instead of slowly with a timeout the caller no longer
// observes.

// DeadlineHeader carries the remaining request budget in integer
// milliseconds. Absent or malformed means "no budget": the server
// behaves exactly as before the header existed.
const DeadlineHeader = "X-Deadline-Ms"

var (
	mDeadlineRejected = obs.C("serve.deadline_rejected")
	mDeadlineExceeded = obs.C("serve.deadline_exceeded")
)

// parseDeadline reads the request's remaining budget. ok=false means no
// (usable) budget was stamped — absent, not an integer, or too large for
// a time.Duration; a non-positive budget is reported as ok with zero
// remaining, which admission rejects.
func parseDeadline(r *http.Request) (time.Duration, bool) {
	ms, err := strconv.ParseInt(r.Header.Get(DeadlineHeader), 10, 64)
	if err != nil || ms > math.MaxInt64/int64(time.Millisecond) {
		return 0, false
	}
	return time.Duration(max(ms, 0)) * time.Millisecond, true
}

// latEstimator is a lock-free EWMA of observed service time — the
// "can this request plausibly finish in its budget" estimate admission
// compares against. Stored as float bits in an atomic with CAS so the
// request path never takes a lock for it.
type latEstimator struct {
	bits atomic.Uint64
}

const estAlpha = 0.2

func (e *latEstimator) observe(d time.Duration) {
	ns := float64(d)
	if ns < 0 {
		return
	}
	for {
		old := e.bits.Load()
		cur := math.Float64frombits(old)
		next := ns
		if old != 0 {
			next = estAlpha*ns + (1-estAlpha)*cur
		}
		if e.bits.CompareAndSwap(old, math.Float64bits(next)) {
			return
		}
	}
}

func (e *latEstimator) estimate() time.Duration {
	return time.Duration(math.Float64frombits(e.bits.Load()))
}

// admitDeadline applies budget admission for one request: no header
// means no budget (ctx returned unchanged); a budget below the server's
// service-time estimate is rejected with a retryable 504 before any work
// happens; otherwise the returned context carries the budget as its
// deadline so downstream work (knn scans, replica calls) is cancelled
// the moment the budget runs out. Callers must run the returned cancel.
func admitDeadline(w http.ResponseWriter, r *http.Request, est *latEstimator, tr *obs.Trace) (context.Context, context.CancelFunc, bool) {
	budget, ok := parseDeadline(r)
	if !ok {
		return r.Context(), func() {}, true
	}
	if e := est.estimate(); budget <= 0 || (e > 0 && budget < e) {
		mDeadlineRejected.Inc()
		tr.Rung("serve.budget_exhausted")
		writeJSON(w, http.StatusGatewayTimeout, errorResponse{
			Error: "deadline budget " + budget.String() + " below estimated service time " + est.estimate().String(),
		})
		return nil, nil, false
	}
	ctx, cancel := context.WithTimeout(r.Context(), budget)
	return ctx, cancel, true
}

// deadlineExceeded writes the mid-flight budget exhaustion response: the
// request was admitted but its budget ran out before the work finished.
func deadlineExceeded(w http.ResponseWriter, tr *obs.Trace) {
	mDeadlineExceeded.Inc()
	tr.Rung("serve.deadline_exceeded")
	writeJSON(w, http.StatusGatewayTimeout, errorResponse{Error: "deadline budget exhausted mid-request"})
}

// stampDeadline writes the remaining budget of ctx onto an outbound
// request, rounding down: claiming more budget than remains would defeat
// the downstream fast-fail. No deadline, no header.
func stampDeadline(req *http.Request, ctx context.Context) {
	dl, ok := ctx.Deadline()
	if !ok {
		return
	}
	ms := time.Until(dl).Milliseconds()
	if ms < 0 {
		ms = 0
	}
	req.Header.Set(DeadlineHeader, strconv.FormatInt(ms, 10))
}
