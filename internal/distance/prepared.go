package distance

import (
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/session"
)

// The evaluator is the package's one Zhang-Shasha implementation.
// TreeEdit.Distance wraps it for one-off pairs; the kNN scan, which
// evaluates one query against every training context, uses it directly so
// the per-pair overheads amortize: the training contexts' flattenings
// never change (Prepare, once per context), the query's is shared by the
// whole scan (NewEvaluator, once per query), and the dynamic-program
// scratch is reused between evaluations.

// Telemetry handles for the bounded path: bounded_calls counts
// DistanceWithin invocations, early_abandon those the action bound
// rejected before any display distance was computed — the early-abandon
// hit rate of the kNN scan. An evaluator tallies them locally and adds
// them in one write per counter (Flush).
var (
	mBoundedCalls = obs.C("distance.treeedit.bounded_calls")
	mEarlyAbandon = obs.C("distance.treeedit.early_abandon")
)

// Prepared is one context's cached flattening, reusable across any
// number of distance evaluations and safe for concurrent use (it is
// never mutated after Prepare).
type Prepared struct {
	ft *flatTree
}

// Prepare flattens c once for repeated evaluations against it.
func (m TreeEdit) Prepare(c *session.Context) *Prepared {
	return &Prepared{ft: flatten(c)}
}

// Evaluator evaluates bounded distances from one fixed query context
// against prepared contexts, reusing the dynamic-program matrices
// between calls. Not safe for concurrent use — each search goroutine
// builds its own.
type Evaluator struct {
	q    *flatTree
	memo *Memo
	// timing is obs.Timing() at construction: under ModeTiming every
	// DistanceWithin call records its latency.
	timing bool
	// Telemetry tallies since the last Flush: DistanceWithin calls,
	// early abandons and display distances computed.
	bounded, abandoned, displays uint64
	// Scratch matrices, grown on demand: td holds subtree distances, fd
	// forest distances, rel the relabel cost of every node pair.
	td, fd, rel [][]float64
}

// NewEvaluator flattens the query once.
func (m TreeEdit) NewEvaluator(q *session.Context) *Evaluator {
	return &Evaluator{q: flatten(q), memo: m.Memo, timing: obs.Timing()}
}

// Flush adds the evaluator's telemetry tallies to the shared counters
// (distance.treeedit.bounded_calls and .calls, .early_abandon,
// distance.display.calls) and zeroes them, so a scan writes each shared
// counter once rather than once per candidate. The kNN scan flushes once
// per range it scans.
func (e *Evaluator) Flush() {
	addNonZero(mBoundedCalls, e.bounded)
	addNonZero(mTreeEditCalls, e.bounded)
	addNonZero(mEarlyAbandon, e.abandoned)
	addNonZero(mDisplayDistCalls, e.displays)
	e.bounded, e.abandoned, e.displays = 0, 0, 0
}

func addNonZero(c *obs.Counter, n uint64) {
	if n > 0 {
		c.Add(n)
	}
}

// DistanceWithin returns (d, true) with the exact distance from the query
// to p when d <= bound, else (lb, false) with lb a lower bound on the
// true distance, not the distance itself. One test can abandon a pair
// before the exact dynamic program runs: the same dynamic program with
// relabel cost 0.5·ActionDistance. The real relabel cost adds
// 0.5·DisplayDistance >= 0 to every pair, so no edit script costs less
// under the real costs, and the program's only operations — + and min
// over the same cells — are monotone under IEEE rounding: the computed
// action-only distance never exceeds the computed exact one. It runs
// before any display distance is computed, which is where the time goes.
//
// It abandons only when its bound strictly exceeds `bound`, so pairs at
// the bound are computed exactly and a scan's ties survive. Whenever
// (d, true) is returned, d carries the exact distance's float bits.
func (e *Evaluator) DistanceWithin(p *Prepared, bound float64) (float64, bool) {
	e.bounded++
	if e.timing {
		t0 := time.Now()
		defer mTreeEditNS.ObserveSince(t0)
	}
	return e.within(p, bound)
}

// within is DistanceWithin without the call tally; Distance runs it
// unbounded.
func (e *Evaluator) within(p *Prepared, bound float64) (float64, bool) {
	ta, tb := e.q, p.ft
	if d, done := degenerateDistance(ta, tb); done {
		return d, d <= bound
	}
	e.grow(len(ta.nodes), len(tb.nodes))
	e.actionCosts(tb)
	// A normalized distance never exceeds 1, so a bound of 1 or more
	// cannot abandon.
	if bound < 1 {
		if lb := e.run(tb); lb > bound {
			e.abandoned++
			return lb, false
		}
	}
	e.addDisplayCosts(tb)
	d := e.run(tb)
	return d, d <= bound
}

// actionCosts sets every node pair's relabel cost to its action half,
// 0.5·ActionDistance — the action bound's cost model.
func (e *Evaluator) actionCosts(tb *flatTree) {
	for i, a := range e.q.nodes {
		row := e.rel[i]
		for j, b := range tb.nodes {
			row[j] = 0.5 * ActionDistance(a.Action, b.Action)
		}
	}
}

// addDisplayCosts completes actionCosts' relabel costs to NodeDistance's
// full 0.5·ActionDistance + 0.5·DisplayDistance, with the same float
// operations in the same order.
func (e *Evaluator) addDisplayCosts(tb *flatTree) {
	for i, a := range e.q.nodes {
		row := e.rel[i]
		for j, b := range tb.nodes {
			row[j] += 0.5 * e.displayDistance(a.Display, b.Display)
		}
	}
}

// displayDistance is the display half of a relabel cost. A display
// compared with itself costs 0 without a computation, as in the Memo:
// DisplayDistance is not reflexive for a display without columns (0.4).
func (e *Evaluator) displayDistance(a, b *engine.Display) float64 {
	if e.memo != nil {
		return e.memo.DisplayDistance(a, b)
	}
	if a == b {
		return 0
	}
	e.displays++
	return displayDistance(a, b)
}

// run evaluates the dynamic program against tb under the relabel costs
// currently in rel and normalizes the result by the cost of deleting one
// tree and inserting the other, so distances fall in [0, 1].
func (e *Evaluator) run(tb *flatTree) float64 {
	d := e.zhangShasha(e.q, tb) / float64(len(e.q.nodes)+len(tb.nodes))
	if d > 1 {
		d = 1
	}
	return d
}

// zhangShasha runs the dynamic program over reused scratch with the
// relabel costs currently in rel. The recurrences write every cell they
// read within one treeDist call except the subtree-distance matrix,
// whose cross-keyroot reads are always of previously written cells; it
// is still zeroed per run so a reuse bug could never silently change a
// distance.
func (e *Evaluator) zhangShasha(ta, tb *flatTree) float64 {
	n, m := len(ta.nodes), len(tb.nodes)
	for i := 0; i < n; i++ {
		clear(e.td[i][:m])
	}
	for _, i := range ta.keyroots {
		for _, j := range tb.keyroots {
			e.treeDist(ta, tb, i, j)
		}
	}
	return e.td[n-1][m-1]
}

// treeDist fills the forest distances between the subtrees rooted at
// keyroots i and j, recording every subtree-pair distance it completes.
func (e *Evaluator) treeDist(ta, tb *flatTree, i, j int) {
	td, fd := e.td, e.fd
	li, lj := ta.leftmost[i], tb.leftmost[j]
	// fd indices are offsets: fd[a][b] = distance between forests
	// ta[li..li+a-1] and tb[lj..lj+b-1].
	ni, nj := i-li+1, j-lj+1

	fd[0][0] = 0
	for a := 1; a <= ni; a++ {
		fd[a][0] = fd[a-1][0] + 1
	}
	for b := 1; b <= nj; b++ {
		fd[0][b] = fd[0][b-1] + 1
	}
	for a := 1; a <= ni; a++ {
		for b := 1; b <= nj; b++ {
			ia := li + a - 1 // node index in ta
			jb := lj + b - 1 // node index in tb
			if ta.leftmost[ia] == li && tb.leftmost[jb] == lj {
				// Both forests are trees rooted at ia / jb.
				fd[a][b] = min3(
					fd[a-1][b]+1,
					fd[a][b-1]+1,
					fd[a-1][b-1]+e.rel[ia][jb],
				)
				td[ia][jb] = fd[a][b]
			} else {
				fd[a][b] = min3(
					fd[a-1][b]+1,
					fd[a][b-1]+1,
					fd[ta.leftmost[ia]-li][tb.leftmost[jb]-lj]+td[ia][jb],
				)
			}
		}
	}
}

// grow ensures the scratch matrices cover an n x m problem (fd needs one
// extra row and column for the empty-forest borders).
func (e *Evaluator) grow(n, m int) {
	if len(e.td) >= n && len(e.td[0]) >= m {
		return
	}
	rows, cols := max(n, len(e.td)), m
	if len(e.td) > 0 {
		cols = max(cols, len(e.td[0]))
	}
	e.td, e.rel, e.fd = matrix(rows, cols), matrix(rows, cols), matrix(rows+1, cols+1)
}

func matrix(rows, cols int) [][]float64 {
	out := make([][]float64, rows)
	for i := range out {
		out[i] = make([]float64, cols)
	}
	return out
}
