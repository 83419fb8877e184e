package offline

import (
	"context"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/measures"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/pipeline"
	"repro/internal/session"
	"repro/internal/stats"
)

// Telemetry handles for the Reference-Based pass: how many reference sets
// were enumerated, how many alternative actions they contained, how the
// per-(parent, action) execution cache behaved, and how many actions were
// skipped for lacking a meaningful comparison base. The last three count
// the degradation ladder at work: executions that overran the RefBudget,
// executions lost to faults (injected or recovered panics) after retries,
// and actions rescued by the normalized-comparison fallback rung.
var (
	mRefSets       = obs.C("offline.ref.sets")
	mRefActions    = obs.C("offline.ref.actions")
	mRefExecs      = obs.C("offline.ref.executions")
	mRefExecCached = obs.C("offline.ref.exec_cache_hits")
	mRefDegenerate = obs.C("offline.ref.degenerate")
	mRefTooFew     = obs.C("offline.ref.skipped_too_few")
	mRefBudget     = obs.C("offline.ref.budget_exceeded")
	mRefAbnormal   = obs.C("offline.ref.exec_faulted")
	mRefFallback   = obs.C("offline.ref.fallback_normalized")
)

// refPool holds the distinct recorded actions of one dataset, partitioned
// by action type; the Reference-Based method draws an action's alternatives
// R(q) from the pool of its own type (Section 4.1: "we considered all
// actions in the databases from the same type").
type refPool struct {
	byType map[engine.ActionType][]refAction
}

// refAction is a pooled action with its String form, formatted once when
// the pool is built: the pool orders and excludes by it, and the
// execution cache and the fault probe key on it.
type refAction struct {
	act *engine.Action
	str string
}

// buildRefPools collects the distinct actions of each dataset.
func buildRefPools(repo *session.Repository) map[string]*refPool {
	pools := make(map[string]*refPool)
	seen := make(map[string]map[string]bool)
	for _, s := range repo.Sessions() {
		p := pools[s.Dataset]
		if p == nil {
			p = &refPool{byType: make(map[engine.ActionType][]refAction)}
			pools[s.Dataset] = p
			seen[s.Dataset] = make(map[string]bool)
		}
		for _, n := range s.Nodes()[1:] {
			key := n.Action.String()
			if seen[s.Dataset][key] {
				continue
			}
			seen[s.Dataset][key] = true
			p.byType[n.Action.Type] = append(p.byType[n.Action.Type], refAction{act: n.Action.Clone(), str: key})
		}
	}
	// Deterministic order within each type.
	for _, p := range pools {
		for t := range p.byType {
			as := p.byType[t]
			sort.Slice(as, func(i, j int) bool { return as[i].str < as[j].str })
		}
	}
	return pools
}

// referenceSet returns R(q) for one examined action: same-type recorded
// actions, excluding q itself, deterministically subsampled to limit when
// limit > 0.
func (p *refPool) referenceSet(q *engine.Action, limit int, rng *stats.RNG) []refAction {
	all := p.byType[q.Type]
	out := make([]refAction, 0, len(all))
	qs := q.String()
	for _, a := range all {
		if a.str != qs {
			out = append(out, a)
		}
	}
	if limit > 0 && len(out) > limit {
		idx := rng.Perm(len(out))[:limit]
		sort.Ints(idx)
		sampled := make([]refAction, limit)
		for i, j := range idx {
			sampled[i] = out[j]
		}
		out = sampled
	}
	return out
}

// MinReferenceSet is the minimal number of scored reference actions the
// Reference-Based comparison needs before it issues a verdict for an
// action.
const MinReferenceSet = 5

// execCacheKey identifies an (parent display, action) execution.
type execCacheKey struct {
	parent *engine.Display
	action string
}

// execCache is the concurrent per-(parent, action) execution cache. A
// miss claims the key with an in-flight entry so concurrent workers
// needing the same reference execution wait for the first computation
// instead of duplicating it. Values are deterministic pure functions of
// the key, so which worker computes an entry never affects the scores.
type execCache struct {
	mu sync.Mutex
	m  map[execCacheKey]*execEntry
}

type execEntry struct {
	done   chan struct{}
	scores map[string]float64 // nil for failed/degenerate executions
	// abnormal marks a nil result caused by something other than the
	// data itself — an exhausted fault-retry budget, a recovered panic,
	// or a blown RefBudget. Natural degeneracy (execution error, <2
	// rows) is not abnormal: those references were always silently
	// omitted, and keeping the distinction is what lets the fallback
	// rung fire only under abnormal conditions while the fault-free
	// path stays bit-identical.
	abnormal bool
}

// get returns the cached scores for key, computing them via compute on
// first demand.
func (c *execCache) get(key execCacheKey, compute func() (map[string]float64, bool)) (map[string]float64, bool) {
	c.mu.Lock()
	if e, ok := c.m[key]; ok {
		c.mu.Unlock()
		<-e.done
		mRefExecCached.Inc()
		return e.scores, e.abnormal
	}
	e := &execEntry{done: make(chan struct{})}
	c.m[key] = e
	c.mu.Unlock()
	// Close unconditionally so waiters can never deadlock, even if
	// compute panics out from under us.
	defer close(e.done)
	e.scores, e.abnormal = compute()
	return e.scores, e.abnormal
}

// refTimings accumulates the Table-3 component costs across workers. The
// sums are per-item durations added atomically, so under fan-out they
// approximate total CPU time spent (the sequential path's wall-clock
// equivalent), not elapsed wall-clock.
type refTimings struct {
	execNS    atomic.Int64
	calcINS   atomic.Int64
	calcRelNS atomic.Int64
}

// applyReferenceBased runs Algorithm 1 for every recorded action, filling
// NodeScores.RefRelative. Reference executions are cached per
// (parent display, action) because many recorded actions share parents
// (most sessions branch from the root display).
//
// The pass runs in two phases so it parallelizes without changing a
// single output bit: phase 1 walks the nodes in repository order drawing
// every reference set from the one shared RNG stream (subsampling is the
// only stateful step, and it is cheap); phase 2 fans the expensive
// execute-score-rank work out across the pool, with each node writing
// only its own RefRelative map.
func applyReferenceBased(ctx context.Context, a *Analysis, opts Options) error {
	pools := buildRefPools(a.Repo)
	rng := stats.NewRNG(opts.Seed + 0x5EED)
	minRefs := opts.MinRefs
	if minRefs <= 0 {
		minRefs = MinReferenceSet
	}

	type nodeWork struct {
		ns   *NodeScores
		idx  int // position in a.Nodes — the index the checkpoint records nodes by
		refs []refAction
	}
	work := make([]nodeWork, 0, len(a.Nodes))
	for i, ns := range a.Nodes {
		pool := pools[ns.Session.Dataset]
		if pool == nil {
			continue
		}
		refs := pool.referenceSet(ns.Node.Action, opts.RefLimit, rng)
		mRefSets.Inc()
		mRefActions.Add(uint64(len(refs)))
		work = append(work, nodeWork{ns: ns, idx: i, refs: refs})
	}

	// Resume bookkeeping. Phase 1 above always re-runs in full — the RNG
	// draws are cheap and keeping them sequential is what makes every
	// reference set identical across runs — so a checkpointed node's
	// restored RefRelative map is exactly what this run would recompute.
	ck := a.Checkpoint
	rc := loadRefStage(ck, len(a.Nodes))
	every := opts.CheckpointEvery
	if every < 1 {
		every = defaultCheckpointEvery
	}
	pending := make([]nodeWork, 0, len(work))
	restored := 0
	for _, w := range work {
		if rc.Done[w.idx] {
			m := rc.Rel[w.idx]
			if m == nil {
				m = map[string]float64{}
			}
			w.ns.RefRelative = m
			restored++
			continue
		}
		pending = append(pending, w)
	}
	if restored > 0 {
		mCkptNodesSkipped.Add(uint64(restored))
	}
	var (
		ckMu       sync.Mutex
		completed  = restored
		sinceFlush = 0
	)
	record := func(w nodeWork) {
		if ck == nil {
			return
		}
		// The node's RefRelative map is final once its worker reaches
		// here, so storing the reference is safe; the periodic Update
		// marshals only completed nodes' maps.
		ckMu.Lock()
		defer ckMu.Unlock()
		rc.Done[w.idx] = true
		rc.Rel[w.idx] = w.ns.RefRelative
		completed++
		sinceFlush++
		if sinceFlush >= every {
			sinceFlush = 0
			_ = ck.Update(ckptStageRef, checkpoint.Progress{Done: completed, Total: len(work)}, rc)
		}
	}

	cache := &execCache{m: make(map[execCacheKey]*execEntry)}
	var tm refTimings
	done, err := parallel.ForEachN(ctx, len(pending), opts.Workers, func(wi int) {
		rankReferenceSet(ctx, a, pending[wi].ns, pending[wi].refs, minRefs, opts.RefBudget, cache, &tm)
		// A cancellation that lands mid-node makes executeAndScore count
		// its remaining references as abnormal losses, so the node's map
		// is shaped by *when* the context died — poison for a resumed run
		// that must be bit-identical to an uninterrupted one. Cancellation
		// is monotone: ctx.Err() still nil here proves the whole node ran
		// under a live context, and only such nodes may be checkpointed.
		if ctx == nil || ctx.Err() == nil {
			record(pending[wi])
		}
	})
	a.RefTimings.ActionExecution += time.Duration(tm.execNS.Load())
	a.RefTimings.CalcInterestingness += time.Duration(tm.calcINS.Load())
	a.RefTimings.CalcRelative += time.Duration(tm.calcRelNS.Load())
	if ck != nil {
		// Flush whatever completed — on the error path too, so an
		// interrupted run leaves its maximal resumable progress behind.
		ckMu.Lock()
		_ = ck.Update(ckptStageRef,
			checkpoint.Progress{Done: completed, Total: len(work), Complete: err == nil}, rc)
		_ = ck.Sync()
		ckMu.Unlock()
	}
	return pipeline.Wrap("offline.reference", restored+done, len(work), err)
}

// rankReferenceSet runs Algorithm 1 for one recorded action.
func rankReferenceSet(ctx context.Context, a *Analysis, ns *NodeScores, refs []refAction, minRefs int, budget time.Duration, cache *execCache, tm *refTimings) {
	parent := ns.Node.Parent.Display
	root := ns.Session.Root().Display

	// Lines 1-4: execute every reference action from the same parent
	// display and score it with every measure. abnormal counts the
	// references lost to faults or budget overruns (as opposed to
	// naturally degenerate ones): they decide below whether a
	// too-small comparison base falls back or, as always, skips.
	refScores := make([]map[string]float64, 0, len(refs))
	abnormal := 0
	for _, ra := range refs {
		scores, bad := cache.get(execCacheKey{parent: parent, action: ra.str}, func() (map[string]float64, bool) {
			return executeAndScore(ctx, a, ns.Session.Dataset, parent, root, ra, budget, tm)
		})
		if scores != nil {
			refScores = append(refScores, scores)
		} else if bad {
			abnormal++
		}
	}

	// Line 7: relative interestingness = the percentile rank of q's
	// score among the reference actions (the scale of the paper's
	// θ_I threshold for this method). Algorithm 1 counts
	// |{q' : i(q') <= i(q)}|; with small discrete displays exact
	// score collisions are frequent, so we count ties at half weight
	// (midrank) — with continuous scores the two definitions
	// coincide, and midranking prevents every measure that happens
	// to collide with all references from inflating to rank 1.0.
	// An action with too few executable, non-degenerate alternatives
	// has no meaningful comparison base (a percentile over two or
	// three references is dominated by quantization noise): it keeps
	// an empty RefRelative map and yields no dominant measure, so
	// training-set construction and the Figure-3 statistics skip it.
	// Compare the paper's omission of reference actions whose results
	// have fewer than two rows; its reference sets averaged 115
	// alternatives, so this floor never binds on REACT-IDA-scale data.
	if len(refScores) < minRefs {
		// Degradation ladder, rung 1 (DESIGN.md §7): when the comparison
		// base was eroded by abnormal losses — injected faults, recovered
		// panics, blown execution budgets — rather than by the data
		// itself, fall back to the Normalized method's verdict, mapped
		// onto the Reference-Based [0, 1] percentile scale through the
		// standard normal CDF (the z-score's own percentile under
		// normality, which is exactly what Algorithm 2's Box-Cox step
		// works to make plausible). Naturally thin reference sets keep
		// the historical skip so fault-free outputs stay bit-identical.
		if abnormal > 0 {
			mRefFallback.Inc()
			for name, z := range ns.NormRelative {
				ns.RefRelative[name] = stats.NormalCDF(z)
			}
			return
		}
		mRefTooFew.Inc()
		return
	}
	t2 := time.Now()
	for name, qScore := range ns.Raw {
		below, equal := 0, 0
		var sum, sumSq float64
		for _, rs := range refScores {
			v := rs[name]
			switch {
			case v < qScore:
				below++
			case v == qScore:
				equal++
			}
			sum += v
			sumSq += v * v
		}
		rank := (float64(below) + 0.5*float64(equal)) / float64(len(refScores))
		// Percentile ranks are coarse (multiples of 1/|R(q)|), so a
		// measure that beats every reference in two facets produces
		// an exact cross-measure tie at 1.0. A microscopic margin
		// term — how many reference standard deviations q sits above
		// the reference mean, squashed to (-1, 1) and scaled by 1e-6
		// — breaks such ties by "how decisively" the measure ranks q
		// first, without perceptibly moving the θ_I scale.
		n := float64(len(refScores))
		mean := sum / n
		variance := sumSq/n - mean*mean
		if variance < 0 {
			variance = 0
		}
		z := 0.0
		if sd := math.Sqrt(variance); sd > 0 {
			z = (qScore - mean) / sd
		}
		ns.RefRelative[name] = rank + 1e-6*z/(1+math.Abs(z))
	}
	tm.calcRelNS.Add(int64(time.Since(t2)))
}

// executeAndScore runs one reference action and scores it, updating the
// Table-3 timing buckets. It returns (nil, false) for naturally failed
// executions and degenerate results (fewer than two rows), which the
// paper omits from reference sets, and (nil, true) for abnormal losses:
// injected faults that survive the retry policy, panics recovered inside
// the execution, and executions that overran the per-action budget.
func executeAndScore(ctx context.Context, a *Analysis, dataset string, parent, root *engine.Display, ra refAction, budget time.Duration, tm *refTimings) (map[string]float64, bool) {
	// The probe key is content — dataset, parent cardinality, action
	// text — never pointers or call order, so the same executions fault
	// at every worker count and the chaos equivalence tests hold.
	var base string
	if faults.Enabled() {
		base = dataset + "|" + strconv.Itoa(parent.NumRows()) + "|" + ra.str
	}
	var scores map[string]float64
	var overBudget bool
	err := faults.Guard(ctx, faults.SiteRefExecute, base, func() error {
		mRefExecs.Inc()
		t0 := time.Now()
		d, execErr := engine.Execute(parent, ra.act)
		elapsed := time.Since(t0)
		tm.execNS.Add(int64(elapsed))
		if budget > 0 && elapsed > budget {
			mRefBudget.Inc()
			overBudget = true
			scores = nil
			return nil
		}
		if execErr != nil || d.NumRows() < 2 {
			mRefDegenerate.Inc()
			scores = nil
			return nil
		}
		t1 := time.Now()
		mctx := &measures.Context{Action: ra.act, Display: d, Parent: parent, Root: root}
		scores = make(map[string]float64, len(a.Measures))
		for _, m := range a.Measures {
			scores[m.Name()] = measures.ObservedScore(m, mctx)
		}
		tm.calcINS.Add(int64(time.Since(t1)))
		return nil
	})
	if err != nil {
		mRefAbnormal.Inc()
		return nil, true
	}
	return scores, overBudget
}
