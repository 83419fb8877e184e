// Package knn implements the paper's I-kNN predictive model (Section 3.2):
// given a session state's n-context, retrieve its k nearest labeled
// n-contexts under the session distance metric, reject neighbors farther
// than the distance threshold θ_δ, and majority-vote a dominant
// interestingness measure. When no sufficiently similar neighbors exist
// the model abstains, which is what produces the coverage-rate < 1
// reported throughout Section 4.2.
package knn

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"repro/internal/distance"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/offline"
	"repro/internal/parallel"
	"repro/internal/pipeline"
	"repro/internal/session"
)

// Telemetry handles shared by all classifiers; the per-θ_δ outcome
// counters live on the Classifier (see New) so the abstention/coverage
// split is reported per configured threshold.
var (
	mScans     = obs.C("knn.scans")
	mDistEvals = obs.C("knn.distance_evals")
	// mScansAbandoned counts scans a done context cut short.
	mScansAbandoned = obs.C("knn.scans_abandoned")
	stPredict       = obs.S("predict")
)

// Neighbor pairs a training sample with its distance from a query context.
type Neighbor struct {
	Sample *offline.Sample
	Dist   float64
}

// Prediction is the model's output for one query.
type Prediction struct {
	// Label is the predicted measure name; empty when the model abstains.
	Label string
	// Votes maps candidate labels to their (tie-weighted) vote mass.
	Votes map[string]float64
	// Neighbors are the voting neighbors, nearest first.
	Neighbors []Neighbor
	// Covered is false when the model abstained (no close-enough
	// neighbors).
	Covered bool
	// Fallback is true when Label was produced by the configured
	// FallbackPolicy rather than the θ_δ-gated vote; such predictions
	// count as covered but carry the policy's weaker guarantee.
	Fallback bool
}

// FallbackPolicy decides what an abstaining prediction degrades to (the
// kNN rung of the degradation ladder, DESIGN.md §7). The default keeps
// the paper's behavior: abstention is the honest answer when no training
// context is close enough.
type FallbackPolicy uint8

const (
	// FallbackAbstain keeps the abstention (paper semantics; default).
	FallbackAbstain FallbackPolicy = iota
	// FallbackNearest re-votes over the k nearest neighbors ignoring
	// θ_δ — always answers when the training set is non-empty, at the
	// cost of consulting arbitrarily distant contexts.
	FallbackNearest
	// FallbackPrior answers with the most common label of the training
	// set (ties broken lexicographically) — the zero-information prior.
	FallbackPrior
)

// String names the policy for flags and logs.
func (p FallbackPolicy) String() string {
	switch p {
	case FallbackAbstain:
		return "abstain"
	case FallbackNearest:
		return "nearest"
	case FallbackPrior:
		return "prior"
	default:
		return fmt.Sprintf("fallback(%d)", uint8(p))
	}
}

// ParseFallbackPolicy is the inverse of FallbackPolicy.String.
func ParseFallbackPolicy(s string) (FallbackPolicy, error) {
	switch s {
	case "abstain", "":
		return FallbackAbstain, nil
	case "nearest":
		return FallbackNearest, nil
	case "prior":
		return FallbackPrior, nil
	default:
		return 0, fmt.Errorf("knn: unknown fallback policy %q (want abstain, nearest or prior)", s)
	}
}

// Config holds the model hyper-parameters of the paper's Table 4.
type Config struct {
	// K is the number of nearest neighbors consulted.
	K int
	// ThetaDelta (θ_δ) is the maximal allowed neighbor distance;
	// math.Inf(1) disables the threshold (full coverage, like the
	// skyline's rightmost configurations).
	ThetaDelta float64
	// Workers bounds the fan-out of Predict's training-set scan and of
	// PredictAll's query batch: <1 means one worker per CPU, 1 forces the
	// sequential path. Predictions are bit-identical at every setting
	// (see internal/parallel and DESIGN.md).
	Workers int
	// Fallback selects the degradation policy applied when the θ_δ-gated
	// vote abstains. The zero value (FallbackAbstain) preserves the
	// paper's abstention semantics exactly.
	Fallback FallbackPolicy
}

// ScanLimit is the one rule for how far a scan must look to decide a
// prediction under c: θ_δ, or +∞ under FallbackNearest, whose re-vote
// reads the nearest k whatever their distance.
func (c Config) ScanLimit() float64 {
	if c.Fallback == FallbackNearest {
		return math.Inf(1)
	}
	return c.ThetaDelta
}

// minParallelScan is the training-set size below which a scan stays
// sequential regardless of Workers: under a few hundred samples the
// fan-out costs more than the scan.
const minParallelScan = 512

// scanCheckEvery is how many candidates a scan measures between checks of
// its context: a check takes a lock, so it is paid once per run of
// candidates, and the candidates between checks test nothing.
const scanCheckEvery = 64

// Classifier is an instance-based (lazy) classifier over labeled
// n-contexts.
type Classifier struct {
	cfg     Config
	metric  distance.Metric
	samples []*offline.Sample
	// prior is the training set's most common label (tie-weighted, ties
	// broken lexicographically), precomputed for FallbackPrior and for
	// fault-degraded queries; empty when no sample carries a label.
	prior string

	// prepared holds every training context flattened once when the
	// metric is the tree-edit distance, so each scan evaluates through
	// one per-query distance.Evaluator (see scanRange); nil under any
	// other metric.
	prepared []*distance.Prepared

	// Per-θ_δ outcome counters, resolved once at construction so Predict
	// never formats metric names on the hot path.
	mCovered  *obs.Counter
	mAbstain  *obs.Counter
	mFallback *obs.Counter
}

// New builds a classifier from a labeled training set. A nil metric
// defaults to the tree edit distance.
func New(samples []*offline.Sample, metric distance.Metric, cfg Config) *Classifier {
	if metric == nil {
		metric = distance.TreeEdit{}
	}
	if cfg.K < 1 {
		cfg.K = 1
	}
	theta := fmt.Sprintf("[theta_delta=%g]", cfg.ThetaDelta)
	c := &Classifier{
		cfg:       cfg,
		metric:    metric,
		samples:   samples,
		prior:     priorLabel(samples),
		mCovered:  obs.C("knn.predict.covered" + theta),
		mAbstain:  obs.C("knn.predict.abstain" + theta),
		mFallback: obs.C("knn.predict.fallback" + theta),
	}
	if te, ok := metric.(distance.TreeEdit); ok {
		c.prepared = make([]*distance.Prepared, len(samples))
		for i, s := range samples {
			c.prepared[i] = te.Prepare(s.Context)
		}
	}
	return c
}

// priorLabel computes the training set's majority label with the same
// tie-weighting and tie-breaking as voteCandidates.
func priorLabel(samples []*offline.Sample) string {
	votes := make(map[string]float64)
	for _, s := range samples {
		if len(s.Labels) == 0 {
			continue
		}
		w := 1 / float64(len(s.Labels))
		for _, l := range s.Labels {
			votes[l] += w
		}
	}
	best := ""
	for l, v := range votes {
		if best == "" || v > votes[best] || (v == votes[best] && l < best) {
			best = l
		}
	}
	return best
}

// Samples returns the training set.
func (c *Classifier) Samples() []*offline.Sample { return c.samples }

// Prior returns the training set's most common label (the FallbackPrior
// answer), or "" when no sample carries a label. Clients use it as the
// zero-information degradation answer when the server is unreachable.
func (c *Classifier) Prior() string { return c.prior }

// Config returns the classifier's hyper-parameters.
func (c *Classifier) Config() Config { return c.cfg }

// Metric returns the distance metric the classifier scans under, so the
// serving layer can build shard classifiers that measure distances
// identically to the whole-model classifier.
func (c *Classifier) Metric() distance.Metric { return c.metric }

// SetWorkers rebounds the scan/batch fan-out width (see Config.Workers)
// after construction — a deployment knob, not a model parameter:
// predictions are bit-identical at every setting. Not safe to call
// concurrently with predictions; set it before serving traffic.
func (c *Classifier) SetWorkers(n int) { c.cfg.Workers = n }

// Predict classifies a query n-context. The training-set scan keeps a
// bounded top-k accumulator (O(n log k), O(k) space) instead of
// collecting every eligible neighbor, early-abandons distance
// computations that provably exceed min(θ_δ, current k-th best), and
// partitions across the worker pool when the set is large enough (see
// Config.Workers); all three optimizations are bit-identical to the
// plain sequential scan.
func (c *Classifier) Predict(query *session.Context) Prediction {
	p, _ := c.PredictCtx(nil, query)
	return p
}

// PredictCtx is Predict with cancellation: a canceled ctx aborts the scan
// and returns a typed *pipeline.Error for the "knn.predict" stage. A nil
// ctx never cancels.
func (c *Classifier) PredictCtx(ctx context.Context, query *session.Context) (Prediction, error) {
	sp := stPredict.StartCtx(ctx)
	defer sp.End()
	if ctx != nil && ctx.Err() != nil {
		return Prediction{}, pipeline.Wrap("knn.predict", 0, 1, ctx.Err())
	}
	p, evals, err := c.predict(ctx, query, parallel.Workers(c.cfg.Workers))
	if err != nil {
		return Prediction{}, err
	}
	traceOutcome(obs.TraceFrom(ctx), evals, p)
	return p, nil
}

// traceOutcome annotates a request trace with one prediction's scan cost
// (distance evaluations) and degradation rung. Nil-safe: the non-HTTP
// paths (benchmarks, batch CLI runs) pass a nil trace and pay one
// comparison.
func traceOutcome(tr *obs.Trace, evals uint64, p Prediction) {
	if tr == nil {
		return
	}
	tr.AddDistanceEvals(evals)
	tr.AddCandidates(len(p.Neighbors))
	switch {
	case p.Fallback:
		tr.Rung("knn.fallback")
	case !p.Covered:
		tr.Rung("knn.abstain")
	}
}

// predict is the one in-process prediction path: one scan with w workers
// behind the knn.scan fault probe, decided as the router decides merged
// shard lists (PredictFromCandidates); Neighbors lists the candidates the
// deciding vote ran over. A query whose probe retries exhaust gets no
// candidates, so only FallbackPrior can answer it. The probe key is the
// query's identity (session, position, n), never call order, so the same
// queries degrade at every worker count. The scan looks as far as
// Config.ScanLimit: under FallbackNearest the dist ≤ θ_δ prefix of the
// ungated top-k is the gated top-k (see Candidates), so one scan serves
// both of its votes.
func (c *Classifier) predict(ctx context.Context, query *session.Context, w int) (p Prediction, evals uint64, err error) {
	var cands []Candidate
	scanOnce := func() {
		cands, err = c.scan(ctx, query, c.cfg.ScanLimit(), w)
		evals = uint64(len(c.samples))
	}
	if !faults.Enabled() {
		scanOnce()
	} else {
		// An exhausted probe leaves cands empty; its error has no other use.
		_ = faults.Guard(nil, faults.SiteKNNScan, session.Key(query.SessionID, query.T, query.N), func() error {
			scanOnce()
			return nil
		})
	}
	if err != nil {
		return Prediction{}, 0, err
	}
	p, voters := predictFromCandidates(cands, c.cfg, c.prior)
	if len(voters) > 0 {
		p.Neighbors = make([]Neighbor, len(voters))
		for i, cd := range voters {
			p.Neighbors[i] = Neighbor{Sample: c.samples[cd.Index], Dist: cd.Dist}
		}
	}
	switch {
	case p.Fallback:
		c.mFallback.Inc()
	case p.Covered:
		c.mCovered.Inc()
	default:
		c.mAbstain.Inc()
	}
	return p, evals, nil
}

// scan is the one search path: a scan of the whole training set that
// returns its top-k under limit in ascending (dist, index) order. When
// the set is large enough to repay the fan-out and w > 1, w workers scan
// contiguous chunks whose top-k lists merge like shards
// (MergeCandidates), so the result is the sequential scan's at every
// worker count. A ctx that ends mid-scan stops it within scanCheckEvery
// candidates of every range being scanned, and the scan returns the
// "knn.predict" stage error; a nil ctx never cancels.
func (c *Classifier) scan(ctx context.Context, query *session.Context, limit float64, w int) ([]Candidate, error) {
	mScans.Inc()
	mDistEvals.Add(uint64(len(c.samples)))
	if w <= 1 || len(c.samples) < minParallelScan {
		cands, err := c.scanRange(ctx, query, 0, len(c.samples), limit)
		if err != nil {
			mScansAbandoned.Inc()
			return nil, pipeline.Wrap("knn.predict", 0, 1, err)
		}
		return cands, nil
	}
	chunks := parallel.Chunks(len(c.samples), w)
	lists := make([][]Candidate, len(chunks))
	// A chunk cut short leaves ctx done, which ForEachN then reports.
	done, err := parallel.ForEachN(ctx, len(chunks), w, func(ci int) {
		lists[ci], _ = c.scanRange(ctx, query, chunks[ci][0], chunks[ci][1], limit)
	})
	if err != nil {
		mScansAbandoned.Inc()
		return nil, pipeline.Wrap("knn.predict", done, len(chunks), err)
	}
	return MergeCandidates(c.cfg.K, lists...), nil
}

// scanRange returns the top-k of samples[lo:hi] under limit. The abandon
// bound starts at limit (Config.ScanLimit, or the limit a Candidates
// caller passes) and tightens to the accumulator's k-th-best distance
// once it fills: a candidate strictly farther than the bound can neither
// pass the threshold nor displace a kept neighbor — ties at the bound are
// still computed exactly, so (dist, idx) tie-breaking matches the
// unbounded scan.
//
// Under the tree-edit metric every distance runs through one
// distance.Evaluator over the prepared contexts, whose telemetry tallies
// reach the shared counters once, at the end of the range; any other
// metric (the ablations) computes the exact distance and compares it with
// the bound. A non-nil ctx is checked before every scanCheckEvery
// candidates; once it is done the range returns ctx.Err() and no list.
func (c *Classifier) scanRange(ctx context.Context, query *session.Context, lo, hi int, limit float64) ([]Candidate, error) {
	var ev *distance.Evaluator
	if c.prepared != nil {
		ev = c.metric.(distance.TreeEdit).NewEvaluator(query)
		defer ev.Flush()
	}
	acc := newTopK(c.cfg.K, hi-lo)
	for i := lo; i < hi; {
		if ctx != nil && ctx.Err() != nil {
			return nil, ctx.Err()
		}
		for end := min(i+scanCheckEvery, hi); i < end; i++ {
			bound := limit
			if acc.full() {
				if b := acc.bound(); b < bound {
					bound = b
				}
			}
			var d float64
			var ok bool
			if ev != nil {
				d, ok = ev.DistanceWithin(c.prepared[i], bound)
			} else {
				d = c.metric.Distance(query, c.samples[i].Context)
				ok = d <= bound
			}
			if ok {
				acc.add(Candidate{Index: i, Dist: d, Labels: c.samples[i].Labels})
			}
		}
	}
	return acc.drain(), nil
}

// PredictAll classifies a batch of queries, fanning the batch out across
// the worker pool (each query runs a sequential pruned scan). The result
// slice is index-aligned with queries and bit-identical to calling
// Predict per query.
func (c *Classifier) PredictAll(queries []*session.Context) []Prediction {
	out, _ := c.PredictAllCtx(nil, queries)
	return out
}

// PredictAllCtx is PredictAll with cancellation: a canceled ctx stops the
// batch, between queries and inside each query's scan, and returns the
// typed "knn.predict_all" stage error carrying how many predictions
// completed. The returned slice is always len(queries); entries the
// cancellation cut off are zero.
func (c *Classifier) PredictAllCtx(ctx context.Context, queries []*session.Context) ([]Prediction, error) {
	tr := obs.TraceFrom(ctx)
	var t0 time.Time
	if tr != nil {
		t0 = time.Now()
	}
	out := make([]Prediction, len(queries))
	evals := make([]uint64, len(queries))
	var cut atomic.Int64
	done, err := parallel.ForEachN(ctx, len(queries), c.cfg.Workers, func(i int) {
		// The batch is the fan-out, so each query scans with one worker.
		var qerr error
		if out[i], evals[i], qerr = c.predict(ctx, queries[i], 1); qerr != nil {
			cut.Add(1)
		}
	})
	if n := int(cut.Load()); n > 0 {
		// A scan fails only once ctx is done, and ForEachN's one-worker
		// path does not report a cut inside its last query.
		done -= n
		err = ctx.Err()
	}
	if tr != nil {
		tr.AddStage("knn.predict_all", time.Since(t0))
		for i := 0; i < done && i < len(out); i++ {
			traceOutcome(tr, evals[i], out[i])
		}
	}
	if err != nil {
		return out, pipeline.Wrap("knn.predict_all", done, len(queries), err)
	}
	return out, nil
}

// Vote implements the majority vote over an eligible (threshold-filtered)
// neighbor list: it keeps the k nearest, accumulates tie-weighted votes
// per label, and returns the winner (ties broken by total closeness, then
// lexicographically for determinism). An empty neighbor list abstains.
//
// The input slice is treated as read-only: selection runs over a bounded
// O(n log k) accumulator, never by reordering the caller's slice (earlier
// versions sorted it in place, which corrupted callers that reuse
// neighbor lists — see TestVoteDoesNotMutateInput).
func Vote(eligible []Neighbor, k int) Prediction {
	acc := newTopK(k, len(eligible))
	for i := range eligible {
		acc.add(Candidate{Index: i, Dist: eligible[i].Dist})
	}
	sorted := acc.drain()
	ns := make([]Neighbor, len(sorted))
	for i, cd := range sorted {
		ns[i] = eligible[cd.Index]
	}
	return voteSorted(ns)
}

// voteSorted tallies the tie-weighted vote over an already-selected,
// nearest-first neighbor list (at most k entries) with voteCandidates,
// the arithmetic every vote runs.
func voteSorted(neighbors []Neighbor) Prediction {
	if len(neighbors) == 0 {
		return Prediction{Covered: false}
	}
	cds := make([]Candidate, len(neighbors))
	for i, n := range neighbors {
		cds[i] = Candidate{Dist: n.Dist, Labels: n.Sample.Labels}
	}
	p := voteCandidates(cds)
	p.Neighbors = neighbors
	return p
}
