package eval

import (
	"context"
	"math"
	"sort"

	"repro/internal/distance"
	"repro/internal/faults"
	"repro/internal/knn"
	"repro/internal/measures"
	"repro/internal/obs"
	"repro/internal/offline"
	"repro/internal/parallel"
	"repro/internal/pipeline"
	"repro/internal/session"
	"repro/internal/stats"
	"repro/internal/svm"
)

// mPairDropped counts pairwise distances lost to faults after retries
// (they degrade to +Inf — "too far to be neighbors"); mOutcomeDropped
// counts LOOCV outcomes degraded to abstentions the same way.
var (
	mPairDropped    = obs.C("eval.pairwise.dropped")
	mOutcomeDropped = obs.C("eval.loocv.dropped")
)

// sampleFP is the content fingerprint used as a fault-probe key for one
// sample: stable across runs and worker counts, unlike pointers or call
// order.
func sampleFP(s *offline.Sample) string {
	return session.Key(s.Context.SessionID, s.Context.T, s.Context.N)
}

// EvalSet is a prepared evaluation dataset for one (I, method, n) triple:
// the unfiltered labeled samples, their pairwise context distances and,
// per sample, the neighbor indices sorted by distance. From one EvalSet
// any (k, θ_δ, θ_I) configuration evaluates in O(samples·k) — the
// precomputation that makes the paper's 50K-configuration grid search
// tractable.
type EvalSet struct {
	// I is the measure configuration.
	I measures.Set
	// Method is the comparison method that produced labels.
	Method offline.Method
	// N is the n-context size.
	N int

	// Samples are the labeled samples built with θ_I = -∞ (no filter);
	// per-config filtering happens at evaluation time via Best.
	Samples []*offline.Sample
	// Best[i] is sample i's maximal relative interestingness.
	Best []float64
	// Dist is the symmetric pairwise context distance matrix.
	Dist [][]float64
	// neighbors[i] lists all other sample indices sorted by Dist[i][·].
	neighbors [][]int32

	// Workers bounds the LOOCV fan-out of EvaluateKNN and the fold
	// fan-out of EvaluateSVM: <1 means one worker per CPU, 1 forces the
	// sequential path. The per-sample and per-fold outcomes are written to
	// index-addressed slots, so metrics are bit-identical at every setting
	// (DESIGN.md, "Determinism under fan-out").
	Workers int
}

// BuildEvalSet extracts, labels and indexes the evaluation samples. The
// metric defaults to a memoized tree edit distance; pass a shared
// *distance.Memo-backed metric to reuse display distances across several
// EvalSets (different n values).
func BuildEvalSet(a *offline.Analysis, I measures.Set, method offline.Method, n int, metric distance.Metric) *EvalSet {
	if metric == nil {
		metric = distance.NewMemoizedTreeEdit(nil)
	}
	es := buildSamplesOnly(a, I, method, n)
	// The metric is caller-supplied and need not be safe for concurrent
	// use, so the fill stays sequential; a nil ctx never cancels.
	es.Dist, _ = PairwiseDistances(nil, es.Samples, metric, 1)
	es.neighbors, _ = sortNeighbors(nil, es.Dist, 1)
	return es
}

// buildSamplesOnly extracts and labels the samples without computing
// distances (shared by BuildEvalSet and BuildEvalSetCached).
func buildSamplesOnly(a *offline.Analysis, I measures.Set, method offline.Method, n int) *EvalSet {
	samples := offline.BuildTrainingSet(a, I, offline.TrainingOptions{
		N:              n,
		Method:         method,
		ThetaI:         math.Inf(-1),
		SuccessfulOnly: true,
	})
	es := &EvalSet{I: I, Method: method, N: n, Samples: samples}
	es.Best = make([]float64, len(samples))
	for i, s := range samples {
		es.Best[i] = s.Best
	}
	return es
}

// PairwiseDistances computes the symmetric distance matrix of the samples'
// contexts across workers goroutines (<1 means one worker per CPU, 1
// forces the sequential path). Each worker owns one upper-triangle row i,
// writing d[i][j] and its mirror d[j][i] — distinct elements per (i, j)
// pair, so rows never contend. With workers != 1 the metric must be safe
// for concurrent use (the tree edit metric and its memoized wrapper both
// are).
//
// A canceled ctx (nil never cancels) aborts between rows and returns the
// typed "eval.pairwise" stage error. Faults are isolated per pair: a
// distance computation that keeps faulting after retries — or panics —
// degrades to +Inf, i.e. "too far to ever be neighbors", instead of
// poisoning the matrix.
func PairwiseDistances(ctx context.Context, samples []*offline.Sample, metric distance.Metric, workers int) ([][]float64, error) {
	n := len(samples)
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
	}
	var fps []string
	injecting := faults.Enabled()
	if injecting {
		fps = make([]string, n)
		for i, s := range samples {
			fps[i] = sampleFP(s)
		}
	}
	// The atomic-cursor dispatch of ForEach load-balances the triangular
	// row costs (row 0 holds n-1 distances, row n-1 none).
	done, err := parallel.ForEachN(ctx, n, workers, func(i int) {
		for j := i + 1; j < n; j++ {
			var v float64
			if injecting {
				v = guardedDistance(metric, samples[i].Context, samples[j].Context, fps[i]+"~"+fps[j])
			} else {
				v = metric.Distance(samples[i].Context, samples[j].Context)
			}
			d[i][j] = v
			d[j][i] = v
		}
	})
	if err != nil {
		return nil, pipeline.Wrap("eval.pairwise", done, n, err)
	}
	return d, nil
}

// guardedDistance computes one pairwise distance behind the eval.pairwise
// fault probe, degrading to +Inf when retries exhaust.
func guardedDistance(metric distance.Metric, a, b *session.Context, key string) float64 {
	var v float64
	err := faults.Guard(nil, faults.SiteEvalPairwise, key, func() error {
		v = metric.Distance(a, b)
		return nil
	})
	if err != nil {
		mPairDropped.Inc()
		return math.Inf(1)
	}
	return v
}

// sortNeighbors sorts each sample's neighbor list by distance; rows are
// independent, so they spread across the pool. The per-row stable sort
// keeps index order among equal distances, making every row — and hence
// every downstream LOOCV outcome — identical at any width. A canceled ctx
// (nil never cancels) stops between rows.
func sortNeighbors(ctx context.Context, d [][]float64, workers int) ([][]int32, error) {
	n := len(d)
	out := make([][]int32, n)
	done, err := parallel.ForEachN(ctx, n, workers, func(i int) {
		idx := make([]int32, 0, n-1)
		for j := 0; j < n; j++ {
			if j != i {
				idx = append(idx, int32(j))
			}
		}
		row := d[i]
		sort.SliceStable(idx, func(a, b int) bool { return row[idx[a]] < row[idx[b]] })
		out[i] = idx
	})
	if err != nil {
		return nil, pipeline.Wrap("eval.sort_neighbors", done, n, err)
	}
	return out, nil
}

// KNNConfig is one grid-search configuration (Table 4's hyper-parameters;
// n is fixed by the EvalSet).
type KNNConfig struct {
	K          int
	ThetaDelta float64
	ThetaI     float64
}

// DefaultKNN returns the paper's default configuration for a comparison
// method (Table 4): the context size n and the (k, θ_δ, θ_I) triple.
func DefaultKNN(m offline.Method) (n int, cfg KNNConfig) {
	if m == offline.ReferenceBased {
		return 3, KNNConfig{K: 3, ThetaDelta: 0.2, ThetaI: 0.92}
	}
	return 2, KNNConfig{K: 3, ThetaDelta: 0.1, ThetaI: 0.7}
}

// EvaluateKNN runs Leave-One-Out cross validation of the I-kNN model: each
// θ_I-eligible sample is predicted from all other eligible samples.
func (e *EvalSet) EvaluateKNN(cfg KNNConfig) Metrics {
	outcomes, _ := e.knnOutcomes(nil, cfg) // a nil ctx never cancels
	return Compute(outcomes, e.I.Names())
}

// minParallelLOOCV is the smallest eligible-sample count worth fanning the
// LOOCV loop out over; below it the per-sample work is dwarfed by pool
// startup (EvaluateKNN runs thousands of times inside a grid search).
const minParallelLOOCV = 128

// knnOutcomes produces the per-sample LOOCV outcomes behind EvaluateKNN.
// The eligible indices are collected sequentially (fixing outcome order),
// then each outcome — a pure read of the precomputed distance matrix and
// neighbor lists — is filled into its own slot by the pool. A canceled
// ctx (nil never cancels) stops the loop between samples and returns the
// typed "eval.loocv" stage error with how many outcomes completed.
func (e *EvalSet) knnOutcomes(ctx context.Context, cfg KNNConfig) ([]Outcome, error) {
	eligible := e.eligibleMask(cfg.ThetaI)
	idxs := make([]int, 0, len(e.Samples))
	for i := range e.Samples {
		if eligible[i] {
			idxs = append(idxs, i)
		}
	}
	workers := e.Workers
	if parallel.Workers(workers) > 1 && len(idxs) < minParallelLOOCV {
		workers = 1
	}
	outcomes := make([]Outcome, len(idxs))
	done, err := parallel.ForEachN(ctx, len(idxs), workers, func(oi int) {
		outcomes[oi] = e.knnOutcomeGuarded(idxs[oi], eligible, cfg)
	})
	if err != nil {
		return nil, pipeline.Wrap("eval.loocv", done, len(idxs), err)
	}
	return outcomes, nil
}

// knnOutcomeGuarded wraps knnOutcome with the eval.loocv fault probe: an
// outcome whose retries exhaust — or that panics — degrades to an
// abstention for that sample (Covered false), keeping the ground-truth
// labels so coverage-sensitive metrics stay honest.
func (e *EvalSet) knnOutcomeGuarded(i int, eligible []bool, cfg KNNConfig) Outcome {
	if !faults.Enabled() {
		return e.knnOutcome(i, eligible, cfg)
	}
	var o Outcome
	err := faults.Guard(nil, faults.SiteEvalLOOCV, sampleFP(e.Samples[i]), func() error {
		o = e.knnOutcome(i, eligible, cfg)
		return nil
	})
	if err != nil {
		mOutcomeDropped.Inc()
		return Outcome{Actual: e.Samples[i].Labels, Covered: false}
	}
	return o
}

// knnOutcome runs the leave-one-out prediction of one eligible sample.
func (e *EvalSet) knnOutcome(i int, eligible []bool, cfg KNNConfig) Outcome {
	var nbrs []knn.Neighbor
	for _, j := range e.neighbors[i] {
		dj := e.Dist[i][j]
		if dj > cfg.ThetaDelta {
			break // neighbors are sorted; all further ones are too far
		}
		if !eligible[j] {
			continue
		}
		nbrs = append(nbrs, knn.Neighbor{Sample: e.Samples[j], Dist: dj})
		if len(nbrs) == cfg.K {
			break
		}
	}
	pred := knn.Vote(nbrs, cfg.K)
	return Outcome{
		Predicted: pred.Label,
		Actual:    e.Samples[i].Labels,
		Covered:   pred.Covered,
	}
}

func (e *EvalSet) eligibleMask(thetaI float64) []bool {
	mask := make([]bool, len(e.Samples))
	for i, b := range e.Best {
		mask[i] = b >= thetaI
	}
	return mask
}

// EvaluateRandom scores the RANDOM baseline: a uniformly random measure
// from I for every eligible sample (full coverage).
func (e *EvalSet) EvaluateRandom(thetaI float64, seed uint64) Metrics {
	names := e.I.Names()
	if len(names) == 0 {
		// An empty measure configuration has nothing to draw from;
		// rng.Intn(0) would panic on this user-reachable path.
		return Metrics{}
	}
	rng := stats.NewRNG(seed + 0xABCD)
	eligible := e.eligibleMask(thetaI)
	var outcomes []Outcome
	for i := range e.Samples {
		if !eligible[i] {
			continue
		}
		outcomes = append(outcomes, Outcome{
			Predicted: names[rng.Intn(len(names))],
			Actual:    e.Samples[i].Labels,
			Covered:   true,
		})
	}
	return Compute(outcomes, names)
}

// EvaluateBestSM scores the Best-SM baseline: always predict the single
// most prevalent label of the (leave-one-out) training set — the a-priori
// single-measure approach of existing analysis tools.
func (e *EvalSet) EvaluateBestSM(thetaI float64) Metrics {
	eligible := e.eligibleMask(thetaI)
	counts := make(map[string]float64)
	total := 0
	for i, s := range e.Samples {
		if !eligible[i] {
			continue
		}
		total++
		w := 1 / float64(len(s.Labels))
		for _, l := range s.Labels {
			counts[l] += w
		}
	}
	_ = total
	var outcomes []Outcome
	for i, s := range e.Samples {
		if !eligible[i] {
			continue
		}
		// Leave-one-out: discount the test sample's own labels.
		best, bestV := "", math.Inf(-1)
		w := 1 / float64(len(s.Labels))
		for l, c := range counts {
			v := c
			if s.HasLabel(l) {
				v -= w
			}
			if v > bestV || (v == bestV && l < best) {
				best, bestV = l, v
			}
		}
		outcomes = append(outcomes, Outcome{Predicted: best, Actual: s.Labels, Covered: true})
	}
	return Compute(outcomes, e.I.Names())
}

// SVMOptions configures the I-SVM baseline evaluation.
type SVMOptions struct {
	// Config is the underlying SVM configuration.
	Config svm.Config
	// Folds is the cross-validation fold count. The paper uses LOOCV
	// throughout; retraining an SVM per left-out sample is quadratically
	// more expensive, so this reproduction defaults to 8-fold CV (<=0),
	// documented in EXPERIMENTS.md. Set Folds == len(samples) for true
	// LOOCV.
	Folds int
	// Seed shuffles the fold assignment.
	Seed uint64
}

// EvaluateSVM scores the I-SVM baseline: a one-vs-rest SVM over the
// distance-substitution kernel, k-fold cross-validated. It always has full
// coverage. The folds train across e.Workers, each seeding its own SMO,
// and their outcomes are joined in fold order, so the metrics are the
// same at every setting. Each running fold holds its own train×train
// distance and kernel matrices.
func (e *EvalSet) EvaluateSVM(thetaI float64, opts SVMOptions) (Metrics, error) {
	folds := opts.Folds
	if folds <= 0 {
		folds = 8
	}
	eligible := e.eligibleMask(thetaI)
	var idx []int
	for i, ok := range eligible {
		if ok {
			idx = append(idx, i)
		}
	}
	if len(idx) < 2*folds {
		folds = 2
	}
	if len(idx) < 4 {
		return Metrics{}, nil
	}
	rng := stats.NewRNG(opts.Seed + 0x5F3759DF)
	perm := rng.Perm(len(idx))
	foldOf := make([]int, len(idx))
	for pi, p := range perm {
		foldOf[p] = pi % folds
	}

	classes := e.I.Names()
	outs := make([][]Outcome, folds)
	errs := make([]error, folds)
	// A nil ctx never cancels.
	parallel.ForEachN(nil, folds, e.Workers, func(f int) {
		outs[f], errs[f] = e.svmFold(idx, foldOf, f, classes, opts.Config)
	})
	var outcomes []Outcome
	for f, out := range outs {
		if errs[f] != nil {
			return Metrics{}, errs[f]
		}
		outcomes = append(outcomes, out...)
	}
	return Compute(outcomes, classes), nil
}

// svmFold trains the SVM on the samples idx holds outside fold f and
// predicts the ones inside it, in idx order.
func (e *EvalSet) svmFold(idx, foldOf []int, f int, classes []string, cfg svm.Config) ([]Outcome, error) {
	var trainIdx, testIdx []int
	for li, gi := range idx {
		if foldOf[li] == f {
			testIdx = append(testIdx, gi)
		} else {
			trainIdx = append(trainIdx, gi)
		}
	}
	if len(trainIdx) == 0 || len(testIdx) == 0 {
		return nil, nil
	}
	sub := make([][]float64, len(trainIdx))
	y := make([]string, len(trainIdx))
	for a, ga := range trainIdx {
		sub[a] = make([]float64, len(trainIdx))
		for b, gb := range trainIdx {
			sub[a][b] = e.Dist[ga][gb]
		}
		y[a] = e.Samples[ga].Label()
	}
	model, err := svm.Train(sub, y, classes, cfg)
	if err != nil {
		return nil, err
	}
	outcomes := make([]Outcome, 0, len(testIdx))
	for _, gt := range testIdx {
		row := make([]float64, len(trainIdx))
		for a, ga := range trainIdx {
			row[a] = e.Dist[gt][ga]
		}
		pred, _ := model.Predict(row)
		outcomes = append(outcomes, Outcome{Predicted: pred, Actual: e.Samples[gt].Labels, Covered: true})
	}
	return outcomes, nil
}
