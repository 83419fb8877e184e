package repro

// The benchmark harness: one testing.B benchmark per table/figure of the
// paper's evaluation, plus ablation benches for the design choices called
// out in DESIGN.md. Run with:
//
//	go test -bench=. -benchmem
//
// Benchmarks that correspond to *timing* results (Table 3, the 6ms kNN
// prediction) measure exactly the paper's component; benchmarks tied to
// *quality* results (Tables 4-5, Figures 3-5) measure the cost of
// regenerating the experiment so the full evaluation stays reproducible
// under `go test -bench`.

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"testing"

	"repro/internal/distance"
	"repro/internal/engine"
	"repro/internal/eval"
	"repro/internal/knn"
	"repro/internal/measures"
	"repro/internal/netlog"
	"repro/internal/offline"
	"repro/internal/session"
	"repro/internal/simulate"
	"repro/internal/stats"
	"repro/internal/svm"
)

// benchState lazily builds one shared benchmark repository + analysis so
// individual benchmarks measure their own component, not setup.
var (
	benchOnce sync.Once
	benchErr  error
	benchRepo *session.Repository
	benchAnal *offline.Analysis
)

func benchSetup(b *testing.B) (*session.Repository, *offline.Analysis) {
	b.Helper()
	benchOnce.Do(func() {
		benchRepo, benchErr = simulate.Generate(simulate.Config{
			Analysts:      16,
			Sessions:      120,
			MeanActions:   5.0,
			Seed:          271828,
			DatasetConfig: netlog.Config{Rows: 1500},
		})
		if benchErr != nil {
			return
		}
		benchAnal, benchErr = offline.Analyze(benchRepo, offline.Options{RefLimit: 40, Seed: 7})
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchRepo, benchAnal
}

// --- Table 3: offline running-time components -------------------------

// BenchmarkTable3ActionExecution measures the "action execution" component
// of the Reference-Based method: running one reference action against a
// parent display.
func BenchmarkTable3ActionExecution(b *testing.B) {
	repo, _ := benchSetup(b)
	root := repo.RootDisplay(repo.DatasetNames()[0])
	action := engine.NewGroupCount("protocol")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.Execute(root, action); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3CalcInterestingness measures scoring one display with all
// eight measures (the dominant Reference-Based cost, multiplied by the
// reference-set size).
func BenchmarkTable3CalcInterestingness(b *testing.B) {
	repo, _ := benchSetup(b)
	root := repo.RootDisplay(repo.DatasetNames()[0])
	d, err := engine.Execute(root, engine.NewGroupCount("protocol"))
	if err != nil {
		b.Fatal(err)
	}
	msrs := measures.BuiltinMeasures()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx := &measures.Context{Action: d.FromAction, Display: d, Parent: root, Root: root}
		for _, m := range msrs {
			_ = m.Score(ctx)
		}
	}
}

// BenchmarkTable3ReferenceBasedPerAction measures the full Algorithm-1
// cost for one recorded action: execute + score a reference set, then
// rank. This is the Reference-Based "total" row of Table 3.
func BenchmarkTable3ReferenceBasedPerAction(b *testing.B) {
	repo, _ := benchSetup(b)
	root := repo.RootDisplay(repo.DatasetNames()[0])
	// A reference set drawn like the paper's: same-type recorded actions.
	var refs []*engine.Action
	for _, s := range repo.Sessions() {
		for _, n := range s.Nodes()[1:] {
			if n.Action.Type == engine.ActionGroup && len(refs) < 40 {
				refs = append(refs, n.Action)
			}
		}
	}
	q := engine.NewGroupCount("protocol")
	d, err := engine.Execute(root, q)
	if err != nil {
		b.Fatal(err)
	}
	msrs := measures.BuiltinMeasures()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		qScores := map[string]float64{}
		ctx := &measures.Context{Action: q, Display: d, Parent: root, Root: root}
		for _, m := range msrs {
			qScores[m.Name()] = m.Score(ctx)
		}
		beat := map[string]int{}
		scored := 0
		for _, ra := range refs {
			rd, err := engine.Execute(root, ra)
			if err != nil || rd.NumRows() < 2 {
				continue
			}
			scored++
			rctx := &measures.Context{Action: ra, Display: rd, Parent: root, Root: root}
			for _, m := range msrs {
				if m.Score(rctx) <= qScores[m.Name()] {
					beat[m.Name()]++
				}
			}
		}
		_ = beat
	}
}

// BenchmarkTable3NormalizedPerAction measures the full Algorithm-2 cost
// for one action: score with all measures, Box-Cox transform, z-score.
// Compare against BenchmarkTable3ReferenceBasedPerAction: the ratio is the
// paper's 7.2s-vs-0.138s finding.
func BenchmarkTable3NormalizedPerAction(b *testing.B) {
	repo, a := benchSetup(b)
	root := repo.RootDisplay(repo.DatasetNames()[0])
	q := engine.NewGroupCount("protocol")
	d, err := engine.Execute(root, q)
	if err != nil {
		b.Fatal(err)
	}
	msrs := measures.BuiltinMeasures()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx := &measures.Context{Action: q, Display: d, Parent: root, Root: root}
		for _, m := range msrs {
			if _, err := a.Normalizer.RelativeOne(m.Name(), m.Score(ctx)); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkNormalizePipeline measures the Figure-2 preprocessing: fitting
// Box-Cox (λ by MLE) + moments on a full score series.
func BenchmarkNormalizePipeline(b *testing.B) {
	_, a := benchSetup(b)
	series := make([]float64, 0, len(a.Nodes))
	for _, ns := range a.Nodes {
		series = append(series, ns.Raw["compaction_gain"])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := stats.BoxCoxTransform(series); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Section 4.2: prediction latency ----------------------------------

// benchQueryStates returns query states drawn from unsuccessful sessions
// (out of training).
func benchQueryStates(b *testing.B, repo *session.Repository) []session.State {
	b.Helper()
	var states []session.State
	for _, s := range repo.Sessions() {
		if s.Successful {
			continue
		}
		for t := 1; t <= s.Steps(); t++ {
			if st, err := s.StateAt(t); err == nil {
				states = append(states, st)
			}
		}
	}
	if len(states) == 0 {
		b.Fatal("no query states")
	}
	return states
}

// BenchmarkKNNPredict measures one online prediction (the paper reports
// ~6ms per prediction): n-context extraction plus a kNN query against the
// full training set. The sub-benchmarks form the regression ladder of the
// scan optimizations: "naive" is the pre-optimization algorithm (full
// scan, full stable sort), "sequential" adds θ_δ/k-th-best early-abandon
// pruning, the prepared evaluator and the bounded top-k heap on one
// worker, and "parallel" adds the chunked multi-worker scan (DESIGN.md
// §12). All three emit identical output bits; on a single-core runner
// "parallel" degenerates to "sequential". Classifiers (and their
// display-distance memos) are shared across benchmark rounds so the
// numbers report steady-state prediction cost, not one-time memo
// population.
func BenchmarkKNNPredict(b *testing.B) {
	repo, a := benchSetup(b)
	samples := offline.BuildTrainingSet(a, measures.DefaultSet(), offline.TrainingOptions{
		N: 2, Method: offline.Normalized, ThetaI: 0.7, SuccessfulOnly: true,
	})
	if len(samples) == 0 {
		b.Fatal("empty training set")
	}
	states := benchQueryStates(b, repo)
	naiveMetric := distance.NewMemoizedTreeEdit(nil)
	b.Run("naive", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			q := session.Extract(states[i%len(states)], 2)
			ns := make([]knn.Neighbor, 0, len(samples))
			for _, s := range samples {
				if d := naiveMetric.Distance(q, s.Context); d <= 0.1 {
					ns = append(ns, knn.Neighbor{Sample: s, Dist: d})
				}
			}
			sortNeighborsByDist(ns)
			_ = knn.Vote(ns, 3)
		}
	})
	newClf := func(workers int) *knn.Classifier {
		return knn.New(samples, distance.NewMemoizedTreeEdit(nil), knn.Config{K: 3, ThetaDelta: 0.1, Workers: workers})
	}
	for _, w := range []struct {
		name string
		clf  *knn.Classifier
	}{{"sequential", newClf(1)}, {"parallel", newClf(0)}} {
		b.Run(w.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				st := states[i%len(states)]
				_ = w.clf.Predict(session.Extract(st, 2))
			}
		})
	}
}

func sortNeighborsByDist(ns []knn.Neighbor) {
	sort.SliceStable(ns, func(i, j int) bool { return ns[i].Dist < ns[j].Dist })
}

// BenchmarkKNNPredictAll measures the batch API the evaluator uses: the
// whole query set predicted through one call, queries fanned across the
// pool.
func BenchmarkKNNPredictAll(b *testing.B) {
	repo, a := benchSetup(b)
	samples := offline.BuildTrainingSet(a, measures.DefaultSet(), offline.TrainingOptions{
		N: 2, Method: offline.Normalized, ThetaI: 0.7, SuccessfulOnly: true,
	})
	states := benchQueryStates(b, repo)
	queries := make([]*session.Context, len(states))
	for i, st := range states {
		queries[i] = session.Extract(st, 2)
	}
	for _, w := range []struct {
		name    string
		workers int
	}{{"sequential", 1}, {"parallel", 0}} {
		b.Run(w.name, func(b *testing.B) {
			clf := knn.New(samples, distance.NewMemoizedTreeEdit(nil), knn.Config{K: 3, ThetaDelta: 0.1, Workers: w.workers})
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = clf.PredictAll(queries)
			}
		})
	}
}

// BenchmarkOfflineAnalyze measures the full offline analysis (raw scoring,
// normalizer fits, reference-set execution) sequentially vs across the
// worker pool; outputs are bit-identical, only the wall-clock differs.
func BenchmarkOfflineAnalyze(b *testing.B) {
	repo, _ := benchSetup(b)
	for _, w := range []struct {
		name    string
		workers int
	}{{"sequential", 1}, {"parallel", 0}} {
		b.Run(w.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := offline.Analyze(repo, offline.Options{RefLimit: 40, Seed: 7, Workers: w.workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOfflinePairwiseDistances measures the eval-side distance-matrix
// fill behind every grid-search sweep.
func BenchmarkOfflinePairwiseDistances(b *testing.B) {
	_, a := benchSetup(b)
	samples := offline.BuildTrainingSet(a, measures.DefaultSet(), offline.TrainingOptions{
		N: 2, Method: offline.Normalized, ThetaI: math.Inf(-1), SuccessfulOnly: true,
	})
	for _, w := range []struct {
		name    string
		workers int
	}{{"sequential", 1}, {"parallel", 0}} {
		b.Run(w.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, _ = eval.PairwiseDistances(nil, samples, distance.NewMemoizedTreeEdit(nil), w.workers)
			}
		})
	}
}

// BenchmarkTreeEditDistance measures the core kNN primitive: one
// n-context tree edit distance.
func BenchmarkTreeEditDistance(b *testing.B) {
	_, a := benchSetup(b)
	samples := offline.BuildTrainingSet(a, measures.DefaultSet(), offline.TrainingOptions{
		N: 5, Method: offline.Normalized, ThetaI: math.Inf(-1), SuccessfulOnly: true,
	})
	if len(samples) < 2 {
		b.Fatal("need samples")
	}
	m := distance.TreeEdit{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := samples[i%len(samples)]
		y := samples[(i*7+1)%len(samples)]
		_ = m.Distance(x.Context, y.Context)
	}
}

// --- Table 5 / Figure 4 / Figure 5 machinery --------------------------

// BenchmarkTable5KNNLoocv measures one LOOCV evaluation of the I-kNN model
// at the default configuration (a single Table-5 cell).
func BenchmarkTable5KNNLoocv(b *testing.B) {
	_, a := benchSetup(b)
	es := eval.BuildEvalSet(a, measures.DefaultSet(), offline.Normalized, 2, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = es.EvaluateKNN(eval.KNNConfig{K: 3, ThetaDelta: 0.1, ThetaI: 0.7})
	}
}

// BenchmarkTable5SVM measures the I-SVM baseline cell: k-fold CV of the
// distance-substitution-kernel SVM.
func BenchmarkTable5SVM(b *testing.B) {
	_, a := benchSetup(b)
	es := eval.BuildEvalSet(a, measures.DefaultSet(), offline.Normalized, 2, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := es.EvaluateSVM(0.7, eval.SVMOptions{Config: svm.Config{C: 2}, Folds: 4, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4GridSearch measures a Figure-4 skyline regeneration over a
// compact grid (the full paper-scale grid is cmd/experiments territory).
func BenchmarkFig4GridSearch(b *testing.B) {
	_, a := benchSetup(b)
	g := eval.GridSpec{
		Ns:          []int{1, 3},
		Ks:          []int{1, 5},
		ThetaDeltas: []float64{0.1, 0.3},
		ThetaIs:     []float64{0, 0.7},
	}
	cache := eval.NewDistanceCache()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		points := eval.GridSearch(a, measures.DefaultSet(), offline.Normalized, g, cache)
		_ = eval.Skyline(points)
	}
}

// BenchmarkFig5ParameterSweep measures one Figure-5 sweep cell: rebuilding
// an EvalSet at a non-default n and evaluating it.
func BenchmarkFig5ParameterSweep(b *testing.B) {
	_, a := benchSetup(b)
	cache := eval.NewDistanceCache()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := []int{1, 3, 5}[i%3]
		es := eval.BuildEvalSetCached(a, measures.DefaultSet(), offline.Normalized, n, cache)
		_ = es.EvaluateKNN(eval.KNNConfig{K: 3, ThetaDelta: 0.1, ThetaI: 0.7})
	}
}

// BenchmarkFig3ClassFrequency measures a Figure-3 regeneration: dominant
// class frequencies over all recorded actions for one configuration.
func BenchmarkFig3ClassFrequency(b *testing.B) {
	_, a := benchSetup(b)
	I := measures.DefaultSet()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = offline.ClassFrequency(a, I, offline.Normalized)
	}
}

// BenchmarkFig2Histograms measures a Figure-2 regeneration (histogram +
// skewness of raw and normalized series).
func BenchmarkFig2Histograms(b *testing.B) {
	_, a := benchSetup(b)
	raw := make([]float64, 0, len(a.Nodes))
	for _, ns := range a.Nodes {
		raw = append(raw, ns.Raw["osf"])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h, err := stats.NewHistogram(raw, 12)
		if err != nil {
			b.Fatal(err)
		}
		_ = h.Render(36)
		_ = stats.Skewness(raw)
	}
}

// BenchmarkTable2ScoreSession measures the Table-2 primitive: scoring a
// three-action session with all eight measures.
func BenchmarkTable2ScoreSession(b *testing.B) {
	tables := netlog.GenerateAll(netlog.Config{Rows: 1500})
	tbl := tables[1] // beacon
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := NewSession("bench", tbl)
		if _, err := s.Apply(GroupCount("protocol")); err != nil {
			b.Fatal(err)
		}
		if err := s.BackTo(s.Root()); err != nil {
			b.Fatal(err)
		}
		if _, err := s.Apply(Filter(Eq("protocol", Str("HTTP")), Gt("hour", Int(19)))); err != nil {
			b.Fatal(err)
		}
		if _, err := s.Apply(GroupCount("dst_ip")); err != nil {
			b.Fatal(err)
		}
		if _, err := ScoreAll(s); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations (DESIGN.md §5) ------------------------------------------

// BenchmarkAblationNormalization compares Algorithm 2's Box-Cox+z pipeline
// against a z-score-only ablation on the same series; the quality effect
// is reported by TestAblation* in ablation_test.go, this bench tracks the
// cost delta.
func BenchmarkAblationNormalization(b *testing.B) {
	_, a := benchSetup(b)
	series := make([]float64, 0, len(a.Nodes))
	for _, ns := range a.Nodes {
		series = append(series, ns.Raw["osf"])
	}
	b.Run("boxcox+zscore", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			transformed, _, err := stats.BoxCoxTransform(series)
			if err != nil {
				b.Fatal(err)
			}
			_, _, _ = stats.ZScores(transformed)
		}
	})
	b.Run("zscore-only", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, _, _ = stats.ZScores(series)
		}
	})
}

// BenchmarkAblationDistanceMetric compares the tree edit distance against
// the flat last-action metric used in the structure ablation.
func BenchmarkAblationDistanceMetric(b *testing.B) {
	_, a := benchSetup(b)
	samples := offline.BuildTrainingSet(a, measures.DefaultSet(), offline.TrainingOptions{
		N: 5, Method: offline.Normalized, ThetaI: math.Inf(-1), SuccessfulOnly: true,
	})
	if len(samples) < 2 {
		b.Fatal("need samples")
	}
	pairs := func(i int) (*session.Context, *session.Context) {
		return samples[i%len(samples)].Context, samples[(i*13+5)%len(samples)].Context
	}
	b.Run("tree-edit", func(b *testing.B) {
		m := distance.TreeEdit{}
		for i := 0; i < b.N; i++ {
			x, y := pairs(i)
			_ = m.Distance(x, y)
		}
	})
	b.Run("last-action", func(b *testing.B) {
		m := distance.LastActionMetric{}
		for i := 0; i < b.N; i++ {
			x, y := pairs(i)
			_ = m.Distance(x, y)
		}
	})
	b.Run("sequence-alignment", func(b *testing.B) {
		m := distance.AlignmentMetric{}
		for i := 0; i < b.N; i++ {
			x, y := pairs(i)
			_ = m.Distance(x, y)
		}
	})
}

// BenchmarkNContextExtraction tracks the cost of Section-3.2 context
// extraction across context sizes.
func BenchmarkNContextExtraction(b *testing.B) {
	repo, _ := benchSetup(b)
	var states []session.State
	for _, s := range repo.Sessions() {
		if st, err := s.StateAt(s.Steps()); err == nil {
			states = append(states, st)
		}
	}
	for _, n := range []int{1, 3, 7, 11} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = session.Extract(states[i%len(states)], n)
			}
		})
	}
}
