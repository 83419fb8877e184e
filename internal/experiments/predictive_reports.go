package experiments

import (
	"fmt"

	"repro/internal/eval"
	"repro/internal/offline"
	"repro/internal/svm"
)

// everyOther thins a sweep to half resolution for quick mode.
func everyOther(xs []float64) []float64 {
	var out []float64
	for i := 0; i < len(xs); i += 2 {
		out = append(out, xs[i])
	}
	return out
}

// gridFor picks the sweep resolution.
func (r *Runner) gridFor(m offline.Method) eval.GridSpec {
	if r.Quick {
		return eval.GridSpec{
			Ns:          []int{1, 3, 7},
			Ks:          []int{1, 5, 15},
			ThetaDeltas: []float64{0.1, 0.3, 0.5},
			ThetaIs:     thetaIsFor(m, true),
		}
	}
	return eval.DefaultGrid(m)
}

func thetaIsFor(m offline.Method, quick bool) []float64 {
	if m == offline.ReferenceBased {
		if quick {
			return []float64{0, 0.92}
		}
		return []float64{0, 0.5, 0.7, 0.92}
	}
	if quick {
		return []float64{-2.5, 0.7}
	}
	return []float64{-2.5, 0, 0.7, 1.5}
}

// Table4 reproduces Table 4: the hyper-parameter ranges and a default
// configuration chosen from the skyline (highest accuracy x coverage),
// reported next to the paper's choices.
func (r *Runner) Table4() error {
	r.section("Table 4 — hyper-parameter grid search and chosen defaults")
	I := r.Configs()[0]
	for _, m := range offline.Methods {
		g := r.gridFor(m)
		fmt.Fprintf(r.Out, "\n%s: sweeping %d configurations (n x k x θ_δ x θ_I = %dx%dx%dx%d)\n",
			m, g.Size(), len(g.Ns), len(g.Ks), len(g.ThetaDeltas), len(g.ThetaIs))
		points := eval.GridSearch(r.Analysis, I, m, g, r.cache)
		sky := eval.Skyline(points)
		best, ok := eval.BestByF1TimesCoverage(sky)
		if !ok {
			fmt.Fprintf(r.Out, "  no usable configuration found\n")
			continue
		}
		pn, pcfg := eval.DefaultKNN(m)
		fmt.Fprintf(r.Out, "  chosen default: n=%d k=%d θ_δ=%.2f θ_I=%.2f -> %s\n",
			best.N, best.K, best.ThetaDelta, best.ThetaI, best.Metrics)
		fmt.Fprintf(r.Out, "  paper default:  n=%d k=%d θ_δ=%.2f θ_I=%.2f (accuracy %.3f, coverage %.3f on REACT-IDA)\n",
			pn, pcfg.K, pcfg.ThetaDelta, pcfg.ThetaI, paperAccuracy(m), paperCoverage(m))
	}
	return nil
}

func paperAccuracy(m offline.Method) float64 {
	if m == offline.ReferenceBased {
		return 0.730
	}
	return 0.763
}

func paperCoverage(m offline.Method) float64 {
	if m == offline.ReferenceBased {
		return 0.67
	}
	return 0.722
}

// Table5 reproduces Table 5: Accuracy / Macro-Precision / Macro-Recall /
// Macro-F1 of RANDOM, Best-SM, I-SVM and I-kNN under both comparison
// methods, averaged over the measure configurations. I-kNN runs at the
// Table-4 default (sub-1.0 coverage); the others have full coverage.
func (r *Runner) Table5() error {
	r.section("Table 5 — interestingness measure prediction, baseline comparison")
	folds := 8
	if r.Quick {
		folds = 4
	}
	configs := r.Configs()
	for _, m := range offline.Methods {
		n, cfg := eval.DefaultKNN(m)
		var rnd, bsm, svmM, knnM []eval.Metrics
		for ci, I := range configs {
			es := eval.BuildEvalSetCached(r.Analysis, I, m, n, r.cache)
			rnd = append(rnd, es.EvaluateRandom(cfg.ThetaI, r.Seed+uint64(ci)))
			bsm = append(bsm, es.EvaluateBestSM(cfg.ThetaI))
			sm, err := es.EvaluateSVM(cfg.ThetaI, eval.SVMOptions{
				Config: svm.Config{C: 2},
				Folds:  folds,
				Seed:   r.Seed + uint64(ci),
			})
			if err != nil {
				return err
			}
			svmM = append(svmM, sm)
			knnM = append(knnM, es.EvaluateKNN(cfg))
		}
		fmt.Fprintf(r.Out, "\n%s comparison (avg over %d configs; θ_I=%.2f, kNN at n=%d k=%d θ_δ=%.2f):\n",
			m, len(configs), cfg.ThetaI, n, cfg.K, cfg.ThetaDelta)
		fmt.Fprintf(r.Out, "%-8s %9s %9s %9s %9s %9s\n", "model", "Accuracy", "Macro-P", "Macro-R", "Macro-F1", "Coverage")
		printRow := func(name string, ms []eval.Metrics) {
			a := eval.Average(ms)
			fmt.Fprintf(r.Out, "%-8s %9.3f %9.3f %9.3f %9.3f %9.3f\n",
				name, a.Accuracy, a.MacroPrecision, a.MacroRecall, a.MacroF1, a.Coverage)
		}
		printRow("RANDOM", rnd)
		printRow("BestSM", bsm)
		printRow("I-SVM", svmM)
		printRow("I-kNN", knnM)
	}
	fmt.Fprintf(r.Out, "\npaper (REACT-IDA): RB  RANDOM .282 BestSM .397 I-SVM .632 I-kNN .730 (accuracy)\n")
	fmt.Fprintf(r.Out, "                   Norm RANDOM .252 BestSM .329 I-SVM .655 I-kNN .763\n")
	fmt.Fprintf(r.Out, "shape to check: RANDOM < BestSM < I-SVM <= I-kNN, and BestSM macro-recall ≈ 1/|I|.\n")
	return nil
}

// Fig4 reproduces Figure 4: the coverage-vs-accuracy skyline (Pareto
// frontier) of the grid-search configurations, per method, as an ASCII
// series suitable for replotting.
func (r *Runner) Fig4() error {
	r.section("Figure 4 — configurations skyline (coverage vs accuracy)")
	I := r.Configs()[0]
	for _, m := range offline.Methods {
		points := eval.GridSearch(r.Analysis, I, m, r.gridFor(m), r.cache)
		sky := eval.Skyline(points)
		fmt.Fprintf(r.Out, "\n%s skyline (%d dominant of %d configurations):\n", m, len(sky), len(points))
		fmt.Fprintf(r.Out, "%10s %10s   (n, k, θ_δ, θ_I)\n", "coverage", "accuracy")
		for _, p := range sky {
			fmt.Fprintf(r.Out, "%10.3f %10.3f   (%d, %d, %.2f, %.2f)\n",
				p.Metrics.Coverage, p.Metrics.Accuracy, p.N, p.K, p.ThetaDelta, p.ThetaI)
		}
	}
	fmt.Fprintf(r.Out, "\nshape to check: accuracy decreases monotonically as coverage grows toward 1.\n")
	return nil
}

// Fig5 reproduces Figure 5: Accuracy, Macro-F1 and Coverage as a function
// of each hyper-parameter, with the others fixed at the method's default
// configuration (subplots a1-a4 for Reference-Based, b1-b4 for
// Normalized).
func (r *Runner) Fig5() error {
	r.section("Figure 5 — hyper-parameter effects")
	for _, m := range offline.Methods {
		defN, defCfg := eval.DefaultKNN(m)
		fmt.Fprintf(r.Out, "\n--- %s (defaults: n=%d k=%d θ_δ=%.2f θ_I=%.2f) ---\n",
			m, defN, defCfg.K, defCfg.ThetaDelta, defCfg.ThetaI)

		ns := []int{1, 2, 3, 5, 7, 9, 11}
		if r.Quick {
			ns = []int{1, 3, 7}
		}
		fmt.Fprintf(r.Out, "\n(1) n-context size:\n%6s %10s %10s %10s\n", "n", "accuracy", "macro-F1", "coverage")
		for _, n := range ns {
			es := eval.BuildEvalSetCached(r.Analysis, r.Configs()[0], m, n, r.cache)
			mt := es.EvaluateKNN(defCfg)
			fmt.Fprintf(r.Out, "%6d %10.3f %10.3f %10.3f\n", n, mt.Accuracy, mt.MacroF1, mt.Coverage)
		}

		es := eval.BuildEvalSetCached(r.Analysis, r.Configs()[0], m, defN, r.cache)
		ks := []int{1, 2, 3, 5, 9, 15, 25, 40}
		if r.Quick {
			ks = []int{1, 5, 15, 40}
		}
		fmt.Fprintf(r.Out, "\n(2) kNN size:\n%6s %10s %10s %10s\n", "k", "accuracy", "macro-F1", "coverage")
		for _, k := range ks {
			cfg := defCfg
			cfg.K = k
			mt := es.EvaluateKNN(cfg)
			fmt.Fprintf(r.Out, "%6d %10.3f %10.3f %10.3f\n", k, mt.Accuracy, mt.MacroF1, mt.Coverage)
		}

		deltas := []float64{0.02, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5}
		if r.Quick {
			deltas = []float64{0.05, 0.2, 0.5}
		}
		fmt.Fprintf(r.Out, "\n(3) distance threshold θ_δ:\n%6s %10s %10s %10s\n", "θ_δ", "accuracy", "macro-F1", "coverage")
		for _, d := range deltas {
			cfg := defCfg
			cfg.ThetaDelta = d
			mt := es.EvaluateKNN(cfg)
			fmt.Fprintf(r.Out, "%6.2f %10.3f %10.3f %10.3f\n", d, mt.Accuracy, mt.MacroF1, mt.Coverage)
		}

		var thetas []float64
		if m == offline.ReferenceBased {
			thetas = []float64{0, 0.25, 0.5, 0.7, 0.85, 0.92, 1.0}
		} else {
			thetas = []float64{-2.5, -1, 0, 0.7, 1.5, 2.0}
		}
		if r.Quick {
			thetas = everyOther(thetas)
		}
		fmt.Fprintf(r.Out, "\n(4) interestingness threshold θ_I:\n%6s %10s %10s %10s %9s\n", "θ_I", "accuracy", "macro-F1", "coverage", "samples")
		for _, ti := range thetas {
			cfg := defCfg
			cfg.ThetaI = ti
			mt := es.EvaluateKNN(cfg)
			fmt.Fprintf(r.Out, "%6.2f %10.3f %10.3f %10.3f %9d\n", ti, mt.Accuracy, mt.MacroF1, mt.Coverage, mt.Samples)
		}
	}
	fmt.Fprintf(r.Out, "\nshape to check: accuracy rises / coverage falls with larger n, k, θ_I and smaller θ_δ.\n")
	return nil
}
