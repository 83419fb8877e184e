package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/atomicio"
	"repro/internal/dataset"
	"repro/internal/effectiveness"
	"repro/internal/eval"
	"repro/internal/measures"
	"repro/internal/obs"
	"repro/internal/offline"
	"repro/internal/querylog"
	"repro/internal/session"
	"repro/internal/svm"
)

// cmdReconstruct rebuilds session trees from a flat SQL query log.
func cmdReconstruct(_ context.Context, args []string) error {
	fs := flag.NewFlagSet("reconstruct", flag.ExitOnError)
	dir := fs.String("dir", "data", "data directory with the base dataset CSVs")
	logPath := fs.String("log", "", "flat query log (RFC3339<TAB>user<TAB>sql per line)")
	out := fs.String("out", "", "write reconstructed sessions here (default DATA/sessions.json)")
	gap := fs.Duration("gap", 30*time.Minute, "session think-time gap")
	strict := fs.Bool("strict", false, "fail on unparsable/inapplicable queries instead of skipping")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *logPath == "" {
		return fmt.Errorf("reconstruct: -log is required")
	}
	repo, err := loadDatasetsOnly(*dir)
	if err != nil {
		return err
	}
	f, err := os.Open(*logPath)
	if err != nil {
		return err
	}
	defer f.Close()
	entries, err := querylog.ParseLog(f)
	if err != nil {
		return err
	}
	rep, err := querylog.Reconstruct(repo, entries, querylog.Options{SessionGap: *gap, SkipErrors: !*strict})
	if err != nil {
		return err
	}
	if *out == "" {
		*out = filepath.Join(*dir, "sessions.json")
	}
	if err := session.SaveLog(*out, repo.Sessions()); err != nil {
		return err
	}
	fmt.Printf("reconstructed %d sessions / %d actions from %d log entries -> %s\n",
		rep.Sessions, rep.Actions, rep.Entries, *out)
	for _, s := range rep.Skipped {
		fmt.Println("  skipped:", s)
	}
	return nil
}

// cmdExport flattens recorded sessions into a query log.
func cmdExport(_ context.Context, args []string) error {
	fs := flag.NewFlagSet("export", flag.ExitOnError)
	dir := fs.String("dir", "data", "data directory")
	out := fs.String("out", "querylog.tsv", "output flat log path")
	if err := fs.Parse(args); err != nil {
		return err
	}
	repo, err := loadRepo(*dir)
	if err != nil {
		return err
	}
	entries, skipped, err := querylog.Export(repo, querylog.ExportOptions{
		Start:             time.Date(2018, 3, 1, 9, 0, 0, 0, time.UTC),
		SkipInexpressible: true,
	})
	if err != nil {
		return err
	}
	if skipped > 0 {
		fmt.Printf("skipped %d steps the flat dialect cannot express\n", skipped)
	}
	if err := atomicio.WriteFile(*out, func(w io.Writer) error {
		return querylog.WriteLog(w, entries)
	}); err != nil {
		return err
	}
	fmt.Printf("exported %d query-log entries -> %s\n", len(entries), *out)
	return nil
}

// cmdEffectiveness runs the analyst-effectiveness meta-task.
func cmdEffectiveness(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("effectiveness", flag.ExitOnError)
	dir := fs.String("dir", "data", "data directory")
	threshold := fs.Float64("threshold", 0.7, "θ_I-scale interestingness threshold")
	top := fs.Int("top", 10, "analysts to list")
	if err := fs.Parse(args); err != nil {
		return err
	}
	repo, err := loadRepo(*dir)
	if err != nil {
		return err
	}
	a, err := offline.AnalyzeContext(ctx, repo, offline.Options{SkipReference: true})
	if err != nil {
		return err
	}
	scores := effectiveness.ScoreSessions(a, measures.DefaultSet(), offline.Normalized, *threshold)
	sep, err := effectiveness.Compare(scores, 2000, 1)
	if err != nil {
		fmt.Println("separation unavailable:", err)
	} else {
		fmt.Printf("successful sessions:   n=%d mean effectiveness %.3f\n", sep.SuccessfulN, sep.SuccessfulMean)
		fmt.Printf("unsuccessful sessions: n=%d mean effectiveness %.3f\n", sep.UnsuccessfulN, sep.UnsuccessMean)
		fmt.Printf("difference %.3f (permutation p = %.4f)\n\n", sep.Diff, sep.PValue)
	}
	fmt.Println("top analysts by mean session effectiveness:")
	for i, ar := range effectiveness.ByAnalyst(scores) {
		if i >= *top {
			break
		}
		fmt.Printf("  %2d. %-12s %.3f over %d sessions\n", i+1, ar.Analyst, ar.Mean, ar.Sessions)
	}
	return nil
}

// cmdEval evaluates the predictive models on a stored benchmark.
func cmdEval(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("eval", flag.ExitOnError)
	dir := fs.String("dir", "data", "data directory")
	methodName := fs.String("method", "norm", "comparison method: norm or ref")
	refLimit := fs.Int("reflimit", 60, "reference set cap")
	verbose := fs.Bool("v", false, "print the telemetry snapshot (stage timings, counters) at exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *verbose {
		obs.SetMode(obs.ModeTiming)
		defer func() { fmt.Fprint(os.Stderr, "\n"+obs.Default.Snapshot().Table()) }()
	}
	repo, err := loadRepo(*dir)
	if err != nil {
		return err
	}
	method := offline.Normalized
	opts := offline.Options{SkipReference: true, Workers: workerCount}
	if *methodName == "ref" {
		method = offline.ReferenceBased
		opts = offline.Options{RefLimit: *refLimit, Workers: workerCount}
	}
	n, cfg := eval.DefaultKNN(method)
	a, err := offline.AnalyzeContext(ctx, repo, opts)
	if err != nil {
		return err
	}
	cache := eval.NewDistanceCache()
	cache.Workers = workerCount
	es, err := eval.BuildEvalSetCachedCtx(ctx, a, measures.DefaultSet(), method, n, cache)
	if err != nil {
		return err
	}
	fmt.Printf("%s, config %v, %d samples\n\n", method, measures.DefaultSet().Names(), len(es.Samples))
	fmt.Printf("%-8s %s\n", "RANDOM", es.EvaluateRandom(cfg.ThetaI, 1))
	fmt.Printf("%-8s %s\n", "BestSM", es.EvaluateBestSM(cfg.ThetaI))
	if sm, err := es.EvaluateSVM(cfg.ThetaI, eval.SVMOptions{Config: svm.Config{C: 2}, Folds: 8, Seed: 1}); err == nil {
		fmt.Printf("%-8s %s\n", "I-SVM", sm)
	}
	knnM, _, confusion := es.EvaluateKNNDetailed(cfg)
	fmt.Printf("%-8s %s\n", "I-kNN", knnM)
	fmt.Printf("\nI-kNN confusion matrix:\n%s", confusion)
	return nil
}

// loadDatasetsOnly loads the CSV datasets of a data dir without requiring
// a sessions.json (used by reconstruct).
func loadDatasetsOnly(dir string) (*session.Repository, error) {
	repo := session.NewRepository()
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	found := false
	for _, e := range entries {
		if filepath.Ext(e.Name()) != ".csv" {
			continue
		}
		tbl, err := dataset.LoadCSV(filepath.Join(dir, e.Name()), "")
		if err != nil {
			return nil, err
		}
		repo.AddDataset(tbl)
		found = true
	}
	if !found {
		return nil, fmt.Errorf("no dataset CSVs in %s", dir)
	}
	return repo, nil
}
