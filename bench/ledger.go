package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// artifact is the ledger's JSON record.
type artifact struct {
	Env     env     `json:"env"`
	Seconds float64 `json:"seconds"`
	Runs    int     `json:"runs_per_workload"`
	// Summary holds, per workload, each end-to-end metric over the
	// untraced runs.
	Summary map[string]map[string]stat `json:"summary"`
	// Layers holds, per workload, the traced run's per-layer metrics.
	Layers map[string]map[string]value `json:"layers"`
	// OfflineSpeedup is offline-ref's throughput with one worker per CPU
	// over its throughput with one worker; absent when GOMAXPROCS is 1.
	OfflineSpeedup float64   `json:"offline_parallel_speedup,omitempty"`
	Results        []*result `json:"results"`
}

// stat summarizes one metric over a workload's runs.
type stat struct {
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	// Spread is (Q3-Q1)/Median across runs.
	Spread float64 `json:"spread"`
	// InRun is the median, over runs, of each run's own in-run quartile
	// spread (throughput only).
	InRun  float64   `json:"in_run_spread,omitempty"`
	Values []float64 `json:"values"`
}

// ledgerRuns is how many untraced runs the ledger makes of each workload,
// with seeds seed, seed+1, ...
const ledgerRuns = 5

// ledger runs every named workload ledgerRuns times untraced and once
// traced, each run in its own child process, then summarizes, writes the
// artifact and compares it with a base artifact when asked.
func ledger(names []string, o options, out, compare string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	art := &artifact{Env: currentEnv(), Seconds: o.seconds.Seconds(), Runs: ledgerRuns}
	failed := 0
	for _, name := range names {
		for i := 0; i <= ledgerRuns; i++ {
			seed, trace := o.seed+uint64(i), 0
			if i == ledgerRuns {
				seed, trace = o.seed, 1
			}
			r, err := child(exe, o, name, seed, trace, stdout, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s seed %d: %v\n", name, seed, err)
				return 1
			}
			failed += r.Failed
			art.Results = append(art.Results, r)
		}
	}
	summarize(art)
	printSummary(stdout, art)
	if out != "" {
		if err := writeJSON(out, art); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		fmt.Fprintln(stderr, "bench: wrote", out)
	}
	code := 0
	if failed > 0 {
		fmt.Fprintf(stdout, "FAIL: %d failed operations or checks\n", failed)
		code = 1
	}
	if compare != "" {
		var base artifact
		if err := readJSON(compare, &base); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		if printComparison(stdout, compareArtifacts(&base, art)) {
			code = 1
		}
	}
	return code
}

// child runs one workload in a fresh process and reads back its record.
func child(exe string, o options, name string, seed uint64, trace int, stdout, stderr io.Writer) (*result, error) {
	rec := filepath.Join(o.scratch, fmt.Sprintf("%s-%d-%d.json", name, seed, trace))
	cmd := exec.Command(exe, "-workload", name, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds.Seconds(), 'g', -1, 64),
		"-trace", strconv.Itoa(trace), "-record", rec)
	cmd.Stdout, cmd.Stderr = stdout, stderr
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	defer os.Remove(rec)
	var r result
	if err := readJSON(rec, &r); err != nil {
		return nil, err
	}
	return &r, nil
}

// summarize fills the artifact's per-workload statistics.
func summarize(art *artifact) {
	art.Summary = map[string]map[string]stat{}
	art.Layers = map[string]map[string]value{}
	var serial float64
	for _, r := range art.Results {
		if r.Trace {
			art.Layers[r.Workload] = r.Layers
			if r.Workload == "offline-ref" {
				serial = r.EndToEnd["throughput_per_s"].Value
			}
			continue
		}
		if art.Summary[r.Workload] == nil {
			art.Summary[r.Workload] = map[string]stat{}
		}
		for _, d := range endToEnd {
			s := art.Summary[r.Workload][d.Name]
			s.Unit = d.Unit
			s.Values = append(s.Values, r.EndToEnd[d.Name].Value)
			art.Summary[r.Workload][d.Name] = s
		}
	}
	for w, metrics := range art.Summary {
		for name, s := range metrics {
			s.Q1, s.Median, s.Q3 = quartiles(s.Values)
			s.Spread = spread(s.Values)
			var inRun []float64
			for _, r := range art.Results {
				if v := r.EndToEnd[name]; r.Workload == w && !r.Trace && v.Value != 0 && (v.Q1 != 0 || v.Q3 != 0) {
					inRun = append(inRun, (v.Q3-v.Q1)/v.Value)
				}
			}
			s.InRun = median(inRun)
			metrics[name] = s
		}
	}
	if off, ok := art.Summary["offline-ref"]; ok && serial > 0 && art.Env.GOMAXPROCS > 1 {
		art.OfflineSpeedup = off["throughput_per_s"].Median / serial
	}
}

func printSummary(w io.Writer, art *artifact) {
	b := art.Env.Build
	fmt.Fprintf(w, "\nledger: %d runs per workload, %.0fs each; cpus %d, gomaxprocs %d, %s, rev %s dirty=%v\n",
		art.Runs, art.Seconds, art.Env.CPUs, art.Env.GOMAXPROCS, b.GoVersion, short(b.Revision), b.Dirty)
	fmt.Fprintf(w, "%-14s %-18s %12s %12s %12s %8s\n", "workload", "metric", "median", "q1", "q3", "spread")
	for _, wl := range workloads {
		metrics, ok := art.Summary[wl.name]
		if !ok {
			continue
		}
		for _, d := range endToEnd {
			s := metrics[d.Name]
			fmt.Fprintf(w, "%-14s %-18s %12.4f %12.4f %12.4f %7.1f%%\n", wl.name, d.Name, s.Median, s.Q1, s.Q3, 100*s.Spread)
		}
	}
	if art.OfflineSpeedup > 0 {
		fmt.Fprintf(w, "offline-ref parallel speedup, %d workers over 1: %.2fx\n", art.Env.GOMAXPROCS, art.OfflineSpeedup)
	}
}

// verdict is the comparison of one end-to-end metric on one workload.
type verdict struct {
	Workload, Metric string
	Base, New, Delta float64
	Verdict          string
}

// compareArtifacts judges every (end-to-end metric, workload) pair the
// two artifacts share. A change beyond the metric's bound is better or
// worse. When either side's spread exceeds the bound the pair is
// unresolved, unless every new run reads better than every base run. The
// spread is run-to-run when both sides have several runs, and the in-run
// quartile spread otherwise.
func compareArtifacts(base, cur *artifact) []verdict {
	var out []verdict
	for _, wl := range workloads {
		bm, ok1 := base.Summary[wl.name]
		nm, ok2 := cur.Summary[wl.name]
		if !ok1 || !ok2 {
			continue
		}
		for _, d := range endToEnd {
			b, n := bm[d.Name], nm[d.Name]
			v := verdict{Workload: wl.name, Metric: d.Name, Base: b.Median, New: n.Median}
			if b.Median != 0 {
				v.Delta = (n.Median - b.Median) / math.Abs(b.Median)
			}
			worse := v.Delta
			if d.Better == "higher" {
				worse = -worse
			}
			sp := math.Max(b.InRun, n.InRun)
			if len(b.Values) > 1 && len(n.Values) > 1 {
				sp = math.Max(b.Spread, n.Spread)
			}
			switch {
			case sp > d.Bound && allBetter(b.Values, n.Values, d.Better):
				v.Verdict = "better"
			case sp > d.Bound:
				v.Verdict = "unresolved"
			case worse > d.Bound:
				v.Verdict = "worse"
			case worse < -d.Bound:
				v.Verdict = "better"
			default:
				v.Verdict = "unchanged"
			}
			out = append(out, v)
		}
	}
	return out
}

// allBetter reports whether every new value beats every base value.
func allBetter(base, cur []float64, better string) bool {
	if len(base) == 0 || len(cur) == 0 {
		return false
	}
	for _, b := range base {
		for _, c := range cur {
			if (better == "lower" && c >= b) || (better == "higher" && c <= b) {
				return false
			}
		}
	}
	return true
}

// printComparison prints the verdicts and reports whether any is worse.
func printComparison(w io.Writer, vs []verdict) bool {
	fmt.Fprintf(w, "\n%-14s %-18s %12s %12s %8s  %s\n", "workload", "metric", "base", "new", "delta", "verdict")
	worse := false
	for _, v := range vs {
		fmt.Fprintf(w, "%-14s %-18s %12.4f %12.4f %+7.1f%%  %s\n", v.Workload, v.Metric, v.Base, v.New, 100*v.Delta, v.Verdict)
		worse = worse || v.Verdict == "worse"
	}
	return worse
}

// compareFiles compares two artifacts without running anything.
func compareFiles(basePath, curPath string, stdout, stderr io.Writer) int {
	var base, cur artifact
	for _, f := range []struct {
		path string
		a    *artifact
	}{{basePath, &base}, {curPath, &cur}} {
		if err := readJSON(f.path, f.a); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if printComparison(stdout, compareArtifacts(&base, &cur)) {
		return 1
	}
	return 0
}
