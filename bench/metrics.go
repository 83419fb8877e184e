package main

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"

	"repro/internal/buildinfo"
)

// metricDef is one metric as BENCHMARK.json declares it.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the base median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	Bound float64
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports each of them; what a "request" is depends on the workload (see
// README.md).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_tail_ms", "ms", "lower", 0.25},
	{"throughput_per_s", "1/s", "higher", 0.25},
	{"heap_mb", "MB", "lower", 0.10},
}

// perLayer are the traced run's layer metrics. A workload that bypasses a
// layer reports its metrics as 0.
var perLayer = []metricDef{
	{"offline.wall_s", "s", "lower", 0},
	{"offline.ref.exec_s", "s", "lower", 0},
	{"offline.ref.score_s", "s", "lower", 0},
	{"offline.ref.rank_s", "s", "lower", 0},
	{"offline.norm.score_s", "s", "lower", 0},
	{"offline.norm.fit_s", "s", "lower", 0},
	{"offline.unattributed_s", "s", "lower", 0},
	{"measures.variance.score_s", "s", "lower", 0},
	{"measures.simpson.score_s", "s", "lower", 0},
	{"measures.schutz.score_s", "s", "lower", 0},
	{"measures.macarthur.score_s", "s", "lower", 0},
	{"measures.osf.score_s", "s", "lower", 0},
	{"measures.deviation.score_s", "s", "lower", 0},
	{"measures.compaction_gain.score_s", "s", "lower", 0},
	{"measures.log_length.score_s", "s", "lower", 0},
	{"measures.score_calls", "count", "lower", 0},
	{"engine.ref_executions", "count", "lower", 0},
	{"engine.exec_cache_hit_frac", "frac", "higher", 0},
	{"runtime.alloc_mb_per_op", "MB/op", "lower", 0},
	{"runtime.allocs_per_op", "allocs/op", "lower", 0},
	{"runtime.gc_cycles", "count", "lower", 0},
	{"runtime.gc_pause_ms", "ms", "lower", 0},
	{"session.load_s", "s", "lower", 0},
	{"session.extract_us", "us", "lower", 0},
	{"snapshot.decode_us", "us", "lower", 0},
	{"snapshot.save_s", "s", "lower", 0},
	{"snapshot.load_s", "s", "lower", 0},
	{"knn.train_s", "s", "lower", 0},
	{"offline.norm_pass_s", "s", "lower", 0},
	{"ring.start_s", "s", "lower", 0},
	{"knn.predict_p50_ms", "ms", "lower", 0},
	{"knn.predict_p99_ms", "ms", "lower", 0},
	{"knn.distance_evals_per_query", "count", "lower", 0},
	{"knn.index.prune_frac", "frac", "higher", 0},
	{"distance.early_abandon_frac", "frac", "higher", 0},
	{"distance.memo.miss_frac", "frac", "lower", 0},
	{"distance.memo.entries_per_query", "count", "lower", 0},
	{"serve.router_p50_ms", "ms", "lower", 0},
	{"serve.router_p99_ms", "ms", "lower", 0},
	{"serve.router_self_ms", "ms", "lower", 0},
	{"ring.hop_p50_ms", "ms", "lower", 0},
	{"ring.hop_p99_ms", "ms", "lower", 0},
	{"serve.replica_p50_ms", "ms", "lower", 0},
	{"serve.replica_p99_ms", "ms", "lower", 0},
	{"ring.hop_wire_ms", "ms", "lower", 0},
	{"ring.attempts_per_request", "count", "lower", 0},
	{"ring.hedges_per_request", "count", "lower", 0},
	{"ring.failovers", "count", "lower", 0},
	{"serve.shed", "count", "lower", 0},
	{"knn.distance_evals_per_request", "count", "lower", 0},
	{"distance.memo.entries_per_request", "count", "lower", 0},
	{"loadtest.send_lateness_p50_ms", "ms", "lower", 0},
	{"loadtest.send_lateness_p99_ms", "ms", "lower", 0},
	{"trace_overhead_frac", "frac", "lower", 0},
}

// value is one measured number with the evidence behind it: the sample
// count, the quartiles of its in-run repetitions, and a note such as
// which percentile a tail value is.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
	Q1    float64 `json:"q1,omitempty"`
	Q3    float64 `json:"q3,omitempty"`
	Note  string  `json:"note,omitempty"`
}

// env is the machine and build a result came from.
type env struct {
	Date  string         `json:"date"`
	Build buildinfo.Info `json:"build"`
	// Dirty repeats Build.Dirty, which the build record leaves out when
	// false, so an artifact from a clean tree says so.
	Dirty      bool   `json:"dirty"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

func currentEnv() env {
	b := buildinfo.Get()
	return env{
		Date:       time.Now().UTC().Format("2006-01-02"),
		Build:      b,
		Dirty:      b.Dirty,
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPUs:       runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
}

// result is one run of one workload.
type result struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Trace    bool    `json:"trace"`
	Seconds  float64 `json:"seconds"`
	// Attempted counts the operations the run issued; Failed counts those
	// that failed or answered wrongly, plus failed reconciliation checks.
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Problems  []string `json:"problems,omitempty"`
	// Warnings flag measurements whose validity is in doubt (for
	// example, a load generator that ran late) without failing the run.
	Warnings []string         `json:"warnings,omitempty"`
	EndToEnd map[string]value `json:"end_to_end"`
	Layers   map[string]value `json:"layers,omitempty"`
	Env      env              `json:"env"`
}

func newResult(o options) *result {
	return &result{
		Workload: o.workload,
		Seed:     o.seed,
		Trace:    o.trace,
		Seconds:  o.seconds.Seconds(),
		EndToEnd: map[string]value{},
		Layers:   map[string]value{},
		Env:      currentEnv(),
	}
}

// fail records n failed operations or checks.
func (r *result) fail(n int, format string, args ...any) {
	r.Failed += n
	if len(r.Problems) < 20 {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

func (r *result) warn(format string, args ...any) {
	r.Warnings = append(r.Warnings, fmt.Sprintf(format, args...))
}

// layer sets a per-layer metric, taking its unit from perLayer.
func (r *result) layer(name string, v float64) {
	r.Layers[name] = value{Value: v, Unit: unitOf(perLayer, name)}
}

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.Name == name {
			return d.Unit
		}
	}
	panic("bench: undeclared metric " + name)
}

// lineValue and line are a single run's last line of standard output.
type lineValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type line struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]lineValue `json:"metrics"`
}

// resultLine renders the run as its JSON line: the end-to-end
// metrics of an untraced run, or every per-layer metric of a traced one.
func resultLine(r *result) line {
	l := line{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]lineValue{}}
	defs, vals := endToEnd, r.EndToEnd
	if r.Trace {
		defs, vals = perLayer, r.Layers
	}
	for _, d := range defs {
		l.Metrics[d.Name] = lineValue{Value: vals[d.Name].Value, Unit: d.Unit}
	}
	return l
}

// report prints the human-readable form of a run, then the JSON line.
func report(w io.Writer, r *result) error {
	b := r.Env.Build
	fmt.Fprintf(w, "workload %s  seed %d  trace %v  budget %gs  cpus %d  gomaxprocs %d  %s rev %s dirty=%v\n",
		r.Workload, r.Seed, r.Trace, r.Seconds, r.Env.CPUs, r.Env.GOMAXPROCS, b.GoVersion, short(b.Revision), b.Dirty)
	printValues(w, endToEnd, r.EndToEnd, false)
	if r.Trace {
		fmt.Fprintln(w, "per-layer (layers the workload bypasses, reading 0, left out):")
		printValues(w, perLayer, r.Layers, true)
	}
	fmt.Fprintf(w, "checks: %d attempted, %d failed\n", r.Attempted, r.Failed)
	for _, p := range r.Problems {
		fmt.Fprintln(w, "  FAIL", p)
	}
	for _, p := range r.Warnings {
		fmt.Fprintln(w, "  WARN", p)
	}
	blob, err := json.Marshal(resultLine(r))
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", blob)
	return err
}

func printValues(w io.Writer, defs []metricDef, vals map[string]value, skipZero bool) {
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok || (skipZero && v.Value == 0) {
			continue
		}
		var extra []string
		if v.N > 0 {
			extra = append(extra, fmt.Sprintf("n=%d", v.N))
		}
		if v.Q1 != 0 || v.Q3 != 0 {
			extra = append(extra, fmt.Sprintf("q1 %.4g q3 %.4g", v.Q1, v.Q3))
		}
		if v.Note != "" {
			extra = append(extra, v.Note)
		}
		suffix := ""
		if len(extra) > 0 {
			suffix = "  (" + strings.Join(extra, ", ") + ")"
		}
		fmt.Fprintf(w, "  %-36s %12.4f %-9s%s\n", d.Name, v.Value, d.Unit, suffix)
	}
}

func short(rev string) string {
	if len(rev) > 12 {
		return rev[:12]
	}
	if rev == "" {
		return "unknown"
	}
	return rev
}
