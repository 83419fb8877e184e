package main

import (
	"encoding/json"
	"math"
	"os"
	"slices"
	"testing"
	"time"

	"repro/internal/netlog"
	"repro/internal/simulate"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// The expected values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, m, q3  float64
		spreadWant float64
	}{
		{[]float64{1, 2}, 0.75, 1.5, 2.25, 1},
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75, 1},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25, 1},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6}, 1.25, 3.5, 5.75, 4.5 / 3.5},
		{[]float64{7}, 7, 7, 7, 0},
	} {
		q1, m, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(m, c.m) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, m, q3, c.q1, c.m, c.q3)
		}
		if got := spread(c.xs); !near(got, c.spreadWant) {
			t.Errorf("spread(%v) = %v, want %v", c.xs, got, c.spreadWant)
		}
	}
}

func TestTailIsP90WithTenSamplesBeyond(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending, so tail must sort
		}
		return xs
	}
	for _, c := range []struct {
		n      int
		value  float64
		pct    float64
		beyond int
	}{
		{n: 1000, value: 900, pct: 90, beyond: 100},
		{n: 776, value: 699, pct: 100 * 699.0 / 776, beyond: 77},
		{n: 110, value: 99, pct: 90, beyond: 11},
		{n: 100, value: 90, pct: 90, beyond: 10},
		{n: 99, value: 99, pct: 100, beyond: 0},
		{n: 7, value: 7, pct: 100, beyond: 0},
	} {
		v, pct := tail(ramp(c.n))
		if v != c.value || !near(pct, c.pct) {
			t.Errorf("tail(n=%d) = %v at p%v, want %v at p%v", c.n, v, pct, c.value, c.pct)
		}
		if beyond := c.n - int(v); beyond != c.beyond {
			t.Errorf("tail(n=%d) leaves %d samples beyond, want %d", c.n, beyond, c.beyond)
		}
	}
	if got := percentile([]float64{4, 1, 3, 2}, 0.5); got != 2 {
		t.Errorf("nearest-rank median = %v, want 2", got)
	}
}

// summaryOf builds a one-workload, one-metric artifact from run values.
func summaryOf(metric string, vals ...float64) *artifact {
	s := stat{Values: vals, Spread: spread(vals)}
	s.Q1, s.Median, s.Q3 = quartiles(vals)
	return &artifact{Summary: map[string]map[string]stat{"predict-large": {metric: s}}}
}

func verdictOf(t *testing.T, base, cur *artifact, metric string) verdict {
	t.Helper()
	for _, v := range compareArtifacts(base, cur) {
		if v.Metric == metric {
			return v
		}
	}
	t.Fatalf("no verdict for %s", metric)
	return verdict{}
}

func TestCompareVerdicts(t *testing.T) {
	steady := []float64{10, 10.1, 9.9, 10, 10.05}
	scale := func(f float64, xs []float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = f * x
		}
		return out
	}
	for _, c := range []struct {
		name      string
		metric    string
		base, cur []float64
		want      string
	}{
		{"same", "latency_p50_ms", steady, scale(1.05, steady), "unchanged"},
		{"within the bound", "latency_p50_ms", steady, scale(1.2, steady), "unchanged"},
		{"slower", "latency_p50_ms", steady, scale(1.4, steady), "worse"},
		{"faster", "latency_p50_ms", steady, scale(0.6, steady), "better"},
		{"fewer per second", "throughput_per_s", steady, scale(0.6, steady), "worse"},
		{"more per second", "throughput_per_s", steady, scale(1.4, steady), "better"},
		{"noisy base", "latency_p50_ms", []float64{5, 10, 15, 10, 10}, steady, "unresolved"},
		{"noisy but every run faster", "latency_p50_ms", []float64{10, 12, 14, 16, 18}, []float64{5, 5.1, 5.2, 5.3, 5.4}, "better"},
		{"noisy and worse", "latency_p50_ms", []float64{5, 10, 15, 10, 10}, scale(2, steady), "unresolved"},
	} {
		v := verdictOf(t, summaryOf(c.metric, c.base...), summaryOf(c.metric, c.cur...), c.metric)
		if v.Verdict != c.want {
			t.Errorf("%s: verdict %q (delta %+.3f), want %q", c.name, v.Verdict, v.Delta, c.want)
		}
	}

	// Single-run artifacts fall back to the in-run quartile spread.
	one := func(v, inRun float64) *artifact {
		return &artifact{Summary: map[string]map[string]stat{"predict-large": {
			"throughput_per_s": {Median: v, Values: []float64{v}, InRun: inRun}}}}
	}
	if v := verdictOf(t, one(100, 0.02), one(60, 0.02), "throughput_per_s"); v.Verdict != "worse" {
		t.Errorf("single run, tight: %q, want worse", v.Verdict)
	}
	if v := verdictOf(t, one(100, 0.3), one(60, 0.02), "throughput_per_s"); v.Verdict != "unresolved" {
		t.Errorf("single run, wide in-run spread: %q, want unresolved", v.Verdict)
	}
	if !printComparison(new(discard), []verdict{{Verdict: "unchanged"}, {Verdict: "worse"}}) {
		t.Error("printComparison missed a worse verdict")
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

func TestBestIsEachRequestsFastestRound(t *testing.T) {
	got := best([][]float64{{5, 9, 3}, {4, 12, 3.5}, {6, 8, 2}})
	if want := []float64{4, 8, 2}; !slices.Equal(got, want) {
		t.Errorf("best = %v, want %v", got, want)
	}
	if got := best(nil); got != nil {
		t.Errorf("best(nil) = %v, want nil", got)
	}
}

func TestTierJoinAndSelfTime(t *testing.T) {
	msd := func(f float64) time.Duration { return time.Duration(f * float64(time.Millisecond)) }
	tr := &tierTrace{
		router: map[string]time.Duration{"a": msd(10), "b": msd(8), "lost": msd(50)},
		hops: []hopRec{
			{"1", "a", msd(6)}, {"2", "a", msd(7)}, {"3", "a", msd(5)},
			{"4", "b", msd(4)}, {"5", "b", msd(3)}, {"6", "b", msd(4)},
		},
		replica: map[string]time.Duration{"1": msd(5), "2": msd(6), "3": msd(4), "4": msd(3), "5": msd(2), "6": msd(3)},
	}
	r := &result{Layers: map[string]value{}}
	tr.layers(r, 3)
	for name, want := range map[string]float64{
		// Self time is router time minus the request's slowest hop:
		// a: 10-7, b: 8-4; "lost" had no hop and is left out.
		"serve.router_self_ms": 3.5,
		"serve.router_p50_ms":  10,
		"ring.hop_p50_ms":      4.5,
		"serve.replica_p50_ms": 3.5,
		// Every hop spent exactly 1ms outside its replica.
		"ring.hop_wire_ms":          1,
		"ring.attempts_per_request": 2,
	} {
		if got := r.Layers[name].Value; !near(got, want) {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if tr.router != nil || tr.hops != nil || tr.replica != nil {
		t.Error("layers did not reset the trace for the next phase")
	}
}

// TestBenchmarkJSONDeclaresWhatRunsReport pins BENCHMARK.json to the
// tables the runs report from.
func TestBenchmarkJSONDeclaresWhatRunsReport(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the program", i, w.Name, workloads[i].name)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range spec.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end-to-end %d: %+v in BENCHMARK.json, %+v in the program", i, m, d)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer %d: %+v in BENCHMARK.json, %+v in the program", i, m, d)
		}
	}
}

func TestResultLineCarriesExactlyTheDeclaredMetrics(t *testing.T) {
	r := &result{EndToEnd: map[string]value{"setup_s": {Value: 1.5, Unit: "s"}}, Layers: map[string]value{}, Failed: 1, Attempted: 4}
	l := resultLine(r)
	if l.Correct || l.Failed != 1 || l.Attempted != 4 || len(l.Metrics) != len(endToEnd) || l.Metrics["setup_s"].Value != 1.5 {
		t.Errorf("untraced line = %+v", l)
	}
	r.Trace = true
	if l := resultLine(r); len(l.Metrics) != len(perLayer) {
		t.Errorf("traced line has %d metrics, want %d", len(l.Metrics), len(perLayer))
	}
	blob, err := json.Marshal(resultLine(r))
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(blob, &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 4 {
		t.Errorf("line has keys %v, want exactly correct, attempted, failed, metrics", keys)
	}
}

// TestWorkloadsSmoke runs every workload, untraced and traced, at toy
// scale: each must answer correctly and report every metric it declares.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	toy := func(name string, success float64) fixture {
		return fixture{name, simulate.Config{Analysts: 6, Sessions: 40, SuccessRate: success, Seed: 271828,
			DatasetConfig: netlog.Config{Rows: 300}}}
	}
	cache := t.TempDir()
	runs := map[string]func(options) (*result, error){
		"offline-ref":   func(o options) (*result, error) { return runOffline(o, toy("offline", 0)) },
		"predict-large": func(o options) (*result, error) { return runPredict(o, toy("large", 0.8), largeConfig()) },
		"tier-ring":     func(o options) (*result, error) { return runTier(o, toy("paper", 0.5), largeConfig()) },
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			o := options{workload: w.name, seed: 7, seconds: time.Second, trace: traced,
				root: "..", cache: cache, scratch: t.TempDir()}
			r, err := runs[w.name](o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, traced, err)
			}
			if r.Failed != 0 || r.Attempted == 0 {
				t.Errorf("%s trace=%v: %d of %d failed: %v", w.name, traced, r.Failed, r.Attempted, r.Problems)
			}
			for _, d := range endToEnd {
				if v := r.EndToEnd[d.Name]; v.Value <= 0 || v.Unit != d.Unit {
					t.Errorf("%s trace=%v: %s = %+v, want a positive value in %s", w.name, traced, d.Name, v, d.Unit)
				}
			}
			if !traced {
				continue
			}
			for _, name := range []string{"offline.wall_s", "runtime.alloc_mb_per_op", "measures.variance.score_s"} {
				if r.Layers[name].Value <= 0 {
					t.Errorf("%s: layer %s = %v, want > 0", w.name, name, r.Layers[name].Value)
				}
			}
		}
	}
}
