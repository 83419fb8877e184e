package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"slices"
	"time"

	"repro"
)

const (
	// offlineSeeds is how many analyses a round runs, one per analysis
	// seed from the run seed on. A seed draws every action's reference
	// subsample, so each is a different job of the same size: one request
	// of the workload.
	offlineSeeds = 2
	// tracedPairs is how many traced analyses a traced run alternates with
	// as many untraced ones, all with one worker.
	tracedPairs = 3
)

// runOffline is the offline-ref workload: the full offline analysis,
// Reference-Based pass included, over the offline fixture, in rounds of
// offlineSeeds analyses on the warm repository until o.seconds are spent,
// minRounds at least.
func runOffline(o options, fx fixture) (*result, error) {
	r := newResult(o)
	dir, err := fx.ensure(o)
	if err != nil {
		return nil, err
	}
	analysisOpts := func(seed uint64, workers int, msrs []repro.Measure) repro.AnalysisOptions {
		return repro.AnalysisOptions{RefLimit: 30, Seed: seed, Workers: workers, Measures: msrs}
	}
	// Every analysis of a seed must score every action to the bit as the
	// first analysis of that seed did.
	want := map[uint64]uint64{}
	check := func(fw *repro.Framework, seed uint64, what string) {
		r.Attempted++
		got := digest(fw.Analysis)
		if w, ok := want[seed]; !ok {
			want[seed] = got
		} else if got != w {
			r.fail(1, "%s, seed %d: analysis digest %016x differs from the first run's %016x", what, seed, got, w)
		}
	}

	// Set-up is loading the log into a fresh repository and running the
	// first, cold analysis over it.
	var (
		setups []float64
		fw     *repro.Framework
		loadS  float64
	)
	for i := 0; i < setupReps; i++ {
		fw = nil
		runtime.GC()
		t0 := time.Now()
		repo, err := load(dir)
		if err != nil {
			return nil, err
		}
		loadS = time.Since(t0).Seconds()
		fw = repro.NewFramework(repo)
		if err := fw.RunOfflineAnalysis(analysisOpts(o.seed, 0, nil)); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		check(fw, o.seed, fmt.Sprintf("set-up %d", i))
	}
	actions := float64(len(fw.Analysis.Nodes))

	var (
		lats  [][]float64 // per round, per seed: analysis wall in ms
		rates []float64   // actions per second, per round
		heap  float64
		mem   memSnap
	)
	runtime.GC()
	for start := time.Now(); len(lats) < minRounds || time.Since(start) < o.seconds; {
		lat := make([]float64, offlineSeeds)
		var wall time.Duration
		for j := range lat {
			seed := o.seed + uint64(j)
			m0 := memNow()
			t0 := time.Now()
			if err := fw.RunOfflineAnalysis(analysisOpts(seed, 0, nil)); err != nil {
				return nil, err
			}
			d := time.Since(t0)
			mem = mem.plus(memNow().since(m0))
			wall += d
			lat[j] = ms(d)
			check(fw, seed, "timed run")
		}
		rates = append(rates, actions*offlineSeeds/wall.Seconds())
		if lats = append(lats, lat); len(lats) == 1 {
			heap = liveHeapMB()
		}
	}
	runtime.KeepAlive(fw)

	lat := best(lats)
	tailMS, tailPct := tail(lat)
	rq1, _, rq3 := quartiles(rates)
	r.EndToEnd["setup_s"] = value{Value: median(setups), Unit: "s", N: len(setups), Note: "load + cold analysis"}
	r.EndToEnd["latency_p50_ms"] = value{Value: median(lat), Unit: "ms", N: len(lat),
		Note: fmt.Sprintf("each seed's fastest of %d whole analyses", len(lats))}
	r.EndToEnd["latency_tail_ms"] = value{Value: tailMS, Unit: "ms", N: len(lat), Note: tailNote(tailPct, len(lat))}
	r.EndToEnd["throughput_per_s"] = value{Value: slices.Max(rates), Unit: "1/s", N: len(rates), Q1: rq1, Q3: rq3,
		Note: fmt.Sprintf("fastest of %d rounds of %d analyses of %.0f actions", len(rates), offlineSeeds, actions)}
	r.EndToEnd["heap_mb"] = value{Value: heap, Unit: "MB", Note: "after the first round"}
	if !o.trace {
		return r, nil
	}

	runtimeLayers(r, mem, len(lats)*offlineSeeds)
	r.layer("session.load_s", loadS)
	// Traced analyses alternate with untraced ones, all with one worker,
	// so each traced run's layer rows add up to its wall time and its
	// overhead is judged against untraced neighbours. The layer rows come
	// from the traced run of median wall time.
	type tracedRun struct {
		wall  time.Duration
		a     *repro.Analysis
		clock *measureClock
		execs float64
		hits  float64
	}
	var (
		traced []tracedRun
		plain  []float64
	)
	for i := 0; i < tracedPairs; i++ {
		t0 := time.Now()
		if err := fw.RunOfflineAnalysis(analysisOpts(o.seed, 1, nil)); err != nil {
			return nil, err
		}
		plain = append(plain, time.Since(t0).Seconds())
		check(fw, o.seed, "one-worker run")
		clock, decorated := newMeasureClock()
		c0 := counters()
		t0 = time.Now()
		if err := fw.RunOfflineAnalysis(analysisOpts(o.seed, 1, decorated)); err != nil {
			return nil, err
		}
		wall := time.Since(t0)
		c1 := counters()
		check(fw, o.seed, "traced run")
		traced = append(traced, tracedRun{wall, fw.Analysis, clock,
			delta(c0, c1, "offline.ref.executions"), delta(c0, c1, "offline.ref.exec_cache_hits")})
	}
	tw := make([]float64, len(traced))
	for i, t := range traced {
		tw[i] = t.wall.Seconds()
	}
	med := median(tw)
	mid := traced[0]
	for _, t := range traced[1:] {
		if math.Abs(t.wall.Seconds()-med) < math.Abs(mid.wall.Seconds()-med) {
			mid = t
		}
	}
	offlineLayers(r, mid.a, mid.wall, mid.clock)
	norm := mid.a.NormTimings
	r.layer("offline.norm_pass_s", (norm.CalcInterestingness + norm.CalcRelative).Seconds())
	r.layer("engine.ref_executions", mid.execs)
	r.layer("engine.exec_cache_hit_frac", ratio(mid.hits, mid.hits+mid.execs))
	r.layer("trace_overhead_frac", med/median(plain)-1)
	return r, nil
}

// digest hashes an analysis's relative scores under both methods, in
// repository order, to the bit.
func digest(a *repro.Analysis) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v float64, ok bool) {
		bits := math.Float64bits(v)
		if !ok {
			bits = 0x7ff8dead0000beef // absent, distinct from any stored NaN
		}
		for i := range buf {
			buf[i] = byte(bits >> (8 * i))
		}
		h.Write(buf[:])
	}
	for _, ns := range a.Nodes {
		for _, m := range a.Measures {
			v, ok := ns.RefRelative[m.Name()]
			put(v, ok)
			v, ok = ns.NormRelative[m.Name()]
			put(v, ok)
		}
	}
	return h.Sum64()
}
