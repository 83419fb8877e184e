package main

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"repro"
	"repro/internal/session"
	"repro/internal/snapshot"
)

// setUp repeats the serving set-up setupReps times and records setup_s as
// the median: load the log into a fresh repository, run the Normalized-only
// analysis, train, save the snapshot, and start serving it. Only the last
// repetition's server survives; its log also yields the held-out queries,
// after which the log and the trained model are dropped, so the live heap
// holds only what is being served. A traced run clocks the last
// repetition's analysis with one worker and decorated measures, and
// records how long start took as the layer startLayer.
func setUp[T any](o options, r *result, dir string, cfg repro.PredictorConfig, startLayer string,
	start func(path string) (T, error), stop func(T)) (T, []*snapshot.WireContext, error) {
	var (
		served T
		wires  []*snapshot.WireContext
		setups []float64
		size   int
		zero   T
	)
	path := filepath.Join(o.scratch, o.workload+".snap")
	for i := 0; i < setupReps; i++ {
		last := i == setupReps-1
		traced := o.trace && last
		runtime.GC()
		t0 := time.Now()
		repo, err := load(dir)
		if err != nil {
			return zero, nil, err
		}
		tLoad := time.Now()
		fw := repro.NewFramework(repo)
		aopts := repro.AnalysisOptions{SkipReference: true}
		var clock *measureClock
		if traced {
			clock, aopts.Measures = newMeasureClock()
			aopts.Workers = 1
		}
		if err := fw.RunOfflineAnalysis(aopts); err != nil {
			return zero, nil, err
		}
		tAnalysis := time.Now()
		p, err := fw.TrainPredictor(repro.DefaultMeasureSet(), repro.Normalized, cfg)
		if err != nil {
			return zero, nil, err
		}
		tTrain := time.Now()
		if err := p.Save(path); err != nil {
			return zero, nil, err
		}
		tSave := time.Now()
		s, err := start(path)
		if err != nil {
			return zero, nil, err
		}
		tStart := time.Now()
		setups = append(setups, tStart.Sub(t0).Seconds())
		if !last {
			stop(s)
			continue
		}
		served, size = s, p.TrainingSize()
		var extract []float64
		wires, extract = heldOutQueries(repo, cfg.N)
		if traced {
			offlineLayers(r, fw.Analysis, tAnalysis.Sub(tLoad), clock)
			r.layer("session.load_s", tLoad.Sub(t0).Seconds())
			r.layer("offline.norm_pass_s", tAnalysis.Sub(tLoad).Seconds())
			r.layer("knn.train_s", tTrain.Sub(tAnalysis).Seconds())
			r.layer("snapshot.save_s", tSave.Sub(tTrain).Seconds())
			r.layer(startLayer, tStart.Sub(tSave).Seconds())
			r.layer("session.extract_us", 1000*median(extract))
		}
	}
	if len(wires) == 0 {
		return zero, nil, fmt.Errorf("%s: the log has no held-out query states", o.workload)
	}
	r.EndToEnd["setup_s"] = value{Value: median(setups), Unit: "s", N: len(setups),
		Note: fmt.Sprintf("%d training samples", size)}
	return served, wires, nil
}

// heldOutQueries extracts the n-context of every state of the log's
// unsuccessful sessions, which training never sees, in the self-contained
// wire form an HTTP request carries. It returns each extraction's time in
// milliseconds alongside.
func heldOutQueries(repo *repro.Repository, n int) ([]*snapshot.WireContext, []float64) {
	var (
		wires   []*snapshot.WireContext
		extract []float64
	)
	for _, s := range repo.Sessions() {
		if s.Successful {
			continue
		}
		for t := 1; t <= s.Steps(); t++ {
			st, err := s.StateAt(t)
			if err != nil {
				continue
			}
			t0 := time.Now()
			c := session.Extract(st, n)
			extract = append(extract, ms(time.Since(t0)))
			wires = append(wires, repro.EncodeWireContext(c))
		}
	}
	return wires, extract
}

// every keeps every k-th query, which shortens a round while still
// covering every held-out session.
func every(wires []*snapshot.WireContext, k int) []*snapshot.WireContext {
	var out []*snapshot.WireContext
	for i := 0; i < len(wires); i += k {
		out = append(out, wires[i])
	}
	return out
}

// queryOrder is the run's walk over the queries: a permutation drawn from
// the run seed. Every round answers each query once, so runs differ in
// order, never in which queries they time.
type queryOrder struct {
	wires []*snapshot.WireContext
	perm  []int
}

func newQueryOrder(wires []*snapshot.WireContext, seed uint64) queryOrder {
	return queryOrder{wires: wires, perm: rand.New(rand.NewSource(int64(seed))).Perm(len(wires))}
}

func (q queryOrder) len() int { return len(q.perm) }

func (q queryOrder) wire(i int) *snapshot.WireContext { return q.wires[q.perm[i]] }

// decode decodes query i afresh, so its displays are new objects no
// cache of the program has seen, exactly as for a request off the wire.
func (q queryOrder) decode(i int) (*repro.NContext, error) {
	return snapshot.DecodeContext(q.wire(i), nil)
}

// answer is one prediction as the caller sees it.
type answer struct {
	measure string
	ok      bool
}

// predictStride keeps every 4th held-out query (114 on predict-large): a
// round then takes about 3 s on a 2-CPU box, so a run fits several.
const predictStride = 4

// runPredict is the predict-large workload: a snapshot served in-process
// and asked about every predictStride-th held-out query, in rounds.
// A round has one caller call PredictContext on every query back to back
// (a closed loop), then answers them all again in one PredictAll batch.
// Rounds repeat until o.seconds are spent, minRounds at least.
func runPredict(o options, fx fixture, cfg repro.PredictorConfig) (*result, error) {
	r := newResult(o)
	dir, err := fx.ensure(o)
	if err != nil {
		return nil, err
	}
	pred, wires, err := setUp(o, r, dir, cfg, "snapshot.load_s", repro.LoadPredictor, func(*repro.Predictor) {})
	if err != nil {
		return nil, err
	}
	qs := newQueryOrder(every(wires, predictStride), o.seed)

	var (
		lats  [][]float64 // per round, per query
		rates []float64   // PredictAll predictions per second, per round
		first []answer
		heap  float64
	)
	runtime.GC()
	m0 := memNow()
	for start := time.Now(); len(lats) < minRounds || time.Since(start) < o.seconds; {
		lat, closed, err := closedLoop(r, pred, qs, nil)
		if err != nil {
			return nil, err
		}
		in := make([]*repro.NContext, qs.len())
		for i := range in {
			if in[i], err = qs.decode(i); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		out := pred.PredictAll(in)
		rates = append(rates, float64(len(out))/time.Since(t0).Seconds())
		r.Attempted += len(out)
		if first == nil {
			first = closed
		}
		// Every query must get the same answer from both phases of every
		// round.
		for i, p := range out {
			if got := (answer{p.MeasureName, p.OK}); got != first[i] || closed[i] != first[i] {
				r.fail(1, "query %d, round %d: PredictContext answered %+v, PredictAll %+v, round 1 %+v",
					i, len(lats)+1, closed[i], got, first[i])
			}
		}
		if lats = append(lats, lat); len(lats) == 1 {
			heap = liveHeapMB()
		}
	}
	m1 := memNow()
	runtime.KeepAlive(pred)

	lat := best(lats)
	tailMS, tailPct := tail(lat)
	q1, _, q3 := quartiles(rates)
	note := fmt.Sprintf("each query's fastest of %d PredictContext calls, one caller", len(lats))
	r.EndToEnd["latency_p50_ms"] = value{Value: median(lat), Unit: "ms", N: len(lat), Note: note}
	r.EndToEnd["latency_tail_ms"] = value{Value: tailMS, Unit: "ms", N: len(lat), Note: tailNote(tailPct, len(lat))}
	r.EndToEnd["throughput_per_s"] = value{Value: slices.Max(rates), Unit: "1/s", N: len(rates), Q1: q1, Q3: q3,
		Note: fmt.Sprintf("fastest of %d PredictAll batches of all %d queries", len(rates), qs.len())}
	r.EndToEnd["heap_mb"] = value{Value: heap, Unit: "MB", Note: "after the first round"}
	if !o.trace {
		return r, nil
	}

	// A traced round of the closed loop also clocks each decode. Its
	// overhead is the median, over queries, of how much slower each call
	// ran traced than in the last untraced round.
	runtimeLayers(r, m1.since(m0), len(lats)*2*qs.len())
	c0 := counters()
	var decode []float64
	tlat, tans, err := closedLoop(r, pred, qs, &decode)
	if err != nil {
		return nil, err
	}
	c1 := counters()
	last := lats[len(lats)-1]
	slowdown := make([]float64, len(tlat))
	for i := range tlat {
		if tans[i] != first[i] {
			r.fail(1, "query %d: traced call answered %+v, untraced %+v", i, tans[i], first[i])
		}
		slowdown[i] = tlat[i] / last[i]
	}
	r.layer("snapshot.decode_us", 1000*median(decode))
	r.layer("knn.predict_p50_ms", median(tlat))
	r.layer("knn.predict_p99_ms", percentile(tlat, 0.99))
	knnLayers(r, c0, c1, float64(len(tlat)), "query")
	r.layer("trace_overhead_frac", median(slowdown)-1)
	return r, nil
}

// closedLoop has one caller call PredictContext back to back on every
// query in order, each decoded afresh outside the timed call. It returns
// the call latencies in milliseconds and the answers, both in query order.
// A non-nil decode collects each decode's time in milliseconds.
func closedLoop(r *result, pred *repro.Predictor, qs queryOrder, decode *[]float64) ([]float64, []answer, error) {
	lat := make([]float64, qs.len())
	out := make([]answer, qs.len())
	ctx := context.Background()
	for i := range lat {
		t0 := time.Now()
		q, err := qs.decode(i)
		if err != nil {
			return nil, nil, err
		}
		if decode != nil {
			*decode = append(*decode, ms(time.Since(t0)))
		}
		r.Attempted++
		t1 := time.Now()
		name, ok, err := pred.PredictContext(ctx, q)
		lat[i] = ms(time.Since(t1))
		if err != nil {
			r.fail(1, "predict query %d: %v", i, err)
		}
		out[i] = answer{name, ok}
	}
	return lat, out, nil
}

// knnLayers records the search layers' counters per unit of work (a
// query, or a tier request).
func knnLayers(r *result, c0, c1 map[string]uint64, units float64, unit string) {
	visited := delta(c0, c1, "knn.index.visited")
	pruned := delta(c0, c1, "knn.index.pruned")
	hits := delta(c0, c1, "distance.memo.hits")
	misses := delta(c0, c1, "distance.memo.misses")
	r.layer("knn.distance_evals_per_"+unit, ratio(delta(c0, c1, "knn.distance_evals"), units))
	r.layer("distance.memo.entries_per_"+unit, ratio(misses, units))
	if unit == "query" {
		r.layer("knn.index.prune_frac", ratio(pruned, visited+pruned))
		r.layer("distance.early_abandon_frac", ratio(delta(c0, c1, "distance.treeedit.early_abandon"),
			delta(c0, c1, "distance.treeedit.bounded_calls")))
		r.layer("distance.memo.miss_frac", ratio(misses, hits+misses))
	}
}
