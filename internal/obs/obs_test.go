package obs

import (
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	c := New()
	ctr := c.Counter("a")
	ctr.Inc()
	ctr.Add(4)
	if got := ctr.Load(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if c.Counter("a") != ctr {
		t.Fatal("get-or-create returned a different handle")
	}
	g := c.Gauge("g")
	g.Set(7)
	g.Add(-2)
	if got := g.Load(); got != 5 {
		t.Fatalf("gauge = %d, want 5", got)
	}
}

func TestNilSafety(t *testing.T) {
	var c *Collector
	var ctr *Counter
	var g *Gauge
	var h *Histogram
	var st *Stage
	ctr.Inc()
	ctr.Add(3)
	g.Set(1)
	g.Add(1)
	h.Observe(time.Second)
	h.ObserveSince(time.Now())
	st.Start().End()
	Span{}.End()
	c.Counter("x").Inc()
	c.Gauge("x").Set(1)
	c.Histogram("x").Observe(0)
	c.Reset()
	s := c.Snapshot()
	if len(s.Counters) != 0 {
		t.Fatalf("nil snapshot = %+v", s)
	}
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	c := New()
	h := c.Histogram("h")
	// 100 observations at ~1µs, 10 at ~1ms, 1 at ~1s.
	for i := 0; i < 100; i++ {
		h.Observe(time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(time.Millisecond)
	}
	h.Observe(time.Second)
	s := snapshotHistogram(h)
	if s.Count != 111 {
		t.Fatalf("count = %d", s.Count)
	}
	wantSum := uint64(100*time.Microsecond + 10*time.Millisecond + time.Second)
	if s.SumNS != wantSum {
		t.Fatalf("sum = %d, want %d", s.SumNS, wantSum)
	}
	var bucketTotal uint64
	for _, b := range s.Buckets {
		bucketTotal += b.Count
	}
	if bucketTotal != s.Count {
		t.Fatalf("bucket total %d != count %d", bucketTotal, s.Count)
	}
	// p50 should land in the microsecond bucket, p99 at/above the
	// millisecond bucket.
	if s.P50NS > uint64(2*time.Microsecond) {
		t.Fatalf("p50 = %dns, want ~1µs", s.P50NS)
	}
	if s.P99NS < uint64(time.Millisecond) {
		t.Fatalf("p99 = %dns, want ≥ 1ms", s.P99NS)
	}
	if s.MeanNS <= 0 {
		t.Fatal("mean not computed")
	}
}

func TestModeGating(t *testing.T) {
	prev := Mode(mode.Load())
	t.Cleanup(func() { SetMode(prev) })
	SetMode(ModeCounters)
	if Timing() {
		t.Fatal("ModeCounters times hot paths")
	}
	if got := New().Snapshot().Mode; got != "counters" {
		t.Fatalf("snapshot mode = %q, want counters", got)
	}
	SetMode(ModeTiming)
	if !Timing() {
		t.Fatal("ModeTiming does not time hot paths")
	}
	if got := New().Snapshot().Mode; got != "timing" {
		t.Fatalf("snapshot mode = %q, want timing", got)
	}
	for _, m := range []Mode{ModeCounters, ModeTiming, Mode(99)} {
		if m.String() == "" {
			t.Fatal("empty mode name")
		}
	}
}

// TestConcurrentExactTotals hammers one counter, one gauge and one
// histogram from 16 goroutines and checks the exact totals afterwards
// (run with -race; the whole suite is race-clean).
func TestConcurrentExactTotals(t *testing.T) {
	const (
		goroutines = 16
		perG       = 10000
	)
	c := New()
	ctr := c.Counter("hammer")
	g := c.Gauge("hammer")
	h := c.Histogram("hammer")
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perG; j++ {
				ctr.Inc()
				g.Add(1)
				h.Observe(time.Duration(j))
			}
		}()
	}
	wg.Wait()
	const total = goroutines * perG
	if got := ctr.Load(); got != total {
		t.Fatalf("counter = %d, want %d", got, total)
	}
	if got := g.Load(); got != total {
		t.Fatalf("gauge = %d, want %d", got, total)
	}
	s := snapshotHistogram(h)
	if s.Count != total {
		t.Fatalf("histogram count = %d, want %d", s.Count, total)
	}
	wantSum := uint64(goroutines) * uint64(perG*(perG-1)/2)
	if s.SumNS != wantSum {
		t.Fatalf("histogram sum = %d, want %d", s.SumNS, wantSum)
	}
	var bucketTotal uint64
	for _, b := range s.Buckets {
		bucketTotal += b.Count
	}
	if bucketTotal != total {
		t.Fatalf("bucket total = %d, want %d", bucketTotal, total)
	}
}

// TestSnapshotWhileWriting takes snapshots concurrently with writers and
// registry growth, checking that observed totals only ever grow and that
// every snapshot marshals to JSON.
func TestSnapshotWhileWriting(t *testing.T) {
	c := New()
	var wg sync.WaitGroup
	var done atomic.Bool
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			ctr := c.Counter("shared")
			h := c.Histogram("shared")
			names := []string{"a", "b", "c", "d"}
			// Write at least once even if the snapshot loop finishes
			// before this goroutine is first scheduled.
			for j := 0; ; j++ {
				ctr.Inc()
				h.Observe(time.Duration(j % 1000))
				// Exercise get-or-create under concurrent snapshots too.
				c.Counter(names[j%len(names)]).Inc()
				if done.Load() {
					return
				}
			}
		}(i)
	}
	var lastCount, lastHist uint64
	deadline := time.After(200 * time.Millisecond)
snapshots:
	for {
		select {
		case <-deadline:
			break snapshots
		default:
		}
		s := c.Snapshot()
		if n := s.Counters["shared"]; n < lastCount {
			t.Fatalf("counter went backwards: %d -> %d", lastCount, n)
		} else {
			lastCount = n
		}
		if n := s.Histograms["shared"].Count; n < lastHist {
			t.Fatalf("histogram count went backwards: %d -> %d", lastHist, n)
		} else {
			lastHist = n
		}
		if _, err := json.Marshal(s); err != nil {
			t.Fatalf("snapshot does not marshal: %v", err)
		}
	}
	done.Store(true)
	wg.Wait()
	final := c.Snapshot()
	if final.Counters["shared"] < 8 {
		t.Fatalf("final counter = %d, want >= 8 (one per writer)", final.Counters["shared"])
	}
	if final.Counters["shared"] < lastCount || final.Histograms["shared"].Count < lastHist {
		t.Fatalf("final snapshot below last live snapshot: %d < %d or %d < %d",
			final.Counters["shared"], lastCount, final.Histograms["shared"].Count, lastHist)
	}
}

func TestResetZeroesMetrics(t *testing.T) {
	c := New()
	ctr := c.Counter("x")
	ctr.Add(10)
	c.Gauge("g").Set(5)
	c.Histogram("h").Observe(time.Millisecond)
	c.Reset()
	s := c.Snapshot()
	if s.Counters["x"] != 0 || s.Gauges["g"] != 0 || s.Histograms["h"].Count != 0 {
		t.Fatalf("reset incomplete: %+v", s)
	}
	// Hoisted handles stay valid after reset.
	ctr.Inc()
	if ctr.Load() != 1 {
		t.Fatal("handle dead after reset")
	}
}

func TestZeroAllocRecording(t *testing.T) {
	c := New()
	ctr := c.Counter("alloc")
	h := c.Histogram("alloc")
	if n := testing.AllocsPerRun(1000, func() { ctr.Inc() }); n != 0 {
		t.Fatalf("counter Inc allocates %v bytes/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { h.Observe(time.Microsecond) }); n != 0 {
		t.Fatalf("histogram Observe allocates %v bytes/op", n)
	}
}

func TestStageSpanRecords(t *testing.T) {
	c := New()
	st := c.NewStage("phase")
	sp := st.Start()
	time.Sleep(time.Millisecond)
	sp.End()
	s := c.Snapshot()
	hs, ok := s.Histograms["stage.phase"]
	if !ok || hs.Count != 1 {
		t.Fatalf("stage histogram = %+v", s.Histograms)
	}
	if hs.SumNS < uint64(time.Millisecond) {
		t.Fatalf("stage span too short: %dns", hs.SumNS)
	}
}

func TestTableFormatting(t *testing.T) {
	prev := Mode(mode.Load())
	t.Cleanup(func() { SetMode(prev) })
	SetMode(ModeTiming)
	c := New()
	c.Counter("knn.scans").Add(42)
	c.Gauge("memo.size").Set(7)
	c.Histogram("stage.offline").Observe(3 * time.Millisecond)
	out := c.Snapshot().Table()
	for _, want := range []string{"knn.scans", "42", "memo.size", "stage.offline", "mode=timing"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
}

func TestServeTelemetry(t *testing.T) {
	addr, err := ServeTelemetry("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	C("served.counter").Inc()
	resp, err := http.Get("http://" + addr + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var vars map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		t.Fatal(err)
	}
	raw, ok := vars["idarepro"]
	if !ok {
		t.Fatalf("expvar missing idarepro: have %v", sortedKeys(vars))
	}
	var snap Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["served.counter"] == 0 {
		t.Fatal("published snapshot missing live counter")
	}
	// pprof index answers too.
	resp2, err := http.Get("http://" + addr + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("pprof index status = %d", resp2.StatusCode)
	}
}
