package obs

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// promSnapshot builds a collector with one of everything, including the
// bracket-suffixed names the kNN per-θ_δ counters use.
func promSnapshot() Snapshot {
	c := New()
	c.Counter("serve.requests").Add(7)
	c.Counter("knn.predict.covered[theta_delta=0.1]").Add(3)
	c.Counter("knn.predict.covered[unbounded]").Add(2)
	c.Gauge("serve.model_generation").Set(4)
	h := c.Histogram("serve.latency")
	for i := 0; i < 100; i++ {
		h.Observe(time.Duration(i+1) * time.Microsecond)
	}
	c.Histogram("distance.treeedit.ns").Observe(time.Millisecond)
	return c.Snapshot()
}

func TestWritePrometheusIsStrictlyValid(t *testing.T) {
	var b strings.Builder
	if err := WritePrometheus(&b, promSnapshot()); err != nil {
		t.Fatal(err)
	}
	if err := ValidatePrometheus(strings.NewReader(b.String())); err != nil {
		t.Fatalf("encoder output failed its own validator:\n%v\n---\n%s", err, b.String())
	}
}

func TestWritePrometheusNameMapping(t *testing.T) {
	var b strings.Builder
	if err := WritePrometheus(&b, promSnapshot()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"idarepro_serve_requests_total 7",
		`idarepro_knn_predict_covered_total{theta_delta="0.1"} 3`,
		`idarepro_knn_predict_covered_total{tag="unbounded"} 2`,
		"idarepro_serve_model_generation 4",
		`idarepro_serve_latency_seconds{quantile="0.999"}`,
		"idarepro_serve_latency_seconds_count 100",
		// trailing ".ns" folds into the _seconds suffix, values converted.
		`idarepro_distance_treeedit_seconds{quantile="0.5"}`,
		"# TYPE idarepro_serve_latency_seconds summary",
		"# TYPE idarepro_serve_requests_total counter",
		"# TYPE idarepro_serve_model_generation gauge",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q\n---\n%s", want, out)
		}
	}
	if strings.Contains(out, "_ns_seconds") {
		t.Error("histogram name kept its .ns suffix alongside _seconds")
	}
}

func TestWritePrometheusDeterministic(t *testing.T) {
	s := promSnapshot()
	var a, b strings.Builder
	if err := WritePrometheus(&a, s); err != nil {
		t.Fatal(err)
	}
	if err := WritePrometheus(&b, s); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("encoder output is not deterministic")
	}
}

func TestValidatePrometheusCatchesAbuse(t *testing.T) {
	cases := map[string]string{
		"missing HELP":      "# TYPE x counter\nx 1\n",
		"missing TYPE":      "# HELP x h\nx 1\n",
		"duplicate series":  "# HELP x h\n# TYPE x counter\nx 1\nx 2\n",
		"bad value":         "# HELP x h\n# TYPE x counter\nx nope\n",
		"bad name":          "# HELP 0x h\n# TYPE 0x counter\n0x 1\n",
		"quantile missing":  "# HELP x h\n# TYPE x summary\nx 1\n",
		"quantile range":    "# HELP x h\n# TYPE x summary\nx{quantile=\"7\"} 1\n",
		"empty exposition":  "\n",
		"malformed labels":  "# HELP x h\n# TYPE x counter\nx{oops} 1\n",
		"duplicate labeled": "# HELP x h\n# TYPE x counter\nx{a=\"1\"} 1\nx{a=\"1\"} 2\n",
	}
	for name, doc := range cases {
		if err := ValidatePrometheus(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: validator accepted malformed exposition:\n%s", name, doc)
		}
	}
	good := "# HELP x h\n# TYPE x summary\nx{quantile=\"0.5\"} 1.5\nx_sum 3\nx_count 2\n"
	if err := ValidatePrometheus(strings.NewReader(good)); err != nil {
		t.Errorf("validator rejected a legal summary: %v", err)
	}
}

// TestSnapshotUnderContention hammers counters and histograms from many
// goroutines while snapshots run, pinning down that Snapshot is safe and
// monotone under the race detector.
func TestSnapshotUnderContention(t *testing.T) {
	c := New()
	const (
		writers = 8
		perG    = 5000
	)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			ctr := c.Counter("hammer.count")
			h := c.Histogram("hammer.lat")
			gg := c.Gauge("hammer.gauge")
			for i := 0; i < perG; i++ {
				ctr.Inc()
				h.Observe(time.Duration(i%1000) * time.Nanosecond)
				gg.Add(1)
			}
		}(g)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	close(start)

	var prev uint64
	for {
		s := c.Snapshot()
		if n := s.Counters["hammer.count"]; n < prev {
			t.Fatalf("counter went backwards: %d -> %d", prev, n)
		} else {
			prev = n
		}
		if h, ok := s.Histograms["hammer.lat"]; ok {
			var bucketTotal uint64
			for _, b := range h.Buckets {
				bucketTotal += b.Count
			}
			// Count and bucket totals are loaded independently; each must
			// still be monotone and self-consistent in bounds.
			if bucketTotal > uint64(writers*perG) || h.Count > uint64(writers*perG) {
				t.Fatalf("overflowed totals: buckets=%d count=%d", bucketTotal, h.Count)
			}
		}
		select {
		case <-done:
			s = c.Snapshot()
			if n := s.Counters["hammer.count"]; n != writers*perG {
				t.Fatalf("final count %d, want %d", n, writers*perG)
			}
			if h := s.Histograms["hammer.lat"]; h.Count != writers*perG {
				t.Fatalf("final hist count %d, want %d", h.Count, writers*perG)
			}
			return
		default:
		}
	}
}

// TestHistogramQuantileAccuracy bounds the log-bucket quantile estimator
// against known distributions: the estimate is a bucket upper bound, so
// it must never be below the true quantile and never more than 2x above
// it (buckets are powers of two).
func TestHistogramQuantileAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	dists := map[string]func() time.Duration{
		"uniform": func() time.Duration {
			return time.Duration(1 + rng.Int63n(1_000_000))
		},
		"exponential": func() time.Duration {
			return time.Duration(rng.ExpFloat64() * 50_000)
		},
		"bimodal": func() time.Duration {
			if rng.Intn(10) == 0 {
				return time.Duration(1_000_000 + rng.Int63n(1_000_000))
			}
			return time.Duration(1_000 + rng.Int63n(1_000))
		},
	}
	for name, draw := range dists {
		t.Run(name, func(t *testing.T) {
			c := New()
			h := c.Histogram("h")
			const n = 200_000
			vals := make([]uint64, n)
			for i := range vals {
				d := draw()
				if d < 1 {
					d = 1
				}
				vals[i] = uint64(d)
				h.Observe(d)
			}
			sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
			snap := c.Snapshot().Histograms["h"]
			for _, q := range []struct {
				q    float64
				est  uint64
				name string
			}{
				{0.50, snap.P50NS, "p50"},
				{0.90, snap.P90NS, "p90"},
				{0.99, snap.P99NS, "p99"},
				{0.999, snap.P999NS, "p999"},
			} {
				// True quantile with the same "smallest x covering q·n
				// observations" convention the bucket walk uses.
				idx := int(math.Ceil(q.q*float64(n))) - 1
				if idx < 0 {
					idx = 0
				}
				truth := vals[idx]
				if q.est < truth {
					t.Errorf("%s estimate %d below true quantile %d", q.name, q.est, truth)
				}
				if q.est > 2*truth {
					t.Errorf("%s estimate %d above 2x true quantile %d", q.name, q.est, truth)
				}
			}
		})
	}
}
