package obs

import (
	"fmt"
	"sort"
	"strings"
	"text/tabwriter"
	"time"
)

// Snapshot is a point-in-time, JSON-serializable copy of every metric in a
// collector. It is what repro.Telemetry() returns and what the expvar
// endpoint publishes.
type Snapshot struct {
	// Mode is the process-wide timing mode at snapshot time ("counters"
	// or "timing").
	Mode string `json:"mode"`
	// Counters maps metric name -> total.
	Counters map[string]uint64 `json:"counters,omitempty"`
	// Gauges maps metric name -> current value.
	Gauges map[string]int64 `json:"gauges,omitempty"`
	// Histograms maps metric name -> distribution summary.
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// HistogramSnapshot summarizes one latency histogram.
type HistogramSnapshot struct {
	// Count is the number of observations.
	Count uint64 `json:"count"`
	// SumNS is the summed duration in nanoseconds.
	SumNS uint64 `json:"sum_ns"`
	// MeanNS is SumNS / Count (0 when empty).
	MeanNS float64 `json:"mean_ns"`
	// P50NS, P90NS, P99NS and P999NS are bucket-resolution quantile
	// estimates (the upper bound of the bucket the quantile falls in, so
	// an estimate is never below the true quantile and, buckets being
	// powers of two, never more than 2x above it).
	P50NS  uint64 `json:"p50_ns"`
	P90NS  uint64 `json:"p90_ns"`
	P99NS  uint64 `json:"p99_ns"`
	P999NS uint64 `json:"p999_ns"`
	// Buckets lists the non-empty log-scale buckets.
	Buckets []HistogramBucket `json:"buckets,omitempty"`
}

// HistogramBucket is one non-empty log-scale bucket: Count observations
// with duration < UpperNS (and ≥ the previous bucket's bound).
type HistogramBucket struct {
	UpperNS uint64 `json:"upper_ns"`
	Count   uint64 `json:"count"`
}

// snapshotHistogram copies one histogram's atomics. Concurrent writers may
// land between the loads, so totals are internally consistent only up to
// per-field monotonicity — which is all a live snapshot can promise.
func snapshotHistogram(h *Histogram) HistogramSnapshot {
	s := HistogramSnapshot{Count: h.count.Load(), SumNS: h.sumNS.Load()}
	var bucketTotal uint64
	for i := range h.buckets {
		n := h.buckets[i].Load()
		if n == 0 {
			continue
		}
		s.Buckets = append(s.Buckets, HistogramBucket{UpperNS: bucketUpperNS(i), Count: n})
		bucketTotal += n
	}
	if s.Count > 0 {
		s.MeanNS = float64(s.SumNS) / float64(s.Count)
	}
	// Quantiles from the bucket totals (which may differ transiently from
	// Count under concurrent writes; use what the buckets actually hold).
	s.P50NS = bucketQuantile(s.Buckets, bucketTotal, 0.50)
	s.P90NS = bucketQuantile(s.Buckets, bucketTotal, 0.90)
	s.P99NS = bucketQuantile(s.Buckets, bucketTotal, 0.99)
	s.P999NS = bucketQuantile(s.Buckets, bucketTotal, 0.999)
	return s
}

func bucketQuantile(buckets []HistogramBucket, total uint64, q float64) uint64 {
	if total == 0 {
		return 0
	}
	target := uint64(q * float64(total))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for _, b := range buckets {
		cum += b.Count
		if cum >= target {
			return b.UpperNS
		}
	}
	return buckets[len(buckets)-1].UpperNS
}

// Snapshot copies every metric. Safe to call while recorders are running.
func (c *Collector) Snapshot() Snapshot {
	s := Snapshot{Mode: Mode(mode.Load()).String()}
	if c == nil {
		return s
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	if len(c.counters) > 0 {
		s.Counters = make(map[string]uint64, len(c.counters))
		for name, v := range c.counters {
			s.Counters[name] = v.Load()
		}
	}
	if len(c.gauges) > 0 {
		s.Gauges = make(map[string]int64, len(c.gauges))
		for name, v := range c.gauges {
			s.Gauges[name] = v.Load()
		}
	}
	if len(c.hists) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(c.hists))
		for name, h := range c.hists {
			s.Histograms[name] = snapshotHistogram(h)
		}
	}
	return s
}

// Table renders the snapshot as an aligned, sorted plain-text table — the
// format `idarepro offline -v` and `idarepro eval -v` print at exit.
func (s Snapshot) Table() string {
	var b strings.Builder
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprintf(w, "telemetry (mode=%s)\n", s.Mode)
	if len(s.Counters) > 0 {
		fmt.Fprintf(w, "counter\tvalue\n")
		for _, name := range sortedKeys(s.Counters) {
			fmt.Fprintf(w, "  %s\t%d\n", name, s.Counters[name])
		}
	}
	if len(s.Gauges) > 0 {
		fmt.Fprintf(w, "gauge\tvalue\n")
		for _, name := range sortedKeys(s.Gauges) {
			fmt.Fprintf(w, "  %s\t%d\n", name, s.Gauges[name])
		}
	}
	if len(s.Histograms) > 0 {
		fmt.Fprintf(w, "histogram\tcount\ttotal\tmean\tp50\tp99\n")
		for _, name := range sortedKeys(s.Histograms) {
			h := s.Histograms[name]
			fmt.Fprintf(w, "  %s\t%d\t%v\t%v\t%v\t%v\n",
				name, h.Count,
				time.Duration(h.SumNS).Round(time.Microsecond),
				time.Duration(h.MeanNS).Round(time.Nanosecond),
				time.Duration(h.P50NS), time.Duration(h.P99NS))
		}
	}
	w.Flush()
	return b.String()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
